"""Count-table parsing, report serialization, and the CLI contract."""
import dataclasses
import io as stdio
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import renydiv
from renydiv import ValidationError, io, powerlaw_pmf
from renydiv.cli import load_sim_config, run_cli
from renydiv.io import (
    CountTableFile,
    NameList,
    dumps_report,
    dumps_report_tsv,
    jsonable,
    parse_count_table,
    write_count_table,
    write_report,
)


def write_table(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(str(v) for v in row) + "\n")


@pytest.fixture
def two_col(tmp_path):
    path = tmp_path / "counts.tsv"
    write_table(path, ["category", "s1"], [["a", 5], ["b", 3], ["c", 2]])
    return str(path)


@pytest.fixture
def pair_table(tmp_path):
    rng = np.random.default_rng(301)
    cx = rng.multinomial(39084, powerlaw_pmf(0.87, 165).probs)
    cy = rng.multinomial(39084, powerlaw_pmf(0.97, 165).probs)
    path = tmp_path / "pair.tsv"
    rows = [[f"g{i}", int(cx[i]), int(cy[i])] for i in range(165)]
    write_table(path, ["category", "x", "y"], rows)
    return str(path)


class TestParse:
    def test_two_column(self, two_col):
        table = parse_count_table(two_col)
        assert table.categories == ["a", "b", "c"]
        assert table.sample_names == ["s1"]
        cv = table.count_vector("s1")
        assert cv.n == 10 and cv.m == 3

    def test_six_sample_schema(self, tmp_path):
        path = tmp_path / "six.tsv"
        names = ["T1", "N1", "T2", "N2", "T3", "N3"]
        rows = [[f"tx{i}"] + [i + k + 1 for k in range(6)] for i in range(5)]
        write_table(path, ["category"] + names, rows)
        table = parse_count_table(path)
        assert table.sample_names == names
        assert all(table.samples[n].shape == (5,) for n in names)

    def test_duplicate_category(self, tmp_path):
        path = tmp_path / "dup.tsv"
        write_table(path, ["category", "s"], [["a", 1], ["b", 2], ["a", 3]])
        with pytest.raises(ValidationError, match=r"line 4.*'a' \(first seen on line 2\)"):
            parse_count_table(path)

    def test_non_integer_count(self, tmp_path):
        path = tmp_path / "bad.tsv"
        write_table(path, ["category", "s"], [["a", "1.5"]])
        with pytest.raises(ValidationError, match="line 2"):
            parse_count_table(path)

    def test_negative_count(self, tmp_path):
        path = tmp_path / "neg.tsv"
        write_table(path, ["category", "s"], [["a", -1]])
        with pytest.raises(ValidationError, match="negative"):
            parse_count_table(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.tsv"
        with open(path, "w") as fh:
            fh.write("category\ts\na\t1\nb\n")
        with pytest.raises(ValidationError, match="line 3"):
            parse_count_table(path)

    def test_round_trip(self, tmp_path):
        table = CountTableFile(
            categories=["x", "y", "z"],
            samples={"a": np.array([1, 0, 4]), "b": np.array([2, 2, 2])},
        )
        path = tmp_path / "rt.tsv"
        write_count_table(table, path)
        back = parse_count_table(path)
        assert back.categories == table.categories
        assert back.sample_names == table.sample_names
        for name in table.sample_names:
            assert np.array_equal(back.samples[name], table.samples[name])

    @settings(max_examples=40, deadline=None)
    @given(
        n_rows=st.integers(min_value=1, max_value=12),
        n_cols=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_round_trip_random_tables(self, n_rows, n_cols, seed, tmp_path_factory):
        rng = np.random.default_rng(seed)
        table = CountTableFile(
            categories=[f"cat_{i}" for i in range(n_rows)],
            samples={
                f"s{k}": rng.integers(0, 10**6, size=n_rows, dtype=np.int64)
                for k in range(n_cols)
            },
        )
        path = tmp_path_factory.mktemp("rt") / "table.tsv"
        write_count_table(table, path)
        back = parse_count_table(path)
        assert back.categories == table.categories
        for name in table.sample_names:
            assert np.array_equal(back.samples[name], table.samples[name])


def write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


HEADER = "category\ts1\ts2\n"


class TestParseErrors:
    """Each bad input names the first bad line, as the row-by-row parser always did."""

    @pytest.mark.parametrize("rows, message", [
        ("a\t1\t2\nb\t1\n", r"line 3: expected 3 fields, got 2"),
        # an extra field then a missing one: the total field count still matches
        ("a\t1\t2\nb\t1\t2\t3\nc\t1\nd\t4\t5\n", r"line 3: expected 3 fields, got 4"),
        ("a\t1\t2\nb\t1\nc\t1\t2\t3\nd\t4\t5\n", r"line 3: expected 3 fields, got 2"),
        # the same with digit category names: every cell of the shifted columns is digits
        ("1\t5\t5\n2\t6\t6\t9\n3\t7\n4\t8\t8\n", r"line 3: expected 3 fields, got 4"),
        ("a\t1\t2\n\n", r"line 3: expected 3 fields, got 1"),
        ("a\t1\t2\nb\t1\t2\na\t3\t4\n",
         r"line 4: duplicate category 'a' \(first seen on line 2\)"),
        ("a\t1\t2\nb\t1\t1.5\n", r"line 3: count '1.5' is not an integer"),
        ("a\t1\t2\nb\t-3\t2\n", r"line 3: negative count '-3'"),
        ("a\t1\t2\nb\t\t2\n", r"line 3: count '' is not an integer"),
        ("a\t1\t2\nb\tx\t2\na\t1\t1\n", r"line 3: count 'x'"),
        ("a\t1\t2\nb\t1\tzz\nc\tyy\t1\n", r"line 3: count 'zz'"),
        ("a\t1\t2\nb\t1\t2\nc\t7\t1\t\n", r"line 4: expected 3 fields, got 4"),
    ])
    def test_first_bad_line_named(self, tmp_path, rows, message):
        path = write_text(tmp_path / "bad.tsv", HEADER + rows)
        with pytest.raises(ValidationError, match=message):
            parse_count_table(path)

    @pytest.mark.parametrize("raw", ["1_000", " +7 ", "+7", " 7", "7 ", "٣", "0x1f",
                                     "1e3", "７", "-0", "-00", "--3"])
    def test_only_ascii_digits_accepted(self, tmp_path, raw):
        path = write_text(tmp_path / "bad.tsv", HEADER + f"a\t1\t2\nb\t4\t{raw}\nc\t1\t1\n")
        with pytest.raises(ValidationError, match=r"line 3: count .* is not an integer of ASCII"):
            parse_count_table(path)

    def test_int64_bounds(self, tmp_path):
        top = 2**63 - 1
        table = parse_count_table(write_text(tmp_path / "top.tsv", f"category\ts\na\t{top}\n"))
        assert table.samples["s"].tolist() == [top]
        path = write_text(tmp_path / "over.tsv", f"category\ts\na\t1\nb\t{top + 1}\n")
        with pytest.raises(ValidationError, match=rf"line 3: count '{top + 1}' exceeds"):
            parse_count_table(path)

    def test_overflow_is_a_validation_error_in_the_cli(self, tmp_path, capsys):
        path = write_text(tmp_path / "over.tsv", "category\ts\na\t5\nb\t99999999999999999999\n")
        assert run_cli(["entropy", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "99999999999999999999" in err

    def test_column_total_overflow_is_a_validation_error_in_the_cli(self, tmp_path, capsys):
        top = 2**63 - 1
        path = write_text(tmp_path / "sum.tsv", f"category\tbig\na\t{top}\nb\t{top}\nc\t10\n")
        assert run_cli(["entropy", str(path)]) == 2
        err = capsys.readouterr().err
        assert "sample column 'big'" in err and "exceeds the int64 maximum" in err

    def test_undecodable_table(self, tmp_path, capsys):
        path = tmp_path / "utf16.tsv"
        path.write_bytes(b"\xff\xfec\x00a\x00t\x00")
        assert run_cli(["entropy", str(path)]) == 2
        assert f"{path}: byte 0: not UTF-8" in capsys.readouterr().err
        head = b"category\ts\na\t1\n"
        path.write_bytes(head + b"b\xe9\t2\n")
        with pytest.raises(ValidationError, match=rf"byte {len(head) + 1}: not UTF-8"):
            parse_count_table(path)

    def test_long_counts_in_range_accepted(self, tmp_path):
        # 19 digits, and leading zeros past 18 digits, still fit in int64
        path = write_text(tmp_path / "long.tsv",
                          "category\ts\na\t1000000000000000000\nb\t0000000000000000000042\n")
        assert parse_count_table(path).samples["s"].tolist() == [10**18, 42]

    def test_crlf_line_ends(self, tmp_path):
        lf = write_text(tmp_path / "lf.tsv", HEADER + "a\t1\t2\nb\t30\t4\n")
        crlf = write_text(tmp_path / "crlf.tsv", (HEADER + "a\t1\t2\nb\t30\t4\n")
                          .replace("\n", "\r\n"))
        a, b = parse_count_table(lf), parse_count_table(crlf)
        assert b.categories == a.categories == ["a", "b"]
        assert b.sample_names == a.sample_names == ["s1", "s2"]
        for name in a.sample_names:
            assert b.samples[name].tolist() == a.samples[name].tolist()


category_names = st.lists(
    st.text(st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)),
            max_size=6),
    min_size=1, max_size=15, unique=True)


class TestParsePaths:
    @settings(max_examples=60, deadline=None)
    @given(names=category_names, n_cols=st.integers(1, 3), data=st.data())
    def test_fast_and_row_parsers_agree(self, names, n_cols, data):
        counts = data.draw(st.lists(
            st.lists(st.integers(0, 10**18 - 1), min_size=n_cols, max_size=n_cols),
            min_size=len(names), max_size=len(names)))
        pad = data.draw(st.integers(0, 18))  # leading zeros, up to 18 digits in all
        body = "\n".join(name + "".join(f"\t{c:0{pad}d}" for c in row)
                         for name, row in zip(names, counts))
        fast = io._parse_rows_fast(body, n_cols + 1)
        slow = io._parse_rows_slow("t.tsv", body.split("\n"), n_cols + 1)
        assert fast is not None
        assert fast[0] == slow[0] == names
        for f, s, k in zip(fast[1], slow[1], range(n_cols)):
            assert f.dtype == s.dtype == np.int64
            assert f.tolist() == s.tolist() == [row[k] for row in counts]

    def test_valid_table_never_runs_the_row_parser(self, pair_table, monkeypatch):
        def fail(*args):
            raise AssertionError("row-by-row parser ran on a valid table")
        monkeypatch.setattr(io, "_parse_rows_slow", fail)
        assert parse_count_table(pair_table).samples["x"].size == 165


class TestJsonable:
    def test_nine_significant_digits(self):
        out = jsonable({"v": 0.123456789123456789})
        assert out["v"] == 0.123456789

    def test_nan_and_inf(self):
        out = jsonable({"a": float("nan"), "b": float("inf")})
        assert out["a"] is None and out["b"] == "Infinity"

    def test_numpy_types(self):
        out = jsonable({"i": np.int64(3), "f": np.float64(0.25), "arr": np.arange(3)})
        assert out == {"i": 3, "f": 0.25, "arr": [0, 1, 2]}


def reference_jsonable(obj):
    """jsonable as it converted before its array and string-list fast paths;
    a NameList becomes the list of its names."""
    if isinstance(obj, NameList):
        return [obj.names[i] for i in obj.index.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: reference_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return [reference_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [reference_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isnan(x) or math.isinf(x):
            return None if math.isnan(x) else ("Infinity" if x > 0 else "-Infinity")
        return float(f"{x:.9g}")
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    return str(obj)


def reference_tsv(obj) -> str:
    flat = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{prefix}.{k}" if prefix else str(k), v)
        elif isinstance(value, list):
            for i, v in enumerate(value):
                walk(f"{prefix}[{i}]", v)
        else:
            flat.append((prefix, "" if value is None else str(value)))

    walk("", reference_jsonable(obj))
    return "\n".join(f"{k}\t{v}" for k, v in flat) + "\n"


@dataclasses.dataclass(frozen=True)
class Node:
    name: str
    value: object


odd_text = st.text(st.sampled_from(list('ab "\\\x00\x01\x1f\x7f/éΩ€🧬 \n\t')), max_size=8)
plain_text = st.text(st.sampled_from(list("abc XYZ019-_.:")), max_size=8)
any_text = st.one_of(odd_text, plain_text, st.text(max_size=8))
int64s = st.integers(-2**63, 2**63 - 1)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.floats(width=32), any_text,
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    int64s.map(np.int64), st.booleans().map(np.bool_),
)
arrays = st.one_of(
    st.lists(int64s, max_size=6).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.integers(0, 255), max_size=6).map(lambda v: np.array(v, dtype=np.uint8)),
    st.lists(st.booleans(), max_size=6).map(lambda v: np.array(v, dtype=bool)),
    st.lists(st.floats(), max_size=6).map(lambda v: np.array(v, dtype=float)),
    st.lists(int64s, min_size=6, max_size=6).map(lambda v: np.array(v).reshape(2, 3)),
)
name_lists = st.one_of(st.lists(odd_text, min_size=1, max_size=5),
                       st.lists(plain_text, min_size=1, max_size=5)).flatmap(
    lambda table: st.lists(st.integers(0, len(table) - 1), max_size=8).map(
        lambda index: NameList(np.array(table, dtype=object), np.array(index, dtype=np.intp))))
reports = st.recursive(
    st.one_of(scalars, arrays, st.lists(odd_text, max_size=5),
              st.lists(plain_text, max_size=5), name_lists),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(st.one_of(any_text, st.integers()), children, max_size=4),
        st.builds(Node, any_text, children),
    ),
    max_leaves=25,
)


class TestEmitter:
    @settings(max_examples=300, deadline=None)
    @given(obj=reports)
    def test_matches_reference_encoding(self, obj):
        expected = json.dumps(reference_jsonable(obj), indent=2)
        assert dumps_report(obj) == expected
        sink = stdio.StringIO()
        write_report(obj, sink)
        assert sink.getvalue() == expected
        assert dumps_report_tsv(obj) == reference_tsv(obj)

    @pytest.mark.parametrize("names", [["g1", "g 2", "x:y"], ['q"', "b\\s", "é", "\x01", ""]])
    def test_string_lists_escape_like_json(self, names):
        obj = {"categories": names, "nested": [names, {"k": tuple(names)}]}
        assert dumps_report(obj) == json.dumps(obj, indent=2)


class TestCli:
    def test_entropy_json_schema(self, two_col, capsys):
        assert run_cli(["entropy", "--alpha", "0.5", two_col]) == 0
        payload = json.loads(capsys.readouterr().out)
        est = payload["H_alpha"]["s1"]
        for key in ("estimate", "lower", "upper", "std_error", "n", "m", "method"):
            assert key in est

    def test_divergence_two_files(self, tmp_path, capsys):
        rng = np.random.default_rng(302)
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        cx = rng.multinomial(5000, powerlaw_pmf(0.6, 50).probs)
        cy = rng.multinomial(5000, powerlaw_pmf(1.2, 50).probs)
        write_table(a, ["category", "sa"], [[f"g{i}", int(cx[i])] for i in range(50)])
        write_table(b, ["category", "sb"], [[f"g{i}", int(cy[i])] for i in range(50)])
        assert run_cli(["divergence", str(a), str(b)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["x"] == "sa" and payload["y"] == "sb"
        assert payload["D_alpha"]["estimate"] > 0

    def test_pipeline_field_names(self, pair_table, capsys):
        assert run_cli(["pipeline", "--alpha", "0.5", pair_table]) == 0
        payload = json.loads(capsys.readouterr().out)
        sample = payload["samples"]["x"]
        for key in ("H_alpha", "ENC_alpha", "k_m", "noise_fraction", "signal_fraction"):
            assert key in sample
        assert "D_alpha" in payload and "equality" in payload

    def test_test_equality(self, pair_table, capsys):
        assert run_cli(["test-equality", pair_table]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["equality"]["p_value"] < 1e-4

    def test_filter_noise(self, pair_table, capsys):
        assert run_cli(["filter-noise", pair_table]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "k_m" in payload["x"] and "noise_fraction" in payload["x"]

    def test_fit_powerlaw(self, pair_table, capsys):
        assert run_cli(["fit-powerlaw", pair_table]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["x"]["beta_hat"] - 0.87) < 0.15

    def test_homogeneity_needs_pairs(self, two_col):
        assert run_cli(["test-homogeneity", two_col]) == 2

    def test_homogeneity_six_columns(self, tmp_path, capsys):
        rng = np.random.default_rng(303)
        p = powerlaw_pmf(1.0, 80).probs
        names = ["T1", "N1", "T2", "N2", "T3", "N3"]
        cols = [rng.multinomial(20000, p) for _ in range(6)]
        path = tmp_path / "six.tsv"
        rows = [[f"g{i}"] + [int(col[i]) for col in cols] for i in range(80)]
        write_table(path, ["category"] + names, rows)
        assert run_cli(["test-homogeneity", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pairs"] == [["T1", "N1"], ["T2", "N2"], ["T3", "N3"]]
        assert 0 <= payload["homogeneity"]["p_value"] <= 1

    def test_tsv_format(self, two_col, capsys):
        assert run_cli(["entropy", "--format", "tsv", two_col]) == 0
        out = capsys.readouterr().out
        assert "H_alpha.s1.estimate\t" in out

    def test_output_file(self, two_col, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli(["entropy", "--output", str(out), two_col]) == 0
        payload = json.loads(out.read_text())
        assert "H_alpha" in payload

    def test_pipeline_emission_stays_under_parse_peak(self, tmp_path):
        # the report lists all m category names; writing it must not need
        # more memory than parsing the table did
        m, reads = 200_000, 2_000_000
        rng = np.random.default_rng(20240611)
        signal_m, blocks = m // 5, (m // 2, m - m // 2 - m // 5)
        w = np.arange(1, signal_m + 1, dtype=float) ** -1.0
        cols = [np.concatenate([rng.multinomial(reads // 2, w / w.sum())]
                               + [np.bincount(rng.integers(0, size, reads // 4), minlength=size)
                                  for size in blocks])
                for _ in range(2)]
        path, out = tmp_path / "table.tsv", tmp_path / "report.json"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("category\tx\ty\n")
            for i in rng.permutation(m).tolist():
                fh.write(f"g{i:06d}\t{int(cols[0][i])}\t{int(cols[1][i])}\n")

        def traced_peak(fn):
            tracemalloc.start()
            try:
                return fn(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        _, parse_peak = traced_peak(lambda: parse_count_table(path))
        rc, run_peak = traced_peak(lambda: run_cli(["pipeline", str(path), "--output", str(out)]))
        assert rc == 0 and out.stat().st_size > 20 * m
        assert run_peak <= parse_peak + 2**20

    @pytest.mark.parametrize("command", ["pipeline", "filter-noise"])
    def test_output_file_matches_stdout(self, command, pair_table, tmp_path, capsys):
        capsys.readouterr()
        assert run_cli([command, pair_table]) == 0
        out = tmp_path / "report.json"
        assert run_cli([command, pair_table, "--output", str(out)]) == 0
        assert out.read_bytes() == capsys.readouterr().out.encode("utf-8")

    def test_exit_codes(self, tmp_path, two_col):
        assert run_cli(["bogus-command"]) == 2
        assert run_cli(["entropy", str(tmp_path / "missing.tsv")]) == 2
        assert run_cli(["entropy", "--badflag", two_col]) == 2
        bad = tmp_path / "bad.tsv"
        write_table(bad, ["category", "s"], [["a", "x"]])
        assert run_cli(["entropy", str(bad)]) == 2

    def test_simulate_csv_and_determinism(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "family = power_law\nbeta = 1.0\nm = 40\nepsilon = 1.0\n"
            "alpha = 0.5\nB = 60\nstatistic = thm1_entropy\nmaster_seed = 5\n"
        )
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert run_cli(["simulate", "--config", str(cfg), "--output", str(out1)]) == 0
        assert run_cli(["simulate", "--config", str(cfg), "--output", str(out2),
                        "--workers", "3"]) == 0
        b1 = out1.read_bytes()
        assert b1 == out2.read_bytes()
        text = b1.decode()
        assert text.startswith("normal_quantile,sample_quantile\n")
        assert "# ks_distance=" in text

    def test_simulate_seed_flag_overrides(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "family = power_law\nbeta = 1.0\nm = 40\nepsilon = 1.0\n"
            "alpha = 0.5\nB = 30\nstatistic = thm1_entropy\nmaster_seed = 5\n"
        )
        o1, o2 = tmp_path / "1.csv", tmp_path / "2.csv"
        assert run_cli(["simulate", "--config", str(cfg), "--seed", "99",
                        "--output", str(o1)]) == 0
        assert run_cli(["simulate", "--config", str(cfg), "--output", str(o2)]) == 0
        assert o1.read_bytes() != o2.read_bytes()

    def test_env_seed_default(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "family = power_law\nbeta = 1.0\nm = 40\nepsilon = 1.0\n"
            "alpha = 0.5\nB = 30\nstatistic = thm1_entropy\n"
        )
        o1, o2 = tmp_path / "1.csv", tmp_path / "2.csv"
        env_before = os.environ.get("RENYDIV_SEED")
        try:
            os.environ["RENYDIV_SEED"] = "4242"
            assert run_cli(["simulate", "--config", str(cfg), "--output", str(o1)]) == 0
            assert run_cli(["simulate", "--config", str(cfg), "--seed", "4242",
                            "--output", str(o2)]) == 0
        finally:
            if env_before is None:
                os.environ.pop("RENYDIV_SEED", None)
            else:
                os.environ["RENYDIV_SEED"] = env_before
        assert o1.read_bytes() == o2.read_bytes()

    def test_undecodable_config(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        head = b"family = power_law\n"
        cfg.write_bytes(head + b"beta = 1.0\xff\n")
        with pytest.raises(ValidationError, match=rf"byte {len(head) + 10}: not UTF-8") as exc:
            load_sim_config(cfg)
        assert str(cfg) in str(exc.value)
        assert run_cli(["simulate", "--config", str(cfg)]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("family = power_law\nbogus = 1\n")
        assert run_cli(["simulate", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("key, raw, shown", [
        ("workers", "abc", "'abc'"), ("workers", "2.5", "2.5"), ("workers", "-3", "-3"),
        ("B", "abc", "'abc'"), ("B", "2.5", "2.5"), ("B", "true", "True"),
        ("m", "abc", "'abc'"), ("m", "1e3", "1000.0"), ("alpha", "abc", "'abc'"),
        ("alpha", "nan", "nan"), ("epsilon", "abc", "'abc'"), ("epsilon", "inf", "inf"),
        ("master_seed", "-1", "-1"), ("noise_block_sizes", "10, x", "(10, 'x')"),
        # n past 2**63 - 1, derived (m = 40) or given
        ("epsilon", "100", "100"), ("epsilon", "1000000", "1000000"),
        ("n_override", "10000000000000000000000", "10000000000000000000000"),
        # n_override would silently replace the epsilon of the base config
        ("n_override", "2000", "2000"),
        # m past the 2**31 - 1 cap, with a small n given on a line of its own
        ("m", "1000000000000000000000000000000\nn_override = 10",
         "1000000000000000000000000000000"),
    ])
    def test_bad_config_value_exits_2(self, tmp_path, capsys, key, raw, shown):
        values = {"family": "power_law", "beta": "1.0", "m": "40", "epsilon": "1.0",
                  "alpha": "0.5", "B": "30", "statistic": "thm1_entropy", key: raw}
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        assert run_cli(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err and shown in err

    def test_simulate_mixture_family_config(self, tmp_path, capsys):
        cfg = tmp_path / "mix.cfg"
        cfg.write_text(
            "family = mixture\nsignal_beta = 0.87\nsignal_m = 40\n"
            "signal_fraction = 0.54\nnoise_block_sizes = 400, 100\n"
            "noise_block_fractions = 0.26, 0.20\nm = 540\nn_override = 20000\n"
            "alpha = 0.5\nB = 50\nstatistic = thm1_entropy\nmaster_seed = 2\n"
        )
        assert run_cli(["simulate", "--config", str(cfg)]) == 0
        assert "# ks_distance=" in capsys.readouterr().out

    def test_simulate_single_noise_block_scalar(self, tmp_path, capsys):
        # a one-block mixture parses the sizes/fractions as bare scalars
        cfg = tmp_path / "mix1.cfg"
        cfg.write_text(
            "family = mixture\nsignal_beta = 1.0\nsignal_m = 30\n"
            "signal_fraction = 0.6\nnoise_block_sizes = 200\n"
            "noise_block_fractions = 0.4\nm = 230\nn_override = 10000\n"
            "alpha = 0.5\nB = 40\nstatistic = lemma2_pearson\nmaster_seed = 3\n"
        )
        assert run_cli(["simulate", "--config", str(cfg)]) == 0
        assert "# ks_distance=" in capsys.readouterr().out

    @pytest.mark.parametrize("sizes, fractions, m", [
        ("200", "0.4", "1000"), ("200", "0.4", "229"), ("300, 100", "0.3, 0.1", "400"),
    ])
    def test_simulate_mixture_m_off_support_exits_2(self, tmp_path, capsys, sizes, fractions, m):
        # the mixture's support is the noise blocks plus signal_m = 30; an m
        # that differs would standardize with the wrong number of categories
        cfg = tmp_path / "mix.cfg"
        cfg.write_text(
            "family = mixture\nsignal_beta = 1.0\nsignal_m = 30\n"
            f"signal_fraction = 0.6\nnoise_block_sizes = {sizes}\n"
            f"noise_block_fractions = {fractions}\nm = {m}\nn_override = 10000\n"
            "alpha = 0.5\nB = 40\nstatistic = lemma2_pearson\nmaster_seed = 3\n"
        )
        assert run_cli(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"m = {m} " in err

    def test_report_serialization_stable(self, two_col, capsys):
        run_cli(["entropy", two_col])
        first = capsys.readouterr().out
        run_cli(["entropy", two_col])
        second = capsys.readouterr().out
        assert first == second

    def test_dumps_report_round(self):
        assert json.loads(dumps_report({"x": 1.0})) == {"x": 1.0}

    def test_no_field_dropped_between_library_and_cli(self, two_col, pair_table, capsys):
        import dataclasses

        from renydiv import EstimateWithCI, TestReport

        run_cli(["entropy", two_col])
        est = json.loads(capsys.readouterr().out)["H_alpha"]["s1"]
        for f in dataclasses.fields(EstimateWithCI):
            assert f.name in est
        assert "advisories" in est["ld"]

        run_cli(["test-equality", pair_table])
        rep = json.loads(capsys.readouterr().out)["equality"]
        for f in dataclasses.fields(TestReport):
            assert f.name in rep

        run_cli(["filter-noise", pair_table])
        dec = json.loads(capsys.readouterr().out)["x"]
        for key in ("cutoff_k_m", "k_m", "noise_fraction", "signal_fraction",
                    "m_signal", "noise_components", "signal_categories"):
            assert key in dec
        if dec["noise_components"]:
            comp = dec["noise_components"][0]
            assert {"size", "level", "mean_count", "categories"} <= set(comp)


TABLE_COMMANDS = ["entropy", "divergence", "filter-noise", "test-equality", "test-homogeneity",
                  "fit-powerlaw", "pipeline"]


@pytest.fixture
def four_col(tmp_path):
    rng = np.random.default_rng(302)
    cols = [rng.multinomial(20000, powerlaw_pmf(beta, 60).probs) for beta in (0.9, 1.0, 0.9, 1.1)]
    path = tmp_path / "four.tsv"
    write_table(path, ["category", "x", "y", "x2", "y2"],
                [[f"g{i}", *(int(c[i]) for c in cols)] for i in range(60)])
    return str(path)


@pytest.mark.parametrize("command, flag, value", [
    *[(command, "--seed", "3") for command in TABLE_COMMANDS],
    *[(command, "--level", "0.1")
      for command in ("filter-noise", "test-equality", "test-homogeneity", "fit-powerlaw")],
    *[(command, "--alpha", "0.9") for command in ("filter-noise", "fit-powerlaw", "simulate")],
    ("simulate", "--level", "0.1"), ("simulate", "--format", "tsv"),
])
def test_unread_flag_exits_2(tmp_path, four_col, capsys, command, flag, value):
    # a command offers only the flags it reads, so an unread one is an error, not a no-op
    if command == "simulate":
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("family = power_law\nbeta = 1.0\nm = 20\nepsilon = 1.0\n"
                       "B = 10\nstatistic = thm1_entropy\n")
        argv = ["simulate", "--config", str(cfg)]
    else:
        argv = [command, four_col]
    argv += ["--output", str(tmp_path / "out")]
    assert run_cli(argv) == 0
    capsys.readouterr()
    assert run_cli(argv + [flag, value]) == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


_COUNT = st.one_of(st.integers(0, 60), st.sampled_from([2**62, 2**63 - 1, 10**18]))


@st.composite
def near_valid_tables(draw):
    """A small count table with some of: a BOM, blank lines, trailing tabs,
    zero or huge counts, one row, only the category column."""
    n_cols = draw(st.integers(0, 4))
    lines = ["category" + "".join(f"\ts{k}" for k in range(n_cols))]
    lines += [f"g{i}" + "".join(f"\t{draw(_COUNT)}" for _ in range(n_cols))
              for i in range(draw(st.integers(1, 6)))]
    for flaw in draw(st.sets(st.sampled_from(["blank", "tab"]))):
        at = draw(st.integers(0, len(lines) - 1))
        if flaw == "blank":
            lines.insert(at + 1, "")
        else:
            lines[at] += "\t"
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))
    return (("\ufeff" if draw(st.booleans()) else "") + text).encode()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(TABLE_COMMANDS),
       data=st.one_of(st.binary(max_size=48), near_valid_tables()))
def test_table_commands_fuzz(tmp_path, command, data):
    # any input ends in a result or a pointed error, never an internal one, and soon
    path = tmp_path / "fuzz.tsv"
    path.write_bytes(data)
    start = time.perf_counter()
    assert run_cli([command, str(path), "--output", str(tmp_path / "out")]) in (0, 2)
    assert time.perf_counter() - start < 2.0


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats alone costs more than half a second of every CLI cold start
    src = str(Path(renydiv.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, renydiv.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
