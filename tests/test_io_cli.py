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
from renydiv.counts import INT64_MAX
from renydiv.io import (
    CountTableFile,
    NameList,
    dumps_report,
    jsonable,
    parse_count_table,
    write_report,
    write_report_tsv,
)


def write_table(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(str(v) for v in row) + "\n")


def write_count_table(table: CountTableFile, path) -> None:
    """Write a table in the TSV format parse_count_table reads, cell by cell."""
    columns = list(table.samples.values())
    rows = ([cat, *(int(col[i]) for col in columns)] for i, cat in enumerate(table.categories))
    write_table(path, ["category", *table.samples], rows)


def write_mixture_table(path, m: int) -> None:
    """A two-sample table of m categories: a power-law signal plus two uniform noise blocks."""
    reads = 10 * m
    rng = np.random.default_rng(20240611)
    signal_m, blocks = m // 5, (m // 2, m - m // 2 - m // 5)
    w = np.arange(1, signal_m + 1, dtype=float) ** -1.0
    cols = [np.concatenate([rng.multinomial(reads // 2, w / w.sum())]
                           + [np.bincount(rng.integers(0, size, reads // 4), minlength=size)
                              for size in blocks])
            for _ in range(2)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("category\tx\ty\n")
        for i in rng.permutation(m).tolist():
            fh.write(f"g{i:06d}\t{int(cols[0][i])}\t{int(cols[1][i])}\n")


def traced_peak(fn):
    """fn() and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
        assert table.categories.tolist() == ["a", "b", "c"]
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
        assert back.categories.tolist() == table.categories
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
        assert back.categories.tolist() == table.categories
        for name in table.sample_names:
            assert np.array_equal(back.samples[name], table.samples[name])

    def test_round_trip_bytes_of_the_cell_by_cell_writer(self, tmp_path):
        rng = np.random.default_rng(5)
        cats = [f"g {i}é" for i in range(300)] + ["", "x:y", "🧬"]
        table = CountTableFile(categories=cats, samples={
            "a b": rng.integers(0, 10**6, len(cats)), "é": rng.integers(0, 2**63 - 1, len(cats)),
            "u": np.arange(len(cats), dtype=np.uint8)})
        path = tmp_path / "rt.tsv"
        write_count_table(table, path)
        back = parse_count_table(path)
        assert back.categories.tolist() == cats and back.sample_names == ["a b", "é", "u"]
        for name in table.sample_names:
            assert back.samples[name].tolist() == table.samples[name].tolist()


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
        assert b.categories.tolist() == a.categories.tolist() == ["a", "b"]
        assert b.sample_names == a.sample_names == ["s1", "s2"]
        for name in a.sample_names:
            assert b.samples[name].tolist() == a.samples[name].tolist()


category_names = st.lists(
    st.text(st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)),
            max_size=6),
    min_size=1, max_size=15, unique=True)


def reference_parse_rows(path, lines: list, width: int):
    """Row-by-row parse that raises on the first bad line, naming it: the parser
    every table that failed a chunk check went through before the chunk loop
    built all count columns, kept verbatim but for its name as the reference."""
    categories: list[str] = []
    seen: dict[str, int] = {}
    columns = [[] for _ in range(width - 1)]
    for lineno, line in enumerate(lines, start=2):
        parts = line.split("\t")
        if len(parts) != width:
            raise ValidationError(
                f"{path}: line {lineno}: expected {width} fields, got {len(parts)}"
            )
        cat = parts[0]
        if cat in seen:
            raise ValidationError(
                f"{path}: line {lineno}: duplicate category {cat!r} "
                f"(first seen on line {seen[cat]})"
            )
        seen[cat] = lineno
        categories.append(cat)
        for k, raw in enumerate(parts[1:]):
            columns[k].append(reference_parse_count(path, lineno, raw))
    return categories, [np.asarray(col, dtype=np.int64) for col in columns]


def reference_parse_count(path, lineno: int, raw: str) -> int:
    if raw.isascii() and raw.isdigit():
        value = int(raw)
        if value > INT64_MAX:
            raise ValidationError(
                f"{path}: line {lineno}: count {raw!r} exceeds the int64 maximum {INT64_MAX}"
            )
        return value
    magnitude = raw[1:]
    if raw[:1] == "-" and magnitude.isascii() and magnitude.isdigit() and magnitude.strip("0"):
        raise ValidationError(f"{path}: line {lineno}: negative count {raw!r}")
    raise ValidationError(
        f"{path}: line {lineno}: count {raw!r} is not an integer of ASCII digits 0-9"
    )


def write_body(directory, body: str, n_cols: int) -> str:
    """The path of a table of n_cols samples whose body, the lines after the header,
    is `body`."""
    header = "category" + "".join(f"\ts{k}" for k in range(n_cols))
    return str(write_text(directory / "t.tsv", header + "\n" + body + "\n"))


def parse_outcomes(path, body: str, n_cols: int) -> list:
    """What parse_count_table and the reference make of the table at path: its
    categories and column values, or the error message."""
    def chunked():
        table = parse_count_table(path)
        return table.categories.tolist(), table.samples.values()

    outcomes = []
    for parse in (chunked, lambda: reference_parse_rows(path, body.split("\n"), n_cols + 1)):
        try:
            categories, columns = parse()
        except ValidationError as exc:
            outcomes.append(str(exc))
            continue
        assert all(col.dtype == np.int64 for col in columns)
        outcomes.append((categories, [col.tolist() for col in columns]))
    return outcomes


# a count as its cells are written: up to 2**63 - 1 and one past it, with up to 22 digits
# once leading zeros are added
cell_texts = st.builds(
    lambda value, width: f"{value:0{width}d}",
    st.one_of(st.integers(0, 10**18 - 1), st.integers(10**18, 2**63 - 1), st.just(2**63)),
    st.integers(0, 22))


class TestParsePaths:
    @settings(max_examples=60, deadline=None)
    @given(names=category_names, n_cols=st.integers(1, 3), data=st.data())
    def test_fast_and_row_parsers_agree(self, names, n_cols, data, tmp_path_factory):
        counts = data.draw(st.lists(
            st.lists(st.integers(0, 2**63 - 1), min_size=n_cols, max_size=n_cols),
            min_size=len(names), max_size=len(names)))
        pad = data.draw(st.integers(0, 22))  # leading zeros, up to 22 digits in all
        body = "\n".join(name + "".join(f"\t{c:0{pad}d}" for c in row)
                         for name, row in zip(names, counts))
        path = write_body(tmp_path_factory.mktemp("agree"), body, n_cols)
        new, old = parse_outcomes(path, body, n_cols)
        assert new == old == (names, [[row[k] for row in counts] for k in range(n_cols)])

    def test_valid_table_never_runs_the_row_parser(self, pair_table, tmp_path, monkeypatch):
        def fail(*args):
            raise AssertionError("the line checker ran on a valid table")
        monkeypatch.setattr(io, "_raise_first_bad_line", fail)
        assert parse_count_table(pair_table).samples["x"].size == 165
        long = write_text(tmp_path / "long.tsv", HEADER + f"a\t1\t{2**63 - 1}\n"
                          f"b\t{10**18}\t0000000000000000000042\nc\t7\t{'0' * 5000}9\n")
        assert parse_count_table(long).samples["s2"].tolist() == [2**63 - 1, 42, 9]

    @settings(max_examples=150, deadline=None)
    @given(names=category_names, n_cols=st.integers(1, 3), chunk=st.integers(0, 40),
           data=st.data())
    def test_chunked_parse_matches_the_row_parser(self, names, n_cols, chunk, data,
                                                  tmp_path_factory):
        # chunks of a few characters put chunk cuts at every place in a row; each
        # table gives the reference's categories and columns, or its error message
        rows = [name + "".join(f"\t{c}" for c in data.draw(
            st.lists(cell_texts, min_size=n_cols, max_size=n_cols)))
            for name in names]
        # a cell np.fromstring would read or skip, were it not refused first
        cells = ["1"] * n_cols
        cells[data.draw(st.integers(0, n_cols - 1))] = data.draw(st.sampled_from(
            [" 5", "5 ", "+5", "-0", "", "٣", "1_0", "9" * 20]))
        bad_line = data.draw(st.sampled_from([None, "", names[0] + "\t1" * n_cols,
                                              "x" + "\t1" * (n_cols + 1), "y\t" + "\t1" * n_cols,
                                              "z" + "\t-7" * n_cols, "w" + "\t1.5" * n_cols,
                                              "\t".join(["v", *cells]),
                                              "t" + "\t1" * n_cols + "\t"]))
        if bad_line is not None:
            rows.insert(data.draw(st.integers(0, len(rows))), bad_line)
        body = "\n".join(rows)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(io, "_CHUNK", chunk)
            path = write_body(tmp_path_factory.mktemp("chunk"), body, n_cols)
            new, old = parse_outcomes(path, body, n_cols)
        assert new == old

    def test_duplicate_across_chunks_named_by_the_row_parser(self, tmp_path, monkeypatch):
        rows = "".join(f"g{i:03d}\t{i}\t1\n" for i in range(200)) + "g007\t5\t5\n"
        path = write_text(tmp_path / "dup.tsv", HEADER + rows)
        monkeypatch.setattr(io, "_CHUNK", 24)  # two or three rows a chunk
        with pytest.raises(ValidationError,
                           match=r"line 202: duplicate category 'g007' \(first seen on line 9\)"):
            parse_count_table(path)

    def test_equal_hashes_fall_back_to_the_exact_check(self, pair_table, tmp_path, monkeypatch):
        monkeypatch.setattr(io, "hash", lambda name: 7, raising=False)
        assert parse_count_table(pair_table).categories.tolist() == [f"g{i}" for i in range(165)]
        path = write_text(tmp_path / "dup.tsv", HEADER + "a\t1\t2\nb\t1\t2\na\t3\t4\n")
        with pytest.raises(ValidationError, match=r"line 4: duplicate category 'a'"):
            parse_count_table(path)

    def test_line_checker_reads_to_the_failing_chunk(self, tmp_path, monkeypatch):
        # a bad count is found among the lines up to its chunk's end; a repeated
        # category, known only after the last chunk, among all of them
        read, check = [], io._raise_first_bad_line

        def counted(path, lines, width):
            read.append(len(lines))
            check(path, lines, width)
        monkeypatch.setattr(io, "_raise_first_bad_line", counted)
        monkeypatch.setattr(io, "_CHUNK", 24)  # two or three rows a chunk
        rows = [f"g{i:03d}\t{i}\t1\n" for i in range(200)]
        bad = write_text(tmp_path / "bad.tsv", HEADER + "".join(rows[:5]) + "g005\t-5\t1\n"
                         + "".join(rows[6:]))
        with pytest.raises(ValidationError, match=r"line 7: negative count '-5'"):
            parse_count_table(bad)
        assert 6 <= read.pop() <= 9
        dup = write_text(tmp_path / "dup.tsv", HEADER + "".join(rows) + "g007\t5\t5\n")
        with pytest.raises(ValidationError, match=r"line 202: duplicate category 'g007'"):
            parse_count_table(dup)
        assert read == [201]

    def test_line_checker_fails_on_a_good_body(self):
        # a table that the chunk loop refused but that holds no bad line is a bug,
        # never an accepted table
        with pytest.raises(AssertionError):
            io._raise_first_bad_line("t.tsv", ["a\t1\t2", "b\t3\t0000000000000000000004"], 3)

    def test_chunk_memory_does_not_grow_with_the_rows(self, tmp_path, monkeypatch):
        # a chunk's traced peak, minus what it leaves in the result (its names), is a
        # few times its own size: its buffers and masks never grow with the table
        m, path = 300_000, tmp_path / "table.tsv"
        write_mixture_table(path, m)
        spent, parse_chunk = [], io._parse_chunk

        def traced(text, columns, row):
            tracemalloc.reset_peak()
            parsed = parse_chunk(text, columns, row)
            held, peak = tracemalloc.get_traced_memory()
            spent.append(peak - held)
            return parsed
        monkeypatch.setattr(io, "_parse_chunk", traced)
        table, _ = traced_peak(lambda: parse_count_table(path))
        assert len(table.categories) == m and len(spent) >= 3
        assert max(spent) <= 4 * io._CHUNK

    def test_count_past_the_int_digit_limit(self, tmp_path, capsys):
        # 5000 digits is past INT64_MAX, and past the digits int() converts by default
        path = write_text(tmp_path / "huge.tsv", HEADER + f"a\t1\t2\nb\t{'1' * 5000}\t2\n")
        assert run_cli(["entropy", str(path)]) == 2
        assert "line 3: count '111" in capsys.readouterr().err
        with pytest.raises(ValidationError, match=r"line 3: count '1+' exceeds the int64 max"):
            parse_count_table(path)


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


@pytest.fixture
def calls(monkeypatch) -> list:
    """The strings io.encode_basestring_ascii is called on, in order."""
    calls = []
    escape = io.encode_basestring_ascii
    monkeypatch.setattr(io, "encode_basestring_ascii",
                        lambda text: calls.append(text) or escape(text))
    return calls


def tsv_text(obj) -> str:
    """write_report_tsv's output for obj."""
    sink = stdio.StringIO()
    write_report_tsv(obj, sink)
    return sink.getvalue()


class TestEmitter:
    @settings(max_examples=300, deadline=None)
    @given(obj=reports)
    def test_matches_reference_encoding(self, obj):
        expected = json.dumps(reference_jsonable(obj), indent=2)
        assert dumps_report(obj) == expected
        sink = stdio.StringIO()
        write_report(obj, sink)
        assert sink.getvalue() == expected
        sink = stdio.StringIO()
        write_report_tsv(obj, sink)
        assert sink.getvalue() == reference_tsv(obj)

    @pytest.mark.parametrize("names", [["g1", "g 2", "x:y"], ['q"', "b\\s", "é", "\x01", ""]])
    def test_string_lists_escape_like_json(self, names):
        obj = {"categories": names, "nested": [names, {"k": tuple(names)}]}
        assert dumps_report(obj) == json.dumps(obj, indent=2)

    @pytest.mark.parametrize("extra, chunks", [(0, 0), (1, 0), (-1, 1), (0, 1), (1, 1), (1, 2)])
    def test_name_lists_at_chunk_boundaries(self, extra, chunks):
        # lengths 0, 1, C - 1, C, C + 1 and 2C + 1 for the chunk C of both emitters
        size = chunks * io._NAME_CHUNK + extra
        table = np.array(["g1", 'q"', "é\t", "b\\s", "\x01", ""], dtype=object)
        names = NameList(table, np.arange(size) % len(table))
        obj = {"signal": names, "noise": [names, {"k": 1.5}]}
        assert dumps_report(obj) == json.dumps(reference_jsonable(obj), indent=2)
        assert tsv_text(obj) == reference_tsv(obj)

    @pytest.mark.parametrize("odd", ['q"', "b\\s", "tab\t", "\x01", "del\x7f", "é", "🧬",
                                     "\ud800", "\n", 'x",\n    "y', "\r", "", " ~"])
    @pytest.mark.parametrize("part", [0, 1, 2])
    def test_escaping_is_decided_per_slice(self, calls, odd, part):
        # three slices of plain names, one odd name in slice `part`; DEL is
        # ASCII, yet json writes it as \u007f. A line end, or a name holding the
        # join's own separator, must not pass for the join's; "" and " ~" are plain
        size = 2 * io._NAME_CHUNK + 9
        table = np.array([f"g{i}" for i in range(size)] + [odd], dtype=object)
        index = np.arange(size)
        index[part * io._NAME_CHUNK + 5] = size
        obj = {"signal": NameList(table, index)}
        sink = stdio.StringIO()
        write_report(obj, sink)
        assert sink.getvalue() == json.dumps({"signal": table[index].tolist()}, indent=2)
        # the key, then each name of the odd slice alone
        odd_slice = index[part * io._NAME_CHUNK:(part + 1) * io._NAME_CHUNK]
        assert len(calls) == 1 + (0 if odd in ("", " ~") else len(odd_slice))
        assert tsv_text(obj) == reference_tsv(obj)

    @pytest.mark.parametrize("c", range(0x80))
    def test_plain_set_one_character_at_a_time(self, calls, c):
        # one slice of plain names and f"x{c}y": the dict key is the only escape
        # exactly when c is printable ASCII but " and \
        names = [f"g{i}" for i in range(5)] + [f"x{chr(c)}y"]
        obj = {"signal": NameList(np.array(names, dtype=object), np.arange(len(names)))}
        assert dumps_report(obj) == json.dumps({"signal": names}, indent=2)
        plain = 0x20 <= c <= 0x7E and chr(c) not in '"\\'
        assert len(calls) == (1 if plain else 1 + len(names))

    def test_plain_slices_escape_once(self, tmp_path, capsys, calls):
        # a plain-ASCII table: one escape per dict key and per name slice, never
        # one per name
        path = tmp_path / "table.tsv"
        write_mixture_table(path, 3 * io._NAME_CHUNK)
        assert run_cli(["pipeline", str(path)]) == 0
        keys, slices = 0, 0

        def count(pairs):
            nonlocal keys, slices
            keys += len(pairs)
            slices += sum(-(-len(v) // io._NAME_CHUNK) for _, v in pairs
                          if isinstance(v, list) and v and isinstance(v[0], str))
            return dict(pairs)

        json.loads(capsys.readouterr().out, object_pairs_hook=count)
        assert slices >= 3 and len(calls) <= keys

    @pytest.mark.parametrize("odd", ['q"', "b\\s", "\x01", "del\x7f", "é", "🧬"])
    @pytest.mark.parametrize("where", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("command", ["pipeline", "filter-noise"])
    def test_one_odd_name_escapes_the_report(self, tmp_path, capsys, monkeypatch, odd, where,
                                             command):
        # one name that json escapes, in the first, a middle or the last parse chunk:
        # the report is json's own encoding
        path = tmp_path / "table.tsv"
        write_mixture_table(path, 600)
        lines = path.read_text(encoding="utf-8").split("\n")
        row = 1 + round(where * 599)
        lines[row] = odd + "\t7\t7"
        path.write_text("\n".join(lines), encoding="utf-8")
        monkeypatch.setattr(io, "_CHUNK", 2000)  # four chunks
        assert run_cli([command, str(path)]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        assert json.dumps(odd) in out

    def test_name_list_written_in_bounded_memory(self):
        # the escaped names of a 600k-name list joined at once took ~57 MB
        size = 600_000
        names = NameList(np.array([f"category_{i:07d}" for i in range(size)], dtype=object),
                         np.arange(size)[::-1].copy())

        class Counter:
            written = 0

            def write(self, text):
                self.written += len(text)

        sink = Counter()
        _, peak = traced_peak(lambda: write_report({"signal": names}, sink))
        assert sink.written > 20 * size
        assert peak <= 4 * 2**20


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
        m, path, out = 200_000, tmp_path / "table.tsv", tmp_path / "report.json"
        write_mixture_table(path, m)
        _, parse_peak = traced_peak(lambda: parse_count_table(path))
        rc, run_peak = traced_peak(lambda: run_cli(["pipeline", str(path), "--output", str(out)]))
        assert rc == 0 and out.stat().st_size > 20 * m
        assert run_peak <= parse_peak + 2**20

    def test_pipeline_tsv_emission_stays_under_parse_peak(self, tmp_path):
        m, path, out = 200_000, tmp_path / "table.tsv", tmp_path / "report.tsv"
        write_mixture_table(path, m)
        _, parse_peak = traced_peak(lambda: parse_count_table(path))
        rc, run_peak = traced_peak(lambda: run_cli(["pipeline", str(path), "--format", "tsv",
                                                    "--output", str(out)]))
        assert rc == 0 and out.stat().st_size > 20 * m
        assert run_peak <= parse_peak + 2**20

    @pytest.mark.parametrize("command", ["pipeline", "filter-noise"])
    def test_output_file_matches_stdout(self, command, pair_table, tmp_path, capsys):
        capsys.readouterr()
        assert run_cli([command, pair_table]) == 0
        out = tmp_path / "report.json"
        assert run_cli([command, pair_table, "--output", str(out)]) == 0
        assert out.read_bytes() == capsys.readouterr().out.encode("utf-8")

    @pytest.mark.parametrize("command", ["pipeline", "filter-noise"])
    def test_tsv_output_file_matches_stdout(self, command, pair_table, tmp_path, capsys):
        capsys.readouterr()
        assert run_cli([command, pair_table, "--format", "tsv"]) == 0
        out = tmp_path / "report.tsv"
        assert run_cli([command, pair_table, "--format", "tsv", "--output", str(out)]) == 0
        assert out.read_bytes() == capsys.readouterr().out.encode("utf-8")

    @pytest.mark.parametrize("command", ["pipeline", "filter-noise"])
    def test_tsv_output_flattens_the_json_report(self, command, pair_table, capsys):
        capsys.readouterr()
        assert run_cli([command, pair_table]) == 0
        report = json.loads(capsys.readouterr().out)
        assert run_cli([command, pair_table, "--format", "tsv"]) == 0
        assert capsys.readouterr().out == reference_tsv(report)

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

    def test_duplicate_config_key(self, tmp_path, capsys):
        # the second m would otherwise replace the first without a word
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("family = power_law\nbeta = 1.0\nm = 50\nepsilon = 1.0\n# again\n"
                       "m = 5000\nB = 30\nstatistic = thm1_entropy\n")
        with pytest.raises(renydiv.RenydivError,
                           match="line 6: config key m is already set on line 3"):
            load_sim_config(cfg)
        assert run_cli(["simulate", "--config", str(cfg)]) == 2
        assert "config key m is already set on line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("level", ["5", "-1", "nan", "0", "1"])
    def test_pipeline_equality_level_outside_unit_interval_exits_2(self, pair_table, capsys,
                                                                   level):
        assert run_cli(["pipeline", pair_table, "--equality-level", level]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "equality_level" in err

    @pytest.mark.parametrize("key, raw, shown", [
        ("workers", "abc", "'abc'"), ("workers", "2.5", "2.5"), ("workers", "-3", "-3"),
        ("B", "abc", "'abc'"), ("B", "2.5", "2.5"), ("B", "true", "True"),
        ("m", "abc", "'abc'"), ("m", "1e3", "1000.0"), ("alpha", "abc", "'abc'"),
        ("alpha", "nan", "nan"), ("epsilon", "abc", "'abc'"), ("epsilon", "inf", "inf"),
        ("master_seed", "-1", "-1"), ("noise_block_sizes", "10, x", "'x'"),
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

    @pytest.mark.parametrize("fractions, signal_fraction, signal_beta, key, shown", [
        # masses that sum to 1 with a negative block and a signal past 1
        ("-0.5", "1.5", "1.0", "noise_block_fractions", "-0.5"),
        ("0.5, -0.1", "0.6", "1.0", "noise_block_fractions", "-0.1"),
        ("0, 0", "1.2", "1.0", "signal_fraction", "1.2"),
        ("0.6, 0.6", "-0.2", "1.0", "signal_fraction", "-0.2"),
        ("0.2, 0.2", "0.6", "-3", "signal_beta", "-3"),
        ("0.2, 0.2", "0.6", "0", "signal_beta", "0"),
        ("0.2, 0.2", "0.6", "inf", "signal_beta", "inf"),
        ("0.2, 0.2", "0.6", "nan", "signal_beta", "nan"),
    ])
    def test_simulate_bad_mixture_field_named(self, tmp_path, capsys, fractions,
                                              signal_fraction, signal_beta, key, shown):
        sizes = "100, 100" if "," in fractions else "200"
        cfg = tmp_path / "mix.cfg"
        cfg.write_text(
            f"family = mixture\nsignal_beta = {signal_beta}\nsignal_m = 30\n"
            f"signal_fraction = {signal_fraction}\nnoise_block_sizes = {sizes}\n"
            f"noise_block_fractions = {fractions}\nm = 230\nn_override = 10000\n"
            "alpha = 0.5\nB = 40\nstatistic = lemma2_pearson\nmaster_seed = 3\n"
        )
        assert run_cli(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"config key {key}" in err and shown in err

    @pytest.mark.parametrize("family_lines, key, shown", [
        ("family = uniform\nbeta = 7\nstatistic = thm3_uniform_entropy\n", "beta", "7"),
        ("family = power_law\nbeta = 1.0\ndiag_weight = 0.5\np0 = 0.3\n"
         "statistic = thm1_entropy\n", "diag_weight", "0.5"),
        ("family = bivariate_product\nbeta = 1.0\ndiag_weight = 0.9\n"
         "statistic = thm4_degenerate_divergence\n", "diag_weight", "0.9"),
    ])
    def test_simulate_unread_family_field_exits_2(self, tmp_path, capsys, family_lines, key,
                                                  shown):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(family_lines + "m = 100\nn_override = 2000\nB = 50\nmaster_seed = 1\n")
        assert run_cli(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"config key {key} = {shown} " in err

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


def test_out_of_memory_exits_2_naming_the_inputs(tmp_path, monkeypatch, capsys):
    # a command that runs out of memory met an input too big for the machine, not a bug
    x, y = tmp_path / "x.tsv", tmp_path / "y.tsv"
    x.write_text("id\tx\na\t1\n")
    y.write_text("id\ty\na\t22\n")

    def exhausted(args):
        raise MemoryError
    monkeypatch.setattr(renydiv.cli, "_payload", exhausted)
    assert run_cli(["pipeline", str(x), str(y)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: pipeline ran out of memory on {x} (9 bytes) and {y} (10 bytes)\n"
    assert "internal error" not in err


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
def test_pipeline_past_the_address_space_exits_2(tmp_path):
    # the child may map only 16 MiB past what it holds once imported, and parsing the
    # 6 MB table of 5e5 rows peaks at about 49 MiB: the run ends in a MemoryError
    path = tmp_path / "big.tsv"
    write_mixture_table(path, 500_000)
    code = ("import resource, sys\n"
            "from renydiv.cli import run_cli\n"
            "held = int(open('/proc/self/statm').read().split()[0]) * resource.getpagesize()\n"
            "resource.setrlimit(resource.RLIMIT_AS, (held + 2**24, held + 2**24))\n"
            "print(run_cli(['pipeline', sys.argv[1], '--output', sys.argv[1] + '.json']))\n")
    src = str(Path(renydiv.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code, str(path)], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.stdout.strip() == "2", out.stderr
    assert out.stderr == (f"error: pipeline ran out of memory on {path} "
                          f"({path.stat().st_size} bytes)\n")
