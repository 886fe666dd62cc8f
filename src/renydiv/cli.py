"""Command-line interface: count-table analysis and the simulation harness."""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .asymptotics import EstimateWithCI, divergence_ci, entropy_ci, equality_test
from .errors import RenydivError
from .io import NameList, parse_count_table, read_text, write_report, write_report_tsv
from .montecarlo import SimConfig, simulate_statistic
from .pipeline import PipelineConfig, diversity_pipeline, filter_noise, homogeneity_test
from .powerlaw import fit_powerlaw_ls
from .projections import ADVISORY_MARGINAL, ADVISORY_PASS, _quotient

ENV_SEED = "RENYDIV_SEED"


# every argument a command may take, and each command's help and arguments in order;
# every command also takes --output
_FLAGS = {
    "table": {},
    "table2": dict(nargs="?", default=None),
    "--config": dict(required=True),
    "--workers": dict(type=int, default=None),
    "--noise-level": dict(type=float, default=0.01),
    "--max-k": dict(type=int, default=2),
    "--equality-level": dict(type=float, default=0.05),
    "--alpha": dict(type=float, default=0.5),
    "--level": dict(type=float, default=0.95),
    "--seed": dict(type=int, default=None),
    "--format": dict(choices=("json", "tsv"), default="json"),
    "--output": dict(default=None),
}
_COMMANDS = {
    "entropy": ("entropy estimate with CI per sample column",
                "table --alpha --level --format"),
    "divergence": ("divergence estimate with CI for a sample pair",
                   "table table2 --alpha --level --format"),
    "filter-noise": ("uniform-block noise decomposition per sample",
                     "table --noise-level --max-k --format"),
    "test-equality": ("degenerate-regime test of equal distributions",
                      "table table2 --alpha --format"),
    "test-homogeneity": ("chi-square combination of pairwise equality tests "
                         "(columns are consecutive pairs)", "table --alpha --format"),
    "fit-powerlaw": ("least-squares rank-frequency exponent fit", "table --format"),
    "pipeline": ("filter noise, test equality, quantify difference",
                 "table table2 --noise-level --max-k --equality-level --alpha --level --format"),
    "simulate": ("run a seeded simulation from a config file", "--config --workers --seed"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="renydiv",
        description="Renyi entropy/divergence diversity analysis on count tables",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, names) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        for name in names.split() + ["--output"]:
            sp.add_argument(name, **_FLAGS[name])
    return parser


def _pair_from_tables(path1, path2):
    """Two named count vectors on one category universe, from 1 or 2 files, and
    its categories."""
    t1 = parse_count_table(path1)
    if path2 is None:
        names = t1.sample_names
        if len(names) < 2:
            raise RenydivError(
                "need two sample columns in one file, or two files"
            )
        return (names[0], t1.count_vector(names[0]), names[1], t1.count_vector(names[1]),
                t1.categories)
    t2 = parse_count_table(path2)
    if not np.array_equal(t1.categories, t2.categories):
        raise RenydivError("the two tables list different categories")
    n1, n2 = t1.sample_names[0], t2.sample_names[0]
    label2 = n2 if n2 != n1 else f"{n2}_2"
    return n1, t1.count_vector(n1), label2, t2.count_vector(n2), t1.categories


def _emit(write, output) -> None:
    """Call write(sink) on the file --output names, or on stdout."""
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            write(fh)
    else:
        write(sys.stdout)


def _decomposition_payload(dec, names) -> dict:
    # full MixtureDecomposition plus the k_m alias used in tabular summaries
    return {
        "cutoff_k_m": dec.cutoff_k_m,
        "k_m": dec.cutoff_k_m,
        "noise_fraction": dec.noise_fraction,
        "signal_fraction": dec.signal_fraction,
        "m_signal": dec.m_signal,
        "noise_components": [
            {
                "size": comp.size,
                "level": comp.level,
                "mean_count": comp.mean_count,
                "categories": NameList(names, comp.categories),
            }
            for comp in dec.noise_components
        ],
        "signal_categories": NameList(names, dec.signal_categories),
    }


def _parse_scalar(raw: str):
    raw = raw.strip().strip('"').strip("'")
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    if low in ("none", "null", ""):
        return None
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def load_sim_config(path, seed_override=None, workers_override=None) -> SimConfig:
    """Read a flat key=value config file into a SimConfig."""
    values: dict = {}
    key_lines: dict = {}
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise RenydivError(f"{path}: line {lineno}: expected key = value")
        key, raw = line.split("=", 1)
        key = key.strip()
        if key in key_lines:
            raise RenydivError(f"{path}: line {lineno}: config key {key} is already set on "
                               f"line {key_lines[key]}")
        key_lines[key] = lineno
        if "," in raw:
            values[key] = tuple(_parse_scalar(part) for part in raw.split(","))
        else:
            values[key] = _parse_scalar(raw)
    allowed = set(SimConfig.__dataclass_fields__)
    unknown = set(values) - allowed
    if unknown:
        raise RenydivError(f"{path}: unknown config keys {sorted(unknown)}")
    if seed_override is not None:
        values["master_seed"] = seed_override
    elif "master_seed" not in values and os.environ.get(ENV_SEED):
        try:
            values["master_seed"] = int(os.environ[ENV_SEED])
        except ValueError:
            raise RenydivError(f"invalid {ENV_SEED} value "
                               f"{os.environ[ENV_SEED]!r}") from None
    if workers_override is not None:
        values["workers"] = workers_override
    return SimConfig(**values)


def _cmd_simulate(args) -> None:
    cfg = load_sim_config(args.config, seed_override=args.seed,
                          workers_override=args.workers)
    run = simulate_statistic(cfg)
    # one row at a time, so the CSV never sits in memory as a whole
    _emit(lambda fh: np.savetxt(fh, run.qq_pairs, fmt="%.9g", delimiter=",", comments="",
                                header="normal_quantile,sample_quantile",
                                footer=f"# ks_distance={run.ks_distance:.9g}"), args.output)


def _per_column(path, fn) -> dict:
    """fn(counts, categories) of each sample column of the table at path, by column name."""
    table = parse_count_table(path)
    return {name: fn(table.count_vector(name), table.categories) for name in table.sample_names}


def _payload(args):
    """The report of a table command, as write_report and write_report_tsv take it."""
    if args.command == "entropy":
        return {"alpha": args.alpha, "H_alpha": _per_column(
            args.table, lambda c, _: entropy_ci(c, args.alpha, args.level))}
    if args.command == "divergence":
        nx, cx, ny, cy, *_ = _pair_from_tables(args.table, args.table2)
        ci = divergence_ci(cx, cy, args.alpha, args.level)
        return {"alpha": args.alpha, "x": nx, "y": ny, "D_alpha": ci}
    if args.command == "filter-noise":
        return _per_column(args.table, lambda c, names: _decomposition_payload(
            filter_noise(c, level=args.noise_level, max_K=args.max_k), names))
    if args.command == "test-equality":
        nx, cx, ny, cy, *_ = _pair_from_tables(args.table, args.table2)
        rep = equality_test(cx, cy, alpha=args.alpha, mode="independent")
        return {"alpha": args.alpha, "x": nx, "y": ny, "equality": rep}
    if args.command == "test-homogeneity":
        table = parse_count_table(args.table)
        names = table.sample_names
        if len(names) < 4 or len(names) % 2:
            raise RenydivError("homogeneity needs an even number (>= 4) of sample columns")
        pairs = [
            (table.count_vector(names[i]), table.count_vector(names[i + 1]))
            for i in range(0, len(names), 2)
        ]
        rep = homogeneity_test(pairs, alpha=args.alpha)
        return {"alpha": args.alpha, "pairs": [names[i:i + 2] for i in range(0, len(names), 2)],
                "homogeneity": rep}
    if args.command == "fit-powerlaw":
        return _per_column(args.table, lambda c, _: fit_powerlaw_ls(c))
    # pipeline: argparse admits no other command
    nx, cx, ny, cy, names = _pair_from_tables(args.table, args.table2)
    cfg = PipelineConfig(
        ci_level=args.level, equality_level=args.equality_level,
        noise_level=args.noise_level, max_noise_components=args.max_k,
    )
    report = diversity_pipeline(cx, cy, alpha=args.alpha, config=cfg)
    return {
        "alpha": report.alpha,
        "samples": {
            name: {**_decomposition_payload(dec, names), "n_signal": n_signal,
                   "H_alpha": h, "ENC_alpha": enc}
            for name, dec, n_signal, h, enc in zip((nx, ny), report.decompositions,
                                                    report.signal_totals, report.entropies,
                                                    report.hill_numbers)
        },
        "shared_cutoff": report.shared_cutoff,
        "m_signal_shared": report.m_signal_shared,
        "equality": report.equality,
        "equality_rejected": report.equality_rejected,
        "D_alpha": report.divergence,
    }


def _warn_ld_failures(report, key: str = "") -> None:
    """One stderr line for each interval in the report whose LD advisory reads "fail"."""
    if isinstance(report, dict):
        for name, value in report.items():
            _warn_ld_failures(value, f"{key}.{name}" if key else str(name))
    elif isinstance(report, EstimateWithCI) and report.ld is not None:
        for condition in [c for c, label in report.ld.advisories.items() if label == "fail"]:
            kind = condition.removesuffix("_clt")  # entropy or divergence
            quotient = _quotient(getattr(report.ld, f"{kind}_condition"),
                                 getattr(report.ld, f"degenerate_{kind}_condition"))
            hint = "; near p = q use the equality test" if kind == "divergence" else ""
            print(f"warning: {key}: {condition} fail, quotient {quotient:.3g} >= "
                  f"{ADVISORY_MARGINAL} (pass below {ADVISORY_PASS}): the interval may not "
                  f"cover{hint}", file=sys.stderr)


def _dispatch(args) -> None:
    if args.command == "simulate":
        _cmd_simulate(args)
        return
    report = _payload(args)  # before --output is opened, which truncates it
    # the report as JSON and a final newline, or as TSV, encoded straight into the sink
    write, end = (write_report_tsv, "") if args.format == "tsv" else (write_report, "\n")
    _emit(lambda fh: (write(report, fh), fh.write(end)), args.output)
    _warn_ld_failures(report)


def run_cli(argv) -> int:
    """Dispatch a CLI invocation; 0 on success, 2 on validation error or out of memory,
    1 on bug."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        _dispatch(args)
    except (RenydivError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # an input too big for this machine, not a bug
        inputs = [vars(args).get(key) for key in ("table", "table2", "config")]
        sizes = " and ".join(f"{path} ({os.path.getsize(path)} bytes)" for path in inputs if path)
        print(f"error: {args.command} ran out of memory on {sizes}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    return run_cli(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
