"""Command-line interface: count-table analysis and the simulation harness."""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .asymptotics import divergence_ci, entropy_ci, equality_test
from .errors import RenydivError
from .io import NameList, dumps_report_tsv, jsonable, parse_count_table, read_text, write_report
from .montecarlo import SimConfig, simulate_statistic
from .pipeline import PipelineConfig, diversity_pipeline, filter_noise, homogeneity_test
from .powerlaw import fit_powerlaw_ls

ENV_SEED = "RENYDIV_SEED"


_FLAGS = {
    "--alpha": dict(type=float, default=0.5),
    "--level": dict(type=float, default=0.95),
    "--seed": dict(type=int, default=None),
    "--format": dict(choices=("json", "tsv"), default="json"),
}


def _add_flags(sp, *flags):
    """--output plus the given shared flags: a command offers only the flags it reads."""
    for flag in flags:
        sp.add_argument(flag, **_FLAGS[flag])
    sp.add_argument("--output", default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="renydiv",
        description="Renyi entropy/divergence diversity analysis on count tables",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("entropy", help="entropy estimate with CI per sample column")
    sp.add_argument("table")
    _add_flags(sp, "--alpha", "--level", "--format")

    sp = sub.add_parser("divergence", help="divergence estimate with CI for a sample pair")
    sp.add_argument("table")
    sp.add_argument("table2", nargs="?", default=None)
    _add_flags(sp, "--alpha", "--level", "--format")

    sp = sub.add_parser("filter-noise", help="uniform-block noise decomposition per sample")
    sp.add_argument("table")
    sp.add_argument("--noise-level", type=float, default=0.01)
    sp.add_argument("--max-k", type=int, default=2)
    _add_flags(sp, "--format")

    sp = sub.add_parser("test-equality", help="degenerate-regime test of equal distributions")
    sp.add_argument("table")
    sp.add_argument("table2", nargs="?", default=None)
    _add_flags(sp, "--alpha", "--format")

    sp = sub.add_parser("test-homogeneity",
                        help="chi-square combination of pairwise equality tests "
                             "(columns are consecutive pairs)")
    sp.add_argument("table")
    _add_flags(sp, "--alpha", "--format")

    sp = sub.add_parser("fit-powerlaw", help="least-squares rank-frequency exponent fit")
    sp.add_argument("table")
    _add_flags(sp, "--format")

    sp = sub.add_parser("pipeline", help="filter noise, test equality, quantify difference")
    sp.add_argument("table")
    sp.add_argument("table2", nargs="?", default=None)
    sp.add_argument("--noise-level", type=float, default=0.01)
    sp.add_argument("--max-k", type=int, default=2)
    sp.add_argument("--equality-level", type=float, default=0.05)
    _add_flags(sp, "--alpha", "--level", "--format")

    sp = sub.add_parser("simulate", help="run a seeded simulation from a config file")
    sp.add_argument("--config", required=True)
    sp.add_argument("--workers", type=int, default=None)
    _add_flags(sp, "--seed")
    return parser


def _pair_from_tables(path1, path2):
    """Two named count vectors on one category universe, from 1 or 2 files."""
    t1 = parse_count_table(path1)
    if path2 is None:
        names = t1.sample_names
        if len(names) < 2:
            raise RenydivError(
                "need two sample columns in one file, or two files"
            )
        return (names[0], t1.count_vector(names[0]),
                names[1], t1.count_vector(names[1]), t1.categories)
    t2 = parse_count_table(path2)
    if t1.categories != t2.categories:
        raise RenydivError("the two tables list different categories")
    n1, n2 = t1.sample_names[0], t2.sample_names[0]
    label2 = n2 if n2 != n1 else f"{n2}_2"
    return n1, t1.count_vector(n1), label2, t2.count_vector(n2), t1.categories


def _write(text: str, output) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload, args) -> None:
    """Write the report as TSV, or as JSON encoded straight into the sink."""
    if args.format == "tsv":
        _write(dumps_report_tsv(payload), args.output)
        return
    report = jsonable(payload)  # before --output is opened, which truncates it
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            write_report(report, fh)
            fh.write("\n")
    else:
        write_report(report, sys.stdout)
        sys.stdout.write("\n")


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
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise RenydivError(f"{path}: line {lineno}: expected key = value")
        key, raw = line.split("=", 1)
        key = key.strip()
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
    lines = ["normal_quantile,sample_quantile"]
    lines += [f"{a:.9g},{b:.9g}" for a, b in run.qq_pairs]
    lines.append(f"# ks_distance={run.ks_distance:.9g}")
    _write("\n".join(lines) + "\n", args.output)


def _dispatch(args) -> None:
    if args.command == "entropy":
        table = parse_count_table(args.table)
        payload = {
            name: entropy_ci(table.count_vector(name), args.alpha, args.level)
            for name in table.sample_names
        }
        _emit({"alpha": args.alpha, "H_alpha": payload}, args)
    elif args.command == "divergence":
        nx, cx, ny, cy, _cats = _pair_from_tables(args.table, args.table2)
        ci = divergence_ci(cx, cy, args.alpha, args.level)
        _emit({"alpha": args.alpha, "x": nx, "y": ny, "D_alpha": ci}, args)
    elif args.command == "filter-noise":
        table = parse_count_table(args.table)
        names = np.array(table.categories, dtype=object)  # shared by the samples
        payload = {
            name: _decomposition_payload(
                filter_noise(table.count_vector(name), level=args.noise_level,
                             max_K=args.max_k),
                names,
            )
            for name in table.sample_names
        }
        _emit(payload, args)
    elif args.command == "test-equality":
        nx, cx, ny, cy, _cats = _pair_from_tables(args.table, args.table2)
        rep = equality_test(cx, cy, alpha=args.alpha, mode="independent")
        _emit({"alpha": args.alpha, "x": nx, "y": ny, "equality": rep}, args)
    elif args.command == "test-homogeneity":
        table = parse_count_table(args.table)
        names = table.sample_names
        if len(names) < 4 or len(names) % 2:
            raise RenydivError("homogeneity needs an even number (>= 4) of sample columns")
        pairs = [
            (table.count_vector(names[i]), table.count_vector(names[i + 1]))
            for i in range(0, len(names), 2)
        ]
        rep = homogeneity_test(pairs, alpha=args.alpha)
        _emit({"alpha": args.alpha, "pairs": [names[i:i + 2] for i in range(0, len(names), 2)],
               "homogeneity": rep}, args)
    elif args.command == "fit-powerlaw":
        table = parse_count_table(args.table)
        payload = {
            name: fit_powerlaw_ls(table.count_vector(name))
            for name in table.sample_names
        }
        _emit(payload, args)
    elif args.command == "pipeline":
        nx, cx, ny, cy, cats = _pair_from_tables(args.table, args.table2)
        names = np.array(cats, dtype=object)
        cfg = PipelineConfig(
            ci_level=args.level, equality_level=args.equality_level,
            noise_level=args.noise_level, max_noise_components=args.max_k,
        )
        report = diversity_pipeline(cx, cy, alpha=args.alpha, config=cfg)
        dx, dy = report.decompositions
        hx, hy = report.entropies
        ex, ey = report.hill_numbers
        payload = {
            "alpha": report.alpha,
            "samples": {
                nx: {**_decomposition_payload(dx, names),
                     "n_signal": report.signal_totals[0],
                     "H_alpha": hx, "ENC_alpha": ex},
                ny: {**_decomposition_payload(dy, names),
                     "n_signal": report.signal_totals[1],
                     "H_alpha": hy, "ENC_alpha": ey},
            },
            "shared_cutoff": report.shared_cutoff,
            "m_signal_shared": report.m_signal_shared,
            "equality": report.equality,
            "equality_rejected": report.equality_rejected,
            "D_alpha": report.divergence,
        }
        _emit(payload, args)
    elif args.command == "simulate":
        _cmd_simulate(args)
    else:  # pragma: no cover - argparse enforces the choices
        raise RenydivError(f"unknown command {args.command!r}")


def run_cli(argv) -> int:
    """Dispatch a CLI invocation; 0 on success, 2 on validation error, 1 on bug."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        _dispatch(args)
    except RenydivError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    return run_cli(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
