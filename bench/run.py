"""renydiv benchmark: one workload per run, end-to-end or per-layer metrics.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload cli_pipeline_1e6 --seed 1 --seconds 20 --trace 0

The workload inputs are generated from --seed. With --trace 0 the run prints
the end-to-end metrics named in BENCHMARK.json, with --trace 1 the per-layer
ones; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The package is imported from the
checkout's src/ directory; without it the run fails before measuring.

This process times the cold starts and generates the inputs. A fresh child
process (--measure) loads the inputs, runs one untimed iteration, reads its
peak RSS, and then runs the timed iterations and the correctness checks.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans as tr

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_STARTS = 3      # timed cold starts per run; setup_s is their median
IMPORT_PROFILES = 3   # -X importtime runs per traced run
MIN_ITERATIONS = 4    # timed iterations, even when --seconds runs out first
MIN_TRACED_PAIRS = 2  # untraced/traced iteration pairs in a traced run
CHILD_TIMEOUT = 150


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


class Run:
    """Counts operations and failures; a failure is recorded with its reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, errors) -> None:
        self.attempted += 1
        if errors:
            self.failures.append("; ".join(errors))
            print(f"FAILED: {self.failures[-1]}", file=sys.stderr)


def cold_starts(run: Run, version: str) -> list[float]:
    """Wall seconds of fresh `python -m renydiv.cli --version` processes.

    The caller has imported renydiv already, so its bytecode caches are warm.
    """
    times = []
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "renydiv.cli", "--version"],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
        times.append(time.perf_counter() - start)
        ok = proc.returncode == 0 and proc.stdout.strip() == version
        run.op([] if ok else [f"--version exited {proc.returncode}: {proc.stderr[-300:]}"])
    return times


def import_breakdown(run: Run) -> dict:
    """setup.import.* seconds from `python -X importtime -c 'import renydiv.cli'`."""
    samples = {"numpy_s": [], "scipy_stats_s": [], "renydiv_self_s": []}
    for _ in range(IMPORT_PROFILES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import renydiv.cli"],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
        run.op([] if proc.returncode == 0 else [f"importtime exited {proc.returncode}"])
        cumulative, own = {}, 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = [f.strip() for f in line[len("import time:"):].split("|")]
            if not fields[0].isdigit():
                continue   # the column header
            cumulative.setdefault(fields[2], int(fields[1]))
            if fields[2] == "renydiv" or fields[2].startswith("renydiv."):
                own += int(fields[0])
        samples["numpy_s"].append(cumulative.get("numpy", 0) / 1e6)
        samples["scipy_stats_s"].append(cumulative.get("scipy.stats", 0) / 1e6)
        samples["renydiv_self_s"].append(own / 1e6)
    return {f"setup.import.{k}": statistics.median(v) for k, v in samples.items()}


def run_iteration(wl, tracer=None):
    """Time every step of one iteration; outputs are fingerprinted afterwards."""
    outputs, errors = {}, {}

    def body():
        for name, fn in wl.steps():
            try:
                outputs[name] = tracer.run(f"step.{name}", fn) if tracer else fn()
                errors[name] = []
            except Exception as exc:  # any failure of the program counts, the run goes on
                outputs[name] = None
                errors[name] = [f"{name}: {type(exc).__name__}: {exc}"]

    wall, cpu = time.perf_counter(), time.process_time()
    if tracer:
        tracer.run("bench.iteration", body)
    else:
        body()
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    prints = dict.fromkeys(outputs)
    for name, out in outputs.items():
        if not errors[name]:
            try:
                prints[name] = wl.fingerprint(name, out)
            except OSError as exc:   # e.g. the program wrote no output file
                errors[name] = [f"{name}: {exc}"]
    return {"wall": wall, "cpu": cpu, "outputs": outputs, "errors": errors,
            "prints": prints}


def account(run: Run, wl, iterations) -> None:
    """Full checks on the first iteration; identical outputs on every other one."""
    first = iterations[0]
    try:
        checked = wl.check({k: v for k, v in first["outputs"].items()
                            if not first["errors"][k]})
    except Exception as exc:  # a malformed output the checks cannot read
        checked = {k: [f"checks raised {type(exc).__name__}: {exc}"] for k in first["errors"]}
    for it in iterations:
        for name, errs in it["errors"].items():
            errs = list(errs)
            if it is first:
                errs += checked.get(name, [])
            elif first["prints"][name] and it["prints"][name] != first["prints"][name]:
                errs.append(f"{name}: output differs from the first iteration")
            run.op(errs)


def traced_loop(wl, tracer, seconds: float):
    """Alternate untraced and traced iterations until `seconds` have passed."""
    plain, traced = [], []
    start = time.perf_counter()
    while len(plain) < MIN_TRACED_PAIRS or time.perf_counter() - start < seconds:
        plain.append(run_iteration(wl))
        tracer.iteration = len(traced)
        counted = len(tracer.fsum_sizes)
        tracer.install()
        try:
            traced.append(run_iteration(wl, tracer))
        finally:
            tracer.uninstall()
        traced[-1]["fsum_elements"] = sum(tracer.fsum_sizes[counted:])
    return plain, traced


def layer_metrics(wl, tracer, traced) -> dict:
    per_iteration = []
    for index, it in enumerate(traced):
        spans = [s for s in tracer.spans if s.iteration == index]
        totals = tr.layer_totals(spans)
        values = {}
        for name in tr.SPAN_NAMES:
            values[f"{name}.s"] = totals["s"].get(name, 0.0)
            values[f"{name}.calls"] = totals["calls"].get(name, 0)
        parse_s = values["io.parse_count_table.s"]
        values["io.parse.rows_per_s"] = (wl.rows_per_parse * values["io.parse_count_table.calls"]
                                         / parse_s if parse_s else 0.0)
        values["io.emit_bytes"] = sum(p[0] for p in it["prints"].values() if p)
        values["cli.self_s"] = tr.self_seconds(spans, "cli.run_cli")
        values["asymptotics.entropy_ci.us_per_call_small"] = 1e6 * tr.median_or_zero(
            tr.durations_under(spans, "asymptotics.entropy_ci", "montecarlo.coverage_experiment"))
        values["measures.fsum_elements"] = it["fsum_elements"]
        per_iteration.append(values)
    return {k: statistics.median(v[k] for v in per_iteration) for k in per_iteration[0]}


def measure(wl, args) -> dict:
    """The child's part: warm-up and peak RSS, timed iterations, checks."""
    run = Run()
    values, notes, record = {}, {}, {}
    wl.load()
    warmup = run_iteration(wl)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    notes["peak_rss_mb"] = "ru_maxrss after one untimed iteration in a fresh process"
    if args.trace:
        run.op(tr.self_test())
        tracer = tr.Tracer()
        plain, traced = traced_loop(wl, tracer, args.seconds)
        account(run, wl, [warmup] + plain + traced)
        run.op(tr.self_time_errors(tracer.spans))
        values.update(layer_metrics(wl, tracer, traced))
        values["trace.overhead_ratio"] = (statistics.median(i["wall"] for i in traced)
                                          / statistics.median(i["wall"] for i in plain))
        try:
            extras, errors = wl.trace_extras()
        except Exception as exc:  # the program failed; its metrics stay unmeasured
            extras, errors = {}, [f"Monte Carlo split raised {type(exc).__name__}: {exc}"]
        run.op(errors)
        values.update(extras)
        spans_path = wl.work / f"spans-seed{args.seed}.json"
        tracer.write(spans_path)
        record["spans"] = str(spans_path.relative_to(ROOT))
    else:
        start = time.perf_counter()
        iterations = []
        while len(iterations) < MIN_ITERATIONS or time.perf_counter() - start < args.seconds:
            iterations.append(run_iteration(wl))
        account(run, wl, [warmup] + iterations)
        values["wall_s"] = statistics.median(i["wall"] for i in iterations)
        values["cpu_s"] = statistics.median(i["cpu"] for i in iterations)
        notes["wall_s"] = notes["cpu_s"] = f"median of {len(iterations)} iterations"
        record["iteration_wall_s"] = [round(i["wall"], 4) for i in iterations]
    record["outputs"] = {k: {"bytes": v[0], "sha256": v[1]}
                         for k, v in warmup["prints"].items() if v}
    return {"values": values, "notes": notes, "record": record,
            "attempted": run.attempted, "failures": run.failures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "renydiv" / "__init__.py").is_file():
        print(f"error: no renydiv sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](WORK / args.workload, args.seed)
    if args.measure:
        print(json.dumps(measure(wl, args)))
        return 0

    run = Run()
    wl.work.mkdir(parents=True, exist_ok=True)
    values, notes = {}, {}
    if args.trace:
        values.update(import_breakdown(run))
    else:
        starts = cold_starts(run, workloads.rd.__version__)
        values["setup_s"] = statistics.median(starts)
        notes["setup_s"] = f"median of {len(starts)} cold starts"
    record = {"workload": args.workload, "seed": args.seed, "inputs": wl.prepare()}

    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--measure",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        print(f"error: the measuring process ran over {CHILD_TIMEOUT} s", file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: the measuring process exited with code {proc.returncode}",
              file=sys.stderr)
        return 1
    child = json.loads(lines[-1])
    run.attempted += child["attempted"]
    run.failures += child["failures"]
    values.update(child["values"])
    notes.update(child["notes"])
    record.update(child["record"])

    failed = len(run.failures)
    print(json.dumps(record, sort_keys=True))
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        if not math.isfinite(values.get(m["name"], math.nan)):
            print(f"error: metric {m['name']} was not measured", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:<45} {values[m['name']]:>16.6g} {m['unit']:<8} "
              f"{notes.get(m['name'], '')}")
    if not args.trace:
        print(f"{'error_rate':<45} {failed / run.attempted:>16.6g} {'ratio':<8} "
              f"{failed} failed of {run.attempted} operations")
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
