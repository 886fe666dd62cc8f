"""The benchmark workloads: seeded inputs, timed steps and correctness checks.

Every call into renydiv goes through a module attribute looked up at call
time, so the tracer's patches see the calls the benchmark itself makes.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time

import numpy as np

import fixtures as fx
import renydiv as rd
import renydiv.cli as cli

ALPHA = 0.5
# per-layer metrics of the Monte Carlo split; they read 0 where no simulation runs
MC_SPLIT = ("montecarlo.simulate_w1_s", "montecarlo.simulate_w2_s",
            "montecarlo.parallel_speedup", "montecarlo.draw_s_per_rep",
            "montecarlo.statistic_s_per_rep")


def close(reported: float, exact: float, sig_digits: int | None = None) -> bool:
    """Equal to 1e-9 relative, beyond rounding to `sig_digits` significant digits."""
    tol = 1e-9 * max(abs(exact), 1e-300)
    if sig_digits is not None and exact != 0:
        tol += 0.5 * 10.0 ** (math.floor(math.log10(abs(exact))) - (sig_digits - 1))
    return abs(reported - exact) <= tol


def partition_errors(counts, noise_parts, signal, cutoff) -> list[str]:
    """Noise and signal ids must partition the observed ids; noise is count <= cutoff."""
    noise = np.concatenate(noise_parts) if noise_parts else np.array([], dtype=np.int64)
    observed = np.nonzero(counts > 0)[0]
    both = np.sort(np.concatenate([noise, signal]))
    if not np.array_equal(both, observed):
        return [f"noise ({noise.size}) and signal ({len(signal)}) categories do not "
                f"partition the {observed.size} observed categories"]
    if not np.array_equal(np.sort(noise), np.nonzero((counts > 0) & (counts <= cutoff))[0]):
        return [f"noise categories are not the observed ones with count <= {cutoff}"]
    return []


def pipeline_errors(cx, cy, alpha, cutoff, entropies, hills, divergence, rejected,
                    n_signal, m_signal_shared, sig_digits=None) -> list[str]:
    """Recompute H_alpha, ENC and D_alpha from the signal counts the cutoff implies."""
    keep = (cx > cutoff) & (cy > cutoff)
    sx, sy = cx[keep], cy[keep]
    errors = []
    if m_signal_shared != int(keep.sum()):
        errors.append(f"m_signal_shared {m_signal_shared} != {int(keep.sum())}")
    if tuple(n_signal) != (int(sx.sum()), int(sy.sum())):
        errors.append(f"n_signal {n_signal} != {(int(sx.sum()), int(sy.sum()))}")
    for label, s, h, enc in (("x", sx, entropies[0], hills[0]),
                             ("y", sy, entropies[1], hills[1])):
        exact = rd.measures.renyi_entropy(s / s.sum(), alpha)
        if not close(h, exact, sig_digits):
            errors.append(f"H_alpha[{label}] {h!r} != recomputed {exact!r}")
        if not close(enc, math.exp(exact), sig_digits):
            errors.append(f"ENC_alpha[{label}] {enc!r} != recomputed {math.exp(exact)!r}")
    if rejected:
        exact = float(rd.measures.renyi_divergence(sx / sx.sum(), sy / sy.sum(), alpha))
        if divergence is None or not close(divergence, exact, sig_digits):
            errors.append(f"D_alpha {divergence!r} != recomputed {exact!r}")
    elif divergence is not None:
        errors.append("D_alpha reported although equality was not rejected")
    return errors


def canonical(obj) -> str:
    """Text form of a result that changes whenever any output bit changes."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        inner = ",".join(f"{f.name}={canonical(getattr(obj, f.name))}"
                         for f in dataclasses.fields(obj))
        return f"{type(obj).__name__}({inner})"
    if isinstance(obj, np.ndarray):
        data = hashlib.sha256(np.ascontiguousarray(obj).tobytes()).hexdigest()
        return f"array{obj.shape}{obj.dtype}:{data}"
    if isinstance(obj, dict) and len(obj) > 1000:   # sparse tables: hash as arrays
        return f"dict:{canonical(np.array(list(obj)))}:{canonical(np.array(list(obj.values())))}"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{canonical(k)}:{canonical(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical(v) for v in obj) + "]"
    if isinstance(obj, float):
        return repr(float(obj))
    return repr(obj)


def run_cli(argv) -> int:
    rc = cli.run_cli(argv)
    if rc != 0:
        raise RuntimeError(f"renydiv {argv[0]} exited with code {rc}")
    return rc


def file_digest(path) -> tuple[int, str]:
    data = path.read_bytes()
    return len(data), fx.digest(data)


class Workload:
    """Inputs live in `work`: prepare() writes them, load() reads them back in
    the measuring process."""

    rows_per_parse = 0     # TSV rows one parse_count_table call reads

    def __init__(self, work, seed: int):
        self.work = work
        self.seed = seed

    def prepare(self) -> dict:
        return {}

    def load(self) -> None:
        pass

    def steps(self) -> list:
        raise NotImplementedError

    def fingerprint(self, step: str, output) -> tuple[int, str]:
        """(bytes, sha256) of a step's output; bytes count toward io.emit_bytes."""
        return 0, hashlib.sha256(canonical(output).encode()).hexdigest()

    def check(self, outputs: dict) -> dict:
        """Full correctness checks on one iteration: step -> list of errors."""
        return {}

    def trace_extras(self) -> tuple[dict, list]:
        """Extra per-layer metrics measured once in a traced run, and errors."""
        return dict.fromkeys(MC_SPLIT, 0.0), []


class CliPipeline(Workload):
    """`renydiv pipeline` on a 2-column m = 1e6 table, JSON written to a file."""

    rows_per_parse = fx.M

    def prepare(self):
        data, x, y = fx.pipeline_table(self.seed)
        (self.work / "table.tsv").write_bytes(data)
        np.savez(self.work / "counts.npz", x=x, y=y)   # by category id, for the checks
        (self.work / "report.json").unlink(missing_ok=True)
        return {"table": {"bytes": len(data), "sha256": fx.digest(data)},
                "sample_b10": fx.count_stats(x), "sample_b09": fx.count_stats(y)}

    def steps(self):
        argv = ["pipeline", str(self.work / "table.tsv"),
                "--output", str(self.work / "report.json")]
        return [("pipeline", lambda: run_cli(argv))]

    def fingerprint(self, step, output):
        return file_digest(self.work / "report.json")

    def check(self, outputs):
        with np.load(self.work / "counts.npz") as data:
            x, y = data["x"], data["y"]
        report = json.loads((self.work / "report.json").read_text(encoding="utf-8"))
        samples = list(report["samples"].values())
        errors = []
        for counts, s in zip((x, y), samples):
            noise = [np.array([fx.category_id(c) for c in comp["categories"]], dtype=np.int64)
                     for comp in s["noise_components"]]
            signal = np.array([fx.category_id(c) for c in s["signal_categories"]],
                              dtype=np.int64)
            errors += partition_errors(counts, noise, signal, s["cutoff_k_m"])
        errors += pipeline_errors(
            x, y, report["alpha"], report["shared_cutoff"],
            [s["H_alpha"]["estimate"] for s in samples],
            [s["ENC_alpha"]["estimate"] for s in samples],
            report["D_alpha"]["estimate"] if report["D_alpha"] else None,
            report["equality_rejected"], [s["n_signal"] for s in samples],
            report["m_signal_shared"], sig_digits=9)
        return {"pipeline": errors}


class LibStats(Workload):
    """Statistics kernels on parsed m = 1e6 count vectors, and paired mode at m = 2000."""

    PAIRED_M = 2000
    PAIRED_N = 1_000_000
    DIAG_WEIGHT = 0.3
    UNIFORM_N = 3_000_000

    def prepare(self):
        rng = fx.rng_for(self.seed, "lib_stats")
        # + 1 keeps every category observed, so the LD diagnostics run at m = 1e6
        x = rng.multinomial(fx.READS, fx.powerlaw_probs(1.0, fx.M)) + 1
        y = rng.multinomial(fx.READS, fx.powerlaw_probs(0.9, fx.M)) + 1
        mx = fx.mixture_counts(rng, 1.0)
        my = fx.mixture_counts(rng, 0.9)
        u = np.bincount(rng.integers(0, fx.M, self.UNIFORM_N), minlength=fx.M)
        joint_seed = int(rng.integers(0, 2**31))
        np.savez(self.work / "inputs.npz", x=x, y=y, mx=mx, my=my, u=u,
                 joint_seed=joint_seed)
        return {name: fx.count_stats(v) for name, v in
                (("x", x), ("y", y), ("mx", mx), ("my", my), ("u", u))}

    def load(self):
        with np.load(self.work / "inputs.npz") as data:
            arrays = {k: data[k] for k in data.files}
        self.x, self.y = rd.CountVector(arrays["x"]), rd.CountVector(arrays["y"])
        self.mx, self.my = rd.CountVector(arrays["mx"]), rd.CountVector(arrays["my"])
        self.u = rd.CountVector(arrays["u"])
        self.joint_seed = int(arrays["joint_seed"])
        self.p_paired = fx.powerlaw_probs(1.0, self.PAIRED_M)

    def _sample_joint(self, state):
        joint = rd.JointDistribution.diagonal_mix(self.p_paired, self.DIAG_WEIGHT)
        state["joint"] = rd.sample_joint(joint, self.PAIRED_N,
                                         np.random.default_rng(self.joint_seed))
        return state["joint"]

    def steps(self):
        a, state = ALPHA, {}
        return [
            ("entropy_ci", lambda: rd.entropy_ci(self.x, a)),
            ("hill_ci", lambda: rd.hill_ci(self.x, a)),
            ("divergence_ci", lambda: rd.divergence_ci(self.x, self.y, a)),
            ("equality_test", lambda: rd.equality_test(self.x, self.y, alpha=a,
                                                       mode="independent")),
            ("uniformity_thm3", lambda: rd.uniformity_test(self.u, a, method="thm3")),
            ("uniformity_lemma2i", lambda: rd.uniformity_test(self.u, a, method="lemma2i")),
            ("filter_noise", lambda: rd.filter_noise(self.mx)),
            ("diversity_pipeline", lambda: rd.diversity_pipeline(self.mx, self.my, alpha=a)),
            ("fit_powerlaw_ls", lambda: rd.fit_powerlaw_ls(self.x)),
            ("sample_joint", lambda: self._sample_joint(state)),
            ("equality_test_paired", lambda: rd.equality_test(alpha=a, mode="paired",
                                                              joint=state["joint"])),
            ("divergence_ci_paired", lambda: rd.divergence_ci(None, None, a,
                                                              joint=state["joint"])),
        ]

    def check(self, out):
        a = ALPHA
        x, y, u = self.x.counts, self.y.counts, self.u.counts
        errors = {name: [] for name in out}

        def expect(step, ok, message):
            if not ok:
                errors[step].append(message)

        h = rd.measures.renyi_entropy(x[x > 0] / x.sum(), a)
        expect("entropy_ci", close(out["entropy_ci"].estimate, h), "H_alpha differs")
        expect("entropy_ci", out["entropy_ci"].ld is not None, "no LD diagnostic")
        expect("hill_ci", close(out["hill_ci"].estimate, math.exp(h)), "ENC differs")
        d = float(rd.measures.renyi_divergence(x / x.sum(), y / y.sum(), a))
        expect("divergence_ci", close(out["divergence_ci"].estimate, d), "D_alpha differs")

        nx, ny = int(x.sum()), int(y.sum())
        m_union = int(((x > 0) | (y > 0)).sum())
        s = float(rd.measures.cross_power_sum(x / nx, y / ny, a))
        z = ((2.0 * nx * ny / (nx + ny)) / (a * (a - 1.0)) * (s - 1.0) - (m_union - 1)) / (
            math.sqrt(2.0) * math.sqrt(m_union - 1.0))
        expect("equality_test", close(out["equality_test"].statistic, z),
               "independent equality statistic differs")

        n, m = int(u.sum()), u.size
        center = math.log(m) + math.log1p(a * (a - 1.0) / 2.0 * m / n) / (1.0 - a)
        z3 = n * (rd.measures.renyi_entropy(u / n, a) - center) / (a * math.sqrt(m / 2.0))
        expect("uniformity_thm3", close(out["uniformity_thm3"].statistic, z3),
               "thm3 statistic differs")
        x2 = n * math.fsum(((u / n - 1.0 / m) ** 2 * m).tolist())
        expect("uniformity_lemma2i",
               abs(out["uniformity_lemma2i"].statistic - (x2 - m) / math.sqrt(2.0 * m)) <= 1e-9,
               "lemma2i statistic differs")

        dec = out["filter_noise"]
        errors["filter_noise"] += partition_errors(
            self.mx.counts, [c.categories for c in dec.noise_components],
            dec.signal_categories, dec.cutoff_k_m)
        rep = out["diversity_pipeline"]
        for dec, counts in zip(rep.decompositions, (self.mx.counts, self.my.counts)):
            errors["diversity_pipeline"] += partition_errors(
                counts, [c.categories for c in dec.noise_components],
                dec.signal_categories, dec.cutoff_k_m)
        errors["diversity_pipeline"] += pipeline_errors(
            self.mx.counts, self.my.counts, a, rep.shared_cutoff,
            [e.estimate for e in rep.entropies], [e.estimate for e in rep.hill_numbers],
            rep.divergence.estimate if rep.divergence else None, rep.equality_rejected,
            rep.signal_totals, rep.m_signal_shared)

        ranked = np.sort(x[x > 0])[::-1].astype(float)
        slope = np.polyfit(np.log(np.arange(1, ranked.size + 1)), np.log(ranked), 1)[0]
        expect("fit_powerlaw_ls", close(out["fit_powerlaw_ls"].beta_hat, -slope),
               "beta_hat differs from a reference least-squares fit")

        joint = out["sample_joint"]
        expect("sample_joint", joint.n == self.PAIRED_N and joint.m == self.PAIRED_M,
               "joint table has the wrong n or m")
        for step in ("equality_test", "equality_test_paired", "uniformity_thm3",
                     "uniformity_lemma2i"):
            expect(step, 0.0 <= out[step].p_value <= 1.0, "p-value outside [0, 1]")
        rows, cols = joint.row_counts(), joint.col_counts()
        dp = float(rd.measures.renyi_divergence(rows / joint.n, cols / joint.n, a))
        expect("divergence_ci_paired", close(out["divergence_ci_paired"].estimate, dp),
               "paired D_alpha differs")
        return errors


class McSimulate(Workload):
    """Two `renydiv simulate` runs at workers = 2 and one coverage experiment."""

    B = 200
    CONFIGS = {
        "simulate_thm1": "family = power_law\nbeta = 1.0\nm = 100000\nepsilon = 0.5\n"
                         f"alpha = 0.5\nB = {B}\nstatistic = thm1_entropy\n",
        "simulate_thm4": "family = bivariate_joint\nbeta = 1.0\ndiag_weight = 0.3\n"
                         f"m = 300\nepsilon = 1.0\nalpha = 0.5\nB = {B}\n"
                         "statistic = thm4_degenerate_divergence\n",
    }
    WORKERS = 2
    CHECK_B = 20   # replicates compared bit for bit at workers 1 and 2

    def __init__(self, work, seed):
        super().__init__(work, seed)
        rng = fx.rng_for(seed, "mc_simulate")
        self.seeds = {name: int(rng.integers(0, 2**31))
                      for name in ("simulate_thm1", "simulate_thm4", "coverage")}

    def prepare(self):
        for name, text in self.CONFIGS.items():
            (self.work / f"{name}.cfg").write_text(text, encoding="utf-8")
            (self.work / f"{name}.csv").unlink(missing_ok=True)
        return {"seeds": self.seeds}

    def _argv(self, name, workers):
        return ["simulate", "--config", str(self.work / f"{name}.cfg"),
                "--seed", str(self.seeds[name]), "--workers", str(workers),
                "--output", str(self.work / f"{name}.csv")]

    def _sim_config(self, name, workers):
        return cli.load_sim_config(self.work / f"{name}.cfg",
                                   seed_override=self.seeds[name],
                                   workers_override=workers)

    def _coverage_config(self):
        return rd.SimConfig(family="power_law", beta=1.0, m=1000, epsilon=1.5,
                            alpha=ALPHA, B=1000, statistic="thm1_entropy",
                            master_seed=self.seeds["coverage"])

    def steps(self):
        return [(name, lambda name=name: run_cli(self._argv(name, self.WORKERS)))
                for name in self.CONFIGS] + [
            ("coverage", lambda: rd.montecarlo.coverage_experiment(
                self._coverage_config(), 0.95))]

    def fingerprint(self, step, output):
        if step == "coverage":
            return 0, hashlib.sha256(repr(output).encode()).hexdigest()
        return file_digest(self.work / f"{step}.csv")

    def check(self, out):
        errors = {name: [] for name in out}
        for name in self.CONFIGS:
            if name not in out:
                continue
            lines = (self.work / f"{name}.csv").read_text(encoding="utf-8").splitlines()
            if lines[0] != "normal_quantile,sample_quantile" or len(lines) != self.B + 2:
                errors[name].append("simulate CSV has the wrong header or length")
            elif not 0.0 < float(lines[-1].split("=")[1]) <= 1.0:
                errors[name].append("KS distance outside (0, 1]")
            cfg = dataclasses.replace(self._sim_config(name, 1), B=self.CHECK_B)
            one = rd.simulate_statistic(cfg).samples
            two = rd.simulate_statistic(dataclasses.replace(cfg, workers=2)).samples
            if one.tobytes() != two.tobytes():
                errors[name].append("samples differ between workers 1 and 2")
        if not 0.0 <= out["coverage"] <= 1.0:
            errors["coverage"].append(f"coverage {out['coverage']!r} outside [0, 1]")
        return errors

    def trace_extras(self):
        """Workers 1 vs 2 wall time, and draw vs statistic time, of the thm1 run."""
        cfg = self._sim_config("simulate_thm1", 1)
        start = time.perf_counter()
        one = rd.simulate_statistic(cfg)
        w1 = time.perf_counter() - start
        start = time.perf_counter()
        two = rd.simulate_statistic(dataclasses.replace(cfg, workers=2))
        w2 = time.perf_counter() - start
        errors = []
        if one.samples.tobytes() != two.samples.tobytes():
            errors.append("thm1 samples differ between workers 1 and 2")
        p, n = rd.powerlaw_pmf(cfg.beta, cfg.m), cfg.n()
        start = time.perf_counter()
        for r in range(cfg.B):
            rd.sample_multinomial(p, n, rd.montecarlo.replicate_stream(cfg.master_seed, r))
        draw = time.perf_counter() - start
        return {
            "montecarlo.simulate_w1_s": w1,
            "montecarlo.simulate_w2_s": w2,
            "montecarlo.parallel_speedup": w1 / w2,
            "montecarlo.draw_s_per_rep": draw / cfg.B,
            "montecarlo.statistic_s_per_rep": (w1 - draw) / cfg.B,
        }, errors


WORKLOADS = {
    "cli_pipeline_1e6": CliPipeline,
    "lib_stats_1e6": LibStats,
    "mc_simulate": McSimulate,
}
