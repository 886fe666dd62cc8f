"""Seeded, parallel triangular-array simulation harness.

Every replicate r draws from its own child stream derived from
(master_seed, r), so a run is bit-identical for a given configuration no
matter how replicates are scheduled across workers. Normalized statistics
use *true-parameter* normalizers (population CV, mu_n, gamma_n), which is
what the limit theorems state; the coverage experiment instead exercises the
plug-in intervals practice requires.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .asymptotics import (_null_z, _thinned, _thm3_z, _thm4_z, chi_square_null_params,
                          divergence_ci, entropy_ci, lemma2i_standardize)
from .counts import INT64_MAX, CountVector, JointCountTable
from .distributions import PROB_SUM_TOL, JointDistribution, ProbVector, _sum, as_prob_vector
from .errors import INTEGER, REAL, DomainError, UsageError, ValidationError, check_number
from .measures import (_cross_power_sum, _distinct, _pearson_chi_square, _plugin, _power_sum,
                       _two_sample_chi_square, cross_power_sum, power_sum)
from .powerlaw import powerlaw_pmf
from .projections import _degenerate, projection_w_moments, v_moments_independent

UNIVARIATE_STATISTICS = {"thm1_entropy", "thm3_uniform_entropy", "lemma2_pearson"}
BIVARIATE_STATISTICS = {"thm2_divergence", "thm4_degenerate_divergence", "lemma2_two_sample"}
STATISTICS = UNIVARIATE_STATISTICS | BIVARIATE_STATISTICS
# the family fields each family reads; validate() rejects any other one that is set
FAMILY_FIELDS = {
    "power_law": ("beta",),
    "uniform": (),
    "noise_and_signal": ("p0",),
    "mixture": ("signal_beta", "signal_m", "signal_fraction", "noise_block_sizes",
                "noise_block_fractions"),
    "bivariate_product": ("beta", "beta2"),
    "bivariate_joint": ("beta", "diag_weight"),
}
# the family fields a family may leave unset; validate() requires its others
OPTIONAL_FIELDS = ("beta2", "diag_weight", "noise_block_sizes", "noise_block_fractions")
# the most categories a family may have, and the most replicates a run may draw: one
# float64 array of either is already 16 GB
M_MAX = 2**31 - 1
# the most bytes a run may hold at its peak by _check_cost's estimate; a config
# estimated past it is refused before any array is built
MEMORY_MAX = 2**32
# the most category draws, B * m, a run may take; at the 40-160 ns a draw took at
# m = 1e5, whatever n, that is at most about 3 hours on one core
WORK_MAX = 2**36
# 8-byte arrays of m entries alive at a run's peak, per family: the tracemalloc peak of
# simulate_statistic, coverage_experiment and bias_experiment at m = 1e5 over every
# statistic the family takes (5.00, 13.13 and 14.13 arrays), rounded up
_M_ARRAYS = {"power_law": 5, "uniform": 5, "noise_and_signal": 5, "mixture": 5,
             "bivariate_product": 14, "bivariate_joint": 15}
_B_ARRAYS = 6  # 8-byte arrays of B entries at simulate_statistic's peak (6.00 at B = 2e5)
# each numeric SimConfig field, or each entry of a noise_block_* tuple: its kind and the
# interval [lo, hi] (closed) or (lo, hi) it lies in; validate() reports the first field
# off its row in this order. A mixture's m = sum(noise_block_sizes) + signal_m leaves
# each of its parts at most M_MAX - 1.
_NUMERIC_FIELDS = {
    "p0": (REAL, 0, 1, False),
    "diag_weight": (REAL, 0, 1, True),
    "B": (INTEGER, 1, M_MAX, True),
    "m": (INTEGER, 2, M_MAX, True),
    "workers": (INTEGER, 1, math.inf, True),
    "master_seed": (INTEGER, 0, math.inf, True),
    "alpha": (REAL, 0, 1, False),
    "thinning_tau": (REAL, 0, 1, False),
    "noise_block_fractions": (REAL, 0, 1, True),
    "signal_fraction": (REAL, 0, 1, True),
    "signal_beta": (REAL, 0, math.inf, False),
    "signal_m": (INTEGER, 1, M_MAX - 1, True),
    "noise_block_sizes": (INTEGER, 1, M_MAX - 1, True),
    "beta": (REAL, 0, math.inf, False),
    "beta2": (REAL, 0, math.inf, False),
    "epsilon": (REAL, -math.inf, math.inf, False),
    "n_override": (INTEGER, 1, INT64_MAX, True),
}


def _check_field(name: str, value, prefix: str = ""):
    """check_number of `value` on the _NUMERIC_FIELDS row of `name`, named prefix + name."""
    return check_number(prefix + name, value, *_NUMERIC_FIELDS[name])


@dataclass(frozen=True)
class SimConfig:
    """Configuration of one simulation run.

    n is round(m^(1+epsilon)), or n_override; set one of the two. Family
    parameters: power_law uses beta; noise_and_signal uses p0 (signal mass)
    with m-1 uniform noise categories; mixture uses signal_beta/signal_m/
    signal_fraction plus per-block noise sizes and mass fractions, and its
    m must equal sum(noise_block_sizes) + signal_m;
    bivariate_product uses beta for p and beta2 for q (q = p when beta2 is
    None); bivariate_joint puts diag_weight extra mass on the diagonal of
    the power-law product (equal marginals for any weight). A family field
    that the family does not read (FAMILY_FIELDS) must stay unset, and one
    it reads must be set unless it is in OPTIONAL_FIELDS. Each numeric field
    lies in the interval its _NUMERIC_FIELDS row gives.
    """

    family: str
    m: int
    statistic: str
    alpha: float = 0.5
    epsilon: float | None = None
    n_override: int | None = None
    B: int = 2000
    thinning_tau: float | None = None
    master_seed: int = 0
    workers: int = 1
    beta: float | None = None
    beta2: float | None = None
    p0: float | None = None
    diag_weight: float | None = None
    signal_beta: float | None = None
    signal_m: int | None = None
    signal_fraction: float | None = None
    noise_block_sizes: tuple = ()
    noise_block_fractions: tuple = ()

    def n(self) -> int:
        """The sample size, from 1 to 2**63 - 1 (the most a multinomial draw takes)."""
        if self.n_override is not None:
            return int(_check_field("n_override", self.n_override, "config key "))
        if self.epsilon is None:
            raise UsageError("either epsilon or n_override must be set")
        try:
            n = int(round(self.m ** (1.0 + self.epsilon)))
        except OverflowError:  # the power itself leaves the float range
            n = INT64_MAX + 1
        if n > INT64_MAX:
            raise DomainError(f"config key epsilon = {self.epsilon!r} makes n = m^(1 + epsilon) "
                              f"exceed 2**63 - 1 at m = {self.m}")
        if n < 1:
            raise DomainError(f"derived n = {n} must be >= 1")
        return n

    def validate(self) -> None:
        for name in _NUMERIC_FIELDS:
            value = getattr(self, name)
            if value is None and SimConfig.__dataclass_fields__[name].default is None:
                continue
            items = value if isinstance(value, tuple) and name.startswith("noise_") else (value,)
            for v in items:
                _check_field(name, v, "config key ")
        if self.family not in FAMILY_FIELDS:
            raise UsageError(f"unknown family {self.family!r}")
        unread = set().union(*FAMILY_FIELDS.values()) - set(FAMILY_FIELDS[self.family])
        for name in sorted(unread):
            value = getattr(self, name)
            if value != SimConfig.__dataclass_fields__[name].default:
                raise ValidationError(f"config key {name} = {value!r} is not read by the "
                                      f"{self.family} family")
        for name in FAMILY_FIELDS[self.family]:
            if name not in OPTIONAL_FIELDS and getattr(self, name) is None:
                raise UsageError(f"the {self.family} family requires config key {name}")
        if self.statistic not in STATISTICS:
            raise UsageError(f"unknown statistic {self.statistic!r}")
        bivariate_family = self.family in {"bivariate_product", "bivariate_joint"}
        if self.statistic in BIVARIATE_STATISTICS and not bivariate_family:
            raise UsageError(f"{self.statistic} needs a bivariate family")
        if self.statistic in UNIVARIATE_STATISTICS and bivariate_family:
            raise UsageError(f"{self.statistic} needs a univariate family")
        if self.statistic == "thm3_uniform_entropy" and self.family != "uniform":
            raise UsageError("thm3_uniform_entropy is defined for the uniform family")
        if (self.statistic in {"thm4_degenerate_divergence", "lemma2_two_sample"}
                and self.beta2 not in (None, self.beta)):
            raise UsageError(f"{self.statistic} requires equal marginals: config key beta2 = "
                             f"{self.beta2!r} differs from beta = {self.beta!r}")
        if self.family == "mixture":
            sizes = self.noise_block_sizes
            support = sum(sizes if isinstance(sizes, tuple) else (sizes,)) + self.signal_m
            if self.m != support:
                raise ValidationError(f"config key m = {self.m!r} differs from the mixture "
                                      f"support sum(noise_block_sizes) + signal_m = {support}")
        if self.epsilon is not None and self.n_override is not None:
            raise ValidationError(f"config keys epsilon = {self.epsilon!r} and n_override = "
                                  f"{self.n_override!r} are both set; n_override replaces "
                                  f"n = m^(1 + epsilon), so set only one")
        self.n()


@dataclass(frozen=True)
class SimRun:
    samples: np.ndarray
    ks_distance: float
    qq_pairs: np.ndarray
    config_echo: SimConfig


def replicate_stream(master_seed: int, r: int) -> np.random.Generator:
    """Independent child stream for replicate r of a run seeded by master_seed."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(r,)))


def sample_multinomial(p, n: int, stream: np.random.Generator) -> CountVector:
    """One multinomial(n, p) draw as a CountVector."""
    check_number("n", n, INTEGER, 1, INT64_MAX)
    return CountVector(stream.multinomial(n, as_prob_vector(p).probs))


def sample_joint(joint: JointDistribution, n: int, stream: np.random.Generator) -> JointCountTable:
    """One multinomial draw of n pairs over the m x m cells of a bivariate distribution,
    in O(m + n log n) time and O(m + n) memory.

    N ~ Binomial(n, product_mass / total mass) pairs fall in the product part:
    their rows are one multinomial(N, a) draw and their columns N independent
    inverse-CDF draws from b (Devroye 1986, ch. III). The other n - N are one
    multinomial draw over the cells. One np.unique of the cell keys gives the table.
    """
    check_number("n", n, INTEGER, 1, INT64_MAX)
    m, lam, vals = joint.m, joint.product_mass, joint.vals
    cell_mass = _sum(vals)
    n_product = int(stream.binomial(n, lam / (lam + cell_mass)))
    keys = np.repeat(np.arange(0, m * m, m), stream.multinomial(n_product, joint.a))
    cdf = np.cumsum(joint.b)
    cdf /= cdf[-1]  # so every uniform draw in [0, 1) falls below the last step
    keys += np.searchsorted(cdf, stream.random(n_product), side="right")
    if vals.size:
        per_cell = stream.multinomial(n - n_product, vals / cell_mass)
        keys = np.concatenate([keys, np.repeat(joint.rows * m + joint.cols, per_cell)])
    keys, counts = np.unique(keys, return_counts=True)
    return JointCountTable(keys // m, keys % m, counts, m)


def ks_distance_normal(samples) -> float:
    """sup-norm distance between the empirical CDF and the standard normal CDF."""
    x = np.sort(np.asarray(samples, dtype=float))
    b = x.size
    if b < 2:
        raise DomainError("need at least 2 samples")
    if not np.isfinite(x).all():
        raise DomainError("samples must be finite")
    cdf = ndtr(x)
    lo = np.abs(cdf - np.arange(0, b) / b).max()
    hi = np.abs(cdf - np.arange(1, b + 1) / b).max()
    return float(max(lo, hi))


def _population(cfg: SimConfig):
    """The population of a validated config: a ProbVector for a univariate family, a
    JointDistribution for a bivariate one."""
    if cfg.family == "power_law":
        return powerlaw_pmf(cfg.beta, cfg.m)
    if cfg.family == "uniform":
        return ProbVector.uniform(cfg.m)
    if cfg.family == "noise_and_signal":
        probs = np.full(cfg.m, (1.0 - cfg.p0) / (cfg.m - 1))
        probs[0] = cfg.p0
        return ProbVector(probs)
    if cfg.family == "mixture":
        return mixture_distribution(
            signal_beta=cfg.signal_beta, signal_m=cfg.signal_m,
            signal_fraction=cfg.signal_fraction,
            noise_block_sizes=cfg.noise_block_sizes,
            noise_block_fractions=cfg.noise_block_fractions,
        )
    p = powerlaw_pmf(cfg.beta, cfg.m)
    if cfg.family == "bivariate_joint":
        return JointDistribution.diagonal_mix(p, cfg.diag_weight or 0.0)
    return JointDistribution.product(p, p if cfg.beta2 is None else powerlaw_pmf(cfg.beta2, cfg.m))


def mixture_distribution(signal_beta: float, signal_m: int, signal_fraction: float,
                         noise_block_sizes, noise_block_fractions) -> ProbVector:
    """Signal-plus-uniform-blocks mixture on disjoint supports.

    Noise blocks come first (ascending level order not required), then the
    power-law signal scaled to signal_fraction. Block masses must sum with
    the signal fraction to 1.
    """
    if signal_beta is None or signal_m is None or signal_fraction is None:
        raise UsageError("mixture family requires signal_beta, signal_m, signal_fraction")
    if np.isscalar(noise_block_sizes):
        noise_block_sizes = (noise_block_sizes,)
    if np.isscalar(noise_block_fractions):
        noise_block_fractions = (noise_block_fractions,)
    sizes = [_check_field("noise_block_sizes", s) for s in noise_block_sizes]
    fracs = [_check_field("noise_block_fractions", f) for f in noise_block_fractions]
    if len(sizes) != len(fracs) or not sizes:
        raise UsageError("need matching, non-empty noise block sizes and fractions")
    _check_field("signal_m", signal_m)
    _check_field("signal_fraction", signal_fraction)
    total = _sum(fracs) + signal_fraction
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise DomainError(f"mixture masses sum to {total!r}, expected 1 within {PROB_SUM_TOL}")
    parts = [np.full(s, f / s) for s, f in zip(sizes, fracs)]
    parts.append(signal_fraction * powerlaw_pmf(signal_beta, signal_m).probs)
    return ProbVector(np.concatenate(parts))


def _check_cost(cfg: SimConfig) -> None:
    """Refuse a validated config whose run would hold more than MEMORY_MAX bytes at its
    peak, by the estimate 8 * (_M_ARRAYS[family] * m + _B_ARRAYS * B), naming the key
    of the larger term; then one that would take more than WORK_MAX draws, B * m."""
    terms = {"m": 8 * _M_ARRAYS[cfg.family] * cfg.m, "B": 8 * _B_ARRAYS * cfg.B}
    need = sum(terms.values())
    if need > MEMORY_MAX:
        key = max(terms, key=terms.get)
        raise DomainError(f"config key {key} = {getattr(cfg, key)!r}: a {cfg.family} run "
                          f"would hold about {need / 2**30:.1f} GiB at its peak, past the "
                          f"{MEMORY_MAX // 2**30} GiB ceiling")
    if cfg.B * cfg.m > WORK_MAX:
        raise DomainError(f"config keys B = {cfg.B!r} and m = {cfg.m!r}: a run would draw "
                          f"B * m = {cfg.B * cfg.m:.3g} categories, past the "
                          f"{WORK_MAX:.3g} ceiling")


class _Normalizers:
    """Population quantities shared by all replicates of one run; for thm1 and thm2,
    s_true = S_a(p) or S_a(p, q), value = H_a or D_a, cv = CV(W) or CV(V). Every run
    builds them, so the run's cost is checked here, before the population is built."""

    def __init__(self, cfg: SimConfig):
        _check_cost(cfg)
        self.statistic = cfg.statistic
        if cfg.statistic in UNIVARIATE_STATISTICS:
            self.p = _population(cfg)
            if cfg.statistic == "thm1_entropy":
                w = projection_w_moments(self.p, cfg.alpha)
                if _degenerate(w):
                    raise UsageError(
                        "thm1_entropy is degenerate for a uniform population; "
                        "use thm3_uniform_entropy"
                    )
                self.s_true = power_sum(self.p, cfg.alpha)
                self.value = math.log(self.s_true) / (1.0 - cfg.alpha)
                self.cv = w.cv
        else:
            self.joint = _population(cfg)
            p, q = self.joint.a, self.joint.b
            if cfg.statistic == "thm2_divergence":
                v = v_moments_independent(p, q, cfg.alpha)
                if _degenerate(v):
                    raise UsageError(
                        "thm2_divergence is degenerate for equal marginals; "
                        "use thm4_degenerate_divergence"
                    )
                self.s_true = float(cross_power_sum(p, q, cfg.alpha))
                self.value = math.log(self.s_true) / (cfg.alpha - 1.0)
                self.cv = v.cv
            else:
                self.mu_n, gamma_sq = chi_square_null_params(self.joint)
                self.gamma_n = math.sqrt(gamma_sq)


def _univariate_statistic(counts: np.ndarray, n: int, norm: _Normalizers,
                          m: int, alpha: float) -> float:
    if norm.statistic == "thm1_entropy":
        phat, mult, _ = _plugin(counts, n)
        h_hat = math.log(_power_sum(phat, alpha, mult)) / (1.0 - alpha)
        return math.sqrt(n) * (1.0 / alpha - 1.0) * (h_hat - norm.value) / norm.cv
    if norm.statistic == "lemma2_pearson":
        return lemma2i_standardize(_pearson_chi_square(counts, n, norm.p.probs), m)
    if norm.statistic == "thm3_uniform_entropy":
        return _thm3_z(counts, n, alpha)[0]
    raise AssertionError(norm.statistic)


def _bivariate_statistic(cx: np.ndarray, cy: np.ndarray, n: int, norm: _Normalizers,
                         m: int, alpha: float) -> float:
    if norm.statistic == "lemma2_two_sample":
        return _null_z(_two_sample_chi_square(cx, cy, n, norm.joint.a), norm.mu_n, norm.gamma_n)
    gx, gy, mult = _distinct(cx, cy)
    if norm.statistic == "thm2_divergence":
        s_hat = _cross_power_sum(gx / n, gy / n, alpha, mult)
        if s_hat == 0.0:  # for alpha in (0, 1) each shared category adds at least 1/n
            raise DomainError(f"thm2_divergence at n = {n}: a replicate's two samples share "
                              f"no category (empty shared support)")
        d_hat = math.log(s_hat) / (alpha - 1.0)
        return math.sqrt(n) * (alpha - 1.0) * (d_hat - norm.value) / norm.cv
    if norm.statistic == "thm4_degenerate_divergence":
        return _thm4_z(gx / n, gy / n, n, alpha, norm.mu_n, norm.gamma_n, mult)
    raise AssertionError(norm.statistic)


def _replicate_counts(cfg: SimConfig, norm: _Normalizers, n: int, r: int):
    """The one draw rule: replicate r's sample size and counts, (c,) or (cx, cy), from
    the stream (master_seed, r). Under thinning_tau the size itself is Binomial(n, tau),
    the Theorem 5 regime, by the rule binomial_thinning applies to an empty draw."""
    rng = replicate_stream(cfg.master_seed, r)
    if cfg.thinning_tau is not None:
        n = int(_thinned(rng, n, cfg.thinning_tau))
    if cfg.statistic in UNIVARIATE_STATISTICS:
        return n, (rng.multinomial(n, norm.p.probs),)
    # each pair is a shared (i, i) with probability w, else an independent (i, j): the
    # marginals of the m x m multinomial, in O(m). At w = 0 (the product family) the
    # binomial and the empty multinomial take nothing from the stream.
    n_diag = int(rng.binomial(n, cfg.diag_weight or 0.0))
    shared = rng.multinomial(n_diag, norm.joint.a)
    return n, (shared + rng.multinomial(n - n_diag, norm.joint.a),
               shared + rng.multinomial(n - n_diag, norm.joint.b))


def _run_replicates(cfg: SimConfig, value) -> np.ndarray:
    """The one replicate loop: value(r) for r < B, serial or on a thread pool."""
    out = np.empty(cfg.B)

    def work(rs):
        for r in rs:
            out[r] = value(r)

    # replicates are bit-identical across worker counts, so the cap changes no output
    workers = min(cfg.workers, cfg.B, os.cpu_count() or 1)
    if workers == 1:
        work(range(cfg.B))
        return out
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(work, range(k, cfg.B, workers)) for k in range(workers)]
        for fut in futures:
            fut.result()
    return out


def simulate_statistic(cfg: SimConfig) -> SimRun:
    """Draw B replicates of the selected normalized statistic.

    Replicate r uses the child stream (master_seed, r); the result is
    bit-identical across worker counts. Degenerate statistic/family pairings
    raise before any sampling; thm3 with n <= m raises the undefined-statistic
    error the theorem's centering forces.
    """
    cfg.validate()
    n = cfg.n()
    norm = _Normalizers(cfg)
    statistic = (_univariate_statistic if cfg.statistic in UNIVARIATE_STATISTICS
                 else _bivariate_statistic)

    def value(r):
        n_rep, counts = _replicate_counts(cfg, norm, n, r)
        return statistic(*counts, n_rep, norm, cfg.m, cfg.alpha)

    samples = _run_replicates(cfg, value)
    ks = ks_distance_normal(samples)
    sorted_samples = np.sort(samples)
    grid = (np.arange(1, cfg.B + 1) - 0.5) / cfg.B
    qq = np.column_stack([ndtri(grid), sorted_samples])
    return SimRun(samples=samples, ks_distance=ks, qq_pairs=qq, config_echo=cfg)


def _experiment_normalizers(cfg: SimConfig, what: str) -> _Normalizers:
    cfg.validate()
    if cfg.statistic not in {"thm1_entropy", "thm2_divergence"}:
        raise UsageError(f"{what} is defined for thm1_entropy and thm2_divergence")
    return _Normalizers(cfg)


def coverage_experiment(cfg: SimConfig, level: float) -> float:
    """Fraction of replicates whose plug-in CI covers the true H_a or D_a."""
    norm = _experiment_normalizers(cfg, "coverage")
    n = cfg.n()
    interval = entropy_ci if cfg.statistic == "thm1_entropy" else divergence_ci

    def covers(r):
        ci = interval(*_replicate_counts(cfg, norm, n, r)[1], cfg.alpha, level)
        return ci.lower <= norm.value <= ci.upper

    return float(_run_replicates(cfg, covers).mean())


def bias_experiment(cfg: SimConfig) -> float:
    """Monte Carlo estimate of E S_a(phat)/S_a(p) - 1 (or the divergence analogue).

    Jensen's inequality forces the true value to be <= 0; the estimate should
    sit at or below zero up to Monte Carlo noise.
    """
    norm = _experiment_normalizers(cfg, "bias")
    n = cfg.n()

    def ratio(r):
        n_rep, counts = _replicate_counts(cfg, norm, n, r)
        if cfg.statistic == "thm1_entropy":
            phat, mult, _ = _plugin(*counts, n_rep)
            return _power_sum(phat, cfg.alpha, mult) / norm.s_true
        gx, gy, mult = _distinct(*counts)
        return _cross_power_sum(gx / n_rep, gy / n_rep, cfg.alpha, mult) / norm.s_true

    return float(_run_replicates(cfg, ratio).mean() - 1.0)
