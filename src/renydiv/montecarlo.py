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
from typing import Callable, NamedTuple

import numpy as np

from ._special import ndtr, ndtri
from .asymptotics import (_null_z, _thinned, _thm1_z, _thm2_z, _thm3_z, _thm4_z,
                          chi_square_null_params, divergence_ci, entropy_ci, lemma2i_standardize)
from .counts import INT64_MAX, CountVector, JointCountTable, _cell_keys
from .distributions import (JointDistribution, ProbVector, _check_unit_sum, _real, _sum,
                            as_prob_vector)
from .errors import (INTEGER, M_MAX, REAL, DomainError, UsageError, ValidationError,
                     check_number)
from .measures import (_pearson_chi_square, _plugin, _plugin_pair, _two_sample_chi_square,
                       cross_power_sum, power_sum)
from .powerlaw import powerlaw_pmf
from .projections import _degenerate, projection_w_moments, v_moments_independent


class _Family(NamedTuple):
    fields: tuple  # the family fields it reads; validate() rejects any other one that is set
    bivariate: bool
    m_arrays: int  # 8-byte arrays of m entries alive at a run's peak, for _check_cost
    population: Callable  # the population of a validated config


def _bivariate_product(cfg) -> JointDistribution:
    p = powerlaw_pmf(cfg.beta, cfg.m)
    return JointDistribution.product(p, p if cfg.beta2 is None else powerlaw_pmf(cfg.beta2, cfg.m))


# one row per family; m_arrays is the tracemalloc peak of simulate_statistic,
# coverage_experiment and bias_experiment at m = 1e5 over every statistic the family
# takes (5.00, 13.13 and 14.13 arrays), rounded up
FAMILIES = {
    "power_law": _Family(("beta",), False, 5, lambda c: powerlaw_pmf(c.beta, c.m)),
    "uniform": _Family((), False, 5, lambda c: ProbVector.uniform(c.m)),
    "noise_and_signal": _Family(("p0",), False, 5, lambda c: ProbVector(
        np.concatenate([[c.p0], np.full(c.m - 1, (1.0 - c.p0) / (c.m - 1))]))),
    "mixture": _Family(
        ("signal_beta", "signal_m", "signal_fraction", "noise_block_sizes",
         "noise_block_fractions"), False, 5,
        lambda c: mixture_distribution(c.signal_beta, c.signal_m, c.signal_fraction,
                                       c.noise_block_sizes, c.noise_block_fractions)),
    "bivariate_product": _Family(("beta", "beta2"), True, 14, _bivariate_product),
    "bivariate_joint": _Family(
        ("beta", "diag_weight"), True, 15,
        lambda c: JointDistribution.diagonal_mix(powerlaw_pmf(c.beta, c.m), c.diag_weight or 0.0)),
}
# the family fields a family may leave unset; validate() requires its others
OPTIONAL_FIELDS = ("beta2", "diag_weight", "noise_block_sizes", "noise_block_fractions")
# each statistic, and whether it needs a bivariate family; _statistic builds its kernel
STATISTICS = {"thm1_entropy": False, "thm3_uniform_entropy": False, "lemma2_pearson": False,
              "thm2_divergence": True, "thm4_degenerate_divergence": True,
              "lemma2_two_sample": True}
# the most bytes a run may hold at its peak by _check_cost's estimate; a config
# estimated past it is refused before any array is built
MEMORY_MAX = 2**32
# the most category draws, B * m, a run may take; at the 40-160 ns a draw took at
# m = 1e5, whatever n, that is at most about 3 hours on one core
WORK_MAX = 2**36
_B_ARRAYS = 6  # 8-byte arrays of B entries at simulate_statistic's peak (6.00 at B = 2e5)
# each numeric SimConfig field, or each entry of a noise_block_* tuple: its kind and the
# interval [lo, hi] (closed) or (lo, hi) it lies in; validate() reports the first field
# off its row in this order. m and B stop at M_MAX, the most categories (or replicates)
# one float64 array may have; a mixture's m = sum(noise_block_sizes) + signal_m leaves
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
    that the family does not read (its FAMILIES row) must stay unset, and one
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
        family = FAMILIES.get(self.family)
        if family is None:
            raise UsageError(f"unknown family {self.family!r}")
        unread = {name for row in FAMILIES.values() for name in row.fields} - set(family.fields)
        for name in sorted(unread):
            value = getattr(self, name)
            if value != SimConfig.__dataclass_fields__[name].default:
                raise ValidationError(f"config key {name} = {value!r} is not read by the "
                                      f"{self.family} family")
        for name in family.fields:
            if name not in OPTIONAL_FIELDS and getattr(self, name) is None:
                raise UsageError(f"the {self.family} family requires config key {name}")
        if self.statistic not in STATISTICS:
            raise UsageError(f"unknown statistic {self.statistic!r}")
        if STATISTICS[self.statistic] != family.bivariate:
            kind = "univariate" if family.bivariate else "bivariate"
            raise UsageError(f"{self.statistic} needs a {kind} family")
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


_GUIDE_PASSES = 8  # vectorized steps of _inverse_cdf before its stragglers take a binary search


def _inverse_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """np.searchsorted(cdf, u, side="right") for a non-decreasing cdf ending at 1.0 and u in
    [0, 1), by indexed search (Chen & Asau 1974; Devroye 1986, sec. III.2.4).

    guide[j] counts the cdf steps <= (j - 1) / K, K = 4 min(m, n) + 1 for n draws, so
    a draw that starts at guide[int(u K)] starts at or below its answer even when u K
    rounds up. It steps up while cdf[col] <= u, under 2m / K steps on average whatever
    the masses (< 0.5 for n >= m); draws still walking after _GUIDE_PASSES steps take
    np.searchsorted. The guide never outgrows the draws.
    """
    k = 4 * min(cdf.size, u.size) + 1
    guide = np.searchsorted(cdf, np.arange(-1, k) / k, side="right")
    col = guide[(u * k).astype(np.intp)]
    walking = np.flatnonzero(cdf[col] <= u)
    for _ in range(_GUIDE_PASSES):
        if not walking.size:
            return col
        col[walking] += 1
        walking = walking[cdf[col[walking]] <= u[walking]]
    col[walking] = np.searchsorted(cdf, u[walking], side="right")
    return col


def sample_joint(joint: JointDistribution, n: int, stream: np.random.Generator) -> JointCountTable:
    """One multinomial draw of n pairs over the m x m cells of a bivariate distribution,
    in O(m + n log n) time and O(m + n) memory.

    N ~ Binomial(n, product_mass / total mass) pairs fall in the product part:
    their rows are one multinomial(N, a) draw and their columns N independent
    inverse-CDF draws from b (Devroye 1986, ch. III), each found by the indexed
    search of _inverse_cdf in O(1) expected steps. The other n - N are one
    multinomial draw over the cells. One np.unique of their counts._cell_keys gives
    the table, its cells in row-major order.
    """
    check_number("n", n, INTEGER, 1, INT64_MAX)
    m, lam, vals = joint.m, joint.product_mass, joint.vals
    cell_mass = _sum(vals)
    n_product = int(stream.binomial(n, lam / (lam + cell_mass)))
    cdf = np.cumsum(joint.b)
    cdf /= cdf[-1]  # so every uniform draw in [0, 1) falls below the last step
    # int32 rows, 4 bytes a draw: a probability vector of M_MAX floats is already 16 GB
    rows = np.repeat(np.arange(m, dtype=np.int32), stream.multinomial(n_product, joint.a))
    keys = _cell_keys(rows, _inverse_cdf(cdf, stream.random(n_product)), m)
    if vals.size:
        per_cell = stream.multinomial(n - n_product, vals / cell_mass)
        keys = np.concatenate([keys, np.repeat(_cell_keys(joint.rows, joint.cols, m), per_cell)])
    keys, counts = np.unique(keys, return_counts=True)
    return JointCountTable(keys // m, keys % m, counts, m)


def ks_distance_normal(samples) -> float:
    """sup-norm distance between the empirical CDF and the standard normal CDF."""
    x = _real(samples, "samples")
    if x.ndim != 1:
        raise ValidationError(f"samples must be 1-D, got shape {x.shape}")
    b = x.size
    if b < 2:
        raise DomainError("need at least 2 samples")
    if not np.isfinite(x).all():
        raise DomainError("samples must be finite")
    cdf = ndtr(np.sort(x))
    lo = np.abs(cdf - np.arange(0, b) / b).max()
    hi = np.abs(cdf - np.arange(1, b + 1) / b).max()
    return float(max(lo, hi))


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
    _check_unit_sum(_sum(fracs) + signal_fraction, "mixture masses", DomainError)
    parts = [np.full(s, f / s) for s, f in zip(sizes, fracs)]
    parts.append(signal_fraction * powerlaw_pmf(signal_beta, signal_m).probs)
    return ProbVector(np.concatenate(parts))


def _check_cost(cfg: SimConfig) -> None:
    """Refuse a validated config whose run would hold more than MEMORY_MAX bytes at its peak,
    by the estimate 8 * (m_arrays * m + _B_ARRAYS * B) with its family's m_arrays, naming
    the key of the larger term; then one that would take more than WORK_MAX draws, B * m."""
    terms = {"m": 8 * FAMILIES[cfg.family].m_arrays * cfg.m, "B": 8 * _B_ARRAYS * cfg.B}
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


def _replicate_counts(cfg: SimConfig, population, n: int, r: int):
    """The one draw rule: replicate r's counts and sample size, (c, n) or (cx, cy, n), from
    the stream (master_seed, r). Under thinning_tau the size itself is Binomial(n, tau),
    the Theorem 5 regime, by the rule binomial_thinning applies to an empty draw."""
    rng = replicate_stream(cfg.master_seed, r)
    if cfg.thinning_tau is not None:
        n = int(_thinned(rng, n, cfg.thinning_tau))
    if isinstance(population, ProbVector):
        return rng.multinomial(n, population.probs), n
    # each pair is a shared (i, i) with probability w, else an independent (i, j): the
    # marginals of the m x m multinomial, in O(m). At w = 0 (the product family) the
    # binomial and the empty multinomial take nothing from the stream.
    n_diag = int(rng.binomial(n, cfg.diag_weight or 0.0))
    shared = rng.multinomial(n_diag, population.a)
    return (shared + rng.multinomial(n - n_diag, population.a),
            shared + rng.multinomial(n - n_diag, population.b), n)


def _statistic(cfg: SimConfig, population):
    """The replicate kernel of a validated config's statistic, bound to the true
    normalizers computed once from its population: (z, s_true, value), z(draw) the
    normalized statistic of a replicate's draw, (c, n) or (cx, cy, n), and for thm1 and
    thm2 s_true = S_a(p) or S_a(p, q) and value = H_a or D_a (else None). A degenerate
    pairing raises UsageError."""
    alpha, statistic = cfg.alpha, cfg.statistic
    if statistic == "thm1_entropy":
        w = projection_w_moments(population, alpha)
        if _degenerate(w):
            raise UsageError("thm1_entropy is degenerate for a uniform population; "
                             "use thm3_uniform_entropy")
        s_true = power_sum(population, alpha)
        h, cv = math.log(s_true) / (1.0 - alpha), w.cv
        return lambda draw: _thm1_z(*draw, alpha, h, cv), s_true, h
    if statistic == "thm2_divergence":
        v = v_moments_independent(population.a, population.b, alpha)
        if _degenerate(v):
            raise UsageError("thm2_divergence is degenerate for equal marginals; "
                             "use thm4_degenerate_divergence")
        s_true = float(cross_power_sum(population.a, population.b, alpha))
        d, cv = math.log(s_true) / (alpha - 1.0), v.cv
        return lambda draw: _thm2_z(*draw, alpha, d, cv), s_true, d
    if statistic == "thm3_uniform_entropy":
        return lambda draw: _thm3_z(*draw, alpha)[0], None, None
    if statistic == "lemma2_pearson":
        return (lambda draw: lemma2i_standardize(_pearson_chi_square(*draw, population.probs),
                                                 cfg.m), None, None)
    mu, gamma_sq = chi_square_null_params(population)
    gamma = math.sqrt(gamma_sq)
    if statistic == "lemma2_two_sample":
        return (lambda draw: _null_z(_two_sample_chi_square(*draw, population.a), mu, gamma),
                None, None)
    return (lambda draw: _thm4_z(_plugin_pair(*draw, draw[-1], alpha)[3], draw[-1], alpha, mu,
                                 gamma), None, None)


def _setup(cfg: SimConfig, experiment: str | None = None):
    """The one setup of every run: validate cfg, gate an experiment to thm1 and thm2,
    check the run's cost, then build the population and its statistic. Returns
    (population, z, s_true, value), the last three those of _statistic."""
    cfg.validate()
    if experiment and cfg.statistic not in {"thm1_entropy", "thm2_divergence"}:
        raise UsageError(f"{experiment} is defined for thm1_entropy and thm2_divergence")
    _check_cost(cfg)
    population = FAMILIES[cfg.family].population(cfg)
    return population, *_statistic(cfg, population)


def _run_replicates(cfg: SimConfig, population, kernel) -> np.ndarray:
    """The one replicate loop, and the one caller of the draw rule: kernel(draw) for the
    draw _replicate_counts(cfg, population, n, r) of each r < B, serial or on a thread pool."""
    n, out = cfg.n(), np.empty(cfg.B)

    def work(rs):
        for r in rs:
            out[r] = kernel(_replicate_counts(cfg, population, n, r))

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
    bit-identical across worker counts. Degenerate statistic/family pairings, and
    then B < 2, which leaves no KS distance, raise before any sampling; thm3 with
    n <= m raises the undefined-statistic error the theorem's centering forces.
    """
    population, z, _, _ = _setup(cfg)
    if cfg.B < 2:
        raise DomainError(f"config key B = {cfg.B!r}: simulate needs B >= 2 for its KS distance")
    samples = _run_replicates(cfg, population, z)
    ks = ks_distance_normal(samples)
    sorted_samples = np.sort(samples)
    grid = (np.arange(1, cfg.B + 1) - 0.5) / cfg.B
    qq = np.column_stack([ndtri(grid), sorted_samples])
    return SimRun(samples=samples, ks_distance=ks, qq_pairs=qq, config_echo=cfg)


def coverage_experiment(cfg: SimConfig, level: float) -> float:
    """Fraction of replicates whose plug-in CI covers the true H_a or D_a."""
    population, _, _, value = _setup(cfg, "coverage")
    interval = entropy_ci if cfg.statistic == "thm1_entropy" else divergence_ci

    def covers(draw):
        ci = interval(*draw[:-1], cfg.alpha, level)
        return ci.lower <= value <= ci.upper

    return float(_run_replicates(cfg, population, covers).mean())


def bias_experiment(cfg: SimConfig) -> float:
    """Monte Carlo estimate of E S_a(phat)/S_a(p) - 1 (or the divergence analogue).

    Jensen's inequality forces the true value to be <= 0; the estimate should
    sit at or below zero up to Monte Carlo noise.
    """
    population, _, s_true, _ = _setup(cfg, "bias")

    def ratio(draw):
        if cfg.statistic == "thm1_entropy":
            return _plugin(*draw, cfg.alpha)[3] / s_true
        return _plugin_pair(*draw, draw[-1], cfg.alpha)[3] / s_true

    return float(_run_replicates(cfg, population, ratio).mean() - 1.0)
