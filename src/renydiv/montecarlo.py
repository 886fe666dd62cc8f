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
import numbers
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .asymptotics import (MARGINAL_EQUALITY_TOL, _null_params, _null_z, _thinned, _thm3_z,
                          _thm4_z, divergence_ci, entropy_ci, lemma2i_standardize)
from .counts import INT64_MAX, CountVector, JointCountTable
from .distributions import JointDistribution, ProbVector, _sum, check_alpha
from .errors import DomainError, UsageError, ValidationError
from .measures import (_cross_power_sum, _pearson_chi_square, _power_sum, _two_sample_chi_square,
                       cross_power_sum, power_sum)
from .powerlaw import powerlaw_pmf
from .projections import _degenerate, projection_w_moments, v_moments_independent

UNIVARIATE_STATISTICS = {"thm1_entropy", "thm3_uniform_entropy", "lemma2_pearson"}
BIVARIATE_STATISTICS = {"thm2_divergence", "thm4_degenerate_divergence", "lemma2_two_sample"}
STATISTICS = UNIVARIATE_STATISTICS | BIVARIATE_STATISTICS
FAMILIES = {
    "power_law", "uniform", "noise_and_signal", "mixture",
    "bivariate_product", "bivariate_joint",
}
# SimConfig fields by kind; the noise_block_* ones may also hold a tuple of that kind
_INTEGER_FIELDS = ("m", "n_override", "B", "master_seed", "workers", "signal_m",
                   "noise_block_sizes")
_REAL_FIELDS = ("alpha", "epsilon", "thinning_tau", "beta", "beta2", "p0", "diag_weight",
                "signal_beta", "signal_fraction", "noise_block_fractions")
# the most categories a family may have: one float64 array of them is already 16 GB
M_MAX = 2**31 - 1


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
    the power-law product (equal marginals for any weight). m, signal_m and
    each noise block size are at most M_MAX = 2**31 - 1.
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
            if self.n_override < 1:
                raise DomainError("n_override must be >= 1")
            if self.n_override > INT64_MAX:
                raise DomainError(f"config key n_override = {self.n_override!r} exceeds "
                                  f"2**63 - 1")
            return int(self.n_override)
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

    def _check_types(self) -> None:
        """Integer fields hold ints, real fields reals that are finite as floats
        (an int past the float range is not); bools are neither."""
        for names, kind, what in ((_INTEGER_FIELDS, numbers.Integral, "an integer"),
                                  (_REAL_FIELDS, numbers.Real, "a finite real number")):
            for name in names:
                value = getattr(self, name)
                if value is None and SimConfig.__dataclass_fields__[name].default is None:
                    continue
                items = value if isinstance(value, tuple) and name.startswith("noise_") else (value,)
                if not all(isinstance(v, kind) and not isinstance(v, bool)
                           and (kind is numbers.Integral or abs(v) <= sys.float_info.max)
                           for v in items):
                    raise ValidationError(f"config key {name} must be {what}, got {value!r}")

    def validate(self) -> None:
        self._check_types()
        if self.family not in FAMILIES:
            raise UsageError(f"unknown family {self.family!r}")
        if self.statistic not in STATISTICS:
            raise UsageError(f"unknown statistic {self.statistic!r}")
        if self.B < 1:
            raise DomainError("B must be >= 1")
        if self.m < 2:
            raise DomainError("m must be >= 2")
        if self.m > M_MAX:
            raise DomainError(f"config key m = {self.m!r} exceeds 2**31 - 1")
        if self.workers < 1:
            raise DomainError(f"workers must be >= 1, got {self.workers}")
        if self.master_seed < 0:
            raise DomainError(f"master_seed must be >= 0, got {self.master_seed}")
        check_alpha(self.alpha)
        if self.thinning_tau is not None and not (0.0 < self.thinning_tau < 1.0):
            raise DomainError("thinning_tau must lie strictly between 0 and 1")
        bivariate_family = self.family in {"bivariate_product", "bivariate_joint"}
        if self.statistic in BIVARIATE_STATISTICS and not bivariate_family:
            raise UsageError(f"{self.statistic} needs a bivariate family")
        if self.statistic in UNIVARIATE_STATISTICS and bivariate_family:
            raise UsageError(f"{self.statistic} needs a univariate family")
        if self.statistic == "thm3_uniform_entropy" and self.family != "uniform":
            raise UsageError("thm3_uniform_entropy is defined for the uniform family")
        if self.family == "mixture" and self.signal_m is not None:
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
    probs = p.probs if isinstance(p, ProbVector) else np.asarray(p, dtype=float)
    if n < 1:
        raise DomainError("n must be >= 1")
    return CountVector(stream.multinomial(n, probs))


def sample_joint(joint: JointDistribution, n: int, stream: np.random.Generator) -> JointCountTable:
    """One multinomial draw over the m x m cells of a bivariate distribution."""
    if n < 1:
        raise DomainError("n must be >= 1")
    flat = stream.multinomial(n, joint.pij.ravel())
    k = np.flatnonzero(flat)
    return JointCountTable(k // joint.m, k % joint.m, flat[k], joint.m)


def ks_distance_normal(samples) -> float:
    """sup-norm distance between the empirical CDF and the standard normal CDF."""
    x = np.sort(np.asarray(samples, dtype=float))
    b = x.size
    if b < 2:
        raise DomainError("need at least 2 samples")
    cdf = ndtr(x)
    lo = np.abs(cdf - np.arange(0, b) / b).max()
    hi = np.abs(cdf - np.arange(1, b + 1) / b).max()
    return float(max(lo, hi))


def _family_univariate(cfg: SimConfig) -> ProbVector:
    if cfg.family == "power_law":
        if cfg.beta is None:
            raise UsageError("power_law family requires beta")
        return powerlaw_pmf(cfg.beta, cfg.m)
    if cfg.family == "uniform":
        return ProbVector.uniform(cfg.m)
    if cfg.family == "noise_and_signal":
        if cfg.p0 is None:
            raise UsageError("noise_and_signal family requires p0")
        if not (0.0 < cfg.p0 < 1.0):
            raise DomainError("p0 must lie strictly between 0 and 1")
        m_noise = cfg.m - 1
        probs = np.full(cfg.m, (1.0 - cfg.p0) / m_noise)
        probs[0] = cfg.p0
        return ProbVector(probs)
    if cfg.family == "mixture":
        return mixture_distribution(
            signal_beta=cfg.signal_beta, signal_m=cfg.signal_m,
            signal_fraction=cfg.signal_fraction,
            noise_block_sizes=cfg.noise_block_sizes,
            noise_block_fractions=cfg.noise_block_fractions,
        )
    raise UsageError(f"{cfg.family} is not a univariate family")


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
    sizes = tuple(int(s) for s in noise_block_sizes)
    fracs = tuple(float(f) for f in noise_block_fractions)
    if len(sizes) != len(fracs) or not sizes:
        raise UsageError("need matching, non-empty noise block sizes and fractions")
    if not all(1 <= s <= M_MAX for s in (*sizes, signal_m)):
        raise DomainError(f"noise block sizes {sizes} and signal_m = {signal_m} "
                          f"must lie in [1, 2**31 - 1]")
    total = _sum(fracs) + signal_fraction
    if abs(total - 1.0) > 1e-9:
        raise DomainError(f"mixture masses sum to {total}, expected 1")
    parts = [np.full(s, f / s) for s, f in zip(sizes, fracs)]
    parts.append(signal_fraction * powerlaw_pmf(signal_beta, signal_m).probs)
    return ProbVector(np.concatenate(parts))


def _family_bivariate(cfg: SimConfig):
    """Returns (p, q, diag_weight); the weight is None for independent samples.

    bivariate_joint is JointDistribution.diagonal_mix(p, diag_weight), which
    the harness never builds: its normalizers and draws are O(m).
    """
    if cfg.beta is None:
        raise UsageError("bivariate families require beta for the first marginal")
    p = powerlaw_pmf(cfg.beta, cfg.m)
    if cfg.family == "bivariate_product":
        q = powerlaw_pmf(cfg.beta2, cfg.m) if cfg.beta2 is not None else p
        return p, q, None
    if cfg.family == "bivariate_joint":
        w = cfg.diag_weight if cfg.diag_weight is not None else 0.0
        if not (0.0 <= w <= 1.0):
            raise DomainError("diag_weight must lie in [0, 1]")
        return p, p, w
    raise UsageError(f"{cfg.family} is not a bivariate family")


class _Normalizers:
    """Population quantities shared by all replicates of one run; for thm1 and thm2,
    s_true = S_a(p) or S_a(p, q), value = H_a or D_a, cv = CV(W) or CV(V)."""

    def __init__(self, cfg: SimConfig):
        self.statistic = cfg.statistic
        if cfg.statistic in UNIVARIATE_STATISTICS:
            self.p = _family_univariate(cfg)
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
            self.p, self.q, self.diag_weight = _family_bivariate(cfg)
            if cfg.statistic == "thm2_divergence":
                v = v_moments_independent(self.p, self.q, cfg.alpha)
                if _degenerate(v):
                    raise UsageError(
                        "thm2_divergence is degenerate for equal marginals; "
                        "use thm4_degenerate_divergence"
                    )
                self.s_true = float(cross_power_sum(self.p, self.q, cfg.alpha))
                self.value = math.log(self.s_true) / (cfg.alpha - 1.0)
                self.cv = v.cv
            else:
                # thm4 and the two-sample chi-square need equal marginals
                if not np.allclose(self.p.probs, self.q.probs, rtol=0,
                                   atol=MARGINAL_EQUALITY_TOL):
                    raise UsageError(f"{cfg.statistic} requires equal marginals (p = q)")
                if self.diag_weight is None:
                    m = cfg.m
                    self.mu_n = float(m - 1)
                    self.gamma_n = math.sqrt(m - 1.0)
                else:
                    # diagonal_mix: p_ij = (1 - w) p_i p_j + w p_i 1{i = j}
                    p, w = self.p.probs, self.diag_weight
                    diag = np.arange(cfg.m)
                    mu, gamma_sq = _null_params(math.sqrt(1.0 - w) * p, diag, diag, w * p, p)
                    self.mu_n = mu
                    self.gamma_n = math.sqrt(gamma_sq)


def _univariate_statistic(counts: np.ndarray, n: int, norm: _Normalizers,
                          m: int, alpha: float) -> float:
    if norm.statistic == "thm1_entropy":
        h_hat = math.log(_power_sum(counts[counts > 0] / n, alpha)) / (1.0 - alpha)
        return math.sqrt(n) * (1.0 / alpha - 1.0) * (h_hat - norm.value) / norm.cv
    if norm.statistic == "lemma2_pearson":
        return lemma2i_standardize(_pearson_chi_square(counts, n, norm.p.probs), m)
    if norm.statistic == "thm3_uniform_entropy":
        return _thm3_z(counts, n, alpha)[0]
    raise AssertionError(norm.statistic)


def _bivariate_statistic(cx: np.ndarray, cy: np.ndarray, n: int, norm: _Normalizers,
                         m: int, alpha: float) -> float:
    if norm.statistic == "thm2_divergence":
        d_hat = math.log(_cross_power_sum(cx / n, cy / n, alpha)) / (alpha - 1.0)
        return math.sqrt(n) * (alpha - 1.0) * (d_hat - norm.value) / norm.cv
    if norm.statistic == "thm4_degenerate_divergence":
        return _thm4_z(cx / n, cy / n, n, alpha, norm.mu_n, norm.gamma_n)
    if norm.statistic == "lemma2_two_sample":
        return _null_z(_two_sample_chi_square(cx, cy, n, norm.p.probs), norm.mu_n, norm.gamma_n)
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
    if norm.diag_weight is None:
        return n, (rng.multinomial(n, norm.p.probs), rng.multinomial(n, norm.q.probs))
    # each diagonal_mix draw is a shared (i, i) with probability w, else an
    # independent (i, j): the marginals of the m x m multinomial, in O(m)
    n_diag = int(rng.binomial(n, norm.diag_weight))
    shared = rng.multinomial(n_diag, norm.p.probs)
    return n, (shared + rng.multinomial(n - n_diag, norm.p.probs),
               shared + rng.multinomial(n - n_diag, norm.p.probs))


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
        futures = [pool.submit(work, chunk)
                   for chunk in np.array_split(range(cfg.B), workers)]
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
            c, = counts
            return _power_sum(c[c > 0] / n_rep, cfg.alpha) / norm.s_true
        return _cross_power_sum(counts[0] / n_rep, counts[1] / n_rep, cfg.alpha) / norm.s_true

    return float(_run_replicates(cfg, ratio).mean() - 1.0)
