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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .asymptotics import (MARGINAL_EQUALITY_TOL, _thinned, chi_square_null_params, divergence_ci,
                          entropy_ci, lemma2i_standardize, thm3_normalizers)
from .counts import CountVector, JointCountTable
from .distributions import JointDistribution, ProbVector, _sum, check_alpha
from .errors import DomainError, UndefinedStatisticError, UsageError
from .measures import (_cross_power_sum, _pearson_chi_square, _power_sum, _two_sample_chi_square,
                       cross_power_sum, power_sum, renyi_divergence, renyi_entropy)
from .powerlaw import powerlaw_pmf
from .projections import (_degenerate, projection_v_moments, projection_w_moments,
                          v_moments_independent)

UNIVARIATE_STATISTICS = {"thm1_entropy", "thm3_uniform_entropy", "lemma2_pearson"}
BIVARIATE_STATISTICS = {"thm2_divergence", "thm4_degenerate_divergence", "lemma2_two_sample"}
STATISTICS = UNIVARIATE_STATISTICS | BIVARIATE_STATISTICS
FAMILIES = {
    "power_law", "uniform", "noise_and_signal", "mixture",
    "bivariate_product", "bivariate_joint",
}


@dataclass(frozen=True)
class SimConfig:
    """Configuration of one simulation run.

    n is round(m^(1+epsilon)) unless n_override is given. Family parameters:
    power_law uses beta; noise_and_signal uses p0 (signal mass) with m-1
    uniform noise categories; mixture uses signal_beta/signal_m/
    signal_fraction plus per-block noise sizes and mass fractions;
    bivariate_product uses beta for p and beta2 for q (q = p when beta2 is
    None); bivariate_joint puts diag_weight extra mass on the diagonal of
    the power-law product (equal marginals for any weight).
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
        if self.n_override is not None:
            if self.n_override < 1:
                raise DomainError("n_override must be >= 1")
            return int(self.n_override)
        if self.epsilon is None:
            raise UsageError("either epsilon or n_override must be set")
        n = int(round(self.m ** (1.0 + self.epsilon)))
        if n < 1:
            raise DomainError(f"derived n = {n} must be >= 1")
        return n

    def validate(self) -> None:
        if self.family not in FAMILIES:
            raise UsageError(f"unknown family {self.family!r}")
        if self.statistic not in STATISTICS:
            raise UsageError(f"unknown statistic {self.statistic!r}")
        if self.B < 1:
            raise DomainError("B must be >= 1")
        if self.m < 2:
            raise DomainError("m must be >= 2")
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
    total = _sum(fracs) + signal_fraction
    if abs(total - 1.0) > 1e-9:
        raise DomainError(f"mixture masses sum to {total}, expected 1")
    parts = [np.full(s, f / s) for s, f in zip(sizes, fracs)]
    parts.append(signal_fraction * powerlaw_pmf(signal_beta, signal_m).probs)
    return ProbVector(np.concatenate(parts))


def _family_bivariate(cfg: SimConfig):
    """Returns (p, q, joint_or_None); joint is dense only when cells correlate."""
    if cfg.beta is None:
        raise UsageError("bivariate families require beta for the first marginal")
    p = powerlaw_pmf(cfg.beta, cfg.m)
    if cfg.family == "bivariate_product":
        q = powerlaw_pmf(cfg.beta2, cfg.m) if cfg.beta2 is not None else p
        return p, q, None
    if cfg.family == "bivariate_joint":
        w = cfg.diag_weight if cfg.diag_weight is not None else 0.0
        joint = JointDistribution.diagonal_mix(p, w)
        return p, p, joint
    raise UsageError(f"{cfg.family} is not a bivariate family")


class _Normalizers:
    """Population quantities shared by all replicates of one run."""

    def __init__(self, cfg: SimConfig):
        self.alpha = cfg.alpha
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
                self.h_true = renyi_entropy(self.p, cfg.alpha)
                self.cv_w = w.cv
        else:
            self.p, self.q, self.joint = _family_bivariate(cfg)
            if cfg.statistic == "thm2_divergence":
                v = (projection_v_moments(self.joint, cfg.alpha) if self.joint is not None
                     else v_moments_independent(self.p, self.q, cfg.alpha))
                if _degenerate(v):
                    raise UsageError(
                        "thm2_divergence is degenerate for equal marginals; "
                        "use thm4_degenerate_divergence"
                    )
                self.d_true = float(renyi_divergence(self.p, self.q, cfg.alpha))
                self.cv_v = v.cv
            else:
                # thm4 and the two-sample chi-square need equal marginals
                if not np.allclose(self.p.probs, self.q.probs, rtol=0,
                                   atol=MARGINAL_EQUALITY_TOL):
                    raise UsageError(f"{cfg.statistic} requires equal marginals (p = q)")
                if self.joint is None:
                    m = cfg.m
                    self.mu_n = float(m - 1)
                    self.gamma_n = math.sqrt(m - 1.0)
                else:
                    mu, gamma_sq = chi_square_null_params(self.joint)
                    self.mu_n = mu
                    self.gamma_n = math.sqrt(gamma_sq)


def _univariate_statistic(counts: np.ndarray, n: int, norm: _Normalizers,
                          m: int, alpha: float) -> float:
    if norm.statistic == "thm1_entropy":
        h_hat = math.log(_power_sum(counts[counts > 0] / n, alpha)) / (1.0 - alpha)
        return math.sqrt(n) * (1.0 / alpha - 1.0) * (h_hat - norm.h_true) / norm.cv_w
    if norm.statistic == "lemma2_pearson":
        return lemma2i_standardize(_pearson_chi_square(counts, n, norm.p.probs), m)
    if norm.statistic == "thm3_uniform_entropy":
        if n <= m:
            raise UndefinedStatisticError(
                f"normalized entropy statistic undefined for n <= m (n={n}, m={m})"
            )
        h_hat = math.log(_power_sum(counts[counts > 0] / n, alpha)) / (1.0 - alpha)
        center, sd = thm3_normalizers(m, n, alpha)
        return n * (h_hat - center) / sd
    raise AssertionError(norm.statistic)


def _bivariate_statistic(cx: np.ndarray, cy: np.ndarray, n: int, norm: _Normalizers,
                         m: int, alpha: float) -> float:
    if norm.statistic == "thm2_divergence":
        d_hat = math.log(_cross_power_sum(cx / n, cy / n, alpha)) / (alpha - 1.0)
        return math.sqrt(n) * (alpha - 1.0) * (d_hat - norm.d_true) / norm.cv_v
    if norm.statistic == "thm4_degenerate_divergence":
        s_hat = _cross_power_sum(cx / n, cy / n, alpha)
        num = n / (alpha * (alpha - 1.0)) * (s_hat - 1.0) - norm.mu_n
        return num / (math.sqrt(2.0) * norm.gamma_n)
    if norm.statistic == "lemma2_two_sample":
        x2 = _two_sample_chi_square(cx, cy, n, norm.p.probs)
        return (x2 - norm.mu_n) / (math.sqrt(2.0) * norm.gamma_n)
    raise AssertionError(norm.statistic)


def _one_replicate(cfg: SimConfig, norm: _Normalizers, n: int, r: int) -> float:
    rng = replicate_stream(cfg.master_seed, r)
    n_rep = n
    if cfg.thinning_tau is not None:
        # Theorem-5 regime: the sample size itself is Binomial(n, tau), under
        # the thinning rule binomial_thinning applies to an empty draw
        n_rep = int(_thinned(rng, n, cfg.thinning_tau))
    if cfg.statistic in UNIVARIATE_STATISTICS:
        counts = rng.multinomial(n_rep, norm.p.probs)
        return _univariate_statistic(counts, n_rep, norm, cfg.m, cfg.alpha)
    if norm.joint is None:
        cx = rng.multinomial(n_rep, norm.p.probs)
        cy = rng.multinomial(n_rep, norm.q.probs)
    else:
        flat = rng.multinomial(n_rep, norm.joint.pij.ravel())
        mat = flat.reshape(cfg.m, cfg.m)
        cx = mat.sum(axis=1)
        cy = mat.sum(axis=0)
    return _bivariate_statistic(cx, cy, n_rep, norm, cfg.m, cfg.alpha)


def _run_replicates(cfg: SimConfig, norm: _Normalizers, n: int) -> np.ndarray:
    out = np.empty(cfg.B)
    workers = max(1, int(cfg.workers))
    if workers == 1:
        for r in range(cfg.B):
            out[r] = _one_replicate(cfg, norm, n, r)
        return out

    def work(rs):
        for r in rs:
            out[r] = _one_replicate(cfg, norm, n, r)

    chunks = np.array_split(np.arange(cfg.B), workers)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(work, chunk) for chunk in chunks if chunk.size]
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
    if cfg.statistic == "thm3_uniform_entropy" and n <= cfg.m:
        raise UndefinedStatisticError(
            f"normalized entropy statistic undefined for n <= m (n={n}, m={cfg.m})"
        )
    samples = _run_replicates(cfg, norm, n)
    ks = ks_distance_normal(samples)
    sorted_samples = np.sort(samples)
    grid = (np.arange(1, cfg.B + 1) - 0.5) / cfg.B
    qq = np.column_stack([ndtri(grid), sorted_samples])
    return SimRun(samples=samples, ks_distance=ks, qq_pairs=qq, config_echo=cfg)


def coverage_experiment(cfg: SimConfig, level: float) -> float:
    """Fraction of replicates whose plug-in CI covers the true H_a or D_a."""
    cfg.validate()
    if cfg.statistic not in {"thm1_entropy", "thm2_divergence"}:
        raise UsageError("coverage is defined for thm1_entropy and thm2_divergence")
    n = cfg.n()
    covered = 0
    if cfg.statistic == "thm1_entropy":
        p = _family_univariate(cfg)
        true_val = renyi_entropy(p, cfg.alpha)
        for r in range(cfg.B):
            rng = replicate_stream(cfg.master_seed, r)
            c = CountVector(rng.multinomial(n, p.probs))
            ci = entropy_ci(c, cfg.alpha, level)
            covered += ci.lower <= true_val <= ci.upper
    else:
        p, q, joint = _family_bivariate(cfg)
        if joint is not None:
            raise UsageError("coverage for thm2_divergence uses independent samples")
        true_val = float(renyi_divergence(p, q, cfg.alpha))
        for r in range(cfg.B):
            rng = replicate_stream(cfg.master_seed, r)
            cx = CountVector(rng.multinomial(n, p.probs))
            cy = CountVector(rng.multinomial(n, q.probs))
            ci = divergence_ci(cx, cy, cfg.alpha, level)
            covered += ci.lower <= true_val <= ci.upper
    return covered / cfg.B


def bias_experiment(cfg: SimConfig) -> float:
    """Monte Carlo estimate of E S_a(phat)/S_a(p) - 1 (or the divergence analogue).

    Jensen's inequality forces the true value to be <= 0; the estimate should
    sit at or below zero up to Monte Carlo noise.
    """
    cfg.validate()
    if cfg.statistic not in {"thm1_entropy", "thm2_divergence"}:
        raise UsageError("bias is defined for thm1_entropy and thm2_divergence")
    n = cfg.n()
    ratios = np.empty(cfg.B)
    if cfg.statistic == "thm1_entropy":
        p = _family_univariate(cfg)
        s_true = power_sum(p, cfg.alpha)
        for r in range(cfg.B):
            rng = replicate_stream(cfg.master_seed, r)
            counts = rng.multinomial(n, p.probs)
            ratios[r] = _power_sum(counts[counts > 0] / n, cfg.alpha) / s_true
    else:
        p, q, joint = _family_bivariate(cfg)
        if joint is not None:
            raise UsageError("bias for thm2_divergence uses independent samples")
        s_true = float(cross_power_sum(p, q, cfg.alpha))
        for r in range(cfg.B):
            rng = replicate_stream(cfg.master_seed, r)
            phat = rng.multinomial(n, p.probs) / n
            qhat = rng.multinomial(n, q.probs) / n
            ratios[r] = _cross_power_sum(phat, qhat, cfg.alpha) / s_true
    return float(ratios.mean() - 1.0)
