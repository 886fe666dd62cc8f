"""End-to-end diversity analysis: noise filtering, equality testing, quantification.

The sequencing-noise model mixes a signal distribution with up to K uniform
"noise" blocks on separate support. Filtering walks the observed count values
from the lowest up, growing a candidate uniform block and closing it when the
standardized Pearson statistic says the block is no longer one uniform
component. Everything at or below the last absorbed count value is noise;
the rest is signal.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import chi2

from .asymptotics import (
    EstimateWithCI,
    TestReport,
    divergence_ci,
    entropy_ci,
    equality_test,
    hill_ci,
    normal_quantile,
)
from .counts import CountVector, as_count_vector
from .distributions import _sum, check_alpha
from .errors import DomainError, NoSignalError, UsageError


@dataclass(frozen=True)
class NoiseComponent:
    """One fitted uniform block: category indices and the per-category level."""

    categories: np.ndarray
    level: float          # fitted per-category probability, mean count / n
    mean_count: float

    @property
    def size(self) -> int:
        return int(self.categories.size)


@dataclass(frozen=True)
class MixtureDecomposition:
    cutoff_k_m: int
    noise_components: list
    signal_categories: np.ndarray
    noise_fraction: float
    signal_fraction: float
    m_signal: int


@dataclass(frozen=True)
class PipelineConfig:
    alpha: float = 0.5
    ci_level: float = 0.95
    equality_level: float = 0.05
    noise_level: float = 0.01
    max_noise_components: int = 2


@dataclass(frozen=True)
class PipelineReport:
    alpha: float
    decompositions: tuple
    shared_cutoff: int
    m_signal_shared: int
    equality: TestReport
    equality_rejected: bool
    divergence: EstimateWithCI | None
    entropies: tuple
    hill_numbers: tuple
    signal_totals: tuple


def _block_z(counts: np.ndarray) -> float:
    """Standardized Pearson statistic of a candidate uniform block."""
    mb = counts.size
    if mb < 2:
        return -1.0 / math.sqrt(2.0)
    mean = counts.sum() / mb
    x2 = float(((counts - mean) ** 2).sum()) / mean
    return (x2 - mb) / math.sqrt(2.0 * mb)


def filter_noise(c, level: float = 0.01, max_K: int = 2) -> MixtureDecomposition:
    """Sequential lowest-frequency-first noise filtering.

    Count values are scanned ascending. Each value's categories are absorbed
    into the current candidate block, which is then tested for uniformity
    with the standardized Pearson statistic against N(0, 1), one-sided upper
    at significance `level` (overdispersion means the block mixes levels; a
    partially absorbed block is top-truncated and underdispersed by
    construction, so a lower tail would misfire). On rejection the current
    block is closed as a noise component and a new one starts at the
    rejecting value; if rejection hits while the current block still holds a
    single count value, that block cannot be certified uniform and filtering
    stops there, leaving it and everything above as signal. Filtering also
    stops once max_K components are closed. Zero-count categories carry no
    observations and belong to neither side.
    """
    if not (0.0 < level < 1.0):
        raise DomainError("significance level must lie in (0, 1)")
    if max_K < 1:
        raise DomainError("max_K must be >= 1")
    cv = as_count_vector(c)
    counts = cv.counts
    n = cv.n
    order = np.nonzero(counts > 0)[0]
    values = np.unique(counts[order])
    zcrit = normal_quantile(1.0 - level)

    components: list[NoiseComponent] = []
    cur_idx: list[np.ndarray] = []
    cur_values: list[int] = []
    stopped = False

    def close_current():
        idx = np.concatenate(cur_idx)
        block = counts[idx].astype(float)
        mean_count = float(block.mean())
        components.append(
            NoiseComponent(categories=idx, level=mean_count / n, mean_count=mean_count)
        )

    for v in values:
        stratum_idx = order[counts[order] == v]
        cand_counts = counts[np.concatenate(cur_idx + [stratum_idx])].astype(float)
        if _block_z(cand_counts) > zcrit:
            if len(cur_values) <= 1:
                # cannot certify a one-value block as uniform: not noise; stop
                stopped = True
                cur_idx, cur_values = [], []
                break
            close_current()
            cur_idx, cur_values = [stratum_idx], [int(v)]
            if len(components) >= max_K:
                stopped = True
                cur_idx, cur_values = [], []
                break
        else:
            cur_idx.append(stratum_idx)
            cur_values.append(int(v))

    if not stopped and cur_values:
        close_current()

    noise_idx = (
        np.concatenate([comp.categories for comp in components])
        if components else np.array([], dtype=np.int64)
    )
    cutoff = int(counts[noise_idx].max()) if noise_idx.size else 0
    noise_mask = np.zeros(cv.m, dtype=bool)
    noise_mask[noise_idx] = True
    signal_mask = (counts > 0) & ~noise_mask
    signal_categories = np.nonzero(signal_mask)[0]
    noise_total = int(counts[noise_mask].sum())
    return MixtureDecomposition(
        cutoff_k_m=int(cutoff),
        noise_components=components,
        signal_categories=signal_categories,
        noise_fraction=noise_total / n,
        signal_fraction=1.0 - noise_total / n,
        m_signal=int(signal_categories.size),
    )


def diversity_pipeline(cx, cy, alpha: float = 0.5,
                       config: PipelineConfig | None = None) -> PipelineReport:
    """Two-sample diversity analysis over a shared category universe.

    Filters noise in each sample, takes the larger cutoff as shared, keeps
    categories above it in both samples, renormalizes the retained counts as
    full samples of their own totals, tests equality of the signal
    distributions, and quantifies the difference only when equality is
    rejected (otherwise the divergence is reported as identically zero by
    omission).
    """
    cfg = config or PipelineConfig()
    alpha = check_alpha(alpha)
    cvx = as_count_vector(cx)
    cvy = as_count_vector(cy)
    if cvx.m != cvy.m:
        raise UsageError("both samples must live on the same category universe")

    dx = filter_noise(cvx, level=cfg.noise_level, max_K=cfg.max_noise_components)
    dy = filter_noise(cvy, level=cfg.noise_level, max_K=cfg.max_noise_components)
    shared_cutoff = max(dx.cutoff_k_m, dy.cutoff_k_m)

    keep = (cvx.counts > shared_cutoff) & (cvy.counts > shared_cutoff)
    if not keep.any():
        raise NoSignalError("no category exceeds the shared noise cutoff in both samples")
    sx = CountVector(cvx.counts[keep])
    sy = CountVector(cvy.counts[keep])

    eq = equality_test(sx, sy, alpha=alpha, mode="independent")
    rejected = eq.p_value < cfg.equality_level

    divergence = None
    if rejected:
        divergence = divergence_ci(sx, sy, alpha, level=cfg.ci_level)
    entropies = (
        entropy_ci(sx, alpha, level=cfg.ci_level),
        entropy_ci(sy, alpha, level=cfg.ci_level),
    )
    hills = (
        hill_ci(sx, alpha, level=cfg.ci_level),
        hill_ci(sy, alpha, level=cfg.ci_level),
    )
    return PipelineReport(
        alpha=alpha,
        decompositions=(dx, dy),
        shared_cutoff=int(shared_cutoff),
        m_signal_shared=int(keep.sum()),
        equality=eq,
        equality_rejected=bool(rejected),
        divergence=divergence,
        entropies=entropies,
        hill_numbers=hills,
        signal_totals=(sx.n, sy.n),
    )


def homogeneity_test(pairs, alpha: float = 0.5) -> TestReport:
    """Multi-pair equality test: Q = sum of squared pairwise statistics ~ chi^2(k).

    Each pair is tested for equal distributions on its own shared support;
    the standardized statistics are squared and summed, so under the joint
    null Q follows a chi-square with k degrees of freedom. Invariant under
    permutation of the pairs.
    """
    alpha = check_alpha(alpha)
    pairs = list(pairs)
    k = len(pairs)
    if k < 2:
        raise UsageError("need at least 2 pairs")
    zs = []
    n_total = 0
    for cx, cy in pairs:
        rep = equality_test(cx, cy, alpha=alpha, mode="independent")
        zs.append(rep.statistic)
        n_total += rep.n
    q = _sum(z * z for z in zs)
    p = float(chi2.sf(q, df=k))
    return TestReport(
        statistic=q, null_mean=float(k), null_sd=math.sqrt(2.0 * k),
        p_value=p, sidedness="upper", m=k, n=n_total, method="chi2_homogeneity",
    )
