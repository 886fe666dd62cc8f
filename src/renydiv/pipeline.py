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

from ._special import chdtrc
from .asymptotics import (
    EstimateWithCI,
    TestReport,
    _exp_ci,
    _z_level,
    divergence_ci,
    entropy_ci,
    equality_test,
    lemma2i_standardize,
)
from .counts import CountVector, as_count_vector
from .distributions import _sum, check_alpha
from .errors import INTEGER, REAL, NoSignalError, UsageError, check_number


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


def filter_noise(c, level: float = 0.01, max_K: int = 2) -> MixtureDecomposition:
    """Sequential lowest-frequency-first noise filtering.

    Count values are scanned ascending. Each value's categories are absorbed
    into the current candidate block, which is then tested for uniformity
    with Lemma 2(i)'s standardized Pearson statistic (X^2 - mb) / sqrt(2 mb),
    lemma2i_standardize as in uniformity_test(method="lemma2i"), against
    N(0, 1), one-sided upper at significance `level` (overdispersion means
    the block mixes levels; a partially absorbed block is top-truncated and
    underdispersed by construction, so a lower tail would misfire). On
    rejection the current block is closed as a noise component and a new
    one starts at the rejecting value; if rejection hits while the current
    block still holds a single count value, that block cannot be certified
    uniform and filtering stops there, leaving it and everything above as
    signal. Filtering also stops once max_K components are closed.
    Zero-count categories carry no observations and belong to neither side.

    The strata are the distinct positive counts and their multiplicities,
    so each candidate's statistic comes in O(1) from exact integer sums of c
    and c^2. Only the noise needs category order: one stable sort of a small
    unsigned key, each count capped at the first signal value less 1 (a zero
    wraps past them all), lists the noise first, ascending, ties by category
    index; only that prefix is kept, and every component is a slice of it.
    """
    zcrit = _z_level(level, two_sided=False)
    check_number("max_K", max_K, INTEGER, 1, math.inf)
    cv = as_count_vector(c)
    counts = cv.counts
    n = cv.n
    distinct, mult = np.unique(counts, return_counts=True)
    skip = int(distinct[0] == 0)  # zero counts form no stratum
    # values: the distinct positive counts; size[j]: categories below the j-th of them
    values = distinct[skip:].tolist()
    size = [0, *np.cumsum(mult[skip:]).tolist()]

    blocks: list[tuple[int, int, int]] = []  # closed components: strata [a, b) and their sum of c
    a = s = q = 0  # the open block starts at stratum a and has sums s of c, q of c^2
    for j, v in enumerate(values):
        k = size[j + 1] - size[j]
        mb, s_j, q_j = size[j + 1] - size[a], s + k * v, q + k * v * v
        x2 = (mb * q_j - s_j * s_j) / s_j  # sum (c - mean)^2 / mean, exactly
        if lemma2i_standardize(x2, mb) <= zcrit:
            s, q = s_j, q_j
            continue
        if j - a <= 1:
            break  # cannot certify a one-value block as uniform: not noise; stop
        blocks.append((a, j, s))
        a, s, q = j, k * v, k * v * v
        if len(blocks) >= max_K:
            break
    else:
        blocks.append((a, len(values), s))

    stop = blocks[-1][1] if blocks else 0  # strata below stop are noise
    cutoff = values[stop - 1] if stop else 0
    # every signal count keyed as the first value above the cutoff, less 1 so that a zero
    # wraps past every count: the stable sort (radix for a key of up to 16 bits) puts
    # stratum j of the noise at order[size[j]:size[j + 1]], ties by category index
    top = values[stop] if stop < len(values) else cutoff
    key = np.minimum(counts, top).astype(np.min_scalar_type(top))
    key -= 1
    order = np.argsort(key, kind="stable")
    order.resize(size[stop], refcheck=False)  # fresh, unviewed; a tracer's locals fail refcheck
    components = []
    for lo, hi, total in blocks:
        mean_count = total / (size[hi] - size[lo])
        components.append(NoiseComponent(categories=order[size[lo]:size[hi]],
                                          level=mean_count / n, mean_count=mean_count))
    noise_total = sum(total for _, _, total in blocks)
    signal_categories = np.flatnonzero(counts > cutoff)
    return MixtureDecomposition(
        cutoff_k_m=cutoff,
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
    check_number("equality_level", cfg.equality_level, REAL, 0, 1, closed=False)
    _z_level(cfg.ci_level)
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
    sx, sy = cvx.counts[keep], cvy.counts[keep]
    sx.setflags(write=False)  # read-only owners, which each CountVector shares, not copies
    sy.setflags(write=False)
    sx, sy = CountVector(sx), CountVector(sy)

    eq = equality_test(sx, sy, alpha=alpha, mode="independent")
    rejected = eq.p_value < cfg.equality_level

    divergence = None
    if rejected:
        divergence = divergence_ci(sx, sy, alpha, level=cfg.ci_level)
    entropies = (
        entropy_ci(sx, alpha, level=cfg.ci_level),
        entropy_ci(sy, alpha, level=cfg.ci_level),
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
        hill_numbers=tuple(_exp_ci(h) for h in entropies),
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
    p = float(chdtrc(k, q))
    return TestReport(
        statistic=q, null_mean=float(k), null_sd=math.sqrt(2.0 * k),
        p_value=p, sidedness="upper", m=k, n=n_total, method="chi2_homogeneity",
    )
