"""Power sums, Renyi entropy and divergence, Tsallis entropy, Hill numbers.

All sums go through distributions._sum, exactly rounded (the bits of math.fsum;
large arrays get there by Rump-Ogita-Oishi extraction passes and an fsum of the
parts), so results are stable for category counts up to 10^6 with heavy-tailed
magnitudes.
The underscore kernels take plain arrays and validate nothing; the public
functions validate and then call them, and so does the Monte Carlo harness.
Zero-probability categories contribute nothing (0^a = 0 for a > 0); natural
logarithms throughout, entropies in nats.

Statistics of count vectors evaluate their power sums over the distinct counts
(or distinct count pairs) with the number of categories holding each, via
_distinct and the kernels' mult argument. k distinct positive counts sum to at
least k(k+1)/2, so n reads hold fewer than sqrt(2n) distinct counts: at most
4,690 for n = 1.1e7, against m = 1e6 categories. Every category with the same
count has the same float term, and _sum is exact, so the grouped sum has the
bits of the per-category one.
"""
from __future__ import annotations

import math

import numpy as np

from .counts import INT64_MAX
from .distributions import _sum, as_prob_vector, check_alpha
from .errors import ShapeError

# fewer categories than this are summed one term each: at m = 1000 the sort that
# groups them costs more than the grouped sums save
_GROUP_MIN = 4096


class CrossPowerSum(float):
    """A float carrying a support-mismatch diagnostic.

    p_mass_on_null_support is the total p-mass on categories where q = 0;
    those terms contribute 0 to the sum (the q-exponent 1-alpha dominates)
    but the lost mass is surfaced rather than silently dropped.
    """

    p_mass_on_null_support: float = 0.0

    def __new__(cls, value: float, p_mass_on_null_support: float = 0.0):
        obj = super().__new__(cls, value)
        obj.p_mass_on_null_support = float(p_mass_on_null_support)
        return obj


def _distinct(cx: np.ndarray, cy: np.ndarray | None = None):
    """Group count columns by value: (values, mult), or (x values, y values, mult)
    for a pair, with mult[k] the number of categories holding group k.

    The columns come back as they are, with mult None, below _GROUP_MIN
    categories, when the pair key cx * (max cy + 1) + cy could overflow int64,
    and when the groups number more than a fifth of the categories, where at
    m = 1e6 the sort and the grouped sums already cost about what the
    per-category sums do.
    """
    if cx.size < _GROUP_MIN:
        return (cx, None) if cy is None else (cx, cy, None)
    if cy is None:
        vals, mult = np.unique(cx, return_counts=True)
        return (vals, mult) if 5 * vals.size <= cx.size else (cx, None)
    top = int(cy.max()) + 1
    if (int(cx.max()) + 1) * top <= INT64_MAX:
        keys, mult = np.unique(cx * top + cy, return_counts=True)
        if 5 * keys.size <= cx.size:
            return keys // top, keys % top, mult
    return cx, cy, None


def _masked(mult: np.ndarray | None, mask: np.ndarray) -> np.ndarray | None:
    """The multiplicities of the groups selected by mask."""
    return None if mult is None else mult[mask]


def _count(mask: np.ndarray, mult: np.ndarray | None) -> int:
    """The number of categories in the groups selected by mask."""
    return int(np.count_nonzero(mask)) if mult is None else int(mult[mask].sum())


def _plugin(counts: np.ndarray, n: int, alpha: float):
    """The one plug-in step of a count column, (phat, mult, m_observed, S_a(phat)): the
    masses of the positive counts grouped by _distinct, the number of categories they
    cover, and their power sum."""
    vals, mult = _distinct(counts)
    pos = vals > 0
    phat, kept = vals[pos] / n, _masked(mult, pos)
    return phat, kept, _count(pos, mult), _power_sum(phat, alpha, kept)


def _plugin_pair(cx: np.ndarray, cy: np.ndarray, nx, ny, alpha: float):
    """The one plug-in step of a count pair, (phat, qhat, mult, S_a(phat, qhat)): the
    masses cx / nx and cy / ny grouped by _distinct, and their cross power sum."""
    gx, gy, mult = _distinct(cx, cy)
    phat, qhat = gx / nx, gy / ny
    return phat, qhat, mult, _cross_power_sum(phat, qhat, alpha, mult)


def _prob_pair(p, q) -> tuple[np.ndarray, np.ndarray]:
    """The masses of two probability vectors over one set of categories."""
    pv, qv = as_prob_vector(p), as_prob_vector(q)
    if pv.m != qv.m:
        raise ShapeError(f"category counts differ: {pv.m} vs {qv.m}")
    return pv.probs, qv.probs


def _power_sum(x: np.ndarray, e: float, mult=None) -> float:
    """sum_i x_i^e, term i taken mult[i] times; x must be positive wherever e <= 0."""
    return _sum(np.power(x, e), mult)


def _cross_power_sum(p: np.ndarray, q: np.ndarray, alpha: float, mult=None) -> float:
    """sum_i p_i^a q_i^(1-a) over the categories where both are positive."""
    shared = (p > 0) & (q > 0)
    return _sum(np.power(p[shared], alpha) * np.power(q[shared], 1.0 - alpha),
                _masked(mult, shared))


def _pearson_chi_square(counts: np.ndarray, n: int, p, mult=None) -> float:
    """X^2 = n * sum (c_i/n - p_i)^2 / p_i; p is an array or one shared float."""
    return n * _sum((counts / n - p) ** 2 / p, mult)


def _two_sample_chi_square(cx: np.ndarray, cy: np.ndarray, n: int, p: np.ndarray) -> float:
    """X^2_{2p} = n * sum (cx_i/n - cy_i/n)^2 / (2 p_i)."""
    return n * _sum((cx / n - cy / n) ** 2 / (2.0 * p))


def power_sum(p, alpha: float) -> float:
    """S_a(p) = sum_i p_i^a with the convention 0^a = 0.

    For 0 < a < 1 the value is >= 1, with equality iff p is degenerate
    at a single category.
    """
    alpha = check_alpha(alpha)
    probs = as_prob_vector(p).probs
    return _power_sum(probs[probs > 0], alpha)


def cross_power_sum(p, q, alpha: float) -> CrossPowerSum:
    """S_a(p, q) = sum_i p_i^a q_i^(1-a); equals 1 iff p = q.

    Categories with p_i = q_i = 0 are dropped. p_i > 0 with q_i = 0
    contributes 0; the affected p-mass is recorded on the result.
    Symmetric in (p, q) at a = 1/2 (the Bhattacharyya coefficient).
    """
    alpha = check_alpha(alpha)
    pp, qq = _prob_pair(p, q)
    lost = _sum(pp[(pp > 0) & (qq == 0)])
    return CrossPowerSum(_cross_power_sum(pp, qq, alpha), p_mass_on_null_support=lost)


def renyi_entropy(p, alpha: float) -> float:
    """H_a(p) = (1-a)^(-1) log S_a(p), in [0, log m] (nats)."""
    alpha = check_alpha(alpha)
    return math.log(power_sum(p, alpha)) / (1.0 - alpha)


def renyi_divergence(p, q, alpha: float) -> CrossPowerSum:
    """D_a(p, q) = (a-1)^(-1) log S_a(p, q); non-negative, 0 iff p = q.

    The result carries the same p_mass_on_null_support diagnostic as
    cross_power_sum.
    """
    alpha = check_alpha(alpha)
    s = cross_power_sum(p, q, alpha)
    value = math.log(s) / (alpha - 1.0)
    return CrossPowerSum(value, p_mass_on_null_support=s.p_mass_on_null_support)


def tsallis_entropy(p, alpha: float) -> float:
    """T_a(p) = (1-a)^(-1) (S_a(p) - 1), the linearization of H_a."""
    alpha = check_alpha(alpha)
    return (power_sum(p, alpha) - 1.0) / (1.0 - alpha)


def hill_number(p, alpha: float) -> float:
    """Effective number of classes: S_a(p)^(1/(1-a)) = exp(H_a(p)), in [1, m]."""
    return math.exp(renyi_entropy(p, alpha))
