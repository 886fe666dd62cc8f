"""Power sums, Renyi entropy and divergence, Tsallis entropy, Hill numbers.

All sums go through distributions._sum, exactly rounded (the bits of math.fsum;
large arrays get there by Rump-Ogita-Oishi extraction passes and an fsum of the
parts), so results are stable for category counts up to 10^6 with heavy-tailed
magnitudes.
The underscore kernels take plain arrays and validate nothing; the public
functions validate and then call them, and so does the Monte Carlo harness.
Zero-probability categories contribute nothing (0^a = 0 for a > 0); natural
logarithms throughout, entropies in nats.
"""
from __future__ import annotations

import math

import numpy as np

from .distributions import _sum, as_prob_vector, check_alpha
from .errors import ShapeError


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


def _power_sum(x: np.ndarray, e: float) -> float:
    """sum_i x_i^e; x must be positive wherever e <= 0."""
    return _sum(np.power(x, e))


def _cross_power_sum(p: np.ndarray, q: np.ndarray, alpha: float) -> float:
    """sum_i p_i^a q_i^(1-a) over the categories where both are positive."""
    shared = (p > 0) & (q > 0)
    return _sum(np.power(p[shared], alpha) * np.power(q[shared], 1.0 - alpha))


def _pearson_chi_square(counts: np.ndarray, n: int, p: np.ndarray) -> float:
    """X^2 = n * sum (c_i/n - p_i)^2 / p_i."""
    return n * _sum((counts / n - p) ** 2 / p)


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
    pv = as_prob_vector(p)
    qv = as_prob_vector(q)
    if pv.m != qv.m:
        raise ShapeError(f"category counts differ: {pv.m} vs {qv.m}")
    pp, qq = pv.probs, qv.probs
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
    alpha = check_alpha(alpha)
    return math.exp(renyi_entropy(p, alpha))
