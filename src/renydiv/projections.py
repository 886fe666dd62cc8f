"""Exact moments of the projection variables W and V, and CLT-condition diagnostics.

W takes the value a * p_i^(a-1) with probability p_i; V takes the value
a (q_i/p_i)^(1-a) + (1-a) (p_j/q_j)^a with probability p_ij. Their first two
moments drive every non-degenerate confidence interval in this package:
E W = a * S_a(p), E V = S_a(p, q), and the variances vanish exactly on the
degenerate directions (uniform p for W; p = q for V).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .counts import INT64_MAX
from .distributions import JointDistribution, _sum, as_prob_vector, check_alpha
from .errors import INTEGER, REAL, DomainError, ShapeError, check_number
from .measures import _masked, _power_sum, _prob_pair, cross_power_sum

# Desk-scale advisory thresholds for the asymptotic o(.) conditions: a finite-n
# quotient below 0.1 reads "pass", below 0.5 "marginal", otherwise "fail".
ADVISORY_PASS = 0.1
ADVISORY_MARGINAL = 0.5
# Relative size below which a projection variance counts as zero (the
# degenerate direction), and the rounding slack allowed on a negative one.
_DEGENERATE_REL_TOL = 1e-12


@dataclass(frozen=True)
class ProjectionMoments:
    mean: float
    variance: float
    cv: float

    @property
    def sd(self) -> float:
        return math.sqrt(self.variance)


def _moments(mean: float, second: float) -> ProjectionMoments:
    variance = second - mean * mean
    if variance < 0:
        # exact-zero variance cases land epsilon-negative after rounding
        if variance > -_DEGENERATE_REL_TOL * max(second, 1.0):
            variance = 0.0
        else:
            raise AssertionError("negative variance from moment computation")
    cv = math.sqrt(variance) / abs(mean)
    return ProjectionMoments(mean=mean, variance=variance, cv=cv)


def _degenerate(mom: ProjectionMoments) -> bool:
    """True on a degenerate direction: the variance vanishes relative to mean^2."""
    return mom.variance <= _DEGENERATE_REL_TOL * mom.mean * mom.mean


def _w_moments(s_a: float, s_2a_minus_1: float, alpha: float) -> ProjectionMoments:
    """W moments from the power sums: E W = a S_a, E W^2 = a^2 S_{2a-1}."""
    return _moments(alpha * s_a, alpha * alpha * s_2a_minus_1)


def _v_product_parts(a: np.ndarray, b: np.ndarray, p: np.ndarray, q: np.ndarray,
                     alpha: float, mult=None) -> tuple[float, float, float, float]:
    """E A, E A^2 over weights a and E B, E B^2 over weights b, for
    A_i = a (q_i/p_i)^(1-a) and B_j = (1-a) (p_j/q_j)^a; p and q are positive."""
    va, vb = alpha * (q / p) ** (1.0 - alpha), (1.0 - alpha) * (p / q) ** alpha
    return _sum(a * va, mult), _sum(a * va**2, mult), _sum(b * vb, mult), _sum(b * vb**2, mult)


def _v_moments_independent(p: np.ndarray, q: np.ndarray, alpha: float,
                           mult=None) -> ProjectionMoments:
    """V = A_i + B_j moments for independent marginals, from the A and B sums.

    Off the shared support the weight or the value is 0 and the term
    contributes nothing.
    """
    shared = (p > 0) & (q > 0)
    if not shared.any():
        raise DomainError("no shared support between p and q: V is undefined")
    ps, qs = p[shared], q[shared]
    ea, ea2, eb, eb2 = _v_product_parts(ps, qs, ps, qs, alpha, _masked(mult, shared))
    # E V^2 = E A^2 + 2 E A E B + E B^2 since A and B are independent
    return _moments(ea + eb, ea2 + 2.0 * ea * eb + eb2)


def _v_moments_cells(ii: np.ndarray, jj: np.ndarray, w: np.ndarray, p: np.ndarray,
                     q: np.ndarray, alpha: float, base=(0.0, 0.0)) -> ProjectionMoments:
    """V moments over the cells (ii[k], jj[k]) with masses w[k], marginals p and q,
    plus base = (E V, E V^2) of any mass off the cells.

    A cell with mass forces p[ii] > 0 and q[jj] > 0, so no ratio divides by
    zero; q[ii] = 0 or p[jj] = 0 gives a zero term since 0^e = 0 for e > 0.
    """
    vals = alpha * (q[ii] / p[ii]) ** (1.0 - alpha) + (1.0 - alpha) * (p[jj] / q[jj]) ** alpha
    return _moments(base[0] + _sum(w * vals), base[1] + _sum(w * vals * vals))


def _v_ratio_sum(p: np.ndarray, q: np.ndarray, alpha: float, mult=None) -> float:
    """sum (q_i/p_i)^(1-a) + sum (p_i/q_i)^a, for strictly positive p and q."""
    return _sum((q / p) ** (1.0 - alpha), mult) + _sum((p / q) ** alpha, mult)


def projection_w_moments(p, alpha: float) -> ProjectionMoments:
    """Moments of W: mean a*S_a(p), variance a^2 (sum p^(2a-1) - S_a(p)^2).

    Requires every p_i > 0: W is defined pointwise on the support, and
    silently shrinking the support would change m in the CLT normalizers.
    """
    alpha = check_alpha(alpha)
    probs = as_prob_vector(p).probs
    if np.any(probs <= 0):
        raise DomainError("W is undefined on null support: all p_i must be > 0")
    return _w_moments(_power_sum(probs, alpha), _power_sum(probs, 2.0 * alpha - 1.0), alpha)


def noise_and_signal_w_variance(p0: float, m: int, alpha: float) -> float:
    """Closed-form Var W for the signal-contamination model.

    The model puts mass p0 on one signal point and spreads 1 - p0 uniformly
    over m noise points, so W has a two-point law. p0 = 0 degenerates to the
    pure-noise (uniform) model with Var W = 0. m runs up to the float range, as Var W does.
    """
    alpha = check_alpha(alpha)
    check_number("p0", p0, REAL, 0, 1, closed=False)
    check_number("m", m, INTEGER, 1, sys.float_info.max)
    a = m ** (1.0 - alpha) * (1.0 - p0) ** alpha * math.sqrt(p0 / (1.0 - p0))
    b = p0**alpha * math.sqrt((1.0 - p0) / p0)
    try:
        return alpha * alpha * (a - b) ** 2
    except OverflowError:
        raise DomainError(f"m = {m!r}: Var W at p0 = {p0!r} and alpha = {alpha!r} exceeds "
                          f"the float range") from None


def projection_v_moments(joint: JointDistribution, alpha: float) -> ProjectionMoments:
    """Moments of V from a bivariate distribution, in O(m + cells).

    mean = S_a(p, q) over the marginals; variance = 0 iff p = q.
    The two marginal supports must coincide (support mismatch leaves the
    value a (q_i/p_i)^(1-a) + (1-a) (p_j/q_j)^a undefined).
    """
    alpha = check_alpha(alpha)
    if not isinstance(joint, JointDistribution):
        raise ShapeError("projection_v_moments expects a JointDistribution")
    p, q = joint.row, joint.col
    if not np.array_equal(p > 0, q > 0):
        raise DomainError("marginal supports differ: V is undefined off shared support")
    # V = A_i + B_j, so over the product part lam a_i b_j its moments are O(m)
    # sums; a and b weigh nothing off the support
    a = joint.product_mass * joint.a
    s = p > 0
    ea, ea2, eb, eb2 = _v_product_parts(a[s], joint.b[s], p[s], q[s], alpha)
    sa, sb = _sum(a), _sum(joint.b)
    base = (ea * sb + sa * eb, ea2 * sb + 2.0 * ea * eb + sa * eb2)
    return _v_moments_cells(joint.rows, joint.cols, joint.vals, p, q, alpha, base)


def v_moments_independent(p, q, alpha: float) -> ProjectionMoments:
    """Moments of V for independent marginals, without forming the m x m joint.

    With (i, j) independent, V = A_i + B_j splits into independent pieces
    A_i = a (q_i/p_i)^(1-a) drawn from p and B_j = (1-a) (p_j/q_j)^a drawn
    from q, so the variance is Var A + Var B. Categories where one marginal
    vanishes use the 0^a = 0 convention of the power sums.
    """
    alpha = check_alpha(alpha)
    return _v_moments_independent(*_prob_pair(p, q), alpha)


def bhattacharyya_v_variance(p, q) -> float:
    """Var V at a = 1/2 for independent marginals: 1/2 - (sum sqrt(p_i q_i))^2 / 2."""
    s = cross_power_sum(p, q, 0.5)
    return 0.5 - 0.5 * float(s) ** 2


@dataclass(frozen=True)
class LDReport:
    """Finite-n values of the low-diversity CLT applicability conditions.

    All quantities are diagnostics only; nothing here blocks computation.
    entropy_condition / divergence_condition are the non-degenerate CLT
    quotients (infinite when the projection variance vanishes); the
    degenerate_* fields carry the degenerate-regime replacements (m^2/n for
    the uniform-entropy CLT, and the pointwise-mass condition for the
    degenerate-divergence CLT). Advisory labels use the 0.1 / 0.5 thresholds.
    """

    p_star: float
    ld_ratio: float
    m_over_n: float
    entropy_condition: float
    divergence_condition: float | None
    degenerate_entropy_condition: float
    degenerate_divergence_condition: float | None
    advisories: dict = field(default_factory=dict)


def _quotient(value: float, degenerate: float) -> float:
    """The quotient an advisory label reads: the CLT quotient, or its degenerate-regime
    replacement where the quotient is not finite."""
    return value if math.isfinite(value) else degenerate


def _advisory(value: float, degenerate: float) -> str:
    """The pass, marginal or fail label of the quotient that _quotient reads."""
    value = _quotient(value, degenerate)
    if value < ADVISORY_PASS:
        return "pass"
    if value < ADVISORY_MARGINAL:
        return "marginal"
    return "fail"


def _condition(x: float, mom: ProjectionMoments, n: int) -> float:
    """The non-degenerate CLT quotient x / sqrt(n Var), infinite on a degenerate direction."""
    return math.inf if _degenerate(mom) else x / math.sqrt(n * mom.variance)


def ld_diagnostic(p, q, n: int, alpha: float) -> LDReport:
    """Evaluate the CLT applicability quotients at a concrete (m, n).

    q may be None for the one-sample (entropy) case. Zero-probability
    categories are rejected, not dropped: the conditions normalize by the
    support size and the minimum mass.
    """
    alpha = check_alpha(alpha)
    check_number("n", n, INTEGER, 1, INT64_MAX)
    p, q = (as_prob_vector(p).probs, None) if q is None else _prob_pair(p, q)
    if p.min() <= 0 or q is not None and q.min() <= 0:
        raise DomainError("ld_diagnostic requires strictly positive masses")
    return _ld_report(n, alpha, p, q=q)


def _ld_report(n: int, alpha: float, p: np.ndarray, mult=None, q: np.ndarray | None = None,
               w: ProjectionMoments | None = None, v: ProjectionMoments | None = None) -> LDReport:
    """The one derivation of the LD quotients, at strictly positive masses p (and q), each
    term taken mult times. The W moments w of p, and the V moments v (of independent
    marginals), are computed here unless the caller passes them."""
    m = p.size if mult is None else int(mult.sum())
    p_star = float(p.min()) if q is None else min(float(p.min()), float(q.min()))
    if w is None:
        w = _w_moments(_power_sum(p, alpha, mult), _power_sum(p, 2.0 * alpha - 1.0, mult), alpha)
    entropy_condition = _condition(_power_sum(p, alpha - 1.0, mult), w, n)
    degenerate_entropy_condition = m * m / n
    advisories = {"entropy_clt": _advisory(entropy_condition, degenerate_entropy_condition)}
    divergence_condition = degenerate_divergence_condition = None
    if q is not None:
        v = _v_moments_independent(p, q, alpha, mult) if v is None else v
        divergence_condition = _condition(_v_ratio_sum(p, q, alpha, mult), v, n)
        nm_p2 = n * m * p_star * p_star  # underflows to 0 for p_star below about 1.5e-162
        degenerate_divergence_condition = max(1.0 / nm_p2 if nm_p2 else math.inf,
                                              m / (n * p_star))
        advisories["divergence_clt"] = _advisory(divergence_condition,
                                                 degenerate_divergence_condition)
    return LDReport(
        p_star=p_star,
        ld_ratio=1.0 / (n * p_star),
        m_over_n=m / n,
        entropy_condition=entropy_condition,
        divergence_condition=divergence_condition,
        degenerate_entropy_condition=degenerate_entropy_condition,
        degenerate_divergence_condition=degenerate_divergence_condition,
        advisories=advisories,
    )


def _ld_failures(ld: LDReport) -> list[tuple[str, float]]:
    """(condition, quotient) for each advisory of ld that reads "fail", with the quotient
    its label read."""
    pairs = {"entropy_clt": (ld.entropy_condition, ld.degenerate_entropy_condition),
             "divergence_clt": (ld.divergence_condition, ld.degenerate_divergence_condition)}
    return [(c, _quotient(*pairs[c])) for c, label in ld.advisories.items() if label == "fail"]
