"""CLT-based confidence intervals, chi-square statistics, and hypothesis tests.

Non-degenerate regime: the plug-in entropy/divergence are asymptotically
normal with scale CV(W)/sqrt(n) resp. CV(V)/sqrt(n); the coefficients of
variation are evaluated at the plug-in distributions (the population values
are unknown in practice; estimation noise is second order and the attached
low-diversity advisory flags questionable regimes).

Degenerate regime (uniform p, or p = q): the linear term of the expansion
vanishes and the statistics are driven by chi-square-type quadratic forms,
standardized by (mu_n, sqrt(2) gamma_n).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .counts import CountVector, JointCountTable, as_count_vector
from .distributions import JointDistribution, _sum, as_prob_vector, check_alpha
from .errors import (
    DegenerateStatisticError,
    DomainError,
    ShapeError,
    UndefinedStatisticError,
    UsageError,
)
from .measures import _cross_power_sum, _pearson_chi_square, _power_sum, _two_sample_chi_square
from .projections import (LDReport, _degenerate, _ld_report, _v_moments_cells,
                          _v_moments_independent, _v_ratio_sum, _w_moments)

MARGINAL_EQUALITY_TOL = 1e-9
# draws of a thinned sample before an all-empty result raises
_THINNING_DRAWS = 100


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def normal_quantile(u: float) -> float:
    """Inverse standard normal CDF (scipy.special.ndtri) on (0, 1)."""
    if not (0.0 < u < 1.0):
        raise DomainError("quantile level must lie strictly between 0 and 1")
    return float(ndtri(u))


@dataclass(frozen=True)
class EstimateWithCI:
    estimate: float
    level: float
    lower: float
    upper: float
    std_error: float
    n: int
    m: int
    method: str
    ld: LDReport | None = None


@dataclass(frozen=True)
class TestReport:
    statistic: float
    null_mean: float
    null_sd: float
    p_value: float
    sidedness: str
    m: int
    n: int
    method: str


def _p_value(z: float, sidedness: str) -> float:
    if sidedness == "upper":
        return normal_cdf(-z)
    if sidedness == "two-sided":
        return 2.0 * normal_cdf(-abs(z))
    raise UsageError(f"unknown sidedness {sidedness!r}")


def pearson_chi_square(c, p) -> float:
    """X^2 = n * sum (phat_i - p_i)^2 / p_i against a fully specified p > 0."""
    cv = as_count_vector(c)
    pv = as_prob_vector(p)
    if pv.m != cv.m:
        raise ShapeError(f"count/probability sizes differ: {cv.m} vs {pv.m}")
    if np.any(pv.probs <= 0):
        raise DomainError("Pearson statistic requires strictly positive p_i")
    return _pearson_chi_square(cv.counts, cv.n, pv.probs)


def two_sample_chi_square(joint: JointCountTable, p) -> float:
    """X^2_{2p} = n * sum (phat_i - qhat_i)^2 / (2 p_i) from a bivariate table.

    The weights r_i = 2 p_i correspond to the equal-marginal null.
    """
    if not isinstance(joint, JointCountTable):
        raise ShapeError("two_sample_chi_square expects a JointCountTable")
    pv = as_prob_vector(p)
    if pv.m != joint.m:
        raise ShapeError(f"joint/probability sizes differ: {joint.m} vs {pv.m}")
    if np.any(pv.probs <= 0):
        raise DomainError("two-sample statistic requires strictly positive p_i")
    return _two_sample_chi_square(joint.row_counts(), joint.col_counts(), joint.n, pv.probs)


def _null_params(b: np.ndarray, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                 marg: np.ndarray) -> tuple[float, float]:
    """mu_n and gamma_n^2 of an equal-marginal joint s_ij = b_i b_j + v_ij, in O(m + cells).

    v is listed on its cells (rows, cols, vals), each cell at most once and
    diagonal cells allowed; the marginal `marg` is given explicitly. With
    x_i = b_i^2 / marg_i the off-diagonal part of gamma_n^2 expands to
    (sum x)^2 - sum x^2 + sum over the off-diagonal cells of
    [2 b_i b_j v_ij + (v_ij^2 + v_ij v_ji) / 2] / (marg_i marg_j),
    where v_ji is the cell's transpose partner (0 when unlisted). Diagonal
    cells enter only through s_ii, so no sum of diagonal terms is added and
    then subtracted again.
    """
    m = marg.size
    on_diag = rows == cols
    s_ii = b * b + np.bincount(rows[on_diag], vals[on_diag], minlength=m)
    mu = _sum(1.0 - s_ii / marg)
    t1 = _sum(((marg - s_ii) / marg) ** 2)
    x = b * b / marg
    off = ~on_diag
    rows, cols, vals = rows[off], cols[off], vals[off]
    # each cell's transpose partner, looked up among the cells sorted by key
    keys = rows * m + cols
    order = np.argsort(keys)
    keys = keys[order]
    partner_keys = cols * m + rows
    at = np.minimum(np.searchsorted(keys, partner_keys), max(keys.size - 1, 0))
    partner = np.where(keys[at] == partner_keys, vals[order][at], 0.0)
    mm = marg[rows] * marg[cols]
    cells = _sum(b[rows] * b[cols] * vals / mm)
    pairs = _sum((vals * vals + vals * partner) / mm)
    return mu, t1 + (_sum(x) ** 2 - _sum(x * x)) + 2.0 * cells + 0.5 * pairs


def chi_square_null_params(joint: JointDistribution) -> tuple[float, float]:
    """(mu_n, gamma_n^2) for the two-sample statistic under equal marginals.

    mu_n = sum_i (1 - p_ii / p_i);
    gamma_n^2 = sum_i (p_i - p_ii)^2 / p_i^2
              + sum_{i != j} (p_ij + p_ji)^2 / (4 p_i p_j).
    For an independent product joint both equal m - 1 exactly.
    """
    if not isinstance(joint, JointDistribution):
        raise ShapeError("chi_square_null_params expects a JointDistribution")
    p, q = joint.row, joint.col
    if np.max(np.abs(p - q)) > MARGINAL_EQUALITY_TOL:
        raise DomainError(
            "marginals differ beyond tolerance: the null parameters assume p_i = q_i"
        )
    if np.any(p <= 0):
        raise DomainError("null parameters require strictly positive marginals")
    rows, cols = np.nonzero(joint.pij)
    return _null_params(np.zeros(joint.m), rows, cols, joint.pij[rows, cols], p)


def entropy_ci(c, alpha: float, level: float = 0.95) -> EstimateWithCI:
    """Plug-in Renyi entropy with the non-degenerate CLT interval.

    std_error = CV(W at phat) * alpha / ((1 - alpha) sqrt(n)). Degenerate
    (empirically uniform) counts have CV = 0 and no usable interval here;
    that direction belongs to uniformity_test.
    """
    alpha = check_alpha(alpha)
    if not (0.0 < level < 1.0):
        raise DomainError("confidence level must lie in (0, 1)")
    cv = as_count_vector(c)
    if cv.n < 2:
        raise DomainError("need n >= 2 observations")
    if cv.m_observed < 2:
        raise DegenerateStatisticError(
            "all mass in one category: entropy estimate is 0 and its CLT variance "
            "is undefined; nothing to test in the non-degenerate regime"
        )
    phat = cv.counts[cv.observed] / cv.n
    s_a = _power_sum(phat, alpha)
    w = _w_moments(s_a, _power_sum(phat, 2.0 * alpha - 1.0), alpha)
    if _degenerate(w):
        raise DegenerateStatisticError(
            "empirically uniform counts: CV(W) = 0, the entropy CLT is degenerate; "
            "use uniformity_test instead"
        )
    est = math.log(s_a) / (1.0 - alpha)
    se = w.cv * alpha / ((1.0 - alpha) * math.sqrt(cv.n))
    z = normal_quantile(0.5 + level / 2.0)
    ld = _ld_report(phat.size, cv.n, float(phat.min()), w, _power_sum(phat, alpha - 1.0))
    return EstimateWithCI(
        estimate=est, level=level, lower=est - z * se, upper=est + z * se,
        std_error=se, n=cv.n, m=phat.size, method="thm1", ld=ld,
    )


def hill_ci(c, alpha: float, level: float = 0.95) -> EstimateWithCI:
    """Effective-number-of-classes interval: exp-transform of the entropy CI."""
    h = entropy_ci(c, alpha, level)
    enc = math.exp(h.estimate)
    return EstimateWithCI(
        estimate=enc, level=level,
        lower=math.exp(h.lower), upper=math.exp(h.upper),
        std_error=enc * h.std_error, n=h.n, m=h.m, method="thm1", ld=h.ld,
    )


def _effective_n(n1: int, n2: int) -> float:
    # harmonic-mean effective size; equals n when totals match (the theorem's
    # setting samples one bivariate array, so equal totals are the base case)
    return 2.0 * n1 * n2 / (n1 + n2)


def divergence_ci(cx, cy, alpha: float, level: float = 0.95,
                  joint: JointCountTable | None = None) -> EstimateWithCI:
    """Plug-in Renyi divergence with the non-degenerate CLT interval.

    std_error = CV(V at plug-in) / ((1 - alpha) sqrt(n)). Without a joint
    table the two samples are treated as independent (product plug-in joint);
    with one, V's moments use the observed joint cells. Empirically identical
    marginals give CV(V) = 0: that direction belongs to equality_test.
    """
    alpha = check_alpha(alpha)
    if not (0.0 < level < 1.0):
        raise DomainError("confidence level must lie in (0, 1)")
    if joint is not None:
        cvx, cvy = joint.marginal_count_vectors()
        n_eff = float(joint.n)
    else:
        cvx = as_count_vector(cx)
        cvy = as_count_vector(cy)
        if cvx.m != cvy.m:
            raise ShapeError(f"category counts differ: {cvx.m} vs {cvy.m}")
        n_eff = _effective_n(cvx.n, cvy.n)
    phat = cvx.counts / cvx.n
    qhat = cvy.counts / cvy.n
    shared = (phat > 0) & (qhat > 0)
    if not shared.any():
        raise DomainError("no shared support between the two samples")
    est = math.log(_cross_power_sum(phat, qhat, alpha)) / (alpha - 1.0)
    if joint is None:
        v = _v_moments_independent(phat, qhat, alpha)
    else:
        v = _v_moments_cells(joint.rows, joint.cols, joint.counts / joint.n, phat, qhat, alpha)
    if _degenerate(v):
        raise DegenerateStatisticError(
            "empirically identical marginals: CV(V) = 0, the divergence CLT is "
            "degenerate; use equality_test instead"
        )
    se = v.cv / ((1.0 - alpha) * math.sqrt(n_eff))
    z = normal_quantile(0.5 + level / 2.0)
    union = (phat > 0) | (qhat > 0)
    ld = None
    # the LD conditions need strictly positive masses on the whole universe
    if shared.all():
        w = _w_moments(_power_sum(phat, alpha), _power_sum(phat, 2.0 * alpha - 1.0), alpha)
        ld = _ld_report(
            phat.size, int(round(n_eff)), min(float(phat.min()), float(qhat.min())), w,
            _power_sum(phat, alpha - 1.0), v, _v_ratio_sum(phat, qhat, alpha),
        )
    return EstimateWithCI(
        estimate=est, level=level, lower=est - z * se,
        upper=est + z * se, std_error=se,
        n=int(round(n_eff)), m=int(union.sum()), method="thm2", ld=ld,
    )


def generalized_binomial(a: float, k: int) -> float:
    """binom(a, k) = a (a-1) ... (a-k+1) / k! for real a."""
    out = 1.0
    for i in range(k):
        out *= (a - i) / (i + 1)
    return out


def lemma2i_standardize(x2: float, m: int) -> float:
    """Lemma 2(i): the Pearson statistic standardized as (X^2 - m) / sqrt(2m)."""
    return (x2 - m) / math.sqrt(2.0 * m)


def thm3_normalizers(m: int, n: int, alpha: float) -> tuple[float, float]:
    """Theorem 3 centre log m + (1-a)^(-1) log(1 + binom(a,2) m/n) and scale a sqrt(m/2)."""
    coef = generalized_binomial(alpha, 2)
    center = math.log(m) + math.log1p(coef * m / n) / (1.0 - alpha)
    return center, alpha * math.sqrt(m / 2.0)


def uniformity_test(c, alpha: float, method: str = "thm3") -> TestReport:
    """Test whether counts come from the uniform distribution on their m categories.

    method="thm3": the degenerate entropy CLT statistic
        n [H_a(uhat) - log m - (1-a)^(-1) log(1 + binom(a,2) m/n)] / (a sqrt(m/2)),
    undefined when n <= m.
    method="lemma2i": the standardized Pearson statistic (X^2_u - m) / sqrt(2m).
    Two-sided p-value against N(0, 1) either way.
    """
    alpha = check_alpha(alpha)
    cv = as_count_vector(c)
    n, m = cv.n, cv.m
    if n < 2 or m < 2:
        raise DomainError("need n >= 2 and m >= 2")
    if method == "lemma2i":
        x2 = _pearson_chi_square(cv.counts, n, np.full(m, 1.0 / m))
        z = lemma2i_standardize(x2, m)
        return TestReport(
            statistic=z, null_mean=float(m), null_sd=math.sqrt(2.0 * m),
            p_value=_p_value(z, "two-sided"), sidedness="two-sided",
            m=m, n=n, method="lemma2i",
        )
    if method == "thm3":
        if n <= m:
            raise UndefinedStatisticError(
                f"normalized entropy statistic undefined for n <= m (n={n}, m={m})"
            )
        center, sd = thm3_normalizers(m, n, alpha)
        h_hat = math.log(_power_sum(cv.counts[cv.observed] / n, alpha)) / (1.0 - alpha)
        z = n * (h_hat - center) / sd
        return TestReport(
            statistic=z, null_mean=n * center, null_sd=sd,
            p_value=_p_value(z, "two-sided"), sidedness="two-sided",
            m=m, n=n, method="thm3",
        )
    raise UsageError(f"unknown uniformity method {method!r}")


def _shrunken_joint_null_params(joint: JointCountTable, alpha: float) -> tuple[float, float]:
    """Paired-mode (mu_n, gamma_n^2): plug-in joint shrunk toward independence.

    Each observed cell is shrunk toward the product of the pooled marginals
    with weight 1/(1 + n_ij); unobserved cells take the product value. The
    pooled marginal r = (phat + qhat)/2 stands in for the common marginal the
    population formulas assume.
    """
    n = joint.n
    phat = joint.row_counts() / n
    qhat = joint.col_counts() / n
    r = 0.5 * (phat + qhat)
    keep = r > 0
    pos = np.cumsum(keep) - 1  # category -> index among the kept ones
    rm = r[keep]
    ii, jj = pos[joint.rows], pos[joint.cols]
    c = joint.counts
    # cell minus product: (1 - w)(n_ij/n - r_i r_j) with w = 1/(1 + n_ij)
    delta = c / (1.0 + c) * (c / n - rm[ii] * rm[jj])
    total = _sum(rm) ** 2 + _sum(delta)
    b = rm / math.sqrt(total)
    v = delta / total
    marg = b * _sum(b) + 0.5 * (np.bincount(ii, v, minlength=rm.size)
                                + np.bincount(jj, v, minlength=rm.size))
    return _null_params(b, ii, jj, v, marg)


def equality_test(cx=None, cy=None, alpha: float = 0.5, mode: str = "independent",
                  joint: JointCountTable | None = None) -> TestReport:
    """Degenerate-divergence test of H0: p = q.

    Statistic: [n (a(a-1))^(-1) (S_a(phat, qhat) - 1) - mu_n] / (sqrt(2) gamma_n),
    one-sided upper (the numerator's leading term is non-negative by Holder,
    so only upward deviations indicate p != q).

    mode="independent": two separate samples, mu_n = gamma_n^2 = m - 1 with m
    the union support size. mode="paired": a bivariate table, (mu_n, gamma_n^2)
    estimated from the smoothed plug-in joint.
    """
    alpha = check_alpha(alpha)
    if mode == "paired":
        if joint is None:
            raise UsageError("paired mode requires joint counts")
        cvx, cvy = joint.marginal_count_vectors()
        n_eff = float(joint.n)
        mu, gamma_sq = _shrunken_joint_null_params(joint, alpha)
        union = (cvx.counts > 0) | (cvy.counts > 0)
        m_union = int(union.sum())
    elif mode == "independent":
        if cx is None or cy is None:
            raise UsageError("independent mode requires two count vectors")
        cvx = as_count_vector(cx)
        cvy = as_count_vector(cy)
        if cvx.m != cvy.m:
            raise ShapeError(f"category counts differ: {cvx.m} vs {cvy.m}")
        union = (cvx.counts > 0) | (cvy.counts > 0)
        m_union = int(union.sum())
        n_eff = _effective_n(cvx.n, cvy.n)
        mu = gamma_sq = float(max(m_union - 1, 0))
    else:
        raise UsageError(f"unknown mode {mode!r}")
    if m_union < 2:
        raise DomainError("need at least 2 observed categories")
    s = _cross_power_sum(cvx.counts / cvx.n, cvy.counts / cvy.n, alpha)
    gamma = math.sqrt(gamma_sq)
    z = (n_eff / (alpha * (alpha - 1.0)) * (s - 1.0) - mu) / (math.sqrt(2.0) * gamma)
    return TestReport(
        statistic=z, null_mean=mu, null_sd=math.sqrt(2.0) * gamma,
        p_value=_p_value(z, "upper"), sidedness="upper",
        m=m_union, n=int(round(n_eff)), method="thm4",
    )


def _thinned(rng: np.random.Generator, counts, tau: float):
    """The one thinning rule: Binomial(counts, tau) for per-category counts or a
    total, redrawn while empty (conditioning on a non-empty sample), but raise
    after _THINNING_DRAWS empty draws."""
    for _ in range(_THINNING_DRAWS):
        kept = rng.binomial(counts, tau)
        if np.sum(kept) >= 1:
            return kept
    raise DomainError(
        f"thinning n = {int(np.sum(counts))} observations with tau = {tau} kept none "
        f"in {_THINNING_DRAWS} draws"
    )


def binomial_thinning(c, tau: float, seed) -> CountVector:
    """Retain each of the n observations independently with probability tau.

    The returned total is Binomial(n, tau)-distributed, conditioned on at
    least one kept observation; per-category totals are Binomial(c_i, tau),
    which realizes exactly the same thinning. An empty draw is redrawn;
    after 100 empty draws DomainError names n and tau. The stream is
    consumed from `seed` (an int or a numpy Generator), so results are
    reproducible; do not share one Generator across threads.
    """
    tau = float(tau)
    if not (0.0 < tau < 1.0):
        raise DomainError("tau must lie strictly between 0 and 1")
    cv = as_count_vector(c)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return CountVector(_thinned(rng, cv.counts, tau))
