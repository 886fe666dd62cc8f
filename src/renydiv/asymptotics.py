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

from ._special import ndtr, ndtri
from .counts import CountVector, JointCountTable, _cell_keys, as_count_vector
from .distributions import JointDistribution, _sum, as_prob_vector, check_alpha
from .errors import (REAL, DegenerateStatisticError, DomainError, ShapeError,
                     UndefinedStatisticError, UsageError, check_number)
from .measures import (_count, _distinct, _pearson_chi_square, _plugin, _plugin_pair,
                       _power_sum, _two_sample_chi_square)
from .projections import (LDReport, _degenerate, _ld_report, _v_moments_cells,
                          _v_moments_independent, _w_moments)

MARGINAL_EQUALITY_TOL = 1e-9
# draws of a thinned sample before an all-empty result raises
_THINNING_DRAWS = 100


def normal_quantile(u: float) -> float:
    """Inverse standard normal CDF (scipy.special.ndtri) on (0, 1)."""
    return float(ndtri(check_number("u", u, REAL, 0, 1, closed=False)))


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


def _null_params(a: np.ndarray, b: np.ndarray, diag: np.ndarray, rows: np.ndarray,
                 cols: np.ndarray, vals: np.ndarray, marg: np.ndarray) -> tuple[float, float]:
    """mu_n and gamma_n^2 of an equal-marginal joint s_ij = a_i b_j + v_ij, in O(m + cells).

    v is given as its diagonal `diag` (an m-vector) and its off-diagonal cells
    (rows, cols, vals) in row-major order, each at most once (_split_diagonal);
    the marginal `marg` is given explicitly. With x = a^2 / marg, y = b^2 / marg
    and z = a b / marg, the product part's off-diagonal sum of
    (a_i b_j + a_j b_i)^2 / (4 marg_i marg_j) is [sum x sum y + (sum z)^2 - 2 sum x y] / 2,
    which is (sum x)^2 - sum x^2 when b is a. The rest of gamma_n^2 sums over the
    off-diagonal cells [(a_i b_j + a_j b_i) v_ij + (v_ij^2 + v_ij v_ji) / 2] / (marg_i marg_j),
    where v_ji is the cell's transpose partner (0 when unlisted). Diagonal cells
    enter only through s_ii, so no sum of diagonal terms is added and then
    subtracted again. Each cell-sized array is updated in place and dropped once read.
    """
    m = marg.size
    s_ii = a * b + diag
    mu = _sum(1.0 - s_ii / marg)
    t1 = _sum(((marg - s_ii) / marg) ** 2)
    x = a * a / marg
    if b is a:  # one factor: (sum x)^2 itself, since a float's ** 2 and x * x can differ
        product = _sum(x) ** 2 - _sum(x * x)
    else:
        y, z = b * b / marg, a * b / marg
        product = 0.5 * (_sum(x) * _sum(y) + _sum(z) ** 2) - _sum(x * y)
    # partner[k]: the value of cell k's transpose, 0 when unlisted. The cells are in
    # row-major order, so a stable sort by column lists their transposed keys ascending
    # (a radix sort for m <= 65536), and one searchsorted of them finds each in the keys.
    keys = _cell_keys(rows, cols, m)
    of = np.argsort(cols.astype(np.min_scalar_type(m - 1)), kind="stable")
    needles = _cell_keys(cols[of], rows[of], m)
    at = np.searchsorted(keys, needles)
    np.minimum(at, keys.size - 1, out=at)
    hit = keys[at] == needles
    del keys, needles
    partner = np.zeros(vals.size)
    partner[of[hit]] = vals[at[hit]]
    del of, at, hit
    mm = marg[rows]
    mm *= marg[cols]
    terms = vals * vals  # (v_ij^2 + v_ij v_ji) / mm
    partner *= vals
    terms += partner
    del partner
    terms /= mm
    pairs = _sum(terms)
    np.multiply(a[rows], b[cols], out=terms)  # ((a_i b_j + a_j b_i) v_ij) / mm
    ab = a[cols]
    ab *= b[rows]
    terms += ab
    del ab
    terms *= vals
    terms /= mm
    del mm
    cells = _sum(terms)
    return mu, t1 + product + cells + 0.5 * pairs


def _split_diagonal(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                    m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(diag, rows, cols, vals): the cells' diagonal as an m-vector, and their
    off-diagonal cells as new arrays in the same order."""
    on = rows == cols
    diag = np.bincount(rows[on], vals[on], minlength=m)
    off = np.logical_not(on, out=on)
    return diag, rows[off], cols[off], vals[off]


def chi_square_null_params(joint: JointDistribution) -> tuple[float, float]:
    """(mu_n, gamma_n^2) for the two-sample statistic under equal marginals.

    mu_n = sum_i (1 - p_ii / p_i);
    gamma_n^2 = sum_i (p_i - p_ii)^2 / p_i^2
              + sum_{i != j} (p_ij + p_ji)^2 / (4 p_i p_j).
    For an independent product joint both equal m - 1 up to rounding. The
    cost is O(m + cells): the joint's product part enters through O(m) sums.
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
    return _null_params(joint.product_mass * joint.a, joint.b,
                        *_split_diagonal(joint.rows, joint.cols, joint.vals, p.size), p)


def entropy_ci(c, alpha: float, level: float = 0.95) -> EstimateWithCI:
    """Plug-in Renyi entropy with the non-degenerate CLT interval.

    std_error = CV(W at phat) * alpha / ((1 - alpha) sqrt(n)). Degenerate
    (empirically uniform) counts have CV = 0 and no usable interval here;
    that direction belongs to uniformity_test.
    """
    alpha = check_alpha(alpha)
    z = _z_level(level)
    cv = as_count_vector(c)
    if cv.n < 2:
        raise DomainError("need n >= 2 observations")
    phat, mult, m, s_a = _plugin(cv.counts, cv.n, alpha)
    if m < 2:
        raise DegenerateStatisticError(
            "all mass in one category: entropy estimate is 0 and its CLT variance "
            "is undefined; nothing to test in the non-degenerate regime"
        )
    w = _w_moments(s_a, _power_sum(phat, 2.0 * alpha - 1.0, mult), alpha)
    if _degenerate(w):
        raise DegenerateStatisticError(
            "empirically uniform counts: CV(W) = 0, the entropy CLT is degenerate; "
            "use uniformity_test instead"
        )
    est = math.log(s_a) / (1.0 - alpha)
    se = w.cv * alpha / ((1.0 - alpha) * math.sqrt(cv.n))
    ld = _ld_report(cv.n, alpha, phat, mult, w=w)
    return EstimateWithCI(
        estimate=est, level=level, lower=est - z * se, upper=est + z * se,
        std_error=se, n=cv.n, m=m, method="thm1", ld=ld,
    )


def hill_ci(c, alpha: float, level: float = 0.95) -> EstimateWithCI:
    """Effective-number-of-classes interval: exp-transform of the entropy CI."""
    return _exp_ci(entropy_ci(c, alpha, level))


def _exp_ci(h: EstimateWithCI) -> EstimateWithCI:
    """The Hill-number interval of an entropy interval h."""
    enc = math.exp(h.estimate)
    return EstimateWithCI(
        estimate=enc, level=h.level,
        lower=math.exp(h.lower), upper=math.exp(h.upper),
        std_error=enc * h.std_error, n=h.n, m=h.m, method="thm1", ld=h.ld,
    )


def _z_level(level: float, two_sided: bool = True) -> float:
    """The normal quantile at 0.5 + level / 2 (a two-sided confidence level) or 1 - level (a
    one-sided significance level); a level that puts it at 1 after rounding is a DomainError."""
    check_number("level", level, REAL, 0, 1, closed=False)
    u, at = (0.5 + level / 2.0, "0.5 + level / 2") if two_sided else (1.0 - level, "1 - level")
    if u == 1.0:
        raise DomainError(f"level = {level!r}: the normal quantile at {at} rounds to 1, an "
                          f"infinite z; take a level farther from {int(two_sided)}")
    return float(ndtri(u))


def _samples(cx, cy, joint: JointCountTable | None,
             what: str) -> tuple[CountVector, CountVector, float]:
    """(cvx, cvy, n_eff) of a two-sample call: the count vectors cx and cy with their
    effective size, or the marginals of joint with its n (cx and cy then None)."""
    if joint is not None:
        if cx is not None or cy is not None:
            raise UsageError(f"{what} takes the two samples from joint: pass cx = cy = None")
        return (*joint.marginal_count_vectors(), float(joint.n))
    if cx is None or cy is None:
        raise UsageError(f"{what} needs two count vectors cx and cy, or joint")
    cvx, cvy = as_count_vector(cx), as_count_vector(cy)
    if cvx.m != cvy.m:
        raise ShapeError(f"category counts differ: {cvx.m} vs {cvy.m}")
    # harmonic-mean effective size; equals n when totals match (the theorem's
    # setting samples one bivariate array, so equal totals are the base case)
    return cvx, cvy, 2.0 * cvx.n * cvy.n / (cvx.n + cvy.n)


def divergence_ci(cx, cy, alpha: float, level: float = 0.95,
                  joint: JointCountTable | None = None) -> EstimateWithCI:
    """Plug-in Renyi divergence with the non-degenerate CLT interval.

    std_error = CV(V at plug-in) / ((1 - alpha) sqrt(n)). Without a joint
    table the two samples are treated as independent (product plug-in joint);
    with one (cx and cy then None), V's moments use the observed joint cells.
    Empirically identical marginals give CV(V) = 0: that direction belongs to
    equality_test.
    """
    alpha = check_alpha(alpha)
    z = _z_level(level)
    cvx, cvy, n_eff = _samples(cx, cy, joint, "divergence_ci")
    phat, qhat, mult, s_hat = _plugin_pair(cvx.counts, cvy.counts, cvx.n, cvy.n, alpha)
    shared = (phat > 0) & (qhat > 0)
    if not shared.any():
        raise DomainError("no shared support between the two samples")
    est = math.log(s_hat) / (alpha - 1.0)
    if joint is None:
        v = _v_moments_independent(phat, qhat, alpha, mult)
    else:
        v = _v_moments_cells(joint.rows, joint.cols, joint.counts / joint.n,
                             cvx.counts / cvx.n, cvy.counts / cvy.n, alpha)
    if _degenerate(v):
        raise DegenerateStatisticError(
            "empirically identical marginals: CV(V) = 0, the divergence CLT is "
            "degenerate; use equality_test instead"
        )
    se = v.cv / ((1.0 - alpha) * math.sqrt(n_eff))
    # the LD conditions need strictly positive masses on the whole universe
    ld = _ld_report(round(n_eff), alpha, phat, mult, qhat, v=v) if shared.all() else None
    return EstimateWithCI(
        estimate=est, level=level, lower=est - z * se,
        upper=est + z * se, std_error=se,
        n=int(round(n_eff)), m=_count((phat > 0) | (qhat > 0), mult), method="thm2", ld=ld,
    )


def lemma2i_standardize(x2: float, m: int) -> float:
    """Lemma 2(i): the Pearson statistic standardized as (X^2 - m) / sqrt(2m)."""
    return (x2 - m) / math.sqrt(2.0 * m)


def _thm1_z(counts: np.ndarray, n: int, alpha: float, h: float, cv: float) -> float:
    """Theorem 1: sqrt(n) (1/a - 1) (H_a(phat) - h) / cv of n draws, normalized by the
    true entropy h = H_a(p) and cv = CV(W)."""
    h_hat = math.log(_plugin(counts, n, alpha)[3]) / (1.0 - alpha)
    return math.sqrt(n) * (1.0 / alpha - 1.0) * (h_hat - h) / cv


def _thm2_z(cx: np.ndarray, cy: np.ndarray, n: int, alpha: float, d: float, cv: float) -> float:
    """Theorem 2: sqrt(n) (a - 1) (D_a(phat, qhat) - d) / cv of two samples of n draws,
    normalized by the true divergence d = D_a(p, q) and cv = CV(V)."""
    s_hat = _plugin_pair(cx, cy, n, n, alpha)[3]
    if s_hat == 0.0:  # for alpha in (0, 1) each shared category adds at least 1/n
        raise DomainError(f"thm2_divergence at n = {n}: a replicate's two samples share "
                          f"no category (empty shared support)")
    d_hat = math.log(s_hat) / (alpha - 1.0)
    return math.sqrt(n) * (alpha - 1.0) * (d_hat - d) / cv


def _thm3_z(counts: np.ndarray, n: int, alpha: float) -> tuple[float, float, float]:
    """Theorem 3 (z, centre, scale) of n draws on m = counts.size categories: z =
    n [H_a(uhat) - centre] / scale, centre log m + (1-a)^(-1) log(1 + binom(a,2) m/n),
    scale a sqrt(m/2); undefined for n <= m."""
    m = counts.size
    if n <= m:
        raise UndefinedStatisticError(
            f"normalized entropy statistic undefined for n <= m (n={n}, m={m})"
        )
    center = math.log(m) + math.log1p(alpha * (alpha - 1.0) / 2.0 * m / n) / (1.0 - alpha)
    sd = alpha * math.sqrt(m / 2.0)
    h_hat = math.log(_plugin(counts, n, alpha)[3]) / (1.0 - alpha)
    return n * (h_hat - center) / sd, center, sd


def _null_z(x: float, mu: float, gamma: float) -> float:
    """The degenerate-null standardization (x - mu_n) / (sqrt(2) gamma_n)."""
    return (x - mu) / (math.sqrt(2.0) * gamma)


def _thm4_z(s: float, n: float, alpha: float, mu: float, gamma: float) -> float:
    """Theorem 4: n (a(a-1))^(-1) (s - 1) standardized by _null_z, for the plug-in
    s = S_a(phat, qhat) of _plugin_pair."""
    return _null_z(n / (alpha * (alpha - 1.0)) * (s - 1.0), mu, gamma)


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
        vals, mult = _distinct(cv.counts)
        z = lemma2i_standardize(_pearson_chi_square(vals, n, 1.0 / m, mult), m)
        mean, sd = float(m), math.sqrt(2.0 * m)
    elif method == "thm3":
        z, center, sd = _thm3_z(cv.counts, n, alpha)
        mean = n * center
    else:
        raise UsageError(f"unknown uniformity method {method!r}")
    return TestReport(statistic=z, null_mean=mean, null_sd=sd, p_value=2.0 * float(ndtr(-abs(z))),
                      sidedness="two-sided", m=m, n=n, method=method)


def _shrunken_joint_null_params(joint: JointCountTable, row, col) -> tuple[float, float]:
    """Paired-mode (mu_n, gamma_n^2): plug-in joint shrunk toward independence.

    Each observed cell is shrunk toward the product of the pooled marginals
    with weight 1/(1 + n_ij); unobserved cells take the product value. The
    pooled marginal r = (row + col)/2n of the joint's marginal counts stands in
    for the common marginal the population formulas assume.
    """
    n = joint.n
    r = 0.5 * (row / n + col / n)
    keep = r > 0
    pos = np.cumsum(keep, dtype=np.int32)  # category -> index among the kept ones (m < 2**31)
    pos -= 1
    rm = r[keep]
    ii, jj = pos[joint.rows], pos[joint.cols]
    del pos
    c = joint.counts
    # cell minus product: (1 - w)(n_ij/n - r_i r_j) with w = 1/(1 + n_ij), that is
    # c / (1.0 + c) * (c / n - rm[ii] * rm[jj]), built in two buffers
    delta = rm[ii]
    gap = rm[jj]
    delta *= gap
    np.divide(c, n, out=gap)
    gap -= delta
    np.add(c, 1.0, out=delta)
    np.divide(c, delta, out=delta)
    delta *= gap
    del gap
    total = _sum(rm) ** 2 + _sum(delta)
    b = rm / math.sqrt(total)
    v = delta
    v /= total
    marg = b * _sum(b) + 0.5 * (np.bincount(ii, v, minlength=rm.size)
                                + np.bincount(jj, v, minlength=rm.size))
    diag, ii, jj, v = _split_diagonal(ii, jj, v, rm.size)
    return _null_params(b, b, diag, ii, jj, v, marg)


def equality_test(cx=None, cy=None, alpha: float = 0.5, mode: str = "independent",
                  joint: JointCountTable | None = None) -> TestReport:
    """Degenerate-divergence test of H0: p = q.

    Statistic: [n (a(a-1))^(-1) (S_a(phat, qhat) - 1) - mu_n] / (sqrt(2) gamma_n),
    one-sided upper (the numerator's leading term is non-negative by Holder,
    so only upward deviations indicate p != q).

    mode="independent": two separate samples cx and cy, mu_n = gamma_n^2 = m - 1
    with m the union support size. mode="paired": a bivariate table joint alone,
    (mu_n, gamma_n^2) estimated from the smoothed plug-in joint. An argument the
    mode does not read raises UsageError.
    """
    alpha = check_alpha(alpha)
    if mode not in ("independent", "paired"):
        raise UsageError(f"unknown mode {mode!r}")
    if mode == "paired" and joint is None:
        raise UsageError("paired mode requires joint counts")
    if mode == "independent" and joint is not None:
        raise UsageError("independent mode ignores joint counts: use mode='paired'")
    cvx, cvy, n_eff = _samples(cx, cy, joint, "equality_test")
    phat, qhat, mult, s_hat = _plugin_pair(cvx.counts, cvy.counts, cvx.n, cvy.n, alpha)
    m_union = _count((phat > 0) | (qhat > 0), mult)
    if m_union < 2:
        raise DomainError("need at least 2 observed categories")
    if mode == "paired":
        mu, gamma_sq = _shrunken_joint_null_params(joint, cvx.counts, cvy.counts)
    else:
        mu = gamma_sq = float(m_union - 1)
    gamma = math.sqrt(gamma_sq)
    z = _thm4_z(s_hat, n_eff, alpha, mu, gamma)
    return TestReport(
        statistic=z, null_mean=mu, null_sd=math.sqrt(2.0) * gamma,
        p_value=float(ndtr(-z)), sidedness="upper",
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
    tau = check_number("tau", tau, REAL, 0, 1, closed=False)
    cv = as_count_vector(c)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return CountVector(_thinned(rng, cv.counts, tau))
