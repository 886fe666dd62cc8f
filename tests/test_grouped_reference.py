"""Count statistics summed over distinct counts against their per-category reference.

The reference functions below are the statistics as they were before the power
sums were grouped by distinct count: every sum runs over one term per category,
through math.fsum. Grouping is exact, so each result must match bit for bit.
"""
import math
from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from renydiv import (CountVector, asymptotics, divergence_ci, entropy_ci, equality_test,
                     hill_ci, measures, powerlaw_pmf, projections, uniformity_test)
from renydiv.asymptotics import (EstimateWithCI, _effective_n, _exp_ci, _null_z,
                                 _p_value, _thm1_z, _thm2_z, _thm4_z, lemma2i_standardize,
                                 normal_quantile)
from renydiv.distributions import _PEEL_MIN, _sum
from renydiv.errors import DegenerateStatisticError, DomainError, UndefinedStatisticError
from renydiv.measures import _GROUP_MIN
from renydiv.projections import _degenerate, _ld_report, _moments, _w_moments


def _fsum(x) -> float:
    return math.fsum(np.asarray(x, dtype=float).ravel().tolist())


def ref_power_sum(x, e):
    return _fsum(np.power(x, e))


def ref_cross_power_sum(p, q, alpha):
    shared = (p > 0) & (q > 0)
    return _fsum(np.power(p[shared], alpha) * np.power(q[shared], 1.0 - alpha))


def ref_v_moments_independent(p, q, alpha):
    shared = (p > 0) & (q > 0)
    ps, qs = p[shared], q[shared]
    a_vals = alpha * (qs / ps) ** (1.0 - alpha)
    b_vals = (1.0 - alpha) * (ps / qs) ** alpha
    ea, ea2 = _fsum(ps * a_vals), _fsum(ps * a_vals**2)
    eb, eb2 = _fsum(qs * b_vals), _fsum(qs * b_vals**2)
    return _moments(ea + eb, ea2 + 2.0 * ea * eb + eb2)


def ref_v_ratio_sum(p, q, alpha):
    return _fsum((q / p) ** (1.0 - alpha)) + _fsum((p / q) ** alpha)


def ref_entropy_ci(c, alpha, level=0.95):
    cv = CountVector(c)
    if cv.n < 2:
        raise DomainError("need n >= 2 observations")
    if cv.m_observed < 2:
        raise DegenerateStatisticError("one category")
    phat = cv.counts[cv.counts > 0] / cv.n
    s_a = ref_power_sum(phat, alpha)
    w = _w_moments(s_a, ref_power_sum(phat, 2.0 * alpha - 1.0), alpha)
    if _degenerate(w):
        raise DegenerateStatisticError("empirically uniform")
    est = math.log(s_a) / (1.0 - alpha)
    se = w.cv * alpha / ((1.0 - alpha) * math.sqrt(cv.n))
    z = normal_quantile(0.5 + level / 2.0)
    ld = _ld_report(phat.size, cv.n, float(phat.min()), w, ref_power_sum(phat, alpha - 1.0))
    return EstimateWithCI(est, level, est - z * se, est + z * se, se, cv.n, phat.size,
                          "thm1", ld)


def ref_divergence_ci(cx, cy, alpha, level=0.95):
    cvx, cvy = CountVector(cx), CountVector(cy)
    n_eff = _effective_n(cvx.n, cvy.n)
    phat, qhat = cvx.counts / cvx.n, cvy.counts / cvy.n
    shared = (phat > 0) & (qhat > 0)
    if not shared.any():
        raise DomainError("no shared support")
    est = math.log(ref_cross_power_sum(phat, qhat, alpha)) / (alpha - 1.0)
    v = ref_v_moments_independent(phat, qhat, alpha)
    if _degenerate(v):
        raise DegenerateStatisticError("identical marginals")
    se = v.cv / ((1.0 - alpha) * math.sqrt(n_eff))
    z = normal_quantile(0.5 + level / 2.0)
    ld = None
    if shared.all():
        w = _w_moments(ref_power_sum(phat, alpha), ref_power_sum(phat, 2.0 * alpha - 1.0), alpha)
        ld = _ld_report(phat.size, int(round(n_eff)), min(float(phat.min()), float(qhat.min())),
                        w, ref_power_sum(phat, alpha - 1.0), v, ref_v_ratio_sum(phat, qhat, alpha))
    return EstimateWithCI(est, level, est - z * se, est + z * se, se, int(round(n_eff)),
                          int(((phat > 0) | (qhat > 0)).sum()), "thm2", ld)


def ref_thm4_z(phat, qhat, n, alpha, mu, gamma):
    s = ref_cross_power_sum(phat, qhat, alpha)
    return _null_z(n / (alpha * (alpha - 1.0)) * (s - 1.0), mu, gamma)


def ref_equality_test(cx, cy, alpha):
    cvx, cvy = CountVector(cx), CountVector(cy)
    m_union = int(((cvx.counts > 0) | (cvy.counts > 0)).sum())
    n_eff = _effective_n(cvx.n, cvy.n)
    mu = gamma_sq = float(max(m_union - 1, 0))
    if m_union < 2:
        raise DomainError("need at least 2 observed categories")
    gamma = math.sqrt(gamma_sq)
    z = ref_thm4_z(cvx.counts / cvx.n, cvy.counts / cvy.n, n_eff, alpha, mu, gamma)
    return asymptotics.TestReport(z, mu, math.sqrt(2.0) * gamma, _p_value(z, "upper"), "upper",
                                  m_union, int(round(n_eff)), "thm4")


def ref_thm3_z(counts, n, alpha):
    m = counts.size
    if n <= m:
        raise UndefinedStatisticError("n <= m")
    center = math.log(m) + math.log1p(alpha * (alpha - 1.0) / 2.0 * m / n) / (1.0 - alpha)
    sd = alpha * math.sqrt(m / 2.0)
    h_hat = math.log(ref_power_sum(counts[counts > 0] / n, alpha)) / (1.0 - alpha)
    return n * (h_hat - center) / sd, center, sd


def ref_uniformity_test(c, alpha, method):
    cv = CountVector(c)
    n, m = cv.n, cv.m
    if n < 2 or m < 2:
        raise DomainError("need n >= 2 and m >= 2")
    if method == "lemma2i":
        p = np.full(m, 1.0 / m)
        z = lemma2i_standardize(n * _fsum((cv.counts / n - p) ** 2 / p), m)
        return asymptotics.TestReport(z, float(m), math.sqrt(2.0 * m),
                                      _p_value(z, "two-sided"), "two-sided", m, n, "lemma2i")
    z, center, sd = ref_thm3_z(cv.counts, n, alpha)
    return asymptotics.TestReport(z, n * center, sd, _p_value(z, "two-sided"), "two-sided",
                                  m, n, "thm3")


def ref_mc_statistic(statistic, cx, cy, n, norm, alpha):
    """The Monte Carlo harness's thm1, thm2 and thm4 statistics."""
    if statistic == "thm1_entropy":
        h_hat = math.log(ref_power_sum(cx[cx > 0] / n, alpha)) / (1.0 - alpha)
        return math.sqrt(n) * (1.0 / alpha - 1.0) * (h_hat - norm.value) / norm.cv
    if statistic == "thm2_divergence":
        s_hat = ref_cross_power_sum(cx / n, cy / n, alpha)
        if s_hat == 0.0:
            raise DomainError("the two samples share no category")
        d_hat = math.log(s_hat) / (alpha - 1.0)
        return math.sqrt(n) * (alpha - 1.0) * (d_hat - norm.value) / norm.cv
    return ref_thm4_z(cx / n, cy / n, n, alpha, norm.mu_n, norm.gamma_n)


def mc_statistic(statistic, cx, cy, n, norm, alpha):
    if statistic == "thm1_entropy":
        return _thm1_z(cx, n, alpha, norm.value, norm.cv)
    if statistic == "thm2_divergence":
        return _thm2_z(cx, cy, n, alpha, norm.value, norm.cv)
    gx, gy, mult = measures._distinct(cx, cy)  # the harness's thm4 kernel
    return _thm4_z(gx / n, gy / n, n, alpha, norm.mu_n, norm.gamma_n, mult)


def _outcome(fn, *args):
    """repr of the result, or the type of the error raised (messages differ by design)."""
    try:
        return repr(fn(*args))
    except (DomainError, DegenerateStatisticError, UndefinedStatisticError, ValueError) as exc:
        return type(exc).__name__


SIZES = st.sampled_from([2, 3, 50, _GROUP_MIN - 1, _GROUP_MIN, _GROUP_MIN + 1, 3 * _GROUP_MIN,
                         _PEEL_MIN - 1, _PEEL_MIN, _PEEL_MIN + 1])


@st.composite
def count_pairs(draw):
    """Two count columns over m categories: heavy repeats, all-distinct counts,
    power-law samples or constants, with zeros, disjoint supports, equal
    columns, and counts near 2**62 that overflow the pair key."""
    m = draw(SIZES)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def column():
        kind = draw(st.sampled_from(["repeats", "distinct", "powerlaw", "constant"]))
        if kind == "repeats":
            c = rng.integers(0, draw(st.integers(1, 30)), m, endpoint=True)
        elif kind == "distinct":
            c = rng.permutation(m) + draw(st.integers(0, 5))
        elif kind == "powerlaw":
            c = rng.multinomial(draw(st.integers(1, 20 * m)),
                                powerlaw_pmf(draw(st.floats(0.5, 1.5)), m).probs)
        else:
            c = np.full(m, draw(st.integers(1, 9)), dtype=np.int64)
        zeros = draw(st.sampled_from([0.0, 0.0, 0.5, 0.95]))
        c[rng.random(m) < zeros] = 0
        if draw(st.integers(0, 5)) == 0:
            c[rng.integers(m)] = 2**62 - int(rng.integers(0, 1000))
        return c.astype(np.int64)

    cx, cy = column(), column()
    layout = draw(st.sampled_from(["free", "free", "disjoint", "equal"]))
    if layout == "disjoint":
        cx[m // 2:] = 0
        cy[:m // 2] = 0
    elif layout == "equal":
        cy = cx.copy()
    for c in (cx, cy):
        if not c.any():
            c[-1] = 1
    return cx, cy


@settings(max_examples=200, deadline=None)
@given(count_pairs(), st.sampled_from([0.3, 0.5, 0.9]) | st.floats(0.05, 0.95))
@example((np.array([2**62, 1] + [1] * _GROUP_MIN), np.array([3, 2**62 - 7] + [1] * _GROUP_MIN)),
         0.5)
def test_count_statistics_match_per_category_reference(pair, alpha):
    cx, cy = pair
    checks = [
        (entropy_ci, ref_entropy_ci, (cx, alpha)),
        (hill_ci, lambda c, a: _exp_ci(ref_entropy_ci(c, a)), (cy, alpha)),
        (divergence_ci, ref_divergence_ci, (cx, cy, alpha)),
        (lambda x, y, a: equality_test(x, y, alpha=a), ref_equality_test, (cx, cy, alpha)),
    ]
    for method in ("thm3", "lemma2i"):
        checks.append((lambda c, a, k=method: uniformity_test(c, a, method=k),
                       lambda c, a, k=method: ref_uniformity_test(c, a, k), (cx, alpha)))
    n = int(cx.sum())
    norm = SimpleNamespace(value=0.7, cv=0.3, mu_n=cx.size - 1.0, gamma_n=1.5)
    for statistic in ("thm1_entropy", "thm2_divergence", "thm4_degenerate_divergence"):
        args = (statistic, cx, cy, n, norm, alpha)
        checks.append((mc_statistic, ref_mc_statistic, args))
    for new, ref, args in checks:
        assert _outcome(new, *args) == _outcome(ref, *args)


def test_count_statistics_never_sum_per_category(monkeypatch):
    """entropy_ci and divergence_ci hand _sum arrays of distinct counts, not of categories."""
    m, n = 200_000, 2_000_000
    rng = np.random.default_rng(20)
    # + 1 keeps every category observed, so the LD sums run as well
    x = CountVector(rng.multinomial(n - m, powerlaw_pmf(1.0, m).probs) + 1)
    y = CountVector(rng.multinomial(n - m, powerlaw_pmf(0.9, m).probs) + 1)
    sizes = []

    def recording(values, *mult):
        sizes.append(np.size(values))
        return _sum(values, *mult)

    for module in (measures, projections, asymptotics):
        monkeypatch.setattr(module, "_sum", recording)
    entropy_ci(x, 0.5)
    divergence_ci(x, y, 0.5)
    assert len(sizes) >= 10
    assert max(sizes) <= m // 10
