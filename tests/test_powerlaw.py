"""Power-law construction, least-squares fitting, and QQ diagnostics."""
import math
import re

import numpy as np
import pytest

from renydiv import (
    DomainError,
    ValidationError,
    fit_powerlaw_ls,
    power_sum,
    powerlaw_model,
    powerlaw_pmf,
    powerlaw_qq,
)


class TestPmf:
    def test_beta_one_m_two(self):
        p = powerlaw_pmf(1.0, 2).probs
        assert p[0] == pytest.approx(2 / 3, abs=1e-15)
        assert p[1] == pytest.approx(1 / 3, abs=1e-15)

    def test_beta_to_zero_limit(self):
        p = powerlaw_pmf(1e-12, 5).probs
        assert np.max(np.abs(p - 0.2)) < 1e-10

    def test_h_norm_asymptotics(self):
        # for beta = 1/2, H(beta, m) ~ m^(1-beta)/(1-beta) = 2 sqrt(m)
        model = powerlaw_model(0.5, 10**4)
        assert abs(model.h_norm / (2 * math.sqrt(10**4)) - 1) < 0.02

    def test_model_pmf_matches_function(self):
        model = powerlaw_model(0.87, 165)
        assert np.allclose(model.pmf().probs, powerlaw_pmf(0.87, 165).probs, rtol=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            powerlaw_pmf(0.0, 10)
        with pytest.raises(DomainError):
            powerlaw_pmf(-1.0, 10)
        with pytest.raises(DomainError):
            powerlaw_pmf(1.0, 0)

    @pytest.mark.parametrize("m", [3.5, 3.0, np.float64(4.0), True])
    @pytest.mark.parametrize("build", [powerlaw_pmf, powerlaw_model])
    def test_non_integer_m_named(self, build, m):
        # a fractional m would normalize over ceil(m) ranks but build the pmf over floor(m)
        with pytest.raises(ValidationError, match=re.escape(f"m must be an integer, got {m!r}")):
            build(1.0, m)

    def test_numpy_integer_m(self):
        assert powerlaw_pmf(1.0, np.int64(3)).probs.tolist() == powerlaw_pmf(1.0, 3).probs.tolist()

    def test_ld_equivalence(self):
        # (n min p)^(-1) / ((1-beta)^(-1) m/n) -> 1 for 0 < beta < 1
        beta = 0.5
        n = 10**9
        for m in (10**3, 10**4, 10**5):
            p = powerlaw_pmf(beta, m).probs
            lhs = 1.0 / (n * p.min())
            rhs = (1 / (1 - beta)) * m / n
            assert abs(lhs / rhs - 1) < 0.05

    def test_power_sum_asymptotics(self):
        # for alpha > 1/2: sum p^alpha ~ (1-beta)^alpha m^(1-alpha) / (1 - alpha beta)
        alpha, beta, m = 0.6, 0.5, 10**5
        p = powerlaw_pmf(beta, m)
        s = power_sum(p, alpha)
        approx = (1 - beta) ** alpha * m ** (1 - alpha) / (1 - alpha * beta)
        assert abs(s / approx - 1) < 0.05


class TestFit:
    def test_exact_recovery(self):
        i = np.arange(1, 201, dtype=float)
        counts = 1000.0 * i ** (-0.87)
        fit = fit_powerlaw_ls(counts)
        assert fit.beta_hat == pytest.approx(0.87, abs=1e-9)
        assert fit.residual_sse == pytest.approx(0.0, abs=1e-18)

    def test_scale_invariance(self):
        rng = np.random.default_rng(171)
        counts = rng.multinomial(39084, powerlaw_pmf(0.87, 165).probs)
        counts = counts[counts > 0].astype(float)
        f1 = fit_powerlaw_ls(counts)
        f2 = fit_powerlaw_ls(counts * 7.25)
        assert f1.beta_hat == pytest.approx(f2.beta_hat, abs=1e-12)
        assert f1.std_error == pytest.approx(f2.std_error, abs=1e-12)

    def test_uniform_counts_give_zero(self):
        fit = fit_powerlaw_ls([50, 50, 50, 50, 50])
        assert abs(fit.beta_hat) < 1e-12

    def test_sample_recovery_scale(self):
        rng = np.random.default_rng(172)
        betas, ses = [], []
        for _ in range(20):
            c = rng.multinomial(39084, powerlaw_pmf(0.87, 165).probs)
            fit = fit_powerlaw_ls(c)
            betas.append(fit.beta_hat)
            ses.append(fit.std_error)
        assert abs(np.mean(betas) - 0.87) < 0.1
        # OLS slope SE on all 165 ranks is a few 1e-3; order-of-magnitude guard
        assert 5e-4 < np.mean(ses) < 0.2

    @pytest.mark.parametrize("m", [3, 165, 100_000])
    def test_same_bits_as_the_textbook_formula(self, m):
        # the fit centres in place and forms the residual in place; the arithmetic is the
        # textbook one's, term by term, so every bit of the result is the same
        rng = np.random.default_rng(173)
        c = np.sort(rng.multinomial(10 * m, powerlaw_pmf(0.9, m).probs) + 1)[::-1]
        x, y = np.log(np.arange(1, m + 1, dtype=float)), np.log(c.astype(float))
        xbar, ybar = x.mean(), y.mean()
        sxx = float(((x - xbar) ** 2).sum())
        slope = float(((x - xbar) * (y - ybar)).sum()) / sxx
        sse = float(((y - ybar - slope * (x - xbar)) ** 2).sum())
        fit = fit_powerlaw_ls(c)
        assert (fit.beta_hat, fit.residual_sse, fit.std_error) == (
            -slope, sse, math.sqrt(sse / (m - 2) / sxx))

    def test_too_few_ranks(self):
        with pytest.raises(DomainError):
            fit_powerlaw_ls([5, 3])
        with pytest.raises(DomainError):
            fit_powerlaw_ls([5, 3, 0, 0])


class TestQQ:
    def test_model_sample_near_diagonal(self):
        rng = np.random.default_rng(181)
        model = powerlaw_model(0.87, 165)
        c = rng.multinomial(39084, model.pmf().probs)
        pairs = powerlaw_qq(c, model)
        dev = np.array([abs(a - b) for a, b in pairs])
        assert dev.mean() < 0.05 * model.m

    def test_mismatch_shows_curvature(self):
        rng = np.random.default_rng(182)
        model_true = powerlaw_model(0.87, 165)
        model_off = powerlaw_model(1.37, 165)
        worse, base = [], []
        for _ in range(11):
            c = rng.multinomial(39084, model_true.pmf().probs)
            base.append(max(abs(a - b) for a, b in powerlaw_qq(c, model_true)))
            worse.append(max(abs(a - b) for a, b in powerlaw_qq(c, model_off)))
        assert np.median(worse) > np.median(base)

    def test_empty_counts(self):
        model = powerlaw_model(1.0, 10)
        assert powerlaw_qq(np.zeros(5), model) == []


@pytest.mark.parametrize("bad", [-3.0, math.nan, math.inf])
@pytest.mark.parametrize("call", [fit_powerlaw_ls,
                                  lambda c: powerlaw_qq(c, powerlaw_model(1.0, 4))])
def test_negative_or_non_finite_count_named(call, bad):
    # such a count used to be dropped (or to give nan) without a word
    with pytest.raises(DomainError, match=re.escape(f"count {bad!r} at index 1 must be")):
        call([5.0, bad, 2.0, 1.0])


def test_zero_counts_skipped():
    assert fit_powerlaw_ls([5.0, 0.0, 2.0, 1.0]) == fit_powerlaw_ls([5.0, 2.0, 1.0])
