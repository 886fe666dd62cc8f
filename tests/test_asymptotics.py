"""Chi-square statistics, CIs, hypothesis tests, thinning, and the normal quantile."""
import math

import numpy as np
import pytest
from scipy.stats import norm

from renydiv import (
    CountVector,
    DegenerateStatisticError,
    DomainError,
    JointCountTable,
    JointDistribution,
    ProbVector,
    ShapeError,
    UndefinedStatisticError,
    UsageError,
    binomial_thinning,
    chi_square_null_params,
    divergence_ci,
    entropy_ci,
    equality_test,
    hill_ci,
    normal_quantile,
    pearson_chi_square,
    powerlaw_pmf,
    projection_v_moments,
    renyi_divergence,
    renyi_entropy,
    two_sample_chi_square,
    uniformity_test,
)
from renydiv.projections import _v_ratio_sum

from dense_joint import dense_pij


class TestNormalQuantile:
    def test_against_scipy(self):
        grid = np.concatenate([
            np.linspace(1e-9, 1 - 1e-9, 2001),
            [1e-12, 1 - 1e-12, 0.025, 0.975, 0.5],
        ])
        for u in grid:
            assert abs(normal_quantile(float(u)) - norm.ppf(u)) < 1e-9

    def test_domain(self):
        for u in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(DomainError):
                normal_quantile(u)


class TestChiSquare:
    def test_hand_example(self):
        assert pearson_chi_square([3, 3, 4], ProbVector.uniform(3)) == pytest.approx(
            0.2, abs=1e-12
        )

    def test_exact_fit(self):
        assert pearson_chi_square([5, 5], [0.5, 0.5]) == pytest.approx(0.0, abs=1e-12)

    def test_mc_mean_is_m_minus_one(self):
        rng = np.random.default_rng(101)
        m, n, B = 20, 2000, 2000
        p = rng.dirichlet(np.ones(m))
        vals = np.empty(B)
        for b in range(B):
            vals[b] = pearson_chi_square(rng.multinomial(n, p), p)
        mcse = vals.std(ddof=1) / math.sqrt(B)
        assert abs(vals.mean() - (m - 1)) < 3 * mcse

    def test_zero_probability_rejected(self):
        with pytest.raises(DomainError):
            pearson_chi_square([1, 1], [1.0, 0.0])
        with pytest.raises(ShapeError):
            pearson_chi_square([1, 1, 1], [0.5, 0.5])

    def test_two_sample_hand_example(self):
        joint = JointCountTable.from_dense([[5, 3], [0, 2]])
        got = two_sample_chi_square(joint, [0.5, 0.5])
        assert got == pytest.approx(1.8, abs=1e-12)

    def test_two_sample_equal_marginals_zero(self):
        joint = JointCountTable.from_dense([[4, 2], [2, 4]])
        assert two_sample_chi_square(joint, [0.5, 0.5]) == pytest.approx(0.0, abs=1e-12)

    def test_two_sample_mc_mean(self):
        # product sampling: E X^2_{2p} ~ mu_n = m - 1
        rng = np.random.default_rng(102)
        m, n, B = 15, 3000, 800
        p = rng.dirichlet(np.ones(m)) * 0 + 1.0 / m
        vals = np.empty(B)
        for b in range(B):
            cx = rng.multinomial(n, p)
            cy = rng.multinomial(n, p)
            phat, qhat = cx / n, cy / n
            vals[b] = n * float((((phat - qhat) ** 2) / (2 * p)).sum())
        mcse = vals.std(ddof=1) / math.sqrt(B)
        assert abs(vals.mean() - (m - 1)) < 4 * mcse


class TestNullParams:
    def test_product_joint_identity(self):
        rng = np.random.default_rng(111)
        for _ in range(100):
            m = int(rng.integers(2, 40))
            p = rng.dirichlet(np.ones(m))
            mu, gsq = chi_square_null_params(JointDistribution.product(p, p))
            assert mu == pytest.approx(m - 1, abs=1e-12)
            assert gsq == pytest.approx(m - 1, abs=1e-12)

    def test_perfectly_correlated(self):
        p = np.array([0.2, 0.3, 0.5])
        mat = np.diag(p)
        mu, gsq = chi_square_null_params(JointDistribution.from_dense(mat))
        assert mu == pytest.approx(0.0, abs=1e-14)
        assert gsq == pytest.approx(0.0, abs=1e-14)

    def test_m2_example(self):
        # mu = 0.8; gamma^2 = 0.16 + 0.16 + 0.16 + 0.16 = 0.64 by Eq.-level
        # evaluation (two diagonal terms (0.2/0.5)^2, two off-diagonal terms
        # (0.4)^2 / (4 * 0.25))
        joint = JointDistribution.from_dense([[0.3, 0.2], [0.2, 0.3]])
        mu, gsq = chi_square_null_params(joint)
        assert mu == pytest.approx(0.8, abs=1e-14)
        assert gsq == pytest.approx(0.64, abs=1e-14)

    def test_boundedness_band(self):
        # With B = sup p_ij/(p_i p_j): m - 2B <= gamma^2 <= m + B^2
        rng = np.random.default_rng(112)
        for _ in range(50):
            m = int(rng.integers(3, 30))
            p = rng.dirichlet(np.ones(m) * 5)
            w = rng.uniform(0, 0.5)
            joint = JointDistribution.diagonal_mix(p, w)
            bound = float(np.max(dense_pij(joint) / np.outer(joint.row, joint.col)))
            mu, gsq = chi_square_null_params(joint)
            assert m - 2 * bound - 1e-9 <= gsq <= m + bound**2 + 1e-9

    def test_unequal_marginals_rejected(self):
        mat = np.array([[0.5, 0.2], [0.1, 0.2]])
        with pytest.raises(DomainError):
            chi_square_null_params(JointDistribution.from_dense(mat))


class TestEntropyCI:
    def test_degenerate_single_category(self):
        with pytest.raises(DegenerateStatisticError):
            entropy_ci([10, 0, 0], 0.5)

    def test_empirically_uniform_redirects(self):
        with pytest.raises(DegenerateStatisticError, match="uniformity_test"):
            entropy_ci([7, 7, 7, 7], 0.5)

    def test_interval_structure(self):
        rng = np.random.default_rng(121)
        c = rng.multinomial(39084, powerlaw_pmf(0.87, 165).probs)
        ci = entropy_ci(c, 0.5, 0.95)
        assert ci.lower <= ci.estimate <= ci.upper
        assert ci.method == "thm1"
        assert ci.n == 39084
        phat = c[c > 0] / c.sum()
        assert ci.estimate == pytest.approx(renyi_entropy(phat, 0.5), abs=1e-12)
        # se = CV(W at phat) * alpha / ((1 - alpha) sqrt(n))
        from renydiv import projection_w_moments

        w = projection_w_moments(phat, 0.5)
        assert ci.std_error == pytest.approx(w.cv / math.sqrt(39084), rel=1e-12)
        assert ci.ld is not None and "entropy_clt" in ci.ld.advisories

    def test_width_scales_as_inverse_sqrt_n(self):
        p = powerlaw_pmf(1.0, 100).probs
        rng = np.random.default_rng(122)
        widths = {}
        for n in (20000, 80000):
            ws = []
            for _ in range(200):
                ci = entropy_ci(rng.multinomial(n, p), 0.5, 0.95)
                ws.append(ci.upper - ci.lower)
            widths[n] = np.mean(ws)
        assert widths[80000] / widths[20000] == pytest.approx(0.5, rel=0.10)

    def test_hill_ci_is_exp_transform(self):
        rng = np.random.default_rng(123)
        c = rng.multinomial(5000, powerlaw_pmf(1.0, 50).probs)
        h = entropy_ci(c, 0.5, 0.95)
        e = hill_ci(c, 0.5, 0.95)
        assert e.estimate == pytest.approx(math.exp(h.estimate), rel=1e-12)
        assert e.lower == pytest.approx(math.exp(h.lower), rel=1e-12)
        assert e.upper == pytest.approx(math.exp(h.upper), rel=1e-12)

    def test_level_domain(self):
        with pytest.raises(DomainError):
            entropy_ci([5, 3, 2], 0.5, level=1.2)


class TestDivergenceCI:
    def test_identical_samples_redirect(self):
        with pytest.raises(DegenerateStatisticError, match="equality_test"):
            divergence_ci([5, 3, 2], [5, 3, 2], 0.5)

    def test_interval_structure_independent(self):
        rng = np.random.default_rng(131)
        p = powerlaw_pmf(0.87, 165).probs
        q = powerlaw_pmf(0.97, 165).probs
        cx = rng.multinomial(39084, p)
        cy = rng.multinomial(39084, q)
        ci = divergence_ci(cx, cy, 0.5, 0.95)
        assert ci.method == "thm2"
        assert ci.lower <= ci.estimate <= ci.upper
        est = float(renyi_divergence(cx / cx.sum(), cy / cy.sum(), 0.5))
        assert ci.estimate == pytest.approx(est, abs=1e-12)

    def test_unequal_totals_use_effective_n(self):
        rng = np.random.default_rng(132)
        p = powerlaw_pmf(1.0, 60).probs
        cx = rng.multinomial(4000, p)
        cy = rng.multinomial(16000, powerlaw_pmf(0.5, 60).probs)
        ci = divergence_ci(cx, cy, 0.5)
        n_eff = 2 * 4000 * 16000 / 20000
        assert ci.n == int(round(n_eff))

    def test_width_scales_as_inverse_sqrt_n(self):
        p = powerlaw_pmf(0.87, 100).probs
        q = powerlaw_pmf(1.27, 100).probs
        rng = np.random.default_rng(133)
        widths = {}
        for n in (20000, 80000):
            ws = []
            for _ in range(150):
                ci = divergence_ci(rng.multinomial(n, p), rng.multinomial(n, q), 0.5)
                ws.append(ci.upper - ci.lower)
            widths[n] = np.mean(ws)
        assert widths[80000] / widths[20000] == pytest.approx(0.5, rel=0.10)

    def test_joint_mode(self):
        joint = JointCountTable(rows=[0, 0, 1, 1, 2, 2], cols=[0, 1, 0, 1, 2, 0],
                                counts=[30, 10, 5, 20, 35, 10], m=3)
        ci = divergence_ci(None, None, 0.5, joint=joint)
        cx, cy = joint.marginal_count_vectors()
        est = float(renyi_divergence(cx.counts / cx.n, cy.counts / cy.n, 0.5))
        assert ci.estimate == pytest.approx(est, abs=1e-12)

    def test_joint_mode_ld_uses_joint_v(self):
        # the LD divergence quotient is built from the joint V variance that
        # sets the interval, not from the independent-marginal one
        mat = np.array([[30, 10, 0], [5, 20, 0], [10, 0, 35]])
        n = int(mat.sum())
        ci = divergence_ci(None, None, 0.5, joint=JointCountTable.from_dense(mat))
        var = projection_v_moments(JointDistribution.from_dense(mat / n), 0.5).variance
        ratio = _v_ratio_sum(mat.sum(axis=1) / n, mat.sum(axis=0) / n, 0.5)
        assert ci.ld.divergence_condition == pytest.approx(
            ratio / math.sqrt(n * var), rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            divergence_ci([1, 2, 3], [1, 2], 0.5)

    def test_samples_beside_a_joint_raise(self):
        # the interval is taken from the joint table; samples passed with it are not read
        joint = JointCountTable(rows=[0, 1, 2], cols=[0, 1, 0], counts=[30, 20, 10], m=3)
        with pytest.raises(UsageError, match="cx = cy = None"):
            divergence_ci([30, 20, 10], [40, 20, 0], 0.5, joint=joint)

    @pytest.mark.parametrize("cx, cy", [(None, None), ([30, 20, 10], None),
                                        (None, [40, 20, 0])])
    def test_missing_sample_named(self, cx, cy):
        # without joint both samples are needed; a missing one is named as such
        with pytest.raises(UsageError, match="divergence_ci needs two count vectors"):
            divergence_ci(cx, cy, 0.5)


class TestUniformityTest:
    def test_thm3_undefined_for_small_n(self):
        c = np.ones(100, dtype=int)
        with pytest.raises(UndefinedStatisticError):
            uniformity_test(c, 0.5, method="thm3")

    def test_lemma2i_matches_pearson(self):
        rng = np.random.default_rng(141)
        m, n = 50, 5000
        c = rng.multinomial(n, np.full(m, 1 / m))
        rep = uniformity_test(c, 0.5, method="lemma2i")
        x2 = pearson_chi_square(c, ProbVector.uniform(m))
        assert rep.statistic == pytest.approx((x2 - m) / math.sqrt(2 * m), rel=1e-12)
        assert rep.sidedness == "two-sided"
        assert rep.method == "lemma2i"

    def test_power_law_strongly_rejected(self):
        rng = np.random.default_rng(142)
        c = rng.multinomial(10**5, powerlaw_pmf(1.0, 100).probs)
        for method in ("thm3", "lemma2i"):
            assert uniformity_test(c, 0.5, method=method).p_value < 0.001

    def test_uniform_draw_not_rejected(self):
        rng = np.random.default_rng(143)
        c = rng.multinomial(10**5, np.full(100, 0.01))
        rep = uniformity_test(c, 0.5, method="thm3")
        assert rep.p_value > 0.01

    def test_unknown_method(self):
        with pytest.raises(UsageError):
            uniformity_test([1, 2, 3], 0.5, method="bogus")


class TestEqualityTest:
    def test_identical_counts(self):
        c = [5, 5, 5]
        rep = equality_test(c, c, alpha=0.5, mode="independent")
        m = 3
        assert rep.statistic == pytest.approx(-math.sqrt((m - 1) / 2), abs=1e-12)
        assert rep.p_value > 0.8
        assert rep.method == "thm4"
        assert rep.sidedness == "upper"

    def test_power_law_pair_rejected(self):
        rng = np.random.default_rng(151)
        cx = rng.multinomial(39084, powerlaw_pmf(0.87, 165).probs)
        cy = rng.multinomial(39084, powerlaw_pmf(0.97, 165).probs)
        rep = equality_test(cx, cy, alpha=0.5, mode="independent")
        assert rep.p_value < 1e-4

    def test_union_support_m(self):
        cx = [10, 5, 0, 0]
        cy = [8, 0, 7, 0]
        rep = equality_test(cx, cy, alpha=0.5, mode="independent")
        assert rep.m == 3
        assert rep.null_mean == pytest.approx(2.0)

    def test_paired_mode(self):
        rng = np.random.default_rng(152)
        p = np.full(30, 1 / 30)
        mat = rng.multinomial(20000, np.outer(p, p).ravel()).reshape(30, 30)
        joint = JointCountTable.from_dense(mat)
        rep = equality_test(alpha=0.5, mode="paired", joint=joint)
        assert rep.method == "thm4"
        assert math.isfinite(rep.statistic)
        assert 0 <= rep.p_value <= 1
        # smoothed null parameters should sit near the independent-case m - 1
        assert rep.null_mean == pytest.approx(29, rel=0.25)

    def test_paired_requires_joint(self):
        with pytest.raises(UsageError):
            equality_test([1, 2], [2, 1], mode="paired")

    def test_paired_mode_size_under_correlated_null(self):
        # equal-marginal but dependent joint: the independent-mode (m - 1)
        # normalizers would be wrong here; the smoothed plug-in ones are not
        from renydiv.asymptotics import _shrunken_joint_null_params
        from renydiv.montecarlo import replicate_stream, sample_joint

        p = np.arange(1, 41, dtype=float) ** -1.0
        p /= p.sum()
        joint = JointDistribution.diagonal_mix(p, 0.25)
        mu_pop, gsq_pop = chi_square_null_params(joint)
        rejections = 0
        B = 400
        for r in range(B):
            rng = replicate_stream(909, r)
            table = sample_joint(joint, 20000, rng)
            rep = equality_test(alpha=0.5, mode="paired", joint=table)
            rejections += rep.p_value < 0.05
        assert 0.02 <= rejections / B <= 0.09
        table = sample_joint(joint, 20000, replicate_stream(909, 0))
        mu_hat, gsq_hat = _shrunken_joint_null_params(table)
        assert mu_hat == pytest.approx(mu_pop, rel=0.10)
        assert gsq_hat == pytest.approx(gsq_pop, rel=0.15)

    def test_null_distribution_is_standard_normal(self):
        # H0 product sampling: the standardized statistic is N(0,1) to KS < 0.05
        from renydiv import ks_distance_normal
        from renydiv.montecarlo import replicate_stream

        m, n, B = 100, 10**5, 2000
        p = np.full(m, 1.0 / m)
        stats = np.empty(B)
        for r in range(B):
            rng = replicate_stream(414, r)
            stats[r] = equality_test(
                rng.multinomial(n, p), rng.multinomial(n, p), alpha=0.5
            ).statistic
        assert ks_distance_normal(stats) < 0.05

    def test_single_category_rejected(self):
        with pytest.raises(DomainError):
            equality_test([5, 0], [7, 0], alpha=0.5)

    def test_unknown_mode(self):
        with pytest.raises(UsageError):
            equality_test([1, 2], [2, 1], mode="bogus")

    def test_unread_arguments_raise(self):
        joint = JointCountTable(rows=[0, 1, 2], cols=[0, 1, 0], counts=[30, 20, 10], m=3)
        with pytest.raises(UsageError, match="independent mode ignores joint"):
            equality_test([30, 20, 10], [40, 20, 0], alpha=0.5, joint=joint)
        with pytest.raises(UsageError, match="cx = cy = None"):
            equality_test([30, 20, 10], [40, 20, 0], alpha=0.5, mode="paired", joint=joint)
        with pytest.raises(UsageError, match="cx = cy = None"):
            equality_test(cy=[40, 20, 0], alpha=0.5, mode="paired", joint=joint)


class TestBinomialThinning:
    def test_deterministic_given_seed(self):
        c = [10, 0, 25, 3]
        a = binomial_thinning(c, 0.5, seed=42)
        b = binomial_thinning(c, 0.5, seed=42)
        assert np.array_equal(a.counts, b.counts)

    def test_tau_near_one_keeps_everything(self):
        c = CountVector([7, 2, 1])
        out = binomial_thinning(c, 1 - 1e-12, seed=0)
        assert np.array_equal(out.counts, c.counts)

    def test_total_is_binomial(self):
        rng = np.random.default_rng(161)
        totals = [binomial_thinning([10, 0], 0.5, seed=rng).n for _ in range(2000)]
        mean = np.mean(totals)
        assert abs(mean - 5.0) < 4 * math.sqrt(10 * 0.25 / 2000)

    def test_zero_category_stays_zero(self):
        out = binomial_thinning([10, 0], 0.5, seed=3)
        assert out.counts[1] == 0

    @pytest.mark.parametrize("tau", [0.0, 1.0, -0.5, 1.5])
    def test_tau_domain(self, tau):
        with pytest.raises(DomainError):
            binomial_thinning([5, 5], tau, seed=0)

    def test_empty_thinning_raises_instead_of_looping(self):
        # every redraw of Binomial(1, 1e-9) is empty: raise, naming n and tau
        with pytest.raises(DomainError, match=r"n = 1 .*tau = 1e-09"):
            binomial_thinning([1], 1e-9, seed=0)
