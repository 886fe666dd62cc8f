"""Projection-variable moments against brute-force enumeration, and LD diagnostics."""
import math

import numpy as np
import pytest

from renydiv import (
    DomainError,
    JointDistribution,
    ProbVector,
    bhattacharyya_v_variance,
    cross_power_sum,
    ld_diagnostic,
    noise_and_signal_w_variance,
    power_sum,
    powerlaw_pmf,
    projection_v_moments,
    projection_w_moments,
    v_moments_independent,
)


def enumerate_w(p, alpha):
    """Direct enumeration of the law of W: value alpha*p_i^(a-1) w.p. p_i."""
    vals = alpha * np.power(p, alpha - 1.0)
    mean = math.fsum((p * vals).tolist())
    second = math.fsum((p * vals * vals).tolist())
    return mean, second - mean * mean


def enumerate_v(pij, alpha):
    """Direct enumeration of the law of V over the (i, j) support."""
    p = pij.sum(axis=1)
    q = pij.sum(axis=0)
    mean_terms, sec_terms = [], []
    for i in range(pij.shape[0]):
        for j in range(pij.shape[1]):
            w = pij[i, j]
            if w == 0:
                continue
            v = alpha * (q[i] / p[i]) ** (1 - alpha) + (1 - alpha) * (p[j] / q[j]) ** alpha
            mean_terms.append(w * v)
            sec_terms.append(w * v * v)
    mean = math.fsum(mean_terms)
    return mean, math.fsum(sec_terms) - mean * mean


class TestWMoments:
    def test_uniform_variance_zero(self):
        for m in (2, 7, 100):
            w = projection_w_moments(ProbVector.uniform(m), 0.5)
            assert w.variance == pytest.approx(0.0, abs=1e-13)

    def test_noise_and_signal_example(self):
        # p0 = 0.5 with a 2-point uniform noise block
        w = projection_w_moments([0.5, 0.25, 0.25], 0.5)
        closed = noise_and_signal_w_variance(0.5, 2, 0.5)
        # two-point law: Var = p0 (1-p0) (w1 - w2)^2
        w1 = 0.5 * 0.5 ** (-0.5)
        w2 = 0.5 * 0.25 ** (-0.5)
        direct = 0.5 * 0.5 * (w1 - w2) ** 2
        assert w.variance == pytest.approx(direct, abs=1e-14)
        assert closed == pytest.approx(direct, abs=1e-14)
        assert direct == pytest.approx(0.0214466, abs=1e-6)

    def test_mean_is_alpha_times_power_sum(self):
        # Remark-1 enumeration check (the appendix's alpha^2 variant is a typo)
        rng = np.random.default_rng(21)
        for _ in range(100):
            m = int(rng.integers(2, 50))
            p = rng.dirichlet(np.ones(m))
            a = rng.uniform(0.05, 0.95)
            w = projection_w_moments(p, a)
            assert w.mean == pytest.approx(a * power_sum(p, a), abs=1e-12)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            m = int(rng.integers(2, 50))
            p = rng.dirichlet(np.ones(m))
            a = rng.uniform(0.05, 0.95)
            mean, var = enumerate_w(p, a)
            w = projection_w_moments(p, a)
            assert w.mean == pytest.approx(mean, rel=1e-12)
            assert w.variance == pytest.approx(var, rel=1e-9, abs=1e-12)

    def test_example_532(self):
        w = projection_w_moments([0.5, 0.3, 0.2], 0.5)
        s = power_sum([0.5, 0.3, 0.2], 0.5)
        assert w.mean == pytest.approx(0.5 * s, abs=1e-13)
        assert w.variance == pytest.approx(0.25 * (3 - s * s), abs=1e-13)

    def test_zero_probability_rejected(self):
        with pytest.raises(DomainError):
            projection_w_moments([0.5, 0.5, 0.0], 0.5)

    def test_closed_form_matches_two_point_enumeration(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            p0 = rng.uniform(0.01, 0.99)
            m = int(rng.integers(1, 500))
            a = rng.uniform(0.05, 0.95)
            w1 = a * p0 ** (a - 1)
            w2 = a * ((1 - p0) / m) ** (a - 1)
            enum = p0 * (1 - p0) * (w1 - w2) ** 2
            assert noise_and_signal_w_variance(p0, m, a) == pytest.approx(
                enum, rel=1e-12, abs=1e-12
            )


class TestVMoments:
    def test_equal_marginals_variance_zero(self):
        p = np.array([0.4, 0.35, 0.25])
        for w in (0.0, 0.3, 1.0):
            joint = JointDistribution.diagonal_mix(p, w)
            v = projection_v_moments(joint, 0.5)
            assert v.variance == pytest.approx(0.0, abs=1e-13)
            assert v.mean == pytest.approx(1.0, abs=1e-12)

    def test_product_example(self):
        joint = JointDistribution.product([0.5, 0.5], [0.9, 0.1])
        v = projection_v_moments(joint, 0.5)
        s = float(cross_power_sum([0.5, 0.5], [0.9, 0.1], 0.5))
        assert v.mean == pytest.approx(s, abs=1e-13)
        assert v.variance == pytest.approx(0.5 - s * s / 2, abs=1e-12)
        assert v.variance == pytest.approx(0.1, abs=1e-9)

    def test_mean_is_cross_power_sum(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            m = int(rng.integers(2, 20))
            mat = rng.dirichlet(np.ones(m * m)).reshape(m, m)
            joint = JointDistribution.from_dense(mat)
            a = rng.uniform(0.05, 0.95)
            v = projection_v_moments(joint, a)
            s = float(cross_power_sum(joint.row, joint.col, a))
            assert v.mean == pytest.approx(s, abs=1e-12)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            m = int(rng.integers(2, 15))
            mat = rng.dirichlet(np.ones(m * m)).reshape(m, m)
            a = rng.uniform(0.05, 0.95)
            mean, var = enumerate_v(mat, a)
            v = projection_v_moments(JointDistribution.from_dense(mat), a)
            assert v.mean == pytest.approx(mean, rel=1e-12)
            assert v.variance == pytest.approx(var, rel=1e-9, abs=1e-12)

    def test_independent_closed_form_alpha_half(self):
        # Var V = 1/2 - (sum sqrt(p q))^2 / 2 for independent marginals
        rng = np.random.default_rng(33)
        for _ in range(100):
            m = int(rng.integers(2, 40))
            p = rng.dirichlet(np.ones(m))
            q = rng.dirichlet(np.ones(m))
            v = v_moments_independent(p, q, 0.5)
            assert v.variance == pytest.approx(
                bhattacharyya_v_variance(p, q), rel=1e-10, abs=1e-12
            )
            dense = projection_v_moments(JointDistribution.product(p, q), 0.5)
            assert v.variance == pytest.approx(dense.variance, rel=1e-10, abs=1e-12)
            assert v.mean == pytest.approx(dense.mean, rel=1e-12)

    def test_support_mismatch(self):
        mat = np.array([[0.5, 0.0], [0.5, 0.0]])  # col support misses category 2
        with pytest.raises(DomainError):
            projection_v_moments(JointDistribution.from_dense(mat), 0.5)


class TestLDDiagnostic:
    def test_uniform_theorem3_condition(self):
        m = 50
        n = m**3
        rep = ld_diagnostic(ProbVector.uniform(m), None, n, 0.5)
        assert rep.degenerate_entropy_condition == pytest.approx(1.0 / m, rel=1e-12)
        assert math.isinf(rep.entropy_condition)
        assert rep.advisories["entropy_clt"] == "pass"
        assert rep.m_over_n == pytest.approx(m / n, rel=1e-12)

    def test_power_law_quotients(self):
        # frozen from a direct evaluation of the condition quotients; the
        # n = m^2.5 regime is three orders of magnitude tighter than m^0.5
        p = powerlaw_pmf(1.0, 1000)
        w = projection_w_moments(p, 0.5)
        sum_inv_sqrt = math.fsum(np.power(p.probs, -0.5).tolist())
        n_hi = int(round(1000**2.5))
        n_lo = int(round(1000**0.5))
        rep_hi = ld_diagnostic(p, None, n_hi, 0.5)
        rep_lo = ld_diagnostic(p, None, n_lo, 0.5)
        assert rep_hi.entropy_condition == pytest.approx(
            sum_inv_sqrt / math.sqrt(n_hi * w.variance), rel=1e-12
        )
        assert rep_hi.entropy_condition == pytest.approx(0.92763, abs=2e-4)
        assert rep_lo.entropy_condition / rep_hi.entropy_condition > 500
        assert rep_lo.advisories["entropy_clt"] == "fail"
        assert rep_hi.ld_ratio == pytest.approx(1.0 / (n_hi * p.probs.min()), rel=1e-12)

    def test_two_sample_conditions(self):
        p = powerlaw_pmf(0.87, 100)
        q = powerlaw_pmf(0.97, 100)
        rep = ld_diagnostic(p, q, 10**6, 0.5)
        assert rep.divergence_condition is not None
        assert rep.degenerate_divergence_condition is not None
        assert rep.p_star == pytest.approx(min(p.probs.min(), q.probs.min()), rel=1e-12)
        assert "divergence_clt" in rep.advisories

    def test_degenerate_divergence_direction(self):
        p = powerlaw_pmf(1.0, 20)
        rep = ld_diagnostic(p, p, 10**8, 0.5)
        assert math.isinf(rep.divergence_condition)
        # advisory falls back to the degenerate-regime (Theorem 4) condition
        assert rep.advisories["divergence_clt"] == "pass"

    def test_zero_mass_rejected(self):
        with pytest.raises(DomainError):
            ld_diagnostic([0.5, 0.5, 0.0], None, 100, 0.5)
        with pytest.raises(DomainError):
            ld_diagnostic([0.5, 0.5], [1.0, 0.0], 100, 0.5)

    def test_n_domain(self):
        with pytest.raises(DomainError):
            ld_diagnostic([0.5, 0.5], None, 0, 0.5)
