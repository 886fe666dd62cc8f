"""Exact-measure tests: frozen oracles plus the order/identity properties."""
import math
from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renydiv import (
    DomainError,
    ShapeError,
    ValidationError,
    cross_power_sum,
    hill_number,
    power_sum,
    renyi_divergence,
    renyi_entropy,
    tsallis_entropy,
)

getcontext().prec = 40


def dec_power_sum(probs, alpha):
    """High-precision oracle: sum p^alpha in 40-digit decimal arithmetic."""
    a = Decimal(str(alpha))
    return sum((Decimal(str(p)) ** a for p in probs if p > 0), Decimal(0))


def dec_cross_power_sum(p, q, alpha):
    a = Decimal(str(alpha))
    total = Decimal(0)
    for pi, qi in zip(p, q):
        if pi > 0 and qi > 0:
            total += Decimal(str(pi)) ** a * Decimal(str(qi)) ** (1 - a)
    return total


P532 = [0.5, 0.3, 0.2]


class TestPowerSum:
    def test_uniform_four(self):
        assert power_sum([0.25] * 4, 0.5) == pytest.approx(2.0, abs=1e-14)

    def test_degenerate(self):
        assert power_sum([1.0, 0.0, 0.0], 0.5) == pytest.approx(1.0, abs=1e-14)

    def test_oracle_532(self):
        expect = float(dec_power_sum(P532, 0.5))
        assert power_sum(P532, 0.5) == pytest.approx(expect, abs=1e-12)

    def test_at_least_one(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = rng.dirichlet(np.ones(rng.integers(2, 30)))
            assert power_sum(p, rng.uniform(0.05, 0.95)) >= 1.0 - 1e-12

    def test_permutation_invariant(self):
        rng = np.random.default_rng(11)
        p = rng.dirichlet(np.ones(40))
        perm = rng.permutation(40)
        assert power_sum(p, 0.3) == pytest.approx(power_sum(p[perm], 0.3), abs=1e-13)

    def test_heavy_tail_large_m_matches_decimal(self):
        # compensated accumulation keeps 1e6-scale heavy-tailed sums exact;
        # verified here at 1e4 against 40-digit decimal
        i = np.arange(1, 10_001, dtype=float)
        p = (1 / i) / math.fsum((1 / i).tolist())
        expect = float(dec_power_sum(p.tolist(), 0.5))
        assert power_sum(p, 0.5) == pytest.approx(expect, rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.3, float("nan")])
    def test_alpha_domain(self, alpha):
        # nan is no finite real number, so it fails the kind check before the range
        with pytest.raises(ValidationError if math.isnan(alpha) else DomainError):
            power_sum([0.5, 0.5], alpha)


class TestCrossPowerSum:
    def test_equal_distributions(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = rng.dirichlet(np.ones(10))
            a = rng.uniform(0.05, 0.95)
            assert float(cross_power_sum(p, p, a)) == pytest.approx(1.0, abs=1e-12)

    def test_oracle_half(self):
        expect = float(dec_cross_power_sum([0.5, 0.5], [0.9, 0.1], 0.5))
        got = cross_power_sum([0.5, 0.5], [0.9, 0.1], 0.5)
        assert float(got) == pytest.approx(expect, abs=1e-12)
        assert got.p_mass_on_null_support == 0.0

    def test_bhattacharyya_symmetry_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = rng.integers(2, 60)
            p, q = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(m))
            assert abs(cross_power_sum(p, q, 0.5) - cross_power_sum(q, p, 0.5)) <= 1e-14

    def test_null_support_diagnostic(self):
        s = cross_power_sum([0.6, 0.3, 0.1], [0.5, 0.5, 0.0], 0.5)
        expect = float(dec_cross_power_sum([0.6, 0.3], [0.5, 0.5], 0.5))
        assert float(s) == pytest.approx(expect, abs=1e-12)
        assert s.p_mass_on_null_support == pytest.approx(0.1, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            cross_power_sum([0.5, 0.5], [1.0], 0.5)


class TestEntropyDivergence:
    def test_entropy_uniform(self):
        assert renyi_entropy([0.25] * 4, 0.5) == pytest.approx(math.log(4), abs=1e-14)

    def test_entropy_degenerate(self):
        assert renyi_entropy([1.0, 0.0], 0.5) == pytest.approx(0.0, abs=1e-14)

    def test_entropy_oracle(self):
        expect = float(2 * dec_power_sum(P532, 0.5).ln())
        assert renyi_entropy(P532, 0.5) == pytest.approx(expect, abs=1e-12)

    def test_divergence_zero_iff_equal(self):
        assert float(renyi_divergence([0.3, 0.7], [0.3, 0.7], 0.5)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_divergence_oracle(self):
        expect = float(-2 * dec_cross_power_sum([0.5, 0.5], [0.9, 0.1], 0.5).ln())
        got = renyi_divergence([0.5, 0.5], [0.9, 0.1], 0.5)
        assert float(got) == pytest.approx(expect, abs=1e-12)

    def test_divergence_to_uniform_identity(self):
        # H_a(p) = log m - D_a(p, uniform)
        rng = np.random.default_rng(9)
        for _ in range(50):
            m = int(rng.integers(2, 80))
            p = rng.dirichlet(np.ones(m))
            a = rng.uniform(0.05, 0.95)
            lhs = renyi_entropy(p, a)
            rhs = math.log(m) - float(renyi_divergence(p, np.full(m, 1 / m), a))
            assert abs(lhs - rhs) <= 1e-12

    def test_tsallis_examples(self):
        assert tsallis_entropy([1.0, 0.0, 0.0], 0.5) == pytest.approx(0.0, abs=1e-14)
        assert tsallis_entropy([0.25] * 4, 0.5) == pytest.approx(2.0, abs=1e-13)
        expect = float((dec_power_sum(P532, 0.5) - 1) * 2)
        assert tsallis_entropy(P532, 0.5) == pytest.approx(expect, abs=1e-12)

    def test_hill_examples(self):
        assert hill_number([0.2] * 5, 0.3) == pytest.approx(5.0, abs=1e-12)
        assert hill_number([1.0, 0.0], 0.7) == pytest.approx(1.0, abs=1e-13)
        expect = float(dec_power_sum(P532, 0.5) ** 2)
        assert hill_number(P532, 0.5) == pytest.approx(expect, abs=1e-11)

    def test_invalid_prob_vector(self):
        with pytest.raises(ValidationError):
            renyi_entropy([0.5, 0.6], 0.5)
        with pytest.raises(ValidationError):
            renyi_entropy([1.2, -0.2], 0.5)


@st.composite
def dirichlet_pair(draw):
    m = draw(st.integers(min_value=2, max_value=25))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(m))
    q = rng.dirichlet(np.ones(m))
    a = draw(st.floats(min_value=0.02, max_value=0.93))
    b = draw(st.floats(min_value=0.02, max_value=0.05))
    return p, q, a, min(a + b, 0.98)


@settings(max_examples=150, deadline=None)
@given(dirichlet_pair())
def test_alpha_monotonicity_properties(case):
    p, q, a, b = case
    assert renyi_entropy(p, a) >= renyi_entropy(p, b) - 1e-12
    assert float(renyi_divergence(p, q, a)) <= float(renyi_divergence(p, q, b)) + 1e-12
    assert hill_number(p, a) >= hill_number(p, b) - 1e-12
    assert float(renyi_divergence(p, q, a)) >= -1e-12


@settings(max_examples=150, deadline=None)
@given(dirichlet_pair())
def test_cross_power_sum_holder_bound(case):
    # S_a(p, q) <= 1 with equality only at p = q
    p, q, a, _ = case
    assert float(cross_power_sum(p, q, a)) <= 1.0 + 1e-12
