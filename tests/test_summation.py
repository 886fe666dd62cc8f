"""distributions._sum: the same bits as math.fsum on any array, and fsum kept off large ones."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from renydiv import distributions, divergence_ci, entropy_ci, measures, powerlaw_pmf
from renydiv.distributions import _PEEL_MIN, _sum

SIZES = st.sampled_from([0, 1, 2, _PEEL_MIN - 1, _PEEL_MIN, _PEEL_MIN + 1, 3 * _PEEL_MIN])
SPECIALS = st.lists(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | st.sampled_from([1e308, -1e308, 1e300, -1e300, 5e-324, -5e-324, -0.0]),
    max_size=4,
)


@st.composite
def float_arrays(draw):
    """Random magnitudes 2**lo..2**hi with drawn signs, optionally cancelling
    copies and a few drawn special values, laid out 1-D, 2-D or strided."""
    n = draw(SIZES | st.integers(0, 2 * _PEEL_MIN))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = draw(st.integers(-1080, 1024))
    hi = draw(st.integers(lo, 1024))
    x = np.ldexp(rng.random(n), rng.integers(lo, hi, n, endpoint=True))
    signs = draw(st.sampled_from(["positive", "negative", "mixed"]))
    if signs == "negative":
        x = -x
    elif signs == "mixed":
        x *= rng.choice([-1.0, 1.0], n)
    if draw(st.booleans()):  # cancelling pairs around the rest
        k = draw(st.integers(0, n))
        x = np.concatenate([x, -x[:k]])
        rng.shuffle(x)
    specials = draw(SPECIALS)
    if specials and x.size:
        x[rng.integers(0, x.size, len(specials))] = specials
    layout = draw(st.sampled_from(["flat", "2d", "fortran", "strided"]))
    if layout == "2d" and x.size % 2 == 0:
        x = x.reshape(2, -1)
    elif layout == "fortran" and x.size % 2 == 0:
        x = np.asfortranarray(x.reshape(-1, 2))
    elif layout == "strided":
        x = x[::2]
    return x


def _fsum_or_error(x):
    try:
        return math.fsum(np.asarray(x, float).ravel().tolist()).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc)


def _sum_or_error(x):
    try:
        return _sum(x).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(float_arrays())
@example(np.array([1e308, -1e308, 1.0] * 2000))
@example(np.array([1e300, -1e300] + [1e-300] * (2 * _PEEL_MIN)))
@example(np.array([-0.0] * _PEEL_MIN))
@example(np.array([math.inf, -math.inf] * _PEEL_MIN))
@example(np.array([1e308] * 2 * _PEEL_MIN))
def test_sum_is_fsum_bit_for_bit(x):
    x.setflags(write=False)
    before = x.copy()
    assert _sum_or_error(x) == _fsum_or_error(x)
    assert np.array_equal(x, before, equal_nan=True)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3 * _PEEL_MIN), st.integers(0, 2**32 - 1),
       st.sampled_from([2**20, 2**53, 2**62]))
def test_int64_sum_is_fsum_of_floats(n, seed, bound):
    x = np.random.default_rng(seed).integers(-bound, bound, n)
    assert _sum(x).hex() == _fsum_or_error(x)
    assert _sum(x[::3]).hex() == _fsum_or_error(x[::3])


def _exact(values, mult) -> float:
    """sum_k values[k] * mult[k] in rationals, rounded once to the nearest float."""
    return float(sum(Fraction(v) * k for v, k in zip(values.tolist(), mult.tolist())))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e290, 1e290, allow_subnormal=True), max_size=60),
       st.integers(0, 2**32 - 1), st.sampled_from([1, 3, 2**12, 2**31 - 1]))
@example([1e16, 1.0, -1e16], 0, 1)
@example([5e-324, -1e-310, 2.2250738585072014e-308], 0, 2**31 - 1)
def test_sum_with_multiplicities_is_exactly_rounded(values, seed, top):
    x = np.array(values, dtype=float)
    mult = np.random.default_rng(seed).integers(0, top, x.size, endpoint=True)
    assert _sum(x, mult).hex() == _exact(x, mult).hex()
    assert _sum(x, np.ones(x.size, np.int64)).hex() == _fsum_or_error(x)


def test_sum_with_multiplicities_edges():
    cancel = np.array([1e16, 1.0, -1e16])
    for mult in ([1, 1, 1], [3, 5, 3], [2**31 - 1, 7, 2**31 - 1], [0, 2**31 - 1, 0]):
        mult = np.array(mult)
        assert _sum(cancel, mult) == _exact(cancel, mult)
    tiny = np.array([5e-324, 1e-320])
    assert _sum(tiny, np.array([2**31 - 1, 3])) == _exact(tiny, np.array([2**31 - 1, 3]))
    assert _sum(np.array([2.5, 1.0]), np.array([0, 0])) == 0.0
    assert _sum(np.array([]), np.array([], dtype=np.int64)) == 0.0
    # a scaling past the float range sums the repeated terms, as fsum would
    with pytest.raises(OverflowError):
        _sum(np.array([1e308]), np.array([2]))


def test_iterables_go_to_fsum():
    terms = [0.1] * 10 + [1e100, -1e100]
    assert _sum(iter(terms)) == math.fsum(terms)


class _CountingMath:
    """Stands in for `math` in the distributions namespace and counts fsum elements."""

    def __init__(self):
        self.sizes = []

    def __getattr__(self, name):
        return getattr(math, name)

    def fsum(self, values):
        values = list(values)
        self.sizes.append(len(values))
        return math.fsum(values)


def test_large_sums_bypass_fsum(monkeypatch):
    m = 100_000
    p = powerlaw_pmf(1.0, m).probs
    cx = np.round(p * 1e7).astype(np.int64) + 1
    cy = np.round(powerlaw_pmf(0.9, m).probs * 1e7).astype(np.int64) + 1

    def run():
        counting = _CountingMath()
        monkeypatch.setattr(distributions, "math", counting)
        out = (entropy_ci(cx, 0.5), divergence_ci(cx, cy, 0.5))
        monkeypatch.setattr(distributions, "math", math)
        return out, sum(counting.sizes)

    fast, fast_elements = run()
    monkeypatch.setattr(distributions, "_PEEL_MIN", 2**62)  # every array to fsum whole
    monkeypatch.setattr(measures, "_GROUP_MIN", 2**62)  # one term per category
    whole, whole_elements = run()
    assert repr(fast) == repr(whole)
    assert whole_elements > 10 * m
    assert fast_elements < 0.01 * whole_elements
