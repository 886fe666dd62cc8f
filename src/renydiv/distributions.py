"""Probability vectors, bivariate distributions, and exponent validation."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .counts import _coo_cells, _freeze
from .errors import INTEGER, M_MAX, REAL, ShapeError, ValidationError, check_number

PROB_SUM_TOL = 1e-12
# smaller arrays go to fsum as a list: from about 800 floats on, extraction's fixed
# cost (~20-35 us) undercuts fsum's ~45 ns a float, on power-sum and random terms
_PEEL_MIN = 800


def _sum(values, mult=None) -> float:
    """The package's one summation, exactly rounded, so the same terms in any
    order give the same bits: always those of math.fsum (Shewchuk 1997) over
    the terms. Takes an array or an iterable.

    mult, an optional int64 array of one size with the array values, repeats
    term k mult[k] times. It adds values[k] * 2**j for each set bit j of
    mult[k]: a power-of-two scaling is exact, so the result has the bits of
    the sum over the repeated terms in O(values.size * log2(max mult)). A
    scaling that would overflow repeats the terms themselves instead.

    An array is cast to float64; one of _PEEL_MIN floats or more (with mult,
    the scaled terms) is then copied once and split in place by error-free extraction
    (Rump, Ogita and Oishi, "Accurate floating-point summation, Part I", 2008):
    with sigma = 2**(e + bits), |x| < 2**e and n + 1 < 2**bits,
    q = (x + sigma) - sigma holds multiples of sigma * 2**-53 whose np.sum is
    exact in any order, and x - q is exact too. Each pass strips ~53 - log2(n)
    bits, so a few passes leave a zero remainder and fsum adds only the parts.
    Arrays holding inf or nan, or whose sigma would overflow, go to fsum whole.
    """
    if mult is not None:
        t, mult = np.ravel(values), np.ravel(mult)
        top = int(mult.max()).bit_length() if mult.size else 0
        try:
            with np.errstate(over="raise"):
                values = np.concatenate(
                    [t[:0]] + [np.ldexp(t[(mult >> j) & 1 == 1], j) for j in range(top)])
        except FloatingPointError:
            values = np.repeat(t, mult)
    if not isinstance(values, np.ndarray):
        return math.fsum(values)
    x = np.asarray(values, dtype=float).ravel()
    parts = []
    if x.size >= _PEEL_MIN:
        bits = (x.size + 1).bit_length()
        x, q = x.copy(), np.empty_like(x)  # the caller's array is never written
        while True:
            mx = float(max(x.max(), -x.min()))
            if mx == 0 and parts:  # an all-zero array goes to fsum whole for its zero sign
                return math.fsum(parts)
            shift = math.frexp(mx)[1] + bits
            if not 0 < mx < math.inf or shift > 1023:
                break
            sigma = math.ldexp(1.0, shift)
            np.subtract(np.add(x, sigma, out=q), sigma, out=q)
            x -= q
            parts.append(float(q.sum()))
    return math.fsum(parts + x.tolist())


def check_alpha(alpha: float) -> float:
    """Validate the entropy/divergence exponent, restricted to 0 < alpha < 1."""
    return float(check_number("alpha", alpha, REAL, 0, 1, closed=False))


@dataclass(frozen=True)
class ProbVector:
    """A finite discrete probability distribution over m categories.

    Entries are non-negative and sum to 1 within 1e-12. The array is
    frozen read-only on construction.
    """

    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValidationError("probability vector must be 1-D and non-empty")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("probability vector has non-finite entries")
        if np.any(arr < 0):
            raise ValidationError("probability vector has negative entries")
        total = _sum(arr)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValidationError(
                f"probabilities sum to {total!r}, expected 1 within {PROB_SUM_TOL}"
            )
        _freeze(self, probs=arr.copy())

    @property
    def m(self) -> int:
        return int(self.probs.size)

    @classmethod
    def uniform(cls, m: int) -> "ProbVector":
        check_number("m", m, INTEGER, 1, M_MAX)
        return cls(np.full(m, 1.0 / m))


def as_prob_vector(p) -> ProbVector:
    """Coerce an array-like or ProbVector into a validated ProbVector."""
    if isinstance(p, ProbVector):
        return p
    return ProbVector(np.asarray(p, dtype=float))


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """A bivariate distribution over m x m categories in O(m + cells) memory:
    p_ij = product_mass * a_i b_j, plus vals[k] on each listed cell (rows[k], cols[k]).

    a and b are probability vectors of one size m. Each cell is listed at
    most once and cells of value 0 are dropped; product_mass plus the cell
    values sum to 1 within PROB_SUM_TOL. product(p, q) has no cells,
    diagonal_mix(p, w) is (1 - w) p x p plus m diagonal cells, and
    from_dense(matrix) puts all of a matrix's mass in cells. The marginals
    row and col are derived; every array is read-only.
    """

    a: np.ndarray
    b: np.ndarray
    product_mass: float = 1.0
    rows: np.ndarray = ()
    cols: np.ndarray = ()
    vals: np.ndarray = ()
    row: np.ndarray = field(init=False)
    col: np.ndarray = field(init=False)

    def __post_init__(self):
        a, b = as_prob_vector(self.a).probs, as_prob_vector(self.b).probs
        m = a.size
        if b.size != m:
            raise ShapeError(f"factor sizes differ: {m} vs {b.size}")
        lam = float(check_number("product_mass", self.product_mass, REAL, 0, 1))
        vals = np.asarray(self.vals, dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValidationError("joint distribution has non-finite entries")
        if np.any(vals < 0):
            raise ValidationError("joint distribution has negative entries")
        rows, cols, vals = _coo_cells(self.rows, self.cols, vals, m)
        total = _sum(np.append(vals, lam))
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValidationError(
                f"joint probabilities sum to {total!r}, expected 1 within {PROB_SUM_TOL}"
            )
        row = lam * a * _sum(b) + np.bincount(rows, vals, minlength=m)
        col = lam * b * _sum(a) + np.bincount(cols, vals, minlength=m)
        _freeze(self, product_mass=lam, a=a, b=b, rows=rows, cols=cols, vals=vals, row=row,
                col=col)

    @property
    def m(self) -> int:
        return int(self.a.size)

    @classmethod
    def product(cls, p, q) -> "JointDistribution":
        """Independent joint with the given marginals."""
        return cls(p, q)

    @classmethod
    def diagonal_mix(cls, p, diag_weight: float) -> "JointDistribution":
        """Equal-marginal joint: diag_weight on the diagonal copy of p, rest independent.

        p_ij = w * p_i * 1{i=j} + (1-w) * p_i * p_j. Both marginals equal p for any w.
        """
        pv = as_prob_vector(p)
        w = check_number("diag_weight", diag_weight, REAL, 0, 1)
        diag = np.arange(pv.m)
        return cls(pv, pv, 1.0 - w, diag, diag, w * pv.probs)

    @classmethod
    def from_dense(cls, matrix) -> "JointDistribution":
        """The joint whose cells are the nonzero entries of a square matrix; its
        product part has mass 0 (a and b are then uniform and weigh nothing)."""
        mat = np.asarray(matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise ValidationError("joint distribution must be a square m x m matrix")
        rows, cols = np.nonzero(mat)
        uniform = ProbVector.uniform(mat.shape[0])
        return cls(uniform, uniform, 0.0, rows, cols, mat[rows, cols])
