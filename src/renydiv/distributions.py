"""Probability vectors, bivariate distributions, and exponent validation."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ShapeError, ValidationError

PROB_SUM_TOL = 1e-12


def _sum(values) -> float:
    """The package's one summation, exactly rounded (math.fsum), so the same
    terms in any order give the same bits. Takes an array or an iterable."""
    if isinstance(values, np.ndarray):
        values = values.ravel().tolist()
    return math.fsum(values)


def check_alpha(alpha: float) -> float:
    """Validate the entropy/divergence exponent, restricted to 0 < alpha < 1."""
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0) or math.isnan(alpha):
        raise DomainError(f"alpha must satisfy 0 < alpha < 1, got {alpha!r}")
    return alpha


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
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @property
    def m(self) -> int:
        return int(self.probs.size)

    @classmethod
    def uniform(cls, m: int) -> "ProbVector":
        if m < 1:
            raise ValidationError("m must be >= 1")
        return cls(np.full(m, 1.0 / m))


def as_prob_vector(p) -> ProbVector:
    """Coerce an array-like or ProbVector into a validated ProbVector."""
    if isinstance(p, ProbVector):
        return p
    return ProbVector(np.asarray(p, dtype=float))


@dataclass(frozen=True)
class JointDistribution:
    """A bivariate distribution (p_ij) over m x m categories with derived marginals."""

    pij: np.ndarray
    row: np.ndarray = field(init=False)
    col: np.ndarray = field(init=False)

    def __post_init__(self):
        mat = np.asarray(self.pij, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise ValidationError("joint distribution must be a square m x m matrix")
        if not np.all(np.isfinite(mat)):
            raise ValidationError("joint distribution has non-finite entries")
        if np.any(mat < 0):
            raise ValidationError("joint distribution has negative entries")
        total = _sum(mat)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValidationError(
                f"joint probabilities sum to {total!r}, expected 1 within {PROB_SUM_TOL}"
            )
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "pij", mat)
        row = mat.sum(axis=1)
        col = mat.sum(axis=0)
        row.setflags(write=False)
        col.setflags(write=False)
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "col", col)

    @property
    def m(self) -> int:
        return int(self.pij.shape[0])

    @classmethod
    def product(cls, p, q) -> "JointDistribution":
        """Independent joint with the given marginals."""
        pv = as_prob_vector(p)
        qv = as_prob_vector(q)
        if pv.m != qv.m:
            raise ShapeError(f"marginal sizes differ: {pv.m} vs {qv.m}")
        return cls(np.outer(pv.probs, qv.probs))

    @classmethod
    def diagonal_mix(cls, p, diag_weight: float) -> "JointDistribution":
        """Equal-marginal joint: diag_weight on the diagonal copy of p, rest independent.

        p_ij = w * p_i * 1{i=j} + (1-w) * p_i * p_j. Both marginals equal p for any w.
        """
        pv = as_prob_vector(p)
        w = float(diag_weight)
        if not (0.0 <= w <= 1.0):
            raise DomainError("diag_weight must lie in [0, 1]")
        mat = (1.0 - w) * np.outer(pv.probs, pv.probs)
        mat[np.diag_indices(pv.m)] += w * pv.probs
        return cls(mat)
