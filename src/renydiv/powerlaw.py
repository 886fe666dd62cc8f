"""Zipf-type power-law models: construction, least-squares fitting, QQ data."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .counts import CountVector
from .distributions import ProbVector, _real, _sum
from .errors import INTEGER, M_MAX, REAL, DomainError, ShapeError, ValidationError, check_number


@dataclass(frozen=True)
class PowerLawModel:
    """p_i proportional to i^(-beta) on ranks i = 1..m, normalized by h_norm."""

    beta: float
    m: int
    h_norm: float

    def pmf(self) -> ProbVector:
        i = np.arange(1, self.m + 1, dtype=float)
        return ProbVector(i ** (-self.beta) / self.h_norm)


@dataclass(frozen=True)
class FitResult:
    beta_hat: float
    std_error: float
    residual_sse: float


def powerlaw_pmf(beta: float, m: int) -> ProbVector:
    """Normalized power law with exponent beta > 0 on m ranks.

    For 0 < beta < 1 the normalizing constant grows like m^(1-beta)/(1-beta).
    """
    return powerlaw_model(beta, m).pmf()


def powerlaw_model(beta: float, m: int) -> PowerLawModel:
    check_number("beta", beta, REAL, 0, math.inf, closed=False)
    check_number("m", m, INTEGER, 1, M_MAX)
    i = np.arange(1, m + 1, dtype=float)
    h = _sum(i ** (-float(beta)))
    return PowerLawModel(beta=float(beta), m=int(m), h_norm=h)


def _positive_sorted_counts(c) -> np.ndarray:
    """The positive counts of c as floats in descending order, a reversed view of a new
    array; a negative or non-finite count is a DomainError that names the first one."""
    if isinstance(c, CountVector):  # checked int64: sorted before the cast, which keeps order
        arr = c.counts[c.counts > 0]
        arr.sort()
        return arr.astype(float)[::-1]
    arr = _real(c, "counts")
    if arr.ndim != 1:
        raise ValidationError(f"counts must be 1-D, got shape {arr.shape}")
    bad = np.flatnonzero(~((arr >= 0) & (arr < math.inf)))
    if bad.size:
        raise DomainError(f"count {float(arr[bad[0]])!r} at index {bad[0]} must be finite "
                          f"and >= 0")
    arr = arr[arr > 0]
    arr.sort()
    return arr[::-1]


def fit_powerlaw_ls(c) -> FitResult:
    """Least-squares exponent fit on the log rank-frequency line.

    Ordinary least squares of log(count of the rank-i category) on log(i)
    over all positive-count ranks; beta_hat = -slope, std_error the usual
    OLS slope standard error. Counts may be real-valued (the fit is scale
    invariant; the intercept absorbs any positive factor); zeros are skipped,
    and a negative or non-finite count is a DomainError.
    """
    counts = _positive_sorted_counts(c)
    k = counts.size
    if k < 3:
        raise DomainError("need at least 3 positive-count ranks to fit")
    # numpy's log of the reversed view: an in-place log takes the contiguous loop,
    # whose last bit differs on some counts
    dy = np.log(counts)
    del counts
    dy -= dy.mean()
    dx = np.arange(1, k + 1, dtype=float)   # log ranks, centred
    np.log(dx, out=dx)
    dx -= dx.mean()
    scratch = np.square(dx)
    sxx = float(scratch.sum())
    slope = float(np.multiply(dx, dy, out=scratch).sum()) / sxx
    dy -= np.multiply(dx, slope, out=scratch)   # the residuals
    sse = float(np.square(dy, out=scratch).sum())
    se = math.sqrt(sse / (k - 2) / sxx)
    return FitResult(beta_hat=-slope, std_error=se, residual_sse=sse)


def powerlaw_qq(c, model: PowerLawModel) -> list[tuple[float, float]]:
    """(model quantile, empirical quantile) pairs over a rank grid.

    Quantiles are ranks: the empirical side uses the count-ordered CDF, the
    model side the power law's CDF. A sample drawn from the model lands on
    the diagonal up to sampling error; an exponent mismatch shows as
    systematic curvature. Empty counts give an empty sequence.
    """
    if not isinstance(model, PowerLawModel):
        raise ShapeError("powerlaw_qq expects a PowerLawModel")
    counts = _positive_sorted_counts(c)
    if counts.size == 0:
        return []
    n = counts.sum()
    emp_cdf = np.cumsum(counts) / n
    model_cdf = np.cumsum(model.pmf().probs)
    grid = (np.arange(1, counts.size + 1) - 0.5) / counts.size
    emp_q = np.searchsorted(emp_cdf, grid, side="left") + 1
    mod_q = np.searchsorted(model_cdf, grid, side="left") + 1
    mod_q = np.minimum(mod_q, model.m)
    return [(float(mq), float(eq)) for mq, eq in zip(mod_q, emp_q)]
