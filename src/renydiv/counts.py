"""Observed count vectors and sparse bivariate count tables."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import INTEGER, M_MAX, ValidationError, check_number

INT64_MAX = int(np.iinfo(np.int64).max)


def _nonnegative_int64(values, what: str) -> np.ndarray:
    """values as an int64 array, rejecting non-integer, negative or too large entries.

    A read-only int64 array that owns its memory, such as a parsed count column,
    is returned as it is; any other input is copied, so a caller's writable array
    stays writable and later writes to it do not reach the result."""
    arr = np.asarray(values)
    if arr.dtype.kind == "c":  # no complex dtype holds counts, 3+0j included
        raise ValidationError(f"{what} must be integers")
    if arr.dtype == np.uint64 or not np.issubdtype(arr.dtype, np.integer):
        try:
            with np.errstate(invalid="ignore"):  # nan, inf and 1e30 fail the equality below
                as_int = np.asarray(arr, dtype=np.int64)  # a uint64 past INT64_MAX wraps
        except (TypeError, ValueError, OverflowError):
            as_int = None
        if as_int is None or not np.array_equal(as_int, arr):
            try:  # 2**63 compares exactly with a float or an int of any width
                first = arr[(arr >= 2**63) & (arr < np.inf)][0]
            except (TypeError, IndexError):  # a string, or nothing past INT64_MAX
                raise ValidationError(f"{what} must be integers") from None
            raise ValidationError(f"{what} must be integers: {first} exceeds the int64 maximum "
                                  f"{INT64_MAX}")
        arr = as_int
    else:
        arr = arr.astype(np.int64, copy=arr.flags.writeable or not arr.flags.owndata)
    if np.any(arr < 0):
        raise ValidationError(f"{what} must be non-negative")
    return arr


def _freeze(obj, **fields) -> None:
    """Set each field of the frozen dataclass obj, an array one read-only."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)


def _checked_total(counts: np.ndarray) -> int:
    """Exact sum of non-negative int64 counts, rejecting a sum below 1 or past INT64_MAX.

    The int64 sum cannot wrap while max * size <= INT64_MAX; only past that
    bound is the sum taken in Python ints.
    """
    if counts.size and int(counts.max()) > INT64_MAX // counts.size:
        total = sum(counts.tolist())
        if total > INT64_MAX:
            raise ValidationError(f"total count {total} exceeds the int64 maximum {INT64_MAX}")
    else:
        total = int(counts.sum())
    if total < 1:
        raise ValidationError("total count n must be >= 1")
    return total


def _cell_keys(major: np.ndarray, minor: np.ndarray, m: int) -> np.ndarray:
    """The m x m cell keys major * m + minor as a new array, the package's one key: uint32
    while every key fits 4 bytes (half the bytes to sort or search), int64 otherwise."""
    keys = major.astype(np.uint32 if m * m <= 2**32 else np.int64)
    keys *= m
    np.add(keys, minor, out=keys, casting="unsafe")  # exact: every key is below m * m
    return keys


def _coo_cells(rows, cols, values: np.ndarray, m: int):
    """(rows, cols, values) of COO cells on an m x m grid as new arrays in row-major
    order: int64 indices in 0..m-1, cells whose value is 0 dropped, a cell listed
    twice an error. Cells already in that order are checked in one pass, not sorted."""
    rows = _nonnegative_int64(rows, "cell indices")
    cols = _nonnegative_int64(cols, "cell indices")
    if not (rows.ndim == cols.ndim == values.ndim == 1
            and rows.size == cols.size == values.size):
        raise ValidationError("rows, cols and cell values must be 1-D and of one length")
    if rows.size and max(rows.max(), cols.max()) >= m:
        raise ValidationError(f"cell index outside 0..{m - 1}")
    keep = values > 0
    rows, cols, values = rows[keep], cols[keep], values[keep]
    flat = _cell_keys(rows, cols, m)
    if not np.all(flat[1:] > flat[:-1]):
        order = np.argsort(flat)
        flat = flat[order]
        if np.any(flat[1:] == flat[:-1]):
            raise ValidationError("duplicate cells in the joint table")
        rows, cols, values = rows[order], cols[order], values[order]
    return rows, cols, values


@dataclass(frozen=True, eq=False)
class CountVector:
    """Non-negative integer counts per category for a single sample, and their total n."""

    counts: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        arr = np.asarray(self.counts)
        if arr.ndim != 1 or arr.size < 1:
            raise ValidationError("count vector must be 1-D and non-empty")
        arr = _nonnegative_int64(arr, "counts")
        _freeze(self, counts=arr, n=_checked_total(arr))

    @property
    def m(self) -> int:
        return int(self.counts.size)

    @property
    def m_observed(self) -> int:
        return int(np.count_nonzero(self.counts))


def as_count_vector(c) -> CountVector:
    if isinstance(c, CountVector):
        return c
    return CountVector(np.asarray(c))


@dataclass(frozen=True, eq=False)
class JointCountTable:
    """Sparse bivariate counts over m x m categories, as COO arrays.

    Cell (rows[k], cols[k]) holds counts[k]; each occupied cell appears once,
    zero cells are dropped, and the cells are stored in row-major order (cells
    given in another order are reordered). The three arrays are read-only int64.
    """

    rows: np.ndarray
    cols: np.ndarray
    counts: np.ndarray
    m: int
    n: int = field(init=False)

    def __post_init__(self):
        m = check_number("m", self.m, INTEGER, 1, M_MAX)
        rows, cols, counts = _coo_cells(self.rows, self.cols,
                                        _nonnegative_int64(self.counts, "cell counts"), m)
        _freeze(self, rows=rows, cols=cols, counts=counts, n=_checked_total(counts))

    def row_counts(self) -> np.ndarray:
        out = np.zeros(self.m, dtype=np.int64)
        np.add.at(out, self.rows, self.counts)
        return out

    def col_counts(self) -> np.ndarray:
        out = np.zeros(self.m, dtype=np.int64)
        np.add.at(out, self.cols, self.counts)
        return out

    def marginal_count_vectors(self):
        row, col = self.row_counts(), self.col_counts()
        row.setflags(write=False)  # read-only owners, which each CountVector shares, not copies
        col.setflags(write=False)
        return CountVector(row), CountVector(col)

    @classmethod
    def from_dense(cls, matrix) -> "JointCountTable":
        mat = np.asarray(matrix)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValidationError("joint count matrix must be square")
        rows, cols = np.nonzero(mat)
        return cls(rows, cols, mat[rows, cols], m=mat.shape[0])
