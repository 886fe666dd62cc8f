"""Exception types shared across the package, and the one check of a numeric argument."""
import math
import numbers
import sys

# the kinds check_number takes: the abstract class a value must be, and its name
INTEGER = (numbers.Integral, "an integer")
REAL = (numbers.Real, "a finite real number")
# the most a size argument (a category count m, or a run's B) may be: one float64 array
# of that many is already 16 GB, and an m x m cell key of counts._cell_keys stays below 2**62
M_MAX = 2**31 - 1


class RenydivError(Exception):
    """Base class for all package-specific errors."""


class DomainError(RenydivError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class ShapeError(RenydivError, ValueError):
    """Inputs have incompatible sizes or supports."""


class ValidationError(RenydivError, ValueError):
    """A data structure violates its invariants (e.g. malformed input file)."""


class UsageError(RenydivError, ValueError):
    """The operation was called in an unsupported mode or configuration."""


class DegenerateStatisticError(RenydivError):
    """The requested CLT is degenerate for this input.

    Raised with a pointer to the appropriate degenerate-regime test
    (uniformity_test for entropy, equality_test for divergence).
    """


class UndefinedStatisticError(RenydivError):
    """The normalized statistic is undefined at this (m, n) combination."""


class NoSignalError(RenydivError):
    """Noise filtering removed everything; no shared signal support remains."""


def check_number(name: str, value, kind, lo, hi, closed: bool = True):
    """Return `value` if it is of `kind` (INTEGER, or REAL and finite), not a bool, and
    in [lo, hi] (closed) or (lo, hi). Otherwise raise ValidationError, "{name} must be
    {what}, got {value!r}", or DomainError, "{name} = {value!r} must lie in [lo, hi]"."""
    cls, what = kind
    # an int past the float range is no finite real; a bool is neither kind
    if (not isinstance(value, cls) or isinstance(value, bool)
            or cls is numbers.Real and not abs(value) <= sys.float_info.max):
        raise ValidationError(f"{name} must be {what}, got {value!r}")
    if not (lo <= value <= hi if closed else lo < value < hi):
        ends = "[]" if closed else "()"
        raise DomainError(f"{name} = {value!r} must lie in {ends[0]}{lo}, "
                          f"{hi}{ends[1] if hi < math.inf else ')'}")
    return value
