"""The in-place paired null parameters and power-law fit against frozen copies of the
code they replaced: every returned float is the same (==), and no input is written."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renydiv import (CountVector, JointCountTable, JointDistribution, chi_square_null_params,
                     fit_powerlaw_ls)
from renydiv.asymptotics import _null_params, _shrunken_joint_null_params, _split_diagonal
from renydiv.distributions import _sum
from renydiv.errors import DomainError, ValidationError
from renydiv.powerlaw import FitResult, _positive_sorted_counts


def reference_null_params(a, b, rows, cols, vals, marg):
    """_null_params before the in-place rewrite, kept verbatim but for its name and
    the diagonal cells it took among the others."""
    m = marg.size
    on_diag = rows == cols
    s_ii = a * b + np.bincount(rows[on_diag], vals[on_diag], minlength=m)
    mu = _sum(1.0 - s_ii / marg)
    t1 = _sum(((marg - s_ii) / marg) ** 2)
    x = a * a / marg
    if b is a:
        product = _sum(x) ** 2 - _sum(x * x)
    else:
        y, z = b * b / marg, a * b / marg
        product = 0.5 * (_sum(x) * _sum(y) + _sum(z) ** 2) - _sum(x * y)
    off = ~on_diag
    rows, cols, vals = rows[off], cols[off], vals[off]
    keys = rows * m + cols
    of = np.argsort(cols.astype(np.min_scalar_type(m - 1)), kind="stable")
    needles = (cols * m + rows)[of]
    at = np.minimum(np.searchsorted(keys, needles), keys.size - 1)
    hit = keys[at] == needles
    partner = np.zeros(vals.size)
    partner[of[hit]] = vals[at[hit]]
    mm = marg[rows] * marg[cols]
    cells = _sum((a[rows] * b[cols] + a[cols] * b[rows]) * vals / mm)
    pairs = _sum((vals * vals + vals * partner) / mm)
    return mu, t1 + product + cells + 0.5 * pairs


def reference_shrunken_joint_null_params(joint, row, col):
    """_shrunken_joint_null_params before the in-place rewrite, kept verbatim."""
    n = joint.n
    r = 0.5 * (row / n + col / n)
    keep = r > 0
    pos = np.cumsum(keep) - 1
    rm = r[keep]
    ii, jj = pos[joint.rows], pos[joint.cols]
    c = joint.counts
    delta = c / (1.0 + c) * (c / n - rm[ii] * rm[jj])
    total = _sum(rm) ** 2 + _sum(delta)
    b = rm / math.sqrt(total)
    v = delta / total
    marg = b * _sum(b) + 0.5 * (np.bincount(ii, v, minlength=rm.size)
                                + np.bincount(jj, v, minlength=rm.size))
    return reference_null_params(b, b, ii, jj, v, marg)


def reference_positive_sorted_counts(c):
    """_positive_sorted_counts before the in-place rewrite, kept verbatim."""
    arr = np.asarray(c.counts if isinstance(c, CountVector) else c, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"counts must be 1-D, got shape {arr.shape}")
    bad = np.flatnonzero(~((arr >= 0) & (arr < math.inf)))
    if bad.size:
        raise DomainError(f"count {float(arr[bad[0]])!r} at index {bad[0]} must be finite "
                          f"and >= 0")
    arr = arr[arr > 0]
    return np.sort(arr)[::-1]


def reference_fit_powerlaw_ls(c):
    """fit_powerlaw_ls before the in-place rewrite, kept verbatim."""
    counts = reference_positive_sorted_counts(c)
    k = counts.size
    if k < 3:
        raise DomainError("need at least 3 positive-count ranks to fit")
    dx = np.log(np.arange(1, k + 1, dtype=float))
    dx -= dx.mean()
    dy = np.log(counts)
    dy -= dy.mean()
    sxx = float(np.square(dx).sum())
    slope = float((dx * dy).sum()) / sxx
    dy -= slope * dx
    sse = float(np.square(dy).sum())
    se = math.sqrt(sse / (k - 2) / sxx)
    return FitResult(beta_hat=-slope, std_error=se, residual_sse=sse)


def outcome(fn, *args):
    """fn(*args), or the type and text of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # both sides must fail alike
        return type(exc), str(exc)


def assert_same_shrunken(table):
    row, col = table.row_counts(), table.col_counts()
    assert (outcome(_shrunken_joint_null_params, table, row, col)
            == outcome(reference_shrunken_joint_null_params, table, row, col))


@st.composite
def paired_tables(draw, layout):
    m = draw(st.integers(2, 40))
    index = st.integers(0, m - 1)
    pairs = draw(st.lists(st.tuples(index, index), min_size=1, max_size=60, unique=True))
    if layout == "diagonal":
        pairs = sorted({(i, i) for i, _ in pairs})
    elif layout == "no_transpose":  # the diagonal and the upper triangle
        pairs = sorted({(min(i, j), max(i, j)) for i, j in pairs})
    elif layout == "all_transpose":
        pairs = sorted({p for i, j in pairs for p in ((i, j), (j, i))})
    else:  # "shuffled": any cells, listed in a drawn order
        pairs = draw(st.permutations(pairs))
    rows, cols = (np.array(v, dtype=np.int64) for v in zip(*pairs))
    counts = draw(st.lists(st.integers(1, 10**6), min_size=len(pairs), max_size=len(pairs)))
    return JointCountTable(rows, cols, counts, m)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["diagonal", "no_transpose", "all_transpose", "shuffled"])
       .flatmap(paired_tables))
def test_shrunken_null_params_same_bits(table):
    assert_same_shrunken(table)


def random_cells(draw, m):
    """A few distinct cells of an m x m grid in row-major order, some with their
    transpose, with values of both signs."""
    index = st.one_of(st.integers(0, m - 1), st.integers(m - 4, m - 1))
    pairs = set(draw(st.lists(st.tuples(index, index), min_size=1, max_size=12)))
    pairs |= {(j, i) for i, j in draw(st.lists(st.sampled_from(sorted(pairs)), max_size=6))}
    rows, cols = (np.array(v, dtype=np.int64) for v in zip(*sorted(pairs)))
    vals = np.array(draw(st.lists(st.floats(-1e-3, 1e-3, allow_nan=False),
                                  min_size=rows.size, max_size=rows.size)))
    return rows, cols, vals


# 65,536 is the last m whose keys m * m - 1 fit uint32; 65,537 takes int64 keys
@settings(max_examples=30, deadline=None)
@given(st.sampled_from([65_535, 65_536, 65_537]), st.booleans(), st.data())
def test_null_params_same_bits_across_the_key_switch(m, one_factor, data):
    rng = np.random.default_rng(m)
    a = rng.random(m) + 0.5
    b = a if one_factor else rng.random(m) + 0.5
    marg = rng.random(m) + 0.5
    rows, cols, vals = random_cells(data.draw, m)
    assert (_null_params(a, b, *_split_diagonal(rows, cols, vals, m), marg)
            == reference_null_params(a, b, rows, cols, vals, marg))


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([65_536, 65_537]), st.data())
def test_shrunken_null_params_same_bits_across_the_key_switch(m, data):
    # every category is observed, so the kept m is the table's m
    chain = np.arange(0, m - 1, 2)
    rows, cols, _ = random_cells(data.draw, m)
    rows = np.concatenate([chain, [m - 1], rows])
    cols = np.concatenate([chain + 1, [m - 1], cols])
    flat = np.unique(rows * m + cols)
    counts = np.random.default_rng(m).integers(1, 1000, flat.size)
    assert_same_shrunken(JointCountTable(flat // m, flat % m, counts, m))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 30).flatmap(lambda m: st.tuples(
    st.just(m), st.floats(0.0, 0.9),
    st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)), max_size=20))))
def test_chi_square_null_params_same_bits(case):
    m, w, pairs = case
    p = np.random.default_rng(m).dirichlet(np.ones(m))
    sym = sorted({q for i, j in pairs for q in ((i, j), (j, i))} | {(i, i) for i in range(m)})
    rows, cols = (np.array(v, dtype=np.int64) for v in zip(*sym))
    vals = np.where(rows == cols, w * p[rows], 1e-6)
    mass = 1.0 - _sum(vals)
    joint = JointDistribution(p, p, mass, rows, cols, vals)
    assert chi_square_null_params(joint) == reference_null_params(
        joint.product_mass * joint.a, joint.b, joint.rows, joint.cols, joint.vals, joint.row)


def assert_same_fit(c):
    assert outcome(fit_powerlaw_ls, c) == outcome(reference_fit_powerlaw_ls, c)
    new, ref = (outcome(f, c) for f in (_positive_sorted_counts, reference_positive_sorted_counts))
    if isinstance(ref, np.ndarray):  # one layout, so powerlaw_qq's sums keep their order
        assert np.array_equal(new, ref) and new.strides == ref.strides
    else:
        assert new == ref


COUNT_LISTS = st.lists(st.integers(0, 10**6), max_size=300)


@settings(max_examples=150, deadline=None)
@given(COUNT_LISTS)
def test_fit_same_bits_on_a_count_vector(counts):
    if sum(counts) >= 1:
        assert_same_fit(CountVector(counts))


@settings(max_examples=150, deadline=None)
@given(COUNT_LISTS)
def test_fit_same_bits_on_int_lists(counts):
    assert_same_fit(counts)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 1e300), max_size=300))
def test_fit_same_bits_on_float_arrays(values):
    assert_same_fit(np.array(values, dtype=float))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(2**53, 2**56), min_size=3, max_size=100))  # total below 2**63
def test_fit_same_bits_on_ints_past_2_53(counts):
    assert_same_fit(CountVector(counts))
    assert_same_fit(counts)


@pytest.mark.parametrize("counts", [[9170, 3, 1], [19143, 9170, 1], list(range(9160, 9180))])
def test_fit_same_bits_where_numpy_logs_differ(counts):
    # log(9170.0) and log(19143.0) differ in the last bit between numpy's contiguous
    # float64 log and its strided one on an AVX-512 machine, and a short fit shows
    # it; the fit takes the log of the reversed view, as the code before it did
    assert_same_fit(CountVector(counts))
    assert_same_fit(counts)
    assert_same_fit(np.array(counts, dtype=float))


def test_null_params_write_no_input():
    table = JointCountTable.from_dense(np.array([[3, 1, 0], [2, 0, 5], [0, 4, 1]]))
    row, col = table.row_counts(), table.col_counts()
    for arr in (row, col):
        arr.setflags(write=False)
    before = [arr.copy() for arr in (table.rows, table.cols, table.counts, row, col)]
    _shrunken_joint_null_params(table, row, col)
    assert all(np.array_equal(x, y) for x, y in
               zip((table.rows, table.cols, table.counts, row, col), before))

    joint = JointDistribution.diagonal_mix(np.array([0.5, 0.3, 0.2]), 0.4)
    assert not any(arr.flags.writeable for arr in (joint.a, joint.b, joint.rows, joint.cols,
                                                   joint.vals, joint.row))
    chi_square_null_params(joint)

    rng = np.random.default_rng(0)
    m = 6
    args = [rng.random(m) + 0.5, rng.random(m) + 0.5, rng.random(m), np.array([0, 1, 4]),
            np.array([1, 0, 2]), np.array([0.1, -0.2, 0.3]), rng.random(m) + 0.5]
    before = [arr.copy() for arr in args]
    for arr in args:
        arr.setflags(write=False)
    _null_params(*args)
    assert all(np.array_equal(x, y) for x, y in zip(args, before))


def test_fit_writes_no_input():
    values = np.array([5.0, 0.0, 3.5, 9.0, 1.0, 2.0])
    kept = values.copy()
    fit_powerlaw_ls(values)
    assert np.array_equal(values, kept) and values.flags.writeable

    frozen = kept.copy()
    frozen.setflags(write=False)
    assert fit_powerlaw_ls(frozen) == fit_powerlaw_ls(kept)

    cv = CountVector([5, 0, 3, 9, 1, 2])
    fit_powerlaw_ls(cv)
    assert cv.counts.tolist() == [5, 0, 3, 9, 1, 2]
