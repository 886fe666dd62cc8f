"""Count vectors and sparse joint count tables: validation and marginals."""
import dataclasses

import numpy as np
import pytest

from renydiv import (CountVector, JointCountTable, JointDistribution, ProbVector,
                     ValidationError)


class TestJointCountTable:
    def test_dense_round_trip(self):
        mat = np.array([[3, 0, 1], [0, 0, 2], [4, 5, 0]])
        t = JointCountTable.from_dense(mat)
        assert np.array_equal(t.row_counts(), mat.sum(axis=1))
        assert np.array_equal(t.col_counts(), mat.sum(axis=0))
        assert t.n == mat.sum() and t.m == 3
        for arr in (t.rows, t.cols, t.counts):
            assert arr.dtype == np.int64
            assert not arr.flags.writeable

    def test_zero_cells_dropped(self):
        t = JointCountTable(rows=[0, 1], cols=[1, 0], counts=[0, 4], m=2)
        assert (t.rows.tolist(), t.cols.tolist(), t.counts.tolist()) == ([1], [0], [4])

    def test_fractional_dense_count_rejected(self):
        with pytest.raises(ValidationError, match="integers"):
            JointCountTable.from_dense([[1.5, 0], [0, 1]])

    def test_fractional_index_rejected(self):
        with pytest.raises(ValidationError, match="integers"):
            JointCountTable(rows=[0.5], cols=[1], counts=[3], m=2)

    def test_duplicate_cells_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            JointCountTable(rows=[0, 1, 0], cols=[1, 1, 1], counts=[2, 3, 4], m=2)

    @pytest.mark.parametrize("rows, cols", [([0, 1, 0], [1, 1, 1]), ([0, 0, 1], [1, 1, 1])],
                             ids=["unsorted", "row_major"])
    def test_duplicate_cell_message_in_any_order(self, rows, cols):
        with pytest.raises(ValidationError, match="^duplicate cells in the joint table$"):
            JointCountTable(rows=rows, cols=cols, counts=[2, 3, 4], m=2)

    def test_cells_stored_in_row_major_order(self):
        rng = np.random.default_rng(11)
        m = 9
        flat = np.sort(rng.choice(m * m, 40, replace=False))
        counts = rng.integers(1, 100, flat.size)
        shuffled = rng.permutation(flat.size)
        t = JointCountTable(flat[shuffled] // m, flat[shuffled] % m, counts[shuffled], m)
        assert t.rows.tolist() == (flat // m).tolist()
        assert t.cols.tolist() == (flat % m).tolist()
        assert t.counts.tolist() == counts.tolist()
        assert np.array_equal(t.row_counts(), np.bincount(flat // m, counts, m))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValidationError, match="one length"):
            JointCountTable(rows=[0, 1], cols=[1], counts=[2, 3], m=2)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValidationError, match="outside"):
            JointCountTable(rows=[0, 2], cols=[1, 0], counts=[2, 3], m=2)
        with pytest.raises(ValidationError, match="non-negative"):
            JointCountTable(rows=[0, -1], cols=[1, 0], counts=[2, 3], m=2)

    def test_negative_count_and_empty_table_rejected(self):
        with pytest.raises(ValidationError, match="non-negative"):
            JointCountTable(rows=[0], cols=[1], counts=[-2], m=2)
        with pytest.raises(ValidationError, match="n must be >= 1"):
            JointCountTable(rows=[0], cols=[1], counts=[0], m=2)


class TestCountVector:
    def test_shared_validation_messages(self):
        with pytest.raises(ValidationError, match="integers"):
            CountVector([1.5, 2])
        with pytest.raises(ValidationError, match="negative"):
            CountVector([3, -1])
        assert CountVector([2.0, 0.0]).counts.dtype == np.int64

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e30])
    def test_floats_off_int64_named_without_a_warning(self, value):
        # their int64 cast warns; the pointed error must come first
        with pytest.raises(ValidationError, match="counts must be integers"):
            CountVector([1.0, value])
        with pytest.raises(ValidationError, match="cell indices must be integers"):
            JointCountTable([0.0, value], [0, 1], [1, 2], 2)

    def test_a_callers_writable_array_is_copied_and_stays_writable(self):
        arr = np.array([3, 0, 2], dtype=np.int64)
        cv = CountVector(arr)
        assert not np.shares_memory(arr, cv.counts)
        assert arr.flags.writeable and not cv.counts.flags.writeable
        arr[0] = 7
        assert cv.counts.tolist() == [3, 0, 2] and cv.n == 5

    def test_a_read_only_view_of_a_writable_array_is_copied(self):
        base = np.array([3, 0, 2], dtype=np.int64)
        view = base[:]
        view.setflags(write=False)
        cv = CountVector(view)
        assert not np.shares_memory(base, cv.counts)
        base[0] = 7
        assert cv.counts.tolist() == [3, 0, 2]

    def test_a_read_only_int64_array_that_owns_its_memory_is_shared(self):
        arr = np.array([3, 0, 2], dtype=np.int64)
        arr.setflags(write=False)
        assert CountVector(arr).counts is arr


TOP = 2**63 - 1


class TestTotals:
    """Column totals are exact: one past the int64 maximum is rejected, not wrapped."""

    def test_count_vector_total_past_int64_rejected(self):
        with pytest.raises(ValidationError, match="exceeds the int64 maximum"):
            CountVector([TOP, TOP, 10])

    def test_joint_table_total_past_int64_rejected(self):
        with pytest.raises(ValidationError, match="exceeds the int64 maximum"):
            JointCountTable(rows=[0, 1, 1], cols=[1, 0, 1], counts=[TOP, TOP, 10], m=2)

    def test_total_at_int64_maximum_accepted(self):
        assert CountVector([TOP - 1, 1]).n == TOP
        assert JointCountTable(rows=[0, 1], cols=[1, 0], counts=[TOP - 1, 1], m=2).n == TOP


@pytest.mark.parametrize("make", [
    lambda: CountVector([3, 0, 2]),
    lambda: JointCountTable(rows=[0, 1], cols=[1, 0], counts=[2, 3], m=2),
], ids=["CountVector", "JointCountTable"])
def test_equality_and_hash_are_identity(make):
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b}) == 2


# each data type, the caller's arrays (and scalars) it is built from, and its array fields
_DATA_TYPES = {
    "CountVector": (CountVector, dict(counts=[3, 0, 2]), {"counts"}),
    "ProbVector": (ProbVector, dict(probs=[0.25, 0.75]), {"probs"}),
    "JointCountTable": (JointCountTable, dict(rows=[0, 1], cols=[1, 0], counts=[2, 5], m=2),
                        {"rows", "cols", "counts"}),
    "JointDistribution": (JointDistribution,
                          dict(a=[0.5, 0.5], b=[0.25, 0.75], product_mass=0.5, rows=[0, 1],
                               cols=[1, 1], vals=[0.2, 0.3]),
                          {"a", "b", "rows", "cols", "vals", "row", "col"}),
}


@pytest.mark.parametrize("name", sorted(_DATA_TYPES))
def test_arrays_are_read_only_and_owned(name):
    cls, fields, array_fields = _DATA_TYPES[name]
    given = {key: value if key in ("m", "product_mass") else np.array(value)
             for key, value in fields.items()}
    obj = cls(**given)
    held = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
            if isinstance(getattr(obj, f.name), np.ndarray)}
    assert set(held) == array_fields
    assert not any(arr.flags.writeable for arr in held.values())
    before = {key: arr.copy() for key, arr in held.items()}
    for arr in given.values():
        if isinstance(arr, np.ndarray):
            assert arr.flags.writeable  # the caller's array stays the caller's
            arr += 1
    for key, arr in held.items():
        assert np.array_equal(arr, before[key]), key


# the cells of a table on an m x m grid, and what the constructor keeps of their values;
# a JointDistribution puts all its mass in the cells, 2**-1 .. 2**-7 and 2**-7 again
_TABLES = {
    "JointCountTable": (JointCountTable, "counts", np.arange(1, 9)),
    "JointDistribution": (lambda rows, cols, vals, m: JointDistribution(
        ProbVector.uniform(m), ProbVector.uniform(m), 0.0, rows, cols, vals),
        "vals", 2.0 ** -np.array([1, 2, 3, 4, 5, 6, 7, 7])),
}


def _edge_cells(m):
    """Eight cells given out of row-major order, the last cell (m - 1, m - 1) among them;
    at m = 65,537 a 4-byte key of that cell would wrap onto the key of (1, m - 2)."""
    return np.array([(m - 1, 0), (0, m - 1), (m - 1, m - 1), (1, m - 2), (0, 0),
                     (m // 2, m // 2), (m - 2, 1), (m - 1, m - 2)]).T


# 65,536 is the last m whose last key m * m - 1 = 2**32 - 1 fits uint32; 65,537 takes int64
@pytest.mark.parametrize("m", [65_536, 65_537])
@pytest.mark.parametrize("name", sorted(_TABLES))
def test_cells_reordered_at_the_key_width_switch(name, m):
    make, field, vals = _TABLES[name]
    rows, cols = _edge_cells(m)
    table = make(rows, cols, vals, m)
    order = np.argsort(rows.astype(np.int64) * m + cols)  # the int64 reference
    assert np.array_equal(table.rows, rows[order])
    assert np.array_equal(table.cols, cols[order])
    assert np.array_equal(getattr(table, field), vals[order])


@pytest.mark.parametrize("m", [65_536, 65_537])
@pytest.mark.parametrize("name", sorted(_TABLES))
def test_duplicate_last_cell_refused_at_the_key_width_switch(name, m):
    make, _, vals = _TABLES[name]
    rows, cols = _edge_cells(m)
    rows, cols = np.append(rows, m - 1), np.append(cols, m - 1)  # key m * m - 1 twice
    with pytest.raises(ValidationError, match="duplicate cells in the joint table"):
        make(rows, cols, np.append(vals, vals[-1]), m)
