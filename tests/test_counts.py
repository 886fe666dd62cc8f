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
