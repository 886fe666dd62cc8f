"""JointDistribution as a product part plus COO cells: representation and validation."""
import numpy as np
import pytest

from renydiv import DomainError, JointDistribution, ShapeError, ValidationError

from dense_joint import dense_pij

P = np.array([0.5, 0.3, 0.2])
Q = np.array([0.1, 0.6, 0.3])


class TestRepresentation:
    def test_product_has_no_cells(self):
        joint = JointDistribution.product(P, Q)
        assert joint.product_mass == 1.0 and joint.rows.size == 0
        assert np.allclose(dense_pij(joint), np.outer(P, Q), rtol=0, atol=1e-16)
        assert np.allclose(joint.row, P, rtol=0, atol=1e-16)
        assert np.allclose(joint.col, Q, rtol=0, atol=1e-16)

    @pytest.mark.parametrize("w", [0.0, 0.4, 1.0])
    def test_diagonal_mix_is_product_plus_diagonal_cells(self, w):
        joint = JointDistribution.diagonal_mix(P, w)
        assert joint.product_mass == 1.0 - w
        cells = 0 if w == 0 else P.size
        assert joint.rows.tolist() == joint.cols.tolist() == list(range(cells))
        assert np.allclose(joint.vals, w * P[:cells], rtol=0, atol=1e-16)
        expected = (1.0 - w) * np.outer(P, P) + w * np.diag(P)
        assert np.allclose(dense_pij(joint), expected, rtol=0, atol=1e-16)
        assert np.allclose(joint.row, P, rtol=0, atol=1e-16)
        assert np.allclose(joint.col, P, rtol=0, atol=1e-16)

    def test_from_dense_puts_all_mass_in_cells(self):
        mat = np.array([[0.3, 0.0, 0.1], [0.0, 0.2, 0.0], [0.25, 0.0, 0.15]])
        joint = JointDistribution.from_dense(mat)
        assert joint.product_mass == 0.0 and joint.rows.size == 5
        assert np.array_equal(dense_pij(joint), mat)
        assert np.allclose(joint.row, mat.sum(axis=1), rtol=0, atol=1e-16)
        assert np.allclose(joint.col, mat.sum(axis=0), rtol=0, atol=1e-16)

    def test_general_joint_marginals(self):
        joint = JointDistribution(P, Q, 0.5, [0, 2], [1, 2], [0.2, 0.3])
        mat = 0.5 * np.outer(P, Q)
        mat[0, 1] += 0.2
        mat[2, 2] += 0.3
        assert np.allclose(joint.row, mat.sum(axis=1), rtol=0, atol=1e-16)
        assert np.allclose(joint.col, mat.sum(axis=0), rtol=0, atol=1e-16)

    def test_cells_stored_in_row_major_order(self):
        rows, cols, vals = [2, 0, 1, 0], [0, 2, 1, 0], [0.1, 0.2, 0.0, 0.3]
        joint = JointDistribution(P, Q, 0.4, rows, cols, vals)
        assert (joint.rows.tolist(), joint.cols.tolist(), joint.vals.tolist()) == (
            [0, 0, 2], [0, 2, 0], [0.3, 0.2, 0.1])
        mat = 0.4 * np.outer(P, Q)
        mat[rows, cols] += vals
        assert np.allclose(joint.row, mat.sum(axis=1), rtol=0, atol=1e-16)
        assert np.allclose(joint.col, mat.sum(axis=0), rtol=0, atol=1e-16)

    def test_arrays_are_one_dimensional_and_read_only(self):
        joint = JointDistribution.diagonal_mix(P, 0.4)
        for arr in (joint.a, joint.b, joint.rows, joint.cols, joint.vals, joint.row, joint.col):
            assert arr.ndim == 1 and not arr.flags.writeable
        assert joint.rows.dtype == np.int64 and joint.m == 3


class TestValidation:
    @pytest.mark.parametrize("kwargs, message", [
        (dict(product_mass=0.5, rows=[0, 0], cols=[1, 1], vals=[0.25, 0.25]), "duplicate"),
        (dict(product_mass=0.5, rows=[0], cols=[3], vals=[0.5]), "outside"),
        (dict(product_mass=0.5, rows=[0, 1], cols=[0, 1], vals=[0.75, -0.25]), "negative"),
        (dict(product_mass=0.5, rows=[0], cols=[0], vals=[np.nan]), "non-finite"),
        (dict(product_mass=0.5, rows=[0], cols=[0], vals=[0.4]), "sum to"),
        (dict(product_mass=1.5, rows=[0], cols=[0], vals=[0.0]), "product_mass"),
        (dict(product_mass=-0.5, rows=[0], cols=[0], vals=[1.5]), "product_mass"),
        (dict(product_mass=0.5, rows=[0.5], cols=[0], vals=[0.5]), "integers"),
        (dict(product_mass=0.5, rows=[0, 1], cols=[0], vals=[0.5]), "one length"),
    ])
    def test_bad_cells_rejected(self, kwargs, message):
        # product_mass is a scalar argument: off [0, 1] it is a DomainError
        error = DomainError if message == "product_mass" else ValidationError
        with pytest.raises(error, match=message):
            JointDistribution(P, Q, **kwargs)

    @pytest.mark.parametrize("rows, cols", [([0, 0, 1], [1, 1, 2]), ([1, 0, 1], [2, 1, 2])],
                             ids=["row_major", "unsorted"])
    def test_duplicate_cell_message_in_any_order(self, rows, cols):
        with pytest.raises(ValidationError, match="^duplicate cells in the joint table$"):
            JointDistribution(P, Q, 0.5, rows, cols, [0.2, 0.1, 0.2])

    def test_factor_sizes_must_match(self):
        with pytest.raises(ShapeError):
            JointDistribution.product(P, [0.5, 0.5])

    def test_factors_must_be_probability_vectors(self):
        with pytest.raises(ValidationError):
            JointDistribution([0.5, 0.6], [0.5, 0.5])

    @pytest.mark.parametrize("mat", [[[0.5, 0.5]], [0.5, 0.5], [[[1.0]]]])
    def test_from_dense_needs_a_square_matrix(self, mat):
        with pytest.raises(ValidationError, match="square"):
            JointDistribution.from_dense(mat)
