"""The O(m + cells) null-parameter and V-moment kernels against the dense m x m code
they replaced."""
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from renydiv import (DomainError, JointCountTable, JointDistribution, chi_square_null_params,
                     equality_test, projection_v_moments)
from renydiv.asymptotics import _shrunken_joint_null_params
from renydiv.distributions import _sum
from renydiv.montecarlo import sample_joint
from renydiv.projections import _v_moments_cells

from dense_joint import dense_pij


def reference_null_params(pij: np.ndarray, marg: np.ndarray) -> tuple[float, float]:
    """mu_n and gamma_n^2 as the dense code computed them, from the full m x m joint."""
    diag = np.diag(pij)
    mu = _sum(1.0 - diag / marg)
    t1 = _sum(((marg - diag) / marg) ** 2)
    sym = pij + pij.T
    denom = 4.0 * np.outer(marg, marg)
    ratio = sym * sym / denom
    off = _sum(ratio) - _sum(np.diag(ratio))
    return mu, t1 + off


def reference_shrunken_joint(joint: JointCountTable) -> tuple[np.ndarray, np.ndarray]:
    """The dense shrunken plug-in joint and its pooled marginal."""
    n = joint.n
    r = 0.5 * (joint.row_counts() / n + joint.col_counts() / n)
    keep = r > 0
    pos = np.cumsum(keep) - 1
    rm = r[keep]
    prod = np.outer(rm, rm)
    shrunk = prod.copy()
    ii, jj = pos[joint.rows], pos[joint.cols]
    w = 1.0 / (1.0 + joint.counts)
    shrunk[ii, jj] = (1.0 - w) * (joint.counts / n) + w * prod[ii, jj]
    shrunk /= shrunk.sum()
    return shrunk, 0.5 * (shrunk.sum(axis=1) + shrunk.sum(axis=0))


def assert_matches(got, pij, marg):
    """Within 1e-12 of the dense reference, relative to gamma_n^2 or, when larger,
    to the diagonal ratios the reference adds into its off-diagonal sum and
    subtracts again (its own rounding error scales with their total)."""
    ref = reference_null_params(pij, marg)
    scale = max(abs(ref[1]), _sum((np.diag(pij) / marg) ** 2))
    assert abs(got[0] - ref[0]) <= 1e-12 * max(abs(ref[0]), 1.0)
    assert abs(got[1] - ref[1]) <= 1e-12 * scale


TABLE_KINDS = ("sparse", "diagonal", "single_row", "transposed_pairs", "shuffled",
               "diagonal_mix")


def random_table(kind: str, m: int, rng: np.random.Generator) -> JointCountTable:
    if kind == "diagonal_mix":
        p = rng.dirichlet(np.full(m, rng.uniform(0.2, 5.0)))
        joint = JointDistribution.diagonal_mix(p, rng.uniform())
        return sample_joint(joint, int(rng.integers(1, 20 * m * m + 2)), rng)
    k = int(rng.integers(1, m * m + 1))
    rows, cols = rng.integers(0, m, k), rng.integers(0, m, k)
    if kind == "diagonal":
        cols = rows
    elif kind == "single_row":
        rows = np.full(k, rng.integers(0, m))
    elif kind in ("transposed_pairs", "shuffled"):
        rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    flat = np.unique(rows * m + cols)
    if kind == "shuffled":  # the table stores them in row-major order again
        flat = rng.permutation(flat)
    counts = rng.integers(1, int(rng.choice([3, 100, 10**6])), flat.size)
    return JointCountTable(flat // m, flat % m, counts, m)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(TABLE_KINDS), st.integers(1, 300), st.integers(0, 2**32 - 1))
def test_shrunken_matches_dense_reference(kind, m, seed):
    table = random_table(kind, m, np.random.default_rng(seed))
    assert_matches(_shrunken_joint_null_params(table, table.row_counts(), table.col_counts()),
                   *reference_shrunken_joint(table))


def random_joint(kind: str, m: int, rng: np.random.Generator) -> JointDistribution:
    p = rng.dirichlet(np.full(m, rng.uniform(0.2, 5.0)))
    if kind == "diagonal_mix":
        return JointDistribution.diagonal_mix(p, rng.choice([0.0, 1.0, rng.uniform()]))
    mat = rng.exponential(size=(m, m)) * (rng.uniform(size=(m, m)) < rng.uniform())
    np.fill_diagonal(mat, mat.diagonal() + rng.uniform() * p)
    mat = mat + mat.T
    if kind == "circulation" and m >= 3:
        # a cycle i -> j -> k -> i moves mass off the symmetric joint and keeps both marginals
        i, j, k = rng.choice(m, 3, replace=False)
        eps = rng.uniform() * min(mat[j, i], mat[k, j], mat[i, k])
        for a, b in ((i, j), (j, k), (k, i)):
            mat[a, b] += eps
            mat[b, a] -= eps
    return JointDistribution.from_dense(mat / _sum(mat))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(("symmetric", "circulation", "diagonal_mix")), st.integers(1, 300),
       st.integers(0, 2**32 - 1))
def test_chi_square_null_params_matches_dense_reference(kind, m, seed):
    joint = random_joint(kind, m, np.random.default_rng(seed))
    assume(np.max(np.abs(joint.row - joint.col)) <= 1e-9 and np.all(joint.row > 0))
    assert_matches(chi_square_null_params(joint), dense_pij(joint), joint.row)


def reference_v_moments(pij: np.ndarray, alpha: float):
    """V moments as the dense code computed them, over every nonzero cell of the m x m joint."""
    ii, jj = np.nonzero(pij)
    return _v_moments_cells(ii, jj, pij[ii, jj], pij.sum(axis=1), pij.sum(axis=0), alpha)


JOINT_KINDS = ("product", "product_same", "diagonal_mix", "symmetric", "swapped_factors",
               "product_plus_cells")


def random_any_joint(kind: str, m: int, rng: np.random.Generator) -> JointDistribution:
    """A joint of each representation: product part, cells, or both."""
    a, b = rng.dirichlet(np.full(m, rng.uniform(0.2, 5.0)), size=2)
    if kind == "product":
        return JointDistribution.product(a, b)
    if kind == "product_same":
        return JointDistribution.product(a, a)
    if kind in ("diagonal_mix", "symmetric"):
        return random_joint(kind, m, rng)
    cells = rng.exponential(size=(m, m)) * (rng.uniform(size=(m, m)) < rng.uniform())
    if kind == "swapped_factors":
        # lam a x b plus the cells lam b x a and a symmetric part: equal marginals, b != a
        cells = cells + cells.T
        s = rng.uniform(0.0, 0.5) if cells.any() else 0.0
        cells *= s / max(_sum(cells), 1e-300)
        lam = (1.0 - s) / 2.0
        cells += lam * np.outer(b, a)
    else:
        lam = rng.uniform() if cells.any() else 1.0
        cells *= (1.0 - lam) / max(_sum(cells), 1e-300)
    rows, cols = np.nonzero(cells)
    return JointDistribution(a, b, lam, rows, cols, cells[rows, cols])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(JOINT_KINDS), st.integers(1, 80), st.integers(0, 2**32 - 1),
       st.floats(0.05, 0.95))
def test_kernels_match_the_dense_code(kind, m, seed, alpha):
    joint = random_any_joint(kind, m, np.random.default_rng(seed))
    pij = dense_pij(joint)
    if not np.array_equal(pij.sum(axis=1) > 0, pij.sum(axis=0) > 0):
        with pytest.raises(DomainError):
            projection_v_moments(joint, alpha)
        return
    got, ref = projection_v_moments(joint, alpha), reference_v_moments(pij, alpha)
    assert abs(got.mean - ref.mean) <= 1e-12 * ref.mean
    assert abs(got.variance - ref.variance) <= 1e-12 * (ref.mean ** 2 + ref.variance)
    if np.max(np.abs(joint.row - joint.col)) <= 1e-9 and np.all(joint.row > 0):
        assert_matches(chi_square_null_params(joint), pij, joint.row)


@pytest.mark.parametrize("w", [0.5, 0.99, 0.999, 0.9999])
def test_near_diagonal_joint_is_exact(w):
    # the dense reference loses ~log10(1 / (1 - w)^2) digits here; the kernel,
    # which never adds and subtracts the diagonal, keeps all of them
    rng = np.random.default_rng(4)
    for m in (3, 8, 12):
        joint = JointDistribution.diagonal_mix(rng.dirichlet(np.ones(m)), w)
        pij = [[Fraction(float(v)) for v in row] for row in dense_pij(joint)]
        marg = [Fraction(float(v)) for v in joint.row]
        gsq = sum(((marg[i] - pij[i][i]) / marg[i]) ** 2 for i in range(m)) + sum(
            (pij[i][j] + pij[j][i]) ** 2 / (4 * marg[i] * marg[j])
            for i in range(m) for j in range(m) if i != j)
        assert chi_square_null_params(joint)[1] == pytest.approx(float(gsq), rel=1e-15)


@pytest.mark.parametrize("m, cells", [(2000, 200_000), (20_000, 200_000)])
def test_paired_equality_test_memory_is_linear(m, cells):
    rng = np.random.default_rng(m)
    flat = np.unique(rng.integers(0, m * m, cells))
    table = JointCountTable(flat // m, flat % m, rng.integers(1, 50, flat.size), m)
    tracemalloc.start()
    try:
        report = equality_test(alpha=0.5, mode="paired", joint=table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(report.statistic)
    assert peak <= 200 * (m + flat.size), peak


def test_diagonal_mix_draw_and_paired_test_memory_is_linear():
    m, n = 20_000, 200_000
    p = np.arange(1, m + 1, dtype=float) ** -1.0
    p /= p.sum()
    tracemalloc.start()
    try:
        table = sample_joint(JointDistribution.diagonal_mix(p, 0.3), n, np.random.default_rng(5))
        report = equality_test(alpha=0.5, mode="paired", joint=table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.n == n and np.isfinite(report.statistic)
    assert peak <= 200 * (m + table.rows.size + n), peak
