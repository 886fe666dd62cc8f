"""Traced-memory bounds of the kernels that build their cell- and rank-sized arrays in place,
and of the marginals a joint table shares with its count vectors.

The paired null parameters hold a few bytes per cell beyond the table, and the
power-law fit about three float arrays of the positive ranks; the code before
the in-place rewrite peaked at 120-131 bytes per (m + cells) and four arrays."""
import numpy as np
import pytest

from renydiv import CountVector, JointCountTable, equality_test, fit_powerlaw_ls

from traced import traced_peak


@pytest.mark.parametrize("m", [2000, 20_000, 70_000])  # 70,000: int64 transpose keys
def test_paired_equality_test_per_m_plus_cells(m):
    rng = np.random.default_rng(m)
    flat = np.unique(rng.integers(0, m * m, 200_000))
    table = JointCountTable(flat // m, flat % m, rng.integers(1, 50, flat.size), m)
    report, peak = traced_peak(lambda: equality_test(alpha=0.5, mode="paired", joint=table))
    assert np.isfinite(report.statistic)
    assert peak <= 90 * (m + flat.size), peak


@pytest.mark.parametrize("kind", ["count_vector", "float_array"])
def test_fit_powerlaw_ls_holds_three_rank_arrays(kind):
    k = 200_000
    counts = np.random.default_rng(1).integers(1, 1000, k)
    arg = CountVector(counts) if kind == "count_vector" else counts * 0.37
    fit, peak = traced_peak(lambda: fit_powerlaw_ls(arg))
    assert np.isfinite(fit.beta_hat)
    assert peak <= 3 * 8 * k + k, peak


def test_marginal_count_vectors_share_their_fresh_arrays():
    # two m-sized int64 marginals and no copy of either (the copies peaked at 25 bytes
    # per category); row_counts() and col_counts() still hand out writable arrays
    m = 200_000
    rng = np.random.default_rng(3)
    flat = np.unique(rng.integers(0, m * m, 20_000))
    table = JointCountTable(flat // m, flat % m, rng.integers(1, 50, flat.size), m)
    (row, col), peak = traced_peak(table.marginal_count_vectors)
    assert np.array_equal(row.counts, table.row_counts())
    assert np.array_equal(col.counts, table.col_counts())
    assert peak <= 2 * 8 * m + 2 * m, peak
    assert table.row_counts().flags.writeable and table.col_counts().flags.writeable
