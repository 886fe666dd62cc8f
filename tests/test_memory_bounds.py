"""Traced-memory bounds of the kernels that build their cell- and rank-sized arrays in place,
of the marginals a joint table shares with its count vectors, and of the buffers that a
result's arrays keep alive.

The paired null parameters hold a few bytes per cell beyond the table, and the
power-law fit about three float arrays of the positive ranks; the code before
the in-place rewrite peaked at 120-131 bytes per (m + cells) and four arrays."""
import tracemalloc

import numpy as np
import pytest

from renydiv import (CountVector, JointCountTable, JointDistribution, diversity_pipeline,
                     equality_test, filter_noise, fit_powerlaw_ls, pipeline, sample_joint)
from renydiv.io import parse_count_table
from renydiv.montecarlo import replicate_stream

from traced import held_bytes, traced_peak


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


def _zipf_counts(m, seed):
    # zero, noise and signal categories: a Zipf sample of 3 m over m categories
    w = 1.0 / np.arange(1, m + 1)
    return CountVector(np.random.default_rng(seed).multinomial(3 * m, w / w.sum()))


def test_filter_noise_decomposition_holds_its_categories_only():
    # 8 bytes per noise and per signal category; the components used to be views of an
    # argsort of every category, zeros and signal included
    cv = _zipf_counts(200_000, 21)
    dec = filter_noise(cv)
    assert dec.noise_components and dec.m_signal > 0 and cv.m_observed < cv.m
    assert held_bytes(dec) <= 8 * cv.m_observed, held_bytes(dec)


def test_diversity_pipeline_report_holds_its_categories_only():
    cx, cy = _zipf_counts(200_000, 22), _zipf_counts(200_000, 23)
    report = diversity_pipeline(cx, cy)
    assert all(d.noise_components for d in report.decompositions)
    assert held_bytes(report) <= 8 * (cx.m_observed + cy.m_observed), held_bytes(report)


def test_diversity_pipeline_gathers_each_signal_count_once(monkeypatch):
    # most categories are signal; past the decompositions and the keep mask, the two
    # gathered signal arrays peak at 16 bytes a shared signal category when each
    # CountVector shares its gather, and at 24 when it copies one
    m = 200_000
    rng = np.random.default_rng(24)

    def table():  # 10% Poisson noise under signal counts spread over 200 levels
        c = rng.choice(np.geomspace(50, 1e5, 200).astype(np.int64), m)
        c[: m // 10] = rng.poisson(3, m // 10)
        return CountVector(c)

    cx, cy = table(), table()
    seen = {}

    def traced_equality_test(sx, sy, **kwargs):  # the peak up to the two signal vectors
        seen["peak"], seen["k"] = tracemalloc.get_traced_memory()[1], sx.m
        return equality_test(sx, sy, **kwargs)

    monkeypatch.setattr(pipeline, "equality_test", traced_equality_test)
    report, _ = traced_peak(lambda: diversity_pipeline(cx, cy))
    assert seen["k"] > 0.7 * m
    assert seen["peak"] - held_bytes(report) - m <= 18 * seen["k"], seen


def test_sample_joint_table_holds_its_cells_only():
    p = np.full(2000, 1 / 2000)
    table = sample_joint(JointDistribution.diagonal_mix(p, 0.3), 200_000, replicate_stream(5, 0))
    assert held_bytes(table) <= 3 * 8 * table.counts.size, held_bytes(table)


def test_parsed_count_table_holds_its_columns_only(tmp_path):
    # one 8-byte name pointer and one int64 count per category and column
    m = 50_000
    counts = np.random.default_rng(25).integers(0, 100, (m, 2))
    path = tmp_path / "t.tsv"
    path.write_text("id\tx\ty\n" + "".join(f"c{i}\t{a}\t{b}\n" for i, (a, b) in
                                          enumerate(counts.tolist())))
    table = parse_count_table(path)
    assert np.array_equal(table.samples["y"], counts[:, 1])
    assert held_bytes(table) <= 8 * m * 3, held_bytes(table)
    assert held_bytes(table.count_vector("x")) <= 8 * m
