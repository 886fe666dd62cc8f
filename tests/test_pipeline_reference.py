"""filter_noise against its pre-sort reference; the homogeneity p-value against scipy.stats."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from renydiv import homogeneity_test, powerlaw_pmf
from renydiv.asymptotics import normal_quantile
from renydiv.counts import as_count_vector
from renydiv.pipeline import MixtureDecomposition, NoiseComponent, filter_noise


def _block_z(counts: np.ndarray) -> float:
    mb = counts.size
    if mb < 2:
        return -1.0 / math.sqrt(2.0)
    mean = counts.sum() / mb
    x2 = float(((counts - mean) ** 2).sum()) / mean
    return (x2 - mb) / math.sqrt(2.0 * mb)


def reference_filter_noise(c, level=0.01, max_K=2) -> MixtureDecomposition:
    """filter_noise as it was before the one-sort rewrite: every candidate block
    is rebuilt from the category indices of its count values and summed in floats."""
    cv = as_count_vector(c)
    counts = cv.counts
    n = cv.n
    order = np.nonzero(counts > 0)[0]
    values = np.unique(counts[order])
    zcrit = normal_quantile(1.0 - level)

    components = []
    cur_idx, cur_values = [], []
    stopped = False

    def close_current():
        idx = np.concatenate(cur_idx)
        mean_count = float(counts[idx].astype(float).mean())
        components.append(
            NoiseComponent(categories=idx, level=mean_count / n, mean_count=mean_count)
        )

    for v in values:
        stratum_idx = order[counts[order] == v]
        cand_counts = counts[np.concatenate(cur_idx + [stratum_idx])].astype(float)
        if _block_z(cand_counts) > zcrit:
            if len(cur_values) <= 1:
                stopped = True
                break
            close_current()
            cur_idx, cur_values = [stratum_idx], [int(v)]
            if len(components) >= max_K:
                stopped = True
                break
        else:
            cur_idx.append(stratum_idx)
            cur_values.append(int(v))

    if not stopped and cur_values:
        close_current()

    noise_idx = (
        np.concatenate([comp.categories for comp in components])
        if components else np.array([], dtype=np.int64)
    )
    cutoff = int(counts[noise_idx].max()) if noise_idx.size else 0
    noise_mask = np.zeros(cv.m, dtype=bool)
    noise_mask[noise_idx] = True
    signal_categories = np.nonzero((counts > 0) & ~noise_mask)[0]
    noise_total = int(counts[noise_mask].sum())
    return MixtureDecomposition(
        cutoff_k_m=cutoff,
        noise_components=components,
        signal_categories=signal_categories,
        noise_fraction=noise_total / n,
        signal_fraction=1.0 - noise_total / n,
        m_signal=int(signal_categories.size),
    )


@st.composite
def count_tables(draw):
    """Small hand-made lists plus seeded tables of the shapes the filter meets.

    Every total stays far below 2**53, where the reference's float sums are
    exact; the rewrite sums exact integers at any size.
    """
    kind = draw(st.sampled_from(
        ["list", "poisson", "mixture", "dirichlet", "small", "geometric", "near_uniform",
         "wide", "constant"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 3000))
    if kind == "list":
        c = np.array(draw(st.lists(st.integers(0, 40), min_size=1, max_size=200)))
    elif kind == "poisson":
        c = rng.poisson(rng.uniform(0.3, 40.0), m)
    elif kind == "mixture":
        c = np.concatenate([rng.poisson(rng.uniform(0.5, 4.0), m),
                            rng.poisson(rng.uniform(8.0, 30.0), m // 3 + 1),
                            rng.zipf(1.6, m // 5 + 1) * 10])
    elif kind == "dirichlet":
        c = rng.multinomial(5 * m, rng.dirichlet(np.full(m, rng.uniform(0.1, 5.0))))
    elif kind == "small":
        c = rng.integers(0, 4, m)
    elif kind == "geometric":
        c = rng.geometric(rng.uniform(0.05, 0.9), m)
    elif kind == "near_uniform":
        c = rng.poisson(rng.uniform(100.0, 3000.0), m) + 1
    elif kind == "wide":
        c = wide_table(rng, m, draw(st.sampled_from([400.0, 3000.0, 1e5])))
    else:
        c = np.full(m, draw(st.integers(1, 2**30))) * (rng.random(m) < 0.9)
    c[0] += c.sum() == 0  # n >= 1
    return c


def wide_table(rng, m: int, mean: float) -> np.ndarray:
    """A Poisson(mean) noise block, some zeros, and a spread-out signal far above it.

    At a mean of 400 or more the noise cutoff passes 2**8, at 1e5 it passes 2**16,
    so filter_noise sorts on a uint16 or a uint32 key.
    """
    return np.concatenate([rng.poisson(mean, m) + 1, np.zeros(m // 7, dtype=np.int64),
                           rng.integers(int(3 * mean), int(40 * mean), m // 4 + 1)])


@settings(max_examples=300, deadline=None)
@given(count_tables(),
       st.one_of(st.sampled_from([0.001, 0.01, 0.05, 0.2]), st.floats(0.0005, 0.9)),
       st.integers(1, 4))
def test_filter_noise_matches_reference(c, level, max_K):
    got = filter_noise(c, level=level, max_K=max_K)
    want = reference_filter_noise(c, level=level, max_K=max_K)
    assert got.cutoff_k_m == want.cutoff_k_m and type(got.cutoff_k_m) is int
    assert got.m_signal == want.m_signal
    assert got.noise_fraction == want.noise_fraction
    assert got.signal_fraction == want.signal_fraction
    assert got.signal_categories.tolist() == want.signal_categories.tolist()
    assert len(got.noise_components) == len(want.noise_components)
    for g, w in zip(got.noise_components, want.noise_components):
        assert g.categories.tolist() == w.categories.tolist()  # order included
        assert g.level == w.level and g.mean_count == w.mean_count


def assert_matches(got: MixtureDecomposition, want: MixtureDecomposition) -> None:
    assert (got.cutoff_k_m, got.m_signal) == (want.cutoff_k_m, want.m_signal)
    assert (got.noise_fraction, got.signal_fraction) == (want.noise_fraction,
                                                         want.signal_fraction)
    # the CLI's NameList indexes the name table with these arrays
    assert got.signal_categories.dtype == np.intp
    assert got.signal_categories.tolist() == want.signal_categories.tolist()
    assert len(got.noise_components) == len(want.noise_components)
    for g, w in zip(got.noise_components, want.noise_components):
        assert g.categories.dtype == np.intp
        assert g.categories.tolist() == w.categories.tolist()
        assert (g.level, g.mean_count) == (w.level, w.mean_count)


@pytest.mark.parametrize("mean, low", [(400.0, 2**8), (3000.0, 2**8), (1e5, 2**16)])
@pytest.mark.parametrize("max_K", [1, 2])
def test_cutoffs_past_8_and_16_bits_match_reference(mean, low, max_K):
    c = wide_table(np.random.default_rng(int(mean)), 3000, mean)
    got = filter_noise(c, max_K=max_K)
    assert got.cutoff_k_m >= low and got.m_signal > 0
    assert_matches(got, reference_filter_noise(c, max_K=max_K))


@pytest.mark.parametrize("c", [np.full(500, 7), np.array([0, 2**40, 0, 2**40]),
                               np.array([2**63 - 1]),
                               np.random.default_rng(3).poisson(60.0, 2000) + 1])
def test_all_noise_matches_reference(c):
    got = filter_noise(c)
    assert got.m_signal == 0 and got.cutoff_k_m == c.max()
    assert_matches(got, reference_filter_noise(c))


@settings(max_examples=100, deadline=None)
@given(count_tables(), st.integers(1, 4))
def test_category_indexes_are_intp(c, max_K):
    assert_matches(filter_noise(c, max_K=max_K), reference_filter_noise(c, max_K=max_K))


def test_filter_noise_memory_per_category():
    # two full stable int64 argsorts of the counts peaked at 17 bytes a category here
    m = 200_000
    w = 1.0 / np.arange(1, m + 1)
    cv = as_count_vector(np.random.default_rng(11).multinomial(10 * m, w / w.sum()) + 1)
    filter_noise(cv)
    tracemalloc.start()
    try:
        dec = filter_noise(cv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dec.noise_components and dec.m_signal > 0
    assert peak <= 14 * m


@pytest.mark.parametrize("k, betas", [(2, (1.0, 1.0)), (3, (1.0, 1.0)), (3, (0.87, 0.97)),
                                      (5, (1.0, 1.05)), (8, (1.0, 1.0))])
def test_homogeneity_p_value_is_the_chi2_upper_tail(k, betas):
    rng = np.random.default_rng(100 + k)
    p, q = (powerlaw_pmf(b, 150).probs for b in betas)
    pairs = [(rng.multinomial(20_000, p), rng.multinomial(20_000, q)) for _ in range(k)]
    rep = homogeneity_test(pairs, alpha=0.5)
    assert rep.p_value == chi2.sf(rep.statistic, k)
