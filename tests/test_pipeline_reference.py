"""filter_noise against its pre-sort reference; the homogeneity p-value against scipy.stats."""
import math

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
        ["list", "poisson", "mixture", "dirichlet", "small", "geometric", "near_uniform"]))
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
    else:
        c = rng.poisson(rng.uniform(100.0, 3000.0), m) + 1
    c[0] += c.sum() == 0  # n >= 1
    return c


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


@pytest.mark.parametrize("k, betas", [(2, (1.0, 1.0)), (3, (1.0, 1.0)), (3, (0.87, 0.97)),
                                      (5, (1.0, 1.05)), (8, (1.0, 1.0))])
def test_homogeneity_p_value_is_the_chi2_upper_tail(k, betas):
    rng = np.random.default_rng(100 + k)
    p, q = (powerlaw_pmf(b, 150).probs for b in betas)
    pairs = [(rng.multinomial(20_000, p), rng.multinomial(20_000, q)) for _ in range(k)]
    rep = homogeneity_test(pairs, alpha=0.5)
    assert rep.p_value == chi2.sf(rep.statistic, k)
