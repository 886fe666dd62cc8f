"""The indexed inverse-CDF search of sample_joint against np.searchsorted, and sample_joint
against its code before the search, draw for draw."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from renydiv import JointDistribution, sample_joint
from renydiv import montecarlo
from renydiv.distributions import _sum
from renydiv.montecarlo import _inverse_cdf


def normalized_cdf(masses) -> np.ndarray:
    """The cdf sample_joint builds from the column factor b."""
    cdf = np.cumsum(np.asarray(masses, dtype=float))
    cdf /= cdf[-1]
    return cdf


def probes(cdf: np.ndarray, extra) -> np.ndarray:
    """0, every cdf value and its two float neighbours, and extra, all inside [0, 1)."""
    u = np.concatenate([[0.0], cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0),
                        np.asarray(extra, dtype=float)])
    return u[(u >= 0.0) & (u < 1.0)]


def assert_exact(masses, extra=()):
    cdf = normalized_cdf(masses)
    u = probes(cdf, extra)
    assert np.array_equal(_inverse_cdf(cdf, u), np.searchsorted(cdf, u, side="right"))


# zero masses give flat cdf steps; 1e-300 masses pile many steps onto one float
MASS = st.sampled_from([0.0, 1e-300, 1e-17, 1.0]) | st.floats(0.0, 1e3)


@settings(max_examples=300, deadline=None)
@given(st.lists(MASS, min_size=1, max_size=60).filter(lambda b: sum(b) > 0),
       st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=40))
@example([1.0], [])  # m = 1
@example([0.0, 0.0, 5.0, 0.0], [0.5])  # one category holds all the mass
@example([0.0] * 30 + [1.0] + [0.0] * 30, [])
@example([0.3] + [1e-300] * 200 + [0.7], [0.3, 0.3000001])  # stragglers past the passes
@example([1.0] + [1e-300] * 200, [0.999999])  # a flat run ending at 1.0
def test_indexed_search_equals_searchsorted(masses, extra):
    assert_exact(masses, extra)


def test_stragglers_take_the_binary_search(monkeypatch):
    # 200 cdf steps share one float: a draw just above it walks past all of them
    masses = [0.3] + [1e-300] * 200 + [0.7]
    cdf = normalized_cdf(masses)
    u = np.random.default_rng(3).random(10_000)
    expected = np.searchsorted(cdf, u, side="right")
    for passes in (0, 1, montecarlo._GUIDE_PASSES, 1000):
        monkeypatch.setattr(montecarlo, "_GUIDE_PASSES", passes)
        assert np.array_equal(_inverse_cdf(cdf, u), expected)
        assert_exact(masses, u)


@pytest.mark.parametrize("m", [1, 2, 3, 2000])
def test_guide_bucket_edges(m):
    # draws on and next to the guide's bucket edges j / K, where u * K may round up
    k = 4 * m + 1
    edges = np.arange(k) / k
    u = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    rng = np.random.default_rng(m)
    for masses in (np.full(m, 1.0 / m), rng.dirichlet(np.full(m, 0.3)), np.arange(1.0, m + 1)):
        assert_exact(masses, u)
    # cdf steps on the edges themselves: a draw just below an edge whose u * K rounds up to
    # it must still start below the step there
    cdf = np.append(np.sort(rng.choice(edges[1:], m - 1, replace=False)), 1.0)
    u = u[u < 1.0]
    assert np.array_equal(_inverse_cdf(cdf, u), np.searchsorted(cdf, u, side="right"))


@pytest.mark.parametrize("draws", [0, 1, 3, 50])
def test_fewer_draws_than_categories(draws):
    # the guide then has 4 * draws + 1 entries, and most draws walk past _GUIDE_PASSES
    cdf = normalized_cdf(np.random.default_rng(draws).dirichlet(np.full(5000, 0.5)))
    u = np.random.default_rng(draws + 1).random(draws)
    assert np.array_equal(_inverse_cdf(cdf, u), np.searchsorted(cdf, u, side="right"))


def reference_sample_joint(joint, n, stream):
    """sample_joint as it was before the indexed search: one np.searchsorted of every draw."""
    m, lam, vals = joint.m, joint.product_mass, joint.vals
    cell_mass = _sum(vals)
    n_product = int(stream.binomial(n, lam / (lam + cell_mass)))
    keys = np.repeat(np.arange(0, m * m, m), stream.multinomial(n_product, joint.a))
    cdf = np.cumsum(joint.b)
    cdf /= cdf[-1]
    keys += np.searchsorted(cdf, stream.random(n_product), side="right")
    if vals.size:
        per_cell = stream.multinomial(n - n_product, vals / cell_mass)
        keys = np.concatenate([keys, np.repeat(joint.rows * m + joint.cols, per_cell)])
    keys, counts = np.unique(keys, return_counts=True)
    return keys // m, keys % m, counts


def joints(m: int, rng: np.random.Generator):
    p = np.arange(1, m + 1, dtype=float) ** -1.0
    p /= p.sum()
    q = rng.dirichlet(np.full(m, 0.5))
    mat = rng.exponential(size=(m, m)) * (rng.uniform(size=(m, m)) < 0.3)
    mat[0, 0] += 1.0
    return {"product": JointDistribution.product(p, q),
            "diagonal_mix_w0": JointDistribution.diagonal_mix(q, 0.0),
            "diagonal_mix": JointDistribution.diagonal_mix(p, 0.3),
            "from_dense": JointDistribution.from_dense(mat / _sum(mat))}


def assert_same_draws(joint, n, seed):
    got = sample_joint(joint, n, np.random.default_rng(seed))
    ref = reference_sample_joint(joint, n, np.random.default_rng(seed))
    for field, expected in zip((got.rows, got.cols, got.counts), ref):
        assert np.array_equal(field, expected)
    return got


@pytest.mark.parametrize("m, n", [(1, 10), (2, 1), (7, 1000), (300, 50_000), (2000, 500),
                                  (2000, 200_000)])
def test_sample_joint_matches_the_searchsorted_code(m, n):
    for joint in joints(m, np.random.default_rng(m)).values():
        for seed in (0, 1):
            assert_same_draws(joint, n, [seed, m, n])


@pytest.mark.parametrize("m", [65_536, 65_537])
def test_sample_joint_key_width_boundary(m):
    # at m = 65536 the last cell's key m * m - 1 = 2**32 - 1 still fits 4 bytes; one more
    # category takes 8-byte keys
    p = np.full(m, 0.5 / (m - 1))
    p[-1] = 0.5
    for joint in (JointDistribution.product(p, p), JointDistribution.diagonal_mix(p, 0.3)):
        table = assert_same_draws(joint, 2000, m)
        assert (table.rows[-1], table.cols[-1]) == (m - 1, m - 1)
