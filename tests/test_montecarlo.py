"""Simulation harness: determinism, sampling, KS distances, experiments."""
import dataclasses
import itertools
import math
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import chdtrc

from renydiv import (
    DomainError,
    JointCountTable,
    JointDistribution,
    ProbVector,
    SimConfig,
    UndefinedStatisticError,
    RenydivError,
    UsageError,
    bias_experiment,
    chi_square_null_params,
    coverage_experiment,
    equality_test,
    ks_distance_normal,
    mixture_distribution,
    normal_quantile,
    power_sum,
    powerlaw_pmf,
    projection_w_moments,
    renyi_entropy,
    sample_joint,
    sample_multinomial,
    simulate_statistic,
    two_sample_chi_square,
    uniformity_test,
)
from renydiv import montecarlo
from renydiv.montecarlo import replicate_stream


class TestSampling:
    def test_single_draw(self):
        c = sample_multinomial(ProbVector.uniform(5), 1, replicate_stream(0, 0))
        assert c.n == 1
        assert (c.counts == 1).sum() == 1

    def test_degenerate_p(self):
        c = sample_multinomial([1.0, 0.0], 50, replicate_stream(0, 1))
        assert c.counts[0] == 50 and c.counts[1] == 0

    def test_uniform_concentration(self):
        n = 30000
        c = sample_multinomial(ProbVector.uniform(3), n, replicate_stream(3, 0))
        bound = 4 * math.sqrt((1 / 3) * (2 / 3) / n)
        assert np.max(np.abs(c.counts / n - 1 / 3)) < bound

    def test_joint_point_mass(self):
        mat = np.zeros((3, 3))
        mat[1, 2] = 1.0
        t = sample_joint(JointDistribution(mat), 25, replicate_stream(1, 0))
        assert (t.rows.tolist(), t.cols.tolist(), t.counts.tolist()) == ([1], [2], [25])

    def test_joint_product_marginals(self):
        p = np.array([0.6, 0.4])
        q = np.array([0.3, 0.7])
        t = sample_joint(JointDistribution.product(p, q), 20000, replicate_stream(2, 0))
        assert t.n == 20000
        bound = 4 * math.sqrt(0.25 / 20000)
        assert abs(t.row_counts()[0] / t.n - 0.6) < bound
        assert abs(t.col_counts()[0] / t.n - 0.3) < bound

    def test_equal_marginal_joint_balance(self):
        p = np.array([0.5, 0.3, 0.2])
        joint = JointDistribution.diagonal_mix(p, 0.4)
        rows = np.zeros(3)
        cols = np.zeros(3)
        for r in range(50):
            t = sample_joint(joint, 1000, replicate_stream(5, r))
            rows += t.row_counts()
            cols += t.col_counts()
        assert np.max(np.abs(rows - cols) / rows.sum()) < 0.01


class TestKSDistance:
    def test_plugin_quantiles(self):
        b = 500
        samples = [normal_quantile((i - 0.5) / b) for i in range(1, b + 1)]
        assert ks_distance_normal(samples) <= 0.5 / b + 1e-9

    def test_point_mass_at_median(self):
        assert ks_distance_normal(np.zeros(100)) == pytest.approx(0.5, abs=1e-12)

    def test_iid_normal_small(self):
        rng = np.random.default_rng(201)
        assert ks_distance_normal(rng.standard_normal(2000)) < 0.05

    def test_needs_two(self):
        with pytest.raises(DomainError):
            ks_distance_normal([0.0])


BASE = dict(family="power_law", beta=1.0, m=30, epsilon=1.0, alpha=0.5,
            B=40, master_seed=7)


@pytest.fixture
def pools(monkeypatch):
    """The sizes of the thread pools a run asks for; submitted work runs inline."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
    return sizes


class TestSimulateStatistic:
    def test_determinism_across_workers(self):
        cfg1 = SimConfig(statistic="thm1_entropy", workers=1, **BASE)
        cfg4 = SimConfig(statistic="thm1_entropy", workers=4, **BASE)
        r1 = simulate_statistic(cfg1)
        r4 = simulate_statistic(cfg4)
        assert np.array_equal(r1.samples, r4.samples)
        assert r1.ks_distance == r4.ks_distance
        assert np.array_equal(r1.qq_pairs, r4.qq_pairs)

    def test_pool_capped_at_cpus_and_replicates(self, monkeypatch, pools):
        serial = simulate_statistic(SimConfig(statistic="thm1_entropy", **BASE)).samples
        assert pools == []
        for workers, B, pool_size in ((10**5, 40, 3), (10**5, 2, 2), (2, 40, 2)):
            cfg = SimConfig(statistic="thm1_entropy", **{**BASE, "B": B, "workers": workers})
            assert np.array_equal(simulate_statistic(cfg).samples, serial[:B])
            assert pools[-1] == pool_size
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: None)
        cfg = SimConfig(statistic="thm1_entropy", **{**BASE, "workers": 10**5})
        assert np.array_equal(simulate_statistic(cfg).samples, serial)
        assert len(pools) == 3

    def test_seed_changes_samples(self):
        cfg = SimConfig(statistic="thm1_entropy", **BASE)
        cfg2 = SimConfig(statistic="thm1_entropy",
                         **{**BASE, "master_seed": 8})
        assert not np.array_equal(simulate_statistic(cfg).samples,
                                  simulate_statistic(cfg2).samples)

    @pytest.mark.parametrize("statistic,extra", [
        ("thm1_entropy", {}),
        ("lemma2_pearson", {}),
        ("thm2_divergence", {"family": "bivariate_product", "beta2": 0.5}),
        ("thm4_degenerate_divergence", {"family": "bivariate_product"}),
        ("lemma2_two_sample", {"family": "bivariate_product"}),
    ])
    def test_each_statistic_runs(self, statistic, extra):
        cfg = SimConfig(statistic=statistic, **{**BASE, **extra})
        run = simulate_statistic(cfg)
        assert run.samples.shape == (BASE["B"],)
        assert np.all(np.isfinite(run.samples))
        assert 0 <= run.ks_distance <= 1
        assert run.qq_pairs.shape == (BASE["B"], 2)

    def test_thm3_on_uniform(self):
        cfg = SimConfig(family="uniform", statistic="thm3_uniform_entropy",
                        m=30, epsilon=1.5, alpha=0.5, B=40, master_seed=7)
        run = simulate_statistic(cfg)
        assert np.all(np.isfinite(run.samples))

    def test_thm3_requires_uniform_family(self):
        cfg = SimConfig(statistic="thm3_uniform_entropy", **BASE)
        with pytest.raises(UsageError):
            simulate_statistic(cfg)

    def test_thm3_undefined_when_n_below_m(self):
        cfg = SimConfig(family="uniform", statistic="thm3_uniform_entropy",
                        m=30, epsilon=-0.5, alpha=0.5, B=40, master_seed=7)
        with pytest.raises(UndefinedStatisticError):
            simulate_statistic(cfg)

    def test_thm1_degenerate_on_uniform_family(self):
        cfg = SimConfig(family="uniform", statistic="thm1_entropy",
                        m=30, epsilon=1.0, alpha=0.5, B=40, master_seed=7)
        with pytest.raises(UsageError):
            simulate_statistic(cfg)

    def test_thm2_degenerate_on_equal_marginals(self):
        cfg = SimConfig(family="bivariate_product", statistic="thm2_divergence",
                        beta=1.0, m=30, epsilon=1.0, alpha=0.5, B=40, master_seed=7)
        with pytest.raises(UsageError):
            simulate_statistic(cfg)

    def test_univariate_statistic_rejects_bivariate_family(self):
        cfg = SimConfig(family="bivariate_product", statistic="thm1_entropy",
                        beta=1.0, m=30, epsilon=1.0, alpha=0.5, B=40, master_seed=7)
        with pytest.raises(UsageError):
            simulate_statistic(cfg)

    def test_thinning_runs_and_is_deterministic(self):
        cfg = SimConfig(statistic="thm1_entropy", thinning_tau=0.7, **BASE)
        r1 = simulate_statistic(cfg)
        r2 = simulate_statistic(cfg)
        assert np.array_equal(r1.samples, r2.samples)
        plain = simulate_statistic(SimConfig(statistic="thm1_entropy", **BASE))
        assert not np.array_equal(r1.samples, plain.samples)

    @pytest.mark.parametrize("statistic,method", [
        ("lemma2_pearson", "lemma2i"),
        ("thm3_uniform_entropy", "thm3"),
        ("thm1_entropy", "renyi_entropy"),
        ("thm4_degenerate_divergence", "equality_test"),
        ("lemma2_two_sample", "two_sample_chi_square"),
    ])
    def test_uniform_null_statistics_match_uniformity_test(self, statistic, method):
        # the harness computes each statistic with the library's own code, so a
        # replicate equals the public function on the same draw, bit for bit
        m, n, alpha = 20, 2000, 0.5
        if method in ("lemma2i", "thm3"):
            family, p = {"family": "uniform"}, ProbVector.uniform(m)
        elif method == "renyi_entropy":
            family, p = {"family": "power_law", "beta": 1.0}, powerlaw_pmf(1.0, m)
        else:
            family, p = {"family": "bivariate_product", "beta": 0.8}, powerlaw_pmf(0.8, m)
        cfg = SimConfig(m=m, n_override=n, alpha=alpha, B=3, statistic=statistic,
                        master_seed=7, **family)
        samples = simulate_statistic(cfg).samples
        for r, z in enumerate(samples):
            rng = replicate_stream(7, r)
            counts = rng.multinomial(n, p.probs)
            if method in ("lemma2i", "thm3"):
                expected = uniformity_test(counts, alpha, method=method).statistic
            elif method == "renyi_entropy":
                h_hat = renyi_entropy(counts / n, alpha)
                expected = (math.sqrt(n) * (1.0 / alpha - 1.0)
                            * (h_hat - renyi_entropy(p, alpha))
                            / projection_w_moments(p, alpha).cv)
            else:
                cy = rng.multinomial(n, p.probs)
                assert np.all(counts > 0) and np.all(cy > 0)
                if method == "equality_test":
                    expected = equality_test(counts, cy, alpha).statistic
                else:
                    # pair the i-th x observation with the i-th y observation,
                    # a table whose marginals are exactly counts and cy
                    mat = np.zeros((m, m), dtype=np.int64)
                    np.add.at(mat, (np.repeat(np.arange(m), counts),
                                    np.repeat(np.arange(m), cy)), 1)
                    joint = JointCountTable.from_dense(mat)
                    x2 = two_sample_chi_square(joint, p)
                    expected = (x2 - (m - 1)) / (math.sqrt(2.0) * math.sqrt(m - 1.0))
            assert z == expected

    def test_empty_thinned_sample_raises(self):
        # Binomial(1, 1e-9) is empty on every redraw; the harness no longer
        # clamps the sample size up to 1
        cfg = SimConfig(family="uniform", m=2, statistic="lemma2_pearson", n_override=1,
                        thinning_tau=1e-9, B=1)
        with pytest.raises(DomainError, match="tau"):
            simulate_statistic(cfg)

    def test_noise_and_signal_family(self):
        cfg = SimConfig(family="noise_and_signal", p0=0.3, statistic="thm1_entropy",
                        m=20, epsilon=1.5, alpha=0.5, B=40, master_seed=7)
        run = simulate_statistic(cfg)
        assert np.all(np.isfinite(run.samples))

    def test_bivariate_joint_family(self):
        cfg = SimConfig(family="bivariate_joint", beta=0.5, diag_weight=0.3,
                        statistic="thm4_degenerate_divergence",
                        m=15, epsilon=1.5, alpha=0.5, B=30, master_seed=7)
        run = simulate_statistic(cfg)
        assert np.all(np.isfinite(run.samples))



class TestBivariateJointSampler:
    """bivariate_joint replicates draw the marginals of diagonal_mix(p, w) in O(m)."""

    CFG = dict(family="bivariate_joint", beta=1.0, alpha=0.5,
               statistic="thm4_degenerate_divergence")

    def draws(self, monkeypatch, **fields):
        """(cx, cy) of every replicate of a run, stacked by replicate."""
        draws = []

        def record(cx, cy, *args):
            draws.append((cx, cy))
            return 0.0

        monkeypatch.setattr(montecarlo, "_bivariate_statistic", record)
        simulate_statistic(SimConfig(**self.CFG, **fields))
        xy = np.array(draws, dtype=float)
        return xy[:, 0], xy[:, 1]

    @pytest.mark.parametrize("w", [0.3, 1.0])
    def test_cross_moments_match_the_joint(self, monkeypatch, w):
        # E cx_i cy_j = n p_ij + n (n - 1) p_i p_j for n cells drawn from p_ij
        m, n, B = 6, 40, 12_000
        cx, cy = self.draws(monkeypatch, m=m, n_override=n, diag_weight=w, B=B, master_seed=41)
        p = powerlaw_pmf(1.0, m).probs
        pij = JointDistribution.diagonal_mix(p, w).pij
        products = (cx[:, :, None] * cy[:, None, :]).reshape(B, m * m)
        for values, expected in ((cx, n * p), (cy, n * p),
                                 (products, (n * pij + n * (n - 1) * np.outer(p, p)).ravel())):
            se = values.std(axis=0, ddof=1) / math.sqrt(B)
            assert np.all(np.abs(values.mean(axis=0) - expected) <= 4 * se + 1e-12)

    def test_law_matches_the_joint_multinomial(self, monkeypatch):
        # at m = 2, n = 3 the pair (cx_0, cy_0) takes 16 values whose exact
        # probabilities follow from the 20 ways to put 3 draws in the 4 cells
        n, B, w = 3, 20_000, 0.3
        pij = JointDistribution.diagonal_mix(powerlaw_pmf(1.0, 2), w).pij.ravel()
        exact = np.zeros((n + 1, n + 1))
        for cells in itertools.product(range(n + 1), repeat=4):
            if sum(cells) == n:
                coef = math.factorial(n) / math.prod(math.factorial(k) for k in cells)
                exact[cells[0] + cells[1], cells[0] + cells[2]] += coef * math.prod(pij ** cells)
        cx, cy = self.draws(monkeypatch, m=2, n_override=n, diag_weight=w, B=B, master_seed=42)
        seen = np.zeros((n + 1, n + 1))
        np.add.at(seen, (cx[:, 0].astype(int), cy[:, 0].astype(int)), 1)
        x2 = float((((seen - B * exact) ** 2) / (B * exact)).sum())
        assert chdtrc(exact.size - 1, x2) > 1e-3, x2

    def test_normalizers_match_chi_square_null_params(self):
        cfg = SimConfig(m=50, n_override=1000, diag_weight=0.3, B=1, **self.CFG)
        norm = montecarlo._Normalizers(cfg)
        mu, gsq = chi_square_null_params(JointDistribution.diagonal_mix(powerlaw_pmf(1.0, 50), 0.3))
        assert norm.mu_n == pytest.approx(mu, rel=1e-12)
        assert norm.gamma_n == pytest.approx(math.sqrt(gsq), rel=1e-12)

    def test_workers_give_identical_samples(self):
        cfg = SimConfig(m=40, epsilon=1.0, diag_weight=0.3, B=30, master_seed=3, **self.CFG)
        one = simulate_statistic(cfg).samples
        two = simulate_statistic(dataclasses.replace(cfg, workers=2)).samples
        assert np.array_equal(one, two)

    def test_large_m_memory(self):
        cfg = SimConfig(m=20_000, n_override=10**6, diag_weight=0.3, B=2, **self.CFG)
        tracemalloc.start()
        try:
            run = simulate_statistic(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(run.samples))
        assert peak < 10 * 2**20, peak

    def test_thm2_degenerate_for_equal_marginals(self):
        cfg = SimConfig(m=30, epsilon=1.0, diag_weight=0.3, B=10,
                        **{**self.CFG, "statistic": "thm2_divergence"})
        with pytest.raises(UsageError, match="degenerate for equal marginals"):
            simulate_statistic(cfg)

    def test_diag_weight_domain(self):
        cfg = SimConfig(m=30, epsilon=1.0, diag_weight=1.5, B=10, **self.CFG)
        with pytest.raises(DomainError, match="diag_weight"):
            simulate_statistic(cfg)

class TestExperiments:
    def test_coverage_smoke(self):
        cfg = SimConfig(family="power_law", beta=1.0, m=50, n_override=20000,
                        statistic="thm1_entropy", alpha=0.5, B=200, master_seed=11)
        cov = coverage_experiment(cfg, 0.95)
        assert 0.85 <= cov <= 1.0

    def test_coverage_degrades_at_tiny_n(self):
        cfg = SimConfig(family="power_law", beta=0.87, m=165, n_override=82,
                        statistic="thm1_entropy", alpha=0.5, B=200, master_seed=12)
        assert coverage_experiment(cfg, 0.95) < 0.9

    def test_coverage_level_consistency(self):
        cfg = SimConfig(family="power_law", beta=1.0, m=50, n_override=20000,
                        statistic="thm1_entropy", alpha=0.5, B=400, master_seed=13)
        cov = coverage_experiment(cfg, 0.5)
        assert abs(cov - 0.5) < 0.1

    def test_coverage_statistic_domain(self):
        cfg = SimConfig(family="uniform", statistic="lemma2_pearson",
                        m=20, epsilon=1.0, B=10, master_seed=0)
        with pytest.raises(UsageError):
            coverage_experiment(cfg, 0.95)

    def test_bias_direction_and_size(self):
        cfg = SimConfig(family="power_law", beta=1.0, m=100, n_override=10**5,
                        statistic="thm1_entropy", alpha=0.5, B=400, master_seed=14)
        bias = bias_experiment(cfg)
        assert bias <= 3e-4  # <= 0 up to MC noise
        assert abs(bias) < 0.01

    def test_bias_under_sampling_regime(self):
        cfg = SimConfig(family="power_law", beta=1.0, m=100, n_override=10,
                        statistic="thm1_entropy", alpha=0.5, B=200, master_seed=15)
        assert bias_experiment(cfg) < -0.2

    def test_bias_divergence_direction(self):
        cfg = SimConfig(family="bivariate_product", beta=0.87, beta2=0.97,
                        m=100, n_override=20000, statistic="thm2_divergence",
                        alpha=0.5, B=200, master_seed=16)
        assert bias_experiment(cfg) <= 3e-4

    @pytest.mark.parametrize("experiment", [lambda cfg: coverage_experiment(cfg, 0.95),
                                            bias_experiment])
    @pytest.mark.parametrize("extra", [
        {"statistic": "thm1_entropy"},
        {"statistic": "thm2_divergence", "family": "bivariate_product", "beta2": 0.5},
    ])
    def test_experiments_honour_workers(self, pools, experiment, extra):
        cfg = SimConfig(**{**BASE, "epsilon": None, "n_override": 2000, **extra})
        serial = experiment(cfg)
        assert pools == []
        assert experiment(dataclasses.replace(cfg, workers=2)).hex() == serial.hex()
        assert pools == [2]

    def test_experiments_threads_give_serial_bits(self):
        cfg = SimConfig(statistic="thm1_entropy", **{**BASE, "epsilon": None, "n_override": 2000})
        for experiment in (lambda c: coverage_experiment(c, 0.95), bias_experiment):
            assert (experiment(dataclasses.replace(cfg, workers=2)).hex()
                    == experiment(cfg).hex())

    def test_bias_thins_each_replicate(self):
        # the reference thins n by the harness rule: Binomial(n, tau), redrawn while empty
        n, tau = 60, 0.3
        cfg = SimConfig(statistic="thm1_entropy", thinning_tau=tau,
                        **{**BASE, "epsilon": None, "n_override": n, "master_seed": 17})
        p = powerlaw_pmf(1.0, BASE["m"])
        ratios = np.empty(cfg.B)
        for r in range(cfg.B):
            rng = replicate_stream(17, r)
            n_rep = 0
            while n_rep == 0:
                n_rep = int(rng.binomial(n, tau))
            counts = rng.multinomial(n_rep, p.probs)
            ratios[r] = power_sum(counts / n_rep, 0.5) / power_sum(p, 0.5)
        assert bias_experiment(cfg) == ratios.mean() - 1.0
        assert bias_experiment(dataclasses.replace(cfg, thinning_tau=None)) != ratios.mean() - 1.0

    @pytest.mark.parametrize("experiment", [lambda cfg: coverage_experiment(cfg, 0.95),
                                            bias_experiment])
    def test_experiments_reject_a_degenerate_population(self, experiment):
        with pytest.raises(UsageError, match="degenerate"):
            experiment(SimConfig(**{**BASE, "family": "uniform", "statistic": "thm1_entropy"}))


class TestCLTQualityInvariants:
    def test_figure1_monotone_ks_entropy(self):
        # CLT quality improves strictly with sampling depth on the power law
        ks = {}
        for eps in (-0.5, 0.5, 1.5):
            cfg = SimConfig(family="power_law", beta=1.0, m=300, epsilon=eps,
                            alpha=0.5, B=700, statistic="thm1_entropy",
                            master_seed=31)
            ks[eps] = simulate_statistic(cfg).ks_distance
        assert ks[1.5] < ks[0.5] < ks[-0.5], ks

    def test_figure1_monotone_ks_pearson(self):
        # the 0.5-vs-1.5 gap for the Pearson statistic is a few 1e-3 at this
        # scale, below single-run KS noise; averaging independent runs
        # resolves the true ordering
        def mean_ks(eps, runs=12, B=2000):
            vals = []
            for k in range(runs):
                cfg = SimConfig(family="power_law", beta=1.0, m=300, epsilon=eps,
                                alpha=0.5, B=B, statistic="lemma2_pearson",
                                master_seed=3100 + k)
                vals.append(simulate_statistic(cfg).ks_distance)
            return float(np.mean(vals))

        ks_15 = mean_ks(1.5)
        ks_05 = mean_ks(0.5)
        ks_m05 = mean_ks(-0.5, runs=2)
        assert ks_15 < ks_05 < ks_m05, (ks_15, ks_05, ks_m05)

    def test_full_scale_design_override(self):
        # the shrunk desk defaults can be overridden to the full design
        # (m=1000, B=5000); the normalized-entropy statistic carries a
        # deterministic plug-in bias shift ~ -0.11 there, so its KS distance
        # concentrates near 0.05 even at full depth
        ks = {}
        for eps in (-0.5, 1.5):
            cfg = SimConfig(family="power_law", beta=1.0, m=1000, epsilon=eps,
                            alpha=0.5, B=5000, statistic="thm1_entropy",
                            master_seed=42, workers=4)
            ks[eps] = simulate_statistic(cfg).ks_distance
        assert 0.02 < ks[1.5] < 0.09
        assert ks[-0.5] > 0.25

    def test_thinning_leaves_ks_close_at_passing_scale(self):
        # at a depth where the CLT passes, binomial thinning moves KS < 0.02
        common = dict(family="power_law", beta=1.0, m=300,
                      n_override=155_884_500, alpha=0.5, B=1500,
                      statistic="thm1_entropy", master_seed=777)
        plain = simulate_statistic(SimConfig(**common)).ks_distance
        thinned = simulate_statistic(
            SimConfig(thinning_tau=0.7, **common)
        ).ks_distance
        assert plain < 0.05
        assert abs(plain - thinned) < 0.02


class TestMixtureFamily:
    def test_mixture_distribution_valid(self):
        mix = mixture_distribution(signal_beta=0.87, signal_m=40, signal_fraction=0.54,
                                   noise_block_sizes=(100, 50),
                                   noise_block_fractions=(0.26, 0.20))
        assert mix.m == 190
        assert math.isclose(float(np.sum(mix.probs)), 1.0, abs_tol=1e-12)

    def test_mixture_mass_mismatch(self):
        with pytest.raises(DomainError):
            mixture_distribution(signal_beta=1.0, signal_m=10, signal_fraction=0.5,
                                 noise_block_sizes=(10,), noise_block_fractions=(0.4,))

    def test_config_validation(self):
        with pytest.raises(UsageError):
            SimConfig(family="bogus", m=10, statistic="thm1_entropy",
                      epsilon=1.0).validate()
        with pytest.raises(UsageError):
            SimConfig(family="power_law", beta=1.0, m=10,
                      statistic="bogus", epsilon=1.0).validate()
        with pytest.raises(UsageError):
            SimConfig(family="power_law", beta=1.0, m=10,
                      statistic="thm1_entropy").n()


_ANY_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 50), st.integers(-10**400, 10**400),
    st.floats(), st.text(max_size=4),
    st.lists(st.one_of(st.integers(-10**30, 10**30), st.floats(), st.text(max_size=2)),
             max_size=3).map(tuple),
)
_BASE = st.fixed_dictionaries({
    "family": st.just("power_law"), "statistic": st.just("thm1_entropy"), "beta": st.just(1.0),
    "m": st.integers(2, 100), "epsilon": st.floats(-1.0, 3.0),
})


@settings(max_examples=200, deadline=None)
@given(_BASE, st.dictionaries(st.sampled_from(sorted(SimConfig.__dataclass_fields__)),
                              _ANY_VALUE, max_size=3))
@example({"family": "power_law", "statistic": "thm1_entropy", "m": 40}, {"epsilon": 1e6})
@example({"family": "power_law", "statistic": "thm1_entropy", "m": 40}, {"alpha": 10**400})
@example({"family": "power_law", "statistic": "thm1_entropy", "epsilon": 1.0}, {"m": 10**400})
def test_validate_raises_only_package_errors(base, changes):
    # validate() samples nothing; whatever a few fields of a valid config are
    # changed to, it returns or raises a RenydivError
    try:
        SimConfig(**{**base, **changes}).validate()
    except RenydivError:
        pass
