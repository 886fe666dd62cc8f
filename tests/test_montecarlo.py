"""Simulation harness: determinism, sampling, KS distances, experiments."""
import dataclasses
import itertools
import math
import numbers
import os
import re
import subprocess
import sys
import tracemalloc
from concurrent.futures import Future
from pathlib import Path

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
    ValidationError,
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
from renydiv.cli import load_sim_config, run_cli
from renydiv.montecarlo import replicate_stream

from dense_joint import dense_pij


class TestSampling:
    def test_single_draw(self):
        c = sample_multinomial(ProbVector.uniform(5), 1, replicate_stream(0, 0))
        assert c.n == 1
        assert (c.counts == 1).sum() == 1

    def test_degenerate_p(self):
        c = sample_multinomial([1.0, 0.0], 50, replicate_stream(0, 1))
        assert c.counts[0] == 50 and c.counts[1] == 0

    @pytest.mark.parametrize("p, total", [([0.2, 0.2], "0.4"), ([0.5, 0.6], "1.1")])
    def test_probabilities_off_one_refused(self, p, total):
        # numpy would put the missing mass on the last category, or drop the last entry
        with pytest.raises(ValidationError, match=f"probabilities sum to {total}"):
            sample_multinomial(p, 1000, replicate_stream(0, 0))

    def test_uniform_concentration(self):
        n = 30000
        c = sample_multinomial(ProbVector.uniform(3), n, replicate_stream(3, 0))
        bound = 4 * math.sqrt((1 / 3) * (2 / 3) / n)
        assert np.max(np.abs(c.counts / n - 1 / 3)) < bound

    def test_joint_point_mass(self):
        mat = np.zeros((3, 3))
        mat[1, 2] = 1.0
        t = sample_joint(JointDistribution.from_dense(mat), 25, replicate_stream(1, 0))
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


    @pytest.mark.parametrize("joint", [
        JointDistribution.product([0.6, 0.4], [0.45, 0.55]),
        JointDistribution.diagonal_mix([0.55, 0.45], 0.4),
        JointDistribution.from_dense([[0.3, 0.25], [0.0, 0.45]]),
        JointDistribution([0.5, 0.5], [0.4, 0.6], 0.6, [0, 1, 1], [0, 0, 1], [0.1, 0.1, 0.2]),
    ], ids=["product", "diagonal_mix", "from_dense", "product_plus_cells"])
    def test_law_is_the_m2_cell_multinomial(self, joint):
        # at m = 2, n = 3 a table is one of the 20 ways to put 3 draws in the 4
        # cells; its exact probability is the multinomial one
        n, B = 3, 4000
        pij = dense_pij(joint).ravel()
        outcomes = [c for c in itertools.product(range(n + 1), repeat=4) if sum(c) == n]
        exact = np.array([math.factorial(n) / math.prod(math.factorial(k) for k in c)
                          * math.prod(pij ** np.array(c)) for c in outcomes])
        where = {c: k for k, c in enumerate(outcomes)}
        seen = np.zeros(len(outcomes))
        rng = np.random.default_rng(43)
        for _ in range(B):
            t = sample_joint(joint, n, rng)
            cells = np.zeros(4, dtype=int)
            cells[t.rows * 2 + t.cols] = t.counts
            seen[where[tuple(cells.tolist())]] += 1
        support = exact > 0
        assert seen[~support].sum() == 0
        x2 = float((((seen - B * exact) ** 2)[support] / (B * exact[support])).sum())
        assert chdtrc(support.sum() - 1, x2) > 1e-3, x2


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

    @pytest.mark.parametrize("samples", [[np.nan, 0.0, 1.0], [0.0, np.inf], [-np.inf, 1.0]])
    def test_needs_finite_samples(self, samples):
        with pytest.raises(DomainError, match="samples must be finite"):
            ks_distance_normal(samples)


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

    def draws(self, **fields):
        """(cx, cy) of every replicate of a run, stacked by replicate, by the one draw
        rule its replicates use."""
        cfg = SimConfig(**self.CFG, **fields)
        population = montecarlo.FAMILIES[cfg.family].population(cfg)
        xy = np.array([montecarlo._replicate_counts(cfg, population, cfg.n(), r)[:2]
                       for r in range(cfg.B)], dtype=float)
        return xy[:, 0], xy[:, 1]

    @pytest.mark.parametrize("w", [0.3, 1.0])
    def test_cross_moments_match_the_joint(self, w):
        # E cx_i cy_j = n p_ij + n (n - 1) p_i p_j for n cells drawn from p_ij
        m, n, B = 6, 40, 12_000
        cx, cy = self.draws(m=m, n_override=n, diag_weight=w, B=B, master_seed=41)
        p = powerlaw_pmf(1.0, m).probs
        pij = dense_pij(JointDistribution.diagonal_mix(p, w))
        products = (cx[:, :, None] * cy[:, None, :]).reshape(B, m * m)
        for values, expected in ((cx, n * p), (cy, n * p),
                                 (products, (n * pij + n * (n - 1) * np.outer(p, p)).ravel())):
            se = values.std(axis=0, ddof=1) / math.sqrt(B)
            assert np.all(np.abs(values.mean(axis=0) - expected) <= 4 * se + 1e-12)

    def test_law_matches_the_joint_multinomial(self):
        # at m = 2, n = 3 the pair (cx_0, cy_0) takes 16 values whose exact
        # probabilities follow from the 20 ways to put 3 draws in the 4 cells
        n, B, w = 3, 20_000, 0.3
        pij = dense_pij(JointDistribution.diagonal_mix(powerlaw_pmf(1.0, 2), w)).ravel()
        exact = np.zeros((n + 1, n + 1))
        for cells in itertools.product(range(n + 1), repeat=4):
            if sum(cells) == n:
                coef = math.factorial(n) / math.prod(math.factorial(k) for k in cells)
                exact[cells[0] + cells[1], cells[0] + cells[2]] += coef * math.prod(pij ** cells)
        cx, cy = self.draws(m=2, n_override=n, diag_weight=w, B=B, master_seed=42)
        seen = np.zeros((n + 1, n + 1))
        np.add.at(seen, (cx[:, 0].astype(int), cy[:, 0].astype(int)), 1)
        x2 = float((((seen - B * exact) ** 2) / (B * exact)).sum())
        assert chdtrc(exact.size - 1, x2) > 1e-3, x2

    def test_normalizers_match_chi_square_null_params(self, monkeypatch):
        # thm4 standardizes each replicate by the (mu_n, gamma_n) it is handed
        cfg = SimConfig(m=50, n_override=1000, diag_weight=0.3, B=1, **self.CFG)
        norms = []
        monkeypatch.setattr(montecarlo, "_thm4_z",
                            lambda *args: norms.append(args[4:6]) or 0.0)
        population, z, _, _ = montecarlo._setup(cfg)
        z(montecarlo._replicate_counts(cfg, population, cfg.n(), 0))  # the run's replicate 0
        (mu_n, gamma_n), = norms
        mu, gsq = chi_square_null_params(JointDistribution.diagonal_mix(powerlaw_pmf(1.0, 50), 0.3))
        assert mu_n == pytest.approx(mu, rel=1e-12)
        assert gamma_n == pytest.approx(math.sqrt(gsq), rel=1e-12)

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
            experiment(SimConfig(**{**BASE, "family": "uniform", "beta": None,
                                    "statistic": "thm1_entropy"}))


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

    def test_mixture_mass_checked_at_the_probability_tolerance(self):
        # a total off by 5e-10 is a mixture error, not the ProbVector sum error after it
        with pytest.raises(DomainError, match=r"mixture masses sum to 1\.0000000005"):
            mixture_distribution(signal_beta=1.0, signal_m=10, signal_fraction=0.5,
                                 noise_block_sizes=(10,), noise_block_fractions=(0.5 + 5e-10,))

    def test_non_integer_signal_m_named(self):
        with pytest.raises(ValidationError,
                           match=re.escape("signal_m must be an integer, got 3.5")):
            mixture_distribution(signal_beta=1.0, signal_m=3.5, signal_fraction=0.5,
                                 noise_block_sizes=(4,), noise_block_fractions=(0.5,))

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


# one valid config per family, each setting only the family fields it reads
_FAMILY_CONFIGS = {
    "power_law": dict(beta=1.0, statistic="thm1_entropy"),
    "uniform": dict(statistic="thm3_uniform_entropy"),
    "noise_and_signal": dict(p0=0.3, statistic="thm1_entropy"),
    "mixture": dict(signal_beta=1.0, signal_m=10, signal_fraction=0.5, noise_block_sizes=(20,),
                    noise_block_fractions=(0.5,), statistic="thm1_entropy"),
    "bivariate_product": dict(beta=1.0, beta2=0.5, statistic="thm2_divergence"),
    "bivariate_joint": dict(beta=1.0, diag_weight=0.3, statistic="thm4_degenerate_divergence"),
}
_FAMILY_VALUES = dict(beta=7.0, beta2=0.5, p0=0.3, diag_weight=0.5, signal_beta=1.0, signal_m=10,
                      signal_fraction=0.5, noise_block_sizes=(20,), noise_block_fractions=(0.5,))


def _family_config(family, **fields):
    return SimConfig(family=family, m=30, n_override=2000, B=5, master_seed=1,
                     **{**_FAMILY_CONFIGS[family], **fields})


@pytest.mark.parametrize("family", sorted(_FAMILY_CONFIGS))
def test_each_family_config_runs(family):
    assert np.all(np.isfinite(simulate_statistic(_family_config(family)).samples))


def test_family_table_fields():
    # every field a FAMILIES row reads is a SimConfig field with a _NUMERIC_FIELDS row,
    # and every optional field is read by some family
    config_fields = {f.name for f in dataclasses.fields(SimConfig)}
    read = {name for row in montecarlo.FAMILIES.values() for name in row.fields}
    assert read <= config_fields & set(montecarlo._NUMERIC_FIELDS)
    assert set(montecarlo.OPTIONAL_FIELDS) <= read
    assert set(_FAMILY_CONFIGS) == set(montecarlo.FAMILIES)


# a family each statistic runs on
_STATISTIC_FAMILY = {"thm1_entropy": "power_law", "thm3_uniform_entropy": "uniform",
                     "lemma2_pearson": "uniform", "thm2_divergence": "bivariate_product",
                     "thm4_degenerate_divergence": "bivariate_joint",
                     "lemma2_two_sample": "bivariate_joint"}


@pytest.mark.parametrize("statistic", sorted(montecarlo.STATISTICS))
def test_each_statistic_has_a_kernel(statistic):
    cfg = _family_config(_STATISTIC_FAMILY[statistic], statistic=statistic)
    population, z, s_true, value = montecarlo._setup(cfg)
    assert math.isfinite(z(montecarlo._replicate_counts(cfg, population, cfg.n(), 0)))
    experiment = statistic in ("thm1_entropy", "thm2_divergence")
    assert (s_true is not None, value is not None) == (experiment, experiment)


@pytest.mark.parametrize("family, statistic", itertools.product(
    sorted(montecarlo.FAMILIES), sorted(montecarlo.STATISTICS)))
def test_statistic_family_check_matches_the_row(family, statistic):
    bivariate = montecarlo.STATISTICS[statistic]
    text = f"{statistic} needs a {'bivariate' if bivariate else 'univariate'} family"
    try:
        _family_config(family, statistic=statistic).validate()
        message = ""
    except UsageError as exc:
        message = str(exc)
    assert (message == text) == (bivariate != montecarlo.FAMILIES[family].bivariate)


def _smallest_n_configs():
    """A config per (family, statistic) pair that validate() accepts, at m = 1000 (20, the
    support, for mixture), B = 30 and n_override 1 or 3."""
    for family, statistic in itertools.product(sorted(_FAMILY_CONFIGS),
                                               sorted(montecarlo.STATISTICS)):
        fields = {**_FAMILY_CONFIGS[family], "statistic": statistic}
        if family == "mixture":
            fields["noise_block_sizes"] = (10,)  # with signal_m = 10, the support of m = 20
        if statistic in ("thm4_degenerate_divergence", "lemma2_two_sample"):
            fields.pop("beta2", None)  # these need equal marginals
        for n in (1, 3):
            cfg = SimConfig(family=family, m=20 if family == "mixture" else 1000, n_override=n,
                            B=30, master_seed=1, **fields)
            try:
                cfg.validate()
            except (UsageError, ValidationError, DomainError):
                continue
            yield pytest.param(cfg, id=f"{family}-{statistic}-n{n}")


@pytest.mark.parametrize("cfg", list(_smallest_n_configs()))
def test_simulate_at_the_smallest_n(tmp_path, capsys, cfg):
    # one or three draws can leave a replicate's statistic undefined: that is a
    # pointed error (exit 2), never an internal one
    path = tmp_path / "sim.cfg"
    path.write_text(_config_lines(cfg))
    assert run_cli(["simulate", "--config", str(path), "--output", str(tmp_path / "out")]) in (0, 2)
    assert "internal error" not in capsys.readouterr().err


@pytest.mark.parametrize("family, key", [
    (family, key) for family in sorted(_FAMILY_CONFIGS) for key in sorted(_FAMILY_VALUES)
    if key not in _FAMILY_CONFIGS[family]])
def test_unread_family_field_rejected(family, key):
    cfg = _family_config(family, **{key: _FAMILY_VALUES[key]})
    with pytest.raises(ValidationError, match=rf"config key {key} = .* is not read by the "
                                              rf"{family} family"):
        cfg.validate()


# each family requirement validate() checks: the fields changed from _family_config,
# the error, and the text naming the key
_FAMILY_REQUIREMENTS = [
    ("power_law", dict(beta=None), UsageError, "requires config key beta"),
    ("bivariate_product", dict(beta=None), UsageError, "requires config key beta"),
    ("bivariate_joint", dict(beta=None), UsageError, "requires config key beta"),
    ("noise_and_signal", dict(p0=None), UsageError, "requires config key p0"),
    ("noise_and_signal", dict(p0=0.0), DomainError, "config key p0 = 0.0 must"),
    ("noise_and_signal", dict(p0=1.5), DomainError, "config key p0 = 1.5 must"),
    ("mixture", dict(signal_beta=None), UsageError, "requires config key signal_beta"),
    ("mixture", dict(signal_m=None), UsageError, "requires config key signal_m"),
    ("mixture", dict(signal_fraction=None), UsageError, "requires config key signal_fraction"),
    ("bivariate_joint", dict(diag_weight=1.5), DomainError, "config key diag_weight = 1.5 must"),
    ("bivariate_joint", dict(diag_weight=-0.5), DomainError,
     "config key diag_weight = -0.5 must"),
    ("bivariate_product", dict(beta2=0.5, statistic="thm4_degenerate_divergence"), UsageError,
     "config key beta2 = 0.5 differs from beta = 1.0"),
    ("bivariate_product", dict(beta2=0.5, statistic="lemma2_two_sample"), UsageError,
     "config key beta2 = 0.5 differs from beta = 1.0"),
]


@pytest.mark.parametrize("family, fields, error, text", _FAMILY_REQUIREMENTS)
def test_validate_checks_family_requirements(tmp_path, capsys, family, fields, error, text):
    cfg = _family_config(family, **fields)
    with pytest.raises(error, match=text):
        cfg.validate()
    path = tmp_path / "sim.cfg"  # the same config through the CLI
    path.write_text(_config_lines(cfg))
    assert run_cli(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and text in err


def _config_lines(cfg) -> str:
    """The config file of cfg: every field set away from its default, one a line."""
    return "".join(f"{f.name} = " + (", ".join(map(str, value)) if isinstance(value, tuple)
                                     else str(value)) + "\n"
                   for f in dataclasses.fields(cfg)
                   if (value := getattr(cfg, f.name)) != f.default)


# a family that reads each numeric field; every other field is read by power_law
_FIELD_FAMILY = {"p0": "noise_and_signal", "diag_weight": "bivariate_joint",
                 "beta2": "bivariate_product",
                 **{name: "mixture" for name in montecarlo.FAMILIES["mixture"].fields}}


def _bound_config(name, value):
    """A config whose family reads `name`, valid but for `name` = value."""
    family = _FIELD_FAMILY.get(name, "power_law")
    fields = {**_FAMILY_CONFIGS[family], "m": 30, "n_override": 2000, "B": 5,
              "master_seed": 1, name: value}
    if family == "mixture":  # one-block scalars, with m on the support where it can be
        fields = {**fields, "noise_block_sizes": 20, "noise_block_fractions": 0.5, name: value}
        if name in ("signal_m", "noise_block_sizes"):
            other = "noise_block_sizes" if name == "signal_m" else "signal_m"
            fields.update({other: 1, "m": min(max(value + 1, 2), montecarlo.M_MAX)})
        else:
            fields["m"] = fields["noise_block_sizes"] + fields["signal_m"]
    return SimConfig(family=family, **fields)


def _bound_cases(outside: bool):
    """(name, value) per finite bound of each _NUMERIC_FIELDS row: just past the bound
    and, when open, on it (outside); on it, when closed (not outside)."""
    for name, ((kind, _), lo, hi, closed) in montecarlo._NUMERIC_FIELDS.items():
        for bound, away in ((lo, -1), (hi, 1)):
            if not math.isfinite(bound):
                continue
            if kind is numbers.Integral:
                past = bound + away
            else:
                bound, past = float(bound), math.nextafter(bound, away * math.inf)
            if outside:
                yield from [(name, past)] + ([] if closed else [(name, bound)])
            elif closed:
                yield name, bound


@pytest.mark.parametrize("name, value", list(_bound_cases(outside=True)))
def test_numeric_field_out_of_bounds_named(tmp_path, capsys, name, value):
    text = f"config key {name} = {value!r} must lie in "
    cfg = _bound_config(name, value)
    with pytest.raises(DomainError, match=re.escape(text)):
        cfg.validate()
    path = tmp_path / "sim.cfg"
    path.write_text(_config_lines(cfg))
    assert run_cli(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and text in err


@pytest.mark.parametrize("name, value", list(_bound_cases(outside=False)))
def test_numeric_field_on_closed_bound_validates(name, value):
    _bound_config(name, value).validate()


def test_replicate_count_past_one_array_is_named(tmp_path, capsys):
    # B = 10**15 replicate statistics would be one 7 PiB float64 array
    path = tmp_path / "sim.cfg"
    path.write_text("family = power_law\nbeta = 1.0\nm = 10\nn_override = 20\n"
                    "B = 1000000000000000\nstatistic = thm1_entropy\n")
    assert run_cli(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config key B = 1000000000000000 must lie in [1, 2147483647]" in err
    assert "internal error" not in err


def _capped_child(code: str, args=()) -> subprocess.CompletedProcess:
    """Run the Python `code` with sys.argv[1:] = args in a child whose address space
    is capped at 3 GiB, so a call that outgrows its bounds ends in a MemoryError
    instead of filling the machine."""
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))\n" + code)
    src = str(Path(montecarlo.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)


def _capped_simulate(tmp_path, configs) -> list:
    """The error lines of `renydiv simulate` on each config text (each valid, with
    n_override = 10), all run in one capped child (_capped_child). Every run must
    exit 2 without an internal error."""
    paths = [tmp_path / f"sim{k}.cfg" for k in range(len(configs))]
    for path, text in zip(paths, configs):
        path.write_text(text + "n_override = 10\n")
        load_sim_config(path).validate()
    out = _capped_child("from renydiv.cli import run_cli\n"
                        "print([run_cli(['simulate', '--config', path])\n"
                        "       for path in sys.argv[1:]])\n", paths)
    assert out.stdout.strip() == str([2] * len(configs)), out.stderr
    assert "internal error" not in out.stderr
    errors = out.stderr.splitlines()
    assert len(errors) == len(configs)
    return errors


def test_run_past_the_memory_ceiling_is_named(tmp_path):
    # each config passes validate(), yet its arrays would take 16 GB or more
    configs = {
        "family = uniform\nm = 2147483647\nB = 1\nstatistic = thm3_uniform_entropy\n":
            "config key m = 2147483647: a uniform run would hold about 80.0 GiB",
        "family = power_law\nbeta = 1.0\nm = 2000000000\nB = 1\nstatistic = thm1_entropy\n":
            "config key m = 2000000000: a power_law run",
        "family = power_law\nbeta = 1.0\nm = 10\nB = 2147483647\nstatistic = thm1_entropy\n":
            "config key B = 2147483647: a power_law run",
    }
    for line, message in zip(_capped_simulate(tmp_path, configs), configs.values()):
        assert line.startswith("error: " + message) and line.endswith("past the 4 GiB ceiling")


def test_run_past_the_work_ceiling_is_named(tmp_path):
    # each config passes validate() and fits in memory, yet takes years of draws
    configs = {
        "family = uniform\nm = 40000000\nB = 40000000\nstatistic = lemma2_pearson\n":
            "config keys B = 40000000 and m = 40000000: a run would draw "
            "B * m = 1.6e+15 categories",
        "family = power_law\nbeta = 1.0\nm = 262144\nB = 262145\nstatistic = thm1_entropy\n":
            "config keys B = 262145 and m = 262144: a run would draw B * m = 6.87e+10",
    }
    for line, message in zip(_capped_simulate(tmp_path, configs), configs.values()):
        assert line.startswith("error: " + message) and line.endswith("past the 6.87e+10 ceiling")
    # the ceiling itself is a run
    montecarlo._check_cost(SimConfig(family="power_law", beta=1.0, m=2**18, B=2**18,
                                     statistic="thm1_entropy", n_override=10))


def test_sum_past_2_26_floats_stays_bounded():
    # the univariate families pass the memory check up to m = 2**32 / 40, past 2**26;
    # a sum of that many floats stays within the estimate's three m-sized arrays
    out = _capped_child("import numpy as np\nfrom renydiv.distributions import _sum\n"
                        "print(_sum(np.ones(2**26 + 1)))\n")
    assert out.stdout.strip() == str(float(2**26 + 1)), out.stderr


@pytest.mark.parametrize("workers", [1, 2])
def test_simulate_cli_holds_what_the_estimate_says(tmp_path, workers):
    # the CSV and the schedule of a run add no array of B entries past _B_ARRAYS
    B = 20_000
    path = tmp_path / "sim.cfg"
    path.write_text(f"family = uniform\nm = 2\nn_override = 4\nB = {B}\n"
                    f"statistic = lemma2_pearson\nworkers = {workers}\n")
    tracemalloc.start()
    try:
        code = run_cli(["simulate", "--config", str(path), "--output", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 8 * montecarlo._B_ARRAYS * B + 256 * 2**10, peak / B


# a value on each edge of the _NUMERIC_FIELDS rows every family reads: n_override,
# epsilon (in place of n_override), alpha, thinning_tau, master_seed and workers
_EDGE_VALUES = [("n_override", 1), ("n_override", 2**63 - 1), ("epsilon", 1e308),
                ("epsilon", -1e308), ("alpha", 5e-324), ("alpha", 0.9999999999999999),
                ("thinning_tau", 5e-324), ("thinning_tau", 0.9999999999999999),
                ("master_seed", 2**128), ("workers", 10**9)]


def _edge_configs():
    """Each edge value on a config per (family, statistic) pair that validate() accepts,
    at m = 2 and 3 (mixture: one noise category, the rest signal), B = 3."""
    for family, statistic, m in itertools.product(sorted(_FAMILY_CONFIGS),
                                                  sorted(montecarlo.STATISTICS), (2, 3)):
        fields = {**_FAMILY_CONFIGS[family], "statistic": statistic}
        if family == "mixture":
            fields.update(noise_block_sizes=(1,), signal_m=m - 1)
        if statistic in ("thm4_degenerate_divergence", "lemma2_two_sample"):
            fields.pop("beta2", None)  # these need equal marginals
        cfg = SimConfig(family=family, m=m, n_override=10, B=3, master_seed=1, **fields)
        try:
            cfg.validate()
        except (UsageError, ValidationError, DomainError):
            continue
        for name, value in _EDGE_VALUES:
            yield dataclasses.replace(cfg, **{"n_override": None if name == "epsilon" else 10,
                                              name: value})


def test_simulate_on_every_field_edge(tmp_path):
    # every accepted pair, on each edge, runs or exits 2 naming what is wrong, in bounded
    # time and memory: one capped child runs them all
    configs = list(_edge_configs())
    paths = [tmp_path / f"sim{k}.cfg" for k in range(len(configs))]
    for path, cfg in zip(paths, configs):
        path.write_text(_config_lines(cfg))
    out = _capped_child("import time\nfrom renydiv.cli import run_cli\n"
                        "for path in sys.argv[1:]:\n"
                        "    start = time.perf_counter()\n"
                        "    code = run_cli(['simulate', '--config', path,\n"
                        "                    '--output', path + '.csv'])\n"
                        "    print(code, time.perf_counter() - start)\n", paths)
    assert "internal error" not in out.stderr
    runs = [line.split() for line in out.stdout.splitlines()]
    assert len(runs) == len(configs) >= 200, out.stderr
    for cfg, (code, seconds) in zip(configs, runs):
        assert code in ("0", "2") and float(seconds) < 5, (cfg, code, seconds)


def test_bivariate_product_stream(monkeypatch):
    # at w = 0 the shared-diagonal draw takes nothing from the stream: replicate r
    # of a product run is multinomial(n, p) and then multinomial(n, q) from (seed, r)
    draws = []
    draw = montecarlo._replicate_counts
    monkeypatch.setattr(montecarlo, "_replicate_counts",
                        lambda *args: draws.append(draw(*args)) or draws[-1])
    simulate_statistic(SimConfig(family="bivariate_product", beta=1.0, beta2=0.5, m=25,
                                 n_override=300, B=4, master_seed=9,
                                 statistic="thm2_divergence"))
    p, q = powerlaw_pmf(1.0, 25).probs, powerlaw_pmf(0.5, 25).probs
    assert len(draws) == 4
    for r, (cx, cy, _) in enumerate(draws):
        rng = replicate_stream(9, r)
        assert np.array_equal(cx, rng.multinomial(300, p))
        assert np.array_equal(cy, rng.multinomial(300, q))
