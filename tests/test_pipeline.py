"""Noise filtering, the two-sample pipeline, and the multi-pair homogeneity test."""
import math
import sys

import numpy as np
import pytest

from renydiv import (
    CountVector,
    DomainError,
    NoSignalError,
    PipelineConfig,
    UsageError,
    ValidationError,
    diversity_pipeline,
    filter_noise,
    homogeneity_test,
    mixture_distribution,
    powerlaw_pmf,
)
from renydiv import pipeline

N_TABLE = 39084
LAM_B, N_B = 6.75, 2315
MASS_B = LAM_B * N_B / N_TABLE
MASS_A = 0.46 - MASS_B
N_A = int(round(MASS_A * N_TABLE / 1.5))
NOISE_CATS = N_A + N_B


def table1_style_mixture(signal_beta=0.87):
    """Two uniform noise blocks (46% of reads, counts concentrated <= 17)
    plus a power-law signal with a clear count gap above the noise."""
    return mixture_distribution(
        signal_beta=signal_beta, signal_m=40, signal_fraction=0.54,
        noise_block_sizes=(N_A, N_B), noise_block_fractions=(MASS_A, MASS_B),
    )


class TestFilterNoise:
    def test_pure_uniform_single_component(self):
        rng = np.random.default_rng(211)
        c = rng.multinomial(10**4, np.full(100, 0.01))
        dec = filter_noise(CountVector(c))
        assert len(dec.noise_components) == 1
        assert dec.signal_fraction == pytest.approx(0.0, abs=1e-12)
        assert dec.m_signal == 0
        assert dec.noise_fraction == pytest.approx(1.0, abs=1e-12)
        assert dec.cutoff_k_m == int(c.max())

    def test_large_heterogeneous_counts_no_noise(self):
        dec = filter_noise([1000, 2300, 5100, 11000])
        assert dec.noise_components == []
        assert dec.cutoff_k_m == 0
        assert dec.noise_fraction == pytest.approx(0.0, abs=1e-12)
        assert dec.m_signal == 4

    def test_fraction_identity(self):
        rng = np.random.default_rng(212)
        c = rng.multinomial(N_TABLE, table1_style_mixture().probs)
        dec = filter_noise(CountVector(c))
        assert dec.noise_fraction + dec.signal_fraction == pytest.approx(1.0, abs=1e-12)
        assert all(comp.size >= 1 for comp in dec.noise_components)
        supports = np.concatenate([comp.categories for comp in dec.noise_components])
        assert len(np.unique(supports)) == len(supports)  # disjoint components

    def test_mixture_recovery_fixture(self):
        # seed chosen so the realized noise maximum equals the designed
        # cutoff 17; the filter recovers the exact noise/signal partition
        rng = np.random.default_rng(0)
        c = rng.multinomial(N_TABLE, table1_style_mixture().probs)
        true_cutoff = int(c[:NOISE_CATS].max())
        assert true_cutoff == 17
        dec = filter_noise(CountVector(c))
        assert dec.cutoff_k_m == 17
        assert abs(dec.noise_fraction - 0.46) <= 0.05
        assert len(dec.noise_components) == 2

    def test_recovers_true_partition(self):
        # across seeds the recovered cutoff equals the realized noise maximum
        mix = table1_style_mixture()
        rng = np.random.default_rng(213)
        for _ in range(25):
            c = rng.multinomial(N_TABLE, mix.probs)
            dec = filter_noise(CountVector(c))
            assert dec.cutoff_k_m == int(c[:NOISE_CATS].max())
            assert abs(dec.noise_fraction - 0.46) <= 0.05

    def test_every_low_count_in_noise(self):
        rng = np.random.default_rng(214)
        c = rng.multinomial(N_TABLE, table1_style_mixture().probs)
        dec = filter_noise(CountVector(c))
        noise = np.zeros(len(c), dtype=bool)
        for comp in dec.noise_components:
            noise[comp.categories] = True
        low = (c > 0) & (c <= dec.cutoff_k_m)
        assert np.array_equal(noise, low)

    def test_level_domain(self):
        with pytest.raises(DomainError):
            filter_noise([1, 2, 3], level=0.0)
        with pytest.raises(DomainError):
            filter_noise([1, 2, 3], max_K=0)

    def test_scale_consistency(self):
        # doubling depth via proportional resampling keeps the structure:
        # recovered cutoff still equals the realized noise maximum
        mix = table1_style_mixture()
        rng = np.random.default_rng(215)
        hits = 0
        for _ in range(10):
            c = rng.multinomial(2 * N_TABLE, mix.probs)
            dec = filter_noise(CountVector(c))
            hits += dec.cutoff_k_m == int(c[:NOISE_CATS].max())
        assert hits >= 9

    def test_same_under_a_tracer_that_reads_frame_locals(self):
        # a debugger's view of the locals holds extra references to filter_noise's
        # arrays; the in-place cut of its fresh argsort must not check for them
        c = np.random.default_rng(216).multinomial(N_TABLE, table1_style_mixture().probs)

        def tracer(frame, event, arg):
            frame.f_locals
            return tracer

        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            traced = filter_noise(c)
        finally:
            sys.settrace(previous)
        plain = filter_noise(c)
        assert traced.noise_components
        assert [(x.categories.tolist(), x.level) for x in traced.noise_components] == \
            [(x.categories.tolist(), x.level) for x in plain.noise_components]
        assert np.array_equal(traced.signal_categories, plain.signal_categories)
        assert (traced.cutoff_k_m, traced.noise_fraction) == (plain.cutoff_k_m,
                                                              plain.noise_fraction)


class TestDiversityPipeline:
    def test_identical_samples_no_divergence(self):
        rng = np.random.default_rng(221)
        c = rng.multinomial(N_TABLE, table1_style_mixture().probs)
        report = diversity_pipeline(c, c, alpha=0.5)
        assert not report.equality_rejected
        assert report.divergence is None

    def test_structural_invariant(self):
        rng = np.random.default_rng(222)
        mix_x = table1_style_mixture(0.87)
        mix_y = table1_style_mixture(0.97)
        cx = rng.multinomial(N_TABLE, mix_x.probs)
        cy = rng.multinomial(N_TABLE, mix_y.probs)
        report = diversity_pipeline(cx, cy, alpha=0.5)
        assert (report.divergence is not None) == report.equality_rejected

    def test_different_signals_rejected_and_quantified(self):
        rng = np.random.default_rng(223)
        cx = rng.multinomial(N_TABLE, table1_style_mixture(0.87).probs)
        cy = rng.multinomial(N_TABLE, table1_style_mixture(0.97).probs)
        report = diversity_pipeline(cx, cy, alpha=0.5)
        assert report.equality.p_value < 1e-4
        assert report.equality_rejected
        assert report.divergence is not None
        assert report.divergence.lower > 0.0
        hx, hy = report.entropies
        ex, ey = report.hill_numbers
        assert hx.lower <= hx.estimate <= hx.upper
        assert ex.estimate == pytest.approx(math.exp(hx.estimate), rel=1e-12)
        assert ey.estimate == pytest.approx(math.exp(hy.estimate), rel=1e-12)
        assert report.shared_cutoff == max(d.cutoff_k_m for d in report.decompositions)

    def test_plain_power_law_pair(self):
        # no engineered noise: the filter eats some of the power-law bottom,
        # but the retained signal still separates the two exponents
        rng = np.random.default_rng(224)
        cx = rng.multinomial(N_TABLE, powerlaw_pmf(0.87, 165).probs)
        cy = rng.multinomial(N_TABLE, powerlaw_pmf(0.97, 165).probs)
        report = diversity_pipeline(cx, cy, alpha=0.5)
        assert report.equality.p_value < 1e-4
        assert report.divergence is not None and report.divergence.lower > 0

    def test_no_shared_signal(self):
        with pytest.raises((NoSignalError, DomainError)):
            # both samples are pure uniform noise: everything is filtered
            rng = np.random.default_rng(225)
            cx = rng.multinomial(10**4, np.full(100, 0.01))
            cy = rng.multinomial(10**4, np.full(100, 0.01))
            diversity_pipeline(cx, cy, alpha=0.5)

    def test_mismatched_universe(self):
        with pytest.raises(UsageError):
            diversity_pipeline([1, 2, 3], [1, 2], alpha=0.5)

    @pytest.mark.parametrize("level", [5.0, -1.0, math.nan, 0.0, 1.0])
    def test_equality_level_domain(self, monkeypatch, level):
        # checked before any filtering, on a pair the pipeline otherwise runs on
        rng = np.random.default_rng(224)
        cx = rng.multinomial(N_TABLE, powerlaw_pmf(0.87, 165).probs)
        cy = rng.multinomial(N_TABLE, powerlaw_pmf(0.97, 165).probs)
        diversity_pipeline(cx, cy, alpha=0.5)
        monkeypatch.setattr(pipeline, "filter_noise", None)
        # nan is no finite real number, so it fails the kind check before the range
        error, text = (
            (ValidationError, f"equality_level must be a finite real number, got {level!r}")
            if math.isnan(level) else
            (DomainError, rf"equality_level = {level!r} must lie in \(0, 1\)"))
        with pytest.raises(error, match=text):
            diversity_pipeline(cx, cy, alpha=0.5, config=PipelineConfig(equality_level=level))

    def test_null_rejection_rate(self):
        # two iid samples from one distribution, full pipeline incl. filtering
        from renydiv.montecarlo import replicate_stream

        p = powerlaw_pmf(1.0, 100).probs
        rejections = 0
        B = 1000
        for r in range(B):
            rng = replicate_stream(555, r)
            cx = rng.multinomial(10**5, p)
            cy = rng.multinomial(10**5, p)
            rejections += diversity_pipeline(cx, cy, alpha=0.5).equality_rejected
        assert 0.03 <= rejections / B <= 0.07


class TestHomogeneity:
    def _null_pairs(self, rng, k=3, m=100, n=10**4):
        p = powerlaw_pmf(1.0, m).probs
        return [
            (rng.multinomial(n, p), rng.multinomial(n, p))
            for _ in range(k)
        ]

    def test_permutation_invariance(self):
        rng = np.random.default_rng(231)
        pairs = self._null_pairs(rng)
        q1 = homogeneity_test(pairs, alpha=0.5)
        q2 = homogeneity_test([pairs[2], pairs[0], pairs[1]], alpha=0.5)
        assert q1.statistic == pytest.approx(q2.statistic, abs=1e-12)
        assert q1.p_value == pytest.approx(q2.p_value, abs=1e-12)

    def test_null_size(self):
        rng = np.random.default_rng(232)
        rejections = 0
        B = 600
        for _ in range(B):
            rep = homogeneity_test(self._null_pairs(rng, m=100, n=10**4), alpha=0.5)
            rejections += rep.p_value < 0.05
        assert 0.02 <= rejections / B <= 0.08

    def test_heterogeneous_pairs_rejected(self):
        rng = np.random.default_rng(233)
        p1 = powerlaw_pmf(0.87, 165).probs
        p2 = powerlaw_pmf(0.97, 165).probs
        pairs = [
            (rng.multinomial(N_TABLE, p1), rng.multinomial(N_TABLE, p2))
            for _ in range(3)
        ]
        rep = homogeneity_test(pairs, alpha=0.5)
        assert rep.p_value < 0.001
        assert rep.method == "chi2_homogeneity"
        assert rep.m == 3

    def test_identical_pairs_deterministic(self):
        c = [50, 30, 20]
        rep = homogeneity_test([(c, c), (c, c)], alpha=0.5)
        # each pairwise statistic sits at the no-difference boundary -sqrt((m-1)/2)
        assert rep.statistic == pytest.approx(2 * ((3 - 1) / 2), abs=1e-12)

    def test_needs_two_pairs(self):
        with pytest.raises(UsageError):
            homogeneity_test([([1, 2], [2, 1])], alpha=0.5)
