"""The public names of the package, pinned so that no refactor drops one unnoticed.

A name added on purpose goes into PUBLIC_NAMES in the same change; a name
removed on purpose says so in CHANGES.md.
"""
import renydiv

PUBLIC_NAMES = [
    'CountVector', 'DegenerateStatisticError', 'DomainError', 'EstimateWithCI', 'FitResult',
    'JointCountTable', 'JointDistribution', 'LDReport', 'MixtureDecomposition',
    'NoSignalError', 'PipelineConfig', 'PipelineReport', 'PowerLawModel', 'ProbVector',
    'ProjectionMoments', 'RenydivError', 'ShapeError', 'SimConfig', 'SimRun', 'TestReport',
    'UndefinedStatisticError', 'UsageError', 'ValidationError', 'bhattacharyya_v_variance',
    'bias_experiment', 'binomial_thinning', 'check_alpha', 'chi_square_null_params',
    'coverage_experiment', 'cross_power_sum', 'divergence_ci', 'diversity_pipeline',
    'entropy_ci', 'equality_test', 'filter_noise', 'fit_powerlaw_ls', 'hill_ci', 'hill_number',
    'homogeneity_test', 'ks_distance_normal', 'ld_diagnostic', 'mixture_distribution',
    'noise_and_signal_w_variance', 'normal_quantile', 'pearson_chi_square', 'power_sum',
    'powerlaw_model', 'powerlaw_pmf', 'powerlaw_qq', 'projection_v_moments',
    'projection_w_moments', 'renyi_divergence', 'renyi_entropy', 'sample_joint',
    'sample_multinomial', 'simulate_statistic', 'tsallis_entropy', 'two_sample_chi_square',
    'uniformity_test', 'v_moments_independent',
]


def test_public_names_pinned():
    assert sorted(renydiv.__all__) == PUBLIC_NAMES


def test_public_names_unique():
    assert len(set(renydiv.__all__)) == len(renydiv.__all__)


def test_public_names_resolve():
    assert [name for name in renydiv.__all__ if not hasattr(renydiv, name)] == []
