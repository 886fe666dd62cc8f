"""Empirical Renyi entropy and divergence on sparse count data.

Exact diversity measures (power sums, Renyi/Tsallis entropy, Hill numbers),
projection-variable moments, CLT-based confidence intervals and hypothesis
tests for both the non-degenerate and degenerate regimes, power-law model
fitting, an NGS noise-filtering pipeline, and a seeded Monte Carlo harness
that validates every limit theorem the intervals rely on.
"""

__version__ = "0.1.0"

from .asymptotics import (
    EstimateWithCI,
    TestReport,
    binomial_thinning,
    chi_square_null_params,
    divergence_ci,
    entropy_ci,
    equality_test,
    hill_ci,
    normal_quantile,
    pearson_chi_square,
    two_sample_chi_square,
    uniformity_test,
)
from .counts import CountVector, JointCountTable
from .distributions import JointDistribution, ProbVector, check_alpha
from .errors import (
    DegenerateStatisticError,
    DomainError,
    NoSignalError,
    RenydivError,
    ShapeError,
    UndefinedStatisticError,
    UsageError,
    ValidationError,
)
from .measures import (
    cross_power_sum,
    hill_number,
    power_sum,
    renyi_divergence,
    renyi_entropy,
    tsallis_entropy,
)
from .montecarlo import (
    SimConfig,
    SimRun,
    bias_experiment,
    coverage_experiment,
    ks_distance_normal,
    mixture_distribution,
    sample_joint,
    sample_multinomial,
    simulate_statistic,
)
from .pipeline import (
    MixtureDecomposition,
    PipelineConfig,
    PipelineReport,
    diversity_pipeline,
    filter_noise,
    homogeneity_test,
)
from .powerlaw import FitResult, PowerLawModel, fit_powerlaw_ls, powerlaw_model, powerlaw_pmf, powerlaw_qq
from .projections import (
    LDReport,
    ProjectionMoments,
    bhattacharyya_v_variance,
    ld_diagnostic,
    noise_and_signal_w_variance,
    projection_v_moments,
    projection_w_moments,
    v_moments_independent,
)

# every name imported above but the underscore names and the submodules
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, type(measures))]
