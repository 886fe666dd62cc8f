"""Every scalar numeric argument of the library's entry points goes through one check:
a value of the wrong kind, or outside its interval, raises a RenydivError that names
the argument and the value."""
import math
import re

import numpy as np
import pytest

from renydiv import (JointCountTable, JointDistribution, PipelineConfig, ProbVector,
                     RenydivError, SimConfig, binomial_thinning, diversity_pipeline,
                     entropy_ci, filter_noise, ld_diagnostic, mixture_distribution,
                     noise_and_signal_w_variance, normal_quantile, power_sum, powerlaw_model,
                     powerlaw_pmf, sample_joint, sample_multinomial)

_HALVES = JointDistribution.product([0.5, 0.5], [0.5, 0.5])
_PAIR = np.random.default_rng(1).multinomial(2000, powerlaw_pmf(1.0, 30).probs, size=2)

# (argument, kind, a valid value, the call with the argument set to a value); the
# kind "int64" is an integer at most 2**63 - 1
ARGUMENTS = [
    ("u", "real", 0.5, normal_quantile),
    ("level", "real", 0.9, lambda v: entropy_ci([3, 1, 2], 0.5, v)),
    ("alpha", "real", 0.5, lambda v: power_sum([0.5, 0.5], v)),
    ("tau", "real", 0.5, lambda v: binomial_thinning([3, 1, 2], v, 0)),
    ("m", "integer", 2, ProbVector.uniform),
    ("product_mass", "real", 1.0, lambda v: JointDistribution([0.5, 0.5], [0.5, 0.5], v)),
    ("diag_weight", "real", 0.5, lambda v: JointDistribution.diagonal_mix([0.5, 0.5], v)),
    ("m", "integer", 2, lambda v: JointCountTable([0], [1], [2], v)),
    ("n_override", "int64", 5, lambda v: SimConfig(family="uniform", m=3, n_override=v,
                                                   statistic="thm3_uniform_entropy").n()),
    ("n", "int64", 5, lambda v: sample_multinomial([0.5, 0.5], v, np.random.default_rng(0))),
    ("n", "int64", 5, lambda v: sample_joint(_HALVES, v, np.random.default_rng(0))),
    ("noise_block_sizes", "integer", 2, lambda v: mixture_distribution(1.0, 2, 0.5, (v,), (0.5,))),
    ("noise_block_fractions", "real", 0.5,
     lambda v: mixture_distribution(1.0, 2, 0.5, (2,), (v,))),
    ("signal_m", "integer", 2, lambda v: mixture_distribution(1.0, v, 0.5, (2,), (0.5,))),
    ("signal_fraction", "real", 0.5, lambda v: mixture_distribution(1.0, 2, v, (2,), (0.5,))),
    ("level", "real", 0.01, lambda v: filter_noise([1, 2, 3], level=v)),
    ("max_K", "integer", 2, lambda v: filter_noise([1, 2, 3], max_K=v)),
    ("equality_level", "real", 0.05,
     lambda v: diversity_pipeline(*_PAIR, config=PipelineConfig(equality_level=v))),
    ("beta", "real", 1.0, lambda v: powerlaw_model(v, 3)),
    ("m", "integer", 3, lambda v: powerlaw_model(1.0, v)),
    ("p0", "real", 0.5, lambda v: noise_and_signal_w_variance(v, 3, 0.5)),
    ("m", "integer", 3, lambda v: noise_and_signal_w_variance(0.5, v, 0.5)),
    ("n", "int64", 100, lambda v: ld_diagnostic([0.5, 0.5], None, v, 0.5)),
]
_BAD = {"real": [math.nan, math.inf, True, "0.5"],
        "integer": [math.nan, math.inf, 2.5, True, "0.5"]}
_BAD["int64"] = _BAD["integer"] + [2**63]


def _cases():
    for k, (name, kind, _, call) in enumerate(ARGUMENTS):
        for value in _BAD[kind]:
            yield pytest.param(name, call, value, id=f"{k}-{name}-{value!r}")


@pytest.mark.parametrize("k", range(len(ARGUMENTS)),
                         ids=[f"{k}-{row[0]}" for k, row in enumerate(ARGUMENTS)])
def test_valid_value_accepted(k):
    _, _, good, call = ARGUMENTS[k]
    call(good)


@pytest.mark.parametrize("name, call, value", list(_cases()))
def test_bad_value_named(name, call, value):
    with pytest.raises(RenydivError) as info:
        call(value)
    shown = re.escape(repr(value))
    assert re.search(rf"\b{name} (must be .*, got {shown}|= {shown} must lie in )",
                     str(info.value)), str(info.value)
