"""Error branches the rest of the suite leaves unexercised: one parametrized test per
module, each case asserting the exception type (or CLI exit code) and a message fragment."""
import re

import numpy as np
import pytest
from scipy.special import ndtri

from renydiv import (CountVector, DomainError, JointCountTable, JointDistribution,
                     PipelineConfig, ProbVector, ShapeError, SimConfig, UsageError,
                     ValidationError, bhattacharyya_v_variance, chi_square_null_params, cli,
                     cross_power_sum, divergence_ci, diversity_pipeline, entropy_ci,
                     filter_noise, fit_powerlaw_ls, hill_ci, ks_distance_normal, ld_diagnostic,
                     mixture_distribution, noise_and_signal_w_variance, power_sum,
                     powerlaw_model, powerlaw_pmf, powerlaw_qq, projection_v_moments,
                     renyi_divergence,
                     sample_joint, sample_multinomial, simulate_statistic,
                     two_sample_chi_square, v_moments_independent)
from renydiv.asymptotics import _z_level
from renydiv.io import parse_count_table

POWER_LAW = ("family = power_law\nbeta = 1.0\nm = 10\nn_override = 20\nB = 5\n"
             "statistic = thm1_entropy\n")


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _different_categories(monkeypatch, tmp_path):
    return ["divergence", _write(tmp_path, "x.tsv", "id\tx\na\t1\nb\t2\n"),
            _write(tmp_path, "y.tsv", "id\ty\na\t1\nc\t2\n")]


def _no_equals_sign(monkeypatch, tmp_path):
    return ["simulate", "--config", _write(tmp_path, "sim.cfg", POWER_LAW + "B 5\n")]


def _bad_env_seed(monkeypatch, tmp_path):
    monkeypatch.setenv(cli.ENV_SEED, "12abc")
    return ["simulate", "--config", _write(tmp_path, "sim.cfg", POWER_LAW)]


def _pipeline_bad_level(monkeypatch, tmp_path):
    # the level is named before any work: the filter would leave no shared signal here
    rows = "".join(f"c{i}\t5\t5\n" for i in range(50))
    return ["pipeline", _write(tmp_path, "t.tsv", "id\tx\ty\n" + rows), "--level", "1.5"]


def _one_replicate(monkeypatch, tmp_path):
    # refused before its replicate is drawn, by the key, not by the KS distance's "need at
    # least 2 samples"
    config = POWER_LAW.replace("B = 5", "B = 1")
    return ["simulate", "--config", _write(tmp_path, "sim.cfg", config)]


def _diagonal_joint(monkeypatch, tmp_path):
    # all the mass on the diagonal: gamma_n^2 = 0, refused before any draw
    config = ("family = bivariate_joint\nbeta = 1.0\ndiag_weight = 1\nm = 10\n"
              "n_override = 20\nB = 5\nstatistic = thm4_degenerate_divergence\n")
    return ["simulate", "--config", _write(tmp_path, "sim.cfg", config)]


def _command_bug(monkeypatch, tmp_path):
    def broken(args):
        raise RuntimeError("a bug")
    monkeypatch.setattr(cli, "_cmd_simulate", broken)
    return ["simulate", "--config", _write(tmp_path, "sim.cfg", POWER_LAW)]


@pytest.mark.parametrize("argv, code, text", [
    (_different_categories, 2, "error: the two tables list different categories"),
    (_no_equals_sign, 2, "line 7: expected key = value"),
    (_bad_env_seed, 2, "error: invalid RENYDIV_SEED value '12abc'"),
    (_pipeline_bad_level, 2, "error: level = 1.5 must lie in (0, 1)"),
    (_one_replicate, 2, "error: config key B = 1: simulate needs B >= 2 for its KS distance"),
    (_command_bug, 1, "internal error: RuntimeError: a bug"),
    (_diagonal_joint, 2, "error: thm4_degenerate_divergence is degenerate at config key "
     "diag_weight = 1: the two samples are identical (gamma_n = 0)"),
])
def test_cli_errors(monkeypatch, tmp_path, capsys, argv, code, text):
    assert cli.run_cli(argv(monkeypatch, tmp_path)) == code
    assert text in capsys.readouterr().err


@pytest.mark.parametrize("text, sample, message", [
    ("id\tx\na\t1\n", "y", "no sample named 'y'; have ['x']"),
    ("id\tx\tx\na\t1\t2\n", "x", "line 1: duplicate sample names"),
    ("id\tx\n", "x", "no category rows"),
])
def test_io_errors(tmp_path, text, sample, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        parse_count_table(_write(tmp_path, "t.tsv", text)).count_vector(sample)


_TABLE = JointCountTable.from_dense([[2, 1], [0, 3]])
_ZERO_MARGINAL = JointDistribution.diagonal_mix([0.5, 0.5, 0.0], 0.3)


@pytest.mark.parametrize("call, error, text", [
    (lambda: two_sample_chi_square(CountVector([1, 2]), [0.5, 0.5]), ShapeError,
     "expects a JointCountTable"),
    (lambda: two_sample_chi_square(_TABLE, [0.2, 0.3, 0.5]), ShapeError,
     "joint/probability sizes differ: 2 vs 3"),
    (lambda: two_sample_chi_square(_TABLE, [1.0, 0.0]), DomainError, "strictly positive p_i"),
    (lambda: chi_square_null_params(ProbVector([0.5, 0.5])), ShapeError,
     "expects a JointDistribution"),
    (lambda: chi_square_null_params(_ZERO_MARGINAL), DomainError,
     "strictly positive marginals"),
])
def test_asymptotics_errors(call, error, text):
    with pytest.raises(error, match=re.escape(text)):
        call()


@pytest.mark.parametrize("call, text", [
    (lambda: CountVector([[1, 2], [3, 4]]), "count vector must be 1-D"),
    (lambda: CountVector(np.array(["1", "two"])), "counts must be integers"),
    (lambda: CountVector([0, 0]), "total count n must be >= 1"),
    # past the int64 maximum as float64, as a float, as object and as uint64
    (lambda: CountVector([2**63, 1]),
     "counts must be integers: 9.223372036854776e+18 exceeds the int64 maximum "
     "9223372036854775807"),
    (lambda: CountVector([2.0**63]),
     "counts must be integers: 9.223372036854776e+18 exceeds the int64 maximum"),
    (lambda: CountVector([2**64, 1]),
     "counts must be integers: 18446744073709551616 exceeds the int64 maximum"),
    (lambda: CountVector(np.array([2**63], dtype=np.uint64)),
     "counts must be integers: 9223372036854775808 exceeds the int64 maximum"),
    (lambda: JointCountTable([0], [1], np.array([2**63], dtype=np.uint64), 2),
     "cell counts must be integers: 9223372036854775808 exceeds the int64 maximum"),
    (lambda: JointCountTable([2**64], [0], [1], 2),
     "cell indices must be integers: 18446744073709551616 exceeds the int64 maximum"),
    (lambda: JointCountTable([0], np.array([2**63], dtype=np.uint64), [1], 2),
     "cell indices must be integers: 9223372036854775808 exceeds the int64 maximum"),
    # the largest int64 as a uint64 is accepted
    (lambda: CountVector(np.array([2**63 - 1], dtype=np.uint64)), None),
    # the size cases keep the ids they had while m had no upper bound
    pytest.param(lambda: JointCountTable([], [], [], 0), "m = 0 must lie in [1, 2147483647]",
                 id="<lambda>-m = 0 must lie in [1, inf)"),
    (lambda: JointCountTable.from_dense([[1, 2, 3], [4, 5, 6]]), "must be square"),
    # any complex dtype, not only one with an imaginary part
    pytest.param(lambda: CountVector(np.array([3 + 0j, 1])), "counts must be integers",
                 id="complex-3+0j"),
])
def test_counts_errors(call, text):
    if text is None:
        assert call().n == 2**63 - 1
        return
    with pytest.raises((DomainError if " must lie in " in text else ValidationError),
                       match=re.escape(text)):
        call()


_NP_COMPLEX = np.complex128(0.5 + 1j)


@pytest.mark.parametrize("call, error, text", [
    (lambda: ProbVector([[0.5, 0.5]]), ValidationError, "must be 1-D and non-empty"),
    (lambda: ProbVector([0.5, np.nan]), ValidationError, "non-finite entries"),
    pytest.param(lambda: ProbVector.uniform(0), DomainError, "m = 0 must lie in [1, 2147483647]",
                 id="<lambda>-DomainError-m = 0 must lie in [1, inf)"),
    (lambda: JointDistribution.diagonal_mix([0.5, 0.5], 1.5), DomainError,
     "diag_weight = 1.5 must lie in [0, 1]"),
    # complex, str and uncastable object masses are refused, not cast: a cast drops the
    # imaginary part behind a ComplexWarning
    pytest.param(lambda: ProbVector(np.array([0.5 + 1j, 0.5])), ValidationError,
                 "probability vector must be real numbers, got dtype complex128",
                 id="complex-ProbVector"),
    pytest.param(lambda: power_sum(np.array([0.5 + 7j, 0.5]), 0.5), ValidationError,
                 "probability vector must be real numbers, got dtype complex128",
                 id="complex-power_sum"),
    pytest.param(lambda: ProbVector(np.array([0.5 + 1j, 0.5], dtype=object)), ValidationError,
                 "probability vector must be real numbers, got dtype object",
                 id="object-complex-ProbVector"),
    # a numpy complex scalar casts to float through its __float__, with only a warning
    pytest.param(lambda: ProbVector(np.array([_NP_COMPLEX, 0.5], dtype=object)),
                 ValidationError, "probability vector must be real numbers, got dtype object",
                 id="object-numpy-complex-ProbVector"),
    pytest.param(lambda: JointDistribution([.5, .5], [.5, .5], .5, [0], [0],
                                           np.array([np.complex64(0.5)], dtype=object)),
                 ValidationError, "joint distribution must be real numbers, got dtype object",
                 id="object-numpy-complex-JointDistribution-cells"),
    pytest.param(lambda: ProbVector(np.array(["0.5", "0.5"])), ValidationError,
                 "probability vector must be real numbers, got dtype <U3", id="str-ProbVector"),
    pytest.param(lambda: JointDistribution([.5, .5], [.5, .5], .5, [0], [0], [0.5 + 2j]),
                 ValidationError, "joint distribution must be real numbers, got dtype complex128",
                 id="complex-JointDistribution-cells"),
    pytest.param(lambda: JointDistribution.from_dense(np.array([[0.5 + 1j, 0], [0, 0.5]])),
                 ValidationError, "joint distribution must be real numbers, got dtype complex128",
                 id="complex-from_dense"),
])
def test_distributions_errors(call, error, text):
    with pytest.raises(error, match=re.escape(text)):
        call()


def _mixture(**changes):
    fields = dict(signal_beta=1.0, signal_m=10, signal_fraction=0.5,
                  noise_block_sizes=(10,), noise_block_fractions=(0.5,))
    return lambda: mixture_distribution(**{**fields, **changes})


def _power_law(statistic="thm1_entropy", **fields):
    return SimConfig(family="power_law", beta=1.0, m=10, statistic=statistic, **fields)


_STREAM = np.random.default_rng(0)


@pytest.mark.parametrize("call, error, text", [
    (lambda: _power_law(epsilon=-2.0).n(), DomainError, "derived n = 0 must be >= 1"),
    (lambda: _power_law(n_override=0).n(), DomainError,
     "config key n_override = 0 must lie in [1, 9223372036854775807]"),
    (lambda: _power_law(n_override=2**63).n(), DomainError,
     "config key n_override = 9223372036854775808 must lie in [1, 9223372036854775807]"),
    (lambda: _power_law("thm2_divergence", n_override=20).validate(), UsageError,
     "thm2_divergence needs a bivariate family"),
    # both samplers raise the same text; these two cases keep the ids they had
    # under the earlier "n must be >= 1" wording (pytest numbers them _0, _1)
    pytest.param(lambda: sample_multinomial(ProbVector.uniform(3), 0, _STREAM), DomainError,
                 "n = 0 must lie in [1, 9223372036854775807]",
                 id="<lambda>-DomainError-n must be >= 1"),
    pytest.param(lambda: sample_joint(JointDistribution.product([0.5, 0.5], [0.5, 0.5]), 0,
                                      _STREAM),
                 DomainError, "n = 0 must lie in [1, 9223372036854775807]",
                 id="<lambda>-DomainError-n must be >= 1"),
    (_mixture(signal_beta=None), UsageError, "mixture family requires signal_beta"),
    (_mixture(noise_block_fractions=(0.25, 0.25)), UsageError,
     "need matching, non-empty noise block sizes and fractions"),
    (_mixture(noise_block_sizes=(0,)), DomainError,
     "noise_block_sizes = 0 must lie in [1, 2147483646]"),
    # n = 2 draws from p and q over 1e5 categories almost never meet
    (lambda: simulate_statistic(SimConfig(
        family="bivariate_product", m=100000, beta=0.5, beta2=1.5, n_override=2, B=50,
        statistic="thm2_divergence")), DomainError,
     "thm2_divergence at n = 2: a replicate's two samples share no category "
     "(empty shared support)"),
    (lambda: ks_distance_normal([[0.1, 0.2], [0.3, 0.4]]), ValidationError,
     "samples must be 1-D, got shape (2, 2)"),
    (lambda: ks_distance_normal(0.5), ValidationError, "samples must be 1-D, got shape ()"),
    pytest.param(lambda: ks_distance_normal(np.array([0.5 + 1j, 0.1, -0.3])), ValidationError,
                 "samples must be real numbers, got dtype complex128",
                 id="complex-ks_distance_normal"),
    pytest.param(lambda: ks_distance_normal(np.array([_NP_COMPLEX, 0.1, -0.3], dtype=object)),
                 ValidationError, "samples must be real numbers, got dtype object",
                 id="object-numpy-complex-ks_distance_normal"),
    pytest.param(lambda: simulate_statistic(_power_law(n_override=20, B=1)), DomainError,
                 "config key B = 1: simulate needs B >= 2 for its KS distance",
                 id="simulate-B-1"),
    pytest.param(lambda: simulate_statistic(SimConfig(
        family="bivariate_joint", beta=1.0, diag_weight=1.0, m=10, n_override=20, B=5,
        statistic="lemma2_two_sample")), UsageError,
        "lemma2_two_sample is degenerate at config key diag_weight = 1.0: the two samples are "
        "identical (gamma_n = 0)", id="simulate-diag_weight-1"),
])
def test_montecarlo_errors(call, error, text):
    with pytest.raises(error, match=re.escape(text)):
        call()


@pytest.mark.parametrize("call, error, text", [
    (lambda: fit_powerlaw_ls([[9, 4], [2, 1]]), ValidationError,
     "counts must be 1-D, got shape (2, 2)"),
    (lambda: powerlaw_qq([[9, 4], [2, 1]], powerlaw_model(1.0, 4)), ValidationError,
     "counts must be 1-D, got shape (2, 2)"),
    (lambda: powerlaw_qq([9, 4, 2, 1], 5), ShapeError, "powerlaw_qq expects a PowerLawModel"),
    pytest.param(lambda: fit_powerlaw_ls(np.array([3 + 1j, 2, 1])), ValidationError,
                 "counts must be real numbers, got dtype complex128", id="complex-fit"),
    pytest.param(lambda: fit_powerlaw_ls(np.array([np.complex128(3 + 1j), 2, 1], dtype=object)),
                 ValidationError, "counts must be real numbers, got dtype object",
                 id="object-numpy-complex-fit"),
    pytest.param(lambda: fit_powerlaw_ls(["a", "b", "c"]), ValidationError,
                 "counts must be real numbers, got dtype <U1", id="str-fit"),
])
def test_powerlaw_errors(call, error, text):
    with pytest.raises(error, match=re.escape(text)):
        call()


@pytest.mark.parametrize("call, error, text", [
    (lambda: noise_and_signal_w_variance(1.0, 10, 0.5), DomainError,
     "p0 = 1.0 must lie in (0, 1)"),
    pytest.param(lambda: noise_and_signal_w_variance(0.5, 0, 0.5), DomainError,
                 "m = 0 must lie in [1, 1.7976931348623157e+308]",
                 id="<lambda>-DomainError-m = 0 must lie in [1, inf)"),
    (lambda: projection_v_moments(ProbVector([0.5, 0.5]), 0.5), ShapeError,
     "projection_v_moments expects a JointDistribution"),
    (lambda: v_moments_independent([0.5, 0.5], [0.2, 0.3, 0.5], 0.5), ShapeError,
     "category counts differ: 2 vs 3"),
    (lambda: ld_diagnostic([0.5, 0.5], [0.2, 0.3, 0.5], 100, 0.5), ShapeError,
     "category counts differ: 2 vs 3"),
    # the size mismatch is named before the zero mass
    (lambda: ld_diagnostic([1.0, 0.0], [0.2, 0.3, 0.5], 100, 0.5), ShapeError,
     "category counts differ: 2 vs 3"),
    (lambda: ld_diagnostic([0.5, 0.5], [1.0, 0.0], 100, 0.5), DomainError,
     "ld_diagnostic requires strictly positive masses"),
    (lambda: cross_power_sum([0.5, 0.5], [0.2, 0.3, 0.5], 0.5), ShapeError,
     "category counts differ: 2 vs 3"),
    (lambda: renyi_divergence([0.5, 0.5], [0.2, 0.3, 0.5], 0.5), ShapeError,
     "category counts differ: 2 vs 3"),
    (lambda: bhattacharyya_v_variance([0.5, 0.5], [0.2, 0.3, 0.5]), ShapeError,
     "category counts differ: 2 vs 3"),
    (lambda: renyi_divergence([0.5, 0.5, 0, 0], [0, 0, 0.5, 0.5], 0.5), DomainError,
     "no shared support between p and q: S_a(p, q) = 0 and D_a is infinite"),
    (lambda: v_moments_independent([0.5, 0.5, 0, 0], [0, 0, 0.5, 0.5], 0.5), DomainError,
     "no shared support between p and q: V is undefined"),
])
def test_projections_errors(call, error, text):
    with pytest.raises(error, match=re.escape(text)):
        call()


# sizes past M_MAX = 2**31 - 1 (past the float range for the closed form), and levels
# whose normal quantile's probability rounds to 1: each a DomainError naming the argument
@pytest.mark.parametrize("call, text", [
    (lambda: JointCountTable([2**31, 0], [5, 5], [1, 1], m=2**33),
     "m = 8589934592 must lie in [1, 2147483647]"),
    (lambda: JointCountTable([0], [1], [2], m=2**70), f"m = {2**70} must lie in [1, 2147483647]"),
    (lambda: JointCountTable([0], [1], [2], m=2**31), "m = 2147483648 must lie in [1, 2147483647]"),
    (lambda: ProbVector.uniform(2**70), f"m = {2**70} must lie in [1, 2147483647]"),
    (lambda: powerlaw_pmf(1.0, 2**70), f"m = {2**70} must lie in [1, 2147483647]"),
    (lambda: powerlaw_model(1.0, 2**31), "m = 2147483648 must lie in [1, 2147483647]"),
    (lambda: noise_and_signal_w_variance(0.5, 10**400, 0.5),
     f"m = {10**400} must lie in [1, 1.7976931348623157e+308]"),
    (lambda: noise_and_signal_w_variance(0.5, 10**300, 0.01),
     f"m = {10**300}: Var W at p0 = 0.5 and alpha = 0.01 exceeds the float range"),
    (lambda: entropy_ci([3, 1, 2, 5], 0.5, 0.9999999999999999),
     "level = 0.9999999999999999: the normal quantile at 0.5 + level / 2 rounds to 1"),
    (lambda: hill_ci([3, 1, 2, 5], 0.5, 0.9999999999999999),
     "level = 0.9999999999999999: the normal quantile at 0.5 + level / 2 rounds to 1"),
    (lambda: divergence_ci([3, 1, 2, 5], [1, 2, 3, 4], 0.5, 0.9999999999999999),
     "level = 0.9999999999999999: the normal quantile at 0.5 + level / 2 rounds to 1"),
    (lambda: diversity_pipeline([5] * 50, [5] * 50, config=PipelineConfig(ci_level=1.5)),
     "level = 1.5 must lie in (0, 1)"),
    (lambda: filter_noise([1, 2, 3], level=5e-324),
     "level = 5e-324: the normal quantile at 1 - level rounds to 1"),
    (lambda: filter_noise([1, 2, 3], level=2.0**-54),
     "level = 5.551115123125783e-17: the normal quantile at 1 - level rounds to 1"),
])
def test_size_and_level_bounds(call, text):
    with pytest.raises(DomainError, match=re.escape(text)):
        call()


@pytest.mark.parametrize("level, two_sided, u", [
    (0.95, True, 0.975), (1 - 2.0**-52, True, 1 - 2.0**-53),
    (0.01, False, 0.99), (2.0**-53, False, 1 - 2.0**-53)])
def test_level_quantile_bits(level, two_sided, u):
    # the check adds nothing to the quantile: ndtri of 0.5 + level / 2 or 1 - level,
    # also on the last levels before the rounding edge
    assert _z_level(level, two_sided) == float(ndtri(u))


@pytest.mark.parametrize("flag, value", [("--level", "0.9999999999999999"),
                                         ("--noise-level", "5e-324")])
def test_cli_level_error_names_the_level(tmp_path, capsys, flag, value):
    table = _write(tmp_path, "t.tsv", "id\tx\na\t3\nb\t1\nc\t2\nd\t5\n")
    command = "entropy" if flag == "--level" else "filter-noise"
    assert cli.run_cli([command, table, flag, value]) == 2
    err = capsys.readouterr().err
    assert f"error: level = {value}: the normal quantile at " in err and "u = " not in err
