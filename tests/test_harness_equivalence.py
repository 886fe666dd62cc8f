"""The Monte Carlo harness's output, pinned bit for bit by one sha256.

The digest covers, for every family x statistic pair that SimConfig.validate()
accepts, the samples and QQ pairs of simulate_statistic with and without
thinning_tau at workers 1 and 2, and the value (or the error) of
coverage_experiment and bias_experiment. A refactor of the harness must leave it
unchanged. It pins numpy's Generator streams too, so a numpy release that
changes them moves it; nothing else should.
"""
import dataclasses
import hashlib

from renydiv import (RenydivError, SimConfig, bias_experiment, coverage_experiment,
                     simulate_statistic)

FAMILIES = [
    dict(family="power_law", beta=1.0),
    dict(family="uniform"),
    dict(family="noise_and_signal", p0=0.3),
    dict(family="mixture", signal_beta=1.0, signal_m=10, signal_fraction=0.5,
         noise_block_sizes=(20,), noise_block_fractions=(0.5,)),
    dict(family="bivariate_product", beta=1.0, beta2=0.5),
    dict(family="bivariate_product", beta=0.8),
    dict(family="bivariate_joint", beta=1.0, diag_weight=0.3),
]
STATISTICS = ["thm1_entropy", "thm3_uniform_entropy", "lemma2_pearson", "thm2_divergence",
              "thm4_degenerate_divergence", "lemma2_two_sample"]
DIGEST = "a4340ab4588e1e898f04c0daf15d243e8e13733bc00eaea603e757be5e1f7d84"


def _accepted_configs():
    for fields in FAMILIES:
        for statistic in STATISTICS:
            cfg = SimConfig(m=30, n_override=600, B=40, master_seed=11, alpha=0.5,
                            statistic=statistic, **fields)
            try:
                cfg.validate()
            except RenydivError:
                continue
            yield cfg


def _outcome(fn, *args) -> bytes:
    try:
        out = fn(*args)
    except RenydivError as exc:
        return f"{type(exc).__name__}: {exc}".encode()
    if isinstance(out, float):
        return repr(out).encode()
    return out.samples.tobytes() + out.qq_pairs.tobytes()


def _digest() -> tuple[int, str]:
    h = hashlib.sha256()
    configs = list(_accepted_configs())
    for cfg in configs:
        for tau in (None, 0.8):
            for workers in (1, 2):
                run = dataclasses.replace(cfg, thinning_tau=tau, workers=workers)
                h.update(repr(run).encode())
                h.update(_outcome(simulate_statistic, run))
        h.update(_outcome(coverage_experiment, cfg, 0.9))
        h.update(_outcome(bias_experiment, cfg))
    return len(configs), h.hexdigest()


def test_harness_output_pinned():
    assert _digest() == (16, DIGEST)
