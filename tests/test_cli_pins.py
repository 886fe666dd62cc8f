"""CLI output bytes pinned by sha256 on a seeded m = 2e4 table.

The digests were taken from the package before TSV parsing and report
emission were vectorized; any change to the bytes of a command's JSON or TSV
output shows up here. Category names include quotes, backslashes, control
characters and non-ASCII text, so string escaping is pinned too.
"""
import hashlib
import sys

import numpy as np
import pytest

from renydiv.cli import run_cli

M = 20_000
SIGNAL_M = 4_000
NOISE_SIZES = (10_000, 6_000)
NOISE_READS = (8_000, 12_000)
READS = 200_000
ODD_NAMES = ['say "hi"', "back\\slash", "café", "Ωmega", "\x01ctl", "unit\x1fsep",
             "🧬dna", "tab-free/слово", ""]


def _mixture(rng, beta):
    w = np.arange(1, SIGNAL_M + 1, dtype=float) ** -beta
    signal = rng.multinomial(READS - sum(NOISE_READS), w / w.sum())
    blocks = [np.bincount(rng.integers(0, size, reads), minlength=size)
              for size, reads in zip(NOISE_SIZES, NOISE_READS)]
    return np.concatenate([signal] + blocks)


def write_pin_table(path) -> None:
    """Four columns (two mixture pairs), rows shuffled, some odd category names."""
    rng = np.random.default_rng(20240611)
    cols = [_mixture(rng, beta) for beta in (1.0, 0.9, 1.0, 1.0)]
    names = [f"g{i:05d}" for i in range(M)]
    for k, odd in enumerate(ODD_NAMES):
        names[k * 997] = odd
    order = rng.permutation(M)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("category\tx\ty\tx2\ty2\n")
        for i in order.tolist():
            fh.write(names[i] + "".join(f"\t{int(c[i])}" for c in cols) + "\n")


PINS = {
    ('entropy', 'json'): '4927661c91866473f4da7c33a31d824ee714fe1df7eb5ec4b92c28c4d8c9f21c',
    ('entropy', 'tsv'): '56051ebab05211799ccd3bfdcf26f17e3dc9f4f186bf7b57d16c093c7ab0a76b',
    ('divergence', 'json'): '686c03a8271d7b6fefd5c4c67674ac0156fee7d9ebe13aba4264f4960e13bb33',
    ('divergence', 'tsv'): 'a5fda84b7814aa048604a6c84b993788b0bd208469c48ea7190fbbe011bf6637',
    ('filter-noise', 'json'): 'cc1f5a1e33194d427d0a360f7cf04a37e7ba6f3bed9d158122163dcb4ebe2bb6',
    ('filter-noise', 'tsv'): 'e4126ed25b6e7fc989ff9824a0a3da0a0692aba4fcb1975178ee8d2fd8230767',
    ('test-equality', 'json'): '0bde2e81ed765d1b9eabb38872ff7e6d2df2035e568ca34a2680ed01419f3744',
    ('test-equality', 'tsv'): '6a104c7d16a15876994de922851c484dfad8e546c84497f3a586160e7672ded9',
    ('test-homogeneity', 'json'): 'ea59dc67c763d72df551fdc84954005306448499a51e7f6b3a3dccbb8d4b7eb7',
    ('test-homogeneity', 'tsv'): '212c6a246c50e29fa92c0c49e702307c52f89aa64fc482e9460c319cf7799f83',
    ('fit-powerlaw', 'json'): '88cc6902dbb82cd4a7320de727749943c567df8c40d1411da8c103bd83dcd059',
    ('fit-powerlaw', 'tsv'): '6cba772f6de598dec148edc7871b79e36c5d85a631cabeea59a057c87d4589fc',
    ('pipeline', 'json'): 'e4a7d9a9edbf337ca67f934e096cd1e262a28d8fc465ab5fe27f29f7c6990b96',
    ('pipeline', 'tsv'): '12df12fe02d35d00a1941919644634cbfdb99987625db625c6a01571bffeabb2',
}


@pytest.fixture(scope="module")
def pin_table(tmp_path_factory):
    path = tmp_path_factory.mktemp("pins") / "table.tsv"
    write_pin_table(path)
    return str(path)


def cli_digest(argv, capsys) -> str:
    capsys.readouterr()
    assert run_cli(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


COMMANDS = ["entropy", "divergence", "filter-noise", "test-equality", "test-homogeneity",
            "fit-powerlaw", "pipeline"]


@pytest.mark.parametrize("fmt", ["json", "tsv"])
@pytest.mark.parametrize("command", COMMANDS)
def test_cli_output_bytes_pinned(command, fmt, pin_table, capsys):
    assert cli_digest([command, pin_table, "--format", fmt], capsys) == PINS[command, fmt]


# `renydiv --help` and each `renydiv <command> --help` at 80 columns, as the
# parser built one add_argument call at a time printed them
HELP_PINS = {
    None: 'feffa7b2c681700ad579e1320c03ddc863fb241932a8b039a19a17ecf99009a0',
    'entropy': 'bef025a36a0fa9e4321b0d24f864ff5cf9ebb2ccdc5b2a63df411653afb1d4fd',
    'divergence': '324a73a673acda67afedc1f0a04f3a16cc87226c8b8cfbc5c4537e95dabaa0ba',
    'filter-noise': '6be93248d500dcf8f243054b7acbc910eaed869b34c4c30b8f997ab13ad13c78',
    'test-equality': 'acaa70913eb137577996dbab155facb9e57ee287db1fbd7231c8561462bb4686',
    'test-homogeneity': 'e450be179fd4a2e19f050e9227a7f0e9ccb9e3bc26bf576a05b3fc1a956e5b55',
    'fit-powerlaw': '9b2460002636d5e0365fafcb914529255140396fccac8daab5ef3a9ad4db543a',
    'pipeline': '8b5b89f40773b9272d543f06d0a59dfcb90c53c6fbecf413788588ec69e50342',
    'simulate': '444cfebef3c18495986a0d750de7e42538666faa9c47c81bb10d0ac1616d33bb',
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse lays out help differently across Python versions")
@pytest.mark.parametrize("command", list(HELP_PINS), ids=lambda c: c or "top")
def test_help_bytes_pinned(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    argv = ([command] if command else []) + ["--help"]
    assert cli_digest(argv, capsys) == HELP_PINS[command]
