"""Seeded input generation for the benchmark workloads.

Inputs are built with numpy alone, so they do not change when the code under
test changes: the same seed gives the same arrays and the same file bytes.
"""
from __future__ import annotations

import hashlib

import numpy as np

M = 1_000_000             # categories in every m = 1e6 input
READS = 10_000_000        # reads per sample column of the CLI table
SIGNAL_M = 200_000        # power-law signal categories of a mixture column
NOISE_SIZES = (500_000, 300_000)   # two uniform low-count noise blocks
NOISE_READS = (400_000, 600_000)   # mean counts 0.8 and 2.0 per noise category


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent generator for one named input stream of a workload seed."""
    key = int.from_bytes(hashlib.sha256(stream.encode()).digest()[:4], "little")
    return np.random.default_rng(np.random.SeedSequence([seed, key]))


def powerlaw_probs(beta: float, m: int) -> np.ndarray:
    w = np.arange(1, m + 1, dtype=float) ** -beta
    return w / w.sum()


def mixture_counts(rng: np.random.Generator, beta: float) -> np.ndarray:
    """Power-law signal on ids [0, SIGNAL_M), then two uniform noise blocks."""
    signal = rng.multinomial(READS - sum(NOISE_READS), powerlaw_probs(beta, SIGNAL_M))
    blocks = [np.bincount(rng.integers(0, size, reads), minlength=size)
              for size, reads in zip(NOISE_SIZES, NOISE_READS)]
    return np.concatenate([signal] + blocks).astype(np.int64)


def category_id(name: str) -> int:
    return int(name[3:])


def pipeline_table(seed: int):
    """Two mixture columns (signal beta 1.0 and 0.9) as TSV bytes, rows shuffled.

    Returns (tsv_bytes, x, y) with x and y indexed by category id.
    """
    rng = rng_for(seed, "pipeline_table")
    x = mixture_counts(rng, 1.0)
    y = mixture_counts(rng, 0.9)
    order = rng.permutation(M)
    rows = "".join(
        f"cat{i:07d}\t{a}\t{b}\n"
        for i, a, b in zip(order.tolist(), x[order].tolist(), y[order].tolist())
    )
    return ("category\tsample_b10\tsample_b09\n" + rows).encode(), x, y


def count_stats(counts: np.ndarray) -> dict:
    """m, n, occupied categories and distinct count values (filter_noise strata)."""
    pos = counts[counts > 0]
    return {"m": int(counts.size), "n": int(counts.sum()), "occupied": int(pos.size),
            "distinct_counts": int(np.unique(pos).size)}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
