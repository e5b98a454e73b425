"""Reproducible random streams.

Every stochastic object in the package draws from a counter-based Philox
generator keyed by (master_seed, mixed stream indices).  Streams for distinct
index tuples are statistically independent, and the draw sequence depends only
on the key — never on thread scheduling or call order — which is what makes
the bitwise-determinism check possible.
"""

from __future__ import annotations

import numpy as np

from .field import _is_integer

_MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> int:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _word(value, name: str) -> int:
    """An int or numpy integer (_is_integer) as its low 64 bits; anything
    else, a bool, a float or a string among them, is a ValueError naming it."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value) & _MASK64


def mix_indices(*indices: int) -> int:
    """Collapse an index tuple to one well-mixed 64-bit word."""
    acc = 0x5851F42D4C957F2D
    for idx in indices:
        acc = _splitmix64(acc ^ _word(idx, "stream index"))
    return acc


def stream(master_seed: int, *indices: int) -> np.random.Generator:
    """Independent generator for the given (seed, index...) coordinates."""
    key = np.array([_word(master_seed, "seed"), mix_indices(*indices)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
