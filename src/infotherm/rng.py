"""Deterministic 64-bit PRNG used by every stochastic operation.

The generator is splitmix64 (Steele, Lea & Flood; Vigna's reference
constants), used in counter mode so that draw j of a seeded stream is a
pure function of (seed, j):

    state_j = (seed + j * 0x9E3779B97F4A7C15) mod 2^64        j = 1, 2, ...
    z = state_j
    z = (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9   mod 2^64
    z = (z XOR (z >> 27)) * 0x94D049BB133111EB   mod 2^64
    output_j = z XOR (z >> 31)

Uniform doubles in [0, 1) take the top 53 bits: u = (output >> 11) * 2^-53.

Counter mode keeps bulk generation vectorizable and makes streams
reproducible bit-for-bit across platforms and reimplementations, which the
corpus-generation and CLI determinism contracts require.
"""

from __future__ import annotations

import math

import numpy as np

from .core import _validate_seed

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_U53_INV = 2.0 ** -53


def splitmix64(seed: int, index: int) -> int:
    """Scalar draw: the ``index``-th (1-based) output of the seeded stream."""
    z = (seed + index * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def random_words(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """Outputs ``offset+1 .. offset+count`` of the seeded stream as uint64.

    Every mixing step runs in place on the output array, with one scratch
    array for the shifted copy, so a call allocates two arrays of ``count``
    words whatever its size.
    """
    seed = _validate_seed(seed)
    if count < 0:
        raise ValueError("count must be non-negative")
    z = np.arange(offset + 1, offset + count + 1, dtype=np.uint64)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(seed)
    shifted = np.empty_like(z)
    for shift, mix in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=shifted)
        z ^= shifted
        z *= np.uint64(mix)
    np.right_shift(z, np.uint64(31), out=shifted)
    z ^= shifted
    return z


def uniforms(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """Uniform float64 samples in [0, 1), one per stream output."""
    words = random_words(seed, count, offset)
    words >>= np.uint64(11)
    return words * _U53_INV


def _threshold(p: float) -> int:
    """The integer t with u < p exactly when (w >> 11) < t, for a stream
    word w and its uniform u: u is the 53-bit integer w >> 11 times 2^-53,
    and p * 2^53 is exact, so t = ceil(p * 2^53)."""
    return math.ceil(p * 2.0**53)
