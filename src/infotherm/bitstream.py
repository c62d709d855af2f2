"""Binary files as frozen two-level gases.

A bitstream is an ordered {0,1} sequence whose disorder is quenched: the
pattern is fixed, unlike a thermal gas where excitations move. Energy is
assigned per "one" bit, so streams of equal ones-density carry equal
energy while carrying very different amounts of information; the
estimators and the equilibrium (randomness) test below quantify that
difference.

Two information estimates are reported side by side and neither is
privileged: the iid plug-in L*H(n/L), and an order-k conditional
block-entropy rate that sees bit-to-bit correlations the iid estimate
cannot.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .core import Information
from .filestats import (  # noqa: F401  (re-exported; these need no numpy)
    BIT_ORDERS,
    GENERATOR_KINDS,
    ORDERED,
    RANDOM,
    UNDECIDED,
    FileStats,
    average_nat_energy,
    binary_entropy,
    file_heat_and_entropy,
    file_temperature,
)
from .rng import random_words, splitmix64

#: Minimum stream length for the randomness verdict to be attempted.
MIN_TEST_LENGTH = 64

#: Required samples per order-k context before the conditional rate is
#: reported: L >= 64 * 2**k.
MIN_SAMPLES_PER_CONTEXT = 64

MAX_MARKOV_ORDER = 16

#: Words the generators draw at a time: a block and the generator's
#: scratch copy (512 KiB each) stay in L2 cache.
_BLOCK = 1 << 16


@dataclass(frozen=True, eq=False)
class Bitstream:
    """An ordered bit sequence."""

    bits: np.ndarray

    def __post_init__(self):
        bits = np.ascontiguousarray(self.bits, dtype=np.uint8)
        if bits.ndim != 1 or bits.size < 1:
            raise ValueError("bitstream must be a non-empty 1-d sequence")
        if bits.size and int(bits.max()) > 1:
            raise ValueError("bitstream elements must be 0 or 1")
        object.__setattr__(self, "bits", bits)

    @property
    def length(self) -> int:
        return int(self.bits.size)

    @property
    def ones(self) -> int:
        return int(self.bits.sum())


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for a synthetic corpus.

    kinds: bernoulli (iid ones-probability ``p``), markov (flip the
    previous bit with probability ``q``; stationary ones-density 1/2 for
    every q, so corpora differ in information at equal energy),
    ordered_block (L/2 ones then zeros), alternating (0101...).
    """

    kind: str
    length: int
    seed: int = 0
    p: float | None = None
    q: float | None = None

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.length < 1:
            raise ValueError("length must be positive")
        if not 0 <= self.seed <= 0xFFFFFFFFFFFFFFFF:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.kind == "bernoulli":
            if self.p is None or not 0 <= self.p <= 1:
                raise ValueError("bernoulli requires p in [0, 1]")
        if self.kind == "markov":
            if self.q is None or not 0 <= self.q <= 1:
                raise ValueError("markov requires flip probability q in [0, 1]")


def _threshold(p: float) -> int:
    """The integer t with u < p exactly when (w >> 11) < t, for a stream
    word w and its uniform u: u is the 53-bit integer w >> 11 times 2^-53,
    and p * 2^53 is exact, so t = ceil(p * 2^53)."""
    return math.ceil(p * 2.0**53)


def _draws_below(seed: int, p: float, bits: np.ndarray) -> None:
    """Set ``bits[t]`` to u_(t+1) < p for every t, comparing the stream's
    words with the integer threshold ``_BLOCK`` words at a time."""
    threshold = np.uint64(_threshold(p))
    flags = bits.view(np.bool_)
    for start in range(0, bits.size, _BLOCK):
        top = random_words(seed, min(_BLOCK, bits.size - start), start)
        top >>= np.uint64(11)
        np.less(top, threshold, out=flags[start : start + top.size])


def generate(spec: GeneratorSpec) -> Bitstream:
    """Deterministically generate the stream described by ``spec``.

    Uniform draws come from the seeded splitmix64 stream, one per bit in
    order, so output is bit-identical across runs and platforms.
    """
    L = spec.length
    if spec.kind in ("bernoulli", "markov"):
        bits = np.empty(L, dtype=np.uint8)
        _draws_below(spec.seed, spec.p if spec.kind == "bernoulli" else spec.q, bits)
        if spec.kind == "markov":
            # bit t is the first bit (u_1 < 1/2) xor the flips u_2..u_(t+1) < q
            bits[0] = (splitmix64(spec.seed, 1) >> 11) < _threshold(0.5)
            np.bitwise_xor.accumulate(bits, out=bits)
    elif spec.kind == "ordered_block":
        bits = np.zeros(L, dtype=np.uint8)
        bits[: L // 2] = 1
    else:  # alternating
        bits = (np.arange(L, dtype=np.int64) % 2).astype(np.uint8)
    return Bitstream(bits=bits)


def read_bitstream(path: str | os.PathLike, bit_order: str = "msb_first") -> Bitstream:
    """Unpack a raw binary file into bits, 8 per byte, in the given order."""
    if bit_order not in BIT_ORDERS:
        raise ValueError(f"bit_order must be one of {BIT_ORDERS}")
    data = np.fromfile(path, dtype=np.uint8)
    if data.size == 0:
        raise ValueError(f"file {path!s} is empty")
    order = "big" if bit_order == "msb_first" else "little"
    return Bitstream(bits=np.unpackbits(data, bitorder=order))


def write_bitstream(stream: Bitstream, path: str | os.PathLike, bit_order: str = "msb_first") -> None:
    """Pack a stream back to raw bytes. Length must be a multiple of 8."""
    if bit_order not in BIT_ORDERS:
        raise ValueError(f"bit_order must be one of {BIT_ORDERS}")
    if stream.length % 8 != 0:
        raise ValueError("stream length must be a multiple of 8 to write raw bytes")
    order = "big" if bit_order == "msb_first" else "little"
    np.packbits(stream.bits, bitorder=order).tofile(path)


def lag1_autocorrelation(stream: Bitstream) -> float:
    """Sample autocorrelation of adjacent bits; 0 for constant streams."""
    x = stream.bits.astype(np.float64)
    x -= x.mean()
    denom = float(np.dot(x, x))
    if denom == 0.0 or x.size < 2:
        return 0.0
    return float(np.dot(x[:-1], x[1:]) / denom)


def conditional_entropy_rate(stream: Bitstream, order: int) -> float:
    """Plug-in conditional block-entropy rate of the given order, nats/bit.

    Counts (order+1)-grams over all L cyclic (wrap-around) windows and
    conditions each final bit on its order-bit context. Cyclic windows
    make the empirical block distributions consistent across orders, so
    the rate is exactly non-increasing in the order and never exceeds
    ln 2. Order 0 reduces to the iid plug-in H(n/L).
    """
    if not 0 <= order <= MAX_MARKOV_ORDER:
        raise ValueError(f"markov order must lie in [0, {MAX_MARKOV_ORDER}]")
    bits = stream.bits
    L = bits.size
    if order == 0:
        return binary_entropy(float(bits.mean()))
    if L < order + 1:
        raise ValueError("stream shorter than the block size")
    counts = _window_counts(bits, order + 1).astype(np.float64)
    context = counts.reshape(-1, 2).sum(axis=1)
    ctx_rep = np.repeat(context, 2)
    mask = counts > 0
    h = np.sum(counts[mask] * (np.log(ctx_rep[mask]) - np.log(counts[mask])))
    return float(h / L)


def _window_counts(bits: np.ndarray, width: int) -> np.ndarray:
    """How often each cyclic ``width``-bit window (2 <= width <= 17) of
    ``bits`` occurs, indexed by the window read MSB-first.

    The stream and its first width-1 bits are packed MSB-first. The window
    at bit 8j + s is then bits s..s+width-1 of the big-endian key of bytes
    j, j+1 (and j+2 when width > 9): one shift and mask. Each of the
    L // 8 whole bytes starts eight windows; a partial last byte starts
    L % 8. For 16-bit keys the key histogram is summed down to each
    offset's windows; for 24-bit keys each offset is counted on its own.
    """
    full, rest = divmod(bits.size, 8)
    tail = np.concatenate([bits[8 * full :], bits[: width - 1]])
    packed = np.concatenate([np.packbits(bits[: 8 * full]), np.packbits(tail), np.zeros(2, np.uint8)])
    key_bits = 16 if width <= 9 else 24
    keys = np.zeros(full + 1, dtype=np.intp)
    for i in range(key_bits // 8):
        keys <<= 8
        keys |= packed[i : i + full + 1]
    mask = (1 << width) - 1
    if key_bits == 16:
        hist = np.bincount(keys[:full], minlength=1 << 16)
        counts = sum(hist.reshape(1 << s, 1 << width, -1).sum(axis=(0, 2)) for s in range(8))
    else:
        counts = np.zeros(1 << width, dtype=np.intp)
        for s in range(8):
            counts += np.bincount((keys[:full] >> (key_bits - width - s)) & mask, minlength=1 << width)
    last = int(keys[full])
    for s in range(rest):
        counts[(last >> (key_bits - width - s)) & mask] += 1
    return counts


def randomness_test(stream: Bitstream) -> str:
    """Classify a stream as random, ordered, or undecided.

    Random requires both the ones-density and the lag-1 autocorrelation to
    sit inside their three-sigma binomial bands; ordered means either
    statistic exceeds its five-sigma band; anything between is undecided.
    """
    L = stream.length
    if L < MIN_TEST_LENGTH:
        raise ValueError(f"stream too short to test (need {MIN_TEST_LENGTH} bits)")
    return _verdict(L, stream.ones, lag1_autocorrelation(stream))


def _verdict(L: int, ones: int, lag1: float) -> str:
    """The randomness verdict from a stream's length, ones and lag-1
    autocorrelation (see ``randomness_test``)."""
    sqrt_l = math.sqrt(L)
    dev_p = abs(ones / L - 0.5)
    dev_r = abs(lag1)
    sigma_p = 0.5 / sqrt_l
    sigma_r = 1.0 / sqrt_l
    if dev_p <= 3 * sigma_p and dev_r <= 3 * sigma_r:
        return RANDOM
    if dev_p > 5 * sigma_p or dev_r > 5 * sigma_r:
        return ORDERED
    return UNDECIDED


def analyze(stream: Bitstream, markov_order: int = 3) -> FileStats:
    """Full per-stream statistics.

    The order-k conditional rate is only reported when the stream offers
    at least 64 samples per context (L >= 64 * 2**k); it is None
    otherwise. The equilibrium verdict is undecided for streams too short
    to test.
    """
    if not 0 <= markov_order <= MAX_MARKOV_ORDER:
        raise ValueError(f"markov order must lie in [0, {MAX_MARKOV_ORDER}]")
    L = stream.length
    n = stream.ones
    p_hat = n / L
    rate = None
    if L >= MIN_SAMPLES_PER_CONTEXT * (2 ** markov_order):
        rate = conditional_entropy_rate(stream, markov_order)
    lag1 = lag1_autocorrelation(stream)
    verdict = _verdict(L, n, lag1) if L >= MIN_TEST_LENGTH else UNDECIDED
    return FileStats(
        length=L,
        ones=n,
        p_hat=p_hat,
        info_iid=Information(L * binary_entropy(p_hat)),
        info_rate_markov=rate,
        markov_order=markov_order,
        equilibrium=verdict,
        correlation_lag1=lag1,
    )
