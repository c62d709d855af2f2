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
from dataclasses import dataclass, field

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

#: Bytes the counting kernels read at a time. Their temporaries are a few
#: times this size, whatever the length of the stream.
_CHUNK = 1 << 16

#: Per byte value: its ones, its adjacent pairs of ones (the ones of
#: v & (v >> 1)), and the value with its bit order reversed.
_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)
_PAIRS = np.array([bin(v & (v >> 1)).count("1") for v in range(256)], dtype=np.uint8)
_REVERSED = np.array([int(f"{v:08b}"[::-1], 2) for v in range(256)], dtype=np.uint8)


@dataclass(frozen=True, eq=False)
class Bitstream:
    """An ordered sequence of ``length`` bits, packed MSB first: bit i is
    bit 7 - i % 8 of byte i // 8 of ``packed``, and the bits of the last
    byte past ``length`` are 0. ``ones`` is counted when the stream is
    built."""

    packed: np.ndarray
    length: int
    ones: int = field(init=False)

    def __post_init__(self):
        packed = np.ascontiguousarray(self.packed, dtype=np.uint8)
        length = int(self.length)
        if length < 1 or packed.ndim != 1 or packed.size != (length + 7) // 8:
            raise ValueError("a bitstream of L >= 1 bits packs into a 1-d array of ceil(L/8) bytes")
        if int(packed[-1]) & ((1 << (-length % 8)) - 1):
            raise ValueError("the padding bits of the last byte must be 0")
        object.__setattr__(self, "packed", packed)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "ones", _table_sum(_POPCOUNT, packed))

    @classmethod
    def from_bits(cls, bits) -> Bitstream:
        """The stream of a sequence of 0s and 1s, one element per bit."""
        bits = np.ascontiguousarray(bits, dtype=np.uint8)
        if bits.ndim != 1 or bits.size < 1:
            raise ValueError("bitstream must be a non-empty 1-d sequence")
        if int(bits.max()) > 1:
            raise ValueError("bitstream elements must be 0 or 1")
        return cls(np.packbits(bits), bits.size)

    @property
    def bits(self) -> np.ndarray:
        """The bits, one uint8 each, unpacked into a new read-only array."""
        bits = np.unpackbits(self.packed, count=self.length)
        bits.flags.writeable = False
        return bits


def _table_sum(table: np.ndarray, packed: np.ndarray) -> int:
    """The sum of ``table[b]`` over the bytes b of ``packed``."""
    return sum(int(table.take(packed[i : i + _CHUNK]).sum(dtype=np.int64))
               for i in range(0, packed.size, _CHUNK))


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


def _draw_packed(spec: GeneratorSpec, packed: np.ndarray) -> None:
    """Pack the bernoulli bits u_(t+1) < p, or the markov bits (the first
    bit u_1 < 1/2 xor the flips u_2..u_(t+1) < q), into ``packed``,
    comparing the stream's words with the integer threshold ``_BLOCK``
    words at a time. The markov xor prefix carries from block to block."""
    markov = spec.kind == "markov"
    threshold = np.uint64(_threshold(spec.q if markov else spec.p))
    flags = np.empty(_BLOCK, dtype=np.bool_)
    carry = False
    for start in range(0, spec.length, _BLOCK):
        top = random_words(spec.seed, min(_BLOCK, spec.length - start), start)
        top >>= np.uint64(11)
        block = flags[: top.size]
        np.less(top, threshold, out=block)
        if markov:
            if start == 0:
                block[0] = (splitmix64(spec.seed, 1) >> 11) < _threshold(0.5)
            np.logical_xor.accumulate(block, out=block)
            if carry:
                np.logical_not(block, out=block)
            carry = bool(block[-1])
        packed[start // 8 : (start + block.size + 7) // 8] = np.packbits(block)


def generate(spec: GeneratorSpec) -> Bitstream:
    """Deterministically generate the stream described by ``spec``.

    Uniform draws come from the seeded splitmix64 stream, one per bit in
    order, so output is bit-identical across runs and platforms.
    """
    L = spec.length
    packed = np.zeros((L + 7) // 8, dtype=np.uint8)
    if spec.kind in ("bernoulli", "markov"):
        _draw_packed(spec, packed)
    elif spec.kind == "ordered_block":
        full, rest = divmod(L // 2, 8)
        packed[:full] = 0xFF
        if rest:
            packed[full] = 0xFF << (8 - rest) & 0xFF
    else:  # alternating
        packed[:] = 0x55
        packed[-1] &= 0xFF << (-L % 8) & 0xFF
    return Bitstream(packed, L)


def read_bitstream(path: str | os.PathLike, bit_order: str = "msb_first") -> Bitstream:
    """A raw binary file as a stream of 8 bits per byte, in the given
    order; ``lsb_first`` bytes are bit-reversed as they are read."""
    if bit_order not in BIT_ORDERS:
        raise ValueError(f"bit_order must be one of {BIT_ORDERS}")
    data = np.fromfile(path, dtype=np.uint8)
    if data.size == 0:
        raise ValueError(f"file {path!s} is empty")
    if bit_order == "lsb_first":
        data = _REVERSED[data]
    return Bitstream(data, 8 * data.size)


def write_bitstream(stream: Bitstream, path: str | os.PathLike, bit_order: str = "msb_first") -> None:
    """Write a stream as raw bytes. Length must be a multiple of 8."""
    if bit_order not in BIT_ORDERS:
        raise ValueError(f"bit_order must be one of {BIT_ORDERS}")
    if stream.length % 8 != 0:
        raise ValueError("stream length must be a multiple of 8 to write raw bytes")
    packed = stream.packed if bit_order == "msb_first" else _REVERSED[stream.packed]
    packed.tofile(path)


def lag1_autocorrelation(stream: Bitstream) -> float:
    """Sample autocorrelation of adjacent bits, exact and rounded once; 0
    for constant streams and for L < 2.

    With n ones, S11 adjacent pairs of ones, end bits b_0 and b_(L-1) and
    m = n/L, the centred sums are S11 - m(2n - b_0 - b_(L-1)) + (L-1)m^2
    and n - n^2/L. Times L^2 both are integers, and their quotient is one
    correctly rounded int/int division.
    """
    L, n = stream.length, stream.ones
    if L < 2 or n in (0, L):
        return 0.0
    packed = stream.packed
    first = int(packed[0]) >> 7
    last = int(packed[(L - 1) // 8]) >> (7 - (L - 1) % 8) & 1
    numerator = _adjacent_ones(packed) * L * L - n * L * (2 * n - first - last) + (L - 1) * n * n
    return numerator / (L * (n * L - n * n))


def _adjacent_ones(packed: np.ndarray) -> int:
    """S11, the pairs of adjacent ones: those inside a byte from a table,
    and those across a byte boundary from the last bit of each byte and
    the first bit of the next."""
    pairs = _table_sum(_PAIRS, packed)
    for i in range(0, packed.size - 1, _CHUNK):
        head = packed[i : i + _CHUNK]
        after = packed[i + 1 : i + 1 + _CHUNK]
        pairs += int(np.count_nonzero(head[: after.size] & (after >> 7)))
    return pairs


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
    L = stream.length
    if order == 0:
        return binary_entropy(stream.ones / L)
    if L < order + 1:
        raise ValueError("stream shorter than the block size")
    counts = _window_counts(stream, order + 1)
    seen = counts > 0
    context = counts.reshape(-1, 2).sum(axis=1).repeat(2)[seen].astype(np.float64)
    counts = counts[seen].astype(np.float64)
    np.log(context, out=context)
    context -= np.log(counts)
    context *= counts
    return float(context.sum() / L)


def _window_counts(stream: Bitstream, width: int) -> np.ndarray:
    """How often each cyclic ``width``-bit window (2 <= width <= 17) of
    the stream occurs, indexed by the window read MSB-first.

    Take the stream's whole bytes, then its last L % 8 bits followed by
    its first width-1 bits packed MSB-first, then two zero bytes. The
    window at bit 8j + s is bits s..s+width-1 of the big-endian key of
    bytes j, j+1 (and j+2 when width > 9): one shift and mask. Each of the
    L // 8 whole bytes starts eight windows; a partial last byte starts
    L % 8. The whole bytes are keyed ``_CHUNK`` at a time, each chunk
    reading the next one or two bytes ahead. 16-bit keys go into a key
    histogram that is summed down to each offset's windows at the end;
    24-bit keys are cut into each offset's windows and counted.
    """
    L = stream.length
    packed = stream.packed
    full, rest = divmod(L, 8)
    tail_bits = np.concatenate([np.unpackbits(packed[full:], count=rest),
                                np.unpackbits(packed[:3], count=width - 1)])
    tail = np.concatenate([np.packbits(tail_bits), np.zeros(2, np.uint8)])
    key_bytes = 2 if width <= 9 else 3
    key_bits = 8 * key_bytes
    mask = (1 << width) - 1
    counts = np.zeros(1 << (16 if key_bytes == 2 else width), dtype=np.intp)
    for start in range(0, full, _CHUNK):
        n = min(_CHUNK, full - start)
        src = packed[start : min(start + n + key_bytes - 1, full)]
        if src.size < n + key_bytes - 1:
            src = np.concatenate([src, tail[: n + key_bytes - 1 - src.size]])
        keys = src[:n].astype(np.intp)
        for i in range(1, key_bytes):
            keys <<= 8
            keys |= src[i : i + n]
        if key_bytes == 2:
            np.add.at(counts, keys, 1)
            continue
        windows = np.empty_like(keys)
        for s in range(8):
            np.right_shift(keys, key_bits - width - s, out=windows)
            windows &= mask
            np.add.at(counts, windows, 1)
    if key_bytes == 2:
        counts = sum(counts.reshape(1 << s, 1 << width, -1).sum(axis=(0, 2)) for s in range(8))
    last = int.from_bytes(tail[:key_bytes].tobytes(), "big")
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
