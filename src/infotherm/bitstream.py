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
from collections import namedtuple
from collections.abc import Iterator

import numpy as np

from . import filescan
from .core import Validated
from .filescan import (  # noqa: F401  (re-exported; these need no numpy)
    _REVERSED as _REVERSED_BYTES, BIT_ORDERS, GENERATOR_KINDS, MAX_INT_ORDER, MAX_MARKOV_ORDER,
    MIN_SAMPLES_PER_CONTEXT, MIN_TEST_LENGTH, ORDERED, RANDOM, UNDECIDED, FileStats,
    _check_bit_order, _check_order, _verdict, analyze_file, average_nat_energy, binary_entropy,
    file_heat_and_entropy, file_temperature, window_rate)
from .rng import random_words, splitmix64

#: Words the generators draw at a time, a multiple of 8: the words and
#: their compare flags stay in L2 cache, and ``write_generated`` writes
#: each packed block as it is drawn.
_BLOCK = 1 << 14

#: Count-table bins the rate folds at a time, an even number: its
#: temporaries, a few times this many float64s, stay below the scanner's.
_FOLD = 1 << 12

#: Each byte value with its bit order reversed.
_REVERSED = np.frombuffer(_REVERSED_BYTES, dtype=np.uint8)


def _integers_upto(values: np.ndarray, top: int) -> bool:
    """Whether every element of a numeric array is an integer in [0, top]."""
    if values.dtype.kind not in "biuf":
        return False
    return bool(np.all((values >= 0) & (values <= top) & (values == np.trunc(values))))


class Bitstream:
    """An ordered sequence of ``length`` bits, packed MSB first: bit i is
    bit 7 - i % 8 of byte i // 8 of ``packed``, and the bits of the last
    byte past ``length`` are 0. ``ones`` is counted when the stream is
    built. Its attributes cannot be set, and two streams are equal only
    when they are the same object."""

    __slots__ = ("packed", "length", "ones")

    packed: np.ndarray
    length: int
    ones: int

    def __init__(self, packed: np.ndarray, length: int):
        packed = np.asarray(packed)
        length = int(length)
        if length < 1 or packed.ndim != 1 or packed.size != (length + 7) // 8:
            raise ValueError("a bitstream of L >= 1 bits packs into a 1-d array of ceil(L/8) bytes")
        if packed.dtype != np.uint8 and not _integers_upto(packed, 255):
            raise ValueError("packed bytes must be integers in [0, 255]")
        packed = np.ascontiguousarray(packed, dtype=np.uint8)
        if int(packed[-1]) & ((1 << (-length % 8)) - 1):
            raise ValueError("the padding bits of the last byte must be 0")
        object.__setattr__(self, "packed", packed)
        object.__setattr__(self, "length", length)
        ones = sum(int.from_bytes(chunk, "big").bit_count() for chunk in _slices(packed))
        object.__setattr__(self, "ones", ones)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"Bitstream(packed={self.packed!r}, length={self.length!r}, ones={self.ones!r})"

    @classmethod
    def from_bits(cls, bits) -> Bitstream:
        """The stream of a sequence of 0s and 1s, one element per bit."""
        bits = np.asarray(bits)
        if bits.ndim != 1 or bits.size < 1:
            raise ValueError("bitstream must be a non-empty 1-d sequence")
        if bits.dtype.kind in "bu":
            bad = int(bits.max()) > 1
        else:
            bad = not _integers_upto(bits, 1)
        if bad:
            raise ValueError("bitstream elements must be 0 or 1")
        return cls(np.packbits(bits.astype(np.uint8, copy=False)), bits.size)

    @property
    def bits(self) -> np.ndarray:
        """The bits, one uint8 each, unpacked into a new read-only array."""
        bits = np.unpackbits(self.packed, count=self.length)
        bits.flags.writeable = False
        return bits


def _slices(packed: np.ndarray) -> Iterator[np.ndarray]:
    """Packed bytes as views of ``filescan._CHUNK`` bytes, in order."""
    chunk = filescan._CHUNK
    return (packed[i : i + chunk] for i in range(0, packed.size, chunk))


def _moments(stream: Bitstream, windows=None) -> tuple[int, int, int, int, int]:
    """The length, ones, pairs of adjacent ones, first and last bit of a
    stream, by ``filescan._scan``, which also feeds ``windows``."""
    return filescan._scan(_slices(stream.packed), windows, -stream.length % 8)


class _Scanner:
    """The cyclic (k+1)-bit window counts of a stream, at ``order`` k >= 1,
    from its packed bytes fed in order in chunks of any size.

    The window at bit 8j + s is bits s..s+k of the big-endian key of bytes
    j, j+1 (and j+2 when k > 8): one shift and mask. Each chunk is counted
    behind the key-length bytes held in ``tail``, at every byte whose key
    it completes, and leaves its last key-length bytes there; their
    windows, and the wrap to the first bytes kept in ``head``, are counted
    by ``window_counts``. 16-bit keys go into a key histogram that is
    summed down to each offset's windows at the end; 24-bit keys are cut
    into each offset's windows and counted.
    """

    def __init__(self, order: int):
        self.order = order
        self.key_bytes = 2 if order <= 8 else 3
        self.counts = np.zeros(1 << (16 if self.key_bytes == 2 else order + 1), dtype=np.int64)
        self.head = self.tail = np.zeros(0, dtype=np.uint8)

    def feed(self, chunk, y: int | None = None) -> None:
        """Take the next bytes of the stream, non-empty, which the caller may
        overwrite once this returns; ``y``, the same bytes as an int, is
        for the int counter."""
        src = np.concatenate([self.tail, np.frombuffer(chunk, dtype=np.uint8)])
        if self.head.size < 2:
            self.head = src[:2]
        self.tail, starts = src[-self.key_bytes :], src.size - self.key_bytes
        if starts <= 0:
            return
        keys = src[:starts].astype(np.int64)
        for i in range(1, self.key_bytes):
            keys <<= 8
            keys |= src[i : i + starts]
        if self.key_bytes == 2:
            np.add.at(self.counts, keys, 1)
            return
        width = self.order + 1
        windows = np.empty_like(keys)
        for s in range(8):
            np.right_shift(keys, 24 - width - s, out=windows)
            windows &= (1 << width) - 1
            np.add.at(self.counts, windows, 1)

    def window_counts(self, length: int) -> np.ndarray:
        """How often each cyclic window occurs in the ``length`` bits fed
        (length >= order + 1), indexed by the window read MSB-first. The
        windows that start in ``tail`` are read, one int each, off its
        bits past the padding followed by the stream's first ``order``
        bits. Call once: the table is completed in place."""
        k, counts = self.order, self.counts
        if self.key_bytes == 2:
            counts = sum(counts.reshape(1 << s, 2 << k, -1).sum(axis=(0, 2)) for s in range(8))
        pad, first = -length % 8, int.from_bytes(self.head, "big") >> (8 * self.head.size - k)
        held = 8 * self.tail.size - pad
        wrap = int.from_bytes(self.tail, "big") >> pad << k | first
        for s in range(held):
            counts[wrap >> (held - 1 - s) & ((2 << k) - 1)] += 1
        return counts

    def rate(self, length: int) -> float:
        """The conditional rate, nats/bit, of the ``length`` bits fed. Up to
        ``MAX_INT_ORDER`` it is ``window_rate`` of the counts, as the int
        counter's is.

        Above, the terms n(x) ln(n(context) / n(x)) of the windows x seen
        are computed ``_FOLD`` bins at a time and written in order over the
        count table itself, viewed as float64: a block's terms take no more
        slots than its bins, so the writes never pass a bin still to be
        read. The terms end up contiguous and in bin order, so their numpy
        sum is the one an array of their own would give, bit for bit.
        """
        counts = self.window_counts(length)
        if self.order <= MAX_INT_ORDER:
            return window_rate(counts.tolist(), length)
        terms = counts.view(np.float64)
        done = 0
        for i in range(0, counts.size, _FOLD):
            block = counts[i : i + _FOLD]
            seen = block > 0
            context = block.reshape(-1, 2).sum(axis=1).repeat(2)[seen].astype(np.float64)
            n = block[seen].astype(np.float64)
            out = terms[done : done + n.size]
            np.log(context, out=out)
            out -= np.log(n)
            out *= n
            done += n.size
        return float(terms[:done].sum() / length)


class GeneratorSpec(Validated, namedtuple("GeneratorSpec", "kind length seed p q",
                                          defaults=(0, None, None))):
    """Recipe for a synthetic corpus.

    kinds: bernoulli (iid ones-probability ``p``), markov (flip the
    previous bit with probability ``q``; stationary ones-density 1/2 for
    every q, so corpora differ in information at equal energy),
    ordered_block (L/2 ones then zeros), alternating (0101...).

    Fields: ``kind`` (str), ``length`` (int), ``seed`` (int, default 0),
    ``p`` and ``q`` (float or None, default None).
    """

    __slots__ = ()

    def _check(self):
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


def _blocks(spec: GeneratorSpec) -> Iterator[np.ndarray]:
    """The stream described by ``spec``, packed ``_BLOCK`` bits at a time.

    The bernoulli bits are u_(t+1) < p, and the markov bits the first bit
    u_1 < 1/2 xor the flips u_2..u_(t+1) < q, comparing the stream's words
    with the integer threshold; the markov xor prefix carries from block
    to block. The deterministic kinds are filled byte by byte.
    """
    L = spec.length
    markov = spec.kind == "markov"
    if spec.kind in ("bernoulli", "markov"):
        threshold = np.uint64(_threshold(spec.q if markov else spec.p))
        flags = np.empty(min(_BLOCK, L), dtype=np.bool_)
    carry = False
    for start in range(0, L, _BLOCK):
        size = min(_BLOCK, L - start)
        if spec.kind in ("ordered_block", "alternating"):
            yield _pattern_bytes(spec.kind, L, start // 8, (size + 7) // 8)
            continue
        block = flags[:size]
        top = random_words(spec.seed, size, start)
        top >>= np.uint64(11)
        np.less(top, threshold, out=block)
        if markov:
            if start == 0:
                block[0] = (splitmix64(spec.seed, 1) >> 11) < _threshold(0.5)
            np.logical_xor.accumulate(block, out=block)
            if carry:
                np.logical_not(block, out=block)
            carry = bool(block[-1])
        yield np.packbits(block)


def _pattern_bytes(kind: str, length: int, first: int, size: int) -> np.ndarray:
    """Packed bytes ``first`` .. ``first + size`` of the ``length``-bit
    ordered_block (L/2 ones then zeros) or alternating (0101...) stream."""
    if kind == "alternating":
        out = np.full(size, 0x55, dtype=np.uint8)
    else:
        half = length // 2
        out = np.zeros(size, dtype=np.uint8)
        out[: max(half // 8 - first, 0)] = 0xFF
        if half % 8 and 0 <= half // 8 - first < size:
            out[half // 8 - first] = 0xFF << (8 - half % 8) & 0xFF
    if first + size == (length + 7) // 8:
        out[-1] &= 0xFF << (-length % 8) & 0xFF
    return out


def generate(spec: GeneratorSpec) -> Bitstream:
    """Deterministically generate the stream described by ``spec``.

    Uniform draws come from the seeded splitmix64 stream, one per bit in
    order, so output is bit-identical across runs and platforms.
    """
    packed = np.empty((spec.length + 7) // 8, dtype=np.uint8)
    offset = 0
    for block in _blocks(spec):
        packed[offset : offset + block.size] = block
        offset += block.size
    return Bitstream(packed, spec.length)


def write_generated(spec: GeneratorSpec, path: str | os.PathLike, bit_order: str = "msb_first") -> int:
    """Write the bytes of ``write_bitstream(generate(spec), path,
    bit_order)``, each block as it is drawn, and return the stream's ones.
    The length must be a multiple of 8."""
    _check_bit_order(bit_order)
    if spec.length % 8 != 0:
        raise ValueError("stream length must be a multiple of 8 to write raw bytes")
    ones = 0
    with open(path, "wb") as out:
        for block in _blocks(spec):
            ones += int.from_bytes(block, "big").bit_count()
            out.write(block if bit_order == "msb_first" else _REVERSED[block])
    return ones


def read_bitstream(path: str | os.PathLike, bit_order: str = "msb_first") -> Bitstream:
    """A raw binary file as a stream of 8 bits per byte, in the given
    order; ``lsb_first`` bytes are bit-reversed as they are read."""
    _check_bit_order(bit_order)
    data = np.fromfile(path, dtype=np.uint8)
    if data.size == 0:
        raise ValueError(f"file {path!s} is empty")
    if bit_order == "lsb_first":
        data = _REVERSED[data]
    return Bitstream(data, 8 * data.size)


def write_bitstream(stream: Bitstream, path: str | os.PathLike, bit_order: str = "msb_first") -> None:
    """Write a stream as raw bytes. Length must be a multiple of 8."""
    _check_bit_order(bit_order)
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
    return filescan._lag1(*_moments(stream))


def conditional_entropy_rate(stream: Bitstream, order: int) -> float:
    """Plug-in conditional block-entropy rate of the given order, nats/bit.

    Counts (order+1)-grams over all L cyclic (wrap-around) windows and
    conditions each final bit on its order-bit context. Cyclic windows
    make the empirical block distributions consistent across orders, so
    the rate is exactly non-increasing in the order and never exceeds
    ln 2. Order 0 reduces to the iid plug-in H(n/L).
    """
    _check_order(order)
    if stream.length < order + 1:
        raise ValueError("stream shorter than the block size")
    if order == 0:
        return binary_entropy(stream.ones / stream.length)
    windows = _Scanner(order)
    for chunk in _slices(stream.packed):
        windows.feed(chunk)
    return windows.rate(stream.length)


def randomness_test(stream: Bitstream) -> str:
    """Classify a stream as random, ordered, or undecided.

    Random requires both the ones-density and the lag-1 autocorrelation to
    sit inside their three-sigma binomial bands; ordered means either
    statistic exceeds its five-sigma band; anything between is undecided.
    """
    L = stream.length
    if L < MIN_TEST_LENGTH:
        raise ValueError(f"stream too short to test (need {MIN_TEST_LENGTH} bits)")
    moments = _moments(stream)
    return _verdict(L, moments[1], filescan._lag1(*moments))


def analyze(stream: Bitstream, markov_order: int = 3) -> FileStats:
    """Full per-stream statistics.

    The order-k conditional rate is only reported when the stream offers
    at least 64 samples per context (L >= 64 * 2**k); it is None
    otherwise. The equilibrium verdict is undecided for streams too short
    to test.
    """
    _check_order(markov_order)
    k = markov_order
    windows = _Scanner(k) if k and stream.length >= MIN_SAMPLES_PER_CONTEXT << k else None
    return filescan._stats(*_moments(stream, windows), k, windows)
