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
cannot. Both, and the test, come from ``filescan``, which scans a stream's
packed bytes and counts its windows here as it does for a file.
"""

from __future__ import annotations

import os
import stat
from collections import namedtuple
from collections.abc import Iterator

import numpy as np

from . import filescan
from .core import Validated, _validate_seed
from .filescan import (GENERATOR_KINDS, MIN_SAMPLES_PER_CONTEXT, MIN_TEST_LENGTH, _check_bit_order,
                       _check_order, _check_whole_bytes, _Scanner, _verdict, binary_entropy)
from .rng import _threshold, random_words

#: Words the generators draw at a time, a multiple of 8: the words and
#: their compare flags stay in L2 cache, and ``write_generated`` writes
#: each packed block as it is drawn.
_BLOCK = 1 << 14

#: Each byte value with its bit order reversed.
_REVERSED = np.frombuffer(filescan._REVERSED, dtype=np.uint8)

#: Each byte value's xor prefix, MSB first: bit 7 - i is the xor of its
#: bits 7 down to 7 - i, so bit 0 is the byte's parity.
_PREFIX = np.bitwise_xor.reduce([np.arange(256, dtype=np.uint8) >> s for s in range(8)])


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


class GeneratorSpec(Validated, namedtuple("GeneratorSpec", "kind length seed p q",
                                          defaults=(0, None, None))):
    """Recipe for a synthetic corpus.

    kinds: bernoulli (iid ones-probability ``p``), markov (flip the
    previous bit with probability ``q``; stationary ones-density 1/2 for
    every q, so corpora differ in information at equal energy),
    ordered_block (L/2 ones then zeros), alternating (0101...).

    Fields: ``kind`` (str), ``length`` (int), ``seed`` (int, default 0),
    ``p`` and ``q`` (float; None, the default, where the kind takes none).
    """

    __slots__ = ()

    def _check(self):
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.length < 1:
            raise ValueError("length must be positive")
        _validate_seed(self.seed)
        if self.kind == "bernoulli":
            if self.p is None or not 0 <= self.p <= 1:
                raise ValueError("bernoulli requires p in [0, 1]")
        elif self.p is not None:
            raise ValueError(f"{self.kind} takes no p")
        if self.kind == "markov":
            if self.q is None or not 0 <= self.q <= 1:
                raise ValueError("markov requires flip probability q in [0, 1]")
        elif self.q is not None:
            raise ValueError(f"{self.kind} takes no q")


def _blocks(spec: GeneratorSpec, start: int = 0, stop: int | None = None) -> Iterator[np.ndarray]:
    """Blocks ``start`` up to ``stop`` (default: the last) of the stream
    described by ``spec``, packed ``_BLOCK`` bits at a time.

    The bernoulli bits are u_(t+1) < p, and the markov bits the first bit
    u_1 < 1/2 xor the flips u_2..u_(t+1) < q, comparing the stream's words
    with the integer threshold. A markov block is the xor prefix of its
    flips, the first xored with the carry, the last bit of the block
    before: each packed byte's own prefix from ``_PREFIX``, inverted when
    the bytes before it hold an odd number of ones. The carry is 0 for the
    first block drawn, so blocks drawn from ``start > 0`` are those of the
    whole stream when its block ``start - 1`` ends on 0, and their
    inverses when it ends on 1. Every block starts at an even bit, so the
    alternating bits are the same in each.
    """
    L, kind = spec.length, spec.kind
    flags = np.zeros(min(_BLOCK, L), dtype=np.bool_)
    if kind == "alternating":
        flags[1::2] = True
    if kind in ("bernoulli", "markov"):
        threshold = np.uint64(_threshold(spec.q if kind == "markov" else spec.p))
    carry = False
    stop = L if stop is None else min(stop * _BLOCK, L)
    for first in range(start * _BLOCK, stop, _BLOCK):
        size = min(_BLOCK, L - first)
        block = flags[:size]
        if kind == "ordered_block":
            cut = max(L // 2 - first, 0)
            block[:cut] = True
            block[cut:] = False
        elif kind != "alternating":
            top = random_words(spec.seed, size, first)
            top >>= np.uint64(11)
            np.less(top, threshold, out=block)
            if kind == "markov":
                block[0] = top[0] < _threshold(0.5) if first == 0 else block[0] != carry
        packed = np.packbits(block)
        if kind == "markov":
            _PREFIX.take(packed, out=packed)
            odd = np.bitwise_xor.accumulate(packed & 1)
            packed[1:] ^= odd[:-1] * np.uint8(255)
            carry = bool(packed[-1] & 1)
            packed[-1] &= 255 << (-size % 8) & 255
        yield packed


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
    The length must be a multiple of 8.

    A bernoulli or markov stream of two blocks or more, written to a
    regular file, is drawn in two halves by ``_write_halves``, the second in
    a forked child; any other stream or file, such as a pipe, and any split
    whose child fails, is written whole by ``_put`` here.
    """
    _check_bit_order(bit_order)
    _check_whole_bytes(spec.length)
    with open(path, "wb") as out:
        ones = _write_halves(spec, out.fileno(), bit_order)
        return _put(spec, out.fileno(), bit_order, 0, None)[0] if ones is None else ones


def _write_halves(spec: GeneratorSpec, fd: int, bit_order: str) -> int | None:
    """The ones of the stream, written to the regular file ``fd`` in two
    halves split at a block boundary, the second by ``halves._Half``; None
    when the stream or the file is not one to split, the halves cannot run
    apart or the child fails, with ``fd`` back at 0 to write it all again.

    Each half is written in order: the first through ``fd``, the child's
    through a second descriptor of the file, opened read-write at the seam
    before the fork. Draw j is a pure function of (seed, j), so the halves
    are those of the whole stream but for the markov carry: the second is
    drawn after a 0 (see ``_blocks``). When the first half ends on a 1, the
    second is read back through the second descriptor and written inverted
    through ``fd`` from the seam; its ones become its bits minus its ones.
    """
    blocks = -(-spec.length // _BLOCK)
    mid = blocks // 2
    if spec.kind not in ("bernoulli", "markov") or not mid or not stat.S_ISREG(os.fstat(fd).st_mode):
        return None
    from .halves import _Half, _write

    seam = mid * _BLOCK // 8
    try:
        back = open(f"/proc/self/fd/{fd}", "r+b", buffering=0)
    except OSError:
        return None
    with back:
        back.seek(seam)
        half = _Half.fork(lambda: [_put(spec, back.fileno(), bit_order, mid, blocks)[0].to_bytes(8, "little")])
        if half is None:
            return None
        with half:
            ones, last = _put(spec, fd, bit_order, 0, mid)
            try:
                theirs = int.from_bytes(half.read(8), "little")
            except EOFError:
                os.lseek(fd, 0, os.SEEK_SET)
                return None
        if spec.kind == "markov" and last:
            back.seek(seam)
            while block := back.read(_BLOCK // 8):
                _write(fd, np.invert(np.frombuffer(block, dtype=np.uint8)))
            theirs = spec.length - 8 * seam - theirs
    return ones + theirs


def _put(spec: GeneratorSpec, fd: int, bit_order: str, start: int, stop: int | None) -> tuple[int, int]:
    """Draw blocks ``start`` up to ``stop`` of the stream (see ``_blocks``)
    and write them in order to ``fd``, from where it stands; their ones and
    the last bit drawn."""
    from .halves import _write

    ones = 0
    for block in _blocks(spec, start, stop):
        ones += int.from_bytes(block, "big").bit_count()
        _write(fd, block if bit_order == "msb_first" else _REVERSED[block])
    return ones, int(block[-1]) & 1


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
    _check_whole_bytes(stream.length)
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
    return filescan.window_rate(windows.window_counts(stream.length), stream.length)


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


def analyze(stream: Bitstream, markov_order: int = 3) -> filescan.FileStats:
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
