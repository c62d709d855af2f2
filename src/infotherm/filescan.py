"""The bit layer: reading a stream, its statistics, and closed forms.

A random file of L bits at bit energy eps carries heat L eps / 2 and
entropy k L ln 2, so its temperature is eps / (2 k ln 2). These closed
forms, the verdict and option names, the ``FileStats`` summary that the
ledgers read, the scan and both window counters live here; only the array
counter imports numpy, when it is built. ``bitstream`` holds the streams
in memory (generators, file I/O, estimators) and scans them with these.

``_scan`` is the pass over a stream, a file read ``_CHUNK`` bytes at a
time or a stream in memory. It takes each chunk as one Python int, MSB
first: the ones are its ``bit_count()``, the pairs of adjacent ones those
of ``y & (y >> 1)`` plus the pair across each seam.
It feeds each chunk to a window counter when the order and length call for
one. ``_Windows`` counts with ints, by a product tree: level j splits each
window mask by bit j of the window, ANDing it with the stream shifted into
line, and the popcounts of the 2^(k+1) leaves are the counts. Its cost
grows with the file and doubles with each order, while the array counter's
(``_Scanner``) is mostly the numpy import, so ``analyze_file``
counts with ints only up to ``MAX_INT_ORDER`` and within ``_INT_BUDGET``.
The counters only count: ``window_rate`` is the one place where a count
table, from either counter, becomes a rate, so the statistics equal
``analyze`` of the stream in memory.

When the array counter counts a regular file of two chunks or more,
``analyze_file`` scans its second part in a forked child (see ``halves``)
and adds the child's moments and count table to its own.
"""

from __future__ import annotations

import math
import os
import stat
from collections.abc import Iterable, Iterator
from typing import NamedTuple

from .core import (LN2, REDUCED, Energy, Entropy, Information, PhysConstants, Temperature,
                   _require_positive, require_normal)

RANDOM = "random"
ORDERED = "ordered"
UNDECIDED = "undecided"

GENERATOR_KINDS = ("bernoulli", "markov", "ordered_block", "alternating")
BIT_ORDERS = ("msb_first", "lsb_first")

#: Minimum stream length for the randomness verdict to be attempted.
MIN_TEST_LENGTH = 64

#: Required samples per order-k context before the conditional rate is
#: reported: L >= 64 * 2**k.
MIN_SAMPLES_PER_CONTEXT = 64

MAX_MARKOV_ORDER = 16

#: The highest order counted with ints; ``window_rate`` rates the count
#: tables up to this order with ``math`` and larger ones with numpy.
MAX_INT_ORDER = 4

#: The most file bits times 2^k whose windows are counted with ints at
#: order k >= 1: 32, 16, 8 and 4 MiB at orders 1 to 4 (order 0 counts no
#: windows). On a 2-core Xeon the int counter costs ~7, 11, 19 and 32 ms/MiB
#: at orders 1 to 4, the array counter ~8 plus the ~55 ms numpy import. At
#: this budget ``file`` runs faster with ints at orders 1 and 2, as fast at
#: order 3 and a few percent slower at order 4. A budget low enough for
#: order 4 would send 7-8 MiB files at the default order to numpy, no
#: faster and ~13 MiB larger.
_INT_BUDGET = 1 << 29

#: Bytes read at a time.
_CHUNK = 1 << 14

#: Count-table bins ``window_rate`` folds at a time, an even number: its
#: temporaries, a few times this many float64s, stay below the counter's.
_FOLD = 1 << 12

#: Each byte value with its bit order reversed.
_REVERSED = bytes(int(f"{v:08b}"[::-1], 2) for v in range(256))


class FileStats(NamedTuple):
    """Summary statistics of one stream.

    ``info_rate_markov`` is the order-``markov_order`` conditional entropy
    rate in nats per bit, or None when the stream is too short for that
    order to be estimated.
    """

    length: int
    ones: int
    p_hat: float
    info_iid: Information
    info_rate_markov: float | None
    markov_order: int
    equilibrium: str
    correlation_lag1: float


def binary_entropy(p: float) -> float:
    """H(p) = -p ln p - (1-p) ln(1-p) in nats, with 0 ln 0 = 0."""
    if not 0 <= p <= 1:
        raise ValueError("probability must lie in [0, 1]")
    h = 0.0
    if p > 0:
        h -= p * math.log(p)
    if p < 1:
        h -= (1 - p) * math.log(1 - p)
    return h


def file_temperature(epsilon: float, consts: PhysConstants = REDUCED) -> Temperature:
    """Temperature of a random file of bit energy epsilon: eps/(2 k ln 2).

    Meaningful only in equilibrium (a random stream); the caller asserts
    that. The average nat energy eps/(2 ln 2) then equals kT identically.
    A temperature outside float64's normal range is an input error.
    """
    _require_positive(bit_energy=epsilon)
    t = epsilon / (2.0 * consts.k_boltzmann * LN2)
    require_normal({"epsilon": epsilon}, f"the file temperature ({consts.mode} units)", t)
    return Temperature(t)


def average_nat_energy(epsilon: float) -> Energy:
    """Energy per nat of a random file: eps / (2 ln 2). An energy outside
    float64's normal range is an input error."""
    _require_positive(bit_energy=epsilon)
    energy = epsilon / (2.0 * LN2)
    require_normal({"epsilon": epsilon}, "the average nat energy", energy)
    return Energy(energy)


def file_heat_and_entropy(length: int, epsilon: float) -> tuple[Energy, Entropy]:
    """Heat and entropy carried by a random file: (L eps / 2, L ln 2 k).

    Their ratio reproduces the file temperature exactly. A heat outside
    float64's normal range is an input error.
    """
    if length < 1:
        raise ValueError("length must be positive")
    _require_positive(bit_energy=epsilon)
    heat = length * epsilon / 2.0
    require_normal({"length": length, "epsilon": epsilon}, "the file's heat", heat)
    return Energy(heat), Entropy(length * LN2)


def _check_order(order: int) -> None:
    if not 0 <= order <= MAX_MARKOV_ORDER:
        raise ValueError(f"markov order must lie in [0, {MAX_MARKOV_ORDER}]")


def _check_bit_order(bit_order: str) -> None:
    if bit_order not in BIT_ORDERS:
        raise ValueError(f"bit_order must be one of {BIT_ORDERS}")


def _check_whole_bytes(length: int) -> None:
    if length % 8:
        raise ValueError("stream length must be a multiple of 8 to write raw bytes")


def window_rate(counts, length: int) -> float:
    """The conditional rate, nats/bit, of a stream of ``length`` bits from
    its window counts, a list or an int64 array indexed MSB first: the sum
    of the terms n (ln n(context) - ln n) of the windows seen, over length.
    This is the one place where window counts become a rate.

    Up to ``2 << MAX_INT_ORDER`` bins each log is ``math.log`` and the
    terms are summed by ``math.fsum``, so the rate does not depend on which
    counter counted. A larger table, only ever the array counter's, is
    consumed: its terms are computed ``_FOLD`` bins at a time with numpy
    and written in order over the table itself, viewed as float64. A
    block's terms take no more slots than its bins, so the writes never
    pass a bin still to be read. The terms end up contiguous and in bin
    order, so their numpy sum is the one an array of their own would give,
    bit for bit.
    """
    if len(counts) <= 2 << MAX_INT_ORDER:
        counts, log = list(map(int, counts)), math.log
        terms = [n * (log(counts[i] + counts[i ^ 1]) - log(n)) for i, n in enumerate(counts) if n]
        return math.fsum(terms) / length
    import numpy as np

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


def _count(counts: list[int], z: int, bits: int, k: int) -> None:
    """Add to ``counts`` the windows of k+1 bits that lie inside the
    ``bits``-bit int z, MSB first; each window's mask bit sits at its last bit."""
    masks = [(1 << (bits - k)) - 1]
    for j in range(k):
        x = z >> (k - j)
        masks = [part for m in masks for part in (m ^ (m & x), m & x)]
    for i, m in enumerate(masks):
        ones = (m & z).bit_count()
        counts[2 * i] += m.bit_count() - ones
        counts[2 * i + 1] += ones


class _Windows:
    """The cyclic (k+1)-bit window counts, at order k >= 1, of a stream of
    whole bytes fed in order. The last k bits carry over each seam, and the
    first k bits, kept in ``head``, close the wrap."""

    def __init__(self, order: int):
        self.order = order
        self.counts = [0] * (2 << order)
        self.bits = self.head = self.tail = 0

    def feed(self, chunk, y: int) -> None:
        """Take the next bytes of the stream and the same bytes as an int."""
        k, w = self.order, 8 * len(chunk)
        if not self.bits:
            self.head = y >> (w - k)
        _count(self.counts, self.tail << w | y, w + k if self.bits else w, k)
        self.tail = y & ((1 << k) - 1)
        self.bits += w

    def window_counts(self, length: int) -> list[int]:
        """How often each cyclic window occurs in the ``length`` bits fed,
        indexed MSB first. Call once: the wrap is counted in place."""
        k = self.order
        _count(self.counts, self.tail << k | self.head, 2 * k, k)
        return self.counts


class _Scanner:
    """The cyclic (k+1)-bit window counts of a stream, at ``order`` k >= 1,
    from its packed bytes fed in order in chunks of any size, with numpy.

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
        import numpy as np

        self.order = order
        self.key_bytes = 2 if order <= 8 else 3
        self.counts = np.zeros(1 << (16 if self.key_bytes == 2 else order + 1), dtype=np.int64)
        self.head = self.tail = np.zeros(0, dtype=np.uint8)

    def feed(self, chunk, y: int | None = None) -> None:
        """Take the next bytes of the stream, non-empty, which the caller may
        overwrite once this returns; ``y``, the same bytes as an int, is
        for the int counter."""
        import numpy as np

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

    def window_counts(self, length: int):
        """How often each cyclic window occurs in the ``length`` bits fed
        (length >= order + 1), an array indexed by the window read MSB-first.
        The windows that start in ``tail`` are read, one int each, off its
        bits past the padding followed by the stream's first ``order`` bits.
        Call once: the table is completed in place."""
        k, counts = self.order, self.counts
        if self.key_bytes == 2:
            counts = sum(counts.reshape(1 << s, 2 << k, -1).sum(axis=(0, 2)) for s in range(8))
        pad, first = -length % 8, int.from_bytes(self.head, "big") >> (8 * self.head.size - k)
        held = 8 * self.tail.size - pad
        wrap = int.from_bytes(self.tail, "big") >> pad << k | first
        for s in range(held):
            counts[wrap >> (held - 1 - s) & ((2 << k) - 1)] += 1
        return counts


def _read(path: str | os.PathLike, bit_order: str, start: int = 0,
          stop: float = math.inf) -> Iterator[bytes]:
    """The bytes of a file from offset ``start`` up to ``stop`` or its end,
    read ``_CHUNK`` at a time and bit-reversed for ``lsb_first``."""
    with open(path, "rb", buffering=0) as f:
        if start:
            f.seek(start)
        while start < stop and (chunk := f.read(min(_CHUNK, stop - start))):
            start += len(chunk)
            yield chunk if bit_order == "msb_first" else chunk.translate(_REVERSED)


def _scan(chunks: Iterable, windows=None, pad: int = 0) -> tuple[int, int, int, int, int]:
    """The length, ones, pairs of adjacent ones, first and last bit of a
    stream given as chunks of packed bytes, MSB first, whose last ``pad``
    bits are padding zeros; (0, 0, 0, 0, 0) when there are none. Each chunk
    is also fed, with its int, to ``windows``, a window counter."""
    ones = pairs = length = first = last = y = 0
    for chunk in chunks:
        y, w = int.from_bytes(chunk, "big"), 8 * len(chunk)
        ones += y.bit_count()
        pairs += (y & (y >> 1)).bit_count() + (last & y >> (w - 1))
        if not length:
            first = y >> (w - 1)
        if windows:
            windows.feed(chunk, y)
        last, length = y & 1, length + w
    return length - pad, ones, pairs, first, y >> pad & 1


def analyze_file(path: str | os.PathLike, markov_order: int = 3,
                 bit_order: str = "msb_first") -> FileStats:
    """``analyze(read_bitstream(path, bit_order), markov_order)``, in memory
    that does not grow with the file. Windows are counted only when the
    file's size lets it report the rate. A pipe has no size, so its windows
    go to the array counter; a regular file of size 0 may still hold data
    (procfs), so only a positive size rules the rate out. A regular file
    that the array counter counts may be scanned in two parts (``_split``);
    if the child fails, the whole file is scanned again here."""
    _check_order(markov_order)
    _check_bit_order(bit_order)
    k = markov_order
    info = os.stat(path)
    bits = 8 * info.st_size if stat.S_ISREG(info.st_mode) else None
    if not k or (bits and bits < MIN_SAMPLES_PER_CONTEXT << k):
        windows = None
    elif k <= MAX_INT_ORDER and bits is not None and bits << k <= _INT_BUDGET:
        windows = _Windows(k)
    else:
        windows = _Scanner(k)
    mid = _CHUNK * (bits // 8 // _CHUNK // 2) if isinstance(windows, _Scanner) and bits else 0
    scan = mid and _split(path, bit_order, mid, windows)
    if not scan:
        windows = _Scanner(k) if mid else windows
        scan = _scan(_read(path, bit_order), windows)
    length, *moments = scan
    if not length:
        raise ValueError(f"file {path!s} is empty")
    return _stats(length, *moments, k, windows)


def _split(path: str | os.PathLike, bit_order: str, mid: int, windows: _Scanner) -> tuple | None:
    """The moments of a file scanned in two parts split at byte ``mid``,
    the second by ``_scanned`` in a forked child (``halves._Half``), while
    ``windows`` counts every window: the second part's first key bytes
    close the seam, then it takes the child's last key bytes and adds its
    table ``_FOLD`` bins at a time, so no second table is held. None when no
    child runs or it fails; ``windows`` is then to be dropped."""
    import numpy as np

    from .halves import _Half

    half = _Half.fork(lambda: _scanned(path, bit_order, mid, windows.order))
    if not half:
        return None
    try:
        with half:
            length, ones, pairs, head, last = _scan(_read(path, bit_order, 0, mid), windows)
            for chunk in _read(path, bit_order, mid, mid + windows.key_bytes):
                windows.feed(chunk)
            rest = [int.from_bytes(half.read(8), "little") for _ in range(5)]
            windows.tail = np.frombuffer(half.read(windows.key_bytes), dtype=np.uint8)
            for i in range(0, windows.counts.size, _FOLD):
                part = windows.counts[i : i + _FOLD]
                part += np.frombuffer(half.read(8 * part.size), dtype=np.int64)
    except EOFError:
        return None
    return length + rest[0], ones + rest[1], pairs + rest[2] + (last & rest[3]), head, rest[4]


def _scanned(path: str | os.PathLike, bit_order: str, start: int, order: int) -> Iterator:
    """The five moments, 8 bytes each, last key bytes and count table of the
    scan of a file from byte ``start`` on, as ``_split`` reads them."""
    windows = _Scanner(order)
    yield b"".join(v.to_bytes(8, "little") for v in _scan(_read(path, bit_order, start), windows))
    yield windows.tail
    yield windows.counts


def _lag1(L: int, n: int, pairs: int, first: int, last: int) -> float:
    """Sample autocorrelation of adjacent bits from the stream's length,
    ones, pairs of adjacent ones and end bits, exact and rounded once (see
    ``bitstream.lag1_autocorrelation``)."""
    if L < 2 or n in (0, L):
        return 0.0
    numerator = pairs * L * L - n * L * (2 * n - first - last) + (L - 1) * n * n
    return numerator / (L * (n * L - n * n))


def _verdict(L: int, ones: int, lag1: float) -> str:
    """The randomness verdict from a stream's length, ones and lag-1
    autocorrelation (see ``bitstream.randomness_test``)."""
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


def _stats(L: int, n: int, pairs: int, first: int, last: int, order: int, windows) -> FileStats:
    """The statistics of a stream of L bits from its moments (see ``_scan``)
    and, at order >= 1, the window counter it fed, whose counts are rated
    only when the stream offers enough samples per context."""
    p_hat = n / L
    h = binary_entropy(p_hat)
    lag1 = _lag1(L, n, pairs, first, last)
    rate = None
    if L >= MIN_SAMPLES_PER_CONTEXT << order:
        rate = window_rate(windows.window_counts(L), L) if order else h
    return FileStats(
        length=L,
        ones=n,
        p_hat=p_hat,
        info_iid=Information(L * h),
        info_rate_markov=rate,
        markov_order=order,
        equilibrium=_verdict(L, n, lag1) if L >= MIN_TEST_LENGTH else UNDECIDED,
        correlation_lag1=lag1,
    )
