"""The numpy-free bit layer: reading a stream, its statistics, and closed forms.

A random file of L bits at bit energy eps carries heat L eps / 2 and
entropy k L ln 2, so its temperature is eps / (2 k ln 2). These closed
forms, the verdict and option names, the ``FileStats`` summary that the
ledgers read and the scan below need no arrays; this module imports no
numpy, so the commands built on it start without it. ``bitstream`` holds
the array code (generators, file I/O, estimators) and re-exports them.

``_scan`` is the one pass over a stream, a file read ``_CHUNK`` bytes at a
time into one buffer or a stream in memory. It takes each chunk as one
Python int, MSB first: the ones are its ``bit_count()``, the pairs of
adjacent ones those of ``y & (y >> 1)`` plus the pair across each seam.
It feeds each chunk to a window counter when the order and length call for
one. ``_Windows`` counts with ints, by a product tree: level j splits each
window mask by bit j of the window, ANDing it with the stream shifted into
line, and the popcounts of the 2^(k+1) leaves are the counts. Its cost
grows with the file and doubles with each order, while the array counter's
(``bitstream._Scanner``) is mostly the numpy import, so ``analyze_file``
counts with ints only up to ``MAX_INT_ORDER`` and within ``_INT_BUDGET``.
Either way the rate comes from ``window_rate`` up to that order and from
the array fold above it, so the statistics equal ``analyze`` of the stream
in memory.
"""

from __future__ import annotations

import math
import os
import stat
from collections.abc import Iterable, Iterator
from typing import NamedTuple

from .core import (LN2, REDUCED, Energy, Entropy, Information, PhysConstants, Temperature,
                   require_normal)

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

#: The highest order counted with ints, and rated by ``window_rate``.
MAX_INT_ORDER = 4

#: The most file bits times 2^k whose windows are counted with ints at
#: order k >= 1: 32, 16, 8 and 4 MiB at orders 1 to 4 (order 0 counts no
#: windows). On a 2-core Xeon the int counter costs ~8, 10, 19 and 35 ms/MiB
#: at orders 1 to 4, the array counter ~8 plus the ~130 ms numpy import, and
#: ``file`` at this budget still runs faster with ints.
_INT_BUDGET = 1 << 29

#: Bytes read at a time, into one buffer.
_CHUNK = 1 << 14

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
    if not epsilon > 0:
        raise ValueError("bit energy must be positive")
    t = epsilon / (2.0 * consts.k_boltzmann * LN2)
    require_normal({"epsilon": epsilon}, f"the file temperature ({consts.mode} units)", t)
    return Temperature(t)


def average_nat_energy(epsilon: float) -> Energy:
    """Energy per nat of a random file: eps / (2 ln 2). An energy outside
    float64's normal range is an input error."""
    if not epsilon > 0:
        raise ValueError("bit energy must be positive")
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
    if not epsilon > 0:
        raise ValueError("bit energy must be positive")
    heat = length * epsilon / 2.0
    require_normal({"length": length, "epsilon": epsilon}, "the file's heat", heat)
    return Energy(heat), Entropy(length * LN2)


def _check_order(order: int) -> None:
    if not 0 <= order <= MAX_MARKOV_ORDER:
        raise ValueError(f"markov order must lie in [0, {MAX_MARKOV_ORDER}]")


def _check_bit_order(bit_order: str) -> None:
    if bit_order not in BIT_ORDERS:
        raise ValueError(f"bit_order must be one of {BIT_ORDERS}")


def window_rate(counts: list[int], length: int) -> float:
    """The conditional rate, nats/bit, of a stream of ``length`` bits from
    its window counts, indexed MSB first: the terms n (ln n(context) - ln n)
    of the windows seen, ``math.log`` each, summed by ``math.fsum``."""
    log = math.log
    terms = [n * (log(counts[i] + counts[i ^ 1]) - log(n)) for i, n in enumerate(counts) if n]
    return math.fsum(terms) / length


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

    def rate(self, length: int) -> float:
        return window_rate(self.window_counts(length), length)


def _read(path: str | os.PathLike, bit_order: str) -> Iterator[bytearray]:
    """The bytes of a file, read ``_CHUNK`` at a time into one buffer and
    bit-reversed for ``lsb_first``."""
    buf = bytearray(_CHUNK)
    with open(path, "rb", buffering=0) as f:
        while size := f.readinto(buf):
            yield buf[:size] if bit_order == "msb_first" else buf[:size].translate(_REVERSED)


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
    (procfs), so only a positive size rules the rate out."""
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
        from .bitstream import _Scanner

        windows = _Scanner(k)
    length, *moments = _scan(_read(path, bit_order), windows)
    if not length:
        raise ValueError(f"file {path!s} is empty")
    return _stats(length, *moments, k, windows)


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
    and, at order >= 1, the window counter it fed, which is asked for the
    rate only when the stream offers enough samples per context."""
    p_hat = n / L
    lag1 = _lag1(L, n, pairs, first, last)
    rate = None
    if L >= MIN_SAMPLES_PER_CONTEXT << order:
        rate = windows.rate(L) if order else binary_entropy(p_hat)
    return FileStats(
        length=L,
        ones=n,
        p_hat=p_hat,
        info_iid=Information(L * binary_entropy(p_hat)),
        info_rate_markov=rate,
        markov_order=order,
        equilibrium=_verdict(L, n, lag1) if L >= MIN_TEST_LENGTH else UNDECIDED,
        correlation_lag1=lag1,
    )
