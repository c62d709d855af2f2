"""File statistics without numpy, at low Markov order.

``analyze_file`` reads a file ``_CHUNK`` bytes at a time and counts each
chunk as one Python int, MSB first: the ones are its ``bit_count()``, the
pairs of adjacent ones those of ``y & (y >> 1)`` plus the pair across each
seam. The cyclic (k+1)-bit window counts come from a product tree: level j
splits each window mask by bit j of the window, ANDing it with the stream
shifted into line, and the popcounts of the 2^(k+1) leaves are the counts.
The last k bits carry over each seam, and the first k bits close the wrap.

Its cost grows with the file and doubles with each order, while the array
scan's is mostly the numpy import. So ``analyze_file`` counts with ints only
up to ``MAX_INT_ORDER`` and while the file's bits times 2^k stay within
``_INT_BUDGET``, and hands other files to ``bitstream``. Either way the
rate comes from ``window_rate`` up to that order and from the array fold
above it, so the statistics equal ``analyze`` of the stream in memory.
The order and verdict rules and the ``FileStats`` assembly live here, and
``bitstream`` imports them.
"""

from __future__ import annotations

import math
import os
import stat

from .core import Information
from .filestats import BIT_ORDERS, ORDERED, RANDOM, UNDECIDED, FileStats, binary_entropy

#: Minimum stream length for the randomness verdict to be attempted.
MIN_TEST_LENGTH = 64

#: Required samples per order-k context before the conditional rate is
#: reported: L >= 64 * 2**k.
MIN_SAMPLES_PER_CONTEXT = 64

MAX_MARKOV_ORDER = 16

#: The highest order counted with ints, and rated by ``window_rate``.
MAX_INT_ORDER = 4

#: The most file bits times 2^k that the int scan takes on: 64, 32, 16, 8
#: and 4 MiB at orders 0 to 4. On a 2-core Xeon the int scan costs ~8, 10,
#: 19 and 35 ms/MiB at orders 1 to 4, the array scan ~8 plus the ~130 ms
#: numpy import, and ``file`` at this budget still runs faster with ints.
_INT_BUDGET = 1 << 29

#: Bytes read at a time, into one buffer.
_CHUNK = 1 << 14

#: Each byte value with its bit order reversed.
_REVERSED = bytes(int(f"{v:08b}"[::-1], 2) for v in range(256))


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


def _scan(path: str | os.PathLike, k: int, bit_order: str) -> tuple[int, ...]:
    """The length, ones, pairs of adjacent ones, first and last bit of a
    non-empty file, and its cyclic (k+1)-bit window counts (k >= 1)."""
    counts = [0] * (2 << k)
    ones = pairs = length = first = head = last = tail = 0
    buf = bytearray(_CHUNK)
    with open(path, "rb", buffering=0) as f:
        while size := f.readinto(buf):
            chunk = buf[:size] if bit_order == "msb_first" else buf[:size].translate(_REVERSED)
            y, w = int.from_bytes(chunk, "big"), 8 * size
            ones += y.bit_count()
            pairs += (y & (y >> 1)).bit_count() + (last & y >> (w - 1))
            if not length:
                first, head = y >> (w - 1), y >> (w - k)
            if k:
                _count(counts, tail << w | y, w + k if length else w, k)
                tail = y & ((1 << k) - 1)
            last, length = y & 1, length + w
    if not length:
        raise ValueError(f"file {path!s} is empty")
    if k:
        _count(counts, tail << k | head, 2 * k, k)
    return length, ones, pairs, first, last, counts


def analyze_file(path: str | os.PathLike, markov_order: int = 3,
                 bit_order: str = "msb_first") -> FileStats:
    """``analyze(read_bitstream(path, bit_order), markov_order)``, with the
    file read ``_CHUNK`` bytes at a time into one buffer: the memory it
    takes does not grow with the file. A file that is not a regular file,
    such as a pipe, has no size to budget and goes to the array scan."""
    _check_order(markov_order)
    _check_bit_order(bit_order)
    k = markov_order
    info = os.stat(path)
    if k > MAX_INT_ORDER or not stat.S_ISREG(info.st_mode) or 8 * info.st_size << k > _INT_BUDGET:
        from . import bitstream

        return bitstream._array_analyze_file(path, k, bit_order)
    L, ones, pairs, first, last, counts = _scan(path, k, bit_order)
    return _stats(L, ones, k, _lag1(L, ones, pairs, first, last),
                  lambda: window_rate(counts, L) if k else binary_entropy(ones / L))


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


def _stats(L: int, n: int, order: int, lag1: float, rate) -> FileStats:
    """The statistics of a stream of L bits with n ones; ``rate()`` gives
    its order-``order`` conditional rate, asked for only when the stream
    offers enough samples per context."""
    p_hat = n / L
    return FileStats(
        length=L,
        ones=n,
        p_hat=p_hat,
        info_iid=Information(L * binary_entropy(p_hat)),
        info_rate_markov=rate() if L >= MIN_SAMPLES_PER_CONTEXT * (2 ** order) else None,
        markov_order=order,
        equilibrium=_verdict(L, n, lag1) if L >= MIN_TEST_LENGTH else UNDECIDED,
        correlation_lag1=lag1,
    )
