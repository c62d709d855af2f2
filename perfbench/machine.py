"""Where the numbers came from, and the machine's own copy rate.

Everything here only reads: ``/proc/cpuinfo``, ``/sys`` cache sizes and
the checkout's ``.git``. No machine setting is changed.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

MIB = 1 << 20
#: ``machine.copy_gbps`` uses arrays at least this many times the last-level cache.
COPY_LLC_MULTIPLE = 4
COPY_REPS = 5


def _read(path) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def cache_sizes() -> dict[str, int]:
    """Unified or data cache size per level, in bytes, for cpu0."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(index / "type") == "Instruction":
            continue
        text = _read(index / "size")
        if text:
            scale = {"K": 1 << 10, "M": MIB, "G": 1 << 30}.get(text[-1], 1)
            sizes[f"L{_read(index / 'level')}"] = int(text.rstrip("KMG")) * scale
    return sizes


def cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    head = _read(git / "HEAD")
    if not head:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(git / ref)
    if commit:
        return commit
    for line in _read(git / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def provenance(root: Path, seed: int) -> dict:
    caches = cache_sizes()
    return {
        "git_commit": git_commit(root),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "l2_bytes": caches.get("L2"),
        "l3_bytes": caches.get("L3"),
        "seed": seed,
    }


class Reference:
    """Fixed work, timed before every command, that follows the host's speed.

    The host this benchmark was built on changes speed by up to a third
    for minutes at a time (README.md, "Run-to-run spread"). Dividing a
    run's latencies by its reference time cancels most of that drift. The
    work never touches infotherm, so no change to the package moves it: a
    pure-Python loop, like the interpreter-bound commands, and a numpy sum
    over an array larger than the last-level cache, like the memory-bound
    ones. ``seconds`` is the geometric mean of the two medians.
    """

    LOOP = 100_000
    BYTES = 128 * MIB
    #: ``seconds()`` on the host the committed figures come from (Intel Xeon,
    #: 2 vCPUs, 105 MiB L3), give or take its drift. A time divided by
    #: ``seconds()`` and multiplied by this is that time at the reference speed.
    NOMINAL_S = 0.010

    def __init__(self):
        self.buf = None
        self.python_s: list[float] = []
        self.numpy_s: list[float] = []

    def sample(self) -> None:
        if self.buf is None:
            self.buf = np.ones(self.BYTES // 8)
        t0 = time.perf_counter()
        total = 0
        for i in range(self.LOOP):
            total += i & 7
        t1 = time.perf_counter()
        self.buf.sum()
        t2 = time.perf_counter()
        self.python_s.append(t1 - t0)
        self.numpy_s.append(t2 - t1)

    def seconds(self) -> float:
        return math.sqrt(statistics.median(self.python_s) * statistics.median(self.numpy_s))


def copy_gbps() -> tuple[float, int, int]:
    """Sustained copy rate, counting bytes read plus bytes written.

    Returns (GB/s, array bytes, last-level cache bytes). Each array is at
    least COPY_LLC_MULTIPLE times the last-level cache, so the copy runs
    from and to memory. The first copy, which faults the pages in, is not
    timed.
    """
    caches = cache_sizes()
    llc = max(caches.values())
    size = -(-COPY_LLC_MULTIPLE * llc // MIB) * MIB
    src = np.ones(size // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    times = []
    for _ in range(COPY_REPS):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    del src, dst
    return 2 * size / statistics.median(times) / 1e9, size, llc
