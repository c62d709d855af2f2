"""The two-process path: ``write_generated`` and ``analyze_file`` run the
second half of a stream in a forked child (``filescan._Half``) and give the
bytes and statistics of the one-process path.

Each path is forced by patching the fork predicate ``filescan._forks``. The
guard itself is checked in a fresh interpreter, where OpenBLAS starts no
thread, so that the predicate would say yes but for the case under test.
"""

import os
import sys
import threading

import numpy as np
import pytest

from infotherm import bitstream, filescan
from infotherm.bitstream import GeneratorSpec, generate, write_generated
from infotherm.filescan import analyze_file
from test_bitstream import exact
from test_startup import python

#: A fork from this multi-threaded test process warns on Python 3.12+; the
#: children here run numpy and os calls only, and end with ``os._exit``.
pytestmark = [pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork"),
              pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")]

BLOCK = bitstream._BLOCK
PARAMS = {"bernoulli": {"p": 0.3}, "markov": {"q": 0.5}, "ordered_block": {}, "alternating": {}}


@pytest.fixture
def forks(monkeypatch):
    """Count the forks, and check on leaving that every child was reaped."""
    calls = []
    monkeypatch.setattr(os, "fork", lambda fork=os.fork: calls.append(1) or fork())
    yield calls
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _both_paths(monkeypatch, run):
    """``run()`` with the fork predicate forced off, then on."""
    results = []
    for split in (False, True):
        monkeypatch.setattr(filescan, "_forks", lambda split=split: split)
        results.append(run())
    return results


@pytest.mark.parametrize("kind", PARAMS)
@pytest.mark.parametrize("blocks", [1, 2, 5])
@pytest.mark.parametrize("bit_order", ["msb_first", "lsb_first"])
def test_split_generate_writes_the_serial_bytes(kind, blocks, bit_order, tmp_path, monkeypatch, forks):
    """For every kind, bit order and 1, 2 or 2k+1 blocks (the last one
    short), both paths write the same file and count the same ones; the
    markov seeds include first halves that end on 0 and on 1."""
    length, ends = blocks * BLOCK - 8 * (blocks == 5), set()
    for seed in range(4):
        spec = GeneratorSpec(kind=kind, length=length, seed=seed, **PARAMS[kind])
        paths = [tmp_path / "serial.bin", tmp_path / "split.bin"]
        ones = _both_paths(monkeypatch, lambda: write_generated(spec, paths.pop(0), bit_order))
        assert ones[0] == ones[1] == generate(spec).ones
        assert (tmp_path / "serial.bin").read_bytes() == (tmp_path / "split.bin").read_bytes()
        if blocks > 1:
            ends.add(int(generate(spec).bits[blocks // 2 * BLOCK - 1]))
    splits = kind in ("bernoulli", "markov") and blocks > 1
    assert len(forks) == (4 if splits else 0)
    if splits and kind == "markov":
        assert ends == {0, 1}


def _random_file(path, order: int) -> int:
    """A file of random bytes just long enough to report the order's rate."""
    size = (filescan.MIN_SAMPLES_PER_CONTEXT << order) // 8 + 5
    path.write_bytes(np.random.default_rng(order).integers(0, 256, size, dtype=np.uint8).tobytes())
    return size


@pytest.mark.parametrize("order", range(filescan.MAX_INT_ORDER + 1, filescan.MAX_MARKOV_ORDER + 1))
@pytest.mark.parametrize("bit_order", ["msb_first", "lsb_first"])
def test_split_file_stats_equal_the_serial_scan(order, bit_order, tmp_path, monkeypatch, forks):
    """At orders 5 to 16 the split scan's statistics equal the serial
    scan's, bit for bit, with the split at the first chunk boundary and
    nearer the middle, and the chunks of an odd size."""
    path = tmp_path / "data.bin"
    size = _random_file(path, order)
    for chunk in (size // 2 - 1, size // 5 + 1):
        monkeypatch.setattr(filescan, "_CHUNK", chunk)
        serial, split = _both_paths(monkeypatch, lambda: exact(analyze_file(path, order, bit_order)))
        assert split == serial
        assert split["info_rate_markov"] is not None
    assert len(forks) == 2


def _fail_in_child(monkeypatch, after: int) -> list[int]:
    """Make a forked child exit with status 3 once it has written ``after``
    bytes; the exit codes reaped are returned in a list."""
    parent, written, codes = os.getpid(), [0], []

    def write(fd, data, write=os.write):
        if os.getpid() != parent and written[0] + len(data) > after:
            write(fd, data[: after - written[0]])
            os._exit(3)
        written[0] += len(data)
        return write(fd, data)

    def pwrite(fd, data, offset, pwrite=os.pwrite):
        if os.getpid() != parent:
            os._exit(3)
        return pwrite(fd, data, offset)

    def waitpid(pid, options, waitpid=os.waitpid):
        pid, status = waitpid(pid, options)
        codes.append(os.waitstatus_to_exitcode(status))
        return pid, status

    monkeypatch.setattr(os, "write", write)
    monkeypatch.setattr(os, "pwrite", pwrite)
    monkeypatch.setattr(os, "waitpid", waitpid)
    return codes


@pytest.mark.parametrize("after", [0, 40 + 3 + 100_000])
def test_a_failed_child_leaves_the_file_stats_unchanged(after, tmp_path, monkeypatch, forks):
    """A child that exits 3 before its result, or part way through its
    count table, is reaped, and the parent scans the rest itself."""
    path = tmp_path / "data.bin"
    _random_file(path, 16)
    monkeypatch.setattr(filescan, "_forks", lambda: False)
    serial = exact(analyze_file(path, 16))
    codes = _fail_in_child(monkeypatch, after)
    monkeypatch.setattr(filescan, "_forks", lambda: True)
    assert exact(analyze_file(path, 16)) == serial
    assert codes == [3]


def test_a_failed_child_leaves_the_generated_file_unchanged(tmp_path, monkeypatch, forks):
    """A child that exits 3 at its first write is reaped, and the parent
    draws and writes the second half itself, fixed up as the child's."""
    for seed in range(4):
        spec = GeneratorSpec(kind="markov", length=3 * BLOCK, seed=seed, q=0.5)
        expected = generate(spec)
        with pytest.MonkeyPatch.context() as mp:
            codes = _fail_in_child(mp, 0)
            mp.setattr(filescan, "_forks", lambda: True)
            assert write_generated(spec, tmp_path / "out.bin") == expected.ones
        assert (tmp_path / "out.bin").read_bytes() == expected.packed.tobytes()
        assert codes == [3]


def test_a_pipe_is_written_in_order(tmp_path, monkeypatch):
    """A FIFO has no offsets to write at, so even with the predicate forced
    on, ``write_generated`` writes it in order, without a fork."""
    spec = GeneratorSpec(kind="markov", length=4 * BLOCK, seed=1, q=0.1)
    fifo, got = tmp_path / "out.fifo", []
    os.mkfifo(fifo)
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()))
    reader.start()
    monkeypatch.setattr(filescan, "_forks", lambda: True)
    monkeypatch.setattr(os, "fork", _no_fork)
    try:
        assert write_generated(spec, fifo) == generate(spec).ones
    finally:
        reader.join(timeout=60)
    assert got == [generate(spec).packed.tobytes()]


def _no_fork():
    raise AssertionError("forked")


#: Run in a fresh interpreter, with OpenBLAS held to one thread as ``main``
#: holds it and the process free to run on two CPUs: writes the markov
#: stream of 2^22 bits to argv[2] and scans it at order 16, after setting up
#: the case argv[1]. A fork raises, so only the in-process path can succeed.
GUARD = """
import os, sys, threading
from infotherm import bitstream, filescan
os.sched_getaffinity = lambda pid: {0, 1}
case, out = sys.argv[1:]
assert filescan._forks()
def no_fork():
    raise AssertionError("forked")
if case == "thread":
    done = threading.Event()
    threading.Thread(target=done.wait).start()
elif case == "no fork":
    del os.fork
if case != "no fork":
    os.fork = no_fork
spec = bitstream.GeneratorSpec(kind="markov", length=1 << 22, seed=1, q=0.1)
try:
    ones = bitstream.write_generated(spec, out)
    stats = filescan.analyze_file(out, 16) if out != "/dev/stdout" else None
finally:
    if case == "thread":
        done.set()
sys.stderr.write(f"{ones} {stats and stats.info_rate_markov.hex()}")
"""


@pytest.mark.skipif(sys.platform != "linux", reason="the split runs on Linux only")
@pytest.mark.parametrize("case", ["thread", "no fork", "stdout", "control"])
def test_the_guard_keeps_the_serial_path(case, tmp_path):
    """With a second thread alive, without ``os.fork`` or with the output
    on ``/dev/stdout`` (a pipe here), both commands run in process; the
    control, a regular file from one thread, forks."""
    out = "/dev/stdout" if case == "stdout" else str(tmp_path / "out.bin")
    proc = python(GUARD, case, out, cwd=tmp_path, OPENBLAS_NUM_THREADS="1")
    if case == "control":
        assert b"AssertionError: forked" in proc.stderr
        return
    assert proc.returncode == 0, proc.stderr
    stream = generate(GeneratorSpec(kind="markov", length=1 << 22, seed=1, q=0.1))
    written = proc.stdout if case == "stdout" else (tmp_path / "out.bin").read_bytes()
    assert written == stream.packed.tobytes()
    ones, rate = proc.stderr.decode().split()
    assert int(ones) == stream.ones
    if case != "stdout":
        assert rate == bitstream.analyze(stream, 16).info_rate_markov.hex()
