"""The two-process path: ``write_generated`` and ``analyze_file`` run the
second half of a stream in a forked child (``halves._Half``) and give the
bytes and statistics of the one-process path.

Each path is forced by patching the fork predicate ``halves._forks``. The
guard itself is checked in a fresh interpreter, where OpenBLAS starts no
thread, so that the predicate would say yes but for the case under test.
"""

import errno
import inspect
import math
import os
import sys
import threading

import numpy as np
import pytest

from infotherm import bitstream, filescan, halves
from infotherm.bitstream import GeneratorSpec, generate, write_generated
from infotherm.filescan import analyze_file
from test_bitstream import exact
from test_startup import LOADED, RUN_QUIET, WIDE, python

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
        monkeypatch.setattr(halves, "_forks", lambda split=split: split)
        results.append(run())
    return results


@pytest.mark.parametrize("kind", PARAMS)
@pytest.mark.parametrize("blocks", [1, 2, 5])
@pytest.mark.parametrize("bit_order", ["msb_first", "lsb_first"])
def test_split_generate_writes_the_serial_bytes(kind, blocks, bit_order, tmp_path, monkeypatch, forks):
    """For every kind, bit order and 1, 2 or 2k+1 blocks (the last one
    short), both paths write the same file and count the same ones; the
    markov seeds include first halves that end on 0 and on 1. A split's
    parent draws only the first half, so a split that falls back to the
    serial path fails here."""
    length, ends = blocks * BLOCK - 8 * (blocks == 5), set()
    splits = kind in ("bernoulli", "markov") and blocks > 1
    puts = _parent_spans(monkeypatch, bitstream, "_put")
    for seed in range(4):
        spec = GeneratorSpec(kind=kind, length=length, seed=seed, **PARAMS[kind])
        paths = [tmp_path / "serial.bin", tmp_path / "split.bin"]
        puts.clear()
        ones = _both_paths(monkeypatch, lambda: write_generated(spec, paths.pop(0), bit_order))
        assert ones[0] == ones[1] == generate(spec).ones
        assert (tmp_path / "serial.bin").read_bytes() == (tmp_path / "split.bin").read_bytes()
        assert puts == [(0, None), (0, blocks // 2) if splits else (0, None)]
        if blocks > 1:
            ends.add(int(generate(spec).bits[blocks // 2 * BLOCK - 1]))
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
    nearer the middle, and the chunks of an odd size. The split's parent
    reads the file once, up to the split, and takes every later byte from
    the child, so a split that falls back to the serial scan fails here."""
    path = tmp_path / "data.bin"
    size, spans = _random_file(path, order), _parent_spans(monkeypatch, filescan, "_read")
    for chunk in (size // 2 - 1, size // 5 + 1):
        monkeypatch.setattr(filescan, "_CHUNK", chunk)
        spans.clear()
        serial, split = _both_paths(monkeypatch, lambda: exact(analyze_file(path, order, bit_order)))
        assert split == serial
        assert split["info_rate_markov"] is not None
        assert spans == [(0, math.inf), (0, chunk * (size // chunk // 2))]
    assert len(forks) == 2


def _parent_spans(monkeypatch, module, name: str) -> list[tuple]:
    """The (start, stop) of each call to ``module.name`` that this process,
    not a child, makes from now on, in a list."""
    parent, spans, real = os.getpid(), [], getattr(module, name)
    signature = inspect.signature(real)

    def call(*args):
        if os.getpid() == parent:
            bound = signature.bind(*args)
            bound.apply_defaults()
            spans.append((bound.arguments["start"], bound.arguments["stop"]))
        return real(*args)

    monkeypatch.setattr(module, name, call)
    return spans


def _reaped(monkeypatch) -> list[int]:
    """The exit codes of the children reaped from now on, in a list."""
    codes = []

    def waitpid(pid, options, waitpid=os.waitpid):
        pid, status = waitpid(pid, options)
        codes.append(os.waitstatus_to_exitcode(status))
        return pid, status

    monkeypatch.setattr(os, "waitpid", waitpid)
    return codes


def _fail_in_child(monkeypatch, after: int) -> list[int]:
    """Make a forked child exit with status 3 once it has written ``after``
    bytes; the exit codes reaped are returned in a list."""
    parent, written = os.getpid(), [0]

    def write(fd, data, write=os.write):
        if os.getpid() != parent and written[0] + len(data) > after:
            write(fd, data[: after - written[0]])
            os._exit(3)
        written[0] += len(data)
        return write(fd, data)

    monkeypatch.setattr(os, "write", write)
    return _reaped(monkeypatch)


@pytest.mark.parametrize("after", [0, 40, 40 + 3, 40 + 3 + 100_000])
def test_a_failed_child_leaves_the_file_stats_unchanged(after, tmp_path, monkeypatch, forks):
    """A child that exits 3 before its result, after its five moments,
    after its first 3 bytes (the key length at order 16) or part way
    through its count table, is reaped, and the parent scans the whole file
    again."""
    path = tmp_path / "data.bin"
    _random_file(path, 16)
    monkeypatch.setattr(halves, "_forks", lambda: False)
    serial = exact(analyze_file(path, 16))
    codes = _fail_in_child(monkeypatch, after)
    monkeypatch.setattr(halves, "_forks", lambda: True)
    assert exact(analyze_file(path, 16)) == serial
    assert codes == [3]


def test_a_failed_child_leaves_the_generated_file_unchanged(tmp_path, monkeypatch, forks):
    """A child that exits 3 at its first write, part way through its half,
    or after its whole half (2 blocks) but before its 8-byte reply is
    reaped, and the parent writes the whole stream again in process, over
    what the halves left, as it writes a stream that does not split; the
    seeds include first halves that end on 0 and on 1."""
    ends = set()
    for after in (0, 3000, 2 * BLOCK // 8):
        for seed in range(4):
            spec = GeneratorSpec(kind="markov", length=3 * BLOCK, seed=seed, q=0.5)
            expected = generate(spec)
            ends.add(int(expected.bits[BLOCK - 1]))
            forks.clear()
            with pytest.MonkeyPatch.context() as mp:
                codes = _fail_in_child(mp, after)
                mp.setattr(halves, "_forks", lambda: True)
                assert write_generated(spec, tmp_path / "out.bin") == expected.ones
            assert (tmp_path / "out.bin").read_bytes() == expected.packed.tobytes()
            assert codes == [3]
            assert len(forks) == 1
    assert ends == {0, 1}


def test_read_returns_the_bytes_asked_for_or_raises(monkeypatch, forks):
    """``read`` joins the child's writes into exactly the bytes asked for,
    and raises ``EOFError`` when the pipe ends short of them: here the child
    exits 3 after 4 of its 6 bytes."""
    codes = _fail_in_child(monkeypatch, 4)
    monkeypatch.setattr(halves, "_forks", lambda: True)
    with halves._Half.fork(lambda: [b"ab", b"cdef"]) as half:
        assert half.read(3) == b"abc"
        with pytest.raises(EOFError):
            half.read(2)
    assert codes == [3]


def _generated(tmp_path):
    """A job that writes a 4-block markov stream and gives its ones and bytes."""
    spec = GeneratorSpec(kind="markov", length=4 * BLOCK, seed=1, q=0.5)
    path = tmp_path / "out.bin"
    return lambda: (write_generated(spec, path), path.read_bytes())


def _counted(tmp_path):
    """A job that gives the order-16 statistics of a random file."""
    path = tmp_path / "data.bin"
    _random_file(path, 16)
    return lambda: exact(analyze_file(path, 16))


def _fork_fails(monkeypatch, reached):
    def fork():
        reached.append("fork")
        raise BlockingIOError(errno.EAGAIN, "fork refused")

    monkeypatch.setattr(halves, "_forks", lambda: True)
    monkeypatch.setattr(os, "fork", fork)


def _no_task_list(monkeypatch, reached):
    def listdir(path, listdir=os.listdir):
        if path == "/proc/self/task":
            reached.append("listdir")
            raise PermissionError(errno.EACCES, "no task list", path)
        return listdir(path)

    monkeypatch.setattr(os, "listdir", listdir)
    monkeypatch.setattr(os, "fork", _no_fork)


def _no_second_descriptor(monkeypatch, reached):
    def opener(file, *args, **kwargs):
        if str(file).startswith("/proc/self/fd/"):
            reached.append("open")
            raise PermissionError(errno.EACCES, "no second descriptor", file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(halves, "_forks", lambda: True)
    monkeypatch.setattr(bitstream, "open", opener, raising=False)
    monkeypatch.setattr(os, "fork", _no_fork)


def _fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(sys.platform != "linux", reason="the split runs on Linux only")
@pytest.mark.parametrize("job, fail", [
    (_generated, _fork_fails),
    (_counted, _fork_fails),
    (_generated, _no_task_list),
    (_counted, _no_task_list),
    (_generated, _no_second_descriptor),
], ids=["generate-fork", "file-fork", "generate-task", "file-task", "generate-descriptor"])
def test_a_split_that_cannot_start_runs_in_process(job, fail, tmp_path, monkeypatch):
    """When ``os.fork`` raises ``OSError``, ``/proc/self/task`` cannot be
    listed or the second descriptor of the generated file cannot be opened,
    the job runs in one process: it gives the one-process path's ones,
    bytes or statistics, leaves no child and leaks no descriptor."""
    run = job(tmp_path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(halves, "_forks", lambda: False)
        serial = run()
    reached, fds = [], _fds()
    fail(monkeypatch, reached)
    assert run() == serial
    assert len(reached) == 1
    assert _fds() == fds
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


TWO_CPUS = pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                              reason="the child moves off its parent's CPU only when it may run on another")


@TWO_CPUS
def test_the_child_runs_off_its_parents_cpu(monkeypatch, forks):
    """The child may run on every CPU its parent may run on but one, the
    parent's; the parent's own set is the same after the split as before."""
    parent = os.sched_getaffinity(0)
    size = max(parent) + 1
    monkeypatch.setattr(halves, "_forks", lambda: True)
    with halves._Half.fork(lambda: [bytes(cpu in os.sched_getaffinity(0) for cpu in range(size))]) as half:
        child = {cpu for cpu, on in enumerate(half.read(size)) if on}
    assert child < parent
    assert len(parent - child) == 1
    assert os.sched_getaffinity(0) == parent
    assert len(forks) == 1


def _no_setaffinity(monkeypatch, marks):
    def setaffinity(pid, cpus):
        marks.write_text("setaffinity")
        raise PermissionError(errno.EPERM, "affinity refused")

    monkeypatch.setattr(os, "sched_setaffinity", setaffinity)


def _no_parent_stat(monkeypatch, marks):
    stat = f"/proc/{os.getpid()}/stat"

    def opener(file, *args, **kwargs):
        if str(file) == stat:
            marks.write_text("open")
            raise PermissionError(errno.EACCES, "no parent stat", file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(halves, "open", opener, raising=False)


@TWO_CPUS
@pytest.mark.skipif(sys.platform != "linux", reason="the split runs on Linux only")
@pytest.mark.parametrize("job, fail", [
    (_generated, _no_setaffinity),
    (_counted, _no_setaffinity),
    (_generated, _no_parent_stat),
    (_counted, _no_parent_stat),
], ids=["generate-setaffinity", "file-setaffinity", "generate-stat", "file-stat"])
def test_a_child_that_cannot_move_runs_where_it_is(job, fail, tmp_path, monkeypatch, forks):
    """When the child cannot set its affinity or open its parent's
    ``/proc/<ppid>/stat``, it runs its half where it is and exits 0, so the
    parent redoes nothing: the split gives the one-process path's ones,
    bytes or statistics with one fork, leaves no child and leaks no
    descriptor."""
    run, marks = job(tmp_path), tmp_path / "reached"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(halves, "_forks", lambda: False)
        serial = run()
    fds = _fds()
    fail(monkeypatch, marks)
    codes = _reaped(monkeypatch)
    monkeypatch.setattr(halves, "_forks", lambda: True)
    assert run() == serial
    assert marks.exists()
    assert codes == [0]
    assert len(forks) == 1
    assert _fds() == fds


@pytest.mark.parametrize("argv, loads", [
    (["file", "wide.bin", "--markov-order", "0"], False),
    (["file", "wide.bin", "--markov-order", "3"], False),
    (["broadcast", "--file", "wide.bin", "--receivers", "3"], False),
    (["gas", "entropy", "--length", "1000", "--excited", "300"], False),
    (["file", "wide.bin", "--markov-order", "16"], True),
], ids=["file-o0", "file-o3", "broadcast", "gas-entropy", "file-o16"])
def test_only_the_split_loads_the_split_module(argv, loads, tmp_path):
    """``file`` and ``broadcast`` without windows or with the int counter,
    and the closed forms, never compile ``halves``; the array count of a
    regular file of two chunks or more (here 32, the fewest that report
    the rate at order 16) does."""
    (tmp_path / "wide.bin").write_bytes(WIDE)
    proc = python(LOADED, RUN_QUIET, *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert ("infotherm.halves" in proc.stdout.decode().split()) == loads


def test_a_pipe_is_written_in_order(tmp_path, monkeypatch):
    """A FIFO has no offsets to write at, so even with the predicate forced
    on, ``write_generated`` writes it in order, without a fork."""
    spec = GeneratorSpec(kind="markov", length=4 * BLOCK, seed=1, q=0.1)
    fifo, got = tmp_path / "out.fifo", []
    os.mkfifo(fifo)
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()))
    reader.start()
    monkeypatch.setattr(halves, "_forks", lambda: True)
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
from infotherm import bitstream, filescan, halves
os.sched_getaffinity = lambda pid: {0, 1}
case, out = sys.argv[1:]
assert halves._forks()
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
