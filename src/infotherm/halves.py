"""Half a job in a forked child, stdlib only: the second half of a
bernoulli or markov stream that ``bitstream.write_generated`` draws, or of
a regular file that ``filescan.analyze_file`` counts with the array
counter. Only ``generate`` and that count import this module. Every write
is in order, from where its descriptor stands.

A failed child changes no output and no error: ``_Half.read`` returns the
bytes asked for or raises ``EOFError`` when the pipe ends early, and the
caller then redoes that work in process.
"""

from __future__ import annotations

import os
import sys


def _forks() -> bool:
    """Whether a job may run half its work in a forked child: on Linux,
    from a process of one thread (a fork copies only the calling thread, so
    a lock that another thread holds stays held in the child), which may
    run on more than one CPU."""
    if sys.platform != "linux" or not hasattr(os, "fork"):
        return False
    try:
        return len(os.listdir("/proc/self/task")) == 1 and len(os.sched_getaffinity(0)) > 1
    except OSError:
        return False


def _write(fd: int, buf) -> None:
    """Write all of ``buf`` to ``fd``, in order, from where ``fd`` stands."""
    view = memoryview(buf).cast("B")
    while view:
        view = view[os.write(fd, view) :]


class _Half:
    """The second half of a job, run by ``job()`` in a forked child while
    the caller runs the first; ``fork`` gives None, forking nothing, when
    ``_forks()`` says no or the fork fails. The child writes what ``job()``
    yields to a pipe and ends with ``os._exit``, 0 once all is written and
    1 if anything raised; the caller reaps it when its ``with`` ends."""

    def __init__(self, pid: int, fd: int):
        self.pid, self.fd = pid, fd

    @classmethod
    def fork(cls, job) -> _Half | None:
        if not _forks():
            return None
        r, w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
            return None
        if not pid:
            status = 1
            try:
                os.close(r)
                for buf in job():
                    _write(w, buf)
                status = 0
            finally:
                os._exit(status)
        os.close(w)
        return cls(pid, r)

    def read(self, n: int) -> bytearray:
        """The next ``n`` bytes of the job's result; ``EOFError`` when the
        pipe ends first, which means the child failed."""
        out = bytearray()
        while len(out) < n:
            part = os.read(self.fd, n - len(out))
            if not part:
                raise EOFError("the forked half ended early")
            out += part
        return out

    def __enter__(self) -> _Half:
        return self

    def __exit__(self, *exc) -> None:
        os.close(self.fd)
        os.waitpid(self.pid, 0)
