"""Peak resident memory of the bit commands and the Metropolis chain,
measured in a child process.

Each command, and each import floor, is spawned by a bare launcher
process, as ``perfbench/spawner.py`` spawns the benchmark's commands. On
Linux a child's ``ru_maxrss`` includes the high-water mark of the address
space that spawned it; spawned from pytest, every command lighter than
pytest would read pytest's size. The launcher imports nothing large, so
each peak is the command's own, above a floor of about a bare interpreter.

The bit commands stream: ``generate`` writes each packed block as it is
drawn, and ``file`` and ``broadcast`` read the file 16 KiB at a time. So
on a 2^23-bit corpus ``generate`` and ``file --markov-order 16``, on a
corpus where all 2^17 windows occur included, peak (``wait4``'s
``ru_maxrss``) within 4 MiB of an interpreter that has only imported
numpy and ``infotherm.bitstream``. At the default order
``file`` and ``broadcast`` import no numpy, and peak within 2 MiB of an
interpreter that has imported the modules they run; numpy alone would add
~13 MiB. ``file`` on a file eight times larger peaks within 0.5 MiB of
``file`` on the corpus. The chain holds one window of 2^14 steps at a
time, so ``gas metropolis`` stays within 3 MiB of an interpreter that has
imported what it runs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import infotherm

SRC = Path(infotherm.__file__).resolve().parent.parent
CORPUS_BITS = 1 << 23
#: Headroom over the import floor, in KiB, with numpy and without.
HEADROOM_KIB = 4 * 1024
LEAN_HEADROOM_KIB = 2 * 1024
#: Growth allowed from the corpus to a file eight times larger, in KiB.
SIZE_GROWTH_KIB = 512
CHAIN_HEADROOM_KIB = 3 * 1024

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="ru_maxrss is in KiB and per child only on Linux")


#: Run by ``python -S -c``: spawn ``argv[1:]``, print its peak resident
#: set in KiB and exit with its status. The reaped status is recorded on the
#: ``Popen``, which then knows the child is gone.
LAUNCHER = """\
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(usage.ru_maxrss)
sys.exit(proc.returncode)
"""


def max_rss_kib(args, cwd: Path) -> int:
    """Peak resident set of ``python args`` in KiB, spawned by the
    launcher; the run must succeed. The command's stderr is the launcher's."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-S", "-c", LAUNCHER, sys.executable, *args], cwd=cwd,
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


@pytest.fixture(scope="module")
def floor_kib(tmp_path_factory) -> int:
    cwd = tmp_path_factory.mktemp("floor")
    return max_rss_kib(["-c", "import numpy, infotherm.bitstream"], cwd)


@pytest.fixture(scope="module")
def lean_floor_kib(tmp_path_factory) -> int:
    cwd = tmp_path_factory.mktemp("lean_floor")
    return max_rss_kib(["-c", "import infotherm.cli, infotherm.filescan, infotherm.ledger"], cwd)


def generate(path: Path, kind: str, bits: int) -> Path:
    """Write a seeded markov (q = 0.1) or bernoulli (p = 0.5) corpus."""
    param = ["--q", "0.1"] if kind == "markov" else ["--p", "0.5"]
    max_rss_kib(["-m", "infotherm.cli", "generate", "--kind", kind, *param, "--length", str(bits),
                 "--seed", "5", "--out", str(path)], path.parent)
    return path


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Path:
    return generate(tmp_path_factory.mktemp("corpus") / "markov.bin", "markov", CORPUS_BITS)


@pytest.fixture(scope="module")
def dense_corpus(tmp_path_factory) -> Path:
    """A fair-coin corpus: every one of the 2^17 order-16 windows occurs."""
    return generate(tmp_path_factory.mktemp("corpus") / "bernoulli.bin", "bernoulli", CORPUS_BITS)


@pytest.mark.parametrize("command", ["generate", "file", "file-dense", "file-default", "broadcast"])
def test_bit_command_peak_rss_stays_near_the_import_floor(command, corpus, dense_corpus, floor_kib,
                                                          lean_floor_kib, tmp_path):
    argv = {
        "generate": ["generate", "--kind", "bernoulli", "--p", "0.5", "--length", str(CORPUS_BITS),
                     "--seed", "9", "--out", str(tmp_path / "out.bin")],
        "file": ["file", str(corpus), "--markov-order", "16"],
        "file-dense": ["file", str(dense_corpus), "--markov-order", "16"],
        "file-default": ["file", str(corpus)],
        "broadcast": ["broadcast", "--file", str(corpus), "--receivers", "3"],
    }[command]
    floor, headroom = ((lean_floor_kib, LEAN_HEADROOM_KIB) if command in ("file-default", "broadcast")
                       else (floor_kib, HEADROOM_KIB))
    peak = max_rss_kib(["-m", "infotherm.cli", *argv], tmp_path)
    assert peak - floor <= headroom, f"{command}: {peak} KiB against a floor of {floor} KiB"


def test_file_peak_rss_does_not_grow_with_the_file(corpus, tmp_path):
    large = generate(tmp_path / "large.bin", "markov", 8 * CORPUS_BITS)
    peak = max_rss_kib(["-m", "infotherm.cli", "file", str(large)], tmp_path)
    base = max_rss_kib(["-m", "infotherm.cli", "file", str(corpus)], tmp_path)
    assert peak - base <= SIZE_GROWTH_KIB, f"2^26 bits: {peak} KiB against {base} KiB at 2^23 bits"


def test_metropolis_peak_rss_stays_near_the_import_floor(tmp_path):
    floor = max_rss_kib(["-c", "import numpy, infotherm.cli, infotherm.twolevel, infotherm.rng"], tmp_path)
    peak = max_rss_kib(["-m", "infotherm.cli", "gas", "metropolis", "--length", "10000",
                        "--steps", "2000000", "--burn-in", "200000", "--kt", "1.0", "--seed", "1"],
                       tmp_path)
    assert peak - floor <= CHAIN_HEADROOM_KIB, f"metropolis: {peak} KiB against a floor of {floor} KiB"
