"""What importing the package and starting a command load.

Only the array code imports numpy: ``bitstream``, behind ``generate``;
``filescan``'s array counter, behind ``file`` and ``broadcast`` when they
count windows above ``filescan.MAX_INT_ORDER``, past its int budget or
from a pipe; and the Metropolis chain behind ``gas metropolis``. Every
closed-form command runs in a fresh interpreter without it, with the same
stdout and exit status as its golden, and so do ``file`` and ``broadcast``
at the default order, at order 0 and at an order too high for the file to
report the rate. The package resolves every public name on first use, so
importing it or the CLI loads no other ``infotherm`` module, and a command
loads only the modules it runs: the ledgers load no ``filescan``, and
``file`` at any order loads neither ``bitstream`` nor ``rng``.

The process path, ``python -m infotherm.cli`` through ``main()``, prints
what ``run`` prints in process and exits with its status, then freezes
the heap so that the shutdown collections have nothing to sweep. A report
or help that stdout cannot take is an error, exit 2, not a verdict.
``main()`` runs OpenBLAS on one thread unless the environment names a
count; ``run`` leaves the environment alone.
"""

import contextlib
import errno
import gc
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import infotherm
from infotherm import bitstream, cli, filescan
from test_golden import CASES, GOLDEN, USAGE_CASES, run_usage_case

SRC = Path(infotherm.__file__).resolve().parent.parent

#: Golden cases of the README's closed-form commands.
CLOSED_FORM = ("gas_entropy", "gas_temperature", "gas_occupation", "gas_transfer",
               "fiber_efficiency", "fiber_amplifier", "fiber_simulate",
               "landauer_noise", "landauer_bit_rate", "ledger_check", "ledger_combined")

#: Runs ``cli.run`` on argv, then reports on stderr whether numpy was imported.
RUN_CLI = ("import sys; from infotherm.cli import run; status = run(sys.argv[1:]); "
           "print('numpy' in sys.modules, file=sys.stderr); sys.exit(status)")


def _env(**overrides: str | None) -> dict[str, str]:
    """This environment with the package on the path; a None override unsets."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for key, value in overrides.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return env


def python(code: str, *argv: str, cwd: Path, input: bytes | None = None,
           **env: str | None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=_env(**env), input=input,
                          capture_output=True, timeout=60)


def python_m(*argv: str, cwd: Path, stdout=subprocess.PIPE,
             **env: str | None) -> subprocess.CompletedProcess:
    """``python -m infotherm.cli`` on argv: ``main()``, as the console script runs it."""
    return subprocess.run([sys.executable, "-m", "infotherm.cli", *argv], cwd=cwd, env=_env(**env),
                          stdout=stdout, stderr=subprocess.PIPE, timeout=60)


@pytest.mark.parametrize("name", CLOSED_FORM)
def test_closed_form_command_runs_without_numpy(name, tmp_path):
    argv, setup = CASES[name]
    assert not setup
    status = json.loads((GOLDEN / "status.json").read_text())
    for suffix, extra in ((".txt", []), (".json", ["--json"])):
        proc = python(RUN_CLI, *argv, *extra, cwd=tmp_path)
        assert proc.returncode == status[name + suffix], proc.stderr
        assert proc.stdout == (GOLDEN / (name + suffix)).read_bytes()
        assert proc.stderr == b"False\n"


#: Bytes that ``file`` and ``broadcast`` read in the tests below.
DATA = bytes(range(256)) * 16

#: 2^22 bits, the fewest that report the rate at order 16.
WIDE = DATA * 128


@pytest.mark.parametrize("argv, loads_numpy", [
    (["file", "data.bin"], False),
    (["broadcast", "--file", "data.bin", "--receivers", "3"], False),
    (["file", "data.bin", "--markov-order", str(filescan.MAX_INT_ORDER)], False),
    (["file", "data.bin", "--markov-order", str(filescan.MAX_INT_ORDER + 1)], True),
    (["file", "wide.bin", "--markov-order", "16"], True),
    (["broadcast", "--file", "wide.bin", "--receivers", "3", "--markov-order", "16"], True),
], ids=["file", "broadcast", "file-int-orders", "file-past-int-orders", "file-o16",
        "broadcast-o16"])
def test_file_commands_load_numpy_only_above_the_int_orders(argv, loads_numpy, tmp_path):
    (tmp_path / "data.bin").write_bytes(DATA)
    (tmp_path / "wide.bin").write_bytes(WIDE)
    proc = python(RUN_CLI, *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == f"{loads_numpy}\n".encode()


@pytest.mark.parametrize("extra, loads_numpy", [(0, False), (1, True)], ids=["at", "past"])
def test_file_past_the_int_budget_loads_numpy(extra, loads_numpy, tmp_path):
    """At ``MAX_INT_ORDER`` a file of ``_INT_BUDGET`` bits / 2^order is
    counted with ints, and one byte more goes to the array scanner."""
    order = filescan.MAX_INT_ORDER
    (tmp_path / "big.bin").write_bytes(bytes(filescan._INT_BUDGET // (8 << order) + extra))
    proc = python(RUN_CLI, "file", "big.bin", "--markov-order", str(order), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == f"{loads_numpy}\n".encode()


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_file_from_a_pipe_goes_to_the_array_scanner(tmp_path):
    """A pipe has no size to budget, so even at the default order it is
    counted by the array scanner, with the statistics of the same bytes."""
    proc = python(RUN_CLI, "file", "/dev/stdin", cwd=tmp_path, input=DATA)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b"True\n"
    (tmp_path / "data.bin").write_bytes(DATA)
    regular = python(RUN_CLI, "file", "data.bin", cwd=tmp_path)
    assert proc.stdout.replace(b"/dev/stdin", b"data.bin") == regular.stdout


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_under_sampled_order_counts_no_windows(tmp_path):
    """At order 16 a 4 KiB file is too short to report the rate, so its
    windows are not counted and numpy is not loaded. The stdout is that of
    the same bytes from a pipe, whose windows are counted and dropped."""
    (tmp_path / "data.bin").write_bytes(DATA)
    proc = python(RUN_CLI, "file", "data.bin", "--markov-order", "16", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b"False\n"
    piped = python(RUN_CLI, "file", "/dev/stdin", "--markov-order", "16", cwd=tmp_path, input=DATA)
    assert piped.stderr == b"True\n"
    assert piped.stdout.replace(b"/dev/stdin", b"data.bin") == proc.stdout
    assert b"info_rate_markov" not in proc.stdout


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_order_0_from_a_pipe_loads_no_numpy(tmp_path):
    """Order 0 counts no windows, so not even a pipe needs the array counter."""
    proc = python(RUN_CLI, "file", "/dev/stdin", "--markov-order", "0", cwd=tmp_path, input=DATA)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b"False\n"
    (tmp_path / "data.bin").write_bytes(DATA)
    regular = python(RUN_CLI, "file", "data.bin", "--markov-order", "0", cwd=tmp_path)
    assert proc.stdout.replace(b"/dev/stdin", b"data.bin") == regular.stdout


@pytest.mark.parametrize("argv, message", [
    (["file", "data.bin", "--markov-order", "17"], "markov order must lie in [0, 16]"),
    (["file", "empty.bin"], "file empty.bin is empty"),
    (["file", "missing.bin"], "[Errno 2] No such file or directory: 'missing.bin'"),
    (["broadcast", "--file", "empty.bin", "--receivers", "3"], "file empty.bin is empty"),
], ids=["order-17", "empty", "missing", "broadcast-empty"])
def test_file_input_errors_load_no_numpy(argv, message, tmp_path):
    (tmp_path / "data.bin").write_bytes(DATA)
    (tmp_path / "empty.bin").write_bytes(b"")
    proc = python(RUN_CLI, *argv, cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == f"infotherm: error: {message}\nFalse\n".encode()


def test_unaligned_generate_fails_without_numpy(tmp_path):
    proc = python(RUN_CLI, "generate", "--kind", "alternating", "--length", "7",
                  "--out", "gen.bin", cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == (b"infotherm: error: stream length must be a multiple of 8 "
                           b"to write raw bytes\nFalse\n")
    assert not (tmp_path / "gen.bin").exists()


@pytest.mark.parametrize("module", ["infotherm", "infotherm.cli"])
def test_import_does_not_load_numpy(module, tmp_path):
    proc = python(f"import sys, {module}; sys.exit('numpy' in sys.modules)", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


#: Prints the infotherm modules loaded and whether ``dataclasses`` and
#: ``json`` were loaded by the statement in argv[1].
LOADED = ("import sys; before = set(sys.modules); exec(sys.argv[1]); "
          "new = set(sys.modules) - before; "
          "print(' '.join(sorted(m for m in sys.modules if m.startswith('infotherm'))), "
          "'dataclasses' in new, 'json' in new)")

#: Runs the command in argv[1:] with its stdout dropped.
RUN_QUIET = ("import contextlib, io\nfrom infotherm.cli import run\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n    run(sys.argv[2:])")


@pytest.mark.parametrize("statement, modules", [
    ("import infotherm", "infotherm"),
    ("import infotherm.cli", "infotherm infotherm.cli"),
])
def test_import_loads_no_other_module(statement, modules, tmp_path):
    proc = python(LOADED, statement, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode() == f"{modules} False False\n"


def test_cli_export_csv_is_fibers():
    """The CLI still exposes the CSV writer, though importing it does not
    load ``fiber``."""
    from infotherm import cli, fiber

    assert cli.export_csv is fiber.export_csv
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name


#: The infotherm modules each command loads past the package and the CLI.
COMMAND_MODULES = {
    "gas_entropy": {"core", "twolevel"},
    "ledger_check": {"core", "ledger"},
    "ledger_combined": {"core", "ledger"},
    "landauer_noise": {"core", "landauer"},
    "fiber_efficiency": {"core", "fiber"},
    "file": {"core", "filescan"},
    "file_o16": {"core", "filescan", "halves"},
    "broadcast": {"core", "filescan", "ledger"},
}

#: Commands of ``COMMAND_MODULES`` that no golden case runs.
COMMAND_ARGV = {"file_o16": ["file", "wide.bin", "--markov-order", "16"]}


@pytest.mark.parametrize("name", sorted(COMMAND_MODULES))
def test_command_loads_only_its_modules(name, tmp_path):
    (tmp_path / "corpus.bin").write_bytes(DATA)
    (tmp_path / "wide.bin").write_bytes(WIDE)
    argv = COMMAND_ARGV.get(name) or CASES[name][0]
    proc = python(LOADED, RUN_QUIET, *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.decode().split()[:-2])
    assert loaded == {"infotherm", "infotherm.cli"} | {
        "infotherm." + module for module in COMMAND_MODULES[name]}


def test_star_import_binds_every_public_name(tmp_path):
    code = ("import infotherm; from infotherm import *; "
            "assert all(globals()[name] is getattr(infotherm, name) for name in infotherm.__all__)")
    proc = python(code, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def _home(obj):
    """The module that defines ``obj``; the constants live in ``core``."""
    module = getattr(obj, "__module__", None)
    if not (isinstance(module, str) and module.startswith("infotherm.")):
        module = "infotherm.core"
    return importlib.import_module(module)


@pytest.mark.parametrize("name", infotherm.__all__)
def test_public_name_resolves_to_its_home_module(name):
    obj = getattr(infotherm, name)
    assert getattr(_home(obj), name) is obj
    assert name in dir(infotherm)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        infotherm.no_such_name
    assert not hasattr(infotherm, "Bitstream_")


#: Runs ``cli.run`` on each JSON-encoded argv in sys.argv[1:], stdout
#: dropped, and fails on an input error; then prints whether
#: ``dataclasses`` and ``inspect`` are loaded.
RUN_EACH = ("import contextlib, io, json, sys\nfrom infotherm.cli import run\n"
            "for argv in sys.argv[1:]:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        if run(json.loads(argv)) == 2:\n"
            "            sys.exit(argv)\n"
            "print('dataclasses' in sys.modules, 'inspect' in sys.modules)")


@pytest.mark.parametrize("name", CLOSED_FORM)
def test_closed_form_command_loads_no_dataclasses_or_inspect(name, tmp_path):
    """The records are named tuples: a closed-form command, as text and as
    JSON, imports neither ``dataclasses`` nor the ``inspect`` it brings."""
    argv, _ = CASES[name]
    proc = python(RUN_EACH, json.dumps(argv), json.dumps([*argv, "--json"]), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"False False\n"


#: Commands that import numpy, which itself imports ``inspect``.
ARRAY_COMMANDS = {
    "generate": ["generate", "--kind", "markov", "--q", "0.1", "--length", "4096", "--out", "g.bin"],
    "file": ["file", "data.bin"],
    "broadcast": ["broadcast", "--file", "data.bin", "--receivers", "3"],
    "gas_metropolis": ["gas", "metropolis", "--length", "100", "--kt", "1.0", "--steps", "1000",
                       "--burn-in", "100", "--seed", "42"],
}


@pytest.mark.parametrize("name", sorted(ARRAY_COMMANDS))
def test_array_command_loads_no_dataclasses(name, tmp_path):
    (tmp_path / "data.bin").write_bytes(bytes(range(256)) * 16)
    proc = python(RUN_EACH, json.dumps(ARRAY_COMMANDS[name]), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[0] == b"False"


# --- the process path -----------------------------------------------------

#: Golden cases run through ``main()``: the closed forms, among them
#: ``ledger_check`` and ``fiber_amplifier`` (exit 1) and ``fiber_simulate``
#: with its CSV, and two commands that load numpy.
MAIN_CASES = CLOSED_FORM + ("gas_metropolis", "generate")


@pytest.mark.parametrize("name", MAIN_CASES)
def test_main_prints_the_golden(name, tmp_path):
    argv, setup = CASES[name]
    assert not setup
    status = json.loads((GOLDEN / "status.json").read_text())
    for suffix, extra in ((".txt", []), (".json", ["--json"])):
        proc = python_m(*argv, *extra, cwd=tmp_path)
        assert proc.returncode == status[name + suffix], proc.stderr
        assert proc.stdout == (GOLDEN / (name + suffix)).read_bytes()
        assert proc.stderr == b""
    if "--csv" in argv:
        csv = argv[argv.index("--csv") + 1]
        assert (tmp_path / csv).read_bytes() == (GOLDEN / (name + ".csv")).read_bytes()


@pytest.mark.parametrize("name", ["help", "missing_flag", "unknown_command"])
def test_main_stops_where_run_stops(name, tmp_path):
    """Help (exit 0) and usage errors (exit 2) print what ``run`` prints."""
    proc = python_m(*USAGE_CASES[name], cwd=tmp_path, COLUMNS="80")
    assert (proc.returncode, proc.stdout, proc.stderr) == run_usage_case(name, tmp_path)


@pytest.mark.parametrize("bit_order", filescan.BIT_ORDERS)
def test_main_generate_writes_what_write_generated_writes(bit_order, tmp_path):
    proc = python_m("generate", "--kind", "markov", "--q", "0.1", "--length", "65536", "--seed", "7",
                    "--bit-order", bit_order, "--out", "main.bin", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    spec = bitstream.GeneratorSpec(kind="markov", length=65536, seed=7, q=0.1)
    bitstream.write_generated(spec, tmp_path / "run.bin", bit_order=bit_order)
    assert (tmp_path / "main.bin").read_bytes() == (tmp_path / "run.bin").read_bytes()


#: Prints the freeze count at interpreter exit, after ``main()`` on argv.
MAIN_FREEZES = ("import atexit, gc, sys\n"
                "atexit.register(lambda: print(gc.get_freeze_count() > 0, file=sys.stderr))\n"
                "sys.argv[0] = 'infotherm'\nfrom infotherm.cli import main\nmain()")


@pytest.mark.parametrize("argv, status", [
    (CASES["gas_entropy"][0], 0),
    (CASES["ledger_check"][0], 1),
    (["ledger", "check", "--entropy", "5"], 2),
], ids=["report", "violated", "usage-error"])
def test_main_ends_with_the_heap_frozen(argv, status, tmp_path):
    proc = python(MAIN_FREEZES, *argv, cwd=tmp_path)
    assert proc.returncode == status
    assert proc.stderr.splitlines()[-1] == b"True"


#: Prints OpenBLAS's thread setting at interpreter exit, and on Linux the
#: threads left, after ``main()`` on argv.
MAIN_THREADS = ("import atexit, os, sys\n"
                "atexit.register(lambda: print(os.environ.get('OPENBLAS_NUM_THREADS'), "
                "len(os.listdir('/proc/self/task')) if sys.platform.startswith('linux') else None, "
                "file=sys.stderr))\n"
                "sys.argv[0] = 'infotherm'\nfrom infotherm.cli import main\nmain()")

#: On one CPU OpenBLAS starts no worker, so a thread count there shows nothing.
MULTI_CPU = pytest.mark.skipif(not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
                               reason="needs Linux and two CPUs")


@MULTI_CPU
@pytest.mark.parametrize("name", ["gas_metropolis", "generate"])
def test_main_starts_no_blas_worker(name, tmp_path):
    """Importing numpy starts an OpenBLAS worker on a host with two CPUs
    or more; no command calls BLAS, so ``main()`` runs it single-threaded."""
    proc = python(MAIN_THREADS, *CASES[name][0], cwd=tmp_path, OPENBLAS_NUM_THREADS=None)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == b"1 1"


def test_main_keeps_the_users_blas_threads(tmp_path):
    proc = python(MAIN_THREADS, *CASES["gas_metropolis"][0], cwd=tmp_path, OPENBLAS_NUM_THREADS="2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1].split()[0] == b"2"


def test_run_leaves_the_environment_alone():
    before = dict(os.environ)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(ARRAY_COMMANDS["gas_metropolis"]) == 0
    assert dict(os.environ) == before


def test_import_freezes_nothing(tmp_path):
    proc = python("import gc, sys, infotherm.cli; sys.exit(gc.get_freeze_count())", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [
    CASES["gas_entropy"][0],
    ["ledger", "check", "--entropy", "5"],
    ["gas", "temperature", "--length", "1000", "--excited", "100", "--epsilon", "1e-320"],
], ids=["report", "usage-error", "input-error"])
def test_run_leaves_the_collector_alone(argv):
    before = gc.get_freeze_count(), gc.isenabled()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.run(argv)
    assert (gc.get_freeze_count(), gc.isenabled()) == before


UNBUFFERED = pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])


def _write_error(code: int) -> str:
    """The one line on stderr for a report that stdout cannot take."""
    return f"infotherm: error: {OSError(code, os.strerror(code))}\n"


class _FullStream(io.StringIO):
    def flush(self) -> None:
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def _to_full_device(argv: list[str], unbuffered: str | None, workdir: Path) -> tuple[int, bytes]:
    """Status and stderr of ``main()`` on argv with stdout on /dev/full."""
    with open("/dev/full", "wb") as full:
        proc = python_m(*argv, cwd=workdir, stdout=full, PYTHONUNBUFFERED=unbuffered)
    return proc.returncode, proc.stderr


def _to_closed_pipe(argv: list[str], unbuffered: str | None, workdir: Path) -> tuple[int, bytes]:
    """Status and stderr of ``main()`` on argv with stdout on a pipe whose
    read end is closed."""
    read, write = os.pipe()
    os.close(read)
    try:
        proc = python_m(*argv, cwd=workdir, stdout=write, PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write)
    return proc.returncode, proc.stderr


def test_run_reports_a_report_it_cannot_write():
    err = io.StringIO()
    with contextlib.redirect_stdout(_FullStream()), contextlib.redirect_stderr(err):
        assert cli.run(CASES["gas_entropy"][0]) == 2
    assert err.getvalue() == _write_error(errno.ENOSPC)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@UNBUFFERED
def test_report_to_a_full_device_is_an_error(unbuffered, tmp_path):
    status = _to_full_device(CASES["gas_entropy"][0], unbuffered, tmp_path)
    assert status == (2, _write_error(errno.ENOSPC).encode())


@UNBUFFERED
def test_report_to_a_closed_pipe_is_an_error(unbuffered, tmp_path):
    status = _to_closed_pipe(CASES["gas_entropy"][0], unbuffered, tmp_path)
    assert status == (2, _write_error(errno.EPIPE).encode())


#: Help from the top parser and from a group's, which argparse writes itself.
HELP = pytest.mark.parametrize("argv", [["--help"], ["gas", "--help"]], ids=["help", "gas-help"])


@HELP
def test_run_reports_help_it_cannot_write(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(_FullStream()), contextlib.redirect_stderr(err):
        assert cli.run(argv) == 2
    assert err.getvalue() == _write_error(errno.ENOSPC)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@HELP
@UNBUFFERED
def test_help_to_a_full_device_is_an_error(argv, unbuffered, tmp_path):
    assert _to_full_device(argv, unbuffered, tmp_path) == (2, _write_error(errno.ENOSPC).encode())


@HELP
@UNBUFFERED
def test_help_to_a_closed_pipe_is_an_error(argv, unbuffered, tmp_path):
    assert _to_closed_pipe(argv, unbuffered, tmp_path) == (2, _write_error(errno.EPIPE).encode())
