"""What importing the package and starting a command load.

Only the array code imports numpy: ``bitstream``, behind ``generate`` and
behind ``file`` and ``broadcast`` when they count windows above
``filescan.MAX_INT_ORDER``, past its int budget or from a pipe, and the
Metropolis chain behind ``gas metropolis``. Every closed-form command runs
in a fresh interpreter without it, with the same stdout and exit status as
its golden, and so do ``file`` and ``broadcast`` at the default order, at
order 0 and at an order too high for the file to report the rate. The
package resolves every public name on first use, so importing it or the
CLI loads no other ``infotherm`` module, and a command loads only the
modules it runs.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import infotherm
from infotherm import bitstream, filescan
from test_golden import CASES, GOLDEN

SRC = Path(infotherm.__file__).resolve().parent.parent

#: Golden cases of the README's closed-form commands.
CLOSED_FORM = ("gas_entropy", "gas_temperature", "gas_occupation", "gas_transfer",
               "fiber_efficiency", "fiber_amplifier", "fiber_simulate",
               "landauer_noise", "landauer_bit_rate", "ledger_check", "ledger_combined")

#: Runs ``cli.run`` on argv, then reports on stderr whether numpy was imported.
RUN_CLI = ("import sys; from infotherm.cli import run; status = run(sys.argv[1:]); "
           "print('numpy' in sys.modules, file=sys.stderr); sys.exit(status)")

#: The names ``bitstream`` re-exports from its numpy-free part, ``filescan``.
REEXPORTED = ("RANDOM", "ORDERED", "UNDECIDED", "GENERATOR_KINDS", "BIT_ORDERS", "FileStats",
              "binary_entropy", "file_temperature", "average_nat_energy", "file_heat_and_entropy",
              "MIN_TEST_LENGTH", "MIN_SAMPLES_PER_CONTEXT", "MAX_MARKOV_ORDER", "MAX_INT_ORDER",
              "analyze_file", "window_rate", "_verdict")


def python(code: str, *argv: str, cwd: Path, input: bytes | None = None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env, input=input,
                          capture_output=True, timeout=60)


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
    "ledger_check": {"core", "filescan", "ledger"},
    "landauer_noise": {"core", "landauer"},
    "fiber_efficiency": {"core", "fiber"},
    "file": {"core", "filescan"},
    "broadcast": {"core", "filescan", "ledger"},
}


@pytest.mark.parametrize("name", sorted(COMMAND_MODULES))
def test_command_loads_only_its_modules(name, tmp_path):
    (tmp_path / "corpus.bin").write_bytes(DATA)
    proc = python(LOADED, RUN_QUIET, *CASES[name][0], cwd=tmp_path)
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


@pytest.mark.parametrize("name", REEXPORTED)
def test_bitstream_reexports_the_numpy_free_names(name):
    assert getattr(bitstream, name) is getattr(filescan, name)


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
