"""Byte-for-byte CLI goldens.

Every README CLI example, plus the unit-mode and random-file variants
that reach the other report branches, is run in process in a fresh
working directory, once as text and once with ``--json``. Its stdout, any
CSV it writes and its exit status must equal the files in
``tests/golden/``. Files are named relative to the working directory, so
the stored bytes carry no temporary paths.

The goldens record the output of the code before the report layer was
rewritten; change one only for an intended change of output.

The usage goldens in ``tests/golden/usage/`` hold the stdout, stderr and
exit status of ``--help`` and of the usage errors, captured from the parser
that built the whole command tree on every run. Help text depends on
argparse's wording, which differs between Python versions, so the byte
compare runs on the version they were captured with; on every version the
CLI's help and errors must equal those of ``_parsers(None)[0]``, the whole
tree.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from infotherm import cli

GOLDEN = Path(__file__).parent / "golden"

MARKOV = ["generate", "--kind", "markov", "--q", "0.1", "--length", "1048576", "--seed", "7",
          "--out", "corpus.bin"]
BERNOULLI = ["generate", "--kind", "bernoulli", "--p", "0.5", "--length", "65536", "--seed", "11",
             "--out", "random.bin"]
SI_BIT = ["--units", "si", "--epsilon", "2.87e-21"]
FIBER = ["fiber", "simulate", "--epsilon0", "1", "--alpha", "0.0086643", "--span-km", "80",
         "--file-length", "100"]

#: name -> (argv, commands run first in the same directory)
CASES = {
    "gas_entropy": (["gas", "entropy", "--length", "1000", "--excited", "300"], []),
    "gas_temperature": (["gas", "temperature", "--length", "1000", "--excited", "100"], []),
    "gas_temperature_si": (["gas", "temperature", "--length", "1000", "--excited", "100", *SI_BIT], []),
    "gas_occupation": (["gas", "occupation", "--length", "1000", "--temperature", "1.0"], []),
    "gas_occupation_si": (["gas", "occupation", "--length", "1000", "--temperature", "300", *SI_BIT],
                          []),
    "gas_transfer": (["gas", "transfer", "--length", "1000", "--n-hot", "300", "--n-cold", "100"], []),
    "gas_transfer_si": (["gas", "transfer", "--length", "1000", "--n-hot", "300", "--n-cold", "100",
                         *SI_BIT], []),
    "gas_metropolis": (["gas", "metropolis", "--length", "10000", "--kt", "1.0", "--steps", "1000000",
                        "--burn-in", "100000", "--seed", "42"], []),
    "generate": (MARKOV, []),
    "file": (["file", "corpus.bin", "--markov-order", "3"], [MARKOV]),
    "file_random": (["file", "random.bin"], [BERNOULLI]),
    "file_random_si": (["file", "random.bin", *SI_BIT], [BERNOULLI]),
    "broadcast": (["broadcast", "--file", "corpus.bin", "--receivers", "3"], [MARKOV]),
    "broadcast_random": (["broadcast", "--file", "random.bin", "--receivers", "3"], [BERNOULLI]),
    "broadcast_random_si": (["broadcast", "--file", "random.bin", "--receivers", "3", *SI_BIT],
                            [BERNOULLI]),
    "fiber_simulate": ([*FIBER, "--spans", "10", "--csv", "chain.csv"], []),
    "fiber_simulate_si": ([*FIBER, "--spans", "10", "--units", "si", "--epsilon0", "1e-19",
                           "--csv", "chain.csv"], []),
    "fiber_simulate_zero_spans": ([*FIBER, "--spans", "0"], []),
    "fiber_efficiency": (["fiber", "efficiency", "--t-hot", "2", "--t-cold", "1"], []),
    "fiber_amplifier": (["fiber", "amplifier", "--q-cold", "25", "--t-hot", "1.0", "--t-cold", "0.5",
                         "--work", "22.5"], []),
    "fiber_amplifier_si": (["fiber", "amplifier", "--q-cold", "2.5e-20", "--t-hot", "300",
                            "--t-cold", "150", "--units", "si"], []),
    "landauer_noise": (["landauer", "--power", "1e-9", "--noise-temp", "300"], []),
    "landauer_bit_rate": (["landauer", "--power", "1e-12", "--bit-rate", "1e9"], []),
    "ledger_check": (["ledger", "check", "--entropy", "5", "--info", "10"], []),
    "ledger_combined": (["ledger", "combined", "--heat", "1", "--temperature", "1", "--info", "0.693",
                         "--entropy-actual", "1.5"], []),
    "ledger_combined_si": (["ledger", "combined", "--heat", "4.14e-21", "--temperature", "300",
                            "--info", "0.693", "--entropy-actual", "1.5", "--units", "si"], []),
}


def _run(argv) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.run(list(argv))
    return status, out.getvalue().encode("utf-8")


def run_case(name: str, workdir: Path) -> tuple[dict[str, bytes], dict[str, int]]:
    """Outputs (golden file name -> bytes) and exit statuses of one case,
    run with ``workdir`` as the working directory."""
    argv, setup = CASES[name]
    outputs: dict[str, bytes] = {}
    statuses: dict[str, int] = {}
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        for pre in setup:
            assert _run(pre)[0] == 0
        for suffix, extra in ((".txt", []), (".json", ["--json"])):
            statuses[name + suffix], outputs[name + suffix] = _run(argv + extra)
        if "--csv" in argv:
            outputs[name + ".csv"] = (workdir / argv[argv.index("--csv") + 1]).read_bytes()
    finally:
        os.chdir(previous)
    return outputs, statuses


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    outputs, statuses = run_case(name, tmp_path)
    expected_status = json.loads((GOLDEN / "status.json").read_text())
    for key, status in statuses.items():
        assert status == expected_status[key], key
    for key, data in outputs.items():
        assert data == (GOLDEN / key).read_bytes(), key


USAGE = GOLDEN / "usage"

#: The command groups and the commands, by their words.
GROUPS = (("gas",), ("ledger",), ("fiber",))
LEAVES = (("gas", "entropy"), ("gas", "temperature"), ("gas", "occupation"), ("gas", "transfer"),
          ("gas", "metropolis"), ("file",), ("generate",), ("broadcast",), ("ledger", "check"),
          ("ledger", "combined"), ("fiber", "simulate"), ("fiber", "efficiency"),
          ("fiber", "amplifier"), ("landauer",))

#: name -> argv of a usage golden. ``check.cfg`` is written first.
USAGE_CASES = {
    "no_arguments": [],
    "help": ["-h"],
    **{"_".join(words) + "_help": [*words, "-h"] for words in GROUPS + LEAVES},
    "unknown_command": ["frobnicate"],
    "unknown_leaf": ["gas", "entrpy"],
    "missing_subcommand": ["gas"],
    "missing_flag": ["ledger", "check", "--entropy", "5"],
    "bad_value": ["ledger", "check", "--entropy", "x", "--info", "1"],
    "unrecognized_argument": ["ledger", "check", "--entropy", "5", "--info", "10", "--bogus"],
    "abbreviated_flag": ["ledger", "check", "--conf", "check.cfg", "--info", "3"],
    "ambiguous_flag": ["gas", "temperature", "--length", "10", "--excited", "3", "--e", "2"],
}
CONFIG = "entropy = 5\ninfo = 10\n"


def _capture(call) -> tuple[int, bytes, bytes]:
    """Exit status, stdout and stderr of ``call``; a SystemExit is a status."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = call()
        except SystemExit as exc:
            status = exc.code
    return status, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")


def run_usage_case(name: str, workdir: Path) -> tuple[int, bytes, bytes]:
    """Status, stdout and stderr of ``cli.run`` on a usage case, at 80
    columns, with ``workdir`` as the working directory."""
    (workdir / "check.cfg").write_text(CONFIG, encoding="utf-8")
    previous, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(workdir)
    os.environ["COLUMNS"] = "80"
    try:
        return _capture(lambda: cli.run(list(USAGE_CASES[name])))
    finally:
        os.chdir(previous)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the usage goldens hold Python 3.11's argparse wording")
@pytest.mark.parametrize("name", sorted(USAGE_CASES))
def test_usage_matches_golden(name, tmp_path):
    status, out, err = run_usage_case(name, tmp_path)
    assert status == json.loads((USAGE / "status.json").read_text())[name]
    assert out == (USAGE / (name + ".out")).read_bytes()
    assert err == (USAGE / (name + ".err")).read_bytes()


@pytest.mark.parametrize("name", sorted(name for name, argv in USAGE_CASES.items()
                                         if "--conf" not in argv))
def test_usage_matches_the_whole_tree(name, monkeypatch):
    """Wherever the whole tree's parser stops (help or a usage error),
    ``run`` stops with the same status and the same bytes. The config
    case is left out: ``run``, not the parser, reads the file."""
    monkeypatch.setenv("COLUMNS", "80")
    argv = USAGE_CASES[name]
    whole = _capture(lambda: cli._parsers(None)[0].parse_args(argv))
    if isinstance(whole[0], int):
        assert _capture(lambda: cli.run(list(argv))) == whole


def test_usage_goldens_are_the_cases():
    names = {path.stem for path in USAGE.glob("*.out")}
    assert names == {path.stem for path in USAGE.glob("*.err")} == set(USAGE_CASES)


def _reject_constant(name):
    raise ValueError(f"JSON report holds the non-standard constant {name}")


def test_json_goldens_are_reports():
    """Besides the exit-status index, the JSON goldens are exactly the
    cases' ``--json`` reports."""
    assert {path.name for path in GOLDEN.glob("*.json")} == {"status.json"} | {
        name + ".json" for name in CASES}


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_golden_round_trips(name):
    """Each JSON report is standard JSON with the documented layout, and
    writing what was read gives back the same bytes."""
    text = (GOLDEN / (name + ".json")).read_text(encoding="utf-8")
    doc = json.loads(text, parse_constant=_reject_constant)
    assert json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n" == text
    assert sorted(doc) == ["command", "inputs", "results", "schema_version", "verdicts"]
    for key, entry in doc["results"].items():
        assert sorted(entry) == ["unit", "value"], key
        assert isinstance(entry["unit"], str), key
