"""The boundary contract, checked over every command.

Each golden argv (except ``gas metropolis``, whose chain would run for
minutes at the larger edge values) is run with each of its numeric tokens
replaced, one at a time, by each of the edge values below; the stream
length of ``generate`` keeps its value, and so does a token that a later
occurrence of the same flag overrides, since the parse discards it. Each
variant runs in process, as text and as ``--json``, in a directory that
holds the two golden corpora.
For every variant:

* no exception escapes ``cli.run``;
* the exit status is 0, 1 or 2, the same as text and as JSON, and it is 1
  exactly when the report holds a ``violated`` verdict; an input error
  (2) prints no report;
* the JSON report parses with no NaN or infinity constants;
* the text and JSON reports carry the same command, inputs, results and
  verdicts;
* the same flags given through ``--config`` print the same status and
  stdout as on the command line, a negative value such as ``-1e308``
  included.

``fiber simulate --csv`` writes one row per span, so a ``--spans`` above
10^6 (9007199254740993 would run for hours) is left out with ``--csv``;
without ``--csv`` every edge value runs.
"""

import contextlib
import io
import json
import math

import pytest

from infotherm import cli
from test_golden import BERNOULLI, CASES, MARKOV

EDGES = ("0", "-0", "-1", "1", "2", "0.5", "1e-9", "1e9", "1e-300", "1e-320", "5e-324", "1e308",
         "1.7976931348623157e308", "-1e308", "9007199254740993", "18446744073709551616")


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _label(argv: list[str], i: int) -> str:
    """The name of the token ``argv[i]`` in a variant's id: the flag it
    follows, and for the energy right after ``--units si``, the unit
    joules it is read in."""
    flag = argv[i - 1][2:]
    return flag + "-joules" if argv[i - 3:i - 1] == ["--units", "si"] else flag


def _variants():
    for name, (argv, _) in sorted(CASES.items()):
        if name == "gas_metropolis":
            continue
        for i, token in enumerate(argv):
            if not _is_number(token) or (argv[0] == "generate" and argv[i - 1] == "--length"):
                continue
            if argv[i - 1] in argv[i + 1:]:  # a later occurrence of the flag overrides it
                continue
            for edge in EDGES:
                variant = argv[:i] + [edge] + argv[i + 1:]
                if "--csv" in variant and float(variant[variant.index("--spans") + 1]) > 1e6:
                    continue
                yield pytest.param(variant, id=f"{name}-{_label(argv, i)}={edge}")


VARIANTS = list(_variants())


@pytest.fixture(scope="module")
def dirs(tmp_path_factory):
    """A directory holding the two golden corpora, and an empty one where
    ``generate`` writes without replacing them."""
    corpora = tmp_path_factory.mktemp("corpora")
    for setup in (MARKOV, BERNOULLI):
        assert _run(setup[:-1] + [str(corpora / setup[-1])])[0] == 0
    return corpora, tmp_path_factory.mktemp("generated")


def _run(argv: list[str]) -> tuple[int, str, str]:
    """Status, stdout and stderr of ``cli.run``; any exception escapes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.run(list(argv))
    return status, out.getvalue(), err.getvalue()


def _reject_constant(name):
    raise ValueError(f"JSON report holds the non-standard constant {name}")


def _fmt(value) -> str:
    """A JSON value as the text report writes it."""
    return repr(value) if isinstance(value, float) else str(value)


def _parse_text(text: str) -> dict:
    """The text report as the JSON report's layout, every value a string."""
    lines = text.splitlines()
    doc = {"command": lines[0].removeprefix("command: "), "inputs": {}, "results": {},
           "verdicts": {}}
    for line in lines[1:]:
        kind, _, rest = line.partition(" ")
        key, _, value = rest.strip().partition(" = ")
        if kind == "result":
            value, unit = value.rsplit(" ", 1)
            doc["results"][key] = {"value": value, "unit": unit}
        else:
            doc[kind + "s"][key] = value
    return doc


def _split(argv: list[str]) -> tuple[list[str], list[tuple[str, str]]]:
    """The command words and positionals of ``argv``, and its flags as
    (name, value) pairs; every golden flag takes a value."""
    head, flags = [], []
    tokens = iter(argv)
    for token in tokens:
        if token.startswith("--"):
            flags.append((token[2:], next(tokens)))
        else:
            head.append(token)
    return head, flags


@pytest.mark.parametrize("argv", VARIANTS)
def test_edge_value_keeps_the_contract(argv, dirs, monkeypatch):
    corpora, generated = dirs
    monkeypatch.chdir(generated if argv[0] == "generate" else corpora)

    status, text, err = _run(argv)
    json_status, out, json_err = _run(argv + ["--json"])
    assert status in (0, 1, 2)
    assert json_status == status
    if status == 2:
        assert text == out == ""
        assert err and json_err
    else:
        doc = json.loads(out, parse_constant=_reject_constant)
        assert status == (1 if "violated" in doc["verdicts"].values() else 0)
        shown = _parse_text(text)
        assert shown["command"] == doc["command"]
        assert shown["inputs"] == {key: _fmt(value) for key, value in doc["inputs"].items()}
        assert shown["verdicts"] == doc["verdicts"]
        assert shown["results"].keys() == doc["results"].keys()
        for key, entry in doc["results"].items():
            value = shown["results"][key]["value"]
            assert shown["results"][key]["unit"] == entry["unit"], key
            if entry["value"] is None:  # JSON writes an undefined number as null
                assert not math.isfinite(float(value)), key
            else:
                assert value == _fmt(entry["value"]), key

    head, flags = _split(argv)
    with open("sweep.cfg", "w", encoding="utf-8") as fh:
        fh.writelines(f"{key} = {value}\n" for key, value in flags)
    assert _run(head + ["--config", "sweep.cfg"])[:2] == (status, text)
