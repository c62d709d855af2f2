"""The three workloads: the commands of one pass, and the checks on their output.

Every command is an argv for ``python -m infotherm.cli``. Inputs come from
the workload seed only: the generator and Metropolis seeds are derived from
it, so the same seed gives the same argv and the same files.

A check returns a list of problems; an empty list means the output is
correct. Checks never raise on bad output: the runner turns any exception
into a problem, so a broken command counts toward ``fail_ratio`` and the
run goes on.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from infotherm import fiber, landauer, ledger, twolevel

CORPUS_BITS = 1 << 23
MARKOV_Q = 0.1
BERNOULLI_P = 0.5
MARKOV_ORDERS = (3, 16)
RECEIVERS = 3
#: |order-3 rate - H(q)| allowed for the markov corpus, nats per bit.
MARKOV_RATE_TOL = 0.01

MC_LENGTH = 10_000
MC_STEPS = 2_000_000
MC_BURN_IN = 200_000
#: Bath energies of the two chains; acceptance is about 0.54 hot and 0.04 cold.
MC_KT = {"hot": 1.0, "cold": 0.25}
#: |mean_n - analytic_mean_n| allowed, in standard errors.
MC_SIGMAS = 5.0

FIBER_ARGS = ["--epsilon0", "1", "--alpha", "0.0086643", "--span-km", "80", "--file-length", "100"]
FIBER_SPANS = 100_000
#: Relative tolerance on total_work = spans * work_per_span.
FIBER_WORK_RTOL = 1e-9

WORKLOADS = ("corpus", "metropolis", "readouts")

#: Fewest passes per workload; they fix the tail percentile (see README.md,
#: "cmd_tail_s").
MIN_PASSES = {"corpus": 4, "metropolis": 10, "readouts": 2}


@dataclass
class Outcome:
    """What one command left behind."""

    returncode: int
    stdout: str
    stderr: str


@dataclass
class Command:
    """One CLI invocation of a pass.

    ``kind`` names the latency metric it feeds. ``work`` is what the
    workload's throughput metric counts: bits generated or analysed on
    corpus, Monte Carlo steps on metropolis, one command on readouts.
    """

    kind: str
    argv: list[str]
    check: Callable[[Outcome], list[str]]
    expect_exit: int = 0
    work: int = 1
    label: str = ""

    def __post_init__(self):
        if not self.label:
            self.label = " ".join(self.argv[:2])


def derive_seed(seed: int, label: str) -> int:
    """A 63-bit seed for one generator, fixed by the workload seed and a label."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def verify(cmd: Command, outcome: Outcome) -> list[str]:
    """Exit code plus the command's own check; never raises."""
    problems = []
    if outcome.returncode != cmd.expect_exit:
        tail = outcome.stderr.strip().splitlines()[-1:] or [""]
        problems.append(f"exit {outcome.returncode}, expected {cmd.expect_exit}: {tail[0]}")
        return problems
    try:
        problems.extend(cmd.check(outcome))
    except Exception as exc:  # a malformed output must count as a failure, not end the run
        problems.append(f"check raised {type(exc).__name__}: {exc}")
    return problems


# --- report parsing -------------------------------------------------------

def parse_text(stdout: str) -> tuple[dict, dict]:
    """Results and verdicts of a text report (``result  k = v unit`` lines)."""
    results, verdicts = {}, {}
    for line in stdout.splitlines():
        head, _, rest = line.partition(" ")
        if head == "result":
            key, _, value = rest.strip().partition(" = ")
            results[key] = _number(value.split(" ", 1)[0])
        elif head == "verdict":
            key, _, value = rest.strip().partition(" = ")
            verdicts[key] = value
    return results, verdicts


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def parse_json(stdout: str) -> tuple[dict, dict]:
    """Results and verdicts of a ``--json`` report; NaN and Infinity are rejected."""
    doc = json.loads(stdout, parse_constant=_reject_constant)
    return {k: v["value"] for k, v in doc["results"].items()}, doc["verdicts"]


def _number(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def _expect(results: dict, verdicts: dict, want: dict, want_verdicts: dict) -> list[str]:
    problems = []
    for key, value in want.items():
        if key not in results:
            problems.append(f"missing result {key}")
        elif results[key] != value:
            problems.append(f"{key} = {results[key]!r}, library gives {value!r}")
    for key, value in want_verdicts.items():
        if verdicts.get(key) != value:
            problems.append(f"verdict {key} = {verdicts.get(key)!r}, expected {value!r}")
    return problems


# --- corpus ---------------------------------------------------------------

def _file_bits(path: str) -> tuple[int, int]:
    """(length in bits, ones) of a raw file, counted here with numpy."""
    data = np.fromfile(path, dtype=np.uint8)
    return 8 * data.size, int(np.unpackbits(data).sum(dtype=np.int64))


def binary_entropy(p: float) -> float:
    return -p * math.log(p) - (1 - p) * math.log(1 - p)


def check_generate(path: str) -> Callable[[Outcome], list[str]]:
    def check(out: Outcome) -> list[str]:
        results, _ = parse_text(out.stdout)
        length, ones = _file_bits(path)
        problems = []
        if results.get("bytes_written") != os.path.getsize(path):
            problems.append(f"bytes_written {results.get('bytes_written')} != file size {os.path.getsize(path)}")
        if results.get("ones") != ones:
            problems.append(f"ones {results.get('ones')} != popcount {ones}")
        if results.get("length") != length:
            problems.append(f"length {results.get('length')} != {length}")
        return problems
    return check


def check_file(path: str, kind: str, order: int) -> Callable[[Outcome], list[str]]:
    def check(out: Outcome) -> list[str]:
        results, verdicts = parse_text(out.stdout)
        length, ones = _file_bits(path)
        problems = []
        if results.get("length") != length or results.get("ones") != ones:
            problems.append(f"length/ones {results.get('length')}/{results.get('ones')} != file {length}/{ones}")
        verdict = verdicts.get("equilibrium")
        if kind == "markov":
            if verdict != "ordered":
                problems.append(f"markov corpus verdict {verdict!r}, expected 'ordered'")
            if order == 3:
                rate = results.get("info_rate_markov")
                if rate is None or abs(rate - binary_entropy(MARKOV_Q)) > MARKOV_RATE_TOL:
                    problems.append(f"order-3 rate {rate!r} not within {MARKOV_RATE_TOL} of H({MARKOV_Q})")
        elif verdict == "ordered":
            problems.append("bernoulli corpus judged 'ordered'")
        return problems
    return check


def check_broadcast(out: Outcome) -> list[str]:
    results, _ = parse_text(out.stdout)
    margin = results.get("clausius_margin")
    if margin is None or not margin >= 0:
        return [f"clausius_margin {margin!r} is not >= 0"]
    return []


def corpus(seed: int, workdir: str) -> list[Command]:
    """Write a markov and a bernoulli corpus, then read each back three ways."""
    cmds = []
    for kind, param, value in (("markov", "--q", MARKOV_Q), ("bernoulli", "--p", BERNOULLI_P)):
        path = os.path.join(workdir, f"{kind}.bin")
        cmds.append(Command(
            "generate",
            ["generate", "--kind", kind, param, str(value), "--length", str(CORPUS_BITS),
             "--seed", str(derive_seed(seed, kind)), "--out", path],
            check_generate(path), work=CORPUS_BITS, label=f"generate {kind}"))
    for kind in ("markov", "bernoulli"):
        path = os.path.join(workdir, f"{kind}.bin")
        for order in MARKOV_ORDERS:
            cmds.append(Command("file", ["file", path, "--markov-order", str(order)],
                                check_file(path, kind, order), work=CORPUS_BITS,
                                label=f"file {kind} o{order}"))
        cmds.append(Command("broadcast", ["broadcast", "--file", path, "--receivers", str(RECEIVERS)],
                            check_broadcast, work=CORPUS_BITS, label=f"broadcast {kind}"))
    return cmds


# --- metropolis -----------------------------------------------------------

def check_metropolis(out: Outcome) -> list[str]:
    results, _ = parse_text(out.stdout)
    mean, analytic, se = results["mean_n"], results["analytic_mean_n"], results["std_error"]
    if not (math.isfinite(se) and se > 0):
        return [f"std_error {se!r} is not a positive number"]
    if abs(mean - analytic) > MC_SIGMAS * se:
        return [f"mean_n {mean} is {abs(mean - analytic) / se:.1f} standard errors from {analytic}"]
    return []


def metropolis(seed: int, workdir: str) -> list[Command]:
    return [
        Command("metropolis",
                ["gas", "metropolis", "--length", str(MC_LENGTH), "--steps", str(MC_STEPS),
                 "--burn-in", str(MC_BURN_IN), "--kt", str(kt), "--seed", str(derive_seed(seed, name))],
                check_metropolis, work=MC_STEPS, label=f"metropolis {name}")
        for name, kt in MC_KT.items()
    ]


# --- readouts -------------------------------------------------------------

def closed_forms() -> list[tuple[list[str], dict, dict]]:
    """(argv, results, verdicts) of each closed-form README command, with
    the expected values computed by the library in this process."""
    gas = twolevel.TwoLevelGas(length=1000, excited=300)
    cold_gas = twolevel.TwoLevelGas(length=1000, excited=100)
    occupation = twolevel.occupation_from_temperature(1000, 1.0, 1.0)
    transfer = twolevel.transfer_balance(1000, 300, 100, 1.0)
    q_hot, work = fiber.amplifier_work(25.0, 1.0, 0.5)
    audit = fiber.amplifier_entropy_balance(25.0, 1.0, 0.5, 22.5)
    f_max = landauer.max_bit_rate(1e-9, 300.0)
    check = ledger.clausius_check(5.0, 10.0)
    combined = ledger.combined_balance(1.0, 1.0, 0.693, 1.5)
    return [
        (["gas", "entropy", "--length", "1000", "--excited", "300"],
         {"log_multiplicity": twolevel.log_multiplicity(1000, 300),
          "entropy_exact": float(twolevel.entropy_exact(gas)),
          "entropy_stirling": float(twolevel.entropy_stirling(gas))}, {}),
        (["gas", "temperature", "--length", "1000", "--excited", "100"],
         {"temperature_closed": float(twolevel.temperature_closed(cold_gas)),
          "temperature_numeric": float(twolevel.temperature_numeric(cold_gas))}, {}),
        (["gas", "occupation", "--length", "1000", "--temperature", "1.0"],
         {"expected_n": occupation, "expected_fraction": occupation / 1000}, {}),
        (["gas", "transfer", "--length", "1000", "--n-hot", "300", "--n-cold", "100"],
         {"gas_heat": float(transfer.gas_heat), "net": float(transfer.net),
          "entropy_removed_hot": float(transfer.entropy_removed_hot),
          "entropy_added_cold": float(transfer.entropy_added_cold)},
         {"clausius": transfer.verdict}),
        (["fiber", "efficiency", "--t-hot", "2", "--t-cold", "1"],
         {"efficiency": fiber.carnot_efficiency(2.0, 1.0)}, {}),
        (["fiber", "amplifier", "--q-cold", "25", "--t-hot", "1.0", "--t-cold", "0.5", "--work", "22.5"],
         {"q_hot": float(q_hot), "work_required": float(work),
          "efficiency": fiber.carnot_efficiency(1.0, 0.5), "entropy_balance": audit.entropy_balance_k},
         {"second_law": audit.verdict}),
        (["landauer", "--power", "1e-9", "--noise-temp", "300"],
         {"f_max": f_max,
          "device_temperature_at_f_max": float(landauer.device_temperature(1e-9, f_max)),
          "energy_per_bit_at_f_max": landauer.energy_per_bit(1e-9, f_max)}, {}),
        (["landauer", "--power", "1e-12", "--bit-rate", "1e9"],
         {"device_temperature": float(landauer.device_temperature(1e-12, 1e9)),
          "energy_per_bit": landauer.energy_per_bit(1e-12, 1e9)}, {}),
        (["ledger", "check", "--entropy", "5", "--info", "10"],
         {"margin": check.margin_k}, {"clausius": check.verdict}),
        (["ledger", "combined", "--heat", "1", "--temperature", "1", "--info", "0.693",
          "--entropy-actual", "1.5"],
         {"entropy_lower_bound": float(combined.entropy_lower_bound),
          "entropy_actual": float(combined.entropy_actual)},
         {"clausius": combined.verdict}),
    ]


def check_closed_form(parse, want: dict, want_verdicts: dict) -> Callable[[Outcome], list[str]]:
    def check(out: Outcome) -> list[str]:
        results, verdicts = parse(out.stdout)
        return _expect(results, verdicts, want, want_verdicts)
    return check


def check_fiber_simulate(csv_path: str, spans: int) -> Callable[[Outcome], list[str]]:
    def check(out: Outcome) -> list[str]:
        results, verdicts = parse_text(out.stdout)
        problems = []
        with open(csv_path, "rb") as fh:
            lines = fh.read().count(b"\n")
        if lines != spans + 1:
            problems.append(f"CSV has {lines} lines, expected {spans + 1}")
        total, per_span = results["total_work"], results["work_per_span"]
        if not math.isclose(total, spans * per_span, rel_tol=FIBER_WORK_RTOL, abs_tol=0.0):
            problems.append(f"total_work {total} != {spans} * {per_span}")
        if verdicts.get("second_law") != "satisfied":
            problems.append(f"second_law verdict {verdicts.get('second_law')!r}")
        return problems
    return check


def readouts(seed: int, workdir: str) -> list[Command]:
    """Each closed-form README command as text and as JSON, plus one long fiber chain."""
    cmds = []
    for argv, want, want_verdicts in closed_forms():
        # The CLI exits 1 exactly when a verdict is violated.
        code = int("violated" in want_verdicts.values())
        cmds.append(Command("closed_form", argv, check_closed_form(parse_text, want, want_verdicts),
                            expect_exit=code))
        cmds.append(Command("closed_form", argv + ["--json"],
                            check_closed_form(parse_json, want, want_verdicts),
                            expect_exit=code, label=" ".join(argv[:2]) + " --json"))
    csv_path = os.path.join(workdir, "chain.csv")
    cmds.append(Command("fiber_simulate",
                        ["fiber", "simulate", *FIBER_ARGS, "--spans", str(FIBER_SPANS), "--csv", csv_path],
                        check_fiber_simulate(csv_path, FIBER_SPANS)))
    return cmds


BUILDERS = {"corpus": corpus, "metropolis": metropolis, "readouts": readouts}


def commands(workload: str, seed: int, workdir: str) -> list[Command]:
    return BUILDERS[workload](seed, workdir)

