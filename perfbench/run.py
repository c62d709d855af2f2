#!/usr/bin/env python3
"""Benchmark of the infotherm CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the workload's commands as a closed loop: one
``python -m infotherm.cli`` subprocess at a time, whole passes over the
workload's command list until ``--seconds`` have passed (and at least the
workload's minimum number of passes), each output checked. It prints
every end-to-end metric, then one JSON line with the metrics that
BENCHMARK.json declares.

``--trace 1`` runs the layer probes, one subprocess pass, then the same
pass in this process with and without spans around every public function
of the package, and prints the per-layer metrics.

``--workload all`` runs each workload in turn. The checkout's ``src`` goes
first on PYTHONPATH, so each tree measures itself. See README.md here for
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ".perfbench_out"
sys.path.insert(0, str(SRC))

import layers  # noqa: E402  (needs the checkout's src on sys.path)
import machine  # noqa: E402
import workloads  # noqa: E402
from stats import TAIL_BEYOND, beyond, median, nearest_rank, tail_level  # noqa: E402
from tracing import LAYERS, Tracer, instrument, restore  # noqa: E402
from infotherm import cli  # noqa: E402

#: Fresh interpreters timed for setup_s before the first pass (after one
#: untimed import that fills the bytecode cache), and after every pass.
#: A shared host's speed can shift for seconds at a time, so the samples are
#: spread over the whole run rather than taken in one burst.
SETUP_REPS = 5
SETUP_PER_PASS = 1
#: Interpreters per start-up probe in the traced run.
STARTUP_REPS = 5
#: No pass starts if it would end later than this after measuring began,
#: so a run ends well within 180 s even on a much slower tree.
MEASURE_LIMIT_S = 120.0

#: Every end-to-end metric the run prints, with its unit. BENCHMARK.json
#: bounds the ones that every workload has.
E2E_UNITS = {
    "setup_s": "s",
    "setup_raw_s": "s",
    "pass_s": "s",
    "pass_rel": "1",
    "generate_s": "s",
    "file_s": "s",
    "broadcast_s": "s",
    "metropolis_s": "s",
    "fiber_simulate_s": "s",
    "closed_form_s": "s",
    "cmd_tail_s": "s",
    "cmd_tail_rel": "1",
    "bits_per_s": "1/s",
    "mc_steps_per_s": "1/s",
    "commands_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "fail_ratio": "1",
    "reference_s": "s",
}
THROUGHPUT = {"corpus": "bits_per_s", "metropolis": "mc_steps_per_s", "readouts": "commands_per_s"}


@dataclass
class Sample:
    pass_index: int
    kind: str
    latency: float
    rss_mib: float
    work: int


class Runner:
    """Runs and checks commands, and counts attempts and failures.

    A command fails when its exit code is not the expected one, when its
    output check finds a problem, or when its stdout differs from the
    first run of the same argv. Use as a context manager: it owns the
    spawner process.
    """

    def __init__(self, env: dict, workdir: str):
        self.env = env
        self.workdir = workdir
        self.first_stdout: dict[tuple, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[tuple[str, list[str]]] = []
        self.samples: list[Sample] = []
        self.reference = machine.Reference()
        self._spawner = None

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        if self._spawner is not None:
            self._spawner.stdin.close()
            self._spawner.wait()
            self._spawner = None

    def spawn(self, argv: list[str]):
        """Run ``argv`` to completion: (Outcome, seconds from spawn to exit, peak RSS MiB).

        The spawner process reaps the child with ``wait4``, which gives this
        child's own peak RSS; ``RUSAGE_CHILDREN`` would be a running maximum
        over every child so far.
        """
        if self._spawner is None:
            self._spawner = subprocess.Popen([sys.executable, str(Path(__file__).with_name("spawner.py"))],
                                             stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                             env=self.env, text=True)
        out_path = os.path.join(self.workdir, "stdout")
        err_path = os.path.join(self.workdir, "stderr")
        self._spawner.stdin.write(json.dumps({"argv": argv, "stdout": out_path, "stderr": err_path}) + "\n")
        self._spawner.stdin.flush()
        reply = json.loads(self._spawner.stdout.readline())
        outcome = workloads.Outcome(reply["returncode"], _read_text(out_path), _read_text(err_path))
        return outcome, reply["latency"], reply["maxrss_kib"] / 1024.0

    def record(self, cmd, outcome) -> list[str]:
        problems = workloads.verify(cmd, outcome)
        digest = hashlib.sha256(outcome.stdout.encode()).hexdigest()
        if self.first_stdout.setdefault(tuple(cmd.argv), digest) != digest:
            problems.append("stdout differs from the first run of the same argv")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append((cmd.label, problems))
        return problems

    def run_pass(self, cmds, pass_index: int) -> float:
        """Run every command once, each after a reference sample; returns the summed latency."""
        total = 0.0
        for cmd in cmds:
            self.reference.sample()
            outcome, latency, rss = self.spawn([sys.executable, "-m", "infotherm.cli", *cmd.argv])
            self.record(cmd, outcome)
            self.samples.append(Sample(pass_index, cmd.kind, latency, rss, cmd.work))
            total += latency
        return total

    def time_setup(self, reps: int) -> list[float]:
        """Seconds for each of ``reps`` fresh interpreters to import infotherm.cli and exit."""
        times = []
        for _ in range(reps):
            outcome, latency, _ = self.spawn([sys.executable, "-c", "import infotherm.cli"])
            if outcome.returncode != 0:
                raise RuntimeError(f"import infotherm.cli failed: {outcome.stderr.strip()}")
            times.append(latency)
        return times

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def _read_text(path: str) -> str:
    with open(path, "rb") as fh:
        return fh.read().decode("utf-8", errors="replace")


def closed_loop(runner: Runner, cmds, seconds: float, min_passes: int, setup_times: list[float]) -> int:
    """Whole passes until ``seconds`` have passed and ``min_passes`` are done,
    with set-up samples taken after each pass."""
    t0 = time.perf_counter()
    passes, last = 0, 0.0
    while passes < min_passes or time.perf_counter() - t0 < seconds:
        if passes and time.perf_counter() - t0 + last > MEASURE_LIMIT_S:
            break
        start = time.perf_counter()
        runner.run_pass(cmds, passes)
        setup_times.extend(runner.time_setup(SETUP_PER_PASS))
        last = time.perf_counter() - start
        passes += 1
    return passes


def end_to_end(workload: str, runner: Runner, n_cmds: int, min_passes: int, setup_s: float) -> tuple[dict, str]:
    """The end-to-end metrics of a closed-loop run, and a note on the tail."""
    samples = runner.samples
    latencies = [s.latency for s in samples]
    passes = max(s.pass_index for s in samples) + 1
    reference_s = runner.reference.seconds()
    # The contract wants set-up time in seconds, so it is scaled to the
    # reference speed rather than given as a ratio.
    m = {"setup_s": setup_s * machine.Reference.NOMINAL_S / reference_s,
         "setup_raw_s": setup_s,
         "pass_s": median([sum(s.latency for s in samples if s.pass_index == p) for p in range(passes)])}
    m["pass_rel"] = m["pass_s"] / reference_s
    for kind in sorted({s.kind for s in samples}):
        m[f"{kind}_s"] = median([s.latency for s in samples if s.kind == kind])
    # The percentile is fixed by the workload's minimum sample count, so a
    # tree that fits more passes into the run is measured at the same level.
    # A run cut short by MEASURE_LIMIT_S may hold too few samples; it reports its maximum.
    n = min(min_passes * n_cmds, len(latencies))
    level = tail_level(n) if n > TAIL_BEYOND else 100.0
    m["cmd_tail_s"] = nearest_rank(latencies, level)
    m["cmd_tail_rel"] = m["cmd_tail_s"] / reference_s
    note = (f"p{level:.4g}, n={len(latencies)}, "
            f"{beyond(latencies, m['cmd_tail_s'])} samples beyond")
    m[THROUGHPUT[workload]] = sum(s.work for s in samples) / sum(latencies)
    m["peak_rss_mib"] = max(s.rss_mib for s in samples)
    m["fail_ratio"] = runner.fail_ratio
    m["reference_s"] = reference_s
    return m, note


def traced(workload: str, cmds, runner: Runner, seconds: float, seed: int, env: dict, setup_s: float):
    """Layer probes, one subprocess pass, then in-process passes with and
    without spans. Returns (per-layer metrics, tracer, layer totals per pass)."""
    t0 = time.perf_counter()
    m = layers.probe_all(seed, runner.workdir, env, STARTUP_REPS)
    m["machine.copy_gbps"], copy_bytes, llc = machine.copy_gbps()
    print(f"machine copy: arrays of {copy_bytes / machine.MIB:.0f} MiB, last-level cache "
          f"{llc / machine.MIB:.0f} MiB, bytes read plus written")
    subprocess_s = runner.run_pass(cmds, 0)

    tracer = Tracer()
    plain_s, traced_s, runs = [], [], []
    while not runs or time.perf_counter() - t0 < seconds:
        plain_s.append(in_process_pass(workload, cmds, runner, None))
        tracer.run_id = f"{workload}-seed{seed}-pass{len(runs)}"
        replaced = instrument(tracer)
        try:
            traced_s.append(in_process_pass(workload, cmds, runner, tracer))
        finally:
            restore(replaced)
        runs.append(tracer.run_id)

    totals = {layer: {"self_s": 0.0, "calls": 0, "failures": 0} for layer in LAYERS}
    for run_id in runs:
        for layer, t in tracer.layer_totals(run_id).items():
            for key in t:
                totals[layer][key] += t[key] / len(runs)
    pass_wall = sum(traced_s) / len(traced_s)
    for layer, t in totals.items():
        m[f"{layer}.self_share"] = t["self_s"] / pass_wall
        m[f"{layer}.calls"] = round(t["calls"])
        m[f"{layer}.failures"] = round(t["failures"])
    for counter in ("rng.words_drawn", "bitstream.bits_processed", "fiber.records_built"):
        m[counter] = round(tracer.counts[counter] / len(runs))
    m["trace.overhead_share"] = median(traced_s) / median(plain_s) - 1.0
    attributed = setup_s * len(cmds) + sum(t["self_s"] for t in totals.values())
    m["unattributed_share"] = 1.0 - attributed / subprocess_s
    return m, tracer, totals


def in_process_pass(workload: str, cmds, runner: Runner, tracer) -> float:
    """Run each command through ``cli.run`` in this process, stdout captured.

    Returns the pass's wall time. Outputs are checked after the clock
    stops, against the same checks and the subprocess pass's stdout.
    """
    outcomes = []
    t0 = time.perf_counter()
    root = tracer.open(f"workload:{workload}") if tracer else None
    for cmd in cmds:
        span = tracer.open(f"command:{cmd.label}") if tracer else None
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run(list(cmd.argv))
            except Exception:  # a crash inside the package is a failed command, not a failed run
                code = -1
                err.write(traceback.format_exc())
        if tracer:
            tracer.close(span)
        outcomes.append((cmd, workloads.Outcome(code, out.getvalue(), err.getvalue())))
    if tracer:
        tracer.close(root)
    wall = time.perf_counter() - t0
    for cmd, outcome in outcomes:
        runner.record(cmd, outcome)
    return wall


def emit_line(name: str, value, unit: str, note: str = "") -> None:
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<56} {text:>14} {unit}{'  (' + note + ')' if note else ''}")


def run_workload(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    workdir = os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    prov = machine.provenance(ROOT, seed)
    print(f"workload {workload}  provenance {json.dumps(prov, sort_keys=True)}")
    cmds = workloads.commands(workload, seed, workdir)

    with Runner(env, workdir) as runner:
        runner.time_setup(1)
        setup_times = runner.time_setup(SETUP_REPS)
        if trace:
            metrics, tracer, totals = traced(workload, cmds, runner, seconds, seed, env, median(setup_times))
            declared = spec["per_layer"]
            print(f"layer self time per traced pass (s), over {len(tracer.spans)} spans:")
            for layer, t in totals.items():
                emit_line(f"{layer}.self_s", t["self_s"], "s")
            with open(os.path.join(workdir, "spans.json"), "w") as fh:
                json.dump({"provenance": prov, "spans": tracer.spans}, fh)
            units = {d["name"]: d["unit"] for d in declared}
            print("per-layer metrics:")
            for name, value in metrics.items():
                emit_line(name, value, units.get(name, ""))
        else:
            min_passes = workloads.MIN_PASSES[workload]
            passes = closed_loop(runner, cmds, seconds, min_passes, setup_times)
            metrics, note = end_to_end(workload, runner, len(cmds), min_passes, median(setup_times))
            declared = spec["end_to_end"]
            print(f"end-to-end metrics over {passes} passes of {len(cmds)} commands:")
            for name, value in metrics.items():
                emit_line(name, value, E2E_UNITS[name], note if name == "cmd_tail_s" else "")

    for label, problems in runner.problems[:20]:
        print(f"FAILED {label}: {'; '.join(problems)}")
    for name in ("markov.bin", "bernoulli.bin", "chain.csv", "stdout", "stderr"):
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(workdir, name))

    missing = [d["name"] for d in declared if d["name"] not in metrics]
    if missing:
        raise RuntimeError(f"declared metrics not measured: {missing}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]} for d in declared},
    }
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump({"provenance": prov, "all_metrics": metrics, "problems": runner.problems,
                   "setup_samples": setup_times,
                   "reference_samples": {"python_s": runner.reference.python_s,
                                         "numpy_s": runner.reference.numpy_s},
                   "samples": [[s.pass_index, s.kind, s.latency, s.rss_mib] for s in runner.samples],
                   **result}, fh, indent=1)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.chdir(ROOT)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, args.trace, spec) for name in names}
    if len(results) == 1:
        line = results[names[0]]
    else:
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
