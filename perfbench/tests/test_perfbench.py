"""Tests of the benchmark's own logic. Run: python -m pytest perfbench/tests -q"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (puts the checkout's src on sys.path)
import workloads  # noqa: E402
from stats import beyond, nearest_rank, self_times, tail_level  # noqa: E402
from tracing import LAYERS, Tracer, instrument, restore  # noqa: E402
from workloads import Command, Outcome  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


# --- the "at least ten samples beyond" percentile rule --------------------

def test_tail_level_leaves_exactly_ten_samples_beyond():
    assert tail_level(32) == 68.75
    for n in range(11, 300):
        samples = [float(i) for i in range(n)]
        value = nearest_rank(samples, tail_level(n))
        assert beyond(samples, value) == 10
        # any higher percentile leaves fewer than ten beyond
        assert beyond(samples, nearest_rank(samples, tail_level(n) + 100.0 / n)) < 10


def test_tail_level_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail_level(10)


def test_fixed_level_keeps_ten_beyond_as_samples_grow():
    level = tail_level(32)
    for n in range(32, 200):
        samples = [float(i) for i in range(n)]
        assert beyond(samples, nearest_rank(samples, level)) >= 10


# --- self time on a span tree ---------------------------------------------

def _span(i, parent, start, end, layer="x"):
    return {"id": i, "parent": parent, "start": start, "end": end, "layer": layer,
            "run": "r", "failed": False, "name": f"s{i}"}


def test_self_time_subtracts_children_only():
    #  0 [0,10]
    #  +-1 [1,4]
    #  +-2 [5,9]
    #    +-3 [6,7]
    spans = [_span(0, None, 0, 10), _span(1, 0, 1, 4), _span(2, 0, 5, 9), _span(3, 2, 6, 7)]
    assert self_times(spans) == {0: 3, 1: 3, 2: 3, 3: 1}


def test_layer_totals_add_self_time_per_layer():
    tracer = Tracer()
    tracer.spans = [_span(0, None, 0, 10, None), _span(1, 0, 1, 4, "cli"), _span(2, 1, 2, 3, "rng"),
                    _span(3, 0, 5, 9, "cli")]
    tracer.spans[3]["failed"] = True
    totals = tracer.layer_totals("r")
    assert totals["cli"] == {"self_s": 6, "calls": 2, "failures": 1}
    assert totals["rng"] == {"self_s": 1, "calls": 1, "failures": 0}


def test_instrument_sees_calls_across_layers_and_restores():
    from infotherm import bitstream, rng

    original = rng.random_words
    tracer = Tracer()
    tracer.run_id = "t"
    replaced = instrument(tracer)
    try:
        bitstream.generate(bitstream.GeneratorSpec("bernoulli", 64, seed=1, p=0.5))
    finally:
        restore(replaced)
    assert rng.random_words is original
    names = [s["name"] for s in tracer.spans]
    assert names == ["bitstream.generate", "rng.uniforms", "rng.random_words"]
    parents = [s["parent"] for s in tracer.spans]
    assert parents == [None, 0, 1]
    assert tracer.counts["rng.words_drawn"] == 64
    assert tracer.counts["bitstream.bits_processed"] == 64


# --- a corrupted output counts toward fail_ratio ---------------------------

def _generate_case(tmp_path):
    path = str(tmp_path / "c.bin")
    data = np.array([0b10110000, 0xFF], dtype=np.uint8)
    data.tofile(path)
    cmd = Command("generate", ["generate", "--out", path], workloads.check_generate(path))
    good = "command: generate\nresult  length = 16 bit\nresult  ones = 11 bit\nresult  bytes_written = 2 byte\n"
    return cmd, good


def test_corrupted_output_counts_as_failure(tmp_path):
    cmd, good = _generate_case(tmp_path)
    runner = run.Runner({}, str(tmp_path))
    assert runner.record(cmd, Outcome(0, good, "")) == []
    other = Command("generate", ["generate", "--other"], cmd.check)
    assert runner.record(other, Outcome(0, good.replace("ones = 11", "ones = 12"), ""))
    assert (runner.attempted, runner.failed, runner.fail_ratio) == (2, 1, 0.5)


def test_changed_stdout_for_the_same_argv_is_a_failure(tmp_path):
    cmd, good = _generate_case(tmp_path)
    runner = run.Runner({}, str(tmp_path))
    runner.record(cmd, Outcome(0, good, ""))
    assert runner.record(cmd, Outcome(0, good + "\n", "")) == ["stdout differs from the first run of the same argv"]


def test_unparseable_output_and_wrong_exit_are_failures_not_crashes(tmp_path):
    cmd, good = _generate_case(tmp_path)
    assert workloads.verify(cmd, Outcome(0, "garbage", ""))
    assert workloads.verify(cmd, Outcome(2, good, "infotherm: error: boom\n"))
    mc = workloads.metropolis(1, str(tmp_path))[0]
    assert workloads.verify(mc, Outcome(0, "", ""))[0].startswith("check raised KeyError")


def test_closed_form_json_rejects_nan_and_wrong_values():
    argv, want, verdicts = workloads.closed_forms()[0]
    check = workloads.check_closed_form(workloads.parse_json, want, verdicts)
    doc = {"results": {k: {"value": v, "unit": "1"} for k, v in want.items()}, "verdicts": verdicts}
    assert check(Outcome(0, json.dumps(doc), "")) == []
    key = next(iter(want))
    doc["results"][key]["value"] = float("nan")
    assert workloads.verify(Command("closed_form", argv, check), Outcome(0, json.dumps(doc), ""))
    doc["results"][key]["value"] = want[key] + 1.0
    assert check(Outcome(0, json.dumps(doc), ""))


def test_text_reports_parse_back_to_exact_floats():
    value = 0.1 + 0.2
    results, verdicts = workloads.parse_text(
        f"command: x\ninput   a = 1\nresult  v = {value!r} k\nresult  n = 3 bit\nverdict clausius = satisfied\n")
    assert results == {"v": value, "n": 3}
    assert verdicts == {"clausius": "satisfied"}


# --- metric names ----------------------------------------------------------

def test_every_metric_name_and_unit_is_well_formed():
    declared = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [d["name"] for d in declared] + list(run.E2E_UNITS)
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert all(UNIT.fullmatch(d["unit"]) for d in declared)
    assert all(UNIT.fullmatch(u) for u in run.E2E_UNITS.values())
    assert len({d["name"] for d in declared}) == len(declared)


def test_declared_metrics_cover_every_layer_and_e2e_metric():
    per_layer = {d["name"] for d in SPEC["per_layer"]}
    for layer in LAYERS:
        assert {f"{layer}.calls", f"{layer}.failures", f"{layer}.self_share"} <= per_layer
    assert {d["name"] for d in SPEC["end_to_end"]} <= set(run.E2E_UNITS)
    assert {"trace.overhead_share", "unattributed_share", "machine.copy_gbps"} <= per_layer


def test_workload_inputs_depend_only_on_the_seed(tmp_path):
    for name in workloads.WORKLOADS:
        a = [c.argv for c in workloads.commands(name, 5, str(tmp_path))]
        assert a == [c.argv for c in workloads.commands(name, 5, str(tmp_path))]
        if name != "readouts":
            assert a != [c.argv for c in workloads.commands(name, 6, str(tmp_path))]
