"""CLI: exit codes, report structure, library equivalence, determinism."""

import itertools
import json
import os
import subprocess
import sys

import pytest

from infotherm import bitstream, cli, fiber, filescan, landauer, ledger
from infotherm.bitstream import GeneratorSpec, generate, write_bitstream

LN2 = 0.6931471805599453


def run_capture(argv, capsys):
    status = cli.run(argv)
    return status, capsys.readouterr().out


@pytest.fixture
def random_file(tmp_path):
    path = tmp_path / "random.bin"
    write_bitstream(generate(GeneratorSpec(kind="bernoulli", length=4096, seed=11, p=0.5)), path)
    return path


def test_landauer_report(capsys):
    status, out = run_capture(
        ["landauer", "--power", "1e-9", "--noise-temp", "300", "--json"], capsys)
    assert status == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    f_max = doc["results"]["f_max"]
    assert f_max["unit"] == "1/s"
    assert f_max["value"] == landauer.max_bit_rate(1e-9, 300.0, 10.0)
    assert f_max["value"] == pytest.approx(3.483e10, rel=1e-3)


def test_landauer_device_temperature_path(capsys):
    status, out = run_capture(
        ["landauer", "--power", "1e-12", "--bit-rate", "1e9", "--json"], capsys)
    assert status == 0
    doc = json.loads(out)
    assert doc["results"]["device_temperature"]["value"] == float(
        landauer.device_temperature(1e-12, 1e9))


def test_landauer_requires_a_question(capsys):
    assert cli.run(["landauer", "--power", "1e-9"]) == 2


@pytest.mark.parametrize("question", [["--bit-rate", "1e9"], ["--noise-temp", "300"],
                                      ["--bit-rate", "1e9", "--noise-temp", "300"]])
def test_landauer_checks_the_margin_whatever_it_asks(question, capsys):
    assert cli.run(["landauer", "--power", "1e-12", *question, "--margin", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "infotherm: error: margin must be at least 1\n"


def test_ledger_check_violated_exits_1(capsys):
    status, out = run_capture(["ledger", "check", "--entropy", "5", "--info", "10"], capsys)
    assert status == 1
    assert "verdict clausius = violated" in out


def test_ledger_check_satisfied_exits_0(capsys):
    status, out = run_capture(["ledger", "check", "--entropy", "10", "--info", "10"], capsys)
    assert status == 0
    assert "satisfied" in out


@pytest.mark.parametrize("argv, names", [
    (["combined", "--heat", "1", "--temperature", "1e-320", "--info", "1", "--entropy-actual", "1"],
     ("heat = 1.0", "temperature = 1e-320", "info = 1.0")),
    (["combined", "--heat", "0", "--temperature", "1e-310", "--info", "1", "--entropy-actual", "1",
      "--units", "si"], ("heat = 0.0", "temperature = 1e-310", "info = 1.0", "si units")),
    (["check", "--entropy", "1e308", "--info=-1e308"], ("entropy = 1e+308", "info = -1e+308")),
], ids=["combined-bound-overflow", "combined-si-kt-underflow", "check-margin-overflow"])
def test_ledger_non_finite_bound_or_margin_exits_2(argv, names, capsys):
    """A Clausius bound or margin that overflows is an input error naming
    the flags, not a verdict on inf."""
    assert cli.run(["ledger", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("infotherm: error: ")
    for name in names:
        assert name in captured.err


@pytest.mark.parametrize("inflated", [False, True], ids=["random", "inflated-rate"])
def test_broadcast_verdict_is_the_records(random_file, monkeypatch, capsys, inflated):
    """The CLI reports ``BroadcastResult.verdict`` as its clausius verdict,
    also when an inflated information rate makes it violated."""
    real_analyze = filescan.analyze_file

    def analyze_file(path, markov_order=3, bit_order="msb_first"):
        stats = real_analyze(path, markov_order, bit_order)
        if inflated:
            stats = stats._replace(equilibrium=filescan.ORDERED, info_rate_markov=0.8)
        return stats

    monkeypatch.setattr(filescan, "analyze_file", analyze_file)
    status, out = run_capture(["broadcast", "--file", str(random_file), "--receivers", "3",
                               "--json"], capsys)
    result = ledger.broadcast_balance(analyze_file(random_file), 1.0, 3)
    assert json.loads(out)["verdicts"]["clausius"] == result.verdict
    assert (status, result.verdict) == ((1, "violated") if inflated else (0, "satisfied"))


def test_ledger_combined_matches_library(capsys):
    status, out = run_capture(
        ["ledger", "combined", "--heat", "1", "--temperature", "1",
         "--info", str(LN2), "--entropy-actual", "1.5", "--json"], capsys)
    assert status == 1
    doc = json.loads(out)
    expected = ledger.combined_balance(1.0, 1.0, LN2, 1.5)
    assert doc["results"]["entropy_lower_bound"]["value"] == float(expected.entropy_lower_bound)


def test_broadcast_single_receiver(random_file, capsys):
    status, out = run_capture(
        ["broadcast", "--file", str(random_file), "--receivers", "1", "--json"], capsys)
    assert status == 0
    doc = json.loads(out)
    assert doc["results"]["net_gain"]["value"] == 0.0
    assert doc["verdicts"]["equilibrium"] == "random"


def test_broadcast_receivers_that_overflow_exit_2(random_file, capsys):
    assert cli.run(["broadcast", "--file", str(random_file), "--receivers", "1" + "0" * 306]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "receivers = 1" + "0" * 306 in captured.err


def test_broadcast_clausius_verdict_can_fail(random_file, monkeypatch, capsys):
    """An information estimate above ln 2 per bit is more than the
    receivers' heat can account for: the verdict is violated, exit 1."""
    real_analyze = filescan.analyze_file

    def inflated(path, markov_order=3, bit_order="msb_first"):
        stats = real_analyze(path, markov_order, bit_order)
        return stats._replace(equilibrium=filescan.ORDERED, info_rate_markov=0.8)

    monkeypatch.setattr(filescan, "analyze_file", inflated)
    status, out = run_capture(["broadcast", "--file", str(random_file), "--receivers", "3"], capsys)
    assert status == 1
    assert "verdict clausius = violated" in out


def test_broadcast_reports_its_bit_order(tmp_path, capsys):
    """The information a broadcast audits depends on the order its bits
    are read in, so the text and JSON reports both list that order."""
    path = tmp_path / "markov.bin"
    write_bitstream(generate(GeneratorSpec(kind="markov", length=65536, seed=7, q=0.1)), path)
    info = {}
    for order in ("msb_first", "lsb_first"):
        argv = ["broadcast", "--file", str(path), "--receivers", "3", "--bit-order", order]
        status, text = run_capture(argv, capsys)
        assert status == 0
        assert f"\ninput   bit_order = {order}\n" in text
        status, out = run_capture(argv + ["--json"], capsys)
        doc = json.loads(out)
        assert doc["inputs"]["bit_order"] == order
        info[order] = doc["results"]["info_sent"]["value"]
    assert info["msb_first"] != info["lsb_first"]

def test_generate_then_analyze_round_trip(tmp_path, capsys):
    out_path = tmp_path / "gen.bin"
    status, _ = run_capture(
        ["generate", "--kind", "markov", "--q", "0.1", "--length", "8192",
         "--seed", "7", "--out", str(out_path)], capsys)
    assert status == 0
    status, out = run_capture(["file", str(out_path), "--json"], capsys)
    assert status == 0
    doc = json.loads(out)
    assert doc["results"]["length"]["value"] == 8192
    assert doc["verdicts"]["equilibrium"] == "ordered"


def test_generate_rejects_unaligned_length_before_drawing(tmp_path, monkeypatch, capsys):
    """A length raw bytes cannot hold is an input error before any bit is drawn."""
    def draw(spec, path, bit_order="msb_first"):
        raise AssertionError("bits drawn for a length that cannot be written")

    monkeypatch.setattr(bitstream, "write_generated", draw)
    out_path = tmp_path / "gen.bin"
    assert cli.run(["generate", "--kind", "bernoulli", "--p", "0.5", "--length", "7",
                    "--out", str(out_path)]) == 2
    assert not out_path.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "infotherm: error: stream length must be a multiple of 8 to write raw bytes\n"


@pytest.mark.parametrize("argv, message", [
    (["--kind", "markov", "--q", "0.1", "--p", "7"], "markov takes no p"),
    (["--kind", "bernoulli", "--p", "0.5", "--q", "0.1"], "bernoulli takes no q"),
    (["--kind", "alternating", "--p", "0.5"], "alternating takes no p"),
    (["--kind", "ordered_block", "--q", "0.5"], "ordered_block takes no q"),
])
def test_generate_rejects_a_parameter_its_kind_does_not_use(argv, message, tmp_path, capsys):
    """A ``--p`` or ``--q`` the stream would not use is an input error, not
    an input the report lists."""
    out_path = tmp_path / "gen.bin"
    assert cli.run(["generate", *argv, "--length", "64", "--out", str(out_path)]) == 2
    assert not out_path.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"infotherm: error: {message}\n"


def test_file_reports_temperature_when_random(random_file, capsys):
    status, out = run_capture(["file", str(random_file), "--json"], capsys)
    assert status == 0
    doc = json.loads(out)
    assert doc["verdicts"]["equilibrium"] == "random"
    assert doc["results"]["file_temperature"]["value"] == pytest.approx(1 / (2 * LN2), rel=1e-12)


def test_gas_transfer_matches_library(capsys):
    """JSON report values equal direct library values bit-for-bit."""
    status, out = run_capture(
        ["gas", "transfer", "--length", "1000", "--n-hot", "300", "--n-cold", "100", "--json"],
        capsys)
    assert status == 0
    doc = json.loads(out)
    from infotherm.twolevel import transfer_balance
    record = transfer_balance(1000, 300, 100)
    assert doc["results"]["net"]["value"] == float(record.net)
    assert doc["results"]["entropy_removed_hot"]["value"] == float(record.entropy_removed_hot)
    assert doc["verdicts"]["clausius"] == "satisfied"


def test_gas_entropy_and_temperature(capsys):
    status, out = run_capture(["gas", "entropy", "--length", "6", "--excited", "2", "--json"], capsys)
    assert status == 0
    assert json.loads(out)["results"]["entropy_exact"]["value"] == pytest.approx(2.70805, abs=1e-5)
    status, out = run_capture(
        ["gas", "temperature", "--length", "1000", "--excited", "100", "--json"], capsys)
    assert status == 0
    assert json.loads(out)["results"]["temperature_closed"]["value"] == pytest.approx(0.45512, abs=1e-5)


@pytest.mark.parametrize("excited", [0, 1, 9, 10])
def test_gas_entropy_at_the_domain_edges(excited, capsys):
    """Stirling's form is listed only inside 0 < n < L, and the
    multiplicity's log is the exact entropy, to the last bit."""
    argv = ["gas", "entropy", "--length", "10", "--excited", str(excited), "--json"]
    status, out = run_capture(argv, capsys)
    assert status == 0
    results = json.loads(out)["results"]
    assert ("entropy_stirling" in results) == (0 < excited < 10)
    exact, log_multiplicity = (results[key]["value"] for key in ("entropy_exact", "log_multiplicity"))
    assert float.hex(log_multiplicity) == float.hex(exact)


@pytest.mark.parametrize("length, listed", [(3, False), (4, True)])
def test_gas_temperature_lists_the_finite_difference_from_four_states(length, listed, capsys):
    argv = ["gas", "temperature", "--length", str(length), "--excited", "1", "--json"]
    status, out = run_capture(argv, capsys)
    assert status == 0
    assert ("temperature_numeric" in json.loads(out)["results"]) == listed

def test_gas_temperature_si_units(capsys):
    status, out = run_capture(
        ["gas", "temperature", "--length", "1000", "--excited", "100",
         "--units", "si", "--epsilon", "2.5e-21", "--json"], capsys)
    assert status == 0
    doc = json.loads(out)
    assert doc["results"]["temperature_closed"]["unit"] == "K"


#: The commands that take an energy, and its flag.
ENERGY_COMMANDS = pytest.mark.parametrize("argv, flag", [
    (["gas", "temperature", "--length", "1000", "--excited", "100"], "--epsilon"),
    (["gas", "occupation", "--length", "1000", "--temperature", "300"], "--epsilon"),
    (["gas", "transfer", "--length", "1000", "--n-hot", "300", "--n-cold", "100"],
     "--epsilon"),
    (["file", "{file}"], "--epsilon"),
    (["broadcast", "--file", "{file}", "--receivers", "3"], "--epsilon"),
    (["fiber", "simulate", "--alpha", "0.1", "--span-km", "1", "--spans", "1",
      "--file-length", "10"], "--epsilon0"),
], ids=["gas-temperature", "gas-occupation", "gas-transfer", "file", "broadcast",
        "fiber-simulate"])


@ENERGY_COMMANDS
def test_si_mode_requires_joules_flag(argv, flag, random_file, capsys):
    """Under ``--units si`` the energy, read in joules, has no default."""
    argv = [token.format(file=random_file) for token in argv]
    assert cli.run(argv + ["--units", "si"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--units si requires {flag}" in captured.err


@ENERGY_COMMANDS
def test_joules_spelling_is_a_usage_error(argv, flag, random_file, tmp_path, capsys):
    """One flag per energy: ``--<energy>-joules`` is an unknown option in
    reduced units, beside the energy flag under ``--units si``, and as a
    config key, where it once silently replaced or was dropped."""
    argv = [token.format(file=random_file) for token in argv]
    config = tmp_path / "si.cfg"
    config.write_text(f"{flag[2:]}-joules = 2.87e-21\n")
    for extra in ([f"{flag}-joules", "5"], ["--units", "si", flag, "5", f"{flag}-joules", "1e-21"],
                  ["--units", "si", "--config", str(config)]):
        assert cli.run(argv + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag}-joules" in captured.err


@pytest.mark.parametrize("temperature, expected", [
    ("1e-320", 0.0), ("5e-324", 0.0), ("-1e-320", 1000.0), ("-5e-324", 1000.0)])
def test_gas_occupation_where_kt_rounds_to_zero(temperature, expected, capsys):
    """k_B T underflows to 0 in SI units: the report gives the law's limit,
    as text and as JSON, and exits 0."""
    argv = ["gas", "occupation", "--length", "1000", f"--temperature={temperature}",
            "--units", "si", "--epsilon", "2.87e-21"]
    status, out = run_capture(argv, capsys)
    assert status == 0
    assert f"result  expected_n = {expected!r} 1\n" in out
    status, out = run_capture(argv + ["--json"], capsys)
    assert status == 0
    assert json.loads(out)["results"]["expected_n"] == {"value": expected, "unit": "1"}


def test_gas_metropolis_runs(capsys):
    status, out = run_capture(
        ["gas", "metropolis", "--length", "100", "--kt", "1.0", "--steps", "20000",
         "--burn-in", "2000", "--seed", "9", "--json"], capsys)
    assert status == 0
    doc = json.loads(out)
    assert doc["results"]["mean_fraction"]["value"] == pytest.approx(0.2689, abs=0.05)


@pytest.mark.parametrize("flag", ["--kt", "--epsilon"])
def test_gas_metropolis_non_finite_input_exits_2(flag, capsys):
    argv = ["gas", "metropolis", "--length", "100", "--kt", "1.0", "--steps", "100",
            "--burn-in", "10", "--seed", "1"]
    assert cli.run(argv + [flag, "inf"]) == 2
    assert "must be finite" in capsys.readouterr().err


def test_gas_metropolis_length_beyond_2_53_exits_2(capsys):
    argv = ["gas", "metropolis", "--length", str(2**53 + 1), "--kt", "1.0", "--steps", "100",
            "--burn-in", "10", "--seed", "1"]
    assert cli.run(argv) == 2
    assert "at most 2**53" in capsys.readouterr().err


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_undefined_std_error_is_json_null(capsys):
    """One retained sample leaves the batch-means error undefined: null in
    JSON, nan in text."""
    argv = ["gas", "metropolis", "--length", "100", "--kt", "1", "--steps", "21",
            "--burn-in", "20", "--seed", "1"]
    status, out = run_capture(argv + ["--json"], capsys)
    assert status == 0
    doc = json.loads(out, parse_constant=_reject_constant)
    assert doc["results"]["std_error"] == {"value": None, "unit": "1"}
    assert doc["results"]["samples"]["value"] == 1
    _, text = run_capture(argv, capsys)
    assert "result  std_error = nan 1" in text


@pytest.mark.parametrize("argv", [
    ["ledger", "check", "--entropy", "nan", "--info", "1"],
    ["fiber", "efficiency", "--t-hot", "inf", "--t-cold", "1"],
    ["gas", "occupation", "--length", "1000", "--temperature", "nan"],
    ["landauer", "--power", "1e-9", "--noise-temp=-inf"],
], ids=["ledger-check-nan", "fiber-efficiency-inf", "gas-occupation-nan", "landauer-minus-inf"])
def test_non_finite_flag_exits_2(argv, capsys):
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be finite" in captured.err


def test_non_finite_config_value_exits_2(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("entropy=nan\n")
    assert cli.run(["ledger", "check", "--info", "1", "--config", str(config)]) == 2
    assert "must be finite" in capsys.readouterr().err


def test_overridden_config_value_is_still_checked(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("entropy=nan\n")
    assert cli.run(["ledger", "check", "--entropy", "1", "--info", "1", "--config", str(config)]) == 2
    assert "must be finite" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    assert cli.run(["frobnicate"]) == 2


def test_module_error_exits_2(capsys):
    assert cli.run(["gas", "temperature", "--length", "10", "--excited", "5"]) == 2
    err = capsys.readouterr().err
    assert "diverges" in err


def test_missing_file_exits_2(tmp_path, capsys):
    assert cli.run(["file", str(tmp_path / "nope.bin")]) == 2


@pytest.mark.parametrize("command", [["file", "EMPTY"], ["broadcast", "--file", "EMPTY", "--receivers", "3"]],
                         ids=["file", "broadcast"])
def test_empty_file_exits_2(command, tmp_path, capsys):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    assert cli.run([str(path) if word == "EMPTY" else word for word in command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"infotherm: error: file {path} is empty\n"


def test_fiber_simulate_report_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "chain.csv"
    argv = ["fiber", "simulate", "--epsilon0", "1", "--alpha", str(LN2 / 80), "--span-km", "80",
            "--spans", "10", "--file-length", "100", "--csv", str(csv_path), "--json"]
    status, out = run_capture(argv, capsys)
    assert status == 0
    doc = json.loads(out)
    assert doc["results"]["work_per_span"]["value"] == pytest.approx(25.0, rel=1e-12)
    assert doc["verdicts"]["second_law"] == "satisfied"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "span,epsilon_in,epsilon_out,t_hot,t_cold,q_hot,q_cold,work,info_nats"
    assert len(lines) == 11
    assert all(line.split(",")[7] == "25" for line in lines[1:])


@pytest.mark.parametrize("alpha, spans", [("1e-20", "1"), ("1000", "1"), ("1e-20", "0")])
def test_fiber_simulate_rejects_attenuation_rounding_to_0_or_1(alpha, spans, capsys):
    assert cli.run(["fiber", "simulate", "--alpha", alpha, "--span-km", "1", "--spans", spans,
                    "--file-length", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "alpha_per_km*span_km" in captured.err


@pytest.mark.parametrize("argv", [
    ["--epsilon0", "1e-300", "--alpha", "700", "--spans", "1", "--file-length", "10"],
    ["--epsilon0", "1e-300", "--alpha", "700", "--spans", "0", "--file-length", "10"],
    ["--epsilon0", "1e-310", "--alpha", "0.1", "--spans", "1", "--file-length", "1"],
    ["--units", "si", "--epsilon0", "1e300", "--alpha", "0.1", "--spans", "1",
     "--file-length", "1"],
    ["--epsilon0", "1e300", "--alpha", "0.1", "--spans", "1", "--file-length", "1000000000"],
], ids=["temperature-underflow", "temperature-underflow-zero-spans", "subnormal-epsilon0",
        "si-temperature-overflow", "heat-overflow"])
def test_fiber_simulate_rejects_cycle_outside_float_range(argv, capsys):
    """A cycle whose temperatures, heats or work round to 0 or overflow is
    an input error naming the inputs, in both unit modes and at 0 spans."""
    assert cli.run(["fiber", "simulate", "--span-km", "1", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    for name in ("epsilon0 = ", "alpha_per_km*span_km = ", "file_length = "):
        assert name in captured.err


@pytest.mark.parametrize("argv", [
    ["--units", "si", "--epsilon0", "1e-300", "--alpha", "1", "--spans", "3",
     "--file-length", "1"],
    ["--epsilon0", "1e300", "--alpha", "0.1", "--spans", "1", "--file-length", "1000000"],
], ids=["product-underflow", "product-overflow"])
def test_fiber_simulate_cycle_in_range_runs(argv, capsys):
    """A cycle whose every quantity is normal runs, although the product
    q_cold * t_hot in the amplifier's work leaves float64's range."""
    status, out = run_capture(["fiber", "simulate", "--span-km", "1", *argv, "--json"], capsys)
    assert status == 0
    results = {key: entry["value"] for key, entry in json.loads(out)["results"].items()}
    assert results["work_per_span"] == pytest.approx(
        results["q_hot_per_span"] * results["span_efficiency"], rel=1e-12)


HUGE = "1" + "0" * 400


@pytest.mark.parametrize("argv", [
    ["gas", "entropy", "--length", HUGE, "--excited", "1"],
    ["gas", "occupation", "--length", HUGE, "--temperature", "1"],
    ["fiber", "simulate", "--alpha", "0.1", "--span-km", "1", "--spans", "1",
     "--file-length", HUGE],
    ["fiber", "simulate", "--alpha", "0.1", "--span-km", "1", "--spans", str(10**20),
     "--file-length", "1", "--csv", os.devnull],
], ids=["gas-entropy-length", "gas-occupation-length", "fiber-file-length", "fiber-spans"])
def test_integer_too_large_is_an_input_error(argv, capsys):
    """An integer flag beyond float64 or index range exits 2 with one
    error line, not a traceback and the verdict exit status 1."""
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("infotherm: error: ")
    assert captured.err.count("\n") == 1


def test_fiber_simulate_spans_beyond_index_range_without_csv(capsys):
    """Only the per-span CSV indexes the spans; without ``--csv`` a span
    count past ``sys.maxsize`` runs, and its totals are float64 products."""
    spans = 10**20
    status, out = run_capture(["fiber", "simulate", "--alpha", "0.1", "--span-km", "1",
                               "--spans", str(spans), "--file-length", "1", "--json"], capsys)
    assert status == 0
    results = {key: entry["value"] for key, entry in json.loads(out)["results"].items()}
    assert results["total_work"] == spans * results["work_per_span"]


def test_fiber_amplifier_audit(capsys):
    status, out = run_capture(
        ["fiber", "amplifier", "--q-cold", "25", "--t-hot", "1.0", "--t-cold", "0.5",
         "--work", "22.5", "--json"], capsys)
    assert status == 1
    doc = json.loads(out)
    assert doc["verdicts"]["second_law"] == "violated"


def test_fiber_amplifier_divides_first_where_the_product_underflows(capsys):
    """q_cold * t_hot is subnormal here, and dividing it by t_cold gave
    9.000000001157123e-300; q_cold / t_cold * t_hot is correctly rounded."""
    status, out = run_capture(["fiber", "amplifier", "--q-cold", "3e-300", "--t-hot", "3e-15",
                               "--t-cold", "1e-15", "--json"], capsys)
    assert status == 0
    assert json.loads(out)["results"]["q_hot"]["value"] == 9e-300


@pytest.mark.parametrize("argv", [
    ["--q-cold", "1e308", "--t-hot", "1e10", "--t-cold", "1"],
    ["--q-cold", "1e308", "--t-hot", "1.5", "--t-cold", "1", "--work", "1e308"],
    ["--q-cold", "1", "--t-hot", "1", "--t-cold", "1e-320", "--units", "si"],
], ids=["q-hot-overflow", "balance-overflow", "si-kt-underflow"])
def test_fiber_amplifier_outside_the_normal_range_exits_2(argv, capsys):
    """An amplifier whose heat or entropy balance leaves float64's range is
    an input error naming the flags, not an infinite verdict."""
    assert cli.run(["fiber", "amplifier", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    for name in ("q_cold = ", "t_hot = ", "t_cold = "):
        assert name in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["fiber", "amplifier", "--q-cold", "7564188655.511792", "--t-hot", "2939.2271582074713",
     "--t-cold", "127.96746105408722"],
    ["fiber", "simulate", "--epsilon0", "4074.634035473458", "--alpha", "0.5324565655568095",
     "--span-km", "5.886162620706569", "--spans", "3", "--file-length", "85278065"],
    ["ledger", "combined", "--heat", "151465807.59950042", "--temperature", "6.385120517023365",
     "--info", "8.680453071432968", "--entropy-actual", "23721692.11550767"],
], ids=["fiber-amplifier", "fiber-simulate", "ledger-combined"])
def test_reversible_or_exact_bound_is_satisfied(argv, capsys):
    """An ideal amplifier, the cycle a chain builds, and an entropy equal
    to the correctly rounded bound are no violation, whatever the size of
    their terms."""
    status, out = run_capture([*argv, "--json"], capsys)
    assert status == 0
    assert set(json.loads(out)["verdicts"].values()) == {"satisfied"}


@pytest.mark.parametrize("argv", [
    ["fiber", "amplifier", "--q-cold", "1.7e308", "--t-hot", "1.01", "--t-cold", "1",
     "--work", "0"],
    ["fiber", "amplifier", "--q-cold", "25", "--t-hot", "1", "--t-cold", "0.5", "--work", "22.5"],
    ["ledger", "combined", "--heat", "1e300", "--temperature", "1", "--info", "1e300",
     "--entropy-actual", "1e300"],
    ["ledger", "check", "--entropy", "5", "--info", "10"],
], ids=["amplifier-huge-terms", "amplifier", "combined-huge-terms", "check"])
def test_real_violation_is_violated_however_large_the_terms(argv, capsys):
    """A deficit beyond the slack reads violated, exit 1, also where the
    summed size of the terms overflows float64."""
    status, out = run_capture([*argv, "--json"], capsys)
    assert status == 1
    assert set(json.loads(out)["verdicts"].values()) == {"violated"}


@pytest.mark.parametrize("argv", [
    ["ledger", "combined", "--heat", "1e308", "--temperature", "1", "--info=-1e308",
     "--entropy-actual=-1e300"],
    ["ledger", "combined", "--heat", "1e9", "--temperature", "1", "--info=-1e9",
     "--entropy-actual=-1.5"],
], ids=["overflowing-terms", "cancelling-terms"])
def test_combined_negative_info_cannot_cancel_the_heat(argv, capsys):
    """Information is non-negative, so the bound heat/kT + dI never
    cancels: a negative dI is an input error, exit 2."""
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "information must be non-negative" in captured.err


@pytest.mark.parametrize("argv, names", [
    (["gas", "temperature", "--length", "1000", "--excited", "100", "--epsilon", "1e-320"],
     ("length = 1000", "excited = 100", "epsilon = 1e-320")),
    (["gas", "temperature", "--length", "1000", "--excited", "100", "--epsilon", "1e308"],
     ("length = 1000", "excited = 100", "epsilon = 1e+308")),
    (["gas", "temperature", "--length", "1000", "--excited", "900", "--epsilon", "1e-320"],
     ("length = 1000", "excited = 900", "epsilon = 1e-320")),
    (["file", "{random}", "--epsilon", "1e-320"], ("epsilon = 1e-320",)),
    (["file", "{random}", "--epsilon", "1e308"], ("length = 4096", "epsilon = 1e+308")),
    (["file", "{random}", "--units", "si", "--epsilon", "1e-320"], ("epsilon = 1e-320",)),
    (["broadcast", "--file", "{random}", "--receivers", "3", "--epsilon", "1e-320"],
     ("epsilon = 1e-320",)),
    (["broadcast", "--file", "{random}", "--receivers", "1000", "--epsilon", "1e-306"],
     ("epsilon = 1e-306", "receivers = 1000")),
    (["fiber", "amplifier", "--q-cold", "2.2250738585072014e-308", "--t-hot", "1.0000000000000002",
      "--t-cold", "1"], ("q_cold = 2.2250738585072014e-308", "t_hot = 1.0000000000000002")),
    (["fiber", "simulate", "--epsilon0", "1e-307", "--alpha", "1e-15", "--span-km", "1",
      "--spans", "1", "--file-length", "1"], ("epsilon0 = 1e-307", "alpha_per_km*span_km = 1e-15")),
    (["ledger", "combined", "--heat", "1e-300", "--temperature", "1e10", "--info", "0",
      "--entropy-actual", "0"], ("heat = 1e-300", "temperature = 10000000000.0")),
], ids=["temperature-subnormal", "temperature-overflow", "inverted-temperature-subnormal",
        "file-temperature-subnormal", "file-heat-overflow", "file-si-energy-subnormal",
        "broadcast-subnormal", "broadcast-cold-subnormal", "amplifier-work-subnormal",
        "chain-work-subnormal", "combined-heat-entropy-subnormal"])
def test_reported_quantity_outside_the_normal_range_exits_2(argv, names, random_file, capsys):
    """A reported temperature, heat or energy outside float64's normal
    range is an input error naming the flags, not a subnormal or infinite
    result."""
    assert cli.run([arg.replace("{random}", str(random_file)) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "normal range" in captured.err
    for name in names:
        assert name in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, names", [
    (["fiber", "efficiency", "--t-hot", "1e-320", "--t-cold", "1e-321"],
     ("t_hot = 1e-320", "t_cold = 1e-321")),
    (["fiber", "efficiency", "--t-hot", "1", "--t-cold", "1e-310"], ("t_hot = 1.0", "t_cold = 1e-310")),
    (["gas", "transfer", "--length", "1000", "--n-hot", "300", "--n-cold", "100", "--units", "si",
      "--epsilon", "1e-320"], ("n_hot = 300", "epsilon = 1e-320")),
    (["gas", "transfer", "--length", "1000", "--n-hot", "300", "--n-cold", "100",
      "--epsilon", "1e308"], ("n_hot = 300", "epsilon = 1e+308")),
], ids=["efficiency-subnormal", "efficiency-cold-subnormal", "transfer-heat-subnormal",
        "transfer-heat-overflow"])
def test_closed_form_outside_the_normal_range_exits_2(argv, names, capsys):
    """A temperature or heat outside float64's normal range is an input
    error naming the flags, not a result that lost its digits."""
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "normal range" in captured.err
    for name in names:
        assert name in captured.err
    assert captured.err.count("\n") == 1


def test_fiber_efficiency(capsys):
    status, out = run_capture(["fiber", "efficiency", "--t-hot", "2", "--t-cold", "1", "--json"], capsys)
    assert status == 0
    assert json.loads(out)["results"]["efficiency"]["value"] == 0.5


def test_export_csv_single_span(tmp_path):
    cfg = fiber.FiberChainConfig(epsilon0=1.0, alpha_per_km=LN2, span_km=1.0,
                                 n_spans=1, file_length=100)
    path = tmp_path / "one.csv"
    cli.export_csv(fiber.simulate_chain(cfg).records, path)
    assert len(path.read_text().splitlines()) == 2


def test_export_csv_rejects_empty(tmp_path):
    with pytest.raises(ValueError, match="no spans"):
        cli.export_csv((), tmp_path / "none.csv")
    with pytest.raises(ValueError, match="no spans"):
        cli.export_csv(itertools.repeat(None, 0), tmp_path / "none.csv")
    assert not (tmp_path / "none.csv").exists()


def test_export_csv_streams_repeated_cycle(tmp_path):
    """The CSV of a repeated cycle equals the CSV of the records tuple."""
    chain = fiber.simulate_chain(fiber.FiberChainConfig(epsilon0=1.0, alpha_per_km=LN2, span_km=1.0,
                                                        n_spans=5, file_length=100))
    cli.export_csv(chain.records, tmp_path / "tuple.csv")
    cli.export_csv(itertools.repeat(chain.cycle, chain.n_spans), tmp_path / "repeat.csv")
    assert (tmp_path / "repeat.csv").read_bytes() == (tmp_path / "tuple.csv").read_bytes()


def per_row_csv(records):
    """The CSV text one row at a time: the layout ``export_csv`` must keep."""
    rows = ["span,epsilon_in,epsilon_out,t_hot,t_cold,q_hot,q_cold,work,info_nats\n"]
    for span, rec in enumerate(records):
        att = rec.steps[1]
        cells = (att.epsilon_start, att.epsilon_end, rec.t_hot, rec.t_cold,
                 rec.q_hot, rec.q_cold, rec.work_in, rec.info)
        rows.append(f"{span}," + ",".join(format(float(x), ".12g") for x in cells) + "\n")
    return "".join(rows)


def test_export_csv_runs_match_per_row_writer(tmp_path):
    """Runs of repeated records across hundreds, and equal but distinct
    records, give the per-row text."""
    def cycle(epsilon0):
        return fiber.simulate_chain(fiber.FiberChainConfig(
            epsilon0=epsilon0, alpha_per_km=LN2, span_km=1.0, n_spans=1, file_length=100)).cycle
    a, b, c, a_again = cycle(1.0), cycle(2.0), cycle(0.5), cycle(1.0)
    assert a == a_again and a is not a_again
    path = tmp_path / "runs.csv"
    for records in ([a] * 2500 + [b],
                    [b] + [a] * 2998 + [b] + [a] * 4001 + [c, b, b, a_again] + [a] * 12_000 + [c]):
        expected = per_row_csv(records).splitlines(keepends=True)
        cli.export_csv(iter(records), path)
        # lines, not one string: a failing compare then names the first bad row
        assert path.read_text(encoding="utf-8").splitlines(keepends=True) == expected


def test_fiber_simulate_quadrillion_spans_without_csv(capsys):
    """10^15 spans report their totals in constant memory: exit 0, and
    total_work = spans * work_per_span."""
    spans = 10**15
    status, out = run_capture(["fiber", "simulate", "--epsilon0", "1", "--alpha", "0.0086643",
                               "--span-km", "80", "--file-length", "100", "--spans", str(spans),
                               "--json"], capsys)
    assert status == 0
    results = json.loads(out)["results"]
    assert results["total_work"]["value"] == spans * results["work_per_span"]["value"]


def test_config_file_supplies_flags(tmp_path, capsys):
    """Config keys stand in for flags, including required ones."""
    config = tmp_path / "run.cfg"
    config.write_text("power=1e-9\nnoise-temp=300\n")
    status, out = run_capture(["landauer", "--config", str(config), "--json"], capsys)
    assert status == 0
    doc = json.loads(out)
    assert doc["results"]["f_max"]["value"] == landauer.max_bit_rate(1e-9, 300.0, 10.0)


def test_config_skips_comments_and_blank_lines(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("# the device\n\n  power = 1e-9\n   \n# noise-temp=1\nnoise-temp=300\n")
    status, out = run_capture(["landauer", "--config", str(config), "--json"], capsys)
    assert status == 0
    assert json.loads(out)["inputs"] == {"power": 1e-9, "noise_temp": 300.0, "margin": 10.0,
                                         "bit_rate": None}


def test_config_line_without_equals_exits_2(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("power=1e-9\nnoise-temp 300\n")
    assert cli.run(["landauer", "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"infotherm: error: {config}:2: expected key=value\n"


def test_config_flags_win(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("noise-temp=77\n")
    status, out = run_capture(
        ["landauer", "--power", "1e-9", "--noise-temp", "300", "--config", str(config), "--json"],
        capsys)
    assert status == 0
    assert json.loads(out)["results"]["f_max"]["value"] == landauer.max_bit_rate(1e-9, 300.0, 10.0)


@pytest.mark.parametrize("flags", [["--markov", "0"], ["--markov-order=0"], ["--mark=0"]],
                         ids=["prefix", "equals", "prefix-equals"])
def test_config_loses_to_abbreviated_flag(flags, random_file, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("markov-order=3\n")
    status, out = run_capture(["file", str(random_file), *flags, "--config", str(config), "--json"],
                              capsys)
    assert status == 0
    assert json.loads(out)["inputs"]["markov_order"] == 0


@pytest.mark.parametrize("flag", [["--conf", "{}"], ["--con={}"]], ids=["prefix", "prefix-equals"])
def test_config_flag_abbreviated(flag, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("power=1e-9\nnoise-temp=300\n")
    flag = [token.format(config) for token in flag]
    status, out = run_capture(["landauer", *flag, "--json"], capsys)
    assert status == 0
    assert json.loads(out)["results"]["f_max"]["value"] == landauer.max_bit_rate(1e-9, 300.0, 10.0)


def test_fiber_simulate_reads_epsilon_as_epsilon0(capsys):
    """argparse takes ``--epsilon`` as the unique prefix of ``--epsilon0``;
    a later flag sharing that prefix would make it ambiguous."""
    argv = ["fiber", "simulate", "--alpha", "0.1", "--span-km", "1", "--spans", "1", "--file-length", "10"]
    full = run_capture(argv + ["--epsilon0", "5"], capsys)
    assert full[0] == 0
    assert run_capture(argv + ["--epsilon", "5"], capsys) == full


@pytest.mark.parametrize("value", ["-1e308", "-1E-3", "-.5e1"])
def test_negative_float_with_an_exponent_is_a_value(value, capsys):
    """A negative float in scientific notation, given as its own token, is
    the flag's value, as it is when joined to the flag by ``=``."""
    argv = ["gas", "occupation", "--length", "1000"]
    joined = run_capture(argv + [f"--temperature={value}"], capsys)
    assert joined[0] == 0
    assert run_capture(argv + ["--temperature", value], capsys) == joined


def test_negative_infinity_as_its_own_token_is_a_usage_error(capsys):
    assert cli.run(["gas", "occupation", "--length", "1000", "--temperature", "-inf"]) == 2
    assert "expected one argument" in capsys.readouterr().err


def test_config_value_may_start_with_a_dash(tmp_path, capsys):
    """A config value is passed joined to its flag, so a value that
    starts with a dash arrives intact."""
    config = tmp_path / "run.cfg"
    config.write_text("entropy=-1e-3\n")
    status, out = run_capture(["ledger", "check", "--info", "0", "--config", str(config), "--json"],
                              capsys)
    assert status == 1
    assert json.loads(out)["inputs"]["entropy"] == -1e-3


def test_config_token_as_option_value_is_not_the_flag(tmp_path, capsys):
    """A ``--config`` that stands where ``--out`` needs its value is not
    read as a config flag: argparse reports the missing value."""
    missing = tmp_path / "missing.cfg"
    assert cli.run(["generate", "--kind", "alternating", "--length", "8",
                    "--out", "--config", str(missing)]) == 2
    err = capsys.readouterr().err
    assert "--out: expected one argument" in err
    assert "No such file" not in err


def test_config_after_double_dash_is_not_the_flag(tmp_path, capsys):
    """Every token after ``--`` is positional, so a ``--config`` there is
    not read: argparse reports it as an unrecognized argument."""
    missing = tmp_path / "missing.cfg"
    assert cli.run(["ledger", "check", "--entropy", "5", "--info", "1", "--",
                    "--config", str(missing)]) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: -- --config" in err
    assert "No such file" not in err


@pytest.mark.parametrize("value, is_json", [("true", True), ("false", False)])
def test_config_sets_json_switch(value, is_json, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(f"json={value}\n")
    status, out = run_capture(["fiber", "efficiency", "--t-hot", "2", "--t-cold", "1",
                               "--config", str(config)], capsys)
    assert status == 0
    assert out.startswith("{") == is_json
    if is_json:
        assert json.loads(out)["results"]["efficiency"]["value"] == 0.5


def test_config_switch_rejects_other_values(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("json=yes\n")
    assert cli.run(["fiber", "efficiency", "--t-hot", "2", "--t-cold", "1",
                    "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "json" in err and "true or false" in err


def test_config_rejects_unknown_key(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("wattage=1\n")
    assert cli.run(["landauer", "--power", "1e-9", "--noise-temp", "300",
                    "--config", str(config)]) == 2


def test_json_deterministic_in_process(random_file, capsys):
    argv = ["broadcast", "--file", str(random_file), "--receivers", "3", "--json"]
    _, first = run_capture(argv, capsys)
    _, second = run_capture(argv, capsys)
    assert first == second


def test_cli_deterministic_subprocess(tmp_path):
    """Byte-identical stdout across two real invocations."""
    argv = [sys.executable, "-m", "infotherm.cli", "gas", "metropolis", "--length", "100",
            "--kt", "1.0", "--steps", "10000", "--burn-in", "1000", "--seed", "42", "--json"]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    assert first.stdout == second.stdout


@pytest.mark.parametrize("flags", [
    ["--power", "1e-9", "--bit-rate", "1e-320"],
    ["--power", "1e-9", "--noise-temp", "1e-320"],
    ["--power", "1e-300", "--bit-rate", "1e300"],
    ["--power", "1e300", "--bit-rate", "1e-300"],
], ids=["subnormal-rate", "subnormal-noise", "zero-temperature", "infinite-temperature"])
def test_landauer_outside_the_normal_range_exits_2(flags, capsys):
    assert cli.run(["landauer", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("infotherm: error: power = ")
    assert "normal range" in captured.err


def test_landauer_names_the_flags_given(capsys):
    """f_max is normal here but the device temperature at f_max is not;
    the error names the flags given, not the computed bit rate."""
    assert cli.run(["landauer", "--power", "1e-306", "--noise-temp", "300"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "infotherm: error: power = 1e-306, noise_temp = 300.0 and margin = 10.0 make ")
    assert "bit_rate" not in captured.err
