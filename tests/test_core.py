"""Unit conversions, quantity types, and mode consistency."""

import json
import math

import pytest
from hypothesis import given, strategies as st

from infotherm import cli, core


def test_nats_to_bits_zero_and_identity():
    assert core.Information(0.0).bits == 0.0
    assert core.Information(math.log(2)).bits == pytest.approx(1.0, rel=1e-15)


def test_nats_to_bits_inverse_example():
    assert core.Information(5.545177444479562).bits == pytest.approx(8.0, rel=1e-15)


@given(st.integers(min_value=0, max_value=10**9))
def test_bit_nat_round_trip(b):
    """Round trip is the identity to 1e-12 relative over [0, 1e9]."""
    back = core.Information(b * core.LN2).bits
    assert back == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_si_constants_exact():
    assert core.SI.k_boltzmann == 1.380649e-23
    assert core.REDUCED.k_boltzmann == 1.0


def test_phys_constants_validation():
    with pytest.raises(ValueError, match="unit mode"):
        core.PhysConstants(k_boltzmann=1.0, mode="cgs")
    with pytest.raises(ValueError, match="positive"):
        core.PhysConstants(k_boltzmann=0.0, mode="reduced")
    with pytest.raises(ValueError, match="CODATA"):
        core.PhysConstants(k_boltzmann=1.4e-23, mode="si")


def test_information_rejects_negative():
    with pytest.raises(ValueError, match="non-negative"):
        core.Information(-1.0)


def test_temperature_rejects_zero_allows_negative():
    with pytest.raises(ValueError, match="zero temperature"):
        core.Temperature(0.0)
    assert float(core.Temperature(-0.5)) == -0.5


def test_energy_rejects_negative():
    with pytest.raises(ValueError, match="non-negative"):
        core.Energy(-1e-9)


def test_information_bits_property():
    assert core.Information(math.log(2)).bits == pytest.approx(1.0, rel=1e-15)


def test_verdicts_live_in_core():
    """Every Clausius verdict is decided by ``core.clausius_verdict`` and
    is one of ``core``'s two objects, so a ledger need not load
    ``twolevel`` and no module keeps a rule of its own."""
    from infotherm import fiber, filescan, ledger, twolevel

    for module in (twolevel, ledger, fiber):
        assert module.clausius_verdict is core.clausius_verdict
        for name in ("CLAUSIUS_TOL_K", "SATISFIED", "VIOLATED"):
            assert not hasattr(module, name), (module.__name__, name)
    stats = filescan.FileStats(length=64, ones=32, p_hat=0.5, info_iid=core.Information(1.0),
                               info_rate_markov=0.8, markov_order=3,
                               equilibrium=filescan.ORDERED, correlation_lag1=0.0)
    verdicts = [
        twolevel.transfer_balance(1000, 300, 100).verdict,
        ledger.clausius_check(5.0, 10.0).verdict,
        ledger.clausius_check(10.0, 5.0).verdict,
        ledger.combined_balance(1.0, 1.0, 0.693, 1.5).verdict,
        ledger.combined_balance(1.0, 1.0, 0.693, 2.0).verdict,
        ledger.broadcast_balance(stats, 1.0, 3).verdict,
        ledger.broadcast_balance(stats._replace(equilibrium=filescan.RANDOM), 1.0, 3).verdict,
        fiber.amplifier_entropy_balance(25.0, 1.0, 0.5, 22.5).verdict,
        fiber.amplifier_entropy_balance(25.0, 1.0, 0.5, 25.0).verdict,
    ]
    assert sum(verdict is core.SATISFIED for verdict in verdicts) == 5
    assert sum(verdict is core.VIOLATED for verdict in verdicts) == 4


@pytest.mark.parametrize("margin, scale, verdict", [
    (0.0, 1.0, "satisfied"),
    (-1e-9, 1.0, "satisfied"),
    (-1.1e-9, 1.0, "violated"),
    (-1.1e-9, 0.0, "violated"),  # the slack never falls below CLAUSIUS_TOL_K
    (-1e-3, 1e6, "satisfied"),
    (-1.1e-3, 1e6, "violated"),
    (math.nan, 1.0, "violated"),
    (-1e-9, math.nan, "satisfied"),
])
def test_clausius_verdict_slack_scales_with_the_terms(margin, scale, verdict):
    assert core.clausius_verdict(margin, scale) == verdict


@pytest.mark.parametrize("margin, verdict", [
    (-1e299, "satisfied"),
    (-1e300, "violated"),
    (-1.6831683168316944e306, "violated"),
    (-math.inf, "violated"),
])
def test_clausius_verdict_slack_stays_finite_for_huge_terms(margin, verdict):
    """Terms whose sum overflows still give a finite slack, 1e-9 of their
    summed size, so a finite deficit beyond it reads violated."""
    assert core.clausius_verdict(margin, 1.7e308, 1.7e308) == verdict


def test_amplifier_with_huge_terms_and_no_work_is_violated():
    from infotherm import fiber

    audit = fiber.amplifier_entropy_balance(1.7e308, 1.01, 1.0, 0.0)
    assert audit.entropy_balance_k < -1e306
    assert audit.verdict is core.VIOLATED


@pytest.mark.parametrize("values", [(1.0,), (-1.0,), (core.NORMAL_MIN, -core.NORMAL_MIN),
                                    (1.7e308, -1.7e308), ()])
def test_require_normal_accepts_normal_numbers(values):
    core.require_normal({"x": 1.0}, "y", *values)


@pytest.mark.parametrize("value", [0.0, -0.0, 5e-324, -1e-310, math.inf, -math.inf, math.nan])
def test_require_normal_names_the_inputs(value):
    with pytest.raises(ValueError) as info:
        core.require_normal({"a": 1.0, "b*c": 2, "d": -3e-320}, "the thing", 1.0, value)
    assert str(info.value) == ("a = 1.0, b*c = 2 and d = -3e-320 make the thing round to 0, fall "
                               "below float64's normal range or overflow")
    with pytest.raises(ValueError) as info:
        core.require_normal({"a": 1.0}, "the thing", value)
    assert str(info.value).startswith("a = 1.0 makes the thing round to 0")


QUANTITIES = (core.Energy, core.Entropy, core.Temperature, core.Information)


@pytest.mark.parametrize("kind", QUANTITIES)
def test_quantity_is_a_float_without_a_dict(kind):
    quantity = kind(2.5)
    assert isinstance(quantity, float)
    assert quantity == 2.5
    assert not hasattr(quantity, "__dict__")
    assert type(quantity + 1.0) is float


@pytest.mark.parametrize("kind, value, message", [
    (core.Energy, -1.0, "energy must be non-negative"),
    (core.Energy, math.nan, "energy must be non-negative"),
    (core.Information, -1.0, "information must be non-negative"),
    (core.Information, math.nan, "information must be non-negative"),
    (core.Temperature, 0.0, "zero temperature is an error, not a value"),
    (core.Temperature, -0.0, "zero temperature is an error, not a value"),
])
def test_quantity_domain_errors(kind, value, message):
    with pytest.raises(ValueError) as info:
        kind(value)
    assert str(info.value) == message


def test_quantities_of_different_types_compare_as_floats():
    """Quantities are the numbers they hold: a unit type is not part of
    equality."""
    assert core.Energy(1.0) == core.Entropy(1.0) == 1.0
    assert hash(core.Temperature(3.0)) == hash(3.0)


@pytest.mark.parametrize("kind", QUANTITIES)
@given(value=st.floats(min_value=1e-300, max_value=1e300))
def test_quantity_renders_as_its_float(kind, value):
    """A report prints and serialises a quantity exactly as its float."""
    report = cli.Report("probe", core.SI, {"given": kind(value)})
    report.add("result", kind(value))
    plain = cli.Report("probe", core.SI, {"given": value})
    plain.add("result", value, report.results["result"]["unit"])
    assert report.to_text() == plain.to_text()
    assert report.to_json() == plain.to_json()
    assert json.loads(report.to_json())["results"]["result"]["value"] == value

