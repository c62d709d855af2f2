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
    """The verdicts and the Clausius slack are ``core``'s objects wherever
    they are read, so a ledger need not load ``twolevel``."""
    from infotherm import fiber, ledger, twolevel

    for module in (twolevel, ledger, fiber):
        assert module.SATISFIED is core.SATISFIED
        assert module.VIOLATED is core.VIOLATED
        assert module.CLAUSIUS_TOL_K is core.CLAUSIUS_TOL_K


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

