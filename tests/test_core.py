"""Unit conversions, quantity types, and mode consistency."""

import math

import pytest
from hypothesis import given, strategies as st

from infotherm import core


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
