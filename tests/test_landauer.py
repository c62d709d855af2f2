"""Device temperature and the computing-power bound."""

import pytest

from infotherm.core import K_BOLTZMANN_SI, LN2, Energy
from infotherm.landauer import (
    device_temperature,
    energy_per_bit,
    max_bit_rate,
)

# 1e-12 / (1.380649e-23 * 1e9 * ln 2), frozen by independent arithmetic
T_PICOWATT_GBIT = 104.49397644795768
# 1e-9 / (10 * 1.380649e-23 * 300 * ln 2)
F_MAX_NW_300K = 34831325482.652565


def test_device_temperature_value():
    assert float(device_temperature(1e-12, 1e9)) == pytest.approx(T_PICOWATT_GBIT, rel=1e-12)


def test_device_temperature_linearities():
    base = float(device_temperature(1e-12, 1e9))
    assert float(device_temperature(2e-12, 1e9)) == pytest.approx(2 * base, rel=1e-12)
    assert float(device_temperature(1e-12, 2e9)) == pytest.approx(base / 2, rel=1e-12)


def test_max_bit_rate_value():
    assert max_bit_rate(1e-9, 300.0, 10.0) == pytest.approx(F_MAX_NW_300K, rel=1e-12)
    assert max_bit_rate(1e-9, 300.0, 10.0) == pytest.approx(3.483e10, rel=1e-3)


def test_consistency_identity():
    """Running at f_max puts the device exactly margin * T_n hot."""
    for power, t_n, margin in [(1e-9, 300.0, 10.0), (2.5e-6, 77.0, 3.0), (1.0, 4.2, 1.0)]:
        f = max_bit_rate(power, t_n, margin)
        assert float(device_temperature(power, f)) == pytest.approx(margin * t_n, rel=1e-12)


def test_margin_one_gives_landauer_floor():
    """At margin 1 the energy per bit is exactly k T_n ln 2."""
    f = max_bit_rate(1e-9, 300.0, margin=1.0)
    assert energy_per_bit(1e-9, f) == pytest.approx(K_BOLTZMANN_SI * 300.0 * LN2, rel=1e-12)


def test_rate_vanishes_with_power():
    assert max_bit_rate(1e-30, 300.0) < 1e-6


def test_input_validation():
    with pytest.raises(ValueError, match="power"):
        device_temperature(0.0, 1e9)
    with pytest.raises(ValueError, match="bit rate"):
        device_temperature(1e-9, 0.0)
    with pytest.raises(ValueError, match="noise temperature"):
        max_bit_rate(1e-9, -1.0)
    with pytest.raises(ValueError, match="margin"):
        max_bit_rate(1e-9, 300.0, margin=0.5)


@pytest.mark.parametrize("call, inputs", [
    (lambda: device_temperature(1e-9, 1e-320), ("power = 1e-09", "bit_rate = 1e-320")),
    (lambda: device_temperature(1e-300, 1e300), ("power = 1e-300", "bit_rate = 1e+300")),
    (lambda: device_temperature(1e300, 1e-300), ("power = 1e+300", "bit_rate = 1e-300")),
    (lambda: max_bit_rate(1e-9, 1e-320), ("power = 1e-09", "noise_temp = 1e-320", "margin = 10.0")),
    (lambda: max_bit_rate(1e300, 1e-300), ("power = 1e+300", "noise_temp = 1e-300")),
    (lambda: max_bit_rate(1e-300, 1e300, 1e10), ("noise_temp = 1e+300", "margin = 10000000000.0")),
    (lambda: max_bit_rate(1e-306, 300.0), ("power = 1e-306", "noise_temp = 300.0", "margin = 10.0")),
    (lambda: energy_per_bit(1e-9, 1e-320), ("power = 1e-09", "bit_rate = 1e-320")),
    (lambda: energy_per_bit(1e300, 1e-300), ("power = 1e+300", "bit_rate = 1e-300")),
    (lambda: energy_per_bit(1e-300, 1e300), ("power = 1e-300", "bit_rate = 1e+300")),
], ids=["temperature-subnormal-rate", "temperature-underflow", "temperature-overflow",
        "rate-subnormal-noise", "rate-overflow", "rate-underflow", "temperature-at-rate-underflow",
        "energy-subnormal-rate", "energy-overflow", "energy-underflow"])
def test_bound_outside_the_normal_range_is_an_input_error(call, inputs):
    """A denominator or result that rounds to 0, is subnormal or overflows
    is a ValueError naming the inputs, never a ZeroDivisionError, a zero
    temperature or an infinite one."""
    with pytest.raises(ValueError, match="normal range") as info:
        call()
    for text in inputs:
        assert text in str(info.value)


def test_bound_at_the_edge_of_the_normal_range():
    """A normal denominator and quotient pass through unchanged."""
    tiny = 2.2250738585072014e-308  # the smallest normal float64
    assert energy_per_bit(tiny, 1.0) == tiny
    assert energy_per_bit(1.0, tiny) == 1.0 / tiny


def test_energy_per_bit_is_an_energy():
    assert type(energy_per_bit(1e-12, 1e9)) is Energy
