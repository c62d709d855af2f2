"""Computing-power bounds from power and noise temperature.

A device emitting or absorbing bits at rate f under power P runs at
T = P / (k f ln 2). Keeping that temperature a safety margin above the
ambient noise temperature caps the bit rate at

    f_max = P / (margin * k * T_n * ln 2)

At margin 1 the energy per bit is exactly k T_n ln 2, the minimum
dissipation per elementary logical operation. The margin defaults to 10,
a rule of thumb rather than a derived constant, so it is a parameter.

Everything here is SI only; the bound is meaningless in reduced units.
Inputs whose denominator or result leaves float64's normal range (it
rounds to 0, is subnormal or overflows) are input errors.
"""

from __future__ import annotations

from .core import K_BOLTZMANN_SI, LN2, Energy, Temperature, _require_positive, require_normal

DEFAULT_MARGIN = 10.0


def _ratio(numerator: float, denominator: float, inputs: dict) -> float:
    """numerator / denominator, both positive, where the denominator and
    the quotient are normal float64 numbers; otherwise a ValueError that
    names the ``inputs``."""
    what = "a denominator or result of the bound"
    require_normal(inputs, what, denominator)
    quotient = numerator / denominator
    require_normal(inputs, what, quotient)
    return quotient


def _check_margin(margin: float) -> None:
    if not margin >= 1:
        raise ValueError("margin must be at least 1")


def device_temperature(power_w: float, bit_rate_hz: float) -> Temperature:
    """Temperature of an emitter/receiver: T = P / (k f ln 2), kelvin."""
    _require_positive(power=power_w, bit_rate=bit_rate_hz)
    return Temperature(_ratio(power_w, K_BOLTZMANN_SI * bit_rate_hz * LN2,
                              {"power": power_w, "bit_rate": bit_rate_hz}))


def max_bit_rate(power_w: float, noise_temperature_k: float, margin: float = DEFAULT_MARGIN) -> float:
    """Upper bound on bit rate: f_max = P / (margin k T_n ln 2), 1/s.

    By construction device_temperature(P, f_max) = margin * T_n. Inputs
    for which that temperature or energy_per_bit(P, f_max) leaves float64's
    normal range are input errors here, named as the caller gave them.
    """
    _require_positive(power=power_w, noise_temperature=noise_temperature_k)
    _check_margin(margin)
    inputs = {"power": power_w, "noise_temp": noise_temperature_k, "margin": margin}
    f_max = _ratio(power_w, margin * K_BOLTZMANN_SI * noise_temperature_k * LN2, inputs)
    for denominator in (K_BOLTZMANN_SI * f_max * LN2, f_max):
        _ratio(power_w, denominator, inputs)
    return f_max


def energy_per_bit(power_w: float, bit_rate_hz: float) -> Energy:
    """Energy spent per bit, P/f, in joules."""
    _require_positive(power=power_w, bit_rate=bit_rate_hz)
    return Energy(_ratio(power_w, bit_rate_hz, {"power": power_w, "bit_rate": bit_rate_hz}))
