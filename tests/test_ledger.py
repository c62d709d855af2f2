"""Broadcast balance, informatic Clausius check, and the combined ledger."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from infotherm import core
from infotherm.bitstream import GeneratorSpec, analyze, generate
from infotherm.ledger import broadcast_balance, clausius_check, combined_balance

LN2 = math.log(2)
H_Q01 = 0.3250829733914482


def random_stats(length=4096, seed=11, markov_order=3):
    return analyze(generate(GeneratorSpec(kind="bernoulli", length=length, seed=seed, p=0.5)),
                   markov_order=markov_order)


def test_broadcast_random_file_worked_value():
    """L = 100 random file to 3 receivers gains 200 ln 2 of entropy."""
    stats = analyze(generate(GeneratorSpec(kind="bernoulli", length=100, seed=3, p=0.5)),
                    markov_order=0)
    assert stats.equilibrium == "random"
    result = broadcast_balance(stats, 1.0, 3)
    assert float(result.net_gain) == pytest.approx(200 * LN2, rel=1e-12)


def test_broadcast_temperatures():
    stats = random_stats()
    result = broadcast_balance(stats, 1.0, 4)
    assert float(result.t_hot) == pytest.approx(1 / (2 * LN2), rel=1e-12)
    assert float(result.t_cold) * 4 == pytest.approx(float(result.t_hot), rel=1e-12)


def test_broadcast_single_receiver_no_gain():
    result = broadcast_balance(random_stats(), 1.0, 1)
    assert float(result.net_gain) == 0.0


def test_broadcast_gain_independent_of_epsilon():
    """The temperature cancels: the gain is pure information bookkeeping."""
    stats = random_stats()
    gains = {float(broadcast_balance(stats, eps, 3).net_gain) for eps in (0.5, 1.0, 2.0)}
    assert len(gains) == 1


def test_broadcast_gain_monotone_in_receivers():
    stats = random_stats()
    gains = [float(broadcast_balance(stats, 1.0, n).net_gain) for n in range(1, 8)]
    assert all(b > a for a, b in zip(gains, gains[1:]))


def test_broadcast_random_margin_zero():
    assert float(broadcast_balance(random_stats(), 1.0, 3).clausius_margin) == 0.0


def test_broadcast_markov_margin():
    """Correlated bits carry less information than their energy accounts for."""
    length = 2**20
    stats = analyze(generate(GeneratorSpec(kind="markov", length=length, seed=7, q=0.1)))
    assert stats.equilibrium == "ordered"
    result = broadcast_balance(stats, 1.0, 2)
    margin_per_bit = float(result.clausius_margin) / length
    assert margin_per_bit == pytest.approx(LN2 - H_Q01, abs=0.005)
    assert margin_per_bit > 0


def test_broadcast_ordered_corpora_margin():
    for kind in ("ordered_block", "alternating"):
        stats = analyze(generate(GeneratorSpec(kind=kind, length=2**20)))
        result = broadcast_balance(stats, 1.0, 2)
        assert float(result.clausius_margin) / 2**20 >= 0.68


def test_broadcast_nonrandom_penalty_breadth():
    """Every correlated corpus pays a positive margin; fair coins pay none."""
    length = 2**20
    for q in (0.05, 0.2, 0.3, 0.45):
        stats = analyze(generate(GeneratorSpec(kind="markov", length=length, seed=29, q=q)))
        assert float(broadcast_balance(stats, 1.0, 2).clausius_margin) > 0
    fair = analyze(generate(GeneratorSpec(kind="bernoulli", length=length, seed=29, p=0.5)))
    margin = float(broadcast_balance(fair, 1.0, 2).clausius_margin)
    assert margin / length < 0.01


def test_broadcast_rejects_bad_inputs():
    stats = random_stats()
    with pytest.raises(ValueError, match="receiver count"):
        broadcast_balance(stats, 1.0, 0)
    with pytest.raises(ValueError, match="positive"):
        broadcast_balance(stats, 0.0, 2)


@pytest.mark.parametrize("epsilon, receivers, message", [
    (0.0, 3, "bit energy must be positive"),
    (0.0, 0, "receiver count must be at least 1"),
])
def test_broadcast_rejection_messages(epsilon, receivers, message):
    """Each message is pinned, and the receiver count is checked first."""
    with pytest.raises(ValueError) as info:
        broadcast_balance(random_stats(), epsilon, receivers)
    assert str(info.value) == message


def test_broadcast_requires_estimate_for_nonrandom():
    """Ordered stream too short for the order-k rate: explicit failure."""
    stats = analyze(generate(GeneratorSpec(kind="alternating", length=256)), markov_order=3)
    assert stats.info_rate_markov is None
    with pytest.raises(ValueError, match="too short"):
        broadcast_balance(stats, 1.0, 2)


def test_clausius_check_equality():
    check = clausius_check(10.0, 10.0)
    assert check.verdict == "satisfied"
    assert check.margin_k == 0.0


def test_clausius_check_violated():
    check = clausius_check(5.0, 10.0)
    assert check.verdict == "violated"
    assert check.margin_k == -5.0


def test_clausius_check_broadcast_substitution():
    """Receivers absorbing N*dI against entropy N*k*dI sit at equality."""
    n, info = 3, 100 * LN2
    check = clausius_check(n * info, n * info)
    assert check.verdict == "satisfied"
    assert check.margin_k == 0.0


def test_combined_balance_null_process():
    result = combined_balance(0.0, 1.0, 0.0, 0.0)
    assert result.verdict == "satisfied"
    assert float(result.entropy_lower_bound) == 0.0


def test_combined_balance_reversible_thermal_dump():
    result = combined_balance(2.0, 1.0, 0.0, 2.0)
    assert result.verdict == "satisfied"
    assert float(result.entropy_lower_bound) == pytest.approx(2.0, rel=1e-12)


def test_combined_balance_violated():
    result = combined_balance(1.0, 1.0, LN2, 1.5)
    assert result.verdict == "violated"
    assert float(result.entropy_lower_bound) == pytest.approx(1.0 + LN2, rel=1e-12)


def test_combined_balance_si_mode():
    """Heat in joules at kelvin: dQ/(kT) k-units plus the information term."""
    q, t = 4.141947e-21, 300.0
    result = combined_balance(q, t, 1.0, 10.0, core.SI)
    expected = q / (core.K_BOLTZMANN_SI * t) + 1.0
    assert float(result.entropy_lower_bound) == pytest.approx(expected, rel=1e-12)


def test_combined_balance_rejects_nonpositive_temperature():
    with pytest.raises(ValueError, match="temperature"):
        combined_balance(1.0, 0.0, 0.0, 0.0)


def test_clausius_check_rejects_a_margin_that_overflows():
    with pytest.raises(ValueError, match=r"entropy = 1e\+308 and info = -1e\+308 .*overflow"):
        clausius_check(1e308, -1e308)


@pytest.mark.parametrize("args", [(1.0, 1e-320, 1.0, 1.0), (0.0, 1e-310, 1.0, 1.0, core.SI)],
                         ids=["bound-overflow", "si-kt-underflow"])
def test_combined_balance_rejects_a_bound_that_is_not_finite(args):
    with pytest.raises(ValueError, match=r"heat = .*temperature = .*info = .*overflow"):
        combined_balance(*args)


def test_combined_balance_rejects_a_heat_entropy_below_the_normal_range():
    """A nonzero heat/(kT) that underflows is an input error; zero heat is not."""
    with pytest.raises(ValueError, match=r"heat = 1e-300, temperature = 10000000000.0 .*normal range"):
        combined_balance(1e-300, 1e10, 0.0, 0.0)
    assert combined_balance(0.0, 1e10, 0.0, 0.0).entropy_lower_bound == 0.0


def test_margin_is_an_entropy():
    assert type(clausius_check(5.0, 10.0).margin_k) is core.Entropy


@settings(max_examples=300, deadline=None)
@given(heat=st.floats(1e6, 1e9), temperature=st.floats(0.1, 100.0), info=st.floats(0.0, 100.0),
       consts=st.sampled_from([core.REDUCED, core.SI]))
@example(heat=151465807.59950042, temperature=6.385120517023365, info=8.680453071432968,
         consts=core.REDUCED)
def test_combined_balance_at_the_exact_bound_is_satisfied(heat, temperature, info, consts):
    """An entropy equal to the correctly rounded bound heat/(kT) + info
    satisfies the ledger; one short of it by more than the slack does not."""
    if consts is core.SI:
        heat *= core.K_BOLTZMANN_SI
    kt = consts.k_boltzmann * temperature
    exact = float(Fraction(heat) / Fraction(kt) + Fraction(info))
    assert combined_balance(heat, temperature, info, exact, consts).verdict == "satisfied"
    short = exact - 3 * core.CLAUSIUS_TOL_K * (heat / kt + info)
    assert combined_balance(heat, temperature, info, short, consts).verdict == "violated"


@pytest.mark.parametrize("equilibrium, rate, verdict", [
    ("random", None, "satisfied"), ("ordered", 0.5, "satisfied"), ("ordered", 0.8, "violated"),
])
def test_broadcast_verdict_audits_the_margin(equilibrium, rate, verdict):
    """The verdict compares dI with the L ln 2 the receivers' heat carries:
    satisfied for a random file or a lower rate, violated above ln 2."""
    stats = random_stats()._replace(equilibrium=equilibrium, info_rate_markov=rate)
    result = broadcast_balance(stats, 1.0, 3)
    assert result.verdict == verdict


def test_broadcast_verdict_allows_for_rounding_at_a_large_file():
    """A rate one ulp above ln 2 on 2^40 bits is rounding, not a violation,
    although its margin is far beyond an absolute 1e-9."""
    stats = random_stats()._replace(length=2**40, ones=2**39, equilibrium="ordered",
                                    info_rate_markov=math.nextafter(LN2, 1.0))
    result = broadcast_balance(stats, 1.0, 7)
    assert -1e-3 < result.clausius_margin < -1e-9
    assert result.verdict == "satisfied"


@pytest.mark.parametrize("epsilon, receivers", [(1e-320, 3), (1e-306, 1000), (1e-300, 10**300)],
                         ids=["hot-subnormal", "cold-subnormal", "cold-underflow"])
def test_broadcast_rejects_a_temperature_outside_the_normal_range(epsilon, receivers):
    with pytest.raises(ValueError, match=re.escape(f"epsilon = {epsilon!r}") + ".*normal range"):
        broadcast_balance(random_stats(), epsilon, receivers)
