"""Two-level gas: multiplicity, entropies, temperatures, transfer, Metropolis."""

import math
import re
from decimal import Decimal, localcontext
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from infotherm import core, twolevel
from infotherm.rng import uniforms
from infotherm.twolevel import (
    InfiniteTemperatureError,
    McConfig,
    McResult,
    TwoLevelGas,
    entropy_exact,
    entropy_stirling,
    log_multiplicity,
    metropolis_sample,
    occupation_from_temperature,
    temperature_closed,
    temperature_numeric,
    transfer_balance,
)

# ln C(1000, 500) frozen from an independent high-precision sum of log
# terms (math.fsum of ln((500+i)/i)); the integer-comb route agrees.
LN_C_1000_500 = 689.4672615678512


def brute_force_multiplicity(length, excited):
    """Count placements of ``excited`` ones in ``length`` sites by enumeration."""
    return sum(1 for _ in combinations(range(length), excited))


def test_log_multiplicity_fig_example():
    """L=6, n=2 has 15 placements; ln 15 to 1e-12."""
    assert brute_force_multiplicity(6, 2) == 15
    assert log_multiplicity(6, 2) == pytest.approx(math.log(15), rel=1e-12)


def test_log_multiplicity_trivial_cases():
    assert log_multiplicity(10, 0) == 0.0
    assert log_multiplicity(10, 10) == 0.0
    assert log_multiplicity(1, 0) == 0.0


def test_log_multiplicity_large():
    assert log_multiplicity(1000, 500) == pytest.approx(LN_C_1000_500, rel=1e-12)


def test_log_multiplicity_matches_enumeration_to_l12():
    """Exact integer agreement with brute-force counts (rounded exp)."""
    for length in range(1, 13):
        for excited in range(length + 1):
            expected = brute_force_multiplicity(length, excited)
            assert round(math.exp(log_multiplicity(length, excited))) == expected


def test_log_multiplicity_rejects_out_of_range():
    with pytest.raises(ValueError, match="excited count"):
        log_multiplicity(5, 6)
    with pytest.raises(ValueError, match="excited count"):
        log_multiplicity(5, -1)
    with pytest.raises(ValueError, match="state count"):
        log_multiplicity(0, 0)


@given(st.integers(min_value=1, max_value=10**6), st.data())
def test_log_multiplicity_symmetry(length, data):
    """ln W(L, n) = ln W(L, L-n) exactly, up to L = 10^6."""
    excited = data.draw(st.integers(min_value=0, max_value=length))
    assert log_multiplicity(length, excited) == log_multiplicity(length, length - excited)


def test_entropy_exact_values():
    assert float(entropy_exact(TwoLevelGas(6, 2))) == pytest.approx(math.log(15), rel=1e-12)
    assert float(entropy_exact(TwoLevelGas(10, 0))) == 0.0
    assert float(entropy_exact(TwoLevelGas(10, 10))) == 0.0


@given(st.integers(min_value=1, max_value=500), st.data())
def test_entropy_symmetry(length, data):
    """S(L, n) = S(L, L-n) exactly."""
    excited = data.draw(st.integers(min_value=0, max_value=length))
    assert float(entropy_exact(TwoLevelGas(length, excited))) == float(
        entropy_exact(TwoLevelGas(length, length - excited))
    )


def test_entropy_monotone_up_to_half():
    """Entropy rises strictly to n = L/2 then falls, for every L <= 200."""
    for length in range(2, 201):
        values = [log_multiplicity(length, n) for n in range(length + 1)]
        for n in range(length):
            if n + 1 <= length / 2:
                assert values[n + 1] > values[n]
            elif n >= length / 2:
                assert values[n + 1] < values[n]


def test_entropy_stirling_half_filled():
    gas = TwoLevelGas(1000, 500)
    assert float(entropy_stirling(gas)) == pytest.approx(1000 * math.log(2), rel=1e-12)
    rel = (float(entropy_stirling(gas)) - float(entropy_exact(gas))) / float(entropy_exact(gas))
    assert rel == pytest.approx(5.3e-3, rel=0.02)


def test_entropy_stirling_rejects_boundary():
    with pytest.raises(ValueError, match="undefined"):
        entropy_stirling(TwoLevelGas(10, 0))
    with pytest.raises(ValueError, match="undefined"):
        entropy_stirling(TwoLevelGas(10, 10))


@given(
    length=st.one_of(st.integers(min_value=1, max_value=10**20), st.integers(min_value=1, max_value=10**6)),
    m=st.integers(min_value=0, max_value=3000),
    mirror=st.booleans(),
)
@example(length=10**20, m=3, mirror=False)
@example(length=10**20, m=3000, mirror=True)
@example(length=64, m=1, mirror=False)  # 64 m = L: the log-gamma difference
@example(length=65, m=1, mirror=True)  # 64 m < L: the expansion
@example(length=192_001, m=3000, mirror=False)
@settings(max_examples=200)
def test_log_multiplicity_matches_integer_binomial(length, m, mirror):
    """ln C(L, m) to 1e-12 relative against math.comb, also for m << L,
    where the log-gamma difference would cancel to nothing."""
    m = min(m, length)
    excited = length - m if mirror else m
    assert log_multiplicity(length, excited) == pytest.approx(math.log(math.comb(length, m)), rel=1e-12)


def stirling_oracle(length, m):
    """m ln(L/m) + (L-m) ln(L/(L-m)) to 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        big, small = Decimal(length), Decimal(m)
        return float(small * (big / small).ln() + (big - small) * (big / (big - small)).ln())


@given(
    length=st.integers(min_value=2, max_value=10**20),
    m=st.integers(min_value=1, max_value=3000),
    mirror=st.booleans(),
)
@example(length=10**20, m=3, mirror=False)
@example(length=64, m=1, mirror=True)
@example(length=65, m=1, mirror=False)
def test_entropy_stirling_keeps_its_digits(length, m, mirror):
    m = min(m, length - 1)
    gas = TwoLevelGas(length, length - m if mirror else m)
    assert float(entropy_stirling(gas)) == pytest.approx(stirling_oracle(length, m), rel=1e-12)


def test_temperature_numeric_at_huge_length():
    """n = 1 of L = 10^23: the central difference is 2 / ln C(L, 2), not
    the 1.86e-9 a cancelled log-gamma difference gives."""
    length = 10**23
    expected = 2.0 / math.log(math.comb(length, 2))
    assert float(temperature_numeric(TwoLevelGas(length, 1))) == pytest.approx(expected, rel=1e-12)


def test_temperature_closed_value():
    gas = TwoLevelGas(1000, 100)
    assert float(temperature_closed(gas)) == pytest.approx(1 / math.log(9), rel=1e-12)


def test_temperature_closed_inverted_population():
    assert float(temperature_closed(TwoLevelGas(1000, 900))) == pytest.approx(
        -1 / math.log(9), rel=1e-12
    )


def test_temperature_closed_rejects_half_filled():
    with pytest.raises(InfiniteTemperatureError):
        temperature_closed(TwoLevelGas(1000, 500))


def test_temperature_closed_diverges_where_the_log_ratio_rounds_to_zero():
    """Past 2^53 states, (L-n)/n can round to 1 with n != L/2: the
    temperature diverges there instead of dividing by zero."""
    with pytest.raises(InfiniteTemperatureError, match="rounds to 0"):
        temperature_closed(TwoLevelGas(2**60, 2**59 - 1))


def test_temperature_closed_rejects_degenerate():
    with pytest.raises(ValueError, match="ground/saturated"):
        temperature_closed(TwoLevelGas(10, 0))
    with pytest.raises(ValueError, match="ground/saturated"):
        temperature_closed(TwoLevelGas(10, 10))


def test_temperature_numeric_matches_closed():
    gas = TwoLevelGas(10**4, 10**3)
    t_num = float(temperature_numeric(gas))
    t_cls = float(temperature_closed(gas))
    assert t_num == pytest.approx(t_cls, rel=1e-3)
    assert t_cls == pytest.approx(0.45512, abs=1e-5)


def test_temperature_numeric_inverted_branch():
    gas = TwoLevelGas(10**4, 9 * 10**3)
    assert float(temperature_numeric(gas)) == pytest.approx(-0.45512, rel=1e-3)


def test_temperature_numeric_rejects_symmetric_point():
    with pytest.raises(InfiniteTemperatureError):
        temperature_numeric(TwoLevelGas(20, 10))


def test_temperature_numeric_diverges_where_the_entropy_difference_rounds_to_zero():
    """In a gas of 10^17 states, ln W(n+1) and ln W(n-1) round to the same
    float at n = L/2 - 1, though 2n != L: the temperature diverges there
    instead of dividing by zero."""
    with pytest.raises(InfiniteTemperatureError, match="entropy difference vanished"):
        temperature_numeric(TwoLevelGas(10**17, 10**17 // 2 - 1))


def test_temperature_numeric_rejects_boundary():
    with pytest.raises(ValueError, match="boundary"):
        temperature_numeric(TwoLevelGas(100, 0))
    with pytest.raises(ValueError, match="too small"):
        temperature_numeric(TwoLevelGas(3, 1))


@pytest.mark.parametrize("temperature, excited, epsilon, consts", [
    (temperature_closed, 100, 1e-320, core.REDUCED),
    (temperature_closed, 900, 1e-320, core.REDUCED),
    (temperature_closed, 100, 1e300, core.SI),
    (temperature_numeric, 100, 1e-320, core.REDUCED),
    (temperature_numeric, 100, 1e308, core.REDUCED),
], ids=["closed-subnormal", "closed-inverted-subnormal", "closed-si-overflow",
        "numeric-subnormal", "numeric-overflow"])
def test_temperature_outside_the_normal_range_is_an_input_error(temperature, excited, epsilon,
                                                                 consts):
    names = f"length = 1000, excited = {excited} and epsilon = {epsilon!r}"
    with pytest.raises(ValueError, match=re.escape(names) + ".*normal range"):
        temperature(TwoLevelGas(1000, excited, epsilon), consts)


def test_temperature_mode_consistency():
    """si-mode temperature is the reduced one scaled by epsilon/k."""
    eps_j = 2.5e-21
    t_si = float(temperature_closed(TwoLevelGas(1000, 100, epsilon=eps_j), core.SI))
    t_red = float(temperature_closed(TwoLevelGas(1000, 100), core.REDUCED))
    assert t_si == pytest.approx(t_red * eps_j / core.K_BOLTZMANN_SI, rel=1e-12)


def test_occupation_from_temperature_value():
    assert occupation_from_temperature(1000, 1.0, 1.0) == pytest.approx(
        1000 / (1 + math.e), rel=1e-12
    )


def test_occupation_limits():
    assert occupation_from_temperature(1000, 1.0, 1e12) == pytest.approx(500.0, rel=1e-9)
    assert occupation_from_temperature(1000, 1.0, 1e-12) == 0.0
    assert occupation_from_temperature(1000, 1.0, -1e-12) == 1000.0
    for t in (1e-320, 5e-324):  # k_B T rounds to 0 in SI units: the same limits
        assert core.K_BOLTZMANN_SI * t == 0.0
        assert occupation_from_temperature(1000, 2.87e-21, t, core.SI) == 0.0
        assert occupation_from_temperature(1000, 2.87e-21, -t, core.SI) == 1000.0


def test_occupation_rejects_zero_temperature():
    with pytest.raises(ValueError, match="zero temperature"):
        occupation_from_temperature(1000, 1.0, 0.0)


@given(st.integers(min_value=100, max_value=10**6), st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=200)
def test_occupation_temperature_round_trip(length, frac):
    """occupation_from_temperature inverts temperature_closed to 1e-9."""
    excited = round(frac * length)
    if excited in (0, length) or 2 * excited == length:
        return
    t = temperature_closed(TwoLevelGas(length, excited))
    back = occupation_from_temperature(length, 1.0, t)
    assert back == pytest.approx(excited, rel=1e-9)


def test_transfer_balance_worked_value():
    rec = transfer_balance(1000, 300, 100)
    expected = 300 * (math.log(9) - math.log(7 / 3))
    assert float(rec.net) == pytest.approx(expected, rel=1e-12)
    assert float(rec.net) == pytest.approx(404.96, rel=1e-3)
    assert float(rec.gas_heat) == 300.0
    assert rec.verdict == "satisfied"


def test_transfer_balance_reversible_equals_bound():
    rec = transfer_balance(1000, 300, 100)
    assert abs(float(rec.net) - float(rec.clausius_lower_bound)) < 1e-9


def test_transfer_balance_verdict_can_fail(monkeypatch):
    """The bound comes from the bath temperatures, not from the net change:
    a cold bath reported at half its occupation temperature takes in twice
    dQ/T, more than the gas's entropy change, and the verdict fails."""
    def halved_for_cold_bath(gas, consts=core.REDUCED):
        t = temperature_closed(gas, consts)
        return core.Temperature(float(t) / 2) if gas.excited == 100 else t

    monkeypatch.setattr(twolevel, "temperature_closed", halved_for_cold_bath)
    rec = transfer_balance(1000, 300, 100)
    assert float(rec.clausius_lower_bound) > float(rec.net) + 1
    assert rec.verdict == "violated"


@pytest.mark.parametrize("epsilon", [1.0, 0.37])
def test_transfer_balance_violation_seen_at_large_length(monkeypatch, epsilon):
    """The slack scales with the dQ/T terms, but stays far below a real
    violation of the size of the terms themselves."""
    def halved_for_cold_bath(gas, consts=core.REDUCED):
        t = temperature_closed(gas, consts)
        return core.Temperature(float(t) / 2) if gas.excited == 10**11 else t

    monkeypatch.setattr(twolevel, "temperature_closed", halved_for_cold_bath)
    rec = transfer_balance(10**12, 3 * 10**11, 10**11, epsilon)
    assert rec.verdict == "violated"


@pytest.mark.parametrize("length, n_hot, n_cold", [
    (10**8, 3 * 10**7, 10**7),
    (10**12, 3 * 10**11, 10**11),
    (10**18 + 1, 5 * 10**17, 3),
    (2**60, 2**59 - 1, 2**59 - 3),  # (L-n)/n rounds to 1: both baths at infinite T
])
@pytest.mark.parametrize("epsilon", [1.0, 0.37, 5e-324, 1e-290, 1e-21, 1e290, 1e308])
def test_transfer_balance_reversible_satisfied_at_any_scale(length, n_hot, n_cold, epsilon):
    """The reversible transfer is satisfied for lengths where one ulp of a
    dQ/T term exceeds CLAUSIUS_TOL_K, and for level energies whose
    temperature would underflow; a heat that leaves float64's normal range
    is an input error."""
    if not core.NORMAL_MIN <= n_hot * epsilon < math.inf:
        with pytest.raises(ValueError, match=r"make the heat n_hot\*epsilon round to 0"):
            transfer_balance(length, n_hot, n_cold, epsilon)
        return
    rec = transfer_balance(length, n_hot, n_cold, epsilon)
    assert rec.verdict == "satisfied"
    assert float(rec.clausius_lower_bound) == pytest.approx(float(rec.net), rel=1e-12, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 10**18), st.data(),
       st.sampled_from([1.0, 0.37, 5.0, 1e-290, 1e290]))
def test_transfer_balance_bound_within_slack(length, data, epsilon):
    a = data.draw(st.integers(1, length - 1))
    b = data.draw(st.integers(1, length - 1))
    rec = transfer_balance(length, max(a, b), min(a, b), epsilon)
    assert rec.verdict == "satisfied"
    scale = max(1.0, abs(float(rec.entropy_added_cold)) + abs(float(rec.entropy_removed_hot)))
    assert abs(float(rec.net) - float(rec.clausius_lower_bound)) <= 1e-14 * scale


def test_transfer_balance_identical_baths():
    rec = transfer_balance(1000, 250, 250)
    assert float(rec.net) == 0.0
    assert rec.verdict == "satisfied"


def test_transfer_balance_rejects_wrong_ordering():
    with pytest.raises(ValueError, match="n_cold <= n_hot"):
        transfer_balance(1000, 100, 300)


def test_transfer_balance_rejects_degenerate():
    with pytest.raises(ValueError, match="strictly between"):
        transfer_balance(1000, 1000, 100)
    with pytest.raises(ValueError, match="strictly between"):
        transfer_balance(1000, 300, 0)


@given(
    st.integers(min_value=3, max_value=400),
    st.integers(min_value=1, max_value=399),
    st.integers(min_value=1, max_value=399),
)
@settings(max_examples=300)
def test_transfer_balance_net_never_negative(length, a, b):
    """Clausius positivity on arbitrary valid occupation pairs."""
    n_hot, n_cold = max(a % length, b % length), min(a % length, b % length)
    if n_cold < 1 or n_hot > length - 1:
        return
    assert float(transfer_balance(length, n_hot, n_cold).net) >= 0.0


def test_mcconfig_validation():
    with pytest.raises(ValueError, match="burn_in"):
        McConfig(steps=100, burn_in=100, seed=1, kT=1.0)
    with pytest.raises(ValueError, match="kT"):
        McConfig(steps=100, burn_in=10, seed=1, kT=0.0)
    with pytest.raises(ValueError, match="steps"):
        McConfig(steps=0, burn_in=0, seed=1, kT=1.0)


def test_metropolis_matches_occupation_law():
    """Small-scale chain lands within 3 standard errors of the analytic mean."""
    cfg = McConfig(steps=200_000, burn_in=20_000, seed=11, kT=1.0)
    res = metropolis_sample(1000, 1.0, cfg)
    target = 1000 / (1 + math.e)
    assert abs(res.mean_n - target) <= 3 * res.std_error
    assert res.std_error > 0


def test_metropolis_deterministic_for_seed():
    cfg = McConfig(steps=50_000, burn_in=5_000, seed=42, kT=1.0)
    first = metropolis_sample(500, 1.0, cfg)
    second = metropolis_sample(500, 1.0, cfg)
    assert first.mean_n == second.mean_n
    assert first.std_error == second.std_error


def test_metropolis_frozen_ground_state():
    """kT -> 0: every excitation is rejected and the gas decays to n = 0."""
    cfg = McConfig(steps=200_000, burn_in=150_000, seed=5, kT=1e-12)
    res = metropolis_sample(1000, 1.0, cfg)
    assert res.mean_n == 0.0


def test_metropolis_example_run():
    cfg = McConfig(steps=10**6, burn_in=10**5, seed=42, kT=1.0)
    res = metropolis_sample(10**4, 1.0, cfg)
    assert res.mean_fraction(10**4) == pytest.approx(0.2689, abs=0.01)


def test_metropolis_rejects_small_system():
    cfg = McConfig(steps=100, burn_in=10, seed=1, kT=1.0)
    with pytest.raises(ValueError, match="at least 10"):
        metropolis_sample(5, 1.0, cfg)


def test_mcconfig_rejects_non_finite_kt():
    with pytest.raises(ValueError, match="kT must be finite"):
        McConfig(steps=100, burn_in=10, seed=1, kT=math.inf)
    with pytest.raises(ValueError, match="kT"):
        McConfig(steps=100, burn_in=10, seed=1, kT=math.nan)


def test_metropolis_rejects_length_beyond_exact_float():
    cfg = McConfig(steps=100, burn_in=10, seed=1, kT=1.0)
    assert metropolis_sample(2**53, 1.0, cfg).samples == 80
    with pytest.raises(ValueError, match="at most 2\\*\\*53"):
        metropolis_sample(2**53 + 1, 1.0, cfg)


def test_metropolis_rejects_non_finite_epsilon():
    cfg = McConfig(steps=100, burn_in=10, seed=1, kT=1.0)
    with pytest.raises(ValueError, match="level energy must be finite"):
        metropolis_sample(100, math.inf, cfg)
    with pytest.raises(ValueError, match="level energy"):
        metropolis_sample(100, math.nan, cfg)


# --- the per-step loop as the oracle for the windowed chain ---------------

_BATCHES = 20
_CHUNK = 1 << 16


def reference_metropolis_sample(length, epsilon, cfg):
    """The chain one step at a time, in plain Python."""
    if length < 10:
        raise ValueError("state count must be at least 10 for a meaningful chain")
    if not epsilon > 0:
        raise ValueError("level energy must be positive")
    x = epsilon / cfg.kT
    accept_excite = math.exp(-x) if x < 700.0 else 0.0

    n = length // 2
    kept = cfg.steps - cfg.burn_in
    batches = min(_BATCHES, kept)
    batch_len = kept // batches
    kept_used = batches * batch_len

    batch_sums = [0] * batches
    accepted = 0

    step = 0
    while step < cfg.steps:
        span = min(_CHUNK, cfg.steps - step)
        u = uniforms(cfg.seed, 2 * span, offset=2 * step).tolist()
        for i in range(span):
            if u[2 * i] * length < n:
                n -= 1  # de-excitation, always accepted
                accepted += 1
            elif u[2 * i + 1] < accept_excite:
                n += 1
                accepted += 1
            t = step + i + 1
            if t > cfg.burn_in:
                j = t - cfg.burn_in - 1
                if j < kept_used:
                    batch_sums[j // batch_len] += n
        step += span

    batch_means = np.array([s / batch_len for s in batch_sums])
    mean_n = float(batch_means.mean())
    if batches > 1:
        std_error = float(batch_means.std(ddof=1) / math.sqrt(batches))
    else:
        std_error = float("nan")
    return McResult(
        mean_n=mean_n,
        std_error=std_error,
        acceptance_rate=accepted / cfg.steps,
        samples=kept_used,
    )


def assert_identical(result, expected):
    """Whole-result equality; with one retained
    sample both standard errors must be NaN."""
    if math.isnan(expected.std_error):
        assert math.isnan(result.std_error)
        result, expected = result._replace(std_error=0.0), expected._replace(std_error=0.0)
    assert result == expected


@given(
    length=st.integers(min_value=10, max_value=10**5),
    kt=st.floats(min_value=0.01, max_value=100.0),
    steps=st.integers(min_value=1, max_value=3 * twolevel._CHUNK),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    burn_frac=st.floats(min_value=0.0, max_value=1.0),
)
@example(length=10, kt=1.0, steps=3 * twolevel._CHUNK, seed=7, burn_frac=0.1)
@example(length=10**4, kt=0.25, steps=2 * twolevel._CHUNK + 5, seed=8, burn_frac=0.6)
# batch sums past 2^53, where a float64 running sum would round, and past
# 2^63, where an int64 one would wrap: each batch sum must stay exact
@example(length=10**15, kt=1.0, steps=10**6, seed=3, burn_frac=0.0)
@example(length=2**53, kt=2.0, steps=3 * twolevel._CHUNK, seed=4, burn_frac=0.0)
@example(length=10**15, kt=100.0, steps=3 * twolevel._CHUNK, seed=1, burn_frac=0.1)
# the burn-in from L//2 widens the first window's band several times
@example(length=10**5, kt=0.05, steps=2 * twolevel._CHUNK + 3, seed=5, burn_frac=0.0)
# most steps fall in the band
@example(length=100, kt=0.5, steps=3 * twolevel._CHUNK, seed=6, burn_frac=0.2)
# the window edges: 8 retained steps, so batches of one step
@example(length=50, kt=1.0, steps=15, seed=10, burn_frac=0.5)
# 4,116 retained steps in batches of 205: a 16-step tail after the last edge
@example(length=10**4, kt=0.25, steps=twolevel._CHUNK + 39, seed=11, burn_frac=0.5)
# no burn-in and fewer steps than a window; batches of 51 and a 17-step tail
@example(length=1000, kt=1.0, steps=1037, seed=12, burn_frac=0.0)
# one retained sample: the standard error is NaN
@example(length=1000, kt=1.0, steps=100, seed=13, burn_frac=1.0)
@settings(max_examples=6, deadline=None)
def test_metropolis_matches_per_step_loop(length, kt, steps, seed, burn_frac):
    burn_in = min(steps - 1, int(burn_frac * steps))
    cfg = McConfig(steps=steps, burn_in=burn_in, seed=seed, kT=kt)
    assert_identical(metropolis_sample(length, 1.0, cfg), reference_metropolis_sample(length, 1.0, cfg))


@given(
    n=st.integers(min_value=8, max_value=10**6),
    reach=st.integers(min_value=1, max_value=4),
    steps=st.lists(st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=-8, max_value=8),
                             st.booleans()), min_size=32, max_size=300),
)
# two excitations go one state past the band n -/+ 1, two de-excitations
# come back: the rerun's band is the path's reach plus the margin
@example(n=100, reach=1, steps=[(3, 0, True)] * 2 + [(3, -1, False)] * 2 + [(3, 0, False)] * 28)
@settings(max_examples=200, deadline=None)
def test_window_band_edges_match_per_step_loop(n, reach, steps):
    """Site compares at and next to the band's edges n -/+ reach, n and
    the state before the step, from a band narrow enough that most windows
    rerun with a wider one. The solver also returns how many steps moved
    and the next band, the path's largest distance from n plus 8."""
    state, x, up, expected = n, [], [], []
    for anchor, half, rise in steps:
        xi = (n - reach, n, n + reach, state)[anchor] + half / 2
        if xi < state:
            state -= 1
        elif rise:
            state += 1
        x.append(xi)
        up.append(rise)
        expected.append(state)
    occ, moved, next_reach = twolevel._window_occupations(np.array(x), np.array(up), n, reach)
    assert occ.tolist() == expected
    assert moved == np.count_nonzero(np.diff(expected, prepend=n))
    assert next_reach == max(abs(s - n) for s in expected) + 8


@pytest.mark.parametrize("length, kt", [(10, 1.0), (10**4, 0.25)])
def test_metropolis_window_invariance(monkeypatch, length, kt):
    """The window size is internal: every size agrees exactly."""
    cfg = McConfig(steps=20_000, burn_in=3_000, seed=9, kT=kt)
    results = []
    for chunk in (1, 7, 1000, 2**14 - 1, twolevel._CHUNK, 2**16):
        monkeypatch.setattr(twolevel, "_CHUNK", chunk)
        results.append(metropolis_sample(length, 1.0, cfg))
    assert all(result == results[0] for result in results)
    assert_identical(results[0], reference_metropolis_sample(length, 1.0, cfg))


@given(
    words=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=64),
    length=st.integers(min_value=10, max_value=2**53),
    a=st.one_of(
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        st.floats(min_value=1e-12, max_value=700.0).map(lambda x: math.exp(-x)).filter(lambda a: a < 1.0),
        st.integers(min_value=1, max_value=2**53 - 1).map(lambda k: k * 2.0**-53),
    ),
)
@example(words=[0, 2**11 - 1, 2**64 - 1], length=2**53, a=0.5)
@example(words=[2**63, (2**52 - 1) << 11], length=10, a=1.0 - 2.0**-53)
@example(words=[0, 2**64 - 1], length=10**4, a=0.0)  # eps/kT >= 700
@example(words=[0, 2**64 - 1], length=10**4, a=1.0)  # exp(-eps/kT) rounds to 1
def test_metropolis_integer_forms_are_exact(words, length, a):
    """With w = output >> 11 and u = w 2^-53, the chain's integer forms
    equal the float compares of the per-step loop, in Python and numpy:
    float(w) (L 2^-53) == u L, and w < ceil(a 2^53) exactly when u < a."""
    scale = length * 2.0**-53
    threshold = math.ceil(a * 2.0**53)
    for word in words:
        w = word >> 11
        assert float(w) * scale == (w * 2.0**-53) * length
        assert (w < threshold) == (w * 2.0**-53 < a)
    w = np.array(words, dtype=np.uint64) >> np.uint64(11)
    u = w * 2.0**-53
    assert (np.multiply(w, scale) == u * length).all()
    assert ((w < np.uint64(threshold)) == (u < a)).all()


@pytest.mark.parametrize("kt, mean_n, std_error, acceptance_rate", [
    (1.0, 2684.820817222222, 4.3263374908646774, 0.5376745),
    (0.25, 177.77432, 1.537508710844403, 0.0379555),
])
def test_metropolis_pinned_long_chain(kt, mean_n, std_error, acceptance_rate):
    """Figures of the per-step loop for the benchmark's chain shape."""
    cfg = McConfig(steps=2 * 10**6, burn_in=2 * 10**5, seed=42, kT=kt)
    res = metropolis_sample(10**4, 1.0, cfg)
    assert (res.mean_n, res.std_error, res.acceptance_rate) == (mean_n, std_error, acceptance_rate)
    assert res.samples == 1_800_000
