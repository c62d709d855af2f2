"""Carnot efficiency, amplifier work, and the chain simulation."""

import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from infotherm import core, fiber
from infotherm.fiber import (
    ADIABATIC_AMPLIFICATION,
    ADIABATIC_ATTENUATION,
    ISOTHERMAL_READ,
    ISOTHERMAL_WRITE,
    FiberChainConfig,
    amplifier_entropy_balance,
    amplifier_work,
    carnot_efficiency,
    simulate_chain,
)

LN2 = math.log(2)


def half_loss_config(n_spans=1, file_length=100):
    """alpha * span = ln 2, so g = 1/2 per span."""
    return FiberChainConfig(epsilon0=1.0, alpha_per_km=LN2 / 80.0, span_km=80.0,
                            n_spans=n_spans, file_length=file_length)


def test_carnot_efficiency_examples():
    assert carnot_efficiency(1.0, 1.0) == 0.0
    assert carnot_efficiency(2.0, 1.0) == 0.5
    assert carnot_efficiency(1.0, 1e-12) == pytest.approx(1.0, abs=1e-11)


def test_carnot_efficiency_rejects_bad_ordering():
    with pytest.raises(ValueError, match="T_cold <= T_hot"):
        carnot_efficiency(1.0, 2.0)
    with pytest.raises(ValueError, match="T_cold <= T_hot"):
        carnot_efficiency(1.0, 0.0)


@pytest.mark.parametrize("t_hot, t_cold", [(1e-320, 1e-321), (1.0, 1e-310), (math.inf, 1.0),
                                           (math.inf, math.inf)],
                         ids=["both-subnormal", "cold-subnormal", "hot-infinite", "both-infinite"])
def test_carnot_efficiency_rejects_temperatures_outside_the_normal_range(t_hot, t_cold):
    """A subnormal temperature has lost digits: 1 - 1e-321/1e-320 rounds to
    0.900197628458498, not 0.9. Such temperatures are input errors naming
    both."""
    with pytest.raises(ValueError, match=r"t_hot = .* and t_cold = .*normal range"):
        carnot_efficiency(t_hot, t_cold)


def test_carnot_efficiency_accepts_the_normal_range_edges():
    tiny = sys.float_info.min
    assert carnot_efficiency(tiny, tiny) == 0.0
    assert carnot_efficiency(sys.float_info.max, tiny) == 1.0


def test_amplifier_work_examples():
    q_hot, work = amplifier_work(1.0, 2.0, 1.0)
    assert float(q_hot) == 2.0
    assert float(work) == 1.0
    q_hot, work = amplifier_work(3.0, 3.0, 1.0)
    assert float(q_hot) == 9.0
    assert float(work) == 6.0


def test_amplifier_work_rejects_equal_baths():
    with pytest.raises(ValueError, match="T_cold < T_hot"):
        amplifier_work(1.0, 1.0, 1.0)


def test_amplifier_work_efficiency_identity():
    """W / Q_hot equals the Carnot efficiency across the whole loss range."""
    for i in range(1, 100):
        g = i / 100.0
        q_hot, work = amplifier_work(g * 50.0, 1.0, g)
        assert float(work) / float(q_hot) == pytest.approx(carnot_efficiency(1.0, g), rel=1e-12)


def test_chain_half_loss_worked_numbers():
    chain = simulate_chain(half_loss_config())
    rec = chain.records[0]
    assert float(rec.q_hot) == pytest.approx(50.0, rel=1e-12)
    assert float(rec.q_cold) == pytest.approx(25.0, rel=1e-12)
    assert float(rec.work_in) == pytest.approx(25.0, rel=1e-12)
    assert chain.span_efficiency == pytest.approx(0.5, rel=1e-12)


def test_chain_totals_and_info_invariance():
    chain = simulate_chain(half_loss_config(n_spans=10))
    assert float(chain.total_work) == pytest.approx(250.0, rel=1e-12)
    info = 100 * LN2
    assert float(chain.info) == info
    for rec in chain.records:
        assert float(rec.info) == info
        assert [s.info_nats for s in rec.steps] == [info] * 4


def test_chain_step_tags_and_temperatures():
    chain = simulate_chain(half_loss_config())
    rec = chain.records[0]
    assert tuple(s.kind for s in rec.steps) == (
        ISOTHERMAL_WRITE, ADIABATIC_ATTENUATION, ISOTHERMAL_READ, ADIABATIC_AMPLIFICATION)
    assert float(rec.t_hot) == pytest.approx(1 / (2 * LN2), rel=1e-12)
    assert float(rec.t_cold) == pytest.approx(0.5 / (2 * LN2), rel=1e-12)
    write, attenuate, read, amplify = rec.steps
    assert write.heat == float(rec.q_hot)
    assert attenuate.heat == 0.0 and attenuate.work == 0.0
    assert read.heat == float(rec.q_cold)
    assert amplify.work == float(rec.work_in)
    assert attenuate.epsilon_end == pytest.approx(0.5, rel=1e-12)
    assert amplify.epsilon_end == 1.0


def test_chain_first_and_second_law_over_loss_grid():
    """Q_hot = Q_cold + W and Q_hot/T_hot = Q_cold/T_cold on 100 points."""
    for i in range(1, 100):
        g = i / 100.0
        cfg = FiberChainConfig(epsilon0=1.0, alpha_per_km=-math.log(g), span_km=1.0,
                               n_spans=1, file_length=100)
        rec = simulate_chain(cfg).records[0]
        q_hot, q_cold, work = float(rec.q_hot), float(rec.q_cold), float(rec.work_in)
        assert q_hot == pytest.approx(q_cold + work, rel=1e-12)
        assert q_hot / float(rec.t_hot) == pytest.approx(q_cold / float(rec.t_cold), rel=1e-12)
        assert work / q_hot == pytest.approx(carnot_efficiency(rec.t_hot, rec.t_cold), rel=1e-12)
        assert work / q_hot == pytest.approx(1 - g, rel=1e-9)


@pytest.mark.parametrize("n_spans", [1, 2, 100_000])
def test_chain_builds_one_cycle(n_spans, monkeypatch):
    """Every span is the same cycle: one amplifier_work call, one record
    repeated once per span."""
    calls = []

    def counted(*args):
        calls.append(args)
        return amplifier_work(*args)

    monkeypatch.setattr(fiber, "amplifier_work", counted)
    chain = simulate_chain(half_loss_config(n_spans=n_spans))
    assert len(calls) == 1
    records = chain.records
    assert len(records) == n_spans
    assert all(rec is records[0] for rec in records)
    assert float(chain.total_work) == n_spans * float(records[0].work_in)


def test_empty_chain():
    chain = simulate_chain(half_loss_config(n_spans=0))
    assert chain.records == ()
    assert chain.cycle is None
    assert chain.n_spans == 0
    assert float(chain.total_work) == 0.0


def test_chain_holds_one_cycle_whatever_the_span_count():
    """10^15 spans are one cycle and a count, not a tuple of 10^15 records."""
    chain = simulate_chain(half_loss_config(n_spans=10**15))
    assert chain.n_spans == 10**15
    assert chain.cycle == simulate_chain(half_loss_config(n_spans=1)).cycle
    assert float(chain.total_work) == 10**15 * float(chain.cycle.work_in)


def test_config_validation():
    with pytest.raises(ValueError, match="bit energy"):
        FiberChainConfig(epsilon0=0.0, alpha_per_km=1.0, span_km=1.0, n_spans=1, file_length=8)
    with pytest.raises(ValueError, match="attenuation"):
        FiberChainConfig(epsilon0=1.0, alpha_per_km=0.0, span_km=1.0, n_spans=1, file_length=8)
    with pytest.raises(ValueError, match="span count"):
        FiberChainConfig(epsilon0=1.0, alpha_per_km=1.0, span_km=1.0, n_spans=-1, file_length=8)
    with pytest.raises(ValueError, match="file length"):
        FiberChainConfig(epsilon0=1.0, alpha_per_km=1.0, span_km=1.0, n_spans=1, file_length=0)


@pytest.mark.parametrize("alpha", [1e-20, 1000.0, 1e300])
@pytest.mark.parametrize("n_spans", [0, 1, 10])
def test_config_rejects_attenuation_rounding_to_0_or_1(alpha, n_spans):
    with pytest.raises(ValueError, match=r"alpha_per_km\*span_km = .* round to (1\.0|0\.0)"):
        FiberChainConfig(epsilon0=1.0, alpha_per_km=alpha, span_km=1e10 if alpha == 1e300 else 1.0,
                         n_spans=n_spans, file_length=8)


def test_attenuation_in_unit_interval():
    cfg = half_loss_config()
    assert 0 < cfg.attenuation < 1
    assert cfg.attenuation == pytest.approx(0.5, rel=1e-12)


def test_underpowered_amplifier_flags_violation():
    """Injecting less than the Carnot work makes the entropy balance negative."""
    rec = simulate_chain(half_loss_config()).records[0]
    ideal = amplifier_entropy_balance(rec.q_cold, rec.t_hot, rec.t_cold, rec.work_in)
    assert ideal.verdict == "satisfied"
    assert ideal.entropy_balance_k == pytest.approx(0.0, abs=1e-9)
    short = amplifier_entropy_balance(rec.q_cold, rec.t_hot, rec.t_cold, 0.9 * float(rec.work_in))
    assert short.verdict == "violated"
    assert short.entropy_balance_k < 0


@given(st.floats(min_value=0.01, max_value=0.99), st.floats(min_value=0.1, max_value=1000.0))
@settings(max_examples=100)
def test_amplifier_entropy_conservation_property(g, q_cold):
    """The ideal work always balances the two dQ/T terms exactly."""
    t_hot = 1 / (2 * LN2)
    q_hot, work = amplifier_work(q_cold, t_hot, g * t_hot)
    audit = amplifier_entropy_balance(q_cold, t_hot, g * t_hot, work)
    assert audit.verdict == "satisfied"
    assert float(audit.q_hot) == pytest.approx(float(q_hot), rel=1e-12)


def test_chain_rejects_totals_that_overflow():
    """Each span's cycle is in range, but the chain's total heat is not."""
    cfg = FiberChainConfig(epsilon0=1e-10, alpha_per_km=0.1, span_km=1.0, n_spans=10**20,
                           file_length=10**300)
    with pytest.raises(ValueError, match=r"epsilon0 = .*n_spans = 10{20} .*overflow"):
        simulate_chain(cfg)


@pytest.mark.parametrize("q_cold, t_hot, t_cold, q_hot", [
    (3e-300, 3e-15, 1e-15, 9e-300),
    (1e300, 1e10, 1e5, 1.0000000000000001e305),
], ids=["product-underflow", "product-overflow"])
def test_amplifier_work_where_q_cold_times_t_hot_leaves_the_range(q_cold, t_hot, t_cold, q_hot):
    """Q_hot is the correctly rounded Q_cold T_hot / T_cold in each case,
    whether or not the product Q_cold T_hot is a normal float64."""
    assert amplifier_work(q_cold, t_hot, t_cold)[0] == q_hot


@pytest.mark.parametrize("q_cold, t_hot, t_cold", [(1e308, 1e10, 1.0), (1e-320, 2.0, 1.0)],
                         ids=["overflow", "subnormal"])
def test_amplifier_work_rejects_q_hot_outside_the_normal_range(q_cold, t_hot, t_cold):
    with pytest.raises(ValueError, match=r"q_cold = .*t_hot = .*t_cold = .*normal range"):
        amplifier_work(q_cold, t_hot, t_cold)


def test_amplifier_entropy_balance_rejects_overflow():
    with pytest.raises(ValueError, match=r"q_cold = 1e\+308, work = 1e\+308, .*overflow"):
        amplifier_entropy_balance(1e308, 1.5, 1.0, 1e308)


def test_audit_balance_is_an_entropy():
    audit = amplifier_entropy_balance(25.0, 1.0, 0.5, 22.5)
    assert type(audit.entropy_balance_k) is core.Entropy
    assert type(audit.q_hot) is core.Energy


@settings(max_examples=300, deadline=None)
@given(epsilon0=st.floats(1e-6, 1e6), alpha_span=st.floats(1e-4, 200.0),
       file_length=st.integers(1, 10**9), n_spans=st.integers(1, 5),
       consts=st.sampled_from([core.REDUCED, core.SI]))
def test_every_chain_cycle_audits_satisfied(epsilon0, alpha_span, file_length, n_spans, consts):
    """The cycle of a chain is reversible by construction, so its audit
    is satisfied whatever the size of its Q/kT terms."""
    chain = simulate_chain(FiberChainConfig(epsilon0=epsilon0, alpha_per_km=alpha_span,
                                            span_km=1.0, n_spans=n_spans,
                                            file_length=file_length), consts)
    cycle = chain.cycle
    audit = amplifier_entropy_balance(cycle.q_cold, cycle.t_hot, cycle.t_cold, cycle.work_in,
                                      consts)
    assert audit.verdict is core.SATISFIED


def test_ideal_amplifier_with_large_terms_is_satisfied():
    """Q/T terms near 6e7 carry rounding beyond an absolute 1e-9 slack."""
    q_cold, t_hot, t_cold = 7564188655.511792, 2939.2271582074713, 127.96746105408722
    _, work = amplifier_work(q_cold, t_hot, t_cold)
    assert amplifier_entropy_balance(q_cold, t_hot, t_cold, work).verdict == "satisfied"
    assert amplifier_entropy_balance(q_cold, t_hot, t_cold, 0.999 * work).verdict == "violated"


def test_chain_rejects_a_subnormal_temperature_with_its_own_message():
    """A file temperature that underflows is named as the chain's inputs."""
    cfg = FiberChainConfig(epsilon0=1e-308, alpha_per_km=0.1, span_km=1.0, n_spans=1,
                           file_length=1000)
    with pytest.raises(ValueError, match=r"epsilon0 = 1e-308, alpha_per_km\*span_km = .*normal range"):
        simulate_chain(cfg)
