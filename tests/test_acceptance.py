"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Every expected value is either derived from an independent
oracle inside this module (enumeration, high-precision sums, direct
arithmetic) or frozen from one.
"""

import json
import math
import subprocess
import sys
from itertools import combinations

import numpy as np
import pytest

from infotherm.bitstream import (
    GeneratorSpec,
    analyze,
    generate,
    randomness_test,
    write_bitstream,
)
from infotherm.core import K_BOLTZMANN_SI
from infotherm.filescan import average_nat_energy, file_heat_and_entropy, file_temperature
from infotherm.fiber import (
    FiberChainConfig,
    amplifier_entropy_balance,
    carnot_efficiency,
    simulate_chain,
)
from infotherm.landauer import device_temperature, energy_per_bit, max_bit_rate
from infotherm.ledger import broadcast_balance
from infotherm.twolevel import (
    McConfig,
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

LN2 = math.log(2)


def ok(num: int, label: str) -> None:
    print(f"ACCEPTANCE {num:02d} {label}: PASS")


def test_01_metropolis_oracle():
    """Mean occupation within 3 standard errors of L/(1+e^(eps/kT))."""
    length = 10**4
    for kt in (0.5, 1.0, 2.0):
        cfg = McConfig(steps=10**6, burn_in=10**5, seed=42, kT=kt)
        res = metropolis_sample(length, 1.0, cfg)
        target = length / (1 + math.exp(1.0 / kt))
        assert abs(res.mean_n - target) <= 3 * res.std_error, (kt, res.mean_n, target)
        if kt == 1.0:
            assert target / length == pytest.approx(0.26894, abs=5e-6)
            assert res.mean_fraction(length) == pytest.approx(0.26894, abs=0.01)
    ok(1, "metropolis occupation oracle")


def test_02_multiplicity_oracle():
    """exp(log_multiplicity) equals brute-force subset counts, L <= 20."""
    for length in range(1, 21):
        for excited in range(length + 1):
            count = sum(1 for _ in combinations(range(length), excited))
            assert round(math.exp(log_multiplicity(length, excited))) == count
    ok(2, "multiplicity vs enumeration")


def test_03_stirling_convergence():
    """Half-filled relative error ~5.3e-3 at 1e3, <2e-5 at 1e6, decreasing."""
    errors = []
    for length in (10**3, 10**4, 10**5, 10**6):
        gas = TwoLevelGas(length, length // 2)
        exact = float(entropy_exact(gas))
        errors.append((float(entropy_stirling(gas)) - exact) / exact)
    assert errors[0] == pytest.approx(5.3e-3, rel=0.02)
    assert errors[-1] < 2e-5
    assert all(b < a for a, b in zip(errors, errors[1:]))
    ok(3, "stirling convergence")


def test_04_temperature_consistency():
    """Finite difference within 10/L of closed form; inversion is exact."""
    for length in (10**3, 10**4, 10**5):
        for frac in np.arange(0.05, 0.451, 0.05):
            excited = round(frac * length)
            gas = TwoLevelGas(length, excited)
            t_num = float(temperature_numeric(gas))
            t_cls = float(temperature_closed(gas))
            assert abs(t_num - t_cls) / abs(t_cls) < 10 / length
            back = occupation_from_temperature(length, 1.0, t_cls)
            assert back == pytest.approx(excited, rel=1e-9)
    ok(4, "temperature finite-difference and inversion")


def test_05_clausius_positivity():
    """net >= 0 on the exhaustive L = 200 grid; worked value at (1000,300,100)."""
    length = 200
    for n_hot in range(1, length):
        for n_cold in range(1, n_hot + 1):
            rec = transfer_balance(length, n_hot, n_cold)
            assert float(rec.net) >= 0.0
            assert rec.verdict == "satisfied"
    worked = transfer_balance(1000, 300, 100)
    assert float(worked.net) == pytest.approx(404.96, rel=1e-3)
    ok(5, "clausius positivity and worked transfer value")


def test_06_broadcast_balance():
    """net_gain = 200 ln 2 for L=100, N=3; epsilon-independent; zero at N=1."""
    stats = analyze(generate(GeneratorSpec(kind="bernoulli", length=100, seed=3, p=0.5)),
                    markov_order=0)
    assert stats.equilibrium == "random"
    gains = [float(broadcast_balance(stats, eps, 3).net_gain) for eps in (0.5, 1.0, 2.0)]
    assert gains[0] == gains[1] == gains[2]
    assert gains[0] == pytest.approx(200 * LN2, rel=1e-12)
    assert float(broadcast_balance(stats, 1.0, 1).net_gain) == 0.0
    ok(6, "broadcast balance")


def test_07_informatic_clausius_inequality():
    """Markov rate near H(0.1); correlated corpora leave a positive margin."""
    length = 2**20
    h_q = -(0.1 * math.log(0.1) + 0.9 * math.log(0.9))
    assert h_q == pytest.approx(0.32508, abs=5e-6)
    markov = analyze(generate(GeneratorSpec(kind="markov", length=length, seed=7, q=0.1)),
                     markov_order=3)
    assert markov.info_rate_markov == pytest.approx(h_q, abs=0.005)
    margin = float(broadcast_balance(markov, 1.0, 2).clausius_margin) / length
    assert margin == pytest.approx(LN2 - h_q, abs=0.005)
    assert margin == pytest.approx(0.36806, abs=0.005)
    for kind in ("ordered_block", "alternating"):
        stats = analyze(generate(GeneratorSpec(kind=kind, length=length)), markov_order=3)
        assert float(broadcast_balance(stats, 1.0, 2).clausius_margin) / length >= 0.68
    ok(7, "informatic clausius inequality")


def test_08_file_temperature_identities():
    """T = 1/(2 ln 2) in reduced units; dQ/dS and nat energy agree exactly."""
    t = float(file_temperature(1.0))
    assert t == pytest.approx(0.721348, abs=5e-7)
    heat, entropy = file_heat_and_entropy(1024, 1.0)
    assert float(heat) / float(entropy) == pytest.approx(t, rel=1e-12)
    assert average_nat_energy(1.0) == pytest.approx(t, rel=1e-12)
    ok(8, "file temperature identities")


def test_09_carnot_cycle():
    """Worked g=0.5 numbers, laws on a 100-point grid, violation flagging."""
    cfg = FiberChainConfig(epsilon0=1.0, alpha_per_km=LN2 / 80, span_km=80.0,
                           n_spans=1, file_length=100)
    rec = simulate_chain(cfg).records[0]
    assert float(rec.q_hot) == pytest.approx(50.0, rel=1e-12)
    assert float(rec.q_cold) == pytest.approx(25.0, rel=1e-12)
    assert float(rec.work_in) == pytest.approx(25.0, rel=1e-12)
    assert float(rec.work_in) / float(rec.q_hot) == pytest.approx(0.5, rel=1e-12)

    for i in range(1, 100):
        g = i / 100.0
        grid_cfg = FiberChainConfig(epsilon0=1.0, alpha_per_km=-math.log(g), span_km=1.0,
                                    n_spans=1, file_length=100)
        r = simulate_chain(grid_cfg).records[0]
        q_hot, q_cold, work = float(r.q_hot), float(r.q_cold), float(r.work_in)
        assert q_hot == pytest.approx(q_cold + work, rel=1e-12)
        assert q_hot / float(r.t_hot) == pytest.approx(q_cold / float(r.t_cold), rel=1e-12)
        assert work / q_hot == pytest.approx(carnot_efficiency(r.t_hot, r.t_cold), rel=1e-12)

    chain = simulate_chain(FiberChainConfig(epsilon0=1.0, alpha_per_km=LN2 / 80, span_km=80.0,
                                            n_spans=10, file_length=100))
    infos = {float(r.info) for r in chain.records}
    infos |= {s.info_nats for r in chain.records for s in r.steps}
    assert infos == {100 * LN2}

    audit = amplifier_entropy_balance(rec.q_cold, rec.t_hot, rec.t_cold,
                                      0.9 * float(rec.work_in))
    assert audit.verdict == "violated"
    ok(9, "carnot cycle laws and violation flagging")


def test_10_landauer_bounds():
    """f_max against direct arithmetic; identity; margin-1 floor."""
    f_max = max_bit_rate(1e-9, 300.0, 10.0)
    oracle = 1e-9 / (10.0 * 1.380649e-23 * 300.0 * 0.6931471805599453)
    assert f_max == pytest.approx(oracle, rel=1e-12)
    assert f_max == pytest.approx(3.483e10, rel=1e-3)
    assert float(device_temperature(1e-9, f_max)) == pytest.approx(3000.0, rel=1e-12)
    f_floor = max_bit_rate(1e-9, 300.0, margin=1.0)
    assert energy_per_bit(1e-9, f_floor) == pytest.approx(
        K_BOLTZMANN_SI * 300.0 * LN2, rel=1e-12)
    ok(10, "landauer bounds")


def test_11_randomness_calibration():
    """1000 seeds at L = 4096: >=985 random for fair coins, 1000 ordered."""
    random_hits = sum(
        randomness_test(generate(GeneratorSpec(kind="bernoulli", length=4096, seed=s, p=0.5)))
        == "random"
        for s in range(1000)
    )
    assert random_hits >= 985, random_hits
    for kind in ("alternating", "ordered_block"):
        ordered_hits = sum(
            randomness_test(generate(GeneratorSpec(kind=kind, length=4096, seed=s))) == "ordered"
            for s in range(1000)
        )
        assert ordered_hits == 1000
    ok(11, "randomness test calibration")


def test_12_cli_determinism(tmp_path):
    """Byte-identical JSON and CSV across two consecutive runs."""
    random_path = tmp_path / "random.bin"
    write_bitstream(generate(GeneratorSpec(kind="bernoulli", length=4096, seed=11, p=0.5)),
                    random_path)
    invocations = [
        ["gas", "metropolis", "--length", "1000", "--kt", "1.0", "--steps", "50000",
         "--burn-in", "5000", "--seed", "42", "--json"],
        ["broadcast", "--file", str(random_path), "--receivers", "3", "--json"],
        ["landauer", "--power", "1e-9", "--noise-temp", "300", "--json"],
        ["gas", "transfer", "--length", "1000", "--n-hot", "300", "--n-cold", "100", "--json"],
    ]
    for argv in invocations:
        runs = [
            subprocess.run([sys.executable, "-m", "infotherm.cli", *argv],
                           capture_output=True, check=True).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        json.loads(runs[0])

    csv_path = tmp_path / "chain.csv"
    csv_bytes = []
    json_bytes = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "infotherm.cli", "fiber", "simulate", "--epsilon0", "1",
             "--alpha", str(LN2 / 80), "--span-km", "80", "--spans", "10",
             "--file-length", "100", "--csv", str(csv_path), "--json"],
            capture_output=True, check=True)
        json_bytes.append(proc.stdout)
        csv_bytes.append(csv_path.read_bytes())
    assert csv_bytes[0] == csv_bytes[1]
    assert json_bytes[0] == json_bytes[1]
    ok(12, "cli determinism")
