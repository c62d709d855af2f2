"""Per-layer probes: each public function timed on fixed, seeded inputs.

The probes run in this process, untraced, on the same inputs whatever
the workload, so every per-layer metric has a measured value on every
workload. What a workload itself spends in each layer comes from the
traced passes instead (see run.py).
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import subprocess
import sys
import time
import tracemalloc

from infotherm import bitstream, cli, fiber, landauer, ledger, rng, twolevel

from workloads import CORPUS_BITS, MARKOV_Q, BERNOULLI_P, MC_KT, MC_LENGTH, closed_forms, derive_seed

REPS = 3
PROBE_MC_STEPS = 400_000
PROBE_SPANS = 10_000
CALL_LOOPS = 20_000
#: Uniforms drawn per call by the Metropolis chain: two per step, 2**16 steps per chunk.
MC_DRAWS_PER_CALL = 2 << 16


def timed(fn, reps: int = REPS) -> float:
    """Median wall time of ``reps`` calls, in seconds."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def peak_bytes(fn) -> int:
    """Peak bytes allocated during one call, as tracemalloc sees them (numpy
    reports its array buffers to tracemalloc)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def per_call_us(fn, loops: int = CALL_LOOPS) -> float:
    def loop():
        for _ in range(loops):
            fn()
    return timed(loop) / loops * 1e6


# --- bytes moved, computed from array sizes, not measured -----------------

def random_words_bytes_per_word() -> int:
    """Bytes read plus written per word by ``rng.random_words``: the index
    arange (8), the multiply and seed add (16 + 16), the astype copy (16),
    three xor-shifts (40 each: a shifted temporary, then an in-place xor)
    and two in-place multiplies (16 each)."""
    return 8 + 16 + 16 + 16 + 3 * 40 + 2 * 16


def entropy_rate_bytes_per_bit(order: int) -> int:
    """Bytes read plus written per bit by ``conditional_entropy_rate``: the
    wrap-around concatenation (2), the int64 zero code array (8), per block
    bit one shift (16) and one widening or (17), and the bincount read (8)."""
    return 2 + 8 + 33 * (order + 1) + 8


# --- probes ---------------------------------------------------------------

def probe_rng(seed: int) -> dict:
    n = CORPUS_BITS
    return {
        "rng.random_words.ns_per_word": timed(lambda: rng.random_words(seed, n)) / n * 1e9,
        "rng.uniforms.ns_per_draw": timed(lambda: rng.uniforms(seed, n)) / n * 1e9,
        "rng.random_words.bytes_per_word_computed": random_words_bytes_per_word(),
    }


def probe_bitstream(seed: int, workdir: str) -> tuple[dict, bitstream.FileStats]:
    n = CORPUS_BITS
    markov = bitstream.GeneratorSpec("markov", n, seed=derive_seed(seed, "probe-markov"), q=MARKOV_Q)
    bern = bitstream.GeneratorSpec("bernoulli", n, seed=derive_seed(seed, "probe-bernoulli"), p=BERNOULLI_P)
    m = {
        "bitstream.generate.markov.ns_per_bit": timed(lambda: bitstream.generate(markov)) / n * 1e9,
        "bitstream.generate.bernoulli.ns_per_bit": timed(lambda: bitstream.generate(bern)) / n * 1e9,
        "bitstream.generate.peak_bytes_per_bit": peak_bytes(lambda: bitstream.generate(markov)) / n,
    }
    stream = bitstream.generate(markov)
    path = os.path.join(workdir, "probe.bin")
    m["bitstream.write_bitstream.ns_per_bit"] = timed(lambda: bitstream.write_bitstream(stream, path)) / n * 1e9
    m["bitstream.read_bitstream.ns_per_bit"] = timed(lambda: bitstream.read_bitstream(path)) / n * 1e9
    os.remove(path)
    m["bitstream.lag1_autocorrelation.ns_per_bit"] = timed(lambda: bitstream.lag1_autocorrelation(stream)) / n * 1e9
    m["bitstream.randomness_test.ns_per_bit"] = timed(lambda: bitstream.randomness_test(stream)) / n * 1e9
    for k in (3, 16):
        m[f"bitstream.conditional_entropy_rate.o{k}.ns_per_bit"] = \
            timed(lambda: bitstream.conditional_entropy_rate(stream, k)) / n * 1e9
        m[f"bitstream.conditional_entropy_rate.o{k}.bytes_per_bit_computed"] = entropy_rate_bytes_per_bit(k)
        m[f"bitstream.analyze.o{k}.ns_per_bit"] = timed(lambda: bitstream.analyze(stream, k)) / n * 1e9
    m["bitstream.analyze.o16.peak_bytes_per_bit"] = peak_bytes(lambda: bitstream.analyze(stream, 16)) / n
    return m, bitstream.analyze(stream, 3)


def probe_ledger(stats: bitstream.FileStats) -> dict:
    return {
        "ledger.broadcast_balance.us_per_call": per_call_us(lambda: ledger.broadcast_balance(stats, 1.0, 3)),
        "ledger.clausius_check.us_per_call": per_call_us(lambda: ledger.clausius_check(5.0, 10.0)),
    }


def probe_twolevel(seed: int) -> dict:
    m, chain_s, accepted = {}, {}, 0.0
    for name, kt in MC_KT.items():
        cfg = twolevel.McConfig(steps=PROBE_MC_STEPS, burn_in=PROBE_MC_STEPS // 10,
                                seed=derive_seed(seed, f"probe-{name}"), kT=kt)
        chain_s[name] = timed(lambda: twolevel.metropolis_sample(MC_LENGTH, 1.0, cfg))
        accepted += twolevel.metropolis_sample(MC_LENGTH, 1.0, cfg).acceptance_rate * PROBE_MC_STEPS
        m[f"twolevel.metropolis_sample.{name}.ns_per_step"] = chain_s[name] / PROBE_MC_STEPS * 1e9
    m["twolevel.metropolis_sample.accept_ratio"] = accepted / (len(MC_KT) * PROBE_MC_STEPS)

    hot_seed = derive_seed(seed, "probe-hot")

    def draws():
        for offset in range(0, 2 * PROBE_MC_STEPS, MC_DRAWS_PER_CALL):
            rng.uniforms(hot_seed, min(MC_DRAWS_PER_CALL, 2 * PROBE_MC_STEPS - offset), offset)
    m["twolevel.metropolis_sample.rng_share"] = timed(draws) / chain_s["hot"]

    gas = twolevel.TwoLevelGas(length=1000, excited=300)
    cold = twolevel.TwoLevelGas(length=1000, excited=100)
    calls = (
        lambda: twolevel.log_multiplicity(1000, 300),
        lambda: twolevel.entropy_exact(gas),
        lambda: twolevel.entropy_stirling(gas),
        lambda: twolevel.temperature_closed(cold),
        lambda: twolevel.temperature_numeric(cold),
        lambda: twolevel.occupation_from_temperature(1000, 1.0, 1.0),
        lambda: twolevel.transfer_balance(1000, 300, 100, 1.0),
    )

    def closed():
        for call in calls:
            call()
    m["twolevel.closed_form.us_per_call"] = per_call_us(closed, CALL_LOOPS // 10) / len(calls)
    return m


def probe_fiber_and_cli(workdir: str) -> dict:
    cfg = fiber.FiberChainConfig(epsilon0=1.0, alpha_per_km=0.0086643, span_km=80.0,
                                 n_spans=PROBE_SPANS, file_length=100)
    m = {
        "fiber.simulate_chain.ns_per_span": timed(lambda: fiber.simulate_chain(cfg)) / PROBE_SPANS * 1e9,
        "fiber.simulate_chain.peak_bytes_per_span": peak_bytes(lambda: fiber.simulate_chain(cfg)) / PROBE_SPANS,
        "landauer.max_bit_rate.us_per_call": per_call_us(lambda: landauer.max_bit_rate(1e-9, 300.0)),
    }
    records = fiber.simulate_chain(cfg).records
    path = os.path.join(workdir, "probe.csv")
    m["cli.export_csv.ns_per_row"] = timed(lambda: cli.export_csv(records, path)) / PROBE_SPANS * 1e9
    os.remove(path)

    argvs = [argv + form for argv, _, _ in closed_forms() for form in ([], ["--json"])]

    def run_all():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in argvs:
                cli.run(argv)
    loops = 5
    m["cli.run.closed_form.us_per_call"] = timed(lambda: [run_all() for _ in range(loops)]) / (loops * len(argvs)) * 1e6
    return m


_IMPORT_TIMES = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import infotherm.cli; t2 = time.perf_counter(); print(t1 - t0, t2 - t1)"
)


def probe_startup(env: dict, reps: int) -> dict:
    """Interpreter start, numpy import, and infotherm's import after numpy,
    each in fresh interpreters, one at a time."""
    python, numpy_s, cli_s = [], [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        python.append(time.perf_counter() - t0)
        out = subprocess.run([sys.executable, "-c", _IMPORT_TIMES], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
        numpy_s.append(float(out[0]))
        cli_s.append(float(out[1]))
    return {
        "python.startup_s": statistics.median(python),
        "numpy.import_s": statistics.median(numpy_s),
        "cli.import_s": statistics.median(cli_s),
    }


def probe_all(seed: int, workdir: str, env: dict, startup_reps: int) -> dict:
    m = probe_startup(env, startup_reps)
    m.update(probe_rng(derive_seed(seed, "probe-rng")))
    bits, stats = probe_bitstream(seed, workdir)
    m.update(bits)
    m.update(probe_ledger(stats))
    m.update(probe_twolevel(seed))
    m.update(probe_fiber_and_cli(workdir))
    return m
