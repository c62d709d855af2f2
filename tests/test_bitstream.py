"""Bitstreams: generators, file I/O, estimators, and the randomness test."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from infotherm import bitstream, core, filescan, rng
from infotherm.bitstream import (
    Bitstream,
    GeneratorSpec,
    analyze,
    conditional_entropy_rate,
    generate,
    lag1_autocorrelation,
    randomness_test,
    read_bitstream,
    write_bitstream,
    write_generated,
)
from infotherm.filescan import (
    analyze_file,
    average_nat_energy,
    binary_entropy,
    file_heat_and_entropy,
    file_temperature,
)
from infotherm.rng import uniforms

LN2 = math.log(2)
H_Q01 = 0.3250829733914482  # -0.1 ln 0.1 - 0.9 ln 0.9, frozen by hand


def test_bitstream_validation():
    with pytest.raises(ValueError, match="non-empty"):
        Bitstream.from_bits(np.array([], dtype=np.uint8))
    with pytest.raises(ValueError, match="0 or 1"):
        Bitstream.from_bits(np.array([0, 2], dtype=np.uint8))
    # Checked before the uint8 cast, which would take these to 0 or 1.
    for bits in ([0.5, 1.7, 1], np.array([0, 257]), [0.0, float("nan")], [0.0, float("inf")]):
        with pytest.raises(ValueError, match="0 or 1"):
            Bitstream.from_bits(bits)
    for bits in (np.array([0, 256], dtype=np.uint16), np.array([1, 2**63], dtype=np.uint64)):
        with pytest.raises(ValueError, match="0 or 1"):
            Bitstream.from_bits(bits)
    assert Bitstream.from_bits([1.0, 0.0, True]).bits.tolist() == [1, 0, 1]
    assert Bitstream.from_bits(np.array([True, False, True])).bits.tolist() == [1, 0, 1]
    assert Bitstream.from_bits(np.array([0, 1, 1], dtype=np.uint16)).bits.tolist() == [0, 1, 1]


def test_generator_spec_validation():
    with pytest.raises(ValueError, match="unknown generator"):
        GeneratorSpec(kind="uniformish", length=8)
    with pytest.raises(ValueError, match="p in"):
        GeneratorSpec(kind="bernoulli", length=8, p=1.5)
    with pytest.raises(ValueError, match="flip probability"):
        GeneratorSpec(kind="markov", length=8)
    with pytest.raises(ValueError, match="length"):
        GeneratorSpec(kind="alternating", length=0)


def test_ordered_block_definition():
    assert generate(GeneratorSpec(kind="ordered_block", length=6)).bits.tolist() == [1, 1, 1, 0, 0, 0]


def test_alternating_definition():
    assert generate(GeneratorSpec(kind="alternating", length=5)).bits.tolist() == [0, 1, 0, 1, 0]


@pytest.mark.parametrize("length", [1, 7, 8, 9, 15, 17, bitstream._BLOCK - 9, bitstream._BLOCK,
                                    bitstream._BLOCK + 1, bitstream._BLOCK + 15,
                                    2 * bitstream._BLOCK + 16, 3 * bitstream._BLOCK + 5])
def test_deterministic_kinds_across_blocks(length, tmp_path):
    """The byte-filled patterns equal their definitions at every block
    seam, wherever the L/2 boundary and the padding fall."""
    i = np.arange(length)
    for kind, bits in (("ordered_block", i < length // 2), ("alternating", i & 1)):
        spec = GeneratorSpec(kind=kind, length=length)
        stream = generate(spec)
        assert np.array_equal(stream.bits, bits)
        assert stream.ones == int(np.count_nonzero(bits))
        if length % 8 == 0:
            assert write_generated(spec, tmp_path / "x.bin") == stream.ones
            assert np.array_equal(read_bitstream(tmp_path / "x.bin").packed, stream.packed)


def test_markov_zero_flip_is_constant():
    """q = 0 freezes the first bit forever."""
    stream = generate(GeneratorSpec(kind="markov", length=64, seed=9, q=0.0))
    assert len(set(stream.bits.tolist())) == 1


def test_markov_one_flip_alternates():
    stream = generate(GeneratorSpec(kind="markov", length=64, seed=9, q=1.0))
    assert np.all(stream.bits[1:] != stream.bits[:-1])


def test_bernoulli_concentration():
    stream = generate(GeneratorSpec(kind="bernoulli", length=2**16, seed=3, p=0.5))
    assert abs(stream.ones / stream.length - 0.5) <= 3 / (2 * math.sqrt(stream.length))


def test_generate_deterministic():
    spec = GeneratorSpec(kind="bernoulli", length=4096, seed=77, p=0.3)
    np.testing.assert_array_equal(generate(spec).bits, generate(spec).bits)


def test_read_bitstream_orders(tmp_path):
    path = tmp_path / "one.bin"
    path.write_bytes(bytes([0xF0]))
    assert read_bitstream(path, "msb_first").bits.tolist() == [1, 1, 1, 1, 0, 0, 0, 0]
    assert read_bitstream(path, "lsb_first").bits.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]


def test_read_bitstream_length_law(tmp_path):
    path = tmp_path / "two.bin"
    path.write_bytes(bytes([0xAB, 0xCD]))
    assert read_bitstream(path).length == 16


def test_read_bitstream_rejects_empty(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    with pytest.raises(ValueError, match="empty"):
        read_bitstream(path)
    with pytest.raises(ValueError, match="empty"):
        analyze_file(path)


def test_write_read_round_trip(tmp_path):
    stream = generate(GeneratorSpec(kind="bernoulli", length=4096, seed=5, p=0.4))
    path = tmp_path / "rt.bin"
    write_bitstream(stream, path)
    np.testing.assert_array_equal(read_bitstream(path).bits, stream.bits)


def test_write_rejects_ragged_length(tmp_path):
    stream = generate(GeneratorSpec(kind="alternating", length=13))
    with pytest.raises(ValueError, match="multiple of 8"):
        write_bitstream(stream, tmp_path / "x.bin")
    with pytest.raises(ValueError, match="multiple of 8"):
        write_generated(GeneratorSpec(kind="alternating", length=13), tmp_path / "x.bin")
    assert not (tmp_path / "x.bin").exists()


def test_binary_entropy_edges():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(LN2, rel=1e-15)


def test_analyze_all_ones():
    stream = Bitstream.from_bits(np.ones(1024, dtype=np.uint8))
    stats = analyze(stream)
    assert stats.ones == 1024
    assert float(stats.info_iid) == 0.0
    assert stats.equilibrium == "ordered"


def test_analyze_fair_coin_rate():
    stream = generate(GeneratorSpec(kind="bernoulli", length=2**20, seed=7, p=0.5))
    stats = analyze(stream, markov_order=3)
    assert stats.info_rate_markov == pytest.approx(LN2, abs=0.005)


def test_analyze_markov_rate():
    """Order-1 conditional rate recovers the flip entropy H(q)."""
    stream = generate(GeneratorSpec(kind="markov", length=2**20, seed=7, q=0.1))
    stats = analyze(stream, markov_order=1)
    assert stats.info_rate_markov == pytest.approx(H_Q01, abs=0.005)


def test_analyze_short_stream_omits_markov_rate():
    stream = generate(GeneratorSpec(kind="bernoulli", length=256, seed=1, p=0.5))
    stats = analyze(stream, markov_order=3)  # needs 64 * 2**3 = 512 bits
    assert stats.info_rate_markov is None


def test_analyze_short_stream_equilibrium_undecided():
    stream = Bitstream.from_bits(np.ones(8, dtype=np.uint8))
    assert analyze(stream, markov_order=0).equilibrium == "undecided"


def test_analyze_rejects_bad_order():
    stream = generate(GeneratorSpec(kind="alternating", length=128))
    with pytest.raises(ValueError, match="markov order"):
        analyze(stream, markov_order=17)


def test_info_iid_upper_bound_equality_at_half():
    stream = generate(GeneratorSpec(kind="alternating", length=4096))
    stats = analyze(stream)
    assert float(stats.info_iid) == pytest.approx(4096 * LN2, rel=1e-12)


@given(st.integers(min_value=0, max_value=2**32), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=50)
def test_info_iid_never_exceeds_l_ln2(seed, p):
    """L ln 2 is an upper bound, attained only at exactly half ones."""
    stream = generate(GeneratorSpec(kind="bernoulli", length=512, seed=seed, p=p))
    stats = analyze(stream, markov_order=0)
    assert float(stats.info_iid) <= 512 * LN2 + 1e-9
    if stats.ones != 256:
        assert float(stats.info_iid) < 512 * LN2


def test_estimator_ordering():
    """Conditioning can only lower the estimated rate, at every order."""
    streams = [
        generate(GeneratorSpec(kind="ordered_block", length=2**14)),
        generate(GeneratorSpec(kind="alternating", length=2**14)),
        generate(GeneratorSpec(kind="bernoulli", length=2**14, seed=19, p=0.5)),
        generate(GeneratorSpec(kind="markov", length=2**14, seed=23, q=0.2)),
    ]
    for stream in streams:
        rates = [conditional_entropy_rate(stream, k) for k in range(7)]
        for lo, hi in zip(rates[1:], rates[:-1]):
            assert lo <= hi + 1e-9


def test_conditional_rate_caps_at_ln2():
    stream = generate(GeneratorSpec(kind="bernoulli", length=2**16, seed=13, p=0.5))
    for k in range(6):
        assert conditional_entropy_rate(stream, k) <= LN2 + 1e-9


def test_randomness_test_alternating_ordered():
    assert randomness_test(generate(GeneratorSpec(kind="alternating", length=4096))) == "ordered"


def test_randomness_test_fair_random():
    assert randomness_test(generate(GeneratorSpec(kind="bernoulli", length=4096, seed=11, p=0.5))) == "random"


def test_randomness_test_ordered_block_ordered():
    """Half-ones block: unbiased density but lag-1 correlation near +1."""
    stream = generate(GeneratorSpec(kind="ordered_block", length=4096))
    assert stream.ones == 2048
    assert randomness_test(stream) == "ordered"


def test_ones_are_a_popcount_and_the_verdict_one_scan(monkeypatch):
    """Building a stream only popcounts its bytes; ``randomness_test``
    takes the ones and lag-1 from one pass of the read loop."""
    scans = []
    scan = filescan._scan
    monkeypatch.setattr(filescan, "_scan", lambda *args: scans.append(args) or scan(*args))
    stream = generate(GeneratorSpec(kind="bernoulli", length=4099, seed=11, p=0.5))
    assert stream.ones == int(stream.bits.sum()) and not scans
    assert randomness_test(stream) == "random"
    assert len(scans) == 1


def test_randomness_test_rejects_short():
    with pytest.raises(ValueError, match="too short"):
        randomness_test(generate(GeneratorSpec(kind="alternating", length=32)))


def test_lag1_autocorrelation_extremes():
    alt = generate(GeneratorSpec(kind="alternating", length=4096))
    blk = generate(GeneratorSpec(kind="ordered_block", length=4096))
    assert lag1_autocorrelation(alt) == pytest.approx(-1.0, abs=1e-3)
    assert lag1_autocorrelation(blk) == pytest.approx(1.0, abs=1e-3)
    assert lag1_autocorrelation(Bitstream.from_bits(np.ones(64, dtype=np.uint8))) == 0.0


def test_equal_energy_different_information():
    """Same ones-density, wildly different order-1 rates."""
    length = 2**20
    ordered = generate(GeneratorSpec(kind="ordered_block", length=length))
    alt = generate(GeneratorSpec(kind="alternating", length=length))
    fair = generate(GeneratorSpec(kind="markov", length=length, seed=21, q=0.5))
    assert ordered.ones == alt.ones == length // 2
    assert abs(fair.ones / length - 0.5) < 0.01
    assert conditional_entropy_rate(ordered, 1) == pytest.approx(0.0, abs=0.01)
    assert conditional_entropy_rate(alt, 1) == pytest.approx(0.0, abs=0.01)
    assert conditional_entropy_rate(fair, 1) == pytest.approx(LN2, abs=0.01)


def test_file_temperature_value():
    assert float(file_temperature(1.0)) == pytest.approx(1 / (2 * LN2), rel=1e-12)
    assert float(file_temperature(2.0)) == pytest.approx(2 * float(file_temperature(1.0)), rel=1e-12)


def test_file_temperature_si_mode():
    eps_j = 1e-20
    t = float(file_temperature(eps_j, core.SI))
    assert t == pytest.approx(eps_j / (2 * core.K_BOLTZMANN_SI * LN2), rel=1e-12)


def test_average_nat_energy_equals_kt():
    assert average_nat_energy(1.0) == pytest.approx(float(file_temperature(1.0)), rel=1e-12)


def test_file_temperature_rejects_nonpositive():
    with pytest.raises(ValueError, match="positive"):
        file_temperature(0.0)


def test_file_heat_and_entropy():
    heat, entropy = file_heat_and_entropy(8, 1.0)
    assert float(heat) == 4.0
    assert float(entropy) == pytest.approx(8 * LN2, rel=1e-12)


def test_file_heat_entropy_ratio_is_temperature():
    heat, entropy = file_heat_and_entropy(2, 1.0)
    assert float(heat) / float(entropy) == pytest.approx(float(file_temperature(1.0)), rel=1e-12)


def test_file_heat_rejects_empty():
    with pytest.raises(ValueError, match="positive"):
        file_heat_and_entropy(0, 1.0)


@pytest.mark.parametrize("call, names", [
    (lambda: file_temperature(1e-320), "epsilon = 1e-320"),
    (lambda: file_temperature(1e300, core.SI), "epsilon = 1e\\+300"),
    (lambda: average_nat_energy(1e-320), "epsilon = 1e-320"),
    (lambda: file_heat_and_entropy(1000, 1e308), "length = 1000 and epsilon = 1e\\+308"),
    (lambda: file_heat_and_entropy(1, 1e-308), "length = 1 and epsilon = 1e-308"),
], ids=["temperature-subnormal", "si-temperature-overflow", "energy-subnormal",
        "heat-overflow", "heat-subnormal"])
def test_file_closed_forms_outside_the_normal_range_are_input_errors(call, names):
    with pytest.raises(ValueError, match=names + ".*normal range"):
        call()


# --- the blocked integer generators and the packed-window counter ---------

def reference_generate(spec):
    """The float-uniform generators: bit t compares u_(t+1) with p, or is
    the first bit plus the running count of flips, modulo 2."""
    u = uniforms(spec.seed, spec.length)
    if spec.kind == "bernoulli":
        return (u < spec.p).astype(np.uint8)
    first = np.uint8(u[0] < 0.5)
    flips = (u[1:] < spec.q).astype(np.uint8)
    bits = np.empty(spec.length, dtype=np.uint8)
    bits[0] = first
    if spec.length > 1:
        bits[1:] = (first + np.cumsum(flips, dtype=np.int64)) % 2
    return bits


def reference_window_counts(bits, order):
    """Cyclic (order+1)-gram counts from one int64 code per bit."""
    L = bits.size
    extended = np.concatenate([bits, bits[:order]])
    code = np.zeros(L, dtype=np.int64)
    for j in range(order + 1):
        code = (code << 1) | extended[j : L + j]
    return np.bincount(code, minlength=2 ** (order + 1))


def scanned_window_counts(stream, order):
    """The array counter's cyclic (order+1)-gram counts, fed ``_CHUNK`` bytes at a time."""
    windows = filescan._Scanner(order)
    for chunk in bitstream._slices(stream.packed):
        windows.feed(chunk)
    return windows.window_counts(stream.length)


def reference_conditional_entropy_rate(bits, order):
    """The plug-in rate computed from ``reference_window_counts``. Up to
    ``MAX_INT_ORDER`` its terms n (ln n(context) - ln n) are taken with
    ``math.log`` and summed by ``math.fsum``; above, with numpy. (``np.log``
    and ``math.log`` differ in the last digit on some integers, and so do
    numpy's pairwise sum and ``fsum``.)"""
    if order == 0:
        return binary_entropy(float(bits.mean()))
    if order <= filescan.MAX_INT_ORDER:
        counts = reference_window_counts(bits, order).tolist()
        terms = [n * (math.log(counts[x & ~1] + counts[x | 1]) - math.log(n))
                 for x, n in enumerate(counts) if n]
        return math.fsum(terms) / bits.size
    counts = reference_window_counts(bits, order).astype(np.float64)
    context = counts.reshape(-1, 2).sum(axis=1)
    ctx_rep = np.repeat(context, 2)
    mask = counts > 0
    h = np.sum(counts[mask] * (np.log(ctx_rep[mask]) - np.log(counts[mask])))
    return float(h / bits.size)


EDGE_P = (0.0, 1.0, 2.0**-53, 1 - 2.0**-53, 5e-324, 0.3)


@pytest.mark.parametrize("kind", ["bernoulli", "markov"])
@pytest.mark.parametrize("length", [1, 2, bitstream._BLOCK - 1, bitstream._BLOCK, bitstream._BLOCK + 1])
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("p", EDGE_P)
def test_generate_matches_float_reference(kind, length, seed, p):
    spec = GeneratorSpec(kind=kind, length=length, seed=seed, **{"p" if kind == "bernoulli" else "q": p})
    bits = generate(spec).bits
    assert bits.dtype == np.uint8
    np.testing.assert_array_equal(bits, reference_generate(spec))


@given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=0, max_value=2**53 - 1))
@example(p=2.0**-53, m=0)
@example(p=2.0**-53, m=1)
@example(p=5e-324, m=0)
@example(p=5e-324, m=1)
@example(p=1 - 2.0**-53, m=2**53 - 2)
@example(p=1 - 2.0**-53, m=2**53 - 1)
@example(p=0.1, m=rng._threshold(0.1) - 1)
@example(p=0.1, m=rng._threshold(0.1))
def test_integer_threshold_is_float_compare(p, m):
    """(w >> 11) < ceil(p 2^53) is exactly u < p for u = (w >> 11) 2^-53."""
    assert (m < rng._threshold(p)) == (m * 2.0**-53 < p)


@given(length=st.integers(min_value=1, max_value=70_000), order=st.integers(min_value=0, max_value=16),
       p=st.floats(min_value=0.0, max_value=1.0), seed=st.integers(min_value=0, max_value=2**32))
@example(length=1, order=0, p=0.5, seed=0)
@example(length=2, order=1, p=0.5, seed=1)
@example(length=17, order=16, p=0.5, seed=2)
@example(length=10, order=9, p=0.5, seed=3)
@example(length=9, order=8, p=0.5, seed=4)
@example(length=23, order=5, p=0.5, seed=5)
@example(length=24, order=16, p=0.5, seed=6)
@example(length=69_999, order=16, p=0.3, seed=7)
@example(length=70_000, order=8, p=0.7, seed=8)
@settings(max_examples=60, deadline=None)
def test_conditional_rate_matches_code_array_reference(length, order, p, seed):
    """Packed-window counts equal the int64 code-array counts, and so the
    rate is equal bit for bit, at every order and length."""
    bits = (np.random.default_rng(seed).random(length) < p).astype(np.uint8)
    stream = Bitstream.from_bits(bits)
    if length < order + 1:
        with pytest.raises(ValueError, match="shorter than the block"):
            conditional_entropy_rate(stream, order)
        return
    if order:
        np.testing.assert_array_equal(scanned_window_counts(stream, order),
                                      reference_window_counts(bits, order))
    assert conditional_entropy_rate(stream, order) == reference_conditional_entropy_rate(bits, order)



# --- the packed layout, exact lag-1 and chunk invariance -----------------

def exact_lag1(bits):
    """Lag-1 from its definition in exact rationals: with y_i = L b_i - n,
    the sums of (b_i - m)(b_(i+1) - m) and (b_i - m)^2 times L^2. The int64
    sums are exact for L <= 2^20."""
    L, n = bits.size, int(bits.sum())
    assert L <= 2**20
    if L < 2 or n in (0, L):
        return 0.0
    y = L * bits.astype(np.int64) - n
    return float(Fraction(int(np.dot(y[:-1], y[1:])), int(np.dot(y, y))))


@given(length=st.integers(min_value=1, max_value=5000), p=st.floats(min_value=0.0, max_value=1.0),
       seed=st.integers(min_value=0, max_value=2**32))
@example(length=1, p=1.0, seed=0)
@example(length=2, p=0.5, seed=0)
@example(length=2, p=0.5, seed=3)
@example(length=13, p=0.5, seed=1)
@example(length=1000, p=0.0, seed=2)
@example(length=1001, p=1.0, seed=2)
@settings(max_examples=200, deadline=None)
def test_lag1_is_the_exact_rational_rounded_once(length, p, seed):
    bits = (np.random.default_rng(seed).random(length) < p).astype(np.uint8)
    assert lag1_autocorrelation(Bitstream.from_bits(bits)) == exact_lag1(bits)


@pytest.mark.parametrize("spec", [
    GeneratorSpec(kind="markov", length=2**20, seed=7, q=0.1),
    GeneratorSpec(kind="bernoulli", length=2**20 - 3, seed=11, p=0.5),
    GeneratorSpec(kind="alternating", length=4097),
    GeneratorSpec(kind="ordered_block", length=4099),
    GeneratorSpec(kind="bernoulli", length=4096, seed=1, p=0.0),
    GeneratorSpec(kind="bernoulli", length=4095, seed=1, p=1.0),
], ids=["markov", "bernoulli-ragged", "alternating", "ordered-block", "all-zero", "all-one"])
def test_lag1_matches_exact_rational_on_generated_streams(spec):
    stream = generate(spec)
    assert lag1_autocorrelation(stream) == exact_lag1(stream.bits)


def reference_verdict(bits):
    """The randomness verdict from its definition: the ones density and the
    exact lag-1 of the unpacked bits against their 3- and 5-sigma bands."""
    L = bits.size
    dev_p, dev_r = abs(int(bits.sum()) / L - 0.5), abs(exact_lag1(bits))
    sigma_p, sigma_r = 0.5 / math.sqrt(L), 1.0 / math.sqrt(L)
    if dev_p <= 3 * sigma_p and dev_r <= 3 * sigma_r:
        return "random"
    if dev_p > 5 * sigma_p or dev_r > 5 * sigma_r:
        return "ordered"
    return "undecided"


@given(length=st.integers(min_value=1, max_value=70_000).filter(lambda n: n % 8),
       p=st.floats(min_value=0.0, max_value=1.0), seed=st.integers(min_value=0, max_value=2**32))
@example(length=1, p=1.0, seed=0)
@example(length=63, p=0.5, seed=1)
@example(length=65, p=1.0, seed=2)
@example(length=8 * filescan._CHUNK + 1, p=0.5, seed=3)
@example(length=69_999, p=0.5, seed=4)
@settings(max_examples=40, deadline=None)
def test_ragged_stream_moments_equal_the_unpacked_references(length, p, seed):
    """A stream in memory whose last byte is partial: its ones, lag-1 and
    verdict, read through the same loop as a file, ignore the padding."""
    bits = (np.random.default_rng(seed).random(length) < p).astype(np.uint8)
    stream = Bitstream.from_bits(bits)
    assert stream.ones == int(bits.sum())
    assert lag1_autocorrelation(stream) == exact_lag1(bits)
    if length >= 64:
        assert randomness_test(stream) == reference_verdict(bits)


@pytest.mark.parametrize("bit_order", ["msb_first", "lsb_first"])
def test_from_bits_round_trip_keeps_padding_zero(bit_order, tmp_path):
    rng = np.random.default_rng(17)
    path = tmp_path / "rt.bin"
    for length in range(1, 71):
        bits = rng.integers(0, 2, length, dtype=np.uint8)
        stream = Bitstream.from_bits(bits)
        np.testing.assert_array_equal(stream.bits, bits)
        assert stream.packed.size == (length + 7) // 8
        assert int(stream.packed[-1]) & ((1 << (-length % 8)) - 1) == 0
        assert stream.ones == int(bits.sum())
        if length % 8 == 0:
            write_bitstream(stream, path, bit_order)
            order = "big" if bit_order == "msb_first" else "little"
            assert path.read_bytes() == np.packbits(bits, bitorder=order).tobytes()
            np.testing.assert_array_equal(read_bitstream(path, bit_order).bits, bits)


def test_bits_view_is_read_only():
    bits = generate(GeneratorSpec(kind="alternating", length=20)).bits
    with pytest.raises(ValueError):
        bits[0] = 1


def test_packed_constructor_checks_layout():
    Bitstream(np.array([0xF0], dtype=np.uint8), 4)
    with pytest.raises(ValueError, match="padding"):
        Bitstream(np.array([0xF8], dtype=np.uint8), 4)
    with pytest.raises(ValueError, match="ceil"):
        Bitstream(np.array([0xF0, 0], dtype=np.uint8), 8)
    with pytest.raises(ValueError, match="ceil"):
        Bitstream(np.array([], dtype=np.uint8), 0)
    # Checked before the uint8 cast, which would wrap 384 to 128.
    for packed in (np.array([384, 1]), np.array([-1, 0]), np.array([0.5, 1.0])):
        with pytest.raises(ValueError, match=r"integers in \[0, 255\]"):
            Bitstream(packed, 16)
    assert Bitstream(np.array([255, 1]), 16).ones == 9


def _packed_statistics(bits, order):
    """Counts (order >= 1), rate, ones and lag-1 of a fresh stream."""
    stream = Bitstream.from_bits(bits)
    counts = scanned_window_counts(stream, order) if order and bits.size > order else None
    rate = conditional_entropy_rate(stream, order) if bits.size > order else None
    return counts, rate, stream.ones, lag1_autocorrelation(stream)


@given(length=st.integers(min_value=1, max_value=70_000), order=st.integers(min_value=0, max_value=16),
       p=st.floats(min_value=0.0, max_value=1.0), seed=st.integers(min_value=0, max_value=2**32))
@example(length=1, order=0, p=0.5, seed=0)
@example(length=17, order=16, p=0.5, seed=1)
@example(length=9, order=8, p=0.5, seed=2)
@example(length=59, order=9, p=0.5, seed=3)
@example(length=70_000, order=16, p=0.5, seed=4)
@example(length=69_999, order=3, p=0.3, seed=5)
@settings(max_examples=25, deadline=None)
def test_counts_do_not_depend_on_the_chunk_size(length, order, p, seed):
    bits = (np.random.default_rng(seed).random(length) < p).astype(np.uint8)
    expected = _packed_statistics(bits, order)
    for chunk in (1, 3, 7):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(filescan, "_CHUNK", chunk)
            counts, rate, ones, lag1 = _packed_statistics(bits, order)
        if counts is not None:
            np.testing.assert_array_equal(counts, expected[0])
        assert (rate, ones, lag1) == expected[1:]


def test_analyze_memory_is_the_packed_stream_plus_a_bounded_part():
    """analyze at order 16 on 2^23 bits holds the packed stream (L/8 bytes)
    and less than 4 MiB besides, as tracemalloc sees numpy's buffers."""
    L = 2**23
    tracemalloc.start()
    try:
        stream = generate(GeneratorSpec(kind="markov", length=L, seed=3, q=0.1))
        tracemalloc.reset_peak()
        analyze(stream, markov_order=16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < L // 8 + 4 * 2**20


# --- the streamed file and generator paths ------------------------------

def exact(stats):
    """The fields of a FileStats, floats as ``float.hex``: equal means bit-equal."""
    fields = stats._asdict()
    return {k: v.hex() if isinstance(v, float) else v for k, v in fields.items()}


@pytest.fixture(scope="module")
def seam_file(tmp_path_factory):
    return tmp_path_factory.mktemp("seams") / "data.bin"


@given(data=st.binary(min_size=1, max_size=600), order=st.integers(min_value=0, max_value=16),
       bit_order=st.sampled_from(["msb_first", "lsb_first"]))
@example(data=b"\xff", order=0, bit_order="msb_first")
@example(data=b"\x80\x01", order=16, bit_order="lsb_first")
@example(data=bytes(range(256)) * 16 + b"\x5a\xa5\x0f", order=6, bit_order="msb_first")
@example(data=bytes(range(256)) * 16 + b"\x5a\xa5\x0f", order=5, bit_order="lsb_first")
@settings(max_examples=40, deadline=None)
def test_streamed_file_stats_equal_in_memory_analyze(seam_file, data, order, bit_order):
    """``analyze_file`` reads the file ``_CHUNK`` bytes at a time; whatever
    the chunk size and whichever scanner counts, its statistics are those
    of the whole stream in memory."""
    seam_file.write_bytes(data)
    expected = exact(analyze(read_bitstream(seam_file, bit_order), order))
    for chunk in (1, 2, 3, 7):
        for budget in (0, filescan._INT_BUDGET):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(filescan, "_CHUNK", chunk)
                mp.setattr(filescan, "_INT_BUDGET", budget)
                assert exact(analyze_file(seam_file, order, bit_order)) == expected


@pytest.mark.parametrize("order", range(filescan.MAX_INT_ORDER + 2))
def test_ints_count_files_within_the_budget_at_the_int_orders(order, tmp_path, monkeypatch):
    """The array counter is built for a file only when its bits times
    2^order pass ``_INT_BUDGET`` or the order passes ``MAX_INT_ORDER``; at
    order 0 none is built at any budget."""
    path = tmp_path / "data.bin"
    path.write_bytes(bytes(range(256)))
    built = []
    monkeypatch.setattr(filescan._Scanner, "__init__",
                        lambda self, k, init=filescan._Scanner.__init__: built.append(k) or init(self, k))
    work = 8 * 256 << order
    for budget in (work, work - 1, 0):
        monkeypatch.setattr(filescan, "_INT_BUDGET", budget)
        analyze_file(path, order)
    arrays = 0 if order == 0 else 2 if order <= filescan.MAX_INT_ORDER else 3
    assert built == [order] * arrays


@pytest.mark.parametrize("kind, param", [("bernoulli", {"p": 0.3}), ("markov", {"q": 0.1}),
                                         ("ordered_block", {}), ("alternating", {})])
@pytest.mark.parametrize("length", [8 * bitstream._BLOCK - 8, 8 * bitstream._BLOCK,
                                    8 * bitstream._BLOCK + 8])
@pytest.mark.parametrize("bit_order", ["msb_first", "lsb_first"])
def test_streamed_generate_writes_the_generated_stream(kind, param, length, bit_order, tmp_path):
    spec = GeneratorSpec(kind=kind, length=length, seed=12, **param)
    stream = generate(spec)
    write_bitstream(stream, tmp_path / "whole.bin", bit_order)
    assert write_generated(spec, tmp_path / "streamed.bin", bit_order) == stream.ones
    assert (tmp_path / "streamed.bin").read_bytes() == (tmp_path / "whole.bin").read_bytes()


# --- the int scanner -----------------------------------------------------

KIB = 1024


@given(size=st.integers(min_value=1, max_value=3 * 16 * KIB + 9),
       order=st.integers(min_value=0, max_value=filescan.MAX_INT_ORDER),
       chunk=st.sampled_from([KIB, 2 * KIB, 3 * KIB, 7 * KIB, 16 * KIB]),
       bit_order=st.sampled_from(["msb_first", "lsb_first"]),
       p=st.floats(min_value=0.0, max_value=1.0), seed=st.integers(min_value=0, max_value=2**32))
@example(size=1, order=filescan.MAX_INT_ORDER, chunk=KIB, bit_order="msb_first", p=0.5, seed=0)
@example(size=KIB + 1, order=1, chunk=KIB, bit_order="lsb_first", p=0.5, seed=1)
@example(size=2 * KIB - 1, order=4, chunk=2 * KIB, bit_order="msb_first", p=0.3, seed=2)
@example(size=3 * 7 * KIB + 5, order=3, chunk=7 * KIB, bit_order="lsb_first", p=0.5, seed=3)
@example(size=2 * 16 * KIB + 3, order=4, chunk=16 * KIB, bit_order="msb_first", p=0.9, seed=4)
@example(size=3 * KIB, order=2, chunk=3 * KIB, bit_order="msb_first", p=1.0, seed=5)
@settings(max_examples=40, deadline=None)
def test_int_scanner_counts_what_the_array_scanner_counts(seam_file, size, order, chunk,
                                                          bit_order, p, seed):
    """Whatever the chunk size, the read loop's length, ones, pairs of
    adjacent ones and end bits are those of the unpacked bits, and both
    window counters it feeds count the reference's cyclic windows."""
    bits = (np.random.default_rng(seed).random(8 * size) < p).astype(np.uint8)
    packed = np.packbits(bits)
    seam_file.write_bytes((packed if bit_order == "msb_first" else bitstream._REVERSED[packed]).tobytes())
    expected = (bits.size, int(bits.sum()), int((bits[:-1] & bits[1:]).sum()), int(bits[0]),
                int(bits[-1]))
    for counter in (filescan._Windows, filescan._Scanner):
        windows = counter(order) if order else None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(filescan, "_CHUNK", chunk)
            assert filescan._scan(filescan._read(seam_file, bit_order), windows) == expected
        if order:
            np.testing.assert_array_equal(windows.window_counts(bits.size),
                                          reference_window_counts(bits, order))


@pytest.mark.parametrize("counts", [[1, 1, 1, 1], np.ones(4, dtype=np.int64)],
                         ids=["list", "array"])
def test_window_rate_of_the_cyclic_stream_0011_is_ln2(counts):
    """The cyclic stream 0011 holds each 2-bit window once, so each 1-bit
    context is followed by 0 and by 1 alike: exactly ln 2 nats a bit."""
    assert filescan.window_rate(counts, 4) == math.log(2)


@pytest.mark.parametrize("order", range(1, filescan.MAX_INT_ORDER + 1))
def test_window_rate_does_not_depend_on_the_counter(order):
    """Up to ``MAX_INT_ORDER`` the int counter's list and the array
    counter's int64 array of one stream are rated alike, bit for bit."""
    stream = generate(GeneratorSpec(kind="markov", length=2**16 + 8, seed=order, q=0.1))
    tables = []
    for counter in (filescan._Windows, filescan._Scanner):
        windows = counter(order)
        filescan._scan(bitstream._slices(stream.packed), windows)
        tables.append(windows.window_counts(stream.length))
    assert [type(table) for table in tables] == [list, np.ndarray]
    rates = {filescan.window_rate(table, stream.length).hex() for table in tables}
    assert len(rates) == 1


@pytest.mark.parametrize("order", [9, 16])
@pytest.mark.parametrize("bit_order", ["msb_first", "lsb_first"])
def test_file_rate_at_high_order_equals_in_memory_analyze(order, bit_order, tmp_path, monkeypatch):
    """A file of 2^22 bits reports its rate up to order 16; the array
    counter, fed by the read loop in chunks of an odd size, gives the
    statistics of the stream in memory."""
    path = tmp_path / "data.bin"
    path.write_bytes(np.random.default_rng(order).integers(0, 256, 2**19, dtype=np.uint8).tobytes())
    expected = exact(analyze(read_bitstream(path, bit_order), order))
    monkeypatch.setattr(filescan, "_CHUNK", 3 * KIB + 1)
    stats = analyze_file(path, order, bit_order)
    assert stats.info_rate_markov is not None
    assert exact(stats) == expected
