"""The fixed PRNG: reference vectors, determinism, and stream addressing."""

import numpy as np
import pytest

from infotherm import rng

# Published splitmix64 outputs for initial state 0.
REFERENCE_SEED0 = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
]


def test_reference_vector_seed0():
    """First four outputs match the published splitmix64 sequence."""
    assert [rng.splitmix64(0, j) for j in range(1, 5)] == REFERENCE_SEED0


def test_scalar_matches_vectorized():
    words = rng.random_words(123456789, 64)
    assert words.tolist() == [rng.splitmix64(123456789, j) for j in range(1, 65)]


def test_offset_addresses_the_same_stream():
    full = rng.random_words(7, 100)
    tail = rng.random_words(7, 60, offset=40)
    np.testing.assert_array_equal(full[40:], tail)


def test_uniforms_in_unit_interval():
    u = rng.uniforms(99, 10_000)
    assert u.min() >= 0.0
    assert u.max() < 1.0
    # top-53-bit conversion: every value is a multiple of 2**-53
    assert np.all(u * 2.0**53 == np.floor(u * 2.0**53))


def test_determinism_across_calls():
    np.testing.assert_array_equal(rng.uniforms(42, 1000), rng.uniforms(42, 1000))


def test_distinct_seeds_differ():
    assert rng.random_words(1, 8).tolist() != rng.random_words(2, 8).tolist()


def test_seed_validation():
    with pytest.raises(ValueError, match="64 unsigned bits"):
        rng.random_words(-1, 4)
    with pytest.raises(ValueError, match="64 unsigned bits"):
        rng.random_words(2**64, 4)
    with pytest.raises(ValueError, match="integer"):
        rng.random_words(1.5, 4)


def test_max_seed_accepted():
    assert rng.random_words(2**64 - 1, 2).size == 2


def test_uniforms_are_the_top_53_bits_of_each_word():
    """The conversion equals the plain formula bit for bit, also across
    many of numpy's internal buffer lengths."""
    words = rng.random_words(5, 1 << 20, offset=3)
    expected = (words >> np.uint64(11)) * 2.0**-53
    u = rng.uniforms(5, 1 << 20, offset=3)
    assert u.dtype == np.float64
    np.testing.assert_array_equal(u.view(np.uint64), expected.view(np.uint64))
    head = [(rng.splitmix64(5, j) >> 11) * 2.0**-53 for j in range(4, 68)]
    assert u[:64].tolist() == head
