"""The package's records and value types.

Result records are ``typing.NamedTuple`` classes; ``PhysConstants``,
``TwoLevelGas``, ``McConfig``, ``FiberChainConfig`` and ``GeneratorSpec``
are named tuples that check their fields when built; ``Bitstream`` is a
slotted class around its packed bytes. Each is immutable. The named tuples
compare by value, as the tuples they are, in a pinned field order; a
``Bitstream`` is equal only to itself. The functions that take plain
numbers check them as the types check their fields, with pinned messages.
"""

import math

import numpy as np
import pytest

from infotherm import bitstream, core, fiber, filescan, landauer, ledger, rng, twolevel


def _stats():
    return bitstream.analyze(bitstream.generate(bitstream.GeneratorSpec("markov", 4096, 7, q=0.1)))


def _chain():
    return fiber.simulate_chain(fiber.FiberChainConfig(1.0, math.log(2) / 80.0, 80.0, 3, 100))


#: Each type, a way to build one of its values, and its fields in order.
TYPES = {
    "PhysConstants": (lambda: core.PhysConstants(1.0, "reduced"), ("k_boltzmann", "mode")),
    "TwoLevelGas": (lambda: twolevel.TwoLevelGas(1000, 300), ("length", "excited", "epsilon")),
    "McConfig": (lambda: twolevel.McConfig(200, 20, 5, 1.0), ("steps", "burn_in", "seed", "kT")),
    "FiberChainConfig": (lambda: _chain().config,
                         ("epsilon0", "alpha_per_km", "span_km", "n_spans", "file_length")),
    "GeneratorSpec": (lambda: bitstream.GeneratorSpec("bernoulli", 64, 3, p=0.5),
                      ("kind", "length", "seed", "p", "q")),
    "TransferRecord": (lambda: twolevel.transfer_balance(1000, 300, 100),
                       ("gas_heat", "entropy_removed_hot", "entropy_added_cold", "net",
                        "clausius_lower_bound", "verdict")),
    "McResult": (lambda: twolevel.metropolis_sample(100, 1.0, twolevel.McConfig(200, 20, 5, 1.0)),
                 ("mean_n", "std_error", "acceptance_rate", "samples")),
    "BroadcastResult": (lambda: ledger.broadcast_balance(_stats(), 1.0, 3),
                        ("n_receivers", "t_hot", "t_cold", "info_sent", "entropy_removed",
                         "entropy_deposited", "net_gain", "clausius_margin", "verdict")),
    "ClausiusCheck": (lambda: ledger.clausius_check(5.0, 10.0), ("verdict", "margin_k")),
    "CombinedLedger": (lambda: ledger.combined_balance(1.0, 1.0, 0.693, 1.5),
                       ("thermal_heat", "bath_temperature", "info_delta", "entropy_lower_bound",
                        "entropy_actual", "verdict")),
    "AmplifierAudit": (lambda: fiber.amplifier_entropy_balance(25.0, 1.0, 0.5, 22.5),
                       ("q_hot", "entropy_balance_k", "verdict")),
    "StepRecord": (lambda: _chain().cycle.steps[1],
                   ("kind", "epsilon_start", "epsilon_end", "temperature_start",
                    "temperature_end", "heat", "work", "info_nats")),
    "CycleRecord": (lambda: _chain().cycle,
                    ("steps", "t_hot", "t_cold", "q_hot", "q_cold", "work_in", "info")),
    "ChainResult": (_chain, ("config", "cycle", "n_spans", "total_work", "total_heat_hot",
                             "total_heat_cold", "info", "span_efficiency")),
    "FileStats": (_stats, ("length", "ones", "p_hat", "info_iid", "info_rate_markov",
                           "markov_order", "equilibrium", "correlation_lag1")),
    "Bitstream": (lambda: bitstream.Bitstream.from_bits([1, 0, 1, 1]), ("packed", "length", "ones")),
}

NAMED_TUPLES = sorted(set(TYPES) - {"Bitstream"})


@pytest.mark.parametrize("name", sorted(TYPES))
def test_fields_cannot_be_set(name):
    make, fields = TYPES[name]
    value = make()
    assert type(value).__name__ == name
    with pytest.raises(AttributeError):
        setattr(value, fields[0], getattr(value, fields[0]))
    with pytest.raises(AttributeError):
        value.extra = 1
    with pytest.raises(AttributeError):
        delattr(value, fields[0])


@pytest.mark.parametrize("name", NAMED_TUPLES)
def test_named_tuples_compare_by_value(name):
    make, fields = TYPES[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a == tuple(getattr(a, field) for field in fields)
    assert type(a)._fields == fields
    assert tuple(a._asdict()) == fields
    assert a._replace() == a


def test_bitstream_compares_by_identity():
    make, fields = TYPES["Bitstream"]
    a, b = make(), make()
    assert a == a and a != b
    assert np.array_equal(a.packed, b.packed)
    assert bitstream.Bitstream.__slots__ == fields
    assert repr(a) == "Bitstream(packed=array([176], dtype=uint8), length=4, ones=3)"


GAS = twolevel.TwoLevelGas(10, 3)
MC = twolevel.McConfig(10, 1, 0, 1.0)
CHAIN = fiber.FiberChainConfig(1.0, 0.1, 1.0, 1, 1)


@pytest.mark.parametrize("build, message", [
    (lambda: core.PhysConstants(1.0, "cgs"), "unknown unit mode 'cgs', expected one of ('si', 'reduced')"),
    (lambda: core.PhysConstants(0.0, "reduced"), "k_boltzmann must be positive"),
    (lambda: core.PhysConstants(1.0, "si"), "si mode requires the exact CODATA Boltzmann constant"),
    (lambda: core.REDUCED._replace(mode="si"), "si mode requires the exact CODATA Boltzmann constant"),
    (lambda: twolevel.TwoLevelGas(0, 0), "state count must be at least 1"),
    (lambda: twolevel.TwoLevelGas(10, 11), "excited count must lie in [0, L]"),
    (lambda: twolevel.TwoLevelGas(10, 3, 0.0), "level energy must be positive"),
    (lambda: GAS._replace(excited=-1), "excited count must lie in [0, L]"),
    (lambda: twolevel.McConfig(0, 0, 0, 1.0), "steps must be positive"),
    (lambda: twolevel.McConfig(10, 10, 0, 1.0), "burn_in must be non-negative and smaller than steps"),
    (lambda: twolevel.McConfig(10, 1, 2**64, 1.0), "seed must fit in 64 unsigned bits"),
    (lambda: twolevel.McConfig(10, 1, 1.5, 1.0), "seed must be an integer"),
    (lambda: twolevel.McConfig(10, 1, "7", 1.0), "seed must be an integer"),
    (lambda: twolevel.McConfig(10, 1, 0, 0.0), "kT must be positive"),
    (lambda: twolevel.McConfig(10, 1, 0, math.inf), "kT must be finite"),
    (lambda: MC._replace(burn_in=-1), "burn_in must be non-negative and smaller than steps"),
    (lambda: fiber.FiberChainConfig(0.0, 0.1, 1.0, 1, 1), "launch bit energy must be positive"),
    (lambda: fiber.FiberChainConfig(1.0, 0.0, 1.0, 1, 1), "attenuation coefficient must be positive"),
    (lambda: fiber.FiberChainConfig(1.0, 0.1, 0.0, 1, 1), "span length must be positive"),
    (lambda: fiber.FiberChainConfig(1.0, 0.1, 1.0, -1, 1), "span count must be non-negative"),
    (lambda: fiber.FiberChainConfig(1.0, 0.1, 1.0, 1, 0), "file length must be positive"),
    (lambda: fiber.FiberChainConfig(1.0, 1e-20, 1.0, 1, 1),
     "alpha_per_km*span_km = 1e-20 makes the span attenuation exp(-alpha_per_km*span_km) round "
     "to 1.0; it must lie strictly between 0 and 1"),
    (lambda: CHAIN._replace(n_spans=-1), "span count must be non-negative"),
    (lambda: bitstream.GeneratorSpec("gaussian", 8), "unknown generator kind 'gaussian'"),
    (lambda: bitstream.GeneratorSpec("alternating", 0), "length must be positive"),
    (lambda: bitstream.GeneratorSpec("alternating", 8, -1), "seed must fit in 64 unsigned bits"),
    (lambda: bitstream.GeneratorSpec("bernoulli", 8), "bernoulli requires p in [0, 1]"),
    (lambda: bitstream.GeneratorSpec("markov", 8, q=1.5),
     "markov requires flip probability q in [0, 1]"),
    (lambda: bitstream.GeneratorSpec("bernoulli", 8, p=0.5)._replace(p=2.0),
     "bernoulli requires p in [0, 1]"),
    (lambda: bitstream.GeneratorSpec("markov", 8, p=7.0, q=0.1), "markov takes no p"),
    (lambda: bitstream.GeneratorSpec("bernoulli", 8, p=0.5, q=0.1), "bernoulli takes no q"),
    (lambda: bitstream.GeneratorSpec("alternating", 8, p=0.5), "alternating takes no p"),
    (lambda: bitstream.GeneratorSpec("ordered_block", 8, q=0.5), "ordered_block takes no q"),
    (lambda: bitstream.Bitstream(np.zeros(2, np.uint8), 17),
     "a bitstream of L >= 1 bits packs into a 1-d array of ceil(L/8) bytes"),
    (lambda: bitstream.Bitstream(np.array([256]), 8), "packed bytes must be integers in [0, 255]"),
    (lambda: bitstream.Bitstream(np.array([1], np.uint8), 7),
     "the padding bits of the last byte must be 0"),
    (lambda: bitstream.Bitstream(np.array(["a"]), 8), "packed bytes must be integers in [0, 255]"),
])
def test_validated_types_reject_bad_fields(build, message):
    """Building a value, or replacing its fields, checks them; each message
    is pinned."""
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda: fiber.amplifier_work(0.0, 2.0, 1.0), "heat read must be positive"),
    (lambda: fiber.amplifier_entropy_balance(1.0, 0.0, 1.0, 0.0), "temperatures must be positive"),
    (lambda: fiber.amplifier_entropy_balance(-1.0, 2.0, 1.0, 0.0),
     "heat and work must be non-negative"),
    (lambda: filescan.binary_entropy(1.5), "probability must lie in [0, 1]"),
    (lambda: filescan.average_nat_energy(0.0), "bit energy must be positive"),
    (lambda: filescan.file_heat_and_entropy(8, 0.0), "bit energy must be positive"),
    (lambda: filescan.analyze_file("data.bin", 3, "middle_first"),
     "bit_order must be one of ('msb_first', 'lsb_first')"),
    (lambda: landauer.max_bit_rate(0.0, 300.0), "power must be positive"),
    (lambda: landauer.energy_per_bit(0.0, 1.0), "power must be positive"),
    (lambda: landauer.energy_per_bit(1.0, 0.0), "bit rate must be positive"),
    (lambda: ledger.combined_balance(-1.0, 1.0, 0.0, 0.0), "heat must be non-negative"),
    (lambda: rng.random_words(0, -1), "count must be non-negative"),
    (lambda: twolevel.log_multiplicity(0, 0), "state count must be at least 1"),
    (lambda: twolevel.log_multiplicity(5, 6), "excited count must lie in [0, L]"),
    (lambda: twolevel.metropolis_sample(10, 0.0, twolevel.McConfig(100, 10, 1, 1.0)),
     "level energy must be positive"),
    (lambda: twolevel.occupation_from_temperature(0, 1.0, 1.0), "state count must be at least 1"),
    (lambda: twolevel.occupation_from_temperature(10, 0.0, 1.0), "level energy must be positive"),
    (lambda: twolevel.transfer_balance(0, 1, 1), "state count must be at least 1"),
    (lambda: twolevel.transfer_balance(10, 3, 1, 0.0), "level energy must be positive"),
])
def test_functions_reject_bad_inputs(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
