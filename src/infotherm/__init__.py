"""Thermodynamics of binary information.

Entropy, temperature, heat, and information for two-level gases and
binary files; Clausius auditing of transfers and broadcasts; the
amplifier Carnot cycle of fiber transmission; and the Landauer bound on
computing power.

Importing the package loads none of its modules. Each public name is
looked up in the module that defines it when it is read, so a command
loads only what it runs, and only the ``bitstream`` names import numpy.
"""

import importlib

__version__ = "0.1.0"

#: Each public name and the module that defines it.
_HOME = {
    "LN2": "core",
    "K_BOLTZMANN_SI": "core",
    "REDUCED": "core",
    "SI": "core",
    "Energy": "core",
    "Entropy": "core",
    "Information": "core",
    "PhysConstants": "core",
    "Temperature": "core",
    "InfiniteTemperatureError": "twolevel",
    "McConfig": "twolevel",
    "McResult": "twolevel",
    "TransferRecord": "twolevel",
    "TwoLevelGas": "twolevel",
    "entropy_exact": "twolevel",
    "entropy_stirling": "twolevel",
    "log_multiplicity": "twolevel",
    "metropolis_sample": "twolevel",
    "occupation_from_temperature": "twolevel",
    "temperature_closed": "twolevel",
    "temperature_numeric": "twolevel",
    "transfer_balance": "twolevel",
    "Bitstream": "bitstream",
    "FileStats": "filescan",
    "GeneratorSpec": "bitstream",
    "analyze": "bitstream",
    "binary_entropy": "filescan",
    "conditional_entropy_rate": "bitstream",
    "file_heat_and_entropy": "filescan",
    "file_temperature": "filescan",
    "generate": "bitstream",
    "lag1_autocorrelation": "bitstream",
    "randomness_test": "bitstream",
    "read_bitstream": "bitstream",
    "write_bitstream": "bitstream",
    "BroadcastResult": "ledger",
    "ClausiusCheck": "ledger",
    "CombinedLedger": "ledger",
    "broadcast_balance": "ledger",
    "clausius_check": "ledger",
    "combined_balance": "ledger",
    "AmplifierAudit": "fiber",
    "ChainResult": "fiber",
    "CycleRecord": "fiber",
    "FiberChainConfig": "fiber",
    "StepRecord": "fiber",
    "amplifier_entropy_balance": "fiber",
    "amplifier_work": "fiber",
    "carnot_efficiency": "fiber",
    "simulate_chain": "fiber",
    "device_temperature": "landauer",
    "energy_per_bit": "landauer",
    "max_bit_rate": "landauer",
}

__all__ = list(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))
