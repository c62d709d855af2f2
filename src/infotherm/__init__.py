"""Thermodynamics of binary information.

Entropy, temperature, heat, and information for two-level gases and
binary files; Clausius auditing of transfers and broadcasts; the
amplifier Carnot cycle of fiber transmission; and the Landauer bound on
computing power.
"""

from .core import (
    LN2,
    K_BOLTZMANN_SI,
    REDUCED,
    SI,
    Energy,
    Entropy,
    Information,
    PhysConstants,
    Temperature,
)
from .twolevel import (
    InfiniteTemperatureError,
    McConfig,
    McResult,
    TransferRecord,
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
from .filestats import (
    FileStats,
    binary_entropy,
    file_heat_and_entropy,
    file_temperature,
)
from .ledger import (
    BroadcastResult,
    ClausiusCheck,
    CombinedLedger,
    broadcast_balance,
    clausius_check,
    combined_balance,
)
from .fiber import (
    AmplifierAudit,
    ChainResult,
    CycleRecord,
    FiberChainConfig,
    StepRecord,
    amplifier_entropy_balance,
    amplifier_work,
    carnot_efficiency,
    simulate_chain,
)
from .landauer import (
    device_temperature,
    energy_per_bit,
    max_bit_rate,
)

__version__ = "0.1.0"

#: Names of the numpy-backed ``bitstream`` module, imported on first use
#: so that importing the package does not import numpy.
_BITSTREAM = frozenset({
    "Bitstream",
    "GeneratorSpec",
    "analyze",
    "conditional_entropy_rate",
    "generate",
    "lag1_autocorrelation",
    "randomness_test",
    "read_bitstream",
    "write_bitstream",
})


def __getattr__(name: str):
    if name in _BITSTREAM:
        from . import bitstream

        return getattr(bitstream, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _BITSTREAM)

__all__ = [
    "LN2",
    "K_BOLTZMANN_SI",
    "REDUCED",
    "SI",
    "Energy",
    "Entropy",
    "Information",
    "PhysConstants",
    "Temperature",
    "InfiniteTemperatureError",
    "McConfig",
    "McResult",
    "TransferRecord",
    "TwoLevelGas",
    "entropy_exact",
    "entropy_stirling",
    "log_multiplicity",
    "metropolis_sample",
    "occupation_from_temperature",
    "temperature_closed",
    "temperature_numeric",
    "transfer_balance",
    "Bitstream",
    "FileStats",
    "GeneratorSpec",
    "analyze",
    "binary_entropy",
    "conditional_entropy_rate",
    "file_heat_and_entropy",
    "file_temperature",
    "generate",
    "lag1_autocorrelation",
    "randomness_test",
    "read_bitstream",
    "write_bitstream",
    "BroadcastResult",
    "ClausiusCheck",
    "CombinedLedger",
    "broadcast_balance",
    "clausius_check",
    "combined_balance",
    "AmplifierAudit",
    "ChainResult",
    "CycleRecord",
    "FiberChainConfig",
    "StepRecord",
    "amplifier_entropy_balance",
    "amplifier_work",
    "carnot_efficiency",
    "simulate_chain",
    "device_temperature",
    "energy_per_bit",
    "max_bit_rate",
]
