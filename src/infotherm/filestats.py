"""Closed forms of a binary file as a frozen two-level gas.

A random file of L bits at bit energy eps carries heat L eps / 2 and
entropy k L ln 2, so its temperature is eps / (2 k ln 2). These closed
forms, the verdict and option names, and the ``FileStats`` summary that
the ledgers read need no arrays; this module imports no numpy, so the
commands built on them start without it. ``bitstream`` holds the array
code (generators, file I/O, estimators) and re-exports every name here.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .core import (LN2, REDUCED, Energy, Entropy, Information, PhysConstants, Temperature,
                   require_normal)

RANDOM = "random"
ORDERED = "ordered"
UNDECIDED = "undecided"

GENERATOR_KINDS = ("bernoulli", "markov", "ordered_block", "alternating")
BIT_ORDERS = ("msb_first", "lsb_first")


class FileStats(NamedTuple):
    """Summary statistics of one stream.

    ``info_rate_markov`` is the order-``markov_order`` conditional entropy
    rate in nats per bit, or None when the stream is too short for that
    order to be estimated.
    """

    length: int
    ones: int
    p_hat: float
    info_iid: Information
    info_rate_markov: float | None
    markov_order: int
    equilibrium: str
    correlation_lag1: float


def binary_entropy(p: float) -> float:
    """H(p) = -p ln p - (1-p) ln(1-p) in nats, with 0 ln 0 = 0."""
    if not 0 <= p <= 1:
        raise ValueError("probability must lie in [0, 1]")
    h = 0.0
    if p > 0:
        h -= p * math.log(p)
    if p < 1:
        h -= (1 - p) * math.log(1 - p)
    return h


def file_temperature(epsilon: float, consts: PhysConstants = REDUCED) -> Temperature:
    """Temperature of a random file of bit energy epsilon: eps/(2 k ln 2).

    Meaningful only in equilibrium (a random stream); the caller asserts
    that. The average nat energy eps/(2 ln 2) then equals kT identically.
    A temperature outside float64's normal range is an input error.
    """
    if not epsilon > 0:
        raise ValueError("bit energy must be positive")
    t = epsilon / (2.0 * consts.k_boltzmann * LN2)
    require_normal({"epsilon": epsilon}, f"the file temperature ({consts.mode} units)", t)
    return Temperature(t)


def average_nat_energy(epsilon: float) -> Energy:
    """Energy per nat of a random file: eps / (2 ln 2). An energy outside
    float64's normal range is an input error."""
    if not epsilon > 0:
        raise ValueError("bit energy must be positive")
    energy = epsilon / (2.0 * LN2)
    require_normal({"epsilon": epsilon}, "the average nat energy", energy)
    return Energy(energy)


def file_heat_and_entropy(length: int, epsilon: float) -> tuple[Energy, Entropy]:
    """Heat and entropy carried by a random file: (L eps / 2, L ln 2 k).

    Their ratio reproduces the file temperature exactly. A heat outside
    float64's normal range is an input error.
    """
    if length < 1:
        raise ValueError("length must be positive")
    if not epsilon > 0:
        raise ValueError("bit energy must be positive")
    heat = length * epsilon / 2.0
    require_normal({"length": length, "epsilon": epsilon}, "the file's heat", heat)
    return Energy(heat), Entropy(length * LN2)
