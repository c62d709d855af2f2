"""Clausius auditing for information transfer.

Broadcasting one file to N receivers is heat flow from a hot bath (the
emitting antenna, bit energy eps) to a cold one (each receiver sees bit
energy eps/N, hence temperature T_hot/N). Since dQ/T = k*dI on each side,
the temperatures cancel and the audit reduces to pure information
bookkeeping: N*k*dI deposited, k*dI removed, (N-1)*k*dI gained.

A non-random file carries less information than the entropy its energy
accounts for; the shortfall appears here as a strictly positive
``clausius_margin``, which is the informatic Clausius inequality
dS >= k*dI in ledger form.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .core import (LN2, REDUCED, Energy, Entropy, Information, PhysConstants, Temperature,
                   clausius_verdict, require_normal)
from .filescan import RANDOM, FileStats, file_temperature


class BroadcastResult(NamedTuple):
    """One-to-N broadcast balance. All entropies in k units."""

    n_receivers: int
    t_hot: Temperature
    t_cold: Temperature
    info_sent: Information
    entropy_removed: Entropy
    entropy_deposited: Entropy
    net_gain: Entropy
    clausius_margin: Entropy
    verdict: str


class ClausiusCheck(NamedTuple):
    """Verdict on dS >= k*dI, with the signed margin in k units."""

    verdict: str
    margin_k: Entropy


class CombinedLedger(NamedTuple):
    """Combined thermal + informatic entropy audit."""

    thermal_heat: Energy
    bath_temperature: Temperature
    info_delta: Information
    entropy_lower_bound: Entropy
    entropy_actual: Entropy
    verdict: str


def broadcast_balance(
    stats: FileStats,
    epsilon_hot: float,
    n_receivers: int,
    consts: PhysConstants = REDUCED,
) -> BroadcastResult:
    """Audit broadcasting the analyzed file to ``n_receivers`` antennas.

    A random (equilibrium) file carries the full dI = L ln 2; otherwise
    dI is the order-k conditional-rate estimate times L, which is what
    makes the margin positive for correlated streams. Each receiver side
    still absorbs heat worth k * L ln 2 of entropy, so the margin is
    k * (L ln 2 - dI), realizing dS >= k*dI; its verdict allows for the
    rounding of L ln 2 and dI. Receivers so many that their k * N * L ln 2
    overflows, or a cold temperature T_hot/N outside float64's normal
    range, are input errors.
    """
    if n_receivers < 1:
        raise ValueError("receiver count must be at least 1")
    if not epsilon_hot > 0:
        raise ValueError("bit energy must be positive")
    if stats.equilibrium == RANDOM:
        info = stats.length * LN2
    else:
        if stats.info_rate_markov is None:
            raise ValueError(
                "stream too short for the order-%d information estimate; "
                "re-analyze with a smaller markov order" % stats.markov_order
            )
        info = stats.length * stats.info_rate_markov
    heat_entropy = stats.length * LN2
    t_hot = file_temperature(epsilon_hot, consts)
    t_cold = t_hot / n_receivers
    require_normal({"epsilon": epsilon_hot, "receivers": n_receivers},
                   f"the cold temperature ({consts.mode} units) or the entropy the receivers "
                   f"absorb from a file of {stats.length} bits", t_cold, n_receivers * heat_entropy)
    return BroadcastResult(
        n_receivers=n_receivers,
        t_hot=t_hot,
        t_cold=Temperature(t_cold),
        info_sent=Information(info),
        entropy_removed=Entropy(info),
        entropy_deposited=Entropy(n_receivers * info),
        net_gain=Entropy((n_receivers - 1) * info),
        clausius_margin=Entropy(heat_entropy - info),
        verdict=clausius_verdict(heat_entropy - info, heat_entropy, info),
    )


def clausius_check(entropy_change: float, info_change: float) -> ClausiusCheck:
    """Check the informatic Clausius inequality dS >= k*dI.

    ``entropy_change`` is in k units, so the comparison is direct; the
    margin is dS/k - dI. A margin that overflows is an input error.
    """
    entropy, info = float(entropy_change), float(info_change)
    margin = entropy - info
    if not math.isfinite(margin):
        raise ValueError(f"entropy = {entropy!r} and info = {info!r} make the margin "
                         "entropy - info overflow float64")
    return ClausiusCheck(verdict=clausius_verdict(margin), margin_k=Entropy(margin))


def combined_balance(heat: float, temperature: float, info_delta: float, entropy_actual: float,
                     consts: PhysConstants = REDUCED) -> CombinedLedger:
    """Audit a process that moves both heat and information.

    The entropy change must cover dQ/T plus k*dI; the bound and the
    actual change are compared in k units, with a slack for the rounding
    of heat/(kT) and dI. A bound that overflows, or whose kT rounds to 0,
    is an input error, as are a nonzero heat/(kT) outside float64's normal
    range and a negative dI.
    """
    t = float(temperature)
    if not t > 0:
        raise ValueError("bath temperature must be positive")
    q = float(heat)
    if q < 0:
        raise ValueError("heat must be non-negative")
    info, actual = float(info_delta), float(entropy_actual)
    kt = consts.k_boltzmann * t
    heat_entropy = q / kt if kt else math.inf
    if q:
        require_normal({"heat": q, "temperature": t, "info": info},
                       f"heat/(kT) ({consts.mode} units)", heat_entropy)
    bound = heat_entropy + info
    if not math.isfinite(bound):
        raise ValueError(f"heat = {q!r}, temperature = {t!r} and info = {info!r} make kT round to "
                         f"0 or the bound heat/(kT) + info overflow float64 ({consts.mode} units)")
    return CombinedLedger(
        thermal_heat=Energy(q),
        bath_temperature=Temperature(t),
        info_delta=Information(info),
        entropy_lower_bound=Entropy(bound),
        entropy_actual=Entropy(actual),
        verdict=clausius_verdict(actual - bound, heat_entropy, info),
    )
