"""The amplifier Carnot cycle of a file travelling down a lossy fiber.

Reading or writing a file at fixed bit energy is an isothermal step;
attenuation and amplification change bit energy at fixed information, so
they are adiabatic. One amplifier span is therefore a four-step Carnot
cycle: write hot, attenuate (cool), read cold, amplify back. The file's
temperature along the fiber follows its bit energy pointwise,
T(z) = eps(z) / (2 k ln 2), and attenuation is the usual exponential loss
eps(z) = eps0 * exp(-alpha z).

An ideal amplifier conserves entropy, Q_hot/T_hot = Q_cold/T_cold, which
pins the work it must inject: W = Q_hot - Q_cold = Q_hot * (1 - T_c/T_h),
i.e. the Carnot efficiency. Any amplifier doing less work shows up as a
negative entropy balance in ``amplifier_entropy_balance``: a cyclic
machine pumping heat from a low-bit-energy file to a high-bit-energy one
for free.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from typing import NamedTuple

from .core import (LN2, NORMAL_MIN, REDUCED, Energy, Entropy, Information, PhysConstants,
                   Temperature, Validated, _require_positive, clausius_verdict, require_normal)

ISOTHERMAL_WRITE = "isothermal_write"
ADIABATIC_ATTENUATION = "adiabatic_attenuation"
ISOTHERMAL_READ = "isothermal_read"
ADIABATIC_AMPLIFICATION = "adiabatic_amplification"


def carnot_efficiency(t_hot: float, t_cold: float) -> float:
    """Reversible work bound between two baths: eta = 1 - T_cold/T_hot.
    A temperature outside float64's normal range is an input error."""
    th, tc = float(t_hot), float(t_cold)
    if not 0 < tc <= th:
        raise ValueError("require 0 < T_cold <= T_hot")
    require_normal({"t_hot": th, "t_cold": tc}, "a temperature", th, tc)
    return 1.0 - tc / th


def amplifier_work(q_cold: float, t_hot: float, t_cold: float) -> tuple[Energy, Energy]:
    """Heat emitted and work injected by an entropy-conserving amplifier.

    Reads ``q_cold`` at T_cold and re-emits Q_hot = Q_cold * T_hot/T_cold;
    the work W = Q_hot - Q_cold satisfies W / Q_hot = 1 - T_cold/T_hot.
    Q_cold * T_hot is taken first unless it leaves float64's normal range;
    then the division by T_cold comes first, of Q_cold where the product
    underflows and of T_hot where it overflows. A Q_hot or W outside that
    range is an input error.
    """
    qc, th, tc = float(q_cold), float(t_hot), float(t_cold)
    if not 0 < tc < th:
        raise ValueError("require 0 < T_cold < T_hot")
    _require_positive(heat_read=qc)
    product = qc * th
    if NORMAL_MIN <= product < math.inf:
        qh = product / tc
    else:
        qh = qc / tc * th if product < NORMAL_MIN else qc * (th / tc)
    require_normal({"q_cold": qc, "t_hot": th, "t_cold": tc},
                   "the heat emitted q_cold*t_hot/t_cold or the work", qh, qh - qc)
    return Energy(qh), Energy(qh - qc)


class AmplifierAudit(NamedTuple):
    """Second-law audit of one amplification with a given work input."""

    q_hot: Energy
    entropy_balance_k: Entropy
    verdict: str


def amplifier_entropy_balance(q_cold: float, t_hot: float, t_cold: float, work: float,
                              consts: PhysConstants = REDUCED) -> AmplifierAudit:
    """Entropy balance Q_hot/T_hot - Q_cold/T_cold (k units) for an
    amplifier injecting ``work``; negative balance beyond the rounding of
    its two terms means the second law is violated and the verdict says
    so. A balance that overflows, or whose kT rounds to 0, is an input
    error."""
    qc, w, th, tc = float(q_cold), float(work), float(t_hot), float(t_cold)
    if not (th > 0 and tc > 0):
        raise ValueError("temperatures must be positive")
    if qc < 0 or w < 0:
        raise ValueError("heat and work must be non-negative")
    qh = qc + w
    kth, ktc = consts.k_boltzmann * th, consts.k_boltzmann * tc
    s_hot, s_cold = (qh / kth, qc / ktc) if kth and ktc else (math.nan, math.nan)
    balance = s_hot - s_cold
    if not math.isfinite(balance):
        raise ValueError(f"q_cold = {qc!r}, work = {w!r}, t_hot = {th!r} and t_cold = {tc!r} make "
                         f"kT round to 0 or the balance overflow float64 ({consts.mode} units)")
    return AmplifierAudit(q_hot=Energy(qh), entropy_balance_k=Entropy(balance),
                          verdict=clausius_verdict(balance, s_hot, s_cold))


class StepRecord(NamedTuple):
    """One of the four cycle steps. Heat is the energy exchanged at the
    step's fixed temperature; attenuation loss is not ledgered (it leaves
    the informatics system)."""

    kind: str
    epsilon_start: float
    epsilon_end: float
    temperature_start: float
    temperature_end: float
    heat: float
    work: float
    info_nats: float


class CycleRecord(NamedTuple):
    """Four-step bookkeeping of one amplifier span."""

    steps: tuple[StepRecord, ...]
    t_hot: Temperature
    t_cold: Temperature
    q_hot: Energy
    q_cold: Energy
    work_in: Energy
    info: Information


class FiberChainConfig(Validated, namedtuple("FiberChainConfig",
                                               "epsilon0 alpha_per_km span_km n_spans file_length")):
    """Chain geometry: launch bit energy ``epsilon0``, loss ``alpha_per_km``
    and spacing ``span_km`` (floats), span count ``n_spans`` and the
    (random) file length in bits ``file_length`` (ints)."""

    __slots__ = ()

    def _check(self):
        _require_positive(launch_bit_energy=self.epsilon0,
                          attenuation_coefficient=self.alpha_per_km, span_length=self.span_km)
        if self.n_spans < 0:
            raise ValueError("span count must be non-negative")
        if self.file_length < 1:
            raise ValueError("file length must be positive")
        if not 0.0 < self.attenuation < 1.0:
            raise ValueError(f"alpha_per_km*span_km = {self.alpha_per_km * self.span_km!r} makes "
                             "the span attenuation exp(-alpha_per_km*span_km) round to "
                             f"{self.attenuation!r}; it must lie strictly between 0 and 1")

    @property
    def attenuation(self) -> float:
        """Per-span energy survival g = exp(-alpha * span) in (0, 1)."""
        return math.exp(-self.alpha_per_km * self.span_km)


class ChainResult(NamedTuple):
    """The cycle every span repeats, the span count and the chain totals.
    ``cycle`` is None when there are no spans."""

    config: FiberChainConfig
    cycle: CycleRecord | None
    n_spans: int
    total_work: Energy
    total_heat_hot: Energy
    total_heat_cold: Energy
    info: Information
    span_efficiency: float

    @property
    def records(self) -> tuple[CycleRecord, ...]:
        """One record per span, the same object each time, built anew on
        each access. It takes 8 bytes a span; ``cycle`` and ``n_spans`` say
        the same in constant space."""
        return (self.cycle,) * self.n_spans if self.cycle is not None else ()


def simulate_chain(cfg: FiberChainConfig, consts: PhysConstants = REDUCED) -> ChainResult:
    """Run the file through ``n_spans`` identical amplifier Carnot cycles.

    The file is assumed random, so it carries info = L ln 2 nats and heat
    Q_hot = L eps0 / 2 per span. Amplification restores the launch energy
    exactly, so every span repeats the same reversible cycle with
    efficiency W/Q_hot = 1 - g; that cycle is built once. A config whose
    cycle, at any span count, or chain totals leave float64's normal
    range is an input error.
    """
    inputs = {"epsilon0": cfg.epsilon0, "alpha_per_km*span_km": cfg.alpha_per_km * cfg.span_km,
              "file_length": cfg.file_length, "n_spans": cfg.n_spans}
    what = f"a bit energy, temperature, heat or work of the chain ({consts.mode} units)"
    g = cfg.attenuation
    eps0 = cfg.epsilon0
    eps_low = g * eps0
    info = cfg.file_length * LN2
    # floats until checked, as a Temperature cannot be 0
    t_hot = eps0 / (2.0 * consts.k_boltzmann * LN2)  # the file temperature
    t_cold = g * t_hot
    q_hot = cfg.file_length * eps0 / 2.0
    q_cold = g * q_hot
    require_normal(inputs, what, eps_low, t_hot, t_cold, q_hot, q_cold)
    try:
        _, work = amplifier_work(q_cold, t_hot, t_cold)
    except ValueError:
        work = math.nan  # named below as the chain's inputs, as any other cycle quantity
    n = cfg.n_spans
    total_work, total_hot, total_cold = n * work, n * q_hot, n * q_cold
    # at n >= 1 a total is at least its normal per-span value, so only overflow remains
    require_normal(inputs, what, work, *((total_work, total_hot, total_cold) if n else ()))
    steps = (
        StepRecord(ISOTHERMAL_WRITE, eps0, eps0, t_hot, t_hot,
                   heat=q_hot, work=0.0, info_nats=info),
        StepRecord(ADIABATIC_ATTENUATION, eps0, eps_low, t_hot, t_cold,
                   heat=0.0, work=0.0, info_nats=info),
        StepRecord(ISOTHERMAL_READ, eps_low, eps_low, t_cold, t_cold,
                   heat=q_cold, work=0.0, info_nats=info),
        StepRecord(ADIABATIC_AMPLIFICATION, eps_low, eps0, t_cold, t_hot,
                   heat=0.0, work=work, info_nats=info),
    )
    cycle = CycleRecord(
        steps=steps,
        t_hot=Temperature(t_hot),
        t_cold=Temperature(t_cold),
        q_hot=Energy(q_hot),
        q_cold=Energy(q_cold),
        work_in=work,
        info=Information(info),
    )
    return ChainResult(
        config=cfg,
        cycle=cycle if n else None,
        n_spans=n,
        total_work=Energy(total_work),
        total_heat_hot=Energy(total_hot),
        total_heat_cold=Energy(total_cold),
        info=Information(info),
        span_efficiency=1.0 - g,
    )


def _numbered_rows(start: int, stop: int, tail: str, digits: list[str]):
    """Pieces of the text of rows ``f"{i}{tail}"`` for start <= i < stop.
    A whole hundred of rows 100h .. 100h + 99 is one join over ``digits``,
    the strings "00" to "99", so no number in it is formatted on its own."""
    while start < stop:
        head, low = divmod(start, 100)
        end = min(stop, start - low + 100)
        if head and end - start == 100:
            prefix = str(head)
            yield prefix
            yield (tail + prefix).join(digits)
        else:
            yield tail.join(map(str, range(start, end)))
        yield tail
        start = end


def export_csv(records, path) -> None:
    """Write one CSV row per span record, numbered from 0, 12 significant
    digits per number. ``records`` may be any iterable, such as
    ``itertools.repeat(cycle, n_spans)``. Each run of equal records is
    formatted once and written as a few joined pieces."""
    runs = itertools.groupby(records)
    first = next(runs, None)
    if first is None:
        raise ValueError("no spans to export")
    digits = [f"{j:02d}" for j in range(100)]
    span = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("span,epsilon_in,epsilon_out,t_hot,t_cold,q_hot,q_cold,work,info_nats\n")
        for rec, run in itertools.chain((first,), runs):
            count = sum(1 for _ in run)
            att = rec.steps[1]
            tail = "," + ",".join(
                format(x, ".12g")
                for x in (att.epsilon_start, att.epsilon_end, rec.t_hot, rec.t_cold,
                          rec.q_hot, rec.q_cold, rec.work_in, rec.info)
            ) + "\n"
            fh.writelines(_numbered_rows(span, span + count, tail, digits))
            span += count
