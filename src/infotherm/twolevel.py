"""Two-level gas: multiplicity, entropy, temperature, bath transfer balance.

The model is L sites, each either excited ("one", energy epsilon) or ground
("zero"). Multiplicity is the binomial coefficient C(L, n), evaluated in
log space because factorials overflow double precision near L = 171.

Temperatures follow the two-level occupation law n/(L-n) = exp(-eps/kT);
n > L/2 therefore yields a negative (population-inverted) temperature,
which is returned as-is, and n = L/2 is rejected with a distinct
InfiniteTemperatureError so downstream ledgers never see a signed infinity.

Only the Metropolis sampler uses arrays. It imports numpy when it runs,
so the closed forms, and the commands built on them, load without it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

from .core import (REDUCED, Energy, Entropy, PhysConstants, Temperature, Validated,
                   _require_positive, _validate_seed, clausius_verdict, require_normal)


class InfiniteTemperatureError(ValueError):
    """Raised where the temperature diverges (n = L/2, ln((L-n)/n) = 0)."""


class TwoLevelGas(Validated, namedtuple("TwoLevelGas", "length excited epsilon",
                                          defaults=(1.0,))):
    """L sites, n of them excited at level energy epsilon: ``length`` (int),
    ``excited`` (int) and ``epsilon`` (float, default 1.0)."""

    __slots__ = ()

    def _check(self):
        if self.length < 1:
            raise ValueError("state count must be at least 1")
        if not 0 <= self.excited <= self.length:
            raise ValueError("excited count must lie in [0, L]")
        _require_positive(level_energy=self.epsilon)


def log_multiplicity(length: int, excited: int) -> float:
    """ln of the number of ways to place ``excited`` ones in ``length`` sites.

    Computed as a log-gamma difference, exact to ~1e-15 relative; agrees
    with brute-force subset counts for every L <= 20 (see tests). For
    64 min(n, L-n) < L the difference would cancel; Stirling's series does not.
    """
    TwoLevelGas(length, excited)  # checks L and n
    # evaluate at min(n, L-n) so the n <-> L-n symmetry is bit-exact
    m = min(excited, length - excited)
    if 64 * m < length:
        return (m * math.log(length) - (length - m + 0.5) * math.log1p(-m / length) - m
                + _stirling_remainder(length) - _stirling_remainder(length - m)
                - math.lgamma(m + 1))
    return math.lgamma(length + 1) - math.lgamma(m + 1) - math.lgamma(length - m + 1)


def _stirling_remainder(x: int) -> float:
    """ln x! - (x+1/2) ln x + x - ln(2 pi)/2, to 1e-16 for x >= 64."""
    r = 1.0 / x
    r2 = r * r
    return r * (1 / 12 - r2 * (1 / 360 - r2 / 1260))


def entropy_exact(gas: TwoLevelGas) -> Entropy:
    """S = ln C(L, n) in k units."""
    return Entropy(log_multiplicity(gas.length, gas.excited))


def entropy_stirling(gas: TwoLevelGas) -> Entropy:
    """Stirling approximation L ln L - n ln n - (L-n) ln(L-n), in k units.

    Undefined at n = 0 and n = L (the 0 ln 0 boundary); use entropy_exact
    there, which is exactly zero. For 64 min(n, L-n) < L the L ln L terms
    would cancel, so it is -m ln(m/L) - (L-m) log1p(-m/L) there.
    """
    L, n = gas.length, gas.excited
    if n == 0 or n == L:
        raise ValueError("Stirling form is undefined at n = 0 or n = L; exact entropy is 0 there")
    m = min(n, L - n)
    if 64 * m < L:
        return Entropy(-m * math.log(m / L) - (L - m) * math.log1p(-m / L))
    return Entropy(L * math.log(L) - n * math.log(n) - (L - n) * math.log(L - n))


def temperature_closed(gas: TwoLevelGas, consts: PhysConstants = REDUCED) -> Temperature:
    """Closed-form occupation temperature T = eps / (k ln((L-n)/n)).

    Negative for n > L/2 (population inversion). A temperature outside
    float64's normal range is an input error.
    """
    L, n = gas.length, gas.excited
    if n == 0 or n == L:
        raise ValueError("temperature is zero in the ground/saturated limit; rejected")
    if 2 * n == L:
        raise InfiniteTemperatureError("n = L/2: temperature diverges")
    log_ratio = math.log((L - n) / n)
    if log_ratio == 0.0:
        raise InfiniteTemperatureError("ln((L-n)/n) rounds to 0: temperature diverges")
    t = gas.epsilon / (consts.k_boltzmann * log_ratio)
    require_normal(gas._asdict(), f"the closed-form temperature ({consts.mode} units)", t)
    return Temperature(t)


def temperature_numeric(gas: TwoLevelGas, consts: PhysConstants = REDUCED) -> Temperature:
    """Finite-difference temperature dQ/dS with the smallest physical step.

    Central difference over n +/- 1 using the exact log-multiplicity:
    T ~ (U(n+1) - U(n-1)) / (S(n+1) - S(n-1)). Agrees with the closed form
    to O(1/L) away from the boundaries and the symmetric point. A
    temperature outside float64's normal range is an input error.
    """
    L, n = gas.length, gas.excited
    if L < 4:
        raise ValueError("state count too small for a finite-difference temperature")
    if not 1 <= n <= L - 1:
        raise ValueError("excited count at the boundary; no centered difference exists")
    if 2 * n == L:
        raise InfiniteTemperatureError("n = L/2: temperature diverges")
    ds = log_multiplicity(L, n + 1) - log_multiplicity(L, n - 1)
    if ds == 0.0:
        raise InfiniteTemperatureError("entropy difference vanished; temperature diverges")
    t = 2.0 * gas.epsilon / (consts.k_boltzmann * ds)
    require_normal(gas._asdict(), f"the finite-difference temperature ({consts.mode} units)", t)
    return Temperature(t)


def occupation_from_temperature(length: int, epsilon: float, temperature: float,
                                consts: PhysConstants = REDUCED) -> float:
    """Invert the occupation law: expected n = L / (1 + exp(eps/kT)), or its
    limit where kT rounds to 0: n = 0 for T > 0 and n = L for T < 0."""
    TwoLevelGas(length, 0, epsilon)  # checks L and epsilon
    t = float(temperature)
    if t == 0:
        raise ValueError("zero temperature rejected")
    kt = consts.k_boltzmann * t
    x = epsilon / kt if kt else math.copysign(math.inf, t)
    if x > 700.0:
        return 0.0
    if x < -700.0:
        return float(length)
    return length / (1.0 + math.exp(x))


class TransferRecord(NamedTuple):
    """Entropy bookkeeping for moving a two-level gas between two baths.

    All entropies are in k units; ``net`` must not fall below
    ``clausius_lower_bound`` (within the slack of ``core.clausius_verdict``
    for the size of its dQ/T terms) or the verdict flips to violated.
    """

    gas_heat: Energy
    entropy_removed_hot: Entropy
    entropy_added_cold: Entropy
    net: Entropy
    clausius_lower_bound: Entropy
    verdict: str


def transfer_balance(
    length: int, n_hot: int, n_cold: int, epsilon: float = 1.0
) -> TransferRecord:
    """Entropy balance for removing a gas with occupation ``n_hot`` from a
    hot bath and dumping it into a cold bath of occupation ``n_cold``.

    The colder bath has the lower occupation, so n_cold <= n_hot is
    required (equality is the reversible no-op between identical baths).
    The heat moved is the full gas energy, dQ = n_hot * eps, and both
    dQ/T terms are evaluated in closed form:

        dS_hot  = n_hot ln((L - n_hot) / n_hot)
        dS_cold = n_hot ln((L - n_cold) / n_cold)

    The Clausius bound dQ/T_cold - dQ/T_hot is computed on its own path,
    from ``temperature_closed`` of each bath (1/T = 0 where T diverges),
    so the verdict checks the occupation temperatures against the entropy
    bookkeeping. Each dQ/T is taken in units of the level energy, as
    n_hot / (T/eps), so it neither underflows nor overflows for any eps.
    For this reversible construction the two sides agree to a few
    roundings of each term, and the slack scales with the terms. A heat
    outside float64's normal range is an input error.
    """
    TwoLevelGas(length, 0, epsilon)  # checks L and epsilon
    for name, n in (("n_hot", n_hot), ("n_cold", n_cold)):
        if not 0 < n < length:
            raise ValueError(f"{name} must lie strictly between 0 and L")
    if n_cold > n_hot:
        raise ValueError("cold bath has lower occupation: n_cold <= n_hot required")

    heat = n_hot * epsilon
    ds_hot = n_hot * math.log((length - n_hot) / n_hot)
    ds_cold = n_hot * math.log((length - n_cold) / n_cold)
    net = ds_cold - ds_hot
    into_cold = _heat_over_temperature(n_hot, TwoLevelGas(length, n_cold, 1.0))
    out_of_hot = _heat_over_temperature(n_hot, TwoLevelGas(length, n_hot, 1.0))
    bound = into_cold - out_of_hot
    require_normal({"n_hot": n_hot, "epsilon": epsilon}, "the heat n_hot*epsilon", heat)
    return TransferRecord(
        gas_heat=Energy(heat),
        entropy_removed_hot=Entropy(ds_hot),
        entropy_added_cold=Entropy(ds_cold),
        net=Entropy(net),
        clausius_lower_bound=Entropy(bound),
        verdict=clausius_verdict(net - bound, into_cold, out_of_hot),
    )


def _heat_over_temperature(heat: float, bath: TwoLevelGas) -> float:
    """dQ/T of a bath at its closed-form temperature, in k units when
    ``heat`` is in the bath's level energy; 0 where T diverges."""
    try:
        return heat / temperature_closed(bath)
    except InfiniteTemperatureError:
        return 0.0


class McConfig(Validated, namedtuple("McConfig", "steps burn_in seed kT")):
    """Metropolis run parameters: ``steps``, ``burn_in`` and ``seed``
    (ints) and ``kT`` (float), the bath energy in the same units as the
    level energy."""

    __slots__ = ()

    def _check(self):
        if self.steps < 1:
            raise ValueError("steps must be positive")
        if not 0 <= self.burn_in < self.steps:
            raise ValueError("burn_in must be non-negative and smaller than steps")
        _validate_seed(self.seed)
        _require_positive(kT=self.kT)
        if not math.isfinite(self.kT):
            raise ValueError("kT must be finite")


class McResult(NamedTuple):
    """Occupation statistics from a Metropolis chain."""

    mean_n: float
    std_error: float
    acceptance_rate: float
    samples: int

    def mean_fraction(self, length: int) -> float:
        return self.mean_n / length


_BATCHES = 20
_CHUNK = 1 << 13
#: Largest L for which every occupation is exact in float64.
_MAX_LENGTH = 1 << 53


def _window_occupations(x: np.ndarray, up: np.ndarray, n: int, reach: int) -> tuple[np.ndarray, int, int]:
    """Exact path of one window from state ``n``: the occupation after each
    step, how many steps moved and the band for the next window.

    Step t de-excites if ``x[t] < n`` and otherwise excites if ``up[t]``;
    ``metropolis_sample`` says why the band ``n -/+ reach`` reproduces that.
    """
    import numpy as np

    while True:
        below = x < n - reach
        within = x < n + reach
        # -1 below the band, the excitation above it, 0 in it for now
        change = np.subtract(up > within, below, dtype=np.int8)
        band = np.flatnonzero(within ^ below)
        placed = np.cumsum(change, dtype=np.int64)
        # before a band step the chain is at state + placed, state being n
        # plus the band's changes so far; x < s exactly when floor(x) < s
        cut = np.floor(x[band]).astype(np.int64) - placed[band]
        state = n
        resolved = []
        for ci, ui in zip(cut.tolist(), up[band].tolist()):
            d = -1 if ci < state else ui
            state += d
            resolved.append(d)
        change[band] = resolved
        occ = np.cumsum(change, dtype=np.int64)
        occ += n
        excursion = max(int(occ.max()) - n, n - int(occ.min()))
        held = excursion <= reach
        reach = excursion + 8  # for a rerun or the next window: this path's reach and a margin
        if held:
            return occ, int(np.count_nonzero(change)), reach


def metropolis_sample(length: int, epsilon: float, cfg: McConfig) -> McResult:
    """Single-flip Metropolis chain sampling the two-level occupation law.

    Each step proposes flipping a uniformly chosen site: a proposal that
    would excite a ground site is accepted with probability exp(-eps/kT),
    a de-excitation is always accepted. Sites are exchangeable, so the
    chain is simulated on the occupation number n directly: the chosen
    site is excited with probability n/L, which is drawn instead of a site
    index. The stationary distribution is Binomial(L, 1/(1+exp(eps/kT))),
    so the post-burn-in mean of n estimates L/(1+exp(eps/kT)).

    Step t (1-based) reads words 2t-1 and 2t of the seeded stream, shifted
    to their top 53 bits: w1, w2. It de-excites if float(w1) * (L * 2^-53)
    < n, and otherwise excites if w2 < ceil(a * 2^53), a = exp(-eps/kT).
    These are u1*L < n and u2 < a for the uniforms u = w * 2^-53, exactly,
    since scaling by 2^-53 and a * 2^53 are exact. n starts at L//2. The
    standard error is estimated by batch means over 20 equal batches of
    the retained samples.

    The chain runs in windows of up to ``_CHUNK`` steps (2^13 keep a window
    within L2 and its band narrow) that end at the burn-in and at each batch
    edge, so a window adds to one batch sum at most. A window from state n
    takes the band [n - r, n + r]. From any state in it, a step with
    u1*L < n - r de-excites and a step with u1*L >= n + r does not, so one
    cumulative sum places both kinds; only the steps with u1*L in the band run
    the rule one at a time. The next band, for a rerun or the next window, is
    as far as this path went plus 8. Reruns widen the band and end, since S
    steps move at most S from n. Each compare is ``float(u1*L) < n`` with an
    integer n <= L <= 2^53, the same exact compare in numpy as in Python (n + r
    may round past 2^53, but then every u1*L < L is below it); in the band it
    is floor(u1*L) < n, the same compare on integers. So the chain, and every
    statistic taken from its per-step occupations, is bit-identical to a
    per-step loop and does not depend on the window size. Each batch sum is an
    exact integer, and each batch mean is rounded once, an int/int division.
    """
    import numpy as np

    from .rng import _threshold, random_words

    if length < 10:
        raise ValueError("state count must be at least 10 for a meaningful chain")
    if length > _MAX_LENGTH:
        raise ValueError("state count must be at most 2**53 for an exact chain")
    TwoLevelGas(length, 0, epsilon)  # checks epsilon
    if not math.isfinite(epsilon):
        raise ValueError("level energy must be finite")
    x = epsilon / cfg.kT
    accept_excite = math.exp(-x) if x < 700.0 else 0.0
    threshold = np.uint64(_threshold(accept_excite))
    scale = length * 2.0**-53

    n = length // 2
    kept = cfg.steps - cfg.burn_in
    batches = min(_BATCHES, kept)
    batch_len = kept // batches

    batch_sums = [0] * batches
    accepted = 0
    reach = 8

    step = 0
    while step < cfg.steps:
        b = (step - cfg.burn_in) // batch_len
        edge = cfg.burn_in + max(b + 1, 0) * batch_len if b < batches else cfg.steps
        span = min(_CHUNK, edge - step)
        w = random_words(cfg.seed, 2 * span, offset=2 * step)
        w >>= np.uint64(11)
        occ, moved, reach = _window_occupations(w[0::2] * scale, w[1::2] < threshold, n, reach)
        accepted += moved
        if 0 <= b < batches:
            # offsets from n lie within +/-span, so their int64 sum cannot wrap
            batch_sums[b] += span * n + int((occ - n).sum())
        n = int(occ[-1])
        step += span

    batch_means = np.array([s / batch_len for s in batch_sums])
    mean_n = float(batch_means.mean())
    if batches > 1:
        std_error = float(batch_means.std(ddof=1) / math.sqrt(batches))
    else:
        std_error = float("nan")
    return McResult(
        mean_n=mean_n,
        std_error=std_error,
        acceptance_rate=accepted / cfg.steps,
        samples=batches * batch_len,
    )
