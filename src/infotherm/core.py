"""Physical constants, unit modes, and quantity types.

Two unit modes are supported:

* ``si``      -- k is the CODATA Boltzmann constant (exact since the 2019
                 SI redefinition) and energies are in joules.
* ``reduced`` -- k = 1 and the level energy sets the energy scale, which
                 makes most closed-form results exact and testable.

Entropy is carried in units of k everywhere (multiplying by 1.38e-23 in
intermediate arithmetic would invite underflow); information is carried in
nats, with bits appearing only at I/O boundaries.

The four quantity types are floats tagged with what they measure. Each
checks its domain when built and otherwise behaves as its float: arithmetic
returns plain floats and equality ignores the type. Only the CLI's report
reads the type, to name the unit under a unit mode.

The package's records are named tuples, whose classes are cheap to build
at start-up. Result records are ``typing.NamedTuple`` classes; the types
that check their fields, such as ``PhysConstants``, derive from
``Validated``. Either kind is immutable, compares by value like the tuple
it is, and has ``_asdict()`` and ``_replace()``.
"""

from __future__ import annotations

import math
import operator
import sys
from collections import namedtuple

LN2 = math.log(2.0)

#: Boltzmann constant in J/K, exact by definition.
K_BOLTZMANN_SI = 1.380649e-23

_MODES = ("si", "reduced")

#: The two values of every thermodynamic verdict.
SATISFIED = "satisfied"
VIOLATED = "violated"

#: Slack (k units) of a Clausius margin, per unit of the size of the terms
#: whose rounding the margin carries; see ``clausius_verdict``.
CLAUSIUS_TOL_K = 1e-9

#: The smallest normal float64; a positive value below it has underflowed.
NORMAL_MIN = sys.float_info.min


def clausius_verdict(margin: float, *terms: float) -> str:
    """The verdict on a Clausius margin (k units), the entropy change less
    its lower bound. ``terms`` are the terms whose rounding the margin
    carries; the slack is ``CLAUSIUS_TOL_K`` times the larger of 1 and
    their summed size, so a reversible process reads ``SATISFIED`` at any
    scale. The slack is summed term by term and stays finite however
    large the terms. A NaN margin is ``VIOLATED``."""
    slack = max(CLAUSIUS_TOL_K, sum(CLAUSIUS_TOL_K * abs(term) for term in terms))
    return SATISFIED if margin >= -slack else VIOLATED


def require_normal(inputs: dict, what: str, *values: float) -> None:
    """Raise ValueError unless every value is a normal float64 number:
    |value| in [NORMAL_MIN, inf); temperatures may be negative. The error
    names ``inputs``, each input's name mapped to its value, which are
    formatted only then."""
    for value in values:
        if not NORMAL_MIN <= abs(value) < math.inf:
            *rest, last = (f"{name} = {given!r}" for name, given in inputs.items())
            names = f"{', '.join(rest)} and {last} make" if rest else f"{last} makes"
            raise ValueError(f"{names} {what} round to 0, fall below float64's normal range "
                             "or overflow")


def _require_positive(**inputs: float) -> None:
    """Raise ValueError unless every input is positive; the error names
    the first that is not, its underscores read as spaces."""
    for name, value in inputs.items():
        if not value > 0:
            raise ValueError(f"{name.replace('_', ' ')} must be positive")


def _validate_seed(seed: int) -> int:
    """The seed as an int; ValueError unless it is an integer (anything with
    ``__index__``, such as a numpy integer) in [0, 2^64)."""
    try:
        seed = operator.index(seed)
    except TypeError:
        raise ValueError("seed must be an integer") from None
    if not 0 <= seed <= 0xFFFFFFFFFFFFFFFF:
        raise ValueError("seed must fit in 64 unsigned bits")
    return seed


class Validated:
    """Base of the named tuples that check their fields when built.

    A subclass lists ``Validated`` before its ``namedtuple`` base and
    defines ``_check``, which raises ValueError for fields out of their
    domain. ``__new__`` builds the tuple, then checks it; ``_make``, and
    with it ``_replace``, builds through ``__new__``, so no value escapes
    the check.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class PhysConstants(Validated, namedtuple("PhysConstants", "k_boltzmann mode")):
    """Unit-mode bundle handed to every temperature/entropy computation:
    ``k_boltzmann`` (float) and ``mode`` (str)."""

    __slots__ = ()

    def _check(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown unit mode {self.mode!r}, expected one of {_MODES}")
        if not self.k_boltzmann > 0:
            raise ValueError("k_boltzmann must be positive")
        if self.mode == "si" and self.k_boltzmann != K_BOLTZMANN_SI:
            raise ValueError("si mode requires the exact CODATA Boltzmann constant")


#: Shared singletons; all operations default to reduced units except where
#: a module states otherwise.
SI = PhysConstants(k_boltzmann=K_BOLTZMANN_SI, mode="si")
REDUCED = PhysConstants(k_boltzmann=1.0, mode="reduced")


class Information(float):
    """An amount of information in nats (dimensionless, non-negative)."""

    __slots__ = ()

    def __new__(cls, nats: float):
        self = super().__new__(cls, nats)
        if not self >= 0:
            raise ValueError("information must be non-negative")
        return self

    @property
    def bits(self) -> float:
        return self / LN2


class Entropy(float):
    """Entropy in units of k.

    Closed-form entropies (k ln Omega and friends) are non-negative;
    entropy *changes* carried by transfer records may be negative, so no
    sign constraint is imposed here.
    """

    __slots__ = ()


class Temperature(float):
    """Temperature: kelvin in si mode, epsilon/k units in reduced mode.

    Negative values are legal (population inversion); exactly zero is not
    a value any operation returns, so it is rejected here.
    """

    __slots__ = ()

    def __new__(cls, value: float):
        self = super().__new__(cls, value)
        if self == 0:
            raise ValueError("zero temperature is an error, not a value")
        return self


class Energy(float):
    """A heat or internal energy: joules in si mode, multiples of the level
    energy in reduced mode. Non-negative by construction."""

    __slots__ = ()

    def __new__(cls, value: float):
        self = super().__new__(cls, value)
        if not self >= 0:
            raise ValueError("energy must be non-negative")
        return self
