"""Physical model: smooth temporal potential step and two-component spinors.

A spatially uniform vector potential A(t) directed along the electron's
propagation axis rises smoothly from A1 to A2 around the transition time t0,

    A(t) = A1 + (A2 - A1)/2 * (1 + tanh((t - t0)/tau)).

Because A is uniform in space, the canonical momentum p is conserved and the
problem reduces, for a fixed spin projection, to a two-component spinor
(phi, theta) evolving in time under

    i phi'   =  pi(t) phi + m theta
    i theta' = -pi(t) theta + m phi,        pi(t) = p - q A(t),

i.e. the chiral-basis Hamiltonian pi*sigma3 + m*sigma1.  The Hadamard-type
rotation U = [[1, 1], [1, -1]]/sqrt(2) maps it to m*sigma3 + pi*sigma1 (the
standard basis), so single-particle energies and the asymptotic mode content
are basis independent.  Natural units hbar = c = 1 throughout; times are in
units of 1/m for m = 1.
"""

from __future__ import annotations

import math
import sys


def check_inputs(values: dict[str, float]) -> None:
    """The one rule for physical inputs, given by name: each must be finite,
    and m and tau positive where given; else ValueError naming the input."""
    # a sum of finite values is finite unless it overflows, so the loop runs
    # only when some value may not be: StepParameters pays for one C pass
    if not math.isfinite(sum(values.values())):
        for name, value in values.items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
    m, tau = values.get("m", 1.0), values.get("tau", 1.0)  # an absent input passes
    if m <= 0:
        raise ValueError(f"m must be positive, got {m!r}")
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau!r}")


class Record:
    """A record of named values: a dataclass's behaviour without the import
    and code generation of `dataclasses`.

    `fields` names the values that take part in repr and equality, in
    order.  The repr is the dataclass's, to the byte, and two records are
    equal where they are of one class and their field tuples are equal, so
    a record holding a NaN equals itself (a tuple compares its items by
    identity first).  Every attribute a record's `__init__` stores is its
    argument of the same name, or private (a leading underscore) and
    derived from those, so `replace` builds the copy through `__init__`
    from the others, which checks the inputs and derives the private ones
    again.  A record is mutable and unhashable; a `FrozenRecord` is
    neither.
    """

    fields: tuple[str, ...] = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.fields)

    def __repr__(self) -> str:
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.fields)
        return f"{type(self).__qualname__}({values})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def replace(self, **changes):
        """A new record of this class, with the named values changed."""
        values = {name: v for name, v in self.__dict__.items() if name[0] != "_"}
        return type(self)(**{**values, **changes})


class FrozenRecord(Record):
    """A record whose attributes cannot be assigned or deleted
    (AttributeError), hashed by its field tuple.  Its `__init__` stores every
    value with one `self.__dict__.update`."""

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class StepParameters(FrozenRecord):
    """All physical inputs, natural units.

    m: rest mass (> 0); q: signed coupling; p: conserved momentum along the
    potential axis; a1/a2: early/late potential values; tau: transition time
    parameter (> 0; the Heaviside limit is a separate closed form, never
    tau = 0 here); t0: transition time.

    The frozen record of a point, as it carries checked inputs: `__init__`
    builds the values once, checks them by `check_inputs` and stores them in
    one step, and `replace` checks them again.  The per-point results
    (`AsymptoticModes`, `TwoSpinor`, `analytic.ScatteringResult`) are
    mutable records, whose `__init__` assigns each field.
    """

    fields = ("m", "q", "p", "a1", "a2", "tau", "t0")

    def __init__(self, m: float, q: float, p: float, a1: float, a2: float,
                 tau: float, t0: float = 0.0):
        values = {"m": m, "q": q, "p": p, "a1": a1, "a2": a2, "tau": tau, "t0": t0}
        check_inputs(values)
        self.__dict__.update(values)


class AsymptoticModes(Record):
    """Kinetic momenta, mode energies and the step delta of the two plateaus."""

    fields = ("pi1", "pi2", "e1", "e2", "delta")

    def __init__(self, pi1: float, pi2: float, e1: float, e2: float, delta: float):
        self.pi1 = pi1
        self.pi2 = pi2
        self.e1 = e1
        self.e2 = e2
        self.delta = delta


class TwoSpinor(Record):
    """A spinor (phi, theta) in the chiral basis, the only basis the package uses."""

    fields = ("upper", "lower")

    def __init__(self, upper: complex, lower: complex):
        self.upper = upper
        self.lower = lower

    @property
    def norm_sq(self) -> float:
        """|phi|^2 + |theta|^2, inf where it overflows a double.  Each square
        is the product of a modulus with itself, correctly rounded; float **
        would raise OverflowError there, and libm's pow(u, 2) can be one ulp
        off."""
        u, v = abs(self.upper), abs(self.lower)
        return u * u + v * v


def potential_at(t: float, params: StepParameters) -> float:
    """Potential value at time t.  Total function; bounded by [A1, A2]."""
    s = (t - params.t0) / params.tau
    return params.a1 + 0.5 * (params.a2 - params.a1) * (1.0 + math.tanh(s))


def _sech_sq(s: float) -> float:
    # branch on sign so the large-|s| tail underflows cleanly instead of
    # overflowing cosh
    w = math.exp(-2.0 * abs(s))
    return 4.0 * w / (1.0 + w) ** 2


def potential_rate(t: float, params: StepParameters) -> float:
    """dA/dt = (A2 - A1)/(2 tau) * sech^2((t - t0)/tau)."""
    s = (t - params.t0) / params.tau
    return (params.a2 - params.a1) / (2.0 * params.tau) * _sech_sq(s)


def plateau_modes(m: float, q: float, p: float, a1: float, a2: float) -> AsymptoticModes:
    """pi_i = p - q*A_i, E_i = sqrt(pi_i^2 + m^2) and delta = q (A2 - A1), not pi1 - pi2.

    Finite inputs can still overflow here (p = 1e308, q a1 = -1e308 gives
    pi1 = inf); wherever E1, E2 or delta is not finite this raises
    ValueError naming them and the inputs."""
    pi1 = p - q * a1
    pi2 = p - q * a2
    e1, e2, delta = math.hypot(pi1, m), math.hypot(pi2, m), q * (a2 - a1)
    # a quarter of each keeps the sum of three finite values finite, and an
    # inf or NaN among them makes it inf or NaN
    if not math.isfinite(0.25 * e1 + 0.25 * e2 + 0.25 * delta):
        raise ValueError(
            f"plateau kinematics beyond the double range: E1 = {e1!r}, E2 = {e2!r}, "
            f"delta = {delta!r} from m = {m!r}, q = {q!r}, p = {p!r}, a1 = {a1!r}, a2 = {a2!r}")
    return AsymptoticModes(pi1=pi1, pi2=pi2, e1=e1, e2=e2, delta=delta)


def asymptotic_modes(params: StepParameters) -> AsymptoticModes:
    """The plateau kinematics of a step (`plateau_modes`)."""
    return plateau_modes(params.m, params.q, params.p, params.a1, params.a2)


_LN2 = math.log(2.0)


def log_half_angles(pi: float, e: float, m: float) -> tuple[float, float]:
    """(ln cos theta/2, ln sin theta/2) of the mixing angle theta = atan2(m, pi),
    m > 0, E = hypot(pi, m): the +E eigenmode is (cos theta/2, sin theta/2) =
    cos(theta/2) (1, (E - pi)/m) and the -E one (-sin theta/2,
    cos theta/2).  cos^2 and sin^2 are (E +- pi)/(2E), and the one of E +- pi
    that cancels is m^2/(E + |pi|), so with lb = log1p(|pi|/E) the larger log
    is (lb - ln 2)/2 and the smaller ln(m/E) - (lb + ln 2)/2: neither
    cancels, overflows or underflows.  ln(m/E) is the log of the ratio where
    that is a normal double, as ln m - ln E would cancel to ~1e-13 absolute
    at m ~ 1e-300, and ln m - ln E only below, where its exp is below 1e-308."""
    lb = math.log1p(abs(pi) / e)
    large = 0.5 * (lb - _LN2)
    ratio = m / e
    small = ((math.log(ratio) if ratio >= sys.float_info.min else math.log(m) - math.log(e))
             - 0.5 * (lb + _LN2))
    return (large, small) if pi >= 0.0 else (small, large)
