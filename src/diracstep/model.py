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
from dataclasses import dataclass

SQRT2 = math.sqrt(2.0)


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


@dataclass(frozen=True)
class StepParameters:
    """All physical inputs, natural units.

    m: rest mass (> 0); q: signed coupling; p: conserved momentum along the
    potential axis; a1/a2: early/late potential values; tau: transition time
    parameter (> 0; the Heaviside limit is a separate closed form, never
    tau = 0 here); t0: transition time.  Checked by `check_inputs`.
    """

    m: float
    q: float
    p: float
    a1: float
    a2: float
    tau: float
    t0: float = 0.0

    def __post_init__(self):
        check_inputs(self.__dict__)  # vars(self), without the builtin call


@dataclass(frozen=True)
class AsymptoticModes:
    """Kinetic momenta and mode energies of the two asymptotic plateaus."""

    pi1: float
    pi2: float
    e1: float
    e2: float


@dataclass(frozen=True)
class TwoSpinor:
    """A spinor (phi, theta) in the chiral basis, the only basis the package uses."""

    upper: complex
    lower: complex

    @property
    def norm_sq(self) -> float:
        return abs(self.upper) ** 2 + abs(self.lower) ** 2


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


def asymptotic_modes(params: StepParameters) -> AsymptoticModes:
    """Kinetic momenta pi_i = p - q*A_i and energies E_i = sqrt(pi_i^2 + m^2)."""
    pi1 = params.p - params.q * params.a1
    pi2 = params.p - params.q * params.a2
    return AsymptoticModes(
        pi1=pi1,
        pi2=pi2,
        e1=math.hypot(pi1, params.m),
        e2=math.hypot(pi2, params.m),
    )


def mode_lower(pi: float, m: float) -> float:
    """(E - pi)/m, the lower component of the chiral +E mode; at -pi it is
    (E + pi)/m, minus that of the -E mode.  Taken as m/(E + pi) for pi > 0,
    so nothing cancels and no m^2 is formed."""
    e = math.hypot(pi, m)
    return m / (e + pi) if pi > 0 else (e - pi) / m


def dirac_upper(pi: float, m: float, positive: bool) -> float:
    """Standard-basis upper component of the (unnormalized) mode spinor.

    U takes the chiral mode (1, lower) to the standard basis, where its upper
    component is (1 + lower)/sqrt(2): (m + E - pi)/(sqrt(2) m) for the +E
    branch and (m - E - pi)/(sqrt(2) m) for the -E branch, the first from
    `mode_lower` and the second through (m + E - pi)(m - E - pi) = -2 m pi,
    so neither cancels.
    """
    up = 1.0 + mode_lower(pi, m)
    return up / SQRT2 if positive else -2.0 * (pi / m) / up / SQRT2
