"""Closed-form scattering solution for the smooth temporal step.

Derivation summary (self-contained; see also model.py for the reduced system).
Eliminating theta from

    i phi' = pi(t) phi + m theta,   i theta' = -pi(t) theta + m phi

gives a single oscillator equation

    phi'' + Omega^2(t) phi = 0,     Omega^2 = pi^2 + m^2 + i pi',

with pi(t) = p - q A(t) and pi' = -q dA/dt.  On each side of t0 the change of
variable

    zeta = -exp(+2 (t - t0)/tau)   ("earlier" chart, t -> -inf gives zeta -> 0-)
    zeta = -exp(-2 (t - t0)/tau)   ("later"   chart, t -> +inf gives zeta -> 0-)

turns the tanh profile into a rational function of zeta; writing
phi = zeta^mu (1 - zeta)^nu f(zeta) with the exponents chosen to cancel the
regular singular points at zeta = 0 and 1 leaves the Gauss hypergeometric
equation for f.  With the shorthand

    eps1 = tau E1 / 2,  eps2 = tau E2 / 2,  d = tau (pi1 - pi2) / 2,

the indicial analysis fixes (verified symbolically and by the residual tests)

    earlier chart: mu = i eps1, nu = i d,
        (a, b, c)    = (i(eps1 + d + eps2), i(eps1 + d - eps2), 1 + 2 i eps1)
        (a', b', c') = (a - 2 mu, b - 2 mu, 1 - 2 i eps1)       [zeta^-mu branch]
    later chart:   mu = i eps2, same nu, with eps1 <-> eps2.

These sums are the derivation's, not the program's: where m << |pi| some of
them cancel to ~m^2 of their terms, and the program takes every parameter
from the gap arguments instead (below).

Both charts meet at t = t0, where zeta = -1.  Powers of zeta are taken on
|zeta| = -zeta, as the connection formula below writes (-z)^(-a), so as the
chart's plateau is approached (zeta -> 0) each branch tends to its plane wave
with unit amplitude: |zeta|^(-mu) of the earlier chart and |zeta|^mu of the
later one to the positive-frequency e^(-i E (t - t0)), the other two to
e^(+i E (t - t0)).  A pure positive-frequency incident wave is the earlier
chart's |zeta|^(-mu) branch alone.

Only the positive-frequency branch of a chart needs a 2F1 series.  The
Hamiltonian pi sigma3 + m sigma1 is real, so if (phi, theta) solves the
system, so does its conjugate partner (theta*, -phi*).  Conjugation turns
the branch's power |zeta|^(+-i eps) into |zeta|^(-+i eps), keeps a power
series in the real zeta a power series, and takes the plateau's mode
(1, (E - pi)/m) to (E - pi)/m times the negative-frequency mode
(1, -(E + pi)/m).  By Frobenius uniqueness the partner times (E + pi)/m is
the chart's other branch with its unit head.  On the later chart, with
(E2 + pi2)/m = `model.mode_lower(-pi2, m)`,

    psi_b = mode_lower(-pi2, m) (theta_f*, -phi_f*).

The scattering amplitudes come from one chart alone.  The incident branch
|zeta|^-mu (1 - zeta)^nu F(a', b'; c'; zeta) solves the equation on the whole
line, and as t -> +inf (zeta -> -inf) the inverse-argument connection formula
(DLMF 15.8.2) splits it into the forward and backward plane waves.  The
chiral amplitude ratios are therefore ratios of Gamma functions,

    g_f/g_i = G(c') G(b'-a') / (G(b') G(c'-a'))
    g_b/g_i = G(c') G(a'-b') / (G(a') G(c'-b')),

evaluated as exp of a sum of log_gamma by `match_at_t0`.  Through
|G(iy)|^2 = pi/(y sinh pi y) and |G(1 + iy)|^2 = pi y/sinh(pi y) (DLMF
5.4.3, 5.4.4) their moduli are products of sinh factors, the fermion
Sauter-pulse coefficients (Narozhny & Nikishov, Sov. J. Nucl. Phys. 11, 596
(1970)):

    B_u = sinh(pi tau (|delta| + |E2 - E1|)/2) sinh(pi tau (|delta| - |E2 - E1|)/2)
          / (sinh(pi tau E1) sinh(pi tau E2)),
    F_u = sinh(pi tau (E1 + E2 + |delta|)/2) sinh(pi tau (E1 + E2 - |delta|)/2)
          / (sinh(pi tau E1) sinh(pi tau E2)),     delta = pi1 - pi2 = q (A2 - A1).

`scatter` evaluates these two products and nothing else: no log_gamma, no
hypergeometric series, no complex arithmetic.  delta is taken from the
inputs, once, as `AsymptoticModes.delta`, and `_gap_arguments` forms all
six arguments, the four numerators with E2 - E1 = -delta (pi1 + pi2)/(E1 + E2)
and E1 + E2 - |delta| = 2 (m^2 + E1 E2 + pi1 pi2)/(E1 + E2 + |delta|),
without subtraction, so a weak step keeps the relative accuracy of B_u, and
the denominators pi tau E1 and pi tau E2; at k = tau/2 in place of pi tau/2
they are every argument of `match_at_t0`'s Gamma functions.  They are
written once, as one formula (`_gap_formula`) that takes floats or
Decimals.  Where k, m^2, every argument and the two intermediates a
quotient can lift back into range are normal doubles, the float result is
returned; elsewhere (m^2 or a product of momenta beyond the double range,
E1/E2 or m/|pi| beyond it, tau down to 5e-324) the same formula runs in 40-digit
decimal with exponents to +-10^6, where nothing overflows or underflows,
and an argument below the smallest normal double is returned as its
logarithm.  That path costs ~0.1 ms a call, against ~6 us for a whole
`scatter` on floats, and no ordinary input takes it.  Over inputs drawn
from the whole double range, tau down to 5e-324 included, no point raises
or returns a NaN, and wherever pi tau (E1 + E2 + |delta|) < 1e-6 the result
is the Heaviside limit (`sharp_step`) to 6e-13 relative.  Each sinh is
taken as ln sinh x = x + ln(-expm1(-2x)) - ln 2, so nothing overflows and
the adiabatic tail is kept, and as x + ln x for an argument carried as a
logarithm; the amplitudes sqrt(F_u) and sqrt(B_u) follow from the
half-logarithms, so each stays representable where F_u or B_u underflows.
Over 20,000 random points with tau from 1e-12 to 1e10 (signed q down to
6e-6, m != 1, a1 != 0, t0 != 0) the unitarity defect |F_u + B_u - 1| stays
below 1.3e-14, and B_u agrees with 50-digit arithmetic to 4e-13 relative
wherever B_u > 1e-300; over 5,000 points from the whole double range f, b,
F_u and B_u agree with the decimal sinh products to 5e-13 wherever they
exceed 1e-290.
F_u + B_u = 1 is an identity of the two products in exact arithmetic, so
the command line's 1e-9 guard on it checks only their floating-point
evaluation; the independent check of the closed form is the
integrator (`oracle.compare`).  Every result carries the plateau
kinematics it was computed from (`ScatteringResult.modes`), so its
consumers do not derive them again.

The Heaviside limit is an identity of the same products: as tau -> 0 each
sinh tends to its argument, and

    F_u = (E1 + E2 + |delta|)(E1 + E2 - |delta|)/(4 E1 E2),
    B_u = (|delta| + |E2 - E1|)(|delta| - |E2 - E1|)/(4 E1 E2),

the gap arguments at k = 1/2 over E1 E2.  `sharp_step` evaluates these, so
it shares `scatter`'s cancellation-free arguments and its range.

The charts, and with them log_gamma, serve only the time-dependent
wavefunction API (`build_solution`, `match_at_t0`, `solve_earlier`, and
`solve_later`, which is the same function).  The matched wavefunction is
evaluated in the chart native to each side of the step: the earlier chart
for t <= t0, the later chart for t > t0.  Every 2F1 argument is then
zeta in [-1, 0), and deep in either half-line zeta underflows to -0, where
the spinor is its exact plane-wave limit.  Each spinor sums one 2F1 series:
for t <= t0 the incident branch, for t > t0 the later forward branch, whose
conjugate partner gives the backward wave.  `build_solution` builds the
`specfun.Hyp2F1Plan` of each chart's positive-frequency branch once, two
plans in all, and every evaluation shares them, so the choice of series and
its term ratios are not redone per time.  Both plans and `match_at_t0`'s
Gamma functions read one arrangement of `_gap_arguments` at k = tau/2
(`_connection_arguments`): with s the sign of delta, the incident branch is
(a', b', c') = (i s xa, -i xb, 1 - i x_1) with mu = -i x_1/2 and the later
forward branch (a, b, c) = (i xca, i s xa, 1 + i x_2) with mu = +i x_2/2, so
a parameter that is small because m << |pi| keeps its relative accuracy,
and an argument carried as its logarithm enters a plan as its value.  A plan
gives 2F1 = (1 - zeta)^kappa s(zeta) and 2F1' = (1 - zeta)^kappa f(zeta),
and a branch is evaluated as phi = |zeta|^mu (1 - zeta)^(nu + kappa) s(zeta):
its head is one complex exp, of mu ln|zeta| + (nu + kappa) ln(1 - zeta) with
the real ln(1 - zeta) = log1p(-zeta).  The lower component is taken by an
identity, not as (i phi' - pi phi)/m, a difference that cancels to
~m^2/(2 pi) of its terms: in i phi' the mu term is E phi and the nu term
cancels the step of pi(zeta), so
m theta = (E - pi) phi + (2 i sign/tau) zeta head f, where f carries a b/c,
as small as E - pi wherever that is small.  `match_at_t0` stores the Gamma ratios
themselves as the later chart's coefficients, c1l = g_f/g_i and
c2l = g_b/g_i, and `asymptotic_amplitudes` reads f, b, F, B, F_u and B_u
from them through `result_from_mode_amplitudes`.  The matched spinor gives
the incident wave the amplitude g_i = e^(pi eps1), so |psi|^2 =
e^(pi tau E1) (1 + l1^2) on the earlier plateau, l1 = (E1 - pi1)/m; that
amplitude overflows from eps1 ~ 225, so `build_solution` keeps the guard
eps1 + eps2 <= 200.  `match_at_t0` also stores what each spinor is
multiplied by, g_i for the incident branch, c_f = g_i c1l for the later
forward branch and c_b = g_i c2l (E2 + pi2)/m for its conjugate partner, so
`solve_earlier` forms no exp or mode factor per time.  c_f and c_b are each
one exp of the sum of their factors' logarithms, ln((E2 + pi2)/m) taken
from `model.log_half_angles`, so neither is inf, 0 inf = NaN or a lost
underflow where a factor leaves the double range; one beyond the double
range refuses the later side alone, and a chart's lower (E - pi)/m beyond
it refuses that chart's side.  The unitary pair (F_u, B_u)
projects onto orthonormalized modes: F_u is |c1l|^2 times the forward
mode's squared norm over the incident one's, and B_u likewise.  f and b are
the moduli of the later waves' standard-basis upper components relative to
the incident one's, F = f^2/(f^2+b^2) and B = b^2/(f^2+b^2); the two pairs
are related by f^2 = F_u E1 (E2 + m)/(E2 (E1 + m)) and
b^2 = B_u E1 (E2 - m)/(E2 (E1 + m)).  Every route, `scatter`, `sharp_step`
and `result_from_mode_amplitudes`, hands sqrt(F_u) and sqrt(B_u) to one
assembly (`_result`), which forms f, b, F and B from them.
"""

from __future__ import annotations

import cmath
import math
import sys

from .model import (
    AsymptoticModes,
    FrozenRecord,
    Record,
    StepParameters,
    TwoSpinor,
    asymptotic_modes,
    check_inputs,
    log_half_angles,
    mode_lower,
    plateau_modes,
    potential_at,
    potential_rate,
)
# hyp2f1 is not called here but stays bound: benchmarks/test_bench.py checks
# that tracing restores analytic.hyp2f1
from .specfun import Hyp2F1Plan, hyp2f1, log_gamma  # noqa: F401

__all__ = [
    "ParameterRangeError",
    "ChartExpansion",
    "HypergeometricSolution",
    "ScatteringResult",
    "governing_frequency",
    "build_solution",
    "solve_earlier",
    "solve_later",
    "match_at_t0",
    "asymptotic_amplitudes",
    "scatter",
    "sharp_step",
    "result_from_mode_amplitudes",
]

# the incident amplitude e^(pi eps1) of the matched spinor overflows a double
# from eps1 ~ 225; the bound on eps1 + eps2 also bounds |d|
_EPS_SUM_LIMIT = 200.0

# the bars on a result's probabilities, read at each use by the command
# line's guard and by the selftest battery
PROBABILITY_SUM_TOL = 1e-12  # |F + B - 1|
UNITARITY_TOL = 1e-9  # |F_u + B_u - 1|


class ParameterRangeError(ValueError):
    """tau * E too large for accurate double-precision evaluation, or a
    coefficient of `match_at_t0` beyond the double range: c1l or c2l (as
    where tau E2 is far below it), or c_f or c_b for the later spinors."""


class ChartExpansion(FrozenRecord):
    """Hypergeometric data of one chart.

    sign: +1 for the earlier chart, -1 for the later one, as
    d(zeta)/dt = sign * 2 zeta / tau.  lower = (E_asym - pi_asym)/m =
    `model.mode_lower(pi_asym, m)`, the lower component of the chart's
    plateau mode (1, lower), taken once with the chart; the spinor's theta
    is lower times phi plus a term that carries the 2F1's derivative
    (`_chart_spinor`).  eps = tau * E_asym / 2 is the chart's frequency
    scale and nu = i d the exponent of (1 - zeta).  The chart holds one
    Frobenius branch, its positive-frequency one: mu = -sign i eps, the
    exponent of |zeta| (the module docstring's -mu on the earlier chart, mu
    on the later), so the branch tends to e^(-i E_asym (t - t0)) on the
    chart's plateau, and plan, the series plan of its 2F1, (a', b', c') on
    the earlier chart and (a, b, c) on the later one, each parameter a gap
    argument (`_connection_arguments`).  The other branch is that one's
    conjugate partner (theta*, -phi*) times (E_asym + pi_asym)/m (module
    docstring), so it needs no series of its own.  The plan is built once
    with the chart and shared by every evaluation of it; it takes no part
    in comparison, hash or repr.
    """

    fields = ("sign", "lower", "eps", "nu", "mu")

    def __init__(self, sign: int, lower: float, eps: float, nu: complex, mu: complex,
                 plan: Hyp2F1Plan):
        self.__dict__.update(sign=sign, lower=lower, eps=eps, nu=nu, mu=mu, plan=plan)


class HypergeometricSolution(FrozenRecord):
    """Both charts, their plateau kinematics, and the later chart's
    coefficients once `match_at_t0` has set them: c1l = g_f/g_i and c2l =
    g_b/g_i, the amplitudes of the later forward and backward waves per unit
    incident amplitude.  The earlier chart carries the incident branch alone.

    `match_at_t0` also stores what `solve_earlier` multiplies each chart's
    branch by: g_i = e^(pi eps1), the incident amplitude, c_f = g_i c1l for
    the later forward branch and c_b = g_i c2l mode_lower(-pi2, m) for its
    conjugate partner.  A coefficient beyond the double range is None, and
    later_refused says which, with its exponent.  A chart's lower,
    (E - pi)/m, overflows where pi < 0 and m << |pi|, and its spinors would
    be inf or NaN: later_refused then names (E2 - pi2)/m too, and
    earlier_refused names (E1 - pi1)/m."""

    fields = ("earlier", "later", "modes", "c1l", "c2l", "g_i", "c_f", "c_b",
              "later_refused", "earlier_refused")

    def __init__(self, earlier: ChartExpansion, later: ChartExpansion,
                 modes: AsymptoticModes, c1l: complex | None = None,
                 c2l: complex | None = None, g_i: float | None = None,
                 c_f: complex | None = None, c_b: complex | None = None,
                 later_refused: str | None = None, earlier_refused: str | None = None):
        self.__dict__.update(earlier=earlier, later=later, modes=modes, c1l=c1l, c2l=c2l,
                             g_i=g_i, c_f=c_f, c_b=c_b, later_refused=later_refused,
                             earlier_refused=earlier_refused)


class ScatteringResult(Record):
    """Scattering amplitude ratios and probabilities of one step.

    modes holds the plateau kinematics (pi1, pi2, E1, E2, delta) the result
    was computed from.  f and b are the moduli of the standard-basis upper
    components of the later forward/backward plane waves relative to the
    incident one.  (F, B) normalize f^2, b^2 to unity; (F_u, B_u) are the
    unitary-projection probabilities, whose sum is 1 by norm conservation:
    an identity of `scatter`'s closed form, a diagnostic of the integrator's.
    """

    fields = ("modes", "f", "b", "F", "B", "F_u", "B_u")

    def __init__(self, modes: AsymptoticModes, f: float, b: float, F: float, B: float,
                 F_u: float, B_u: float):
        self.modes = modes
        self.f = f
        self.b = b
        self.F = F
        self.B = B
        self.F_u = F_u
        self.B_u = B_u


def governing_frequency(t: float, params: StepParameters) -> complex:
    """Squared complex frequency Omega^2(t) = pi(t)^2 + m^2 + i pi'(t)."""
    piv = params.p - params.q * potential_at(t, params)
    pidot = -params.q * potential_rate(t, params)
    return complex(piv * piv + params.m * params.m, pidot)


def _connection_arguments(modes: AsymptoticModes, m: float,
                          tau: float) -> tuple[float, ...]:
    """(s, xa, xcb, xb, xca, x_1, x_2): `_gap_arguments` at k = tau/2
    arranged as the incident branch's parameters, a' = i s xa,
    c' - b' = 1 - i s xcb, b' = -i xb, c' - a' = 1 - i xca, c' = 1 - i x_1
    and b' - a' = -i x_2, with s the sign of delta.  b' and c' - a' are
    k (E1 + E2 -+ |delta|) in the order of that sign, a' and c' - b' take
    k (|delta| -+ |E2 - E1|) in the order of the sign of pi1 + pi2.  The
    later chart's positive-frequency branch has (a, b, c) =
    (i xca, i s xa, 1 + i x_2)."""
    w, gap, x_hi, x_lo, x_1, x_2 = _gap_arguments(modes, m, 0.5, tau)
    s = math.copysign(1.0, modes.delta)
    xb, xca = (gap, w) if s > 0.0 else (w, gap)
    xa, xcb = (x_lo, x_hi) if modes.pi1 + modes.pi2 >= 0.0 else (x_hi, x_lo)
    return s, xa, xcb, xb, xca, x_1, x_2


def build_solution(params: StepParameters) -> HypergeometricSolution:
    """Construct both chart expansions; coefficients left unset.

    Each plan's parameters are the `_connection_arguments` `match_at_t0`
    reads, an argument carried as its logarithm entering as its value."""
    modes = asymptotic_modes(params)
    s, *gaps = _connection_arguments(modes, params.m, params.tau)
    xa, _, xb, xca, x_1, x_2 = (x if x >= 0.0 else math.exp(x) for x in gaps)
    eps1, eps2 = 0.5 * x_1, 0.5 * x_2
    # |d| <= tau (|pi1| + |pi2|)/2 <= eps1 + eps2, so this bounds d too
    if eps1 + eps2 > _EPS_SUM_LIMIT:
        raise ParameterRangeError(
            f"tau*(E1+E2)/2 = {eps1 + eps2:.3g} exceeds the supported range "
            f"{_EPS_SUM_LIMIT}: the incident amplitude e^(pi tau E1/2) must stay "
            "below the double-precision overflow threshold"
        )
    nu = 1j * (0.5 * params.tau * modes.delta)
    return HypergeometricSolution(
        earlier=ChartExpansion(+1, mode_lower(modes.pi1, params.m), eps1, nu, -1j * eps1,
                               Hyp2F1Plan(1j * s * xa, -1j * xb, 1.0 - 1j * x_1)),
        later=ChartExpansion(-1, mode_lower(modes.pi2, params.m), eps2, nu, 1j * eps2,
                             Hyp2F1Plan(1j * xca, 1j * s * xa, 1.0 + 1j * x_2)),
        modes=modes,
    )


def _chart_spinor(chart: ChartExpansion, params: StepParameters,
                  t: float) -> tuple[complex, complex]:
    """Chiral components (phi, theta) at time t of the chart's
    positive-frequency branch, with its unit head.

    The plan gives 2F1 = (1-zeta)^kappa s and 2F1' = (1-zeta)^kappa f, so
    the branch is phi = head s with head = |zeta|^mu (1-zeta)^(nu+kappa),
    taken in one exp of the real logarithms ln|zeta| and ln(1 - zeta).
    theta is (i phi' - pi phi)/m, taken by an identity: in i phi' the mu
    term is E phi and the nu term cancels the step of pi(zeta) exactly, so
    m theta = (E - pi_asym) phi + (2 i sign/tau) zeta head f, E - pi_asym
    being m times the chart's lower.  f carries a b/c, which is as small as
    E - pi_asym wherever that is small, so nothing cancels; the division by
    m comes last, so that 1/(tau m) is never formed on its own.
    """
    sign, tau = chart.sign, params.tau
    log_abs_zeta = sign * 2.0 * ((t - params.t0) / tau)
    zeta = -math.exp(log_abs_zeta)
    kappa, s, f = chart.plan.series(zeta)
    # zeta < 0, so ln(1 - zeta) is real
    head = cmath.exp(chart.mu * log_abs_zeta + (chart.nu + kappa) * math.log1p(-zeta))
    phi = head * s
    return phi, chart.lower * phi + sign * 2j * (zeta * head * f / tau) / params.m


def solve_earlier(sol: HypergeometricSolution, t: float,
                  params: StepParameters) -> TwoSpinor:
    """Chiral spinor of the matched solution at time t.

    Each side of t0 is evaluated in its own chart, where the chart variable
    lies in [-1, 0): t <= t0 in the earlier chart with the incident branch
    alone, t > t0 in the later chart with (c1l, c2l).  The later backward
    wave is the forward one's conjugate partner (theta*, -phi*) times
    (E2 + pi2)/m, so each side sums one 2F1 series.  The incident wave has
    amplitude g_i = e^(pi eps1), so |psi|^2 = e^(pi tau E1) (1 + l1^2) on the
    earlier plateau, l1 = (E1 - pi1)/m.  g_i and the later branches'
    coefficients c_f = g_i c1l and c_b = g_i c2l (E2 + pi2)/m are fixed by
    the matching, so `match_at_t0` stores them and each call only reads
    them.  Deep in either half-line zeta underflows to -0 and the spinor is
    the exact plane-wave limit.  Where c_f, c_b or the later chart's
    (E2 - pi2)/m is beyond the double range, t > t0 raises
    ParameterRangeError naming it, and where the earlier chart's
    (E1 - pi1)/m is, t <= t0 does.  A t that is not finite raises
    ValueError naming it.  `solve_later` is the same function.
    """
    if sol.c1l is None:
        raise ValueError("coefficients unset; run match_at_t0 first")
    if not abs(t) < math.inf:  # one comparison, NaN included
        raise ValueError(f"t must be finite, got t = {t}")
    if t <= params.t0:
        if sol.earlier_refused is not None:
            raise ParameterRangeError(sol.earlier_refused)
        phi, theta = _chart_spinor(sol.earlier, params, t)
        g_i = sol.g_i
        return TwoSpinor(g_i * phi, g_i * theta)
    if sol.later_refused is not None:
        raise ParameterRangeError(sol.later_refused)
    phi, theta = _chart_spinor(sol.later, params, t)
    c_f, c_b = sol.c_f, sol.c_b
    return TwoSpinor(c_f * phi + c_b * theta.conjugate(), c_f * theta - c_b * phi.conjugate())


solve_later = solve_earlier


def match_at_t0(sol: HypergeometricSolution, params: StepParameters) -> HypergeometricSolution:
    """Continue the incident branch of the earlier chart into the later chart.

    The later chart's coefficients are the amplitude ratios c1l = g_f/g_i
    and c2l = g_b/g_i of the connection formula (DLMF 15.8.2), the Gamma
    ratios of the module docstring for the incident branch's
    (a', b', c') = (i(d + eps2 - eps1), i(d - eps2 - eps1), 1 - 2i eps1).
    Every Gamma argument is one of `_connection_arguments`, the gap
    arguments at k = tau/2 that `build_solution`'s plans read too, so
    differences are written out rather than subtracted.  All seven log G
    are taken by one route, `_log_gamma_gap`, which reads an argument below
    the normal range from its logarithm, so none of them meets the pole at
    0; log G(a' - b') = log G(+i tau E2) is the conjugate of
    log G(-i tau E2).  a' = 0 only for a trivial step (delta = 0), where
    1/G(a') = 0.  The coefficients `solve_earlier` applies, g_i, c_f and c_b,
    are set here too (`HypergeometricSolution`), each as one exp of the sum
    of its factors' logarithms: c_f = e^(pi eps1 + log c1l) and c_b =
    e^(pi eps1 + log c2l + ln((E2 + pi2)/m)), the last from
    `model.log_half_angles`.
    Where c1l or c2l is beyond the double range, it raises
    ParameterRangeError naming it; where c_f, c_b or the later chart's lower
    is, only the later side is refused, as c1l and c2l and the earlier side
    do not need them, and where the earlier chart's lower is, only the
    earlier side (`HypergeometricSolution`).
    """
    modes = sol.modes
    s, xa, xcb, xb, xca, x_1, x_2 = _connection_arguments(modes, params.m, params.tau)
    # c' = 1 - i x_1 and b' - a' = -i x_2; a' - b' = +i x_2 takes the conjugate
    lg_c = _log_gamma_gap(1.0, -1.0, x_1)
    lg_ba = _log_gamma_gap(0.0, -1.0, x_2)
    log_f = lg_c + lg_ba - _log_gamma_gap(0.0, -1.0, xb) - _log_gamma_gap(1.0, -1.0, xca)
    log_g_i = math.pi * sol.earlier.eps
    c1l = _gamma_ratio("c1l", log_f, x_2)
    c_f, why_f = _exp_or_why("c_f", log_g_i + log_f)
    c2l, c_b, why_b = 0j, 0j, None
    if xa != 0.0:
        log_b = (lg_c + lg_ba.conjugate() - _log_gamma_gap(0.0, s, xa)
                 - _log_gamma_gap(1.0, -s, xcb))
        c2l = _gamma_ratio("c2l", log_b, x_2)
        # ln mode_lower(-pi2, m) = ln((E2 + pi2)/m) = ln cot(theta2/2): the
        # factor itself can overflow where c2l underflows
        lc2, ls2 = log_half_angles(modes.pi2, modes.e2, params.m)
        c_b, why_b = _exp_or_why("c_b", log_g_i + log_b + (lc2 - ls2))
    # a chart's lower, (E - pi)/m, overflows where pi < 0 and m << |pi|
    why_l = None if sol.later.lower < math.inf else "(E2 - pi2)/m is beyond the double range"
    why_e = None if sol.earlier.lower < math.inf else "(E1 - pi1)/m is beyond the double range"
    return sol.replace(c1l=c1l, c2l=c2l, g_i=math.exp(log_g_i), c_f=c_f, c_b=c_b,
                       later_refused="; ".join(filter(None, (why_f, why_b, why_l))) or None,
                       earlier_refused=why_e)


def _exp_or_why(name: str, exponent: complex) -> tuple[complex | None, str | None]:
    """(e^exponent, None), the coefficient `name` of `match_at_t0` from the
    sum of its factors' logarithms, or (None, why) where it is beyond the
    double range.  g_i = e^(pi eps1) is within e^628 (`_EPS_SUM_LIMIT`), so
    the exp of the sum is as accurate as the product of the factors, and
    meets no inf, 0 inf = NaN or underflow that the product would."""
    try:
        return cmath.exp(exponent), None
    except OverflowError:
        return None, f"{name} = e^({exponent:.6g}) is beyond the double range"


def _gamma_ratio(name: str, exponent: complex, x_2: float) -> complex:
    """e^exponent, the coefficient `name` of `match_at_t0` from its log G
    sum, or ParameterRangeError naming tau E2 (x_2, a gap argument) and the
    exponent where the coefficient is beyond the double range."""
    value, why = _exp_or_why(name, exponent)
    if why is not None:
        tau_e2 = f"{x_2:.6g}" if x_2 >= 0.0 else f"e^({x_2:.6g})"
        raise ParameterRangeError(f"{why} at tau E2 = {tau_e2}")
    return value


def _result(modes: AsymptoticModes, m: float, a_f: float, a_b: float) -> ScatteringResult:
    """The one assembly of a ScatteringResult, from the unitary amplitudes
    a_f = sqrt(F_u) and a_b = sqrt(B_u).

    f^2 = F_u E1 (E2 + m)/(E2 (E1 + m)) and b^2 = B_u E1 (E2 - m)/(E2 (E1 + m))
    (module docstring), taken as f = a_f sqrt((1 + m/E2)/(1 + m/E1)) and, with
    E2 - m = pi2^2/(E2 + m), b = a_b (|pi2|/E2)/sqrt((1 + m/E1)(1 + m/E2)):
    every factor lies in [1/2, 2] but |pi2|/E2 <= 1, so f and b are
    representable wherever a_f and a_b are.  F and B are formed on the
    smaller of b/f and f/b, so neither is 0/0 or overflows.
    """
    g1, g2 = 1.0 + m / modes.e1, 1.0 + m / modes.e2
    f = a_f * math.sqrt(g2 / g1)
    b = a_b * (abs(modes.pi2) / modes.e2) / math.sqrt(g1 * g2)
    r = b / f if b <= f else f / b
    r2 = r * r
    big, small = 1.0 / (1.0 + r2), r2 / (1.0 + r2)
    F, B = (big, small) if b <= f else (small, big)
    return ScatteringResult(modes=modes, f=f, b=b, F=F, B=B, F_u=a_f * a_f, B_u=a_b * a_b)


def result_from_mode_amplitudes(g_f: complex, g_b: complex, m: float,
                                modes: AsymptoticModes) -> ScatteringResult:
    """Assemble a ScatteringResult from the chiral amplitudes g_f and g_b of
    the later forward and backward modes (1, l) per unit incident one.

    F_u = |g_f|^2 and B_u = |g_b|^2 times the ratio of the mode's squared
    norm to the incident mode's, 1/cos^2(theta2/2) and 1/sin^2(theta2/2)
    against 1/cos^2(theta1/2) (`model.log_half_angles`): a_f = |g_f|
    cos(theta1/2)/cos(theta2/2) and a_b = |g_b| cos(theta1/2)/sin(theta2/2)
    are each one exp of a sum of logarithms, so no ratio of mode factors is
    formed and nothing leaves the double range where a_f and a_b do not."""
    lc1 = log_half_angles(modes.pi1, modes.e1, m)[0]
    lc2, ls2 = log_half_angles(modes.pi2, modes.e2, m)
    a_f = math.exp(math.log(abs(g_f)) + lc1 - lc2) if g_f else 0.0
    a_b = math.exp(math.log(abs(g_b)) + lc1 - ls2) if g_b else 0.0
    return _result(modes, m, a_f, a_b)


def asymptotic_amplitudes(sol: HypergeometricSolution, params: StepParameters) -> ScatteringResult:
    """Extract plane-wave amplitudes from the matched solution.

    In each chart zeta -> 0 sends 2F1 -> 1 and (1-zeta)^nu -> 1, so every
    branch tends to its plane wave with unit amplitude, and c1l and c2l are
    the chiral amplitudes of the later waves per unit incident amplitude.
    """
    if sol.c1l is None:
        raise ValueError("solution is unmatched; run match_at_t0 first")
    return result_from_mode_amplitudes(sol.c1l, sol.c2l, params.m, sol.modes)


def _log_sinh_excess(x: float) -> float:
    """ln(2 sinh x) - x = ln(1 - e^(-2x)) for x > 0, accurate at both ends.
    A negative x is the logarithm of an argument below the normal range
    (`_gap_arguments`), where ln(2 sinh y) - y = ln 2 + ln y."""
    return math.log(-math.expm1(-2.0 * x)) if x >= 0.0 else math.log(2.0) + x


def _log_gamma_gap(shift: float, sign: float, x: float) -> complex:
    """log G(shift + i sign x), shift 0 or 1, for a gap argument x of
    `_gap_arguments`.  A negative x is ln y of an argument y below the
    normal range: log G(1 + i sign y) takes y itself, and
    log G(i sign y) = log G(1 + i sign y) - ln y - i (pi/2) sign."""
    if x >= 0.0:
        return log_gamma(shift + 1j * (sign * x))
    lg = log_gamma(1.0 + 1j * (sign * math.exp(x)))
    return lg if shift else lg - complex(x, math.copysign(0.5 * math.pi, sign))


def _gap_formula(e1, e2, pi1, pi2, delta, m, k):
    """The six arguments of `_gap_arguments`, then the two intermediates a
    quotient can lift back into range: the unlike-sign numerator
    2 k m (D + X)/D m and |delta|/(E1 + E2).  Written once for floats and
    Decimals alike: the same operations, in the same order, on either."""
    e1e2, p12, e_sum = e1 * e2, pi1 * pi2, e1 + e2
    width_f, width_b = e_sum + delta, e_sum + abs(pi1 + pi2)
    # the numerator of the gap whose products add, and k times the other's
    like = 2 * (m * m + e1e2 + abs(p12))
    d = e1e2 + abs(p12)
    unlike = 2 * (k * (m * ((d + (pi1 * pi1 + pi2 * pi2 + m * m)) / d))) * m
    kgap_f = k * (like / width_f) if p12 >= 0 else unlike / width_f
    kgap_b = k * (like / width_b) if p12 <= 0 else unlike / width_b
    ratio = delta / e_sum
    return [k * width_f, kgap_f, k * (delta * (width_b / e_sum)), kgap_b * ratio,
            2 * k * e1, 2 * k * e2, unlike, ratio]


def _gap_arguments(modes: AsymptoticModes, m: float, c: float, tau: float) -> list[float]:
    """k (E1 + E2 + |delta|), k (E1 + E2 - |delta|), k (|delta| + |E2 - E1|),
    k (|delta| - |E2 - E1|), 2 k E1 and 2 k E2, with k = c tau, free of
    cancellation, overflow and early underflow.  At k = pi tau/2 they are
    the sinh products' arguments, four numerators and the denominators
    pi tau E1 and pi tau E2; at k = tau/2 the connection formula's Gamma
    arguments, the last two tau E1 and tau E2; at k = 1/2 the Heaviside
    limit's, the last two E1 and E2.

    A gap E1 + E2 - |pi1 -+ pi2| is 2 (m^2 + E1 E2 +- pi1 pi2) over
    E1 + E2 + |pi1 -+ pi2|; where the products have opposite signs,
    (E1 E2)^2 - (pi1 pi2)^2 = m^2 X makes the numerator m^2 (D + X) / D,
    D = E1 E2 + |pi1 pi2|, X = pi1^2 + pi2^2 + m^2, and k comes before the
    second factor of m.  As E2 - E1 = -delta (pi1 + pi2)/(E1 + E2),
    |delta| -+ |E2 - E1| is |delta| times (E1 + E2 -+ |pi1 + pi2|)/(E1 + E2).
    `_gap_formula` writes these once.

    It is evaluated on floats first, and that result is returned wherever
    k and m^2 are normal doubles and every argument, and each intermediate
    a quotient can lift back into range, is finite and normal.  There no
    factor, divisor or quotient has lost digits to the range: pi1 pi2 and
    pi^2 can be subnormal, but only as terms of a sum with a normal m^2 or
    E1 E2, and the like-sign quotient that k multiplies is at least
    E1 E2/(E1 + E2) >= m/2.  Elsewhere (m^2 or a product of momenta beyond
    the double range, E1/E2 or m/|pi| beyond it, a subnormal k) the same
    formula is evaluated on Decimals with 40 digits and exponents to
    +-10^6, where nothing overflows or underflows, at ~0.1 ms a call
    against ~6 us for a whole `scatter` on floats; decimal is imported
    there only.  Each result is then returned as a float where it is
    normal, inf where it overflows, and otherwise as its logarithm, a number
    below -708.  The arguments themselves are >= 0, and 0 only for a
    trivial step (delta = 0), whose third and fourth are exact zeros on
    either path.
    """
    tiny = sys.float_info.min
    k = c * tau
    kinematics = (modes.e1, modes.e2, modes.pi1, modes.pi2, abs(modes.delta), m)
    # a normal m^2 also keeps D = E1 E2 + |pi1 pi2| from 0
    if k >= tiny and m * m >= tiny:
        values = _gap_formula(*kinematics, k)
        # a trivial step's third and fourth arguments and |delta|/(E1 + E2) are 0
        checked = values if modes.delta else values[:2] + values[4:7]
        # the sum is inf or NaN wherever one of them is (and inf where it
        # overflows, which only sends a point to the Decimals)
        if min(checked) >= tiny and sum(checked) < math.inf:
            return values[:6]
    import decimal
    # no traps: non-finite kinematics give NaN, as the float formula does
    with decimal.localcontext(decimal.Context(prec=40, Emin=-10**6, Emax=10**6, traps=[])):
        exact = _gap_formula(*map(decimal.Decimal, kinematics),
                             decimal.Decimal(c) * decimal.Decimal(tau))[:6]
        small = decimal.Decimal(tiny)
        return [float(a) if a >= small or not a else float(a.ln()) for a in exact]


def scatter(params: StepParameters) -> ScatteringResult:
    """Scattering amplitudes and probabilities from the elementary moduli.

    F_u and B_u are the sinh products of the module docstring, each taken in
    logarithms, and their half-logarithms give the amplitudes `_result` takes.
    """
    modes = asymptotic_modes(params)
    w, kgap_f, x_hi, x_lo, x_1, x_2 = _gap_arguments(modes, params.m, 0.5 * math.pi, params.tau)
    log_denom = _log_sinh_excess(x_1) + _log_sinh_excess(x_2)
    # the linear parts of the log-sinh pairs cancel exactly in F_u and leave
    # -pi tau (E1 + E2 - |delta|) in B_u, nothing where that is below the range
    log_f_u = _log_sinh_excess(w) + _log_sinh_excess(kgap_f) - log_denom
    # a trivial step's B_u is 0
    log_b_u = (-2.0 * (kgap_f if kgap_f > 0.0 else 0.0) + _log_sinh_excess(x_hi)
               + _log_sinh_excess(x_lo) - log_denom) if x_lo else -math.inf
    return _result(modes, params.m, math.exp(0.5 * log_f_u), math.exp(0.5 * log_b_u))


def _sqrt_ratio(x: float, e: float) -> float:
    """sqrt(y/e) for a gap argument x of `_gap_arguments`: y = x, or e^x
    where x < 0 carries an argument below the normal range."""
    return math.sqrt(x) / math.sqrt(e) if x >= 0.0 else math.exp(0.5 * (x - math.log(e)))


def sharp_step(m: float, q: float, p: float, a1: float, a2: float) -> ScatteringResult:
    """Heaviside-limit scattering: the closed form at tau -> 0.

    As tau -> 0 every sinh in F_u and B_u tends to its argument, and the
    products become F_u = (E1 + E2 + |delta|)(E1 + E2 - |delta|)/(4 E1 E2)
    and B_u = (|delta| + |E2 - E1|)(|delta| - |E2 - E1|)/(4 E1 E2): the
    four gap arguments of `_gap_arguments` at k = 1/2, free of cancellation
    and overflow, over E1 E2.  Each amplitude is taken as
    sqrt(x_hi/max(E1, E2)) sqrt(x_lo/min(E1, E2)), x_hi and x_lo the larger
    and smaller argument of its pair, whose factors cannot overflow, and f,
    b, F and B follow from `_result`.  At pi2 = 0
    the backward mode's standard-basis upper component vanishes, so b = 0
    exactly while B_u > 0.  The inputs are checked by `model.check_inputs`,
    the rule StepParameters applies: m <= 0 or a non-finite input raises
    ValueError.
    """
    check_inputs({"m": m, "q": q, "p": p, "a1": a1, "a2": a2})
    modes = plateau_modes(m, q, p, a1, a2)
    w, gap, x_hi, x_lo = _gap_arguments(modes, m, 0.5, 1.0)[:4]
    e_hi, e_lo = max(modes.e1, modes.e2), min(modes.e1, modes.e2)
    return _result(modes, m, _sqrt_ratio(w, e_hi) * _sqrt_ratio(gap, e_lo),
                   _sqrt_ratio(x_hi, e_hi) * _sqrt_ratio(x_lo, e_lo))
