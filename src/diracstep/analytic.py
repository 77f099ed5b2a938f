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

Only the positive-frequency branch of a chart needs a 2F1 series, and each
chart scales it to its plateau's unit eigenmode: with theta = atan2(m, pi)
on that plateau, the branch tends to (cos theta/2, sin theta/2)
e^(-i E (t - t0)).  The Hamiltonian pi sigma3 + m sigma1 is real, so if
(phi, theta) solves the system, so does its conjugate partner
(theta*, -phi*).  Conjugation turns the branch's power |zeta|^(+-i eps)
into |zeta|^(-+i eps), keeps a power series in the real zeta a power
series, and takes the plateau's eigenmode to (sin theta/2, -cos theta/2)
e^(+i E (t - t0)), the unit -E eigenmode.  By Frobenius uniqueness the
partner is the chart's other branch, on its unit eigenmode too.  On the
later chart

    psi_b = (theta_f*, -phi_f*).

The scattering amplitudes come from one chart alone.  The incident branch
|zeta|^-mu (1 - zeta)^nu F(a', b'; c'; zeta) solves the equation on the whole
line, and as t -> +inf (zeta -> -inf) the inverse-argument connection formula
(DLMF 15.8.2) splits it into the forward and backward plane waves.  Their
chiral amplitudes per unit incident one are therefore ratios of Gamma
functions,

    g_f/g_i = G(c') G(b'-a') / (G(b') G(c'-a'))
    g_b/g_i = G(c') G(a'-b') / (G(a') G(c'-b')),

and `match_at_t0` takes the phase of each from a sum of log_gamma.  Through
|G(iy)|^2 = pi/(y sinh pi y) and |G(1 + iy)|^2 = pi y/sinh(pi y) (DLMF
5.4.3, 5.4.4) their moduli are products of sinh factors, the fermion
Sauter-pulse coefficients (Narozhny & Nikishov, Sov. J. Nucl. Phys. 11, 596
(1970)), once each chiral mode is taken to its eigenmode:

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
the real ln(1 - zeta) = log1p(-zeta).  With a unit head the lower component
would be theta = (i phi' - pi phi)/m, a difference that cancels to
~m^2/(2 pi) of its terms, so it is taken by an identity: in i phi' the mu
term is E phi and the nu term cancels the step of pi(zeta), so
m theta = (E - pi) phi + (2 i sign/tau) zeta head f, where f carries a b/c,
as small as E - pi wherever that is small.  On the unit eigenmode the
branch is (cos(theta/2) phi, sin(theta/2) phi + (cos(theta/2)/m)
(2 i sign/tau) zeta head f), as (E - pi)/m = tan(theta/2): the chart holds
the three factors, each one number taken from `model.log_half_angles`
(`_half_angles`), so none overflows, and cos(theta/2)/m stays finite where
cos(theta/2) underflows (pi < 0, m << |pi|) and the second term is still
O(1).

`match_at_t0` reports the later waves as unitary eigenmode amplitudes, the
convention the integrator (`oracle.integrate`) reports them in too: u_f is
the amplitude of the late +E eigenmode (cos theta2/2, sin theta2/2) and u_b
that of its conjugate partner (sin theta2/2, -cos theta2/2), each per unit
incident eigenmode (cos theta1/2, sin theta1/2) and with the
e^(-/+i E2 (t - t0)) phases stripped, so |u_f|^2 = F_u and |u_b|^2 = B_u.
A positive-frequency branch with unit head tends to its eigenmode over
cos(theta/2), and the later partner branch to (sin theta2/2, -cos theta2/2)
over sin(theta2/2), so u_f = (g_f/g_i) cos(theta1/2)/cos(theta2/2) and
u_b = (g_b/g_i) cos(theta1/2)/sin(theta2/2).  The half angles are positive
and the Gamma ratios' moduli are the sinh products, so each is
e^(ln P/2 + i phase): ln P = ln F_u or ln B_u from `_log_sinh_products`,
`scatter`'s own formula, and the phase from the log G sum, taken on the
line Re z = 1 alone as arg G(iy) = arg G(1 + iy) - sign(y) pi/2.  Neither
can overflow, and |u_f|^2 + |u_b|^2 = F_u + B_u, not a sum of logarithms
that cancel to ~ulp(ln cos(theta2/2)) where a half angle is small.
`asymptotic_amplitudes` hands |u_f| and |u_b| to
`result_from_amplitudes`.  The matched spinor is one real
N = e^(pi eps1)/cos(theta1/2) times the unit incident eigenmode's solution:
for t <= t0 the earlier chart's branch, for t > t0 u_f times the later
chart's branch plus u_b times its conjugate partner.  The Hamiltonian is
Hermitian, so that solution keeps its unit norm at every t, and
|psi(t)| = N: |psi|^2 = e^(pi tau E1) (1 + l1^2), l1 = (E1 - pi1)/m, a
unit-head incident branch times e^(pi eps1).  `match_at_t0` stores ln N,
and `HypergeometricSolution` N, N u_f and N u_b, so `solve_earlier` forms
no exp per time.  Where ln N = pi eps1 - ln cos(theta1/2) exceeds ln of the
largest double, both sides are refused, naming that exponent; elsewhere no
component of a spinor can overflow, as none exceeds N.  f and b are the
moduli of the later waves' standard-basis upper components relative to the
incident one's, F = f^2/(f^2+b^2) and B = b^2/(f^2+b^2); they follow from
the unitary pair by f^2 = F_u E1 (E2 + m)/(E2 (E1 + m)) and
b^2 = B_u E1 (E2 - m)/(E2 (E1 + m)).  Every route, `scatter`, `sharp_step`,
`asymptotic_amplitudes` and `oracle.compare`, hands sqrt(F_u) and sqrt(B_u)
(`scatter` and `asymptotic_amplitudes` from one sinh formula, `sharp_step`
from its tau -> 0 limit) to one assembly (`result_from_amplitudes`), which
forms f, b, F and B from them.
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
    plateau_modes,
)
# hyp2f1 is not called here but stays bound: benchmarks/test_bench.py checks
# that tracing restores analytic.hyp2f1
from .specfun import Hyp2F1Plan, hyp2f1, log_gamma  # noqa: F401

__all__ = [
    "ParameterRangeError",
    "ChartExpansion",
    "HypergeometricSolution",
    "ScatteringResult",
    "build_solution",
    "solve_earlier",
    "solve_later",
    "match_at_t0",
    "asymptotic_amplitudes",
    "scatter",
    "sharp_step",
    "result_from_amplitudes",
]

# the range of the chart series: build_solution refuses tau (E1 + E2)/2
# above it, which also bounds |d|.  It is not an overflow threshold (the
# norm rule of `HypergeometricSolution` refuses exactly what would
# overflow); the series cancel more as tau E grows
_EPS_SUM_LIMIT = 200.0

# the bars on a result's probabilities, read at each use by the command
# line's guard and by the selftest battery
PROBABILITY_SUM_TOL = 1e-12  # |F + B - 1|
UNITARITY_TOL = 1e-9  # |F_u + B_u - 1|

# ln of the largest double: a matched spinor whose ln N exceeds it is beyond
# the double range
_LOG_MAX = math.log(sys.float_info.max)


class ParameterRangeError(ValueError):
    """tau (E1 + E2)/2 beyond the range of the chart series
    (`build_solution`), or a matched spinor beyond the double range: its
    norm N = e^(pi eps1)/cos(theta1/2) is (`solve_earlier`).  The amplitudes
    u_f and u_b are never refused."""


class ChartExpansion(FrozenRecord):
    """Hypergeometric data of one chart.

    sign: +1 for the earlier chart, -1 for the later one, as
    d(zeta)/dt = sign * 2 zeta / tau.  log_cos and log_sin are
    ln cos(theta/2) and ln sin(theta/2) of the chart's plateau,
    theta = atan2(m, pi_asym), from `model.log_half_angles`, and cos_over_m
    is cos(theta/2)/m (`_half_angles`): the factors that put the chart's
    branch on its plateau's unit eigenmode (`_chart_spinor`), which reads
    cos(theta/2) and sin(theta/2) as their exps, derived once here.
    nu = i d is the exponent of (1 - zeta).  The chart holds one Frobenius
    branch, its positive-frequency one: mu = -sign i tau E_asym/2, the
    exponent of |zeta| (the module docstring's -mu on the earlier chart, mu
    on the later), so the branch tends to (cos, sin) e^(-i E_asym (t - t0))
    on the chart's plateau, and plan, the series plan of its 2F1,
    (a', b', c') on the earlier chart and (a, b, c) on the later one, each
    parameter a gap argument (`_connection_arguments`).  The other branch
    is that one's conjugate partner (theta*, -phi*) (module docstring), so
    it needs no series of its own.  The plan is built once with the chart
    and shared by every evaluation of it; it takes no part in comparison,
    hash or repr.
    """

    fields = ("sign", "log_cos", "log_sin", "cos_over_m", "nu", "mu")

    def __init__(self, sign: int, log_cos: float, log_sin: float, cos_over_m: float,
                 nu: complex, mu: complex, plan: Hyp2F1Plan):
        self.__dict__.update(sign=sign, log_cos=log_cos, log_sin=log_sin, cos_over_m=cos_over_m,
                             nu=nu, mu=mu, plan=plan, _cos=math.exp(log_cos),
                             _sin=math.exp(log_sin))


class HypergeometricSolution(FrozenRecord):
    """Both charts, their plateau kinematics, and the later waves once
    `match_at_t0` has set them: u_f and u_b, the amplitudes of the late +E
    eigenmode (cos theta2/2, sin theta2/2) and of its conjugate partner
    (sin theta2/2, -cos theta2/2) per unit incident eigenmode, with the
    e^(-/+i E2 (t - t0)) phases stripped, so |u_f|^2 = F_u and
    |u_b|^2 = B_u.  The earlier chart carries the incident branch alone.

    log_norm is ln N, N = e^(pi eps1)/cos(theta1/2) the norm of the matched
    spinor at every t (module docstring).  `__init__` derives N, N u_f and
    N u_b from it once, for `solve_earlier`; where ln N is beyond ln of the
    largest double they are None, and `solve_earlier` refuses both sides."""

    fields = ("earlier", "later", "modes", "u_f", "u_b", "log_norm")

    def __init__(self, earlier: ChartExpansion, later: ChartExpansion,
                 modes: AsymptoticModes, u_f: complex | None = None,
                 u_b: complex | None = None, log_norm: float | None = None):
        norm = None if log_norm is None or log_norm > _LOG_MAX else math.exp(log_norm)
        # N >= 1, so `norm and` gives None only where norm is None
        self.__dict__.update(earlier=earlier, later=later, modes=modes, u_f=u_f, u_b=u_b,
                             log_norm=log_norm, _norm=norm,
                             _norm_f=norm and norm * u_f, _norm_b=norm and norm * u_b)


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
    """Construct both chart expansions; the later waves left unset.

    Each plan's parameters are the `_connection_arguments` `match_at_t0`
    reads, an argument carried as its logarithm entering as its value."""
    modes, m = asymptotic_modes(params), params.m
    s, *gaps = _connection_arguments(modes, m, params.tau)
    xa, _, xb, xca, x_1, x_2 = (x if x >= 0.0 else math.exp(x) for x in gaps)
    eps1, eps2 = 0.5 * x_1, 0.5 * x_2
    # |d| <= tau (|pi1| + |pi2|)/2 <= eps1 + eps2, so this bounds d too
    if eps1 + eps2 > _EPS_SUM_LIMIT:
        raise ParameterRangeError(
            f"tau*(E1+E2)/2 = {eps1 + eps2:.3g} exceeds {_EPS_SUM_LIMIT}, "
            "the range of the chart series"
        )
    nu = 1j * (0.5 * params.tau * modes.delta)
    return HypergeometricSolution(
        earlier=ChartExpansion(+1, *_half_angles(modes.pi1, modes.e1, m), nu, -1j * eps1,
                               Hyp2F1Plan(1j * s * xa, -1j * xb, 1.0 - 1j * x_1)),
        later=ChartExpansion(-1, *_half_angles(modes.pi2, modes.e2, m), nu, 1j * eps2,
                             Hyp2F1Plan(1j * xca, 1j * s * xa, 1.0 + 1j * x_2)),
        modes=modes,
    )


def _half_angles(pi: float, e: float, m: float) -> tuple[float, float, float]:
    """ln cos(theta/2), ln sin(theta/2) and cos(theta/2)/m, theta =
    atan2(m, pi), from `model.log_half_angles`.  cos(theta/2)/m is the
    quotient where cos(theta/2) is a normal double, as the exp of
    ln cos(theta/2) - ln m would carry ~|ln m| ulps of ln m's rounding (6e-14
    at m = 1e200); that quotient is inf only at a subnormal m, where
    `_chart_spinor` divides by m last.  Where cos(theta/2) is below the
    normal range (pi < 0, m << |pi|) it is that exp, which stays finite."""
    lc, ls = log_half_angles(pi, e, m)
    cos = math.exp(lc)
    return lc, ls, cos / m if cos >= sys.float_info.min else math.exp(lc - math.log(m))


def _chart_spinor(chart: ChartExpansion, params: StepParameters,
                  t: float) -> tuple[complex, complex]:
    """Chiral components at time t of the chart's positive-frequency
    branch, on its plateau's unit eigenmode.

    The plan gives 2F1 = (1-zeta)^kappa s and 2F1' = (1-zeta)^kappa f, so
    the unit-head branch is phi = head s with head =
    |zeta|^mu (1-zeta)^(nu+kappa), taken in one exp of the real logarithms
    ln|zeta| and ln(1 - zeta).  Its theta is (i phi' - pi phi)/m, taken by
    an identity: in i phi' the mu term is E phi and the nu term cancels the
    step of pi(zeta) exactly, so m theta = (E - pi_asym) phi +
    (2 i sign/tau) zeta head f.  f carries a b/c, which is as small as
    E - pi_asym wherever that is small, so nothing cancels.  Times
    cos(theta/2), with (E - pi_asym)/m = tan(theta/2), the branch is
    (cos phi, sin phi + cos_over_m (2 i sign/tau) zeta head f).  Where
    cos_over_m is inf (a subnormal m), cos multiplies the second term and m
    divides it last, so that 1/m is never formed on its own: the branch
    has unit norm, so (2 i sign/tau) zeta head f is at most 2 m/cos there.
    """
    sign, tau = chart.sign, params.tau
    log_abs_zeta = sign * 2.0 * ((t - params.t0) / tau)
    zeta = -math.exp(log_abs_zeta)
    kappa, s, f = chart.plan.series(zeta)
    # zeta < 0, so ln(1 - zeta) is real
    head = cmath.exp(chart.mu * log_abs_zeta + (chart.nu + kappa) * math.log1p(-zeta))
    phi = head * s
    term = sign * 2j * (zeta * head * f / tau)
    if chart.cos_over_m < math.inf:
        return chart._cos * phi, chart._sin * phi + chart.cos_over_m * term
    return chart._cos * phi, chart._sin * phi + chart._cos * (term / params.m)


def solve_earlier(sol: HypergeometricSolution, t: float,
                  params: StepParameters) -> TwoSpinor:
    """Chiral spinor of the matched solution at time t.

    Each side of t0 is evaluated in its own chart, where the chart variable
    lies in [-1, 0): t <= t0 in the earlier chart with the incident branch
    alone, t > t0 in the later chart with its two waves.  Each branch is on
    its plateau's unit eigenmode, and the later backward wave is the
    forward one's conjugate partner (theta*, -phi*), so each side sums one
    2F1 series.  The spinor is N times the incident branch, or N u_f times
    the later branch plus N u_b times its partner, with
    N = e^(pi eps1)/cos(theta1/2) = |psi(t)|, so |psi|^2 =
    e^(pi tau E1) (1 + l1^2), l1 = (E1 - pi1)/m.  `HypergeometricSolution`
    holds N, N u_f and N u_b, so each call only reads them.  Deep in either
    half-line zeta underflows to -0 and the spinor is the exact plane-wave
    limit.  Where N is beyond the double range, either side raises
    ParameterRangeError naming ln N, and a t that is not finite raises
    ValueError naming it.  `solve_later` is the same function.
    """
    if sol.u_f is None:
        raise ValueError("coefficients unset; run match_at_t0 first")
    if not abs(t) < math.inf:  # one comparison, NaN included
        raise ValueError(f"t must be finite, got t = {t}")
    norm = sol._norm
    if norm is None:
        raise ParameterRangeError(
            f"the matched spinor's norm e^(pi eps1)/cos(theta1/2) = e^({sol.log_norm:.6g}) "
            "is beyond the double range")
    if t <= params.t0:
        phi, theta = _chart_spinor(sol.earlier, params, t)
        return TwoSpinor(norm * phi, norm * theta)
    phi, theta = _chart_spinor(sol.later, params, t)
    n_f, n_b = sol._norm_f, sol._norm_b
    return TwoSpinor(n_f * phi + n_b * theta.conjugate(), n_f * theta - n_b * phi.conjugate())


solve_later = solve_earlier


def match_at_t0(sol: HypergeometricSolution, params: StepParameters) -> HypergeometricSolution:
    """Continue the incident branch of the earlier chart into the later chart.

    The later waves' chiral amplitudes per unit incident one, g_f/g_i and
    g_b/g_i, are the connection formula's (DLMF 15.8.2) Gamma ratios of the
    module docstring for the incident branch's
    (a', b', c') = (i(d + eps2 - eps1), i(d - eps2 - eps1), 1 - 2i eps1).
    The unitary amplitudes are u_f = (g_f/g_i) cos(theta1/2)/cos(theta2/2)
    and u_b = (g_b/g_i) cos(theta1/2)/sin(theta2/2); the half angles are
    positive, so only the Gamma ratios carry phase, and their moduli are
    the sinh products (DLMF 5.4.3, 5.4.4).  So |u_f| and |u_b| are
    e^(ln F_u/2) and e^(ln B_u/2) from `_log_sinh_products`, `scatter`'s
    own formula, and only the phases are taken from log_gamma, on the line
    Re z = 1 alone: every Gamma argument is one of `_connection_arguments`,
    the gap arguments at k = tau/2 that `build_solution`'s plans read too,
    an argument carried as its logarithm entering as its value, and
    arg G(iy) = arg G(1 + iy) - sign(y) pi/2.  The pi/2 terms of
    G(b' - a') = G(-i tau E2) and G(b') cancel in u_f's phase; those of
    G(a' - b') = G(+i tau E2) and G(a') = G(i s xa) leave (s - 1) pi/2 in
    u_b's, s the sign of delta.  A trivial step (delta = 0) has
    ln B_u = -inf, so u_b = e^(-inf + i phase) = 0.  The matched spinor's
    ln N = pi eps1 - ln cos(theta1/2) is set beside them
    (`HypergeometricSolution`); u_f and u_b are always given.
    """
    modes, tau = sol.modes, params.tau
    s, *gaps = _connection_arguments(modes, params.m, tau)
    xa, xcb, xb, xca, x_1, x_2 = (x if x >= 0.0 else math.exp(x) for x in gaps)
    # c' = 1 - i x_1 and b' - a' = -i x_2; a' - b' = +i x_2 takes -arg_ba
    arg_c, arg_ba = log_gamma(1.0 - 1j * x_1).imag, log_gamma(1.0 - 1j * x_2).imag
    phase_f = arg_c + arg_ba - log_gamma(1.0 - 1j * xb).imag - log_gamma(1.0 - 1j * xca).imag
    phase_b = (arg_c - arg_ba - log_gamma(1.0 + 1j * (s * xa)).imag
               - log_gamma(1.0 - 1j * (s * xcb)).imag + (s - 1.0) * (0.5 * math.pi))
    log_f_u, log_b_u = _log_sinh_products(modes, params.m, tau)
    # the earlier chart's mu is -i eps1
    return sol.replace(u_f=cmath.exp(complex(0.5 * log_f_u, phase_f)),
                       u_b=cmath.exp(complex(0.5 * log_b_u, phase_b)),
                       log_norm=math.pi * -sol.earlier.mu.imag - sol.earlier.log_cos)


def result_from_amplitudes(modes: AsymptoticModes, m: float, a_f: float,
                           a_b: float) -> ScatteringResult:
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


def asymptotic_amplitudes(sol: HypergeometricSolution, params: StepParameters) -> ScatteringResult:
    """Extract plane-wave amplitudes from the matched solution.

    In each chart zeta -> 0 sends 2F1 -> 1 and (1-zeta)^nu -> 1, so every
    branch tends to its plane wave with unit amplitude, and the moduli of
    `match_at_t0`'s unitary amplitudes u_f and u_b are sqrt(F_u) and
    sqrt(B_u).
    """
    if sol.u_f is None:
        raise ValueError("solution is unmatched; run match_at_t0 first")
    return result_from_amplitudes(sol.modes, params.m, abs(sol.u_f), abs(sol.u_b))


def _log_sinh_excess(x: float) -> float:
    """ln(2 sinh x) - x = ln(1 - e^(-2x)) for x > 0, accurate at both ends.
    A negative x is the logarithm of an argument below the normal range
    (`_gap_arguments`), where ln(2 sinh y) - y = ln 2 + ln y."""
    return math.log(-math.expm1(-2.0 * x)) if x >= 0.0 else math.log(2.0) + x


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


def _log_sinh_products(modes: AsymptoticModes, m: float, tau: float) -> tuple[float, float]:
    """ln F_u and ln B_u, the sinh products of the module docstring, from
    `_gap_arguments` at k = pi tau/2; ln B_u is -inf for a trivial step."""
    w, kgap_f, x_hi, x_lo, x_1, x_2 = _gap_arguments(modes, m, 0.5 * math.pi, tau)
    log_denom = _log_sinh_excess(x_1) + _log_sinh_excess(x_2)
    # the linear parts of the log-sinh pairs cancel exactly in F_u and leave
    # -pi tau (E1 + E2 - |delta|) in B_u, nothing where that is below the range
    log_f_u = _log_sinh_excess(w) + _log_sinh_excess(kgap_f) - log_denom
    log_b_u = (-2.0 * (kgap_f if kgap_f > 0.0 else 0.0) + _log_sinh_excess(x_hi)
               + _log_sinh_excess(x_lo) - log_denom) if x_lo else -math.inf
    return log_f_u, log_b_u


def scatter(params: StepParameters) -> ScatteringResult:
    """Scattering amplitudes and probabilities from the elementary moduli.

    F_u and B_u are the sinh products of the module docstring, each taken in
    logarithms (`_log_sinh_products`), and their half-logarithms give the
    amplitudes `result_from_amplitudes` takes.
    """
    modes = asymptotic_modes(params)
    log_f_u, log_b_u = _log_sinh_products(modes, params.m, params.tau)
    return result_from_amplitudes(modes, params.m, math.exp(0.5 * log_f_u),
                                  math.exp(0.5 * log_b_u))


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
    b, F and B follow from `result_from_amplitudes`.  At pi2 = 0 the
    backward mode's standard-basis upper component vanishes, so b = 0
    exactly while B_u > 0.  The inputs are checked by `model.check_inputs`,
    the rule StepParameters applies: m <= 0 or a non-finite input raises
    ValueError.
    """
    check_inputs({"m": m, "q": q, "p": p, "a1": a1, "a2": a2})
    modes = plateau_modes(m, q, p, a1, a2)
    w, gap, x_hi, x_lo = _gap_arguments(modes, m, 0.5, 1.0)[:4]
    e_hi, e_lo = max(modes.e1, modes.e2), min(modes.e1, modes.e2)
    return result_from_amplitudes(modes, m, _sqrt_ratio(w, e_hi) * _sqrt_ratio(gap, e_lo),
                                  _sqrt_ratio(x_hi, e_hi) * _sqrt_ratio(x_lo, e_lo))
