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
inputs, once, as `AsymptoticModes.delta`, and `_gap_arguments` forms the
four numerator arguments, with E2 - E1 = -delta (pi1 + pi2)/(E1 + E2) and
E1 + E2 - |delta| = 2 (m^2 + E1 E2 + pi1 pi2)/(E1 + E2 + |delta|), without
subtraction, so a weak step keeps the relative accuracy of B_u; at k = tau/2
in place of pi tau/2 they are `match_at_t0`'s Gamma arguments.  The products
in them are formed on kinematics divided by a power of two near
max(|pi1|, |pi2|, m), so momenta up to the double range do not overflow, and
an argument below the smallest normal double is carried as its logarithm.
Where E1, E2 or m is so far below that power of two that a factor over it,
or E1/E2 itself, leaves the normal range, the product is formed another way
or from logarithms taken apart; over inputs drawn from the whole double range,
with pi tau E1 and pi tau E2 normal, no point raises or returns a NaN.
Each sinh is taken as ln sinh x = x + ln(-expm1(-2x)) - ln 2, so nothing
overflows and the adiabatic tail is kept, and as x + ln x for an argument
carried as a logarithm; f and b follow from the half-logarithms, so each
stays representable where F_u or B_u underflows.  Over 20,000 random points
with tau from 1e-12 to 1e10 (signed q down to 6e-6, m != 1, a1 != 0,
t0 != 0) the unitarity defect |F_u + B_u - 1| stays below 1.3e-14, and B_u
agrees with 50-digit arithmetic to 4e-13 relative wherever B_u > 1e-300; over
5,000 points from the whole double range f, b, F_u and B_u agree with the
decimal sinh products to 5e-13 wherever they exceed 1e-290.
F_u + B_u = 1 is an identity of the two products in exact arithmetic, so
the command line's 1e-9 guard on it checks only their floating-point
evaluation; the independent check of the closed form is the
integrator (`oracle.compare`).  pi tau E below the smallest normal double is
reported as a numerical failure (ArithmeticError).  Every result carries the
plateau kinematics it was computed from (`ScatteringResult.modes`), so its
consumers do not derive them again.

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
its term ratios are not redone per time.  A plan gives 2F1 =
(1 - zeta)^kappa s(zeta), and a branch is evaluated as
|zeta|^mu (1 - zeta)^(nu + kappa) s(zeta): its head is one complex exp, of
mu ln|zeta| + (nu + kappa) ln(1 - zeta) with the real
ln(1 - zeta) = log1p(-zeta).  `match_at_t0` stores the Gamma ratios
themselves as the later chart's coefficients, c1l = g_f/g_i and
c2l = g_b/g_i, and `asymptotic_amplitudes` reads f, b, F, B, F_u and B_u
from them through `result_from_mode_amplitudes`.  The matched spinor gives
the incident wave the amplitude g_i = e^(pi eps1), so |psi|^2 =
e^(pi tau E1) (1 + l1^2) on the earlier plateau, l1 = (E1 - pi1)/m; that
amplitude overflows from eps1 ~ 225, so `build_solution` keeps the guard
eps1 + eps2 <= 200.  `match_at_t0` also stores what each spinor is
multiplied by, g_i for the incident branch, c_f = g_i c1l for the later
forward branch and c_b = g_i c2l (E2 + pi2)/m for its conjugate partner, so
`solve_earlier` forms no exp or mode factor per time.  f and b are the
moduli of the later waves' standard-basis upper components relative to the
incident one's, the chiral ratios times those of the modes' upper components
(`model.dirac_upper`), and F = f^2/(f^2+b^2), B = b^2/(f^2+b^2).  The unitary
pair (F_u, B_u) instead projects onto orthonormalized modes; the two pairs
are related by f^2 = F_u E1 (E2 + m)/(E2 (E1 + m)) and
b^2 = B_u E1 (E2 - m)/(E2 (E1 + m)).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field, replace

from .model import (
    AsymptoticModes,
    StepParameters,
    TwoSpinor,
    asymptotic_modes,
    check_inputs,
    dirac_upper,
    mode_lower,
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


class ParameterRangeError(ValueError):
    """tau * E too large for accurate double-precision evaluation."""


@dataclass(frozen=True)
class ChartExpansion:
    """Hypergeometric data of one chart.

    sign: +1 for the earlier chart, -1 for the later one; enters both
    d(zeta)/dt = sign * 2 zeta / tau and pi(zeta) = pi_asym + sign * delta *
    zeta / (1 - zeta).  eps = tau * E_asym / 2 is the chart's frequency
    scale and nu = i d the exponent of (1 - zeta).  The chart holds one
    Frobenius branch, its positive-frequency one: mu = -sign i eps, the
    exponent of |zeta| (the module docstring's -mu on the earlier chart, mu
    on the later), so the branch tends to e^(-i E_asym (t - t0)) on the
    chart's plateau, and plan, the series plan of its 2F1, (a', b', c') on
    the earlier chart and (a, b, c) on the later one.  The other branch is
    that one's conjugate partner (theta*, -phi*) times (E_asym + pi_asym)/m
    (module docstring), so it needs no series of its own.  The plan is built
    once with the chart and shared by every evaluation of it; it takes no
    part in comparison.
    """

    sign: int
    pi_asym: float
    eps: float
    nu: complex
    mu: complex
    plan: Hyp2F1Plan = field(compare=False, repr=False)


@dataclass(frozen=True)
class HypergeometricSolution:
    """Both charts, their plateau kinematics, and the later chart's
    coefficients once `match_at_t0` has set them: c1l = g_f/g_i and c2l =
    g_b/g_i, the amplitudes of the later forward and backward waves per unit
    incident amplitude.  The earlier chart carries the incident branch alone.

    `match_at_t0` also stores what `solve_earlier` multiplies each chart's
    branch by: g_i = e^(pi eps1), the incident amplitude, c_f = g_i c1l for
    the later forward branch and c_b = g_i c2l mode_lower(-pi2, m) for its
    conjugate partner."""

    earlier: ChartExpansion
    later: ChartExpansion
    modes: AsymptoticModes
    c1l: complex | None = None
    c2l: complex | None = None
    g_i: float | None = None
    c_f: complex | None = None
    c_b: complex | None = None


@dataclass
class ScatteringResult:
    """Scattering amplitude ratios and probabilities of one step.

    modes holds the plateau kinematics (pi1, pi2, E1, E2, delta) the result
    was computed from.  f and b are the moduli of the standard-basis upper
    components of the later forward/backward plane waves relative to the
    incident one.  (F, B) normalize f^2, b^2 to unity; (F_u, B_u) are the
    unitary-projection probabilities, whose sum is 1 by norm conservation:
    an identity of `scatter`'s closed form, a diagnostic of the integrator's.
    """

    modes: AsymptoticModes
    f: float
    b: float
    F: float
    B: float
    F_u: float
    B_u: float


def governing_frequency(t: float, params: StepParameters) -> complex:
    """Squared complex frequency Omega^2(t) = pi(t)^2 + m^2 + i pi'(t)."""
    piv = params.p - params.q * potential_at(t, params)
    pidot = -params.q * potential_rate(t, params)
    return complex(piv * piv + params.m * params.m, pidot)


def _chart(eps: float, eps_other: float, d: float, sign: int, pi_asym: float) -> ChartExpansion:
    mu = -sign * 1j * eps
    # the branch's a and b are those of the |zeta|^(i eps) branch less
    # i eps - mu: 0 on the later chart, 2 i eps on the earlier one
    shift = 1j * eps - mu
    return ChartExpansion(
        sign=sign,
        pi_asym=pi_asym,
        eps=eps,
        nu=1j * d,
        mu=mu,
        plan=Hyp2F1Plan(1j * (eps + d + eps_other) - shift, 1j * (eps + d - eps_other) - shift,
                        1.0 + 2 * mu),
    )


def build_solution(params: StepParameters) -> HypergeometricSolution:
    """Construct both chart expansions; coefficients left unset."""
    modes = asymptotic_modes(params)
    eps1 = 0.5 * params.tau * modes.e1
    eps2 = 0.5 * params.tau * modes.e2
    d = 0.5 * params.tau * modes.delta
    # |d| <= tau (|pi1| + |pi2|)/2 <= eps1 + eps2, so this bounds d too
    if eps1 + eps2 > _EPS_SUM_LIMIT:
        raise ParameterRangeError(
            f"tau*(E1+E2)/2 = {eps1 + eps2:.3g} exceeds the supported range "
            f"{_EPS_SUM_LIMIT}: the incident amplitude e^(pi tau E1/2) must stay "
            "below the double-precision overflow threshold"
        )
    return HypergeometricSolution(
        earlier=_chart(eps1, eps2, d, +1, modes.pi1),
        later=_chart(eps2, eps1, d, -1, modes.pi2),
        modes=modes,
    )


def _chart_spinor(chart: ChartExpansion, delta: float, params: StepParameters,
                  t: float) -> tuple[complex, complex]:
    """Chiral components (phi, theta) at time t of the chart's
    positive-frequency branch, with its unit head.

    The plan gives 2F1 = (1-zeta)^kappa s, so the branch is
    |zeta|^mu (1-zeta)^(nu+kappa) s, its head taken in one exp of the real
    logarithms ln|zeta| and ln(1 - zeta).
    """
    log_abs_zeta = chart.sign * 2.0 * ((t - params.t0) / params.tau)
    zeta = -math.exp(log_abs_zeta)
    ln_1mz = math.log1p(-zeta)  # zeta < 0, so ln(1 - zeta) is real
    kappa, s, ds = chart.plan.series(zeta)
    nu = chart.nu + kappa
    head = cmath.exp(chart.mu * log_abs_zeta + nu * ln_1mz)
    phi = head * s
    # dphi/dzeta * zeta, assembled to stay finite as zeta -> 0
    zeta_dphi = phi * (chart.mu - nu * zeta / (1.0 - zeta)) + head * zeta * ds
    dphi = chart.sign * (2.0 / params.tau) * zeta_dphi  # d ln|zeta| / dt = 2 sign / tau
    piv = chart.pi_asym + chart.sign * delta * zeta / (1.0 - zeta)
    return phi, (1j * dphi - piv * phi) / params.m


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
    the exact plane-wave limit.  `solve_later` is the same function.
    """
    if sol.c1l is None:
        raise ValueError("coefficients unset; run match_at_t0 first")
    if t <= params.t0:
        phi, theta = _chart_spinor(sol.earlier, sol.modes.delta, params, t)
        return TwoSpinor(upper=sol.g_i * phi, lower=sol.g_i * theta)
    phi, theta = _chart_spinor(sol.later, sol.modes.delta, params, t)
    c_f, c_b = sol.c_f, sol.c_b
    return TwoSpinor(upper=c_f * phi + c_b * theta.conjugate(),
                     lower=c_f * theta - c_b * phi.conjugate())


solve_later = solve_earlier


def match_at_t0(sol: HypergeometricSolution, params: StepParameters) -> HypergeometricSolution:
    """Continue the incident branch of the earlier chart into the later chart.

    The later chart's coefficients are the amplitude ratios c1l = g_f/g_i
    and c2l = g_b/g_i of the connection formula (DLMF 15.8.2), the Gamma
    ratios of the module docstring for the incident branch's
    (a', b', c') = (i(d + eps2 - eps1), i(d - eps2 - eps1), 1 - 2i eps1).
    Differences such as b' - a' = -2i eps2 are written out rather than
    subtracted, and the four arguments that can cancel are those of
    `_gap_arguments` at k = tau/2: b' and c' - a' are -i and 1 - i times
    k (E1 + E2 -+ |delta|) in the order of the sign of delta, and a' and
    c' - b' are i and 1 - i times sign(delta) k (|delta| -+ |E2 - E1|) in
    the order of the sign of pi1 + pi2.  a' = 0 only for a trivial step
    (delta = 0), where 1/G(a') = 0.  The coefficients `solve_earlier`
    applies, g_i, c_f and c_b, are set here too (`HypergeometricSolution`).
    """
    modes = sol.modes
    w, gap, x_hi, x_lo = _gap_arguments(modes, params.m, 0.5 * params.tau)
    # b' = -i xb, c' - a' = 1 - i xca, a' = i s xa and c' - b' = 1 - i s xcb
    s = math.copysign(1.0, modes.delta)
    xb, xca = (gap, w) if s > 0.0 else (w, gap)
    xa, xcb = (x_lo, x_hi) if modes.pi1 + modes.pi2 >= 0.0 else (x_hi, x_lo)
    eps1 = sol.earlier.eps
    eps2 = sol.later.eps
    lg_c = log_gamma(1.0 - 2j * eps1)
    c1l = cmath.exp(lg_c + log_gamma(-2j * eps2) - _log_gamma_gap(0.0, -1.0, xb)
                    - _log_gamma_gap(1.0, -1.0, xca))
    c2l = 0j if xa == 0.0 else cmath.exp(lg_c + log_gamma(2j * eps2) - _log_gamma_gap(0.0, s, xa)
                                         - _log_gamma_gap(1.0, -s, xcb))
    g_i = math.exp(math.pi * eps1)
    # a product, not a quotient by mode_lower(pi2, m), which can underflow to 0
    return replace(sol, c1l=c1l, c2l=c2l, g_i=g_i, c_f=g_i * c1l,
                   c_b=g_i * c2l * mode_lower(-modes.pi2, params.m))


def result_from_mode_amplitudes(gi_w: complex, gf_w: complex, gb_w: complex,
                                m: float, modes: AsymptoticModes) -> ScatteringResult:
    """Assemble a ScatteringResult from chiral-basis mode amplitudes.

    Each amplitude takes its mode factor as a ratio to the incident one
    before it is divided by gi_w, so no intermediate leaves the double range
    where the result does not."""
    u_i = dirac_upper(modes.pi1, m, True)
    f = abs(gf_w * (dirac_upper(modes.pi2, m, True) / u_i) / gi_w)
    b = abs(gb_w * (dirac_upper(modes.pi2, m, False) / u_i) / gi_w)
    denom = f * f + b * b
    # the squared norm m^2 + (E -+ pi)^2 of a mode spinor (1, l) is 2 E m |l|,
    # here the square roots of its ratios to the incident one
    root = math.sqrt(modes.e2 / modes.e1) / math.sqrt(mode_lower(modes.pi1, m))
    return ScatteringResult(
        modes=modes,
        f=f,
        b=b,
        F=f * f / denom,
        B=b * b / denom,
        F_u=abs(gf_w * (root * math.sqrt(mode_lower(modes.pi2, m))) / gi_w) ** 2,
        B_u=abs(gb_w * (root * math.sqrt(mode_lower(-modes.pi2, m))) / gi_w) ** 2,
    )


def asymptotic_amplitudes(sol: HypergeometricSolution, params: StepParameters) -> ScatteringResult:
    """Extract plane-wave amplitudes from the matched solution.

    In each chart zeta -> 0 sends 2F1 -> 1 and (1-zeta)^nu -> 1, so every
    branch tends to its plane wave with unit amplitude, and c1l and c2l are
    the chiral amplitudes of the later waves per unit incident amplitude.
    """
    if sol.c1l is None:
        raise ValueError("solution is unmatched; run match_at_t0 first")
    return result_from_mode_amplitudes(1.0 + 0.0j, sol.c1l, sol.c2l, params.m, sol.modes)


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


def _gap_arguments(modes: AsymptoticModes, m: float, k: float) -> list[float]:
    """k (E1 + E2 + |delta|), k (E1 + E2 - |delta|), k (|delta| + |E2 - E1|)
    and k (|delta| - |E2 - E1|), free of cancellation, overflow and early
    underflow: the sinh products' numerator arguments at k = pi tau/2, the
    connection formula's Gamma arguments at k = tau/2.

    A gap E1 + E2 - |pi1 -+ pi2| is 2 (m^2 + E1 E2 +- pi1 pi2) over
    E1 + E2 + |pi1 -+ pi2|; where the products have opposite signs,
    (E1 E2)^2 - (pi1 pi2)^2 = m^2 X makes the numerator m^2 (D + X) / D,
    D = E1 E2 + |pi1 pi2|, X = pi1^2 + pi2^2 + m^2.  As E2 - E1 =
    -delta (pi1 + pi2)/(E1 + E2), |delta| -+ |E2 - E1| is |delta| times
    (E1 + E2 -+ |pi1 + pi2|)/(E1 + E2).  Products are formed over s, the
    largest power of two not above max(|pi1|, |pi2|, m), so none overflows,
    and k comes before the second factor of m: k m^2 stays representable
    where m^2 underflows.  A product whose factor over s would fall below
    the normal range (E2 or |pi2| << |pi1|, m << s), or whose ratio
    (D + X)/D would overflow, is formed in another order.  Where a product
    falls below the normal range, an argument below it is returned as its
    logarithm, a number below -708, formed from the logarithms of factors in
    range; the arguments themselves are >= 0, and 0 only for delta = 0.
    Nothing else changes where no product does.
    """
    e1, pi1, pi2 = modes.e1, modes.pi1, modes.pi2
    delta = abs(modes.delta)
    e_sum = e1 + modes.e2
    pi_sum = abs(pi1 + pi2)
    tiny = sys.float_info.min
    inv_s = math.ldexp(1.0, 1 - math.frexp(max(abs(pi1), abs(pi2), m))[1])
    ms, pi2s = m * inv_s, pi2 * inv_s
    # each product over s; where E2/s or pi2/s is below the normal range (E2
    # or |pi2| << |pi1|), the other factor is scaled instead
    e2s = modes.e2 * inv_s
    e1e2 = e1 * e2s if e2s >= tiny else (e1 * inv_s) * modes.e2
    p12 = pi1 * pi2s if abs(pi2s) >= tiny else (pi1 * inv_s) * pi2
    width_f = (e_sum + delta) * inv_s
    width_b = (e_sum + pi_sum) * inv_s
    # the numerator of the gap whose products add, and k times the other's
    like = 2.0 * (m * ms + e1e2 + abs(p12))
    d = e1e2 + abs(p12)
    x = pi1 * (pi1 * inv_s) + pi2 * pi2s + m * ms
    # where m/s is below the normal range, or (D + X)/D beyond it (as
    # max(E1, E2)/min(E1, E2) can be), m (D + X)/(s D) < 8 is formed first
    dx = (d + x) / d
    unlike = (2.0 * (k * (m * dx)) * ms if ms >= tiny and dx < math.inf
              else 2.0 * (k * (m * (m * ((d + x) * inv_s) / d))))
    kgap_f = k * (like / width_f) if p12 >= 0.0 else unlike / width_f
    kgap_b = k * (like / width_b) if p12 <= 0.0 else unlike / width_b
    kd, lo = k * delta, delta * kgap_b
    args = [k * (e_sum + delta), kgap_f, kd * (e_sum + pi_sum) / e_sum, lo / e_sum]
    if kgap_f >= tiny and kgap_b >= tiny and (
            not delta or kd >= tiny and lo >= tiny and args[3] >= tiny):
        return args
    # a product fell below the normal range: the last two are formed again so
    # that only their final product can, and an argument below the range is
    # carried as its logarithm, formed from the logarithms of factors in range
    ln_k = math.log(k)
    ln_dx = math.log(dx) if dx < math.inf else math.log(d + x) - math.log(d)
    ln_unlike = math.log(2.0 * k) + 2.0 * math.log(m) + ln_dx
    ln_f = ln_k + math.log(like / width_f) if p12 >= 0.0 else ln_unlike - math.log(e_sum + delta)
    ln_b = ln_k + math.log(like / width_b) if p12 <= 0.0 else ln_unlike - math.log(e_sum + pi_sum)
    logs = [ln_k + math.log(e_sum + delta), ln_f, 0.0, 0.0]  # 0.0: a trivial step's zeros
    if delta:
        ln_delta = math.log(delta)
        args[2:] = k * (delta * ((e_sum + pi_sum) / e_sum)), kgap_b * (delta / e_sum)
        logs[2:] = (ln_k + ln_delta + math.log((e_sum + pi_sum) / e_sum),
                    ln_delta + ln_b - math.log(e_sum))
    return [ln if arg < tiny else arg for arg, ln in zip(args, logs)]


def scatter(params: StepParameters) -> ScatteringResult:
    """Scattering amplitudes and probabilities from the elementary moduli.

    F_u and B_u are the sinh products of the module docstring, each taken in
    logarithms, and f, b follow from their half-logarithms.
    """
    modes = asymptotic_modes(params)
    m, e1, e2 = params.m, modes.e1, modes.e2
    k = 0.5 * math.pi * params.tau
    w, kgap_f, x_hi, x_lo = _gap_arguments(modes, m, k)
    tiny = sys.float_info.min
    if 2.0 * k * min(e1, e2) < tiny:
        raise ArithmeticError(
            f"pi tau min(E1, E2) = {2.0 * k * min(e1, e2):.3g} is below the "
            "double-precision range; use the Heaviside limit")
    log_denom = _log_sinh_excess(2.0 * k * e1) + _log_sinh_excess(2.0 * k * e2)
    # the linear parts of the log-sinh pairs cancel exactly in F_u and leave
    # -pi tau (E1 + E2 - |delta|) in B_u, nothing where that is below the range
    log_f_u = _log_sinh_excess(w) + _log_sinh_excess(kgap_f) - log_denom
    # f^2 = F_u E1 (E2 + m) / (E2 (E1 + m)), b^2 = B_u E1 (E2 - m) / (E2 (E1 + m)),
    # the products over a power of two near max(|pi1|, |pi2|, m)
    inv_s = math.ldexp(1.0, 1 - math.frexp(max(abs(modes.pi1), abs(modes.pi2), m))[1])
    e1s, e2s = e1 * inv_s, e2 * inv_s
    den = e2s * (e1 + m)
    ratio = e1s / den if e2s >= tiny and den >= tiny else 0.0
    # where E1 or E2 is so far below max(|pi1|, |pi2|) that the quotient or a
    # factor of it leaves the normal range, the logarithms are taken apart
    log_scale = (0.5 * math.log(ratio) if ratio >= tiny and e1s >= tiny
                 else 0.5 * (math.log(e1) - math.log(e2) - math.log(e1 + m)))
    f = math.exp(0.5 * log_f_u + log_scale + 0.5 * math.log(e2 + m))
    if x_lo == 0.0:  # a trivial step
        b_u = b = 0.0
    else:
        log_b_u = (-2.0 * (kgap_f if kgap_f > 0.0 else 0.0) + _log_sinh_excess(x_hi)
                   + _log_sinh_excess(x_lo) - log_denom)
        b_u = math.exp(log_b_u)
        # E2 - m = pi2^2 / (E2 + m)
        b = (0.0 if modes.pi2 == 0.0 else
             math.exp(0.5 * log_b_u + log_scale + math.log(abs(modes.pi2))
                      - 0.5 * math.log(e2 + m)))
    norm = f * f + b * b
    return ScatteringResult(
        modes=modes,
        f=f,
        b=b,
        F=f * f / norm,
        B=b * b / norm,
        F_u=math.exp(log_f_u),
        B_u=b_u,
    )


def sharp_step(m: float, q: float, p: float, a1: float, a2: float) -> ScatteringResult:
    """Heaviside-limit scattering from the 2x2 continuity solve.

    The state itself is continuous at the jump; expanding the incident mode in
    the late eigenbasis gives chiral coefficients

        alpha = (E1 + E2 - pi1 + pi2) / (2 E2)      (forward)
        beta  = (E2 - E1 + pi1 - pi2) / (2 E2)      (backward)

    formed without subtraction as ((E1 - pi1) + (E2 + pi2)) / (2 E2) and,
    with delta = pi1 - pi2 = q (A2 - A1) and E2 - E1 = -delta (pi1 + pi2) /
    (E1 + E2) as in `scatter`, as delta ((E1 - pi1) + (E2 - pi2)) /
    (2 E2 (E1 + E2)); each E -+ pi comes
    from `model.mode_lower`, and the weights (1, alpha, beta) are passed
    times 2 E2/m, so a tiny b keeps its relative accuracy.  The solve is
    performed on the always-finite chiral components, so the pi2 = 0
    kinematics (where the standard-basis component ratios of the asymptotic
    modes degenerate) yields the exact limit: the backward upper component
    vanishes identically and b = 0.  The inputs are checked by
    `model.check_inputs`, the rule StepParameters applies: m <= 0 or a
    non-finite input raises ValueError.
    """
    check_inputs({"m": m, "q": q, "p": p, "a1": a1, "a2": a2})
    pi1 = p - q * a1
    pi2 = p - q * a2
    e1 = math.hypot(pi1, m)
    e2 = math.hypot(pi2, m)
    # (E1 - pi1)/m, and 2 E2/m times alpha and beta
    l1 = mode_lower(pi1, m)
    w_f = l1 + mode_lower(-pi2, m)
    modes = AsymptoticModes(pi1=pi1, pi2=pi2, e1=e1, e2=e2, delta=q * (a2 - a1))
    w_b = modes.delta / (e1 + e2) * (l1 + mode_lower(pi2, m))
    return result_from_mode_amplitudes(complex(2.0 * e2 / m), complex(w_f), complex(w_b), m, modes)
