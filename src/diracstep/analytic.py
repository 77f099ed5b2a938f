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
inputs, and E2 - E1 = -delta (pi1 + pi2)/(E1 + E2) and
E1 + E2 - |delta| = 2 (m^2 + E1 E2 + pi1 pi2)/(E1 + E2 + |delta|) are formed
without subtraction, so a weak step keeps the relative accuracy of B_u.
The products in them are formed on kinematics divided by a power of two
near max(|pi1|, |pi2|, m), so momenta up to the double range do not
overflow.  Each sinh is taken as ln sinh x = x + ln(-expm1(-2x)) - ln 2, so
nothing overflows and the adiabatic tail is kept; f and b follow from the
half-logarithms, so b stays representable where B_u underflows.  Over 20,000
random points with tau from 1e-12 to 1e10 (signed q down to 6e-6, m != 1,
a1 != 0, t0 != 0) the unitarity defect |F_u + B_u - 1| stays below 1.3e-14,
and B_u agrees with 50-digit arithmetic to 4e-13 relative wherever
B_u > 1e-300.  F_u + B_u = 1 is an identity of the two products in exact
arithmetic, so the command line's 1e-9 guard on it checks only their
floating-point evaluation; the independent check of the closed form is the
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
the spinor is its exact plane-wave limit.  `build_solution` builds the
`specfun.Hyp2F1Plan` of both branches of both charts once, and every
evaluation shares them, so the choice of series and its term ratios are not
redone per time.  A plan gives 2F1 = (1 - zeta)^kappa s(zeta), and a branch
is evaluated as |zeta|^mu (1 - zeta)^(nu + kappa) s(zeta): its head is one
complex exp, of mu ln|zeta| + (nu + kappa) ln(1 - zeta) with the real
ln(1 - zeta) = log1p(-zeta).  `match_at_t0` stores the Gamma ratios
themselves as the later chart's coefficients, c1l = g_f/g_i and
c2l = g_b/g_i, and `asymptotic_amplitudes` reads f, b, F, B, F_u and B_u
from them through `result_from_mode_amplitudes`.  The matched spinor gives
the incident wave the amplitude g_i = e^(pi eps1), so |psi|^2 =
e^(pi tau E1) (1 + l1^2) on the earlier plateau, l1 = (E1 - pi1)/m; that
amplitude overflows from eps1 ~ 225, so `build_solution` keeps the guard
eps1 + eps2 <= 200.  f and b are the moduli of the later waves'
standard-basis upper components relative to the incident one's, the chiral
ratios times those of the modes' upper components (`model.dirac_upper`), and
F = f^2/(f^2+b^2), B = b^2/(f^2+b^2).  The unitary pair (F_u, B_u) instead
projects onto orthonormalized modes; the two pairs are related by
f^2 = F_u E1 (E2 + m)/(E2 (E1 + m)) and b^2 = B_u E1 (E2 - m)/(E2 (E1 + m)).
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
    scale and nu = i d the exponent of (1 - zeta).  branches holds the two
    Frobenius branches as (exponent, plan) pairs: the zeta^(+i eps) branch
    with the series plan of (a, b, c) and the zeta^(-i eps) branch with that
    of (a', b', c').  The plans are built once with the chart and shared by
    every evaluation of it; they take no part in comparison.
    """

    sign: int
    pi_asym: float
    eps: float
    nu: complex
    branches: tuple[tuple[complex, Hyp2F1Plan], tuple[complex, Hyp2F1Plan]] = field(
        compare=False, repr=False)


@dataclass(frozen=True)
class HypergeometricSolution:
    """Both charts, and the later one's coefficients once `match_at_t0` has
    set them: c1l = g_f/g_i and c2l = g_b/g_i, the amplitudes of the later
    forward and backward waves per unit incident amplitude.  The earlier
    chart carries the incident branch alone."""

    earlier: ChartExpansion
    later: ChartExpansion
    delta: float  # pi1 - pi2
    c1l: complex | None = None
    c2l: complex | None = None


@dataclass(frozen=True)
class ScatteringResult:
    """Scattering amplitude ratios and probabilities of one step.

    modes holds the plateau kinematics (pi1, pi2, E1, E2) the result was
    computed from.  f and b are the moduli of the standard-basis upper
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
    mu = 1j * eps
    a = 1j * (eps + d + eps_other)
    b = 1j * (eps + d - eps_other)
    return ChartExpansion(
        sign=sign,
        pi_asym=pi_asym,
        eps=eps,
        nu=1j * d,
        branches=((mu, Hyp2F1Plan(a, b, 1.0 + 2j * eps)),
                  (-mu, Hyp2F1Plan(a - 2 * mu, b - 2 * mu, 1.0 - 2j * eps))),
    )


def build_solution(params: StepParameters) -> HypergeometricSolution:
    """Construct both chart expansions; coefficients left unset."""
    modes = asymptotic_modes(params)
    eps1 = 0.5 * params.tau * modes.e1
    eps2 = 0.5 * params.tau * modes.e2
    d = 0.5 * params.tau * (modes.pi1 - modes.pi2)
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
        delta=modes.pi1 - modes.pi2,
    )


def _chart_spinor(chart: ChartExpansion, delta: float, params: StepParameters,
                  coefficients: tuple[complex, complex], t: float) -> TwoSpinor:
    """Chiral spinor at time t of the chart's solution with the given
    coefficients of its two branches; a zero coefficient skips its branch.

    The plan of a branch zeta^mu (1-zeta)^nu 2F1 gives 2F1 = (1-zeta)^kappa s,
    so the branch is |zeta|^mu (1-zeta)^(nu+kappa) s, its head taken in one
    exp of the real logarithms ln|zeta| and ln(1 - zeta).
    """
    log_abs_zeta = chart.sign * 2.0 * ((t - params.t0) / params.tau)
    zeta = -math.exp(log_abs_zeta)
    ln_1mz = math.log1p(-zeta)  # zeta < 0, so ln(1 - zeta) is real
    dt_scale = chart.sign * (2.0 / params.tau)  # d ln|zeta| / dt
    phi = 0.0 + 0.0j
    dphi = 0.0 + 0.0j
    for c, (mu, plan) in zip(coefficients, chart.branches):
        if c != 0:
            kappa, s, ds = plan.series(zeta)
            nu = chart.nu + kappa
            head = cmath.exp(mu * log_abs_zeta + nu * ln_1mz)
            branch = head * s
            # dphi/dzeta * zeta, assembled to stay finite as zeta -> 0
            zeta_dphi = branch * (mu - nu * zeta / (1.0 - zeta)) + head * zeta * ds
            phi += c * branch
            dphi += c * (dt_scale * zeta_dphi)
    piv = chart.pi_asym + chart.sign * delta * zeta / (1.0 - zeta)
    theta = (1j * dphi - piv * phi) / params.m
    return TwoSpinor(upper=phi, lower=theta)


def solve_earlier(sol: HypergeometricSolution, t: float,
                  params: StepParameters) -> TwoSpinor:
    """Chiral spinor of the matched solution at time t.

    Each side of t0 is evaluated in its own chart, where the chart variable
    lies in [-1, 0): t <= t0 in the earlier chart with the incident branch
    alone, t > t0 in the later chart with (c1l, c2l).  The incident wave has
    amplitude g_i = e^(pi eps1), so |psi|^2 = e^(pi tau E1) (1 + l1^2) on the
    earlier plateau, l1 = (E1 - pi1)/m.  Deep in either half-line zeta
    underflows to -0 and the spinor is the exact plane-wave limit.
    `solve_later` is the same function.
    """
    if sol.c1l is None:
        raise ValueError("coefficients unset; run match_at_t0 first")
    g_i = math.exp(math.pi * sol.earlier.eps)
    if t <= params.t0:
        return _chart_spinor(sol.earlier, sol.delta, params, (0.0, g_i), t)
    return _chart_spinor(sol.later, sol.delta, params, (g_i * sol.c1l, g_i * sol.c2l), t)


solve_later = solve_earlier


def match_at_t0(sol: HypergeometricSolution, params: StepParameters) -> HypergeometricSolution:
    """Continue the incident branch of the earlier chart into the later chart.

    The later chart's coefficients are the amplitude ratios c1l = g_f/g_i
    and c2l = g_b/g_i of the connection formula (DLMF 15.8.2), the Gamma
    ratios of the module docstring for the incident branch's
    (a', b', c') = (i(d + eps2 - eps1), i(d - eps2 - eps1), 1 - 2i eps1).
    Differences such as b' - a' = -2i eps2 are written out rather than
    subtracted.  a' = 0 only for a trivial step (pi1 = pi2), where
    1/G(a') = 0.
    """
    eps1 = sol.earlier.eps
    eps2 = sol.later.eps
    d = sol.earlier.nu.imag
    a = 1j * (d + eps2 - eps1)
    b = 1j * (d - eps2 - eps1)
    lg_c = log_gamma(1.0 - 2j * eps1)
    c1l = cmath.exp(lg_c + log_gamma(-2j * eps2) - log_gamma(b)
                    - log_gamma(1.0 - 1j * (d + eps2 + eps1)))
    c2l = 0j if a == 0 else cmath.exp(lg_c + log_gamma(2j * eps2) - log_gamma(a)
                                      - log_gamma(1.0 - 1j * (d - eps2 + eps1)))
    return replace(sol, c1l=c1l, c2l=c2l)


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
    return result_from_mode_amplitudes(1.0 + 0.0j, sol.c1l, sol.c2l, params.m,
                                       asymptotic_modes(params))


def _log_sinh_excess(x: float) -> float:
    """ln(2 sinh x) - x = ln(1 - e^(-2x)) for x > 0, accurate at both ends."""
    return math.log(-math.expm1(-2.0 * x))


def _scaled_gap(modes: AsymptoticModes, m: float, inv_s: float, sign: int, width: float,
                k: float) -> float:
    """k (E1 + E2 - |pi1 - sign pi2|) >= 0, free of cancellation, overflow and early underflow.

    width = E1 + E2 + |pi1 - sign pi2|, and the gap is the quotient
    2 (m^2 + E1 E2 + sign pi1 pi2) / width.  When the two products have
    opposite signs, (E1 E2)^2 - (pi1 pi2)^2 = m^2 (pi1^2 + pi2^2 + m^2)
    makes the numerator m^2 (D + X) / D, with D = E1 E2 + |pi1 pi2| and
    X = pi1^2 + pi2^2 + m^2.  Kinematics are formed divided by the scale
    s = 1/inv_s, so no product overflows, and k is folded in before the
    second factor of m: k m^2 stays representable where m^2 alone underflows.
    """
    ms, e2s, pi2s = m * inv_s, modes.e2 * inv_s, modes.pi2 * inv_s
    # each product over s
    e1e2 = modes.e1 * e2s
    pp = sign * modes.pi1 * pi2s
    if pp >= 0.0:
        return k * (2.0 * (m * ms + e1e2 + pp) / (width * inv_s))
    d = e1e2 - pp
    x = modes.pi1 * (modes.pi1 * inv_s) + modes.pi2 * pi2s + m * ms
    return 2.0 * (k * (m * ((d + x) / d))) * ms / (width * inv_s)


def scatter(params: StepParameters) -> ScatteringResult:
    """Scattering amplitudes and probabilities from the elementary moduli.

    F_u and B_u are the sinh products of the module docstring, each taken in
    logarithms, and f, b follow from their half-logarithms.
    """
    modes = asymptotic_modes(params)
    m, e1, e2 = params.m, modes.e1, modes.e2
    # |pi1 - pi2| from the inputs, not from the rounded pi1 and pi2
    delta = abs(params.q * (params.a2 - params.a1))
    e_sum = e1 + e2
    pi_sum = abs(modes.pi1 + modes.pi2)
    # products of the kinematics are formed divided by s, the largest power
    # of two not above max(|pi1|, |pi2|, m): none overflows, and scaling by
    # a power of two is exact
    inv_s = math.ldexp(1.0, 1 - math.frexp(max(abs(modes.pi1), abs(modes.pi2), m))[1])
    k = 0.5 * math.pi * params.tau
    # the gaps E1 + E2 - |pi1 -+ pi2|, times k
    kgap_f = _scaled_gap(modes, m, inv_s, +1, e_sum + delta, k)
    kgap_b = _scaled_gap(modes, m, inv_s, -1, e_sum + pi_sum, k)
    if 2.0 * k * min(e1, e2) < sys.float_info.min:
        raise ArithmeticError(
            f"pi tau min(E1, E2) = {2.0 * k * min(e1, e2):.3g} is below the "
            "double-precision range; use the Heaviside limit")
    log_denom = _log_sinh_excess(2.0 * k * e1) + _log_sinh_excess(2.0 * k * e2)
    # the linear parts of the log-sinh pairs cancel exactly in F_u and leave
    # -pi tau (E1 + E2 - |delta|) in B_u
    if kgap_f == 0.0:  # k m^2 below the double range: the massless limit F_u = 0
        log_f_u = -math.inf
    else:
        log_f_u = (_log_sinh_excess(k * (e_sum + delta)) + _log_sinh_excess(kgap_f)
                   - log_denom)
    # f^2 = F_u E1 (E2 + m) / (E2 (E1 + m)), b^2 = B_u E1 (E2 - m) / (E2 (E1 + m))
    log_scale = 0.5 * math.log((e1 * inv_s) / (e2 * inv_s * (e1 + m)))
    f = math.exp(0.5 * log_f_u + log_scale + 0.5 * math.log(e2 + m))
    # pi tau (|delta| +- |E2 - E1|)/2, with E2 - E1 = -delta (pi1 + pi2)/(E1 + E2)
    x_hi = k * delta * (e_sum + pi_sum) / e_sum
    x_lo = delta * kgap_b / e_sum
    if x_lo == 0.0:  # a trivial step, or B_u below the double range
        b_u = b = 0.0
    else:
        log_b_u = (-2.0 * kgap_f + _log_sinh_excess(x_hi) + _log_sinh_excess(x_lo)
                   - log_denom)
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
    w_b = q * (a2 - a1) / (e1 + e2) * (l1 + mode_lower(pi2, m))
    modes = AsymptoticModes(pi1=pi1, pi2=pi2, e1=e1, e2=e2)
    return result_from_mode_amplitudes(complex(2.0 * e2 / m), complex(w_f), complex(w_b), m, modes)
