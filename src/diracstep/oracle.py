"""Brute-force cross-check: direct time integration of the two-component system.

The governing system i phi' = pi(t) phi + m theta, i theta' = -pi(t) theta + m phi
is integrated in the basis of its instantaneous eigenmodes (the quantum-kinetic
picture).  With the mixing angle theta(u) = atan2(m, pi(u)), u = t - t0,

    (phi, theta) = a e^{-i Theta} (cos theta/2, sin theta/2)
                 + b e^{+i Theta} (-sin theta/2, cos theta/2),

the amplitudes and the dynamical phase obey

    a' = g e^{2i Theta} b,   b' = -g e^{-2i Theta} a,   Theta' = E(u),

with g = theta'/2 = m q (A2 - A1) sech^2(u/tau) / (4 tau E(u)^2).  The free
e^{-/+iEt} oscillation is carried by Theta, which the integrator follows
exactly on the plateaus, so the step count follows the sech^2 transition and
not the width of the window.  The integration runs from the unit incident
eigenmode (a = 1, b = 0), an exact solution on the early plateau, well
before the transition; at the end the instantaneous eigenmodes are the
exact late-time ones, so the forward and backward amplitudes per unit
incident amplitude are read off (a, b, Theta) directly, each as one exp of
a ratio of half angles and a phase.  The half angles' logarithms come from
`model.log_half_angles`, which takes them from E +- pi, not from atan2, as
atan2 rounds theta near pi where pi < 0 and m << |pi|.  Shares nothing with
the hypergeometric path except the governing equations and those logarithms.

pi(u) is taken from the nearer plateau, pi2 + delta w/(1 + w) for u >= 0
and pi1 - delta w/(1 + w) for u < 0 with w = e^{-2|u|/tau}, so it keeps
every digit where one plateau's |pi| is far below the other's.  The window
is t0 +- T, T = (SPAN_FACTOR + max(0, ln(|delta|/m)/2)) tau: on a plateau
g <= (|delta|/m) sech^2, so the widening keeps the coupling's tail beyond
the window below e^-40 however small m is against the step.

The stepper is DOP853, the explicit Runge-Kutta pair of Dormand and Prince
of order 8 (Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.10), twelve
stages per step, taken by `dop853.step`.  Its error estimate blends
embedded 5th- and 3rd-order solutions, |e5|^2 / sqrt(|e5|^2 + |e3|^2 / 100),
weighed per component by ABS_TOL + REL_TOL max(|y|, |y_new|), taken from
squared moduli against squared weights, and a PI controller with exponents
0.7/8 and 0.4/8 sets the next step.  Theta's error sums are taken on the
slopes' differences from stage 1, so on the plateaus, where its slope is
constant and g ~ 0, they are exactly 0 and not the rounding noise of
weights that add to -1.6e-16 in floats: the step counts do not move with
the last bit of E.  Theta stays in the norm with a and b: `compare` reads
moduli only, but the phases of g_f and g_b at small m, where pi1 < 0, are
right only while the step control bounds Theta's error (without Theta's
terms, runs at p = -1, a2 = 1, tau = 1 and m = 1e-12..1e-300 took 21-22
steps, not 77-93, and left g_b off by up to 9.7 relative).

Theta' = E(u) does not depend on (a, b), so a step's abscissae fix every
stage's phase Theta_i and coupling G_i = g e^{2i Theta_i}.
`_stage_profile` evaluates g and E at the stage abscissae in one pass and
hands `dop853.step` both times the step size h, with
pi(u) (above) and sech^2(u/tau) = 4w/(1 + w)^2 from the one exponential
w = e^{-2|u|/tau}, E as hypot(pi, m) and g as
(m/E) (q (A2 - A1)/E) sech^2/(4 tau), so that nothing overflows where the
plateaus' kinematics are finite.  A step's last abscissa is the next one's
first, so each step evaluates eleven nodes and takes stage 1's values from
the step before, or from the rejected attempt at the same point.  The state
is carried as the floats (Re a, Im a, Re b, Im b, Theta), and `dop853.step`
runs the stages as straight-line float arithmetic, bit for bit the complex
step's, at ~0.9 of its cost (~18 us a step against ~20 us over the seed-1
inputs of the `oracle-validation` benchmark, CPython 3.11, shared host).
The integration variable is s = u/S, S the power of two with tau/S
in [1/2, 1): the slopes per unit s carry no 1/tau, so neither they nor the
squares of the error norm overflow at any tau, and since scaling by a power
of two is exact each step is the step in u, bit for bit, wherever no
intermediate is subnormal.

The change of basis is unitary, so |a|^2 + |b|^2 = |phi|^2 + |theta|^2 = 1, which
the true flow conserves exactly (its generator is anti-Hermitian).  The
Runge-Kutta steps do not, so the accumulated drift of the norm is a direct
measure of the error in (a, b) and is enforced, never silently ignored.  An
error in Theta alone keeps the norm; it is bounded by the step-size control,
which weighs Theta with a and b.

On both plateaus g is negligible and the step size grows to the window's cap,
so a step could jump the whole transition, see zero coupling at every stage,
and return b = 0 with zero drift.  Every trajectory therefore lands a step on
u = 0, the sech^2 peak, which the error estimate cannot miss.
"""

from __future__ import annotations

import cmath
import math
import sys

from . import dop853
from .analytic import ScatteringResult, result_from_mode_amplitudes, scatter
from .model import (AsymptoticModes, FrozenRecord, StepParameters, asymptotic_modes,
                    log_half_angles)

__all__ = [
    "OracleError",
    "StepLimitError",
    "NormDriftError",
    "OracleOutcome",
    "ComparisonReport",
    "integrate",
    "compare",
]


class OracleError(RuntimeError):
    """Integration failed in a way that must not be silently passed."""


class StepLimitError(OracleError):
    """Step budget exceeded (or step size underflowed) before reaching the end
    time, or tau max(E1, E2) above MAX_TAU_E, refused before the first step."""


class NormDriftError(OracleError):
    """Norm conservation violated beyond DRIFT_LIMIT."""


class OracleOutcome(FrozenRecord):
    """g_f and g_b are the chiral amplitudes of the late forward and backward
    modes per unit incident amplitude, with the e^{-/+i E2 (t - t0)} phases
    stripped.  steps counts attempted steps, rejected ones included."""

    fields = ("norm_drift", "g_f", "g_b", "steps")

    def __init__(self, norm_drift: float, g_f: complex, g_b: complex, steps: int):
        self.__dict__.update(norm_drift=norm_drift, g_f=g_f, g_b=g_b, steps=steps)


class ComparisonReport(FrozenRecord):
    fields = ("analytic", "numeric", "outcome", "deviations", "passed")

    def __init__(self, analytic: ScatteringResult, numeric: ScatteringResult,
                 outcome: OracleOutcome, deviations: dict[str, float], passed: bool):
        self.__dict__.update(analytic=analytic, numeric=numeric, outcome=outcome,
                             deviations=deviations, passed=passed)


_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_PI_ALPHA = 0.7 / 8.0
_PI_BETA = 0.4 / 8.0

# the window is t0 +- (SPAN_FACTOR + max(0, ln(|delta|/m)/2)) tau at every
# tau, since only the sech^2 coupling moves |a| and |b|, and it is at most
# (|delta|/m) sech^2: the tail beyond the window moves them by below e^-40
SPAN_FACTOR = 20.0
# per-component error weight ABS_TOL + REL_TOL max(|y|, |y_new|)
REL_TOL = 3e-12
ABS_TOL = 3e-14
# measured worst norm drift at these tolerances: 6.9e-14 on the acceptance
# grid for tau 1e-12..30, 3.5e-13 with random points (signed q, m != 1,
# a1 != 0, t0 != 0, tau up to ~1e3)
DRIFT_LIMIT = 1e-9
# an integration may take STEP_BUDGET (1 + tau max(E1, E2)) steps: the
# window is a fixed number of tau wide, and the transition's steps grow about
# linearly in tau E.  Measured over 677 inputs (tau 7e-301..811, signed q,
# m != 1, a1 != 0): at most 157 steps per unit at REL_TOL and ABS_TOL, 208 at
# 10x tighter, so a stepper that has lost its order fails in seconds
STEP_BUDGET = 1000
# integrate refuses tau max(E1, E2) above MAX_TAU_E before its first step.
# Steps grow linearly in tau E: on the anchor (m = q = 1, p = sqrt(3),
# a2 = 2 sqrt(3)), CPython 3.11 on one core, tau E = 2e3 took 74,708 steps in
# 3.4 s and tau E = 1e4 took 302,758 steps in 14.5 s, both with norm drift
# below 1.4e-12; the command line accepts tau up to the double range
MAX_TAU_E = 1e4
# compare's bar on the deviations of f, b and F_u, in units of max(1, f, b);
# the worst measured, over 677 inputs with tau 7e-301..811, signed q and
# m != 1, is 3.8e-13
COMPARE_TOL = 1e-10


# stage abscissae as fractions of the step for stages 2..12 (C12 = 1); stage
# 1's, at the step's start, is the last one of the step before
_NODES = (dop853.C2, dop853.C3, dop853.C4, dop853.C5, dop853.C6, dop853.C7, dop853.C8,
          dop853.C9, dop853.C10, dop853.C11, 1.0)


def _stage_profile(params: StepParameters, modes: AsymptoticModes):
    """(tau_s, S, profile): s = u/S, tau = tau_s S with tau_s in [1/2, 1), and
    profile(s, h, g1, e1) gives (hg, hw, g_end, e_end): hg and hw are h times
    the coupling g and the Theta-slope S E per unit s at the twelve stage
    abscissae s + Ci h, stage 1 first, as `dop853.step` takes them, and
    g_end and e_end are g and S E unscaled at s + h, the next step's stage
    1.  Stage 1's values, at s itself, are passed in as g1 and e1; with
    h = 0 every abscissa is s, so profile(s, 0.0, 0.0, 0.0)[2:] are the
    values at s."""
    m = params.m
    pi1, pi2, delta = modes.pi1, modes.pi2, modes.delta
    tau_s, k = math.frexp(params.tau)
    scale = math.ldexp(1.0, k)
    # pi(s) = pi2 + delta w/(1 + w) for s >= 0 and pi1 - delta w/(1 + w) for
    # s < 0, as 1 - tanh|x| = 2w/(1 + w): pi is taken from the nearer plateau,
    # so it does not cancel where that plateau's |pi| is far below the other's;
    # per unit s, Theta' = S E and g = (m/E) (delta/E) sech^2(s/tau_s) / (4 tau_s),
    # sech^2 = 4w/(1 + w)^2, with E = hypot(pi, m): each factor is finite
    # where the plateaus' are
    inv_tau = 1.0 / tau_s
    exp = math.exp
    hypot = math.hypot

    def profile(s, h, g1, e1):
        hg = [h * g1]
        hw = [h * e1]
        for c in _NODES:
            x = (s + c * h) * inv_tau
            # w = e^{-2|x|}: the sech^2 tails underflow instead of cancelling
            w = exp(-2.0 * abs(x))
            opw = 1.0 + w
            dpi = delta * w / opw
            e = hypot(pi2 + dpi if x >= 0.0 else pi1 - dpi, m)
            g = m / e * (delta / e) * w / (opw * opw * tau_s)
            e = scale * e
            hg.append(h * g)
            hw.append(h * e)
        return hg, hw, g, e

    return tau_s, scale, profile


def integrate(params: StepParameters) -> OracleOutcome:
    """Propagate the incident wave through the step and project the final state.

    Starts from the unit incident eigenmode, a = 1, b = 0, at t0 - T, that is
    phi = cos(theta1/2) e^{-i E1 (t - t0)}, theta = ((E1 - pi1)/m) phi, with
    T = (SPAN_FACTOR + max(0, ln(|delta|/m)/2)) tau, and reports the chiral
    amplitudes of the forward/backward late modes at t0 + T per unit incident
    amplitude, with the e^{-/+ i E2 (t - t0)} phases stripped; `compare`
    turns them into f, b and the probabilities.  The window, tolerances and
    limits are the module constants, read at each call.
    """
    m = params.m
    modes = asymptotic_modes(params)
    tau_e = params.tau * max(modes.e1, modes.e2)
    if tau_e > MAX_TAU_E:
        raise StepLimitError(
            f"tau max(E1, E2) = {tau_e:.3g} exceeds the integrator's supported "
            f"range {MAX_TAU_E:g}: its steps grow linearly in tau E")
    # integrate in s = u/S, u = t - t0; the profile depends on t only through s
    tau_s, scale, profile = _stage_profile(params, modes)
    # on a plateau g <= (|delta|/m) sech^2, so the window widens by
    # ln(|delta|/m)/2 tau where |delta| > m to keep the tail residual e^-40
    widen = 0.5 * (math.log(abs(modes.delta)) - math.log(m)) if modes.delta else 0.0
    s_end = (SPAN_FACTOR + max(0.0, widen)) * tau_s
    s = -s_end
    # incident eigenmode: a = 1, b = 0, dynamical phase -E1 T; the state is
    # carried as the floats (Re a, Im a, Re b, Im b, Theta)
    ar = 1.0
    ai = br = bi = 0.0
    ph = -modes.e1 * (s_end * scale)
    na = 1.0  # |a|^2 and |b|^2 of the state, whose sum starts at 1
    nb = 0.0
    drift_max = 0.0
    # stage 1's profile values at s: a step's last stage is at s + h, so an
    # accepted step hands them on, and a rejected one retries from the same s
    g1, e1 = profile(s, 0.0, 0.0, 0.0)[2:]

    rtol = REL_TOL  # module settings read once per call, not per step
    atol = ABS_TOL
    step = dop853.step
    sqrt = math.sqrt
    h_max = 2.0 * s_end / 16.0
    h = min(tau_s / 4.0, 0.1 / max(modes.e1, modes.e2) / scale)
    h_min = 1e-14 * tau_s
    max_steps = STEP_BUDGET * (1.0 + tau_e)
    err_prev = 1.0
    steps = 0
    # a remaining sliver below rounding scale contributes nothing but could
    # drive the step size into the underflow guard
    span_eps = 16.0 * sys.float_info.epsilon * s_end
    while s_end - s > span_eps:
        if steps >= max_steps:
            raise StepLimitError(
                f"step budget {max_steps:.0f} exceeded at t - t0 = {s * scale:.6g}")
        # land on the sech^2 peak at s = 0 so no step can jump the transition
        target = 0.0 if s < 0.0 else s_end
        if s + h > target:
            h = target - s
        hg, hw, g_end, e_end = profile(s, h, g1, e1)
        (ar_new, ai_new, br_new, bi_new, ph_new, e5ar, e5ai, e5br, e5bi, e5p,
         e3ar, e3ai, e3br, e3bi, e3p) = step(ar, ai, br, bi, ph, hg, hw)
        # per-component weights 1/sc^2, sc = ABS_TOL + REL_TOL max(|y|, |y_new|),
        # from the squared moduli of a and b
        na_new = ar_new * ar_new + ai_new * ai_new
        nb_new = br_new * br_new + bi_new * bi_new
        sc = atol + rtol * sqrt(na if na > na_new else na_new)
        wa = 1.0 / (sc * sc)
        sc = atol + rtol * sqrt(nb if nb > nb_new else nb_new)
        wb = 1.0 / (sc * sc)
        sc = atol + rtol * max(abs(ph), abs(ph_new))
        wp = 1.0 / (sc * sc)
        # DOP853's estimate |e5|^2 / sqrt(|e5|^2 + |e3|^2 / 100), as an rms
        # over the three components; the sums carry h already
        err5 = (e5ar * e5ar + e5ai * e5ai) * wa + (e5br * e5br + e5bi * e5bi) * wb + e5p * e5p * wp
        denom = err5 + 0.01 * ((e3ar * e3ar + e3ai * e3ai) * wa
                               + (e3br * e3br + e3bi * e3bi) * wb + e3p * e3p * wp)
        # denom = 0: every error sum squares to below the double range, so
        # the step's scaled error is below 1e-148; a NaN error is refused
        err = 0.0 if denom == 0.0 else err5 / sqrt(3.0 * denom)
        steps += 1
        if err <= 1.0:
            s += h
            ar, ai, br, bi, ph = ar_new, ai_new, br_new, bi_new, ph_new
            na = na_new
            nb = nb_new
            g1 = g_end
            e1 = e_end
            drift = abs(na + nb - 1.0)
            # written as `not <=` so that a NaN drift is kept, and fails below
            if not drift <= drift_max:
                drift_max = drift
            factor = _SAFETY * (err ** -_PI_ALPHA if err > 0 else _MAX_FACTOR) * err_prev ** _PI_BETA
            err_prev = max(err, 1e-4)
        else:
            factor = max(_MIN_FACTOR, _SAFETY * err ** -_PI_ALPHA)
        h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        h = min(h, h_max)
        if h <= h_min:
            raise StepLimitError(f"step size underflow at t - t0 = {s * scale:.6g}")

    if not drift_max <= DRIFT_LIMIT:
        raise NormDriftError(f"norm drift {drift_max:.3e} exceeds limit {DRIFT_LIMIT:.3e}")

    # psi = a e^{-i Theta} v+ + b e^{+i Theta} v-; the eigenmodes are
    # v+ = cos(theta/2) u+ and v- = -sin(theta/2) u- in terms of the chiral
    # u+ = (1, (E - pi)/m), u- = (1, -(E + pi)/m), and the incident wave is
    # cos(theta1/2) u+, so each late amplitude per unit incident one is one
    # exp of a ratio of half angles (`model.log_half_angles`) and a phase
    lc1 = log_half_angles(modes.pi1, modes.e1, m)[0]
    lc2, ls2 = log_half_angles(modes.pi2, modes.e2, m)
    phase = modes.e2 * (s * scale) - ph
    return OracleOutcome(
        norm_drift=drift_max,
        g_f=_per_incident("g_f", complex(ar, ai), lc2 - lc1, phase),
        g_b=_per_incident("g_b", -complex(br, bi), ls2 - lc1, -phase),
        steps=steps,
    )


def _per_incident(name: str, amplitude: complex, log_ratio: float, phase: float) -> complex:
    """amplitude e^{log_ratio + i phase}, the late amplitude `name` per unit
    incident one, or OracleError naming it where the ratio of its mode's
    half angle to the incident one's is beyond the double range (pi1 < 0 and
    m/E1 below ~1e-308)."""
    try:
        return amplitude * cmath.exp(complex(log_ratio, phase))
    except OverflowError:
        raise OracleError(f"{name}: the mode ratio e^({log_ratio:.6g}) to the unit incident "
                          f"amplitude is beyond the double range") from None


def compare(params: StepParameters) -> ComparisonReport:
    """Run the closed form and the integrator on identical inputs and diff them.

    Deviations of f, b and F_u are measured against COMPARE_TOL * max(1, f, b);
    the other probabilities are reported alongside for inspection.  `passed`
    is therefore an absolute check on f, b and F_u: it does not vouch for the
    relative accuracy of a tiny B_u.  The integrator resolves B_u only to
    about 1e-25 absolute; at tau = 10, p = 4, a2 = 1 (m = q = 1) it gives
    4.0e-26 where the exact value is 1.2e-86, and the report still passes.
    """
    ana = scatter(params)
    out = integrate(params)
    num = result_from_mode_amplitudes(out.g_f, out.g_b, params.m, ana.modes)
    deviations = {
        "f": abs(ana.f - num.f),
        "b": abs(ana.b - num.b),
        "F": abs(ana.F - num.F),
        "B": abs(ana.B - num.B),
        "F_u": abs(ana.F_u - num.F_u),
        "B_u": abs(ana.B_u - num.B_u),
    }
    bar = COMPARE_TOL * max(1.0, ana.f, ana.b)
    passed = all(deviations[k] < bar for k in ("f", "b", "F_u"))
    return ComparisonReport(
        analytic=ana,
        numeric=num,
        outcome=out,
        deviations=deviations,
        passed=passed,
    )
