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
not the width of the window.  The incident wave is the unit incident
eigenmode (a = 1, b = 0) on the early plateau; at the end the
instantaneous eigenmodes are the exact late-time ones, so (a, b) with the
late phase stripped are the forward and backward amplitudes per unit
incident eigenmode, in the convention `analytic.match_at_t0` reports them
in (u_f and u_b): unitary, so neither can overflow, and with no mode
factor to form.  Shares nothing with the hypergeometric path except the
governing equations.

pi(u) is taken from the nearer plateau, pi2 + delta w/(1 + w) for u >= 0
and pi1 - delta w/(1 + w) for u < 0 with w = e^{-2|u|/tau}, so it keeps
every digit where one plateau's |pi| is far below the other's.  DOP853
runs over the window t0 +- U, U = (SPAN_FACTOR + max(0, ln(|delta|/m)/2)) tau
with SPAN_FACTOR = 9.  Beyond it the coupling is a decaying exponential
times a plane wave, g = (m/E_i) (delta/E_i) w/tau and
E = E_i + (pi_i/E_i) delta w to O(w^2), and each tail is added in closed
form to first order in g.  With w_U = e^{-2U/tau} and
kappa_i = (m/E_i) (delta/E_i) w_U, the run starts from a = 1,
b = -kappa1 e^{2i E1 U}/(2 - 2i E1 tau) and
Theta = -E1 U - (pi1/E1) delta w_U tau/2, and at the end, from a and b both
read before either update, a gains b kappa2 e^{2i Theta}/(2 - 2i E2 tau),
b loses a kappa2 e^{-2i Theta}/(2 + 2i E2 tau), and the stripped phase
gains -(pi2/E2) delta w_U tau/2.  On a plateau g <= (|delta|/m) sech^2, so
the widening keeps kappa_i <= e^(-2 SPAN_FACTOR) however small m is against
the step, and the terms left out are O(e^(-4 SPAN_FACTOR)) = 2.3e-16, below
one ulp of |a| = 1: that bound alone sets SPAN_FACTOR.  Where the window is
widened, delta w_U is sign(delta) m e^(-2 SPAN_FACTOR), and pi_i delta is
never formed, so no tail product overflows or underflows where the
plateaus' kinematics are finite.

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
moduli only, but the phases of u_f and u_b at small m, where pi1 < 0, are
right only while the step control bounds Theta's error (without Theta's
terms, runs at p = -1, a2 = 1, tau = 1 and m = 1e-12..1e-300 took 21-22
steps, not 77-93, and left the backward amplitude off by up to 9.7
relative).

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
from .analytic import ScatteringResult, result_from_amplitudes, scatter
from .model import AsymptoticModes, FrozenRecord, StepParameters, asymptotic_modes

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
    """u_f is the amplitude of the late +E eigenmode (cos theta2/2,
    sin theta2/2) and u_b that of its conjugate partner (sin theta2/2,
    -cos theta2/2), each per unit incident eigenmode and with the
    e^{-/+i E2 (t - t0)} phases stripped, so |u_f|^2 and |u_b|^2 are F_u and
    B_u: the convention of `analytic.match_at_t0`'s u_f and u_b.  steps
    counts attempted steps, rejected ones included."""

    fields = ("norm_drift", "u_f", "u_b", "steps")

    def __init__(self, norm_drift: float, u_f: complex, u_b: complex, steps: int):
        self.__dict__.update(norm_drift=norm_drift, u_f=u_f, u_b=u_b, steps=steps)


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

# DOP853 runs over t0 +- (SPAN_FACTOR + max(0, ln(|delta|/m)/2)) tau at
# every tau, and the coupling's tails beyond are added to first order in
# closed form: what that leaves out is O(e^(-4 SPAN_FACTOR)) = 2.3e-16
SPAN_FACTOR = 9.0
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
# a2 = 2 sqrt(3)), CPython 3.11.7 on one core of an Intel Xeon, tau E = 2e3
# took 69,814 steps in 1.8 s of CPU and tau E = 1e4 took 285,271 steps in
# 5.2 s, both with norm drift below 7e-13; the command line accepts tau up
# to the double range
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

    The incident wave is the unit incident eigenmode, a = 1, b = 0, that is
    phi = cos(theta1/2) e^{-i E1 (t - t0)}, theta = ((E1 - pi1)/m) phi, on
    the early plateau.  DOP853 runs over t0 +- U with
    U = (SPAN_FACTOR + max(0, ln(|delta|/m)/2)) tau, and the coupling's
    tails beyond are added in closed form (module docstring).  Reports the
    amplitudes u_f and u_b of the forward/backward late eigenmodes per unit
    incident eigenmode, with the e^{-/+ i E2 (t - t0)} phases stripped
    (`OracleOutcome`); `compare` turns them into f, b and the
    probabilities.  The window, tolerances and limits are the module
    constants, read at each call.
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
    # ln(|delta|/m)/2 tau where |delta| > m, and the tails' neglected terms
    # stay O(e^(-4 SPAN_FACTOR)) however small m is against the step
    widen = 0.5 * (math.log(abs(modes.delta)) - math.log(m)) if modes.delta else 0.0
    s_end = (SPAN_FACTOR + max(0.0, widen)) * tau_s
    s = -s_end
    # delta w_U, w_U = e^(-2 U/tau), for the closed-form tails beyond the
    # window (module docstring): where the window is widened it is
    # sign(delta) m e^(-2 SPAN_FACTOR), which neither overflows nor underflows
    if widen > 0.0:
        delta_w = math.copysign(m, modes.delta) * math.exp(-2.0 * SPAN_FACTOR)
    else:
        delta_w = modes.delta * math.exp(-2.0 * SPAN_FACTOR)
    tau, e_in, e_out = params.tau, modes.e1, modes.e2
    e_u = e_in * (s_end * scale)
    # the early tail's b from the incident eigenmode, and Theta = E1 u plus
    # the integral of E - E1 from -inf; the state is carried as the floats
    # (Re a, Im a, Re b, Im b, Theta)
    b = -(m / e_in * (delta_w / e_in)) * cmath.exp(2j * e_u) / complex(2.0, -2.0 * e_in * tau)
    ar = 1.0
    ai = 0.0
    br = b.real
    bi = b.imag
    ph = -e_u - modes.pi1 / e_in * delta_w * (0.5 * tau)
    na = 1.0  # |a|^2 and |b|^2 of the state, whose sum is 1 to O(w_U^2)
    nb = br * br + bi * bi
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

    # the late tail, from a and b both read before either update, and the
    # integral of E - E2 to +inf in the phase
    a = complex(ar, ai)
    b = complex(br, bi)
    kappa = m / e_out * (delta_w / e_out)
    turn = cmath.exp(2j * ph)
    a, b = (a + b * kappa * turn / complex(2.0, -2.0 * e_out * tau),
            b - a * kappa * turn.conjugate() / complex(2.0, 2.0 * e_out * tau))
    # psi = a e^{-i Theta} v+ + b e^{+i Theta} v-, and the conjugate partner
    # of v+ = (cos theta/2, sin theta/2) is -v-; stripping e^{-/+i E2 u}
    # leaves u_f = a e^{i phase} and u_b = -b e^{-i phase}
    phase = e_out * (s * scale) - ph - modes.pi2 / e_out * delta_w * (0.5 * tau)
    rot = complex(math.cos(phase), math.sin(phase))
    return OracleOutcome(norm_drift=drift_max, u_f=a * rot, u_b=-b * rot.conjugate(),
                         steps=steps)


def compare(params: StepParameters) -> ComparisonReport:
    """Run the closed form and the integrator on identical inputs and diff them.

    Deviations of f, b and F_u are measured against COMPARE_TOL * max(1, f, b);
    the other probabilities are reported alongside for inspection.  `passed`
    is therefore an absolute check on f, b and F_u: it does not vouch for the
    relative accuracy of a tiny B_u.  The integrator resolves B_u only down
    to the square of its absolute error in b; at tau = 10, p = 4,
    a2 = 1 (m = q = 1) it gives 2.4e-33 where the exact value is 1.2e-86,
    and the report still passes.
    """
    ana = scatter(params)
    out = integrate(params)
    num = result_from_amplitudes(ana.modes, params.m, abs(out.u_f), abs(out.u_b))
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
