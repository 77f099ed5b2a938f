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

The integration variable is x = u/tau, the transition's own coordinate.
pi(x) is taken from the nearer plateau, pi2 + delta w/(1 + w) for x >= 0
and pi1 - delta w/(1 + w) for x < 0 with w = e^{-2|x|}, so it keeps every
digit where one plateau's |pi| is far below the other's.  DOP853 runs over
x = +-X, X = SPAN_FACTOR + max(0, ln(|delta|/m)/2) with SPAN_FACTOR = 6.
Beyond it the coupling per unit x decays as powers of w times a plane
wave.  With sigma = -1 at the start and +1 at the end, E_i and pi_i the
nearer plateau's and D = pi_i delta/E_i, to O(w^2)

    g = (m/E_i) (delta/E_i) w (1 + g1 w),   g1 = -2 - 2 sigma pi_i delta/E_i^2,
    E = E_i + sigma D w + A2 w^2,            A2 = -sigma D + delta^2 m^2/(2 E_i^3),

and `_tail` adds each tail in closed form to second order in g, as the
propagator I + int A + int int A A of a' = G b, b' = -G* a.  With
w_X = e^{-2X}, kappa = (m/E_i) (delta/E_i) w_X, Theta the phase at the
window's edge and nu = 2 + i slope, the slope being 2 tau E1 at the start
and -2 tau E2 at the end, it maps (a, b) to ((1 - J) a + T b,
(1 - J*) b - T* a), with

    T = kappa e^{2i Theta} [1/nu + g1 w_X/(nu + 2) + 2i tau D w_X/(nu (nu + 2))],
    J = kappa^2 / (4 (2 - 2i tau E_i)),

and Re J = |T|^2/2 to this order, so the map keeps |a|^2 + |b|^2 to
O(w_X^3).  e^{2i Theta} is expanded about the window's edge, not about the
plateau, so each term is bounded uniformly in tau: the i tau D term is
O(D/(tau E_i^2)) where tau E_i is large.  tau times the integral of E - E_i
across a tail is phi_i = tau (sigma D w_X/2 + A2 w_X^2/4); the run starts
from the incident eigenmode a = 1, b = 0 carried across the early tail,
with Theta = -E1 X tau + phi_1, and at the end the stripped phase gains
-phi_2.  On a plateau g <= (|delta|/m) sech^2, so the widening keeps
kappa <= e^(-2 SPAN_FACTOR) however small m is against the step, and the
terms left out are O(e^(-6 SPAN_FACTOR)) = 2.3e-16, below one ulp of
|a| = 1: that bound alone sets SPAN_FACTOR.  delta w_X is sign(delta)
min(|delta|, m) e^(-2 SPAN_FACTOR), and every tail term is formed from the
ratios m/E_i, delta w_X/E_i and pi_i/E_i, so none overflows or underflows
where the plateaus' kinematics are finite.

The stepper is DOP853, the explicit Runge-Kutta pair of Dormand and Prince
of order 8 (Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.10), twelve
stages per step, taken by `dop853.step`.  Its error estimate blends
embedded 5th- and 3rd-order solutions, |e5|^2 / sqrt(|e5|^2 + |e3|^2 / 100),
taken from squared moduli against squared weights.  a and b are weighed
by ABS_TOL + REL_TOL max(|y|, |y_new|), and Theta by ABS_TOL + REL_TOL,
the scale of a and b where |a| ~ 1: an error in Theta is a phase error of
the amplitudes, absolute however large Theta has grown.  Accepted and
rejected steps take one rule, h times min(5, max(0.2, 0.9 err^(-0.7/8))),
5 where err = 0, with no memory of the step before and no cap on h below
the window, as Hairer's dop853.f runs by default (BETA = 0).  Theta's
error sums are taken on the slopes' differences from stage 1, so on the
plateaus, where its slope is constant and g ~ 0, they are exactly 0 and
not the rounding noise of weights that add to -1.6e-16 in floats: the step
counts do not move with the last bit of E.  Theta stays in the norm with a
and b: `compare` reads moduli only, but the phases of u_f and u_b at small
m, where pi1 < 0, are right only while the step control bounds Theta's
error.  At p = -1, a2 = 1, tau = 1 and m = 1e-6..1e-300, u_f is within
2.3e-13 of `analytic.match_at_t0`'s in 76-107 steps; with Theta weighed by
REL_TOL |Theta|, which grows with tau E times the window, it was off by up
to 4.1e-12, and without Theta's terms runs took 21-22 steps and left the
backward amplitude off by up to 9.7 relative.

Theta' = E(u) does not depend on (a, b), so a step's abscissae fix every
stage's phase Theta_i and coupling G_i = g e^{2i Theta_i}.
`_stage_profile` evaluates g and E at the stage abscissae in one pass and
hands `dop853.step` both times the step size h, with pi(x) (above) and
sech^2(x) = 4w/(1 + w)^2 from the one exponential w = e^{-2|x|}, E as
hypot(pi, m), and per unit x the coupling g = (m/E) (delta/E) w/(1 + w)^2
and the Theta-slope tau E, so that nothing overflows where the plateaus'
kinematics are finite.  A step's last abscissa is the next one's first, so
each step evaluates eleven nodes and takes stage 1's values from the step
before, or from the rejected attempt at the same point.  The state is
carried as the floats (Re a, Im a, Re b, Im b, Theta), and `dop853.step`
runs the stages as straight-line float arithmetic, bit for bit the complex
step's, at ~0.9 of its cost.  Over the seed-1 inputs of the
`oracle-validation` benchmark a step costs ~15 us (CPython 3.11.7, one core
of an Intel Xeon, shared host), and every step costs about the same, so the
window sets the cost: those inputs take 16,671 steps in all at
SPAN_FACTOR = 6.
Per unit x the slopes carry no 1/tau, and tau E <= MAX_TAU_E, so neither
they nor the squares of the error norm overflow at any tau; and scaling
(m, p, a1, a2, tau) to (l m, l p, l a1, l a2, tau/l), l a power of two,
leaves every slope, and so every step, bit for bit as it was, wherever no
intermediate is subnormal and the window is not widened.

The change of basis is unitary, so |a|^2 + |b|^2 = |phi|^2 + |theta|^2 = 1, which
the true flow conserves exactly (its generator is anti-Hermitian).  The
Runge-Kutta steps do not, so the accumulated drift of the norm is a direct
measure of the error in (a, b) and is enforced, never silently ignored.  An
error in Theta alone keeps the norm; it is bounded by the step-size control,
which weighs it as an absolute error of a and b.

On both plateaus g is negligible and the step size grows five-fold a step,
so a step could jump the whole transition, see zero coupling at every stage,
and return b = 0 with zero drift.  Every trajectory therefore lands a step on
x = 0, the sech^2 peak, which the error estimate cannot miss.
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
_EXPONENT = 0.7 / 8.0

# DOP853 runs over t0 +- (SPAN_FACTOR + max(0, ln(|delta|/m)/2)) tau at
# every tau, and the coupling's tails beyond are added to second order in
# closed form: what that leaves out is O(e^(-6 SPAN_FACTOR)) = 2.3e-16
SPAN_FACTOR = 6.0
# a and b are weighed by ABS_TOL + REL_TOL max(|y|, |y_new|) and Theta by
# ABS_TOL + REL_TOL.  On the benchmark's 384 oracle-validation inputs of
# seeds 1-3 (tools/census.py) these take 49,945 steps with a worst deviation
# of 1.6e-13 of max(1, f, b); 3e-12 and 3e-14 take 41,319 steps and 6.2e-13
REL_TOL = 6e-13
ABS_TOL = 6e-15
# measured worst norm drift at these tolerances: 7.4e-14 on the acceptance
# (p, a2) grid for tau 1e-12..30, 5.8e-13 on 400 seeded random points
# (m 0.5..2, signed q, a1 != 0, t0 != 0, tau log-uniform from 1e-300 or
# 1e-2 to 1e3)
DRIFT_LIMIT = 1e-9
# an integration may take STEP_BUDGET (1 + tau max(E1, E2)) steps: the
# window is a fixed number of tau wide, and the transition's steps grow about
# linearly in tau E.  Measured over DRIFT_LIMIT's 400 random points: at most
# 120 steps per unit at REL_TOL and ABS_TOL, 157 at 10x tighter, both at the
# least taus, where a run takes a fixed number of steps; so a stepper that
# has lost its order fails in seconds
STEP_BUDGET = 1000
# integrate refuses tau max(E1, E2) above MAX_TAU_E before its first step.
# Steps grow linearly in tau E: on the anchor (m = q = 1, p = sqrt(3),
# a2 = 2 sqrt(3)), CPython 3.11.7 on one core of an Intel Xeon, tau E = 2e3
# took 61,409 steps in 1.1 s of CPU and tau E = 1e4 took 251,085 steps in
# 4.4 s, both with norm drift below 7e-13; the command line accepts tau up
# to the double range
MAX_TAU_E = 1e4
# compare's bar on the deviations of f, b and F_u, in units of max(1, f, b);
# the worst measured, over DRIFT_LIMIT's 400 random points, is 5.8e-13
COMPARE_TOL = 1e-10


# stage abscissae as fractions of the step for stages 2..12 (C12 = 1); stage
# 1's, at the step's start, is the last one of the step before
_NODES = (dop853.C2, dop853.C3, dop853.C4, dop853.C5, dop853.C6, dop853.C7, dop853.C8,
          dop853.C9, dop853.C10, dop853.C11, 1.0)


def _stage_profile(params: StepParameters, modes: AsymptoticModes):
    """The profile in x = (t - t0)/tau: profile(x, h, g1, e1) gives
    (hg, hw, g_end, e_end), where hg and hw are h times the coupling g and
    the Theta-slope tau E per unit x at the twelve stage abscissae x + Ci h,
    stage 1 first, as `dop853.step` takes them, and g_end and e_end are g
    and tau E unscaled at x + h, the next step's stage 1.  Stage 1's values,
    at x itself, are passed in as g1 and e1; with h = 0 every abscissa is x,
    so profile(x, 0.0, 0.0, 0.0)[2:] are the values at x."""
    m, tau = params.m, params.tau
    pi1, pi2, delta = modes.pi1, modes.pi2, modes.delta
    # pi(x) = pi2 + delta w/(1 + w) for x >= 0 and pi1 - delta w/(1 + w) for
    # x < 0, as 1 - tanh|x| = 2w/(1 + w): pi is taken from the nearer plateau,
    # so it does not cancel where that plateau's |pi| is far below the other's;
    # per unit x, Theta' = tau E and g = (m/E) (delta/E) sech^2(x)/4,
    # sech^2 = 4w/(1 + w)^2, with E = hypot(pi, m): each factor is finite
    # where the plateaus' are
    exp = math.exp
    hypot = math.hypot

    def profile(x, h, g1, e1):
        hg = [h * g1]
        hw = [h * e1]
        for c in _NODES:
            xc = x + c * h
            # w = e^{-2|x|}: the sech^2 tails underflow instead of cancelling
            w = exp(-2.0 * abs(xc))
            opw = 1.0 + w
            dpi = delta * w / opw
            e = hypot(pi2 + dpi if xc >= 0.0 else pi1 - dpi, m)
            g = m / e * (delta / e) * w / (opw * opw)
            e = tau * e
            hg.append(h * g)
            hw.append(h * e)
        return hg, hw, g, e

    return profile


def _tail(sigma: float, te: float, mu: float, r: float, k: float, w: float):
    """One of the coupling's exponential tails beyond the window, to second
    order in it: sigma = -1 at the start and +1 at the end, te = tau E_i,
    mu = m/E_i, r = pi_i/E_i, k = delta w_X/E_i and w = w_X, with E_i and
    pi_i the nearer plateau's.  Returns (phi, c, j): phi is tau times the
    integral of E - E_i across the tail, and the tail maps (a, b) to
    ((1 - j) a + t b, (1 - j*) b - t* a), t = c e^{2i Theta}, Theta the
    phase at the window's edge (module docstring)."""
    nu = complex(2.0, -2.0 * sigma * te)
    kappa = mu * k
    c = kappa / nu * (1.0 + (2j * te * r * k - 2.0 * (w + sigma * r * k) * nu) / (nu + 2.0))
    j = kappa * kappa / complex(8.0, -8.0 * te)
    phi = te * (0.25 * sigma * r * k * (2.0 - w) + 0.125 * kappa * kappa)
    return phi, c, j


def integrate(params: StepParameters) -> OracleOutcome:
    """Propagate the incident wave through the step and project the final state.

    The incident wave is the unit incident eigenmode, a = 1, b = 0, that is
    phi = cos(theta1/2) e^{-i E1 (t - t0)}, theta = ((E1 - pi1)/m) phi, on
    the early plateau.  DOP853 runs in x = (t - t0)/tau over
    x = +-(SPAN_FACTOR + max(0, ln(|delta|/m)/2)), and the coupling's
    tails beyond are added in closed form, to second order, by `_tail`
    (module docstring).
    Reports the amplitudes u_f and u_b of the forward/backward late
    eigenmodes per unit incident eigenmode, with the e^{-/+ i E2 (t - t0)}
    phases stripped (`OracleOutcome`); `compare` turns them into f, b and
    the probabilities.  The window, tolerances and limits are the module
    constants, read at each call.
    """
    m, tau = params.m, params.tau
    modes = asymptotic_modes(params)
    e_in, e_out = modes.e1, modes.e2
    # tau E1 and tau E2, the Theta-slopes per unit x on the plateaus
    te_in, te_out = tau * e_in, tau * e_out
    tau_e = max(te_in, te_out)
    if tau_e > MAX_TAU_E:
        raise StepLimitError(
            f"tau max(E1, E2) = {tau_e:.3g} exceeds the integrator's supported "
            f"range {MAX_TAU_E:g}: its steps grow linearly in tau E")
    profile = _stage_profile(params, modes)
    # on a plateau g <= (|delta|/m) sech^2, so the window widens by
    # ln(|delta|/m)/2 where |delta| > m, and the tails' neglected terms
    # stay O(e^(-6 SPAN_FACTOR)) however small m is against the step
    widen = 0.5 * (math.log(abs(modes.delta)) - math.log(m)) if modes.delta else 0.0
    x_end = SPAN_FACTOR + max(0.0, widen)
    x = -x_end
    # delta w_X, w_X = e^(-2 x_end), for the closed-form tails beyond the
    # window (module docstring): sign(delta) m e^(-2 SPAN_FACTOR) where the
    # window is widened, which neither overflows nor underflows
    delta_w = math.copysign(min(abs(modes.delta), m), modes.delta) * math.exp(-2.0 * SPAN_FACTOR)
    w_x = math.exp(-2.0 * x_end)
    # the incident eigenmode carried across the early tail, and Theta = E1 u
    # plus the integral of E - E1 from -inf; the state is carried as the
    # floats (Re a, Im a, Re b, Im b, Theta)
    phi, c, j = _tail(-1.0, te_in, m / e_in, modes.pi1 / e_in, delta_w / e_in, w_x)
    ph = phi - te_in * x_end
    a, b = 1.0 - j, -(c * cmath.exp(2j * ph)).conjugate()
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    na = ar * ar + ai * ai  # |a|^2 and |b|^2 of the state, whose sum is 1 to O(w_X^3)
    nb = br * br + bi * bi
    drift_max = 0.0
    # stage 1's profile values at x: a step's last stage is at x + h, so an
    # accepted step hands them on, and a rejected one retries from the same x
    g1, e1 = profile(x, 0.0, 0.0, 0.0)[2:]

    rtol = REL_TOL  # module settings read once per call, not per step
    atol = ABS_TOL
    # Theta's error is a phase error, weighed as a and b are where |a| ~ 1
    wp = 1.0 / (atol + rtol) ** 2
    step = dop853.step
    sqrt = math.sqrt
    # tau_e underflows to 0 at the least taus
    h = 0.1 / tau_e if tau_e > 0.4 else 0.25
    max_steps = STEP_BUDGET * (1.0 + tau_e)
    steps = 0
    # 16 ulps of x_end: a remaining sliver below it contributes nothing, and
    # a step size below it is refused as an underflow
    span_eps = 16.0 * sys.float_info.epsilon * x_end
    while x_end - x > span_eps:
        if steps >= max_steps:
            raise StepLimitError(
                f"step budget {max_steps:.0f} exceeded at t - t0 = {x * tau:.6g}")
        # land on the sech^2 peak at x = 0 so no step can jump the transition
        target = 0.0 if x < 0.0 else x_end
        if x + h > target:
            h = target - x
        hg, hw, g_end, e_end = profile(x, h, g1, e1)
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
            x += h
            ar, ai, br, bi, ph = ar_new, ai_new, br_new, bi_new, ph_new
            na = na_new
            nb = nb_new
            g1 = g_end
            e1 = e_end
            drift = abs(na + nb - 1.0)
            # written as `not <=` so that a NaN drift is kept, and fails below
            if not drift <= drift_max:
                drift_max = drift
        # max(_MIN_FACTOR, nan) is _MIN_FACTOR: a NaN error is rejected and
        # shrinks h to the underflow refusal below, as `err > 0.0` would not
        h *= min(_MAX_FACTOR, max(_MIN_FACTOR, _MAX_FACTOR if err == 0.0
                                  else _SAFETY * err ** -_EXPONENT))
        if h <= span_eps:
            raise StepLimitError(f"step size underflow at t - t0 = {x * tau:.6g}")

    if not drift_max <= DRIFT_LIMIT:
        raise NormDriftError(f"norm drift {drift_max:.3e} exceeds limit {DRIFT_LIMIT:.3e}")

    # the late tail, and the integral of E - E2 to +inf in the phase
    phi, c, j = _tail(1.0, te_out, m / e_out, modes.pi2 / e_out, delta_w / e_out, w_x)
    t = c * cmath.exp(2j * ph)
    a, b = complex(ar, ai), complex(br, bi)
    a, b = (1.0 - j) * a + t * b, (1.0 - j.conjugate()) * b - t.conjugate() * a
    # psi = a e^{-i Theta} v+ + b e^{+i Theta} v-, and the conjugate partner
    # of v+ = (cos theta/2, sin theta/2) is -v-; stripping e^{-/+i E2 u}
    # leaves u_f = a e^{i phase} and u_b = -b e^{-i phase}
    phase = te_out * x - ph - phi
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
