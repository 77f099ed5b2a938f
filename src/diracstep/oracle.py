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
x = +-X, X = SPAN_FACTOR + max(0, ln(|delta|/m)/2) with SPAN_FACTOR = 2.
Beyond it `_tail` solves each tail as a power series in
y = e^{-2(|x| - X)} in (0, 1], summed to rounding.  With sigma = -1 for
the early tail and +1 for the late one, E_i and pi_i the nearer plateau's,
te = tau E_i, mu = m/E_i, r = pi_i/E_i, w_X = e^{-2X} and k = delta w_X/E_i,

    Q = (E/E_i)^2 (1 + w_X y)^2 = 1 + c1 y + c2 y^2,
    c1 = 2 (w_X + sigma r k),   c2 = (w_X + sigma r k)^2 + (mu k)^2,

the coupling per unit x is g = mu k y/Q and E/E_i = sqrt(Q)/(1 + w_X y),
and as Q is a quadratic the coefficients g_n and eps_n of both are
recurrences (`_tail_profile`).  With d/dx = -2 sigma y d/dy, the solution
that tends to the plateau's eigenmode, a = sum alpha_n y^n and
B = b e^{2i Theta} = sum B_n y^n with alpha_0 = 1 and B_0 = 0, has for n >= 1

    (-2 sigma n - 2i te) B_n = -sum_{j=1..n} g_j alpha_{n-j}
                               + 2i te sum_{j=1..n} eps_j B_{n-j},
    -2 sigma n alpha_n = sum_{j=1..n} g_j B_{n-j},

and tau times the integral of E - E_i across the tail is
phi = te sum_{n>=1} eps_n/(2n).  B is carried, and e^{2i Theta} never
expanded in y: |2i te/(-2 sigma n - 2i te)| <= 1, so every term stays
bounded at every tau E up to MAX_TAU_E.  Q's zeros lie at
|y| >= 1/(w_X + |k|), and 1 + w_X y's at 1/w_X, so the terms fall at
least as fast as (w_X + |k|)^n.  On a plateau g <= (|delta|/m) sech^2,
and delta w_X is sign(delta) min(|delta|, m) e^(-2 SPAN_FACTOR), so the
widening keeps |k| <= e^(-2 SPAN_FACTOR) however small m is against the
step, and the ratio is at most 2 e^(-2 SPAN_FACTOR) = 0.037: 6-10 terms
reach rounding.  `_tail` stops at the first term whose |alpha_n| + |B_n|
and whose share of phi, against max(1, |phi|), are both below half an ulp
of 1, and refuses with OracleError beyond _TAIL_TERMS terms.  The run
starts from the early tail's solution at its edge: a = a(1),
Theta = phi_1 - tau E1 X and b = B(1) e^{-2i Theta}.  At the end the
stepped (a, b) is projected onto the late tail's solution
S = (a_S, b_S) = (a(1), B(1) e^{-2i Theta}) and its conjugate partner
(-b_S*, a_S*), which tend to the late eigenmodes, so the plateau
amplitudes are (a_S* a + b_S* b, a_S b - b_S a), and the stripped phase
gains -phi_2.  Every tail term is formed from the ratios m/E_i,
delta w_X/E_i and pi_i/E_i, so none overflows or underflows where the
plateaus' kinematics are finite.

The stepper is DOP853, the explicit Runge-Kutta pair of Dormand and Prince
of order 8 (Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.10), twelve
stages per step, taken by `dop853.step`, which returns the step's error
in units of TOL, one absolute tolerance on every component of the unitary
state (its docstring).  Accepted and rejected steps
take one rule, h times min(5, max(0.2, 0.9 err^(-0.7/8))), 5 where err = 0,
with no memory of the step before and no cap on h below the window, as
Hairer's dop853.f runs by default (BETA = 0).  Theta stays in the norm with a
and b: `compare` reads moduli only, but the phases of u_f and u_b at small
m, where pi1 < 0, are right only while the step control bounds Theta's
error.  At p = -1, a2 = 1, tau = 1 and m = 1e-6..1e-300, u_f is within
3.4e-13 of `analytic.match_at_t0`'s, and u_b within 1e-10 relative, in
82-124 steps; with Theta's error weighed relative to |Theta|, which grows
with tau E times the window, u_f was off by up to 4.1e-12, and without
Theta's terms runs took 21-22 steps and left the backward amplitude off by
up to 9.7 relative.

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
step's, at ~0.9 of its cost.
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
from itertools import count
from operator import mul

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
# every tau, and `_tail` sums the coupling's tails beyond as power series
# whose terms fall at least as fast as (2 e^(-2 SPAN_FACTOR))^n: that ratio,
# not a truncation, sets the value, as the trade of widths stepped against
# terms summed.  At 2, the ratio 0.037, a tail takes 6-10 terms in ~26 us,
# under two steps' cost; 2.5 takes 12% more steps, and 1.5 takes 14% fewer.
# The anchor's u_f at tau = 100 is 6.2e-13 off the charts' at 2, and
# 2.3e-14 to 1.2e-12 at other windows and tolerances: Theta's accumulated
# rounding, which follows the step sequence and no tolerance bounds
SPAN_FACTOR = 2.0
# a tail's series stops at its first term below _TAIL_TOL, in |alpha_n| +
# |B_n| and in its share of max(1, |phi|), and is refused beyond _TAIL_TERMS
# terms, which covers ratios up to ~0.4, SPAN_FACTOR ~0.8
_TAIL_TOL = 0.5 * sys.float_info.epsilon
_TAIL_TERMS = 40
# the absolute tolerance on every component of (a, b, Theta): |a|^2 + |b|^2
# = 1, so no component's scale exceeds 1, and Theta's error is a phase
# error of both.  On the benchmark's 384 oracle-validation inputs of seeds
# 1-3 (tools/census.py) 1e-13 takes 26,023 steps with a worst deviation of
# 8.5e-14 of max(1, f, b); 2e-13 takes 24,104 steps and 1.7e-13
TOL = 1e-13
# measured worst norm drift at TOL: 8.4e-14 on the acceptance (p, a2) grid
# for tau 1e-12..30, 8.5e-14 on 400 seeded random points
# (m 0.5..2, signed q, a1 != 0, t0 != 0, tau log-uniform from 1e-300 or
# 1e-2 to 1e3)
DRIFT_LIMIT = 1e-9
# an integration may take STEP_BUDGET (1 + tau max(E1, E2)) steps: the
# window is a fixed number of tau wide, and the transition's steps grow about
# linearly in tau E.  Measured over DRIFT_LIMIT's 400 random points: at most
# 71 steps per unit at TOL, 93 at 10x tighter, both at the least taus, where
# a run takes a fixed number of steps; so a stepper that has lost its order
# fails in seconds
STEP_BUDGET = 1000
# integrate refuses tau max(E1, E2) above MAX_TAU_E before its first step.
# Steps grow linearly in tau E: on the anchor (m = q = 1, p = sqrt(3),
# a2 = 2 sqrt(3)), CPython 3.11.7 on one core of an Intel Xeon, tau E = 2e3
# took 23,763 steps in 0.4 s of CPU and tau E = 1e4 took 97,132 steps in
# 1.6 s, both with norm drift below 5e-13; the command line accepts tau up
# to the double range
MAX_TAU_E = 1e4
# compare's bar on the deviations of f, b and F_u, in units of max(1, f, b);
# the worst measured, over DRIFT_LIMIT's 400 random points, is 2.9e-13
COMPARE_TOL = 1e-10


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
        for c in dop853.NODES:
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


def _tail_profile(sigma: float, mu: float, r: float, k: float, w: float):
    """The tail's profile in powers of y = e^{-2(|x| - X)}: yields the
    coefficients (g_n, eps_n), n = 1, 2, ..., of the coupling per unit x,
    g = mu k y/Q, and of E/E_i = sqrt(Q)/(1 + w y), where
    Q = (E/E_i)^2 (1 + w y)^2 = 1 + c1 y + c2 y^2; the arguments are
    `_tail`'s.  As Q is a quadratic, both are recurrences: g_n = mu k h_{n-1}
    with h the coefficients of 1/Q, and eps_n = s_n - w eps_{n-1} with s
    those of sqrt(Q), from Q (sqrt Q)' = Q' sqrt(Q)/2."""
    c1 = w + sigma * r * k
    c2 = c1 * c1 + (mu * k) ** 2
    c1 *= 2.0
    h0, h1, s0, s1, e = 0.0, mu * k, 0.0, 1.0, 1.0
    for n in count(1):
        s0, s1 = s1, (c1 * (1.5 - n) * s1 + c2 * (3 - n) * s0) / n
        e = s1 - w * e
        yield h1, e
        h0, h1 = h1, -c1 * h1 - c2 * h0


def _tail(sigma: float, te: float, mu: float, r: float, k: float, w: float):
    """One of the coupling's exponential tails beyond the window, summed to
    rounding as a power series in y = e^{-2(|x| - X)} (module docstring):
    sigma = -1 at the start and +1 at the end, te = tau E_i, mu = m/E_i,
    r = pi_i/E_i, k = delta w_X/E_i and w = w_X, with E_i and pi_i the
    nearer plateau's.  Returns (phi, a, bb): phi is tau times the integral
    of E - E_i across the tail, and (a, bb) is the solution that tends to
    the plateau's eigenmode, at the window's edge y = 1, with
    bb = b e^{2i Theta}.  Raises OracleError, naming the tail, where the
    series has not fallen to rounding within _TAIL_TERMS terms."""
    # the coefficients so far: g_1.., eps_1.., alpha_0.. and bb_0..
    g, eps, alpha, bb = [], [], [1.0], [0j]
    phi = 0.0
    for n, (g_n, e_n) in zip(range(1, _TAIL_TERMS + 1), _tail_profile(sigma, mu, r, k, w)):
        g.append(g_n)
        eps.append(e_n)
        # y d/dy = -(sigma/2) d/dx on a' = g bb, bb' = -g a + 2i te (E/E_i) bb
        # with alpha_0 = 1 and bb_0 = 0, order by order in y: sums over
        # j = 1..n of g_j alpha_{n-j}, g_j bb_{n-j} and eps_j bb_{n-j}
        ga = sum(map(mul, g, reversed(alpha)))
        gb = sum(map(mul, g, reversed(bb)))
        eb = sum(map(mul, eps, reversed(bb)))
        b_n = (2j * te * eb - ga) / complex(-2.0 * sigma * n, -2.0 * te)
        a_n = gb / (-2.0 * sigma * n)
        bb.append(b_n)
        alpha.append(a_n)
        d_phi = te * e_n / (2 * n)
        phi += d_phi
        if abs(a_n) + abs(b_n) <= _TAIL_TOL and abs(d_phi) <= _TAIL_TOL * max(1.0, abs(phi)):
            return phi, sum(alpha), sum(bb)
    raise OracleError(f"the {'early' if sigma < 0.0 else 'late'} tail's series has not "
                      f"fallen to rounding in {_TAIL_TERMS} terms")


def integrate(params: StepParameters) -> OracleOutcome:
    """Propagate the incident wave through the step and project the final state.

    The incident wave is the unit incident eigenmode, a = 1, b = 0, that is
    phi = cos(theta1/2) e^{-i E1 (t - t0)}, theta = ((E1 - pi1)/m) phi, on
    the early plateau.  DOP853 runs in x = (t - t0)/tau over
    x = +-(SPAN_FACTOR + max(0, ln(|delta|/m)/2)), and `_tail` sums the
    coupling's tails beyond as power series (module docstring).
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
    # ln(|delta|/m)/2 where |delta| > m, and the tails' series fall by at
    # least 2 e^(-2 SPAN_FACTOR) a term however small m is against the step
    widen = 0.5 * (math.log(abs(modes.delta)) - math.log(m)) if modes.delta else 0.0
    x_end = SPAN_FACTOR + max(0.0, widen)
    x = -x_end
    # delta w_X, w_X = e^(-2 x_end), for the tails' series beyond the
    # window (module docstring): sign(delta) m e^(-2 SPAN_FACTOR) where the
    # window is widened, which neither overflows nor underflows
    delta_w = math.copysign(min(abs(modes.delta), m), modes.delta) * math.exp(-2.0 * SPAN_FACTOR)
    w_x = math.exp(-2.0 * x_end)
    # the early tail's solution at the window's edge, the incident
    # eigenmode at -inf, and Theta = E1 u plus the integral of E - E1 from
    # -inf; the state is carried as the floats (Re a, Im a, Re b, Im b, Theta)
    phi, a, bb = _tail(-1.0, te_in, m / e_in, modes.pi1 / e_in, delta_w / e_in, w_x)
    ph = phi - te_in * x_end
    b = bb * cmath.exp(-2j * ph)
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    drift_max = 0.0
    # stage 1's profile values at x: a step's last stage is at x + h, so an
    # accepted step hands them on, and a rejected one retries from the same x
    g1, e1 = profile(x, 0.0, 0.0, 0.0)[2:]

    tol = TOL  # a module setting, read once per call, not per step
    step = dop853.step
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
        # the state at x + h, and the step's error in units of tol
        ar1, ai1, br1, bi1, ph1, err = step(ar, ai, br, bi, ph, hg, hw, tol)
        steps += 1
        if err <= 1.0:
            x += h
            ar, ai, br, bi, ph = ar1, ai1, br1, bi1, ph1
            g1, e1 = g_end, e_end
            drift = abs((ar * ar + ai * ai) + (br * br + bi * bi) - 1.0)
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

    # the late tail's solution S = (a_s, b_s) at the window's edge and its
    # conjugate partner (-b_s*, a_s*) tend to the late eigenmodes, so the
    # state's components along them are the plateau amplitudes; and the
    # integral of E - E2 to +inf in the phase
    phi, a_s, bb = _tail(1.0, te_out, m / e_out, modes.pi2 / e_out, delta_w / e_out, w_x)
    b_s = bb * cmath.exp(-2j * ph)
    a, b = complex(ar, ai), complex(br, bi)
    a, b = a_s.conjugate() * a + b_s.conjugate() * b, a_s * b - b_s * a
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
    a2 = 1 (m = q = 1) it gives 2.5e-33 where the exact value is 1.2e-86,
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
