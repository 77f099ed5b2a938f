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
-X1 <= x <= X2, and beyond each edge X_i `_tail` solves the tail as a power
series in y = e^{-2(|x| - X_i)} in (0, 1], summed to rounding.  With
sigma = -1 for the early tail and +1 for the late one, E_i and pi_i the
nearer plateau's, te = tau E_i, mu = m/E_i, r = pi_i/E_i, w_X = e^{-2 X_i}
and k = delta w_X/E_i,

    Q = (E/E_i)^2 (1 + w_X y)^2 = 1 + c1 y + c2 y^2,
    c1 = 2 (w_X + sigma r k),   c2 = (w_X + sigma r k)^2 + (mu k)^2,

the coupling per unit x is g = mu k y/Q and E/E_i = sqrt(Q)/(1 + w_X y),
and as Q is a quadratic the coefficients eps_n of E/E_i are a recurrence
(`_tail_profile`).  With d/dx = -2 sigma y d/dy, the solution that tends to
the plateau's eigenmode, a = sum alpha_n y^n and
B = b e^{2i Theta} = sum B_n y^n with alpha_0 = 1 and B_0 = 0, has for n >= 1

    (-2 sigma n - 2i te) B_n = -[g a]_n + 2i te sum_{j=1..n} eps_j B_{n-j},
    -2 sigma n alpha_n = [g B]_n,

with [g X]_n the coefficient of y^n in g X.  As Q (g X) = mu k y X, each
is a three-term recurrence, [g X]_n = mu k X_{n-1} - c1 [g X]_{n-1}
- c2 [g X]_{n-2}, so only the sum over eps is a convolution; and tau times
the integral of E - E_i across the tail is phi = te sum_{n>=1} eps_n/(2n).
B is carried, and e^{2i Theta} never expanded in y:
|2i te/(-2 sigma n - 2i te)| <= 1, so every term stays bounded at every
tau E up to MAX_TAU_E.  Q vanishes where pi = +-im, that is where
(pi_i -+ im) + (pi_o -+ im) w_X y = 0 with pi_o and E_o the other
plateau's, at |y| = E_i/(E_o w_X), and 1 + w_X y at 1/w_X, so the terms
fall as (w_X max(1, E_o/E_i))^n, whatever m is against the step.
`_window` sets each edge to X_i = SPAN_FACTOR + ln(max(1, E_o/E_i)/2)/2,
so that ratio is 2 e^(-2 SPAN_FACTOR) = 0.27 in both tails, at
SPAN_FACTOR = 1: X_i >= 0.65, so the window holds x = 0, and the
census's inputs take at most 27 terms a tail (`tools/census.py`,
`tail_terms_max`).  `_tail` stops at the first term whose |alpha_n| +
|B_n| and whose share of phi, against max(1, |phi|), are both below half
an ulp of 1, and refuses with OracleError beyond _TAIL_TERMS terms.  The
run starts from the early tail's solution at its edge: a = a(1),
Theta = phi_1 - tau E1 X1 and b = B(1) e^{-2i Theta}.  At the end the
stepped (a, b) is projected onto the late tail's solution
S = (a_S, b_S) = (a(1), B(1) e^{-2i Theta}) and its conjugate partner
(-b_S*, a_S*), which tend to the late eigenmodes, so the plateau
amplitudes are (a_S* a + b_S* b, a_S b - b_S a), and the stripped phase
gains -phi_2.  Every tail term is formed from the ratios m/E_i, k and
pi_i/E_i, k taken as 2 e^(-2 SPAN_FACTOR) delta/max(E1, E2), which is
delta w_X/E_i in both tails, and ln(E_o/E_i) as ln E_o - ln E_i where the
quotient leaves the normal range, so none overflows or underflows where
the plateaus' kinematics are finite.  Where E_o/E_i is beyond ~1.2e307,
an edge's e^{-2 X_i} is below the normal range, the stepped profile's
w = e^{-2|x|} would lose the digits of a coupling still of size m/E
there, and `integrate` refuses with OracleError before its first step.

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
4.1e-15 of `analytic.match_at_t0`'s, and u_b within 3.2e-10 relative, in
17 steps.  On the windows of up to +-346 widths these inputs took when
both edges were widened by ln(|delta|/m)/2, Theta's error weighed
relative to |Theta|, which grows with tau E times the window, left u_f off
by up to 4.1e-12, and without Theta's terms in the error the runs left the
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
step's, at ~0.9 of its cost.

Theta grows to ~tau E X, and no rounding of it is left to accumulate.
`dop853.step` returns Theta's increment, taken on the slopes' differences
from stage 1, so on a plateau it is exactly h tau E.  `integrate` adds it
to the pair Theta = ph + ph_lo by TwoSum (Knuth, TAOCP 2, Sec. 4.2.2;
Ogita, Rump & Oishi, SIAM J. Sci. Comput. 26, 1955 (2005)), renormalised
each accepted step; the stages read ph, and the final phase subtracts
ph_lo.  Each step's h is (x + h) - x after the landing clamp, so x
advances by exactly the h the step integrated, and Theta - tau E_2 x at
the end does not carry the drift of a float sum of step lengths.  Against
50-digit Gamma ratios, over 100 seeded draws (m = q = 1, p 0.5-4,
a2 0.5-5, tau 10-400), u_f is at most 2.0e-13 off in 103,688 steps in all
(3.6e-13 in 200,408 steps with both edges at 1 + ln(|delta|/m)/2 widths),
where one float Theta over a drifting x was up to 4.7e-12 off at those
edges and 1.0e-11 one width further out.
Per unit x the slopes carry no 1/tau, and tau E <= MAX_TAU_E, so neither
they nor the squares of the error norm overflow at any tau; and scaling
(m, p, a1, a2, tau) to (l m, l p, l a1, l a2, tau/l), l a power of two,
leaves every slope, and so every step, bit for bit as it was, wherever no
intermediate is subnormal: the window reads only E2/E1, which the scaling
keeps exact.

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

# DOP853 runs over [-X1, X2], each edge set by `_window` so that the tail
# beyond it is a power series whose terms fall as (2 e^(-2 SPAN_FACTOR))^n:
# that ratio, not a truncation, sets the value, as the trade of widths
# stepped against terms summed.  At 1, the ratio 0.27, a tail takes at most
# 27 terms over the census's inputs, ~70 us at the anchor (26 terms), about
# four steps' cost; 1.25 and 1.5 take 24% and 45% more census steps, and at
# 0.75, the ratio 0.45, 366 of the census's 384 inputs have a tail that
# does not reach rounding within _TAIL_TERMS.  With Theta carried exactly
# across steps (module docstring) the window does not set the phase: the
# anchor's u_f at tau = 100 is 5.7e-14 to 9.9e-14 off 50-digit Gamma ratios
# at 1-2
SPAN_FACTOR = 1.0
# a tail's series stops at its first term below _TAIL_TOL, in |alpha_n| +
# |B_n| and in its share of max(1, |phi|), and is refused beyond _TAIL_TERMS
# terms: the census's inputs take at most 27 (`tail_terms_max`)
_TAIL_TOL = 0.5 * sys.float_info.epsilon
_TAIL_TERMS = 40
# the absolute tolerance on every component of (a, b, Theta): |a|^2 + |b|^2
# = 1, so no component's scale exceeds 1, and Theta's error is a phase
# error of both.  On the benchmark's 384 oracle-validation inputs of seeds
# 1-3 (tools/census.py) 1e-13 takes 11,440 steps with a worst deviation of
# 5.8e-14 of max(1, f, b); 2e-13 takes 10,631 steps and 1.2e-13, and
# 1.5e-13 10,950 steps and 9.1e-14
TOL = 1e-13
# the worst norm drift at TOL is 5.92e-14 over the census's 384
# oracle-validation inputs (tools/census.py, `norm_drift_max`)
DRIFT_LIMIT = 1e-9
# an integration may take STEP_BUDGET (1 + tau max(E1, E2)) steps: the
# window is a fixed number of tau wide, and the transition's steps grow about
# linearly in tau E.  The census's inputs (tau E 0.06..12) take at most 33
# steps per unit (`steps_per_unit_max`), at tau E = 0.32, 43 steps, where
# the window's fixed cost dominates; so a stepper that has lost its order
# fails in seconds
STEP_BUDGET = 1000
# integrate refuses tau max(E1, E2) above MAX_TAU_E before its first step.
# Steps grow linearly in tau E: on the anchor (m = q = 1, p = sqrt(3),
# a2 = 2 sqrt(3)), CPython 3.11.7 on one core of an Intel Xeon, tau E = 2e3
# (`scatter --tau 1000 --oracle`, a rerun the CI compares byte for byte)
# took 5,701 steps in 0.09 s of CPU and tau E = 1e4 took 23,294 steps in
# 0.37 s, both with norm drift below 1e-13; the command line accepts tau up
# to the double range
MAX_TAU_E = 1e4
# compare's bar on the deviations of f, b and F_u, in units of max(1, f, b);
# the worst over the census's inputs (`worst_deviation`) is 5.84e-14
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
    """The tail's profile in powers of y = e^{-2(|x| - X)}: returns
    (mk, c1, c2, eps), with the coupling per unit x g = mk y/Q,
    Q = (E/E_i)^2 (1 + w y)^2 = 1 + c1 y + c2 y^2, and eps an iterator over
    the coefficients eps_n, n = 1, 2, ..., of E/E_i = sqrt(Q)/(1 + w y); the
    arguments are `_tail`'s.  As Q is a quadratic, eps is a recurrence:
    eps_n = s_n - w eps_{n-1} with s the coefficients of sqrt(Q), from
    Q (sqrt Q)' = Q' sqrt(Q)/2."""
    c1 = w + sigma * r * k
    c2 = c1 * c1 + (mu * k) ** 2
    c1 *= 2.0

    def eps():
        s0, s1, e = 0.0, 1.0, 1.0
        for n in count(1):
            s0, s1 = s1, (c1 * (1.5 - n) * s1 + c2 * (3 - n) * s0) / n
            e = s1 - w * e
            yield e

    return mu * k, c1, c2, eps()


def _tail(sigma: float, te: float, mu: float, r: float, k: float, w: float):
    """One of the coupling's exponential tails beyond the window, summed to
    rounding as a power series in y = e^{-2(|x| - X)} (module docstring):
    sigma = -1 at the start and +1 at the end, te = tau E_i, mu = m/E_i,
    r = pi_i/E_i, k = delta w_X/E_i and w = w_X, with E_i and pi_i the
    nearer plateau's.  Returns (phi, a, bb, n): phi is tau times the
    integral of E - E_i across the tail, (a, bb) is the solution that tends
    to the plateau's eigenmode, at the window's edge y = 1, with
    bb = b e^{2i Theta}, and n the terms summed.  Raises OracleError, naming
    the tail, where the series has not fallen to rounding within
    _TAIL_TERMS terms."""
    mk, c1, c2, eps_n = _tail_profile(sigma, mu, r, k, w)
    # eps_1.. and bb_0..; alpha_{n-1} and the sum of alpha_0..alpha_{n-1}
    eps, bb = [], [0j]
    alpha, a = 1.0, 1.0
    # the coefficients n - 1 and n - 2 of g alpha and g bb, g = mk y/Q: as
    # Q (g alpha) = mk y alpha, each is mk alpha_{n-1} - c1 (n - 1's)
    # - c2 (n - 2's), and likewise for bb
    ga1 = ga2 = gb1 = gb2 = 0.0
    phi = 0.0
    for n, e_n in zip(range(1, _TAIL_TERMS + 1), eps_n):
        eps.append(e_n)
        # y d/dy = -(sigma/2) d/dx on a' = g bb, bb' = -g a + 2i te (E/E_i) bb
        # with alpha_0 = 1 and bb_0 = 0, order by order in y: the coefficients
        # n of g alpha and g bb, and the sum over j = 1..n of eps_j bb_{n-j}
        ga1, ga2 = mk * alpha - c1 * ga1 - c2 * ga2, ga1
        gb1, gb2 = mk * bb[-1] - c1 * gb1 - c2 * gb2, gb1
        eb = sum(map(mul, eps, reversed(bb)))
        b_n = (2j * te * eb - ga1) / complex(-2.0 * sigma * n, -2.0 * te)
        alpha = gb1 / (-2.0 * sigma * n)
        bb.append(b_n)
        a += alpha
        d_phi = te * e_n / (2 * n)
        phi += d_phi
        if abs(alpha) + abs(b_n) <= _TAIL_TOL and abs(d_phi) <= _TAIL_TOL * max(1.0, abs(phi)):
            return phi, a, sum(bb), n
    raise OracleError(f"the {'early' if sigma < 0.0 else 'late'} tail's series has not "
                      f"fallen to rounding in {_TAIL_TERMS} terms")


def _window(modes: AsymptoticModes):
    """(X1, w1, X2, w2, k): DOP853 runs over [-X1, X2], and each tail beyond
    takes w_i = e^(-2 X_i) and k = delta w_i/E_i (`_tail`).  Each tail's
    series in y = e^{-2(|x| - X_i)} falls at the ratio w_i max(1, E_o/E_i),
    E_o the other plateau's (module docstring), so the edge
    X_i = SPAN_FACTOR + ln(max(1, E_o/E_i)/2)/2 sets it to
    2 e^(-2 SPAN_FACTOR) in both tails, and k is then
    2 e^(-2 SPAN_FACTOR) delta/max(E1, E2) in both: as |delta| <= E1 + E2,
    it neither overflows nor underflows with w_i.  Raises OracleError where
    an edge's w_i is below the normal double range."""
    e1, e2 = modes.e1, modes.e2
    # ln(E2/E1), as a difference of logarithms where the quotient leaves the
    # normal range
    quotient = e2 / e1
    spread = (math.log(quotient) if sys.float_info.min <= quotient < math.inf
              else math.log(e2) - math.log(e1))
    x1 = SPAN_FACTOR + 0.5 * (max(0.0, spread) - math.log(2.0))
    x2 = SPAN_FACTOR + 0.5 * (max(0.0, -spread) - math.log(2.0))
    w1, w2 = math.exp(-2.0 * x1), math.exp(-2.0 * x2)
    # the profile's w = e^(-2|x|) must stay a normal double across the
    # window: a subnormal w loses the digits of a coupling delta w/E ~ m/E
    if min(w1, w2) < sys.float_info.min:
        raise OracleError(
            f"E2/E1 = e^{spread:.6g}: the window reaches {max(x1, x2):.6g} widths from t0, "
            f"where e^(-2|x|) is below the normal double range")
    k = 2.0 * math.exp(-2.0 * SPAN_FACTOR) * (modes.delta / max(e1, e2))
    return x1, w1, x2, w2, k


def integrate(params: StepParameters) -> OracleOutcome:
    """Propagate the incident wave through the step and project the final state.

    The incident wave is the unit incident eigenmode, a = 1, b = 0, that is
    phi = cos(theta1/2) e^{-i E1 (t - t0)}, theta = ((E1 - pi1)/m) phi, on
    the early plateau.  DOP853 runs in x = (t - t0)/tau over `_window`'s
    [-X1, X2], and `_tail` sums the coupling's tails beyond as power series
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
    x_start, w_in, x_end, w_out, k = _window(modes)
    x = -x_start
    # the early tail's solution at the window's edge, the incident
    # eigenmode at -inf, and Theta = E1 u plus the integral of E - E1 from
    # -inf; the state is carried as the floats (Re a, Im a, Re b, Im b) and
    # Theta as ph + ph_lo, ph_lo the roundings of ph's sums (module docstring)
    phi, a, bb, _ = _tail(-1.0, te_in, m / e_in, modes.pi1 / e_in, k, w_in)
    ph = phi - te_in * x_start
    ph_lo = 0.0
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
    # 16 ulps of the wider edge: a remaining sliver below it contributes
    # nothing, and a step size below it is refused as an underflow
    span_eps = 16.0 * sys.float_info.epsilon * max(x_start, x_end)
    while x_end - x > span_eps:
        if steps >= max_steps:
            raise StepLimitError(
                f"step budget {max_steps:.0f} exceeded at t - t0 = {x * tau:.6g}")
        # land on the sech^2 peak at x = 0 so no step can jump the transition
        target = 0.0 if x < 0.0 else x_end
        if x + h > target:
            h = target - x
        # the step x + h - x that x advances by, so that the profile and
        # Theta's increment are taken over the x actually stepped
        h = (x + h) - x
        hg, hw, g_end, e_end = profile(x, h, g1, e1)
        # the amplitudes at x + h, Theta's increment and the step's error in
        # units of tol
        ar1, ai1, br1, bi1, d_ph, err = step(ar, ai, br, bi, ph, hg, hw, tol)
        steps += 1
        if err <= 1.0:
            x += h
            ar, ai, br, bi = ar1, ai1, br1, bi1
            # TwoSum of ph and d_ph, then ph_lo folded back into ph
            s = ph + d_ph
            d_hi = s - ph
            ph_lo += (ph - (s - d_hi)) + (d_ph - d_hi)
            ph = s + ph_lo
            ph_lo -= ph - s
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
    phi, a_s, bb, _ = _tail(1.0, te_out, m / e_out, modes.pi2 / e_out, k, w_out)
    b_s = bb * cmath.exp(-2j * ph)
    a, b = complex(ar, ai), complex(br, bi)
    a, b = a_s.conjugate() * a + b_s.conjugate() * b, a_s * b - b_s * a
    # psi = a e^{-i Theta} v+ + b e^{+i Theta} v-, and the conjugate partner
    # of v+ = (cos theta/2, sin theta/2) is -v-; stripping e^{-/+i E2 u}
    # leaves u_f = a e^{i phase} and u_b = -b e^{-i phase}
    phase = te_out * x - ph - ph_lo - phi
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
    a2 = 1 (m = q = 1) it gives 5.9e-30 where the exact value is 1.24e-86,
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
