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
not the width of the window.  The integration runs from the exact incident
plane wave (a = 1/cos(theta1/2), b = 0) well before the transition; at the
end the instantaneous eigenmodes are the exact late-time ones, so the
forward and backward amplitudes are read off (a, b, Theta) directly.  Shares
nothing with the hypergeometric path except the governing equations.

The stepper is DOP853, the explicit Runge-Kutta pair of Dormand and Prince
of order 8 (Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.10): twelve
stages per step plus one evaluation at the accepted end point, which is the
next step's first stage (FSAL).  Its error estimate blends embedded 5th- and
3rd-order solutions, |e5|^2 / sqrt(|e5|^2 + |e3|^2 / 100), weighed per
component by ABS_TOL + REL_TOL max(|y|, |y_new|), and a PI controller with
exponents 0.7/8 and 0.4/8 sets the next step.  The coefficients are those
of Hairer's dop853.f, as named module constants, and `_dop853_step` is
written like that code: straight-line stages and output sums that read the
constants by name, with no loop over the tableau.

The right-hand side takes tanh(u/tau) and sech^2(u/tau) from the one
exponential w = e^{-2|u|/tau}, as sign(u) (1 - w)/(1 + w) and
4w/(1 + w)^2, and the coupling g e^{2i Theta} from cmath.rect.  The
integration variable is s = u/S, S the power of two with tau/S in [1/2, 1):
the slopes per unit s carry no 1/tau, so neither they nor the squares of the
error norm overflow at any tau, and since scaling by a power of two is exact
each step is the step in u, bit for bit, wherever no intermediate is
subnormal.

The change of basis is unitary, so |a|^2 + |b|^2 = |phi|^2 + |theta|^2, which
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
from dataclasses import dataclass

from .analytic import ScatteringResult, result_from_mode_amplitudes, scatter
from .model import StepParameters, asymptotic_modes

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
    """Step budget exceeded (or step size underflowed) before reaching the end time."""


class NormDriftError(OracleError):
    """Norm conservation violated beyond DRIFT_LIMIT."""


@dataclass(frozen=True)
class OracleOutcome:
    """g_f and g_b are the chiral amplitudes of the late forward and backward
    modes per unit incident amplitude, with the e^{-/+i E2 (t - t0)} phases
    stripped."""

    norm_drift: float
    g_f: complex
    g_b: complex
    steps: int


@dataclass(frozen=True)
class ComparisonReport:
    analytic: ScatteringResult
    numeric: ScatteringResult
    outcome: OracleOutcome
    deviations: dict[str, float]
    passed: bool


# DOP853 tableau, from Hairer's dop853.f (Hairer, Norsett & Wanner, Solving
# Ordinary Differential Equations I, 2nd ed., Sec. II.10), with its names:
# stage i is taken at u + Ci h (C1 = 0, C12 = 1) from the stages j < i with
# weights Aij; stage 1 is the FSAL evaluation at the end of the step before
C2 = 0.526001519587677318785587544488e-01
C3 = 0.789002279381515978178381316732e-01
C4 = 0.118350341907227396726757197510
C5 = 0.281649658092772603273242802490
C6 = 0.333333333333333333333333333333
C7 = 0.25
C8 = 0.307692307692307692307692307692
C9 = 0.651282051282051282051282051282
C10 = 0.6
C11 = 0.857142857142857142857142857142

A21 = 5.26001519587677318785587544488e-2

A31 = 1.97250569845378994544595329183e-2
A32 = 5.91751709536136983633785987549e-2

A41 = 2.95875854768068491816892993775e-2
A43 = 8.87627564304205475450678981324e-2

A51 = 2.41365134159266685502369798665e-1
A53 = -8.84549479328286085344864962717e-1
A54 = 9.24834003261792003115737966543e-1

A61 = 3.7037037037037037037037037037e-2
A64 = 1.70828608729473871279604482173e-1
A65 = 1.25467687566822425016691814123e-1

A71 = 3.7109375e-2
A74 = 1.70252211019544039314978060272e-1
A75 = 6.02165389804559606850219397283e-2
A76 = -1.7578125e-2

A81 = 3.70920001185047927108779319836e-2
A84 = 1.70383925712239993810214054705e-1
A85 = 1.07262030446373284651809199168e-1
A86 = -1.53194377486244017527936158236e-2
A87 = 8.27378916381402288758473766002e-3

A91 = 6.24110958716075717114429577812e-1
A94 = -3.36089262944694129406857109825
A95 = -8.68219346841726006818189891453e-1
A96 = 2.75920996994467083049415600797e1
A97 = 2.01540675504778934086186788979e1
A98 = -4.34898841810699588477366255144e1

A101 = 4.77662536438264365890433908527e-1
A104 = -2.48811461997166764192642586468
A105 = -5.90290826836842996371446475743e-1
A106 = 2.12300514481811942347288949897e1
A107 = 1.52792336328824235832596922938e1
A108 = -3.32882109689848629194453265587e1
A109 = -2.03312017085086261358222928593e-2

A111 = -9.3714243008598732571704021658e-1
A114 = 5.18637242884406370830023853209
A115 = 1.09143734899672957818500254654
A116 = -8.14978701074692612513997267357
A117 = -1.85200656599969598641566180701e1
A118 = 2.27394870993505042818970056734e1
A119 = 2.49360555267965238987089396762
A1110 = -3.0467644718982195003823669022

A121 = 2.27331014751653820792359768449
A124 = -1.05344954667372501984066689879e1
A125 = -2.00087205822486249909675718444
A126 = -1.79589318631187989172765950534e1
A127 = 2.79488845294199600508499808837e1
A128 = -2.85899827713502369474065508674
A129 = -8.87285693353062954433549289258
A1210 = 1.23605671757943030647266201528e1
A1211 = 6.43392746015763530355970484046e-1

# 8th-order weights of the step (B2..B5 = 0)
B1 = 5.42937341165687622380535766363e-2
B6 = 4.45031289275240888144113950566
B7 = 1.89151789931450038304281599044
B8 = -5.8012039600105847814672114227
B9 = 3.1116436695781989440891606237e-1
B10 = -1.52160949662516078556178806805e-1
B11 = 2.01365400804030348374776537501e-1
B12 = 4.47106157277725905176885569043e-2
# 5th-order error weights (Hairer's ER)
E5_1 = 0.1312004499419488073250102996e-1
E5_6 = -0.1225156446376204440720569753e+1
E5_7 = -0.4957589496572501915214079952
E5_8 = 0.1664377182454986536961530415e+1
E5_9 = -0.3503288487499736816886487290
E5_10 = 0.3341791187130174790297318841
E5_11 = 0.8192320648511571246570742613e-1
E5_12 = -0.2235530786388629525884427845e-1
# 3rd-order weights (Hairer's BHH); the 3rd-order error weights are E3 = B - B3,
# which differ from B only on stages 1, 9 and 12
B3_1 = 0.244094488188976377952755905512
B3_9 = 0.733846688281611857341361741547
B3_12 = 0.220588235294117647058823529412e-1
E3_1 = B1 - B3_1
E3_9 = B9 - B3_9
E3_12 = B12 - B3_12

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_PI_ALPHA = 0.7 / 8.0
_PI_BETA = 0.4 / 8.0

# the window is t0 +- SPAN_FACTOR tau at every tau, since only the sech^2
# coupling moves |a| and |b|; a factor >= 12 keeps the tanh tail residual
# below ~4e-11
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
# compare's bar on the deviations of f, b and F_u, in units of max(1, f, b);
# the worst measured, over 677 inputs with tau 7e-301..811, signed q and
# m != 1, is 3.8e-13
COMPARE_TOL = 1e-10


def _dop853_step(rhs, u, h, a, b, ph, k1):
    """One DOP853 step of (a, b, Theta) from u to u + h, written out stage by stage.

    k1 = rhs(u, a, b, ph).  Returns the 8th-order state at u + h followed by
    the 5th- and 3rd-order error sums of a, b and Theta, each still to be
    multiplied by h.
    """
    ka1, kb1, kp1 = k1
    ka2, kb2, kp2 = rhs(
        u + C2 * h,
        a + h * (A21 * ka1),
        b + h * (A21 * kb1),
        ph + h * (A21 * kp1))
    ka3, kb3, kp3 = rhs(
        u + C3 * h,
        a + h * (A31 * ka1 + A32 * ka2),
        b + h * (A31 * kb1 + A32 * kb2),
        ph + h * (A31 * kp1 + A32 * kp2))
    ka4, kb4, kp4 = rhs(
        u + C4 * h,
        a + h * (A41 * ka1 + A43 * ka3),
        b + h * (A41 * kb1 + A43 * kb3),
        ph + h * (A41 * kp1 + A43 * kp3))
    ka5, kb5, kp5 = rhs(
        u + C5 * h,
        a + h * (A51 * ka1 + A53 * ka3 + A54 * ka4),
        b + h * (A51 * kb1 + A53 * kb3 + A54 * kb4),
        ph + h * (A51 * kp1 + A53 * kp3 + A54 * kp4))
    ka6, kb6, kp6 = rhs(
        u + C6 * h,
        a + h * (A61 * ka1 + A64 * ka4 + A65 * ka5),
        b + h * (A61 * kb1 + A64 * kb4 + A65 * kb5),
        ph + h * (A61 * kp1 + A64 * kp4 + A65 * kp5))
    ka7, kb7, kp7 = rhs(
        u + C7 * h,
        a + h * (A71 * ka1 + A74 * ka4 + A75 * ka5 + A76 * ka6),
        b + h * (A71 * kb1 + A74 * kb4 + A75 * kb5 + A76 * kb6),
        ph + h * (A71 * kp1 + A74 * kp4 + A75 * kp5 + A76 * kp6))
    ka8, kb8, kp8 = rhs(
        u + C8 * h,
        a + h * (A81 * ka1 + A84 * ka4 + A85 * ka5 + A86 * ka6 + A87 * ka7),
        b + h * (A81 * kb1 + A84 * kb4 + A85 * kb5 + A86 * kb6 + A87 * kb7),
        ph + h * (A81 * kp1 + A84 * kp4 + A85 * kp5 + A86 * kp6 + A87 * kp7))
    ka9, kb9, kp9 = rhs(
        u + C9 * h,
        a + h * (A91 * ka1 + A94 * ka4 + A95 * ka5 + A96 * ka6 + A97 * ka7 + A98 * ka8),
        b + h * (A91 * kb1 + A94 * kb4 + A95 * kb5 + A96 * kb6 + A97 * kb7 + A98 * kb8),
        ph + h * (A91 * kp1 + A94 * kp4 + A95 * kp5 + A96 * kp6 + A97 * kp7 + A98 * kp8))
    ka10, kb10, kp10 = rhs(
        u + C10 * h,
        a + h * (A101 * ka1 + A104 * ka4 + A105 * ka5 + A106 * ka6 + A107 * ka7 + A108 * ka8
                 + A109 * ka9),
        b + h * (A101 * kb1 + A104 * kb4 + A105 * kb5 + A106 * kb6 + A107 * kb7 + A108 * kb8
                 + A109 * kb9),
        ph + h * (A101 * kp1 + A104 * kp4 + A105 * kp5 + A106 * kp6 + A107 * kp7 + A108 * kp8
                  + A109 * kp9))
    ka11, kb11, kp11 = rhs(
        u + C11 * h,
        a + h * (A111 * ka1 + A114 * ka4 + A115 * ka5 + A116 * ka6 + A117 * ka7 + A118 * ka8
                 + A119 * ka9 + A1110 * ka10),
        b + h * (A111 * kb1 + A114 * kb4 + A115 * kb5 + A116 * kb6 + A117 * kb7 + A118 * kb8
                 + A119 * kb9 + A1110 * kb10),
        ph + h * (A111 * kp1 + A114 * kp4 + A115 * kp5 + A116 * kp6 + A117 * kp7 + A118 * kp8
                  + A119 * kp9 + A1110 * kp10))
    ka12, kb12, kp12 = rhs(
        u + h,
        a + h * (A121 * ka1 + A124 * ka4 + A125 * ka5 + A126 * ka6 + A127 * ka7 + A128 * ka8
                 + A129 * ka9 + A1210 * ka10 + A1211 * ka11),
        b + h * (A121 * kb1 + A124 * kb4 + A125 * kb5 + A126 * kb6 + A127 * kb7 + A128 * kb8
                 + A129 * kb9 + A1210 * kb10 + A1211 * kb11),
        ph + h * (A121 * kp1 + A124 * kp4 + A125 * kp5 + A126 * kp6 + A127 * kp7 + A128 * kp8
                  + A129 * kp9 + A1210 * kp10 + A1211 * kp11))
    sa = (B1 * ka1 + B6 * ka6 + B7 * ka7 + B8 * ka8 + B9 * ka9 + B10 * ka10 + B11 * ka11
          + B12 * ka12)
    sb = (B1 * kb1 + B6 * kb6 + B7 * kb7 + B8 * kb8 + B9 * kb9 + B10 * kb10 + B11 * kb11
          + B12 * kb12)
    sp = (B1 * kp1 + B6 * kp6 + B7 * kp7 + B8 * kp8 + B9 * kp9 + B10 * kp10 + B11 * kp11
          + B12 * kp12)
    e5a = (E5_1 * ka1 + E5_6 * ka6 + E5_7 * ka7 + E5_8 * ka8 + E5_9 * ka9 + E5_10 * ka10
           + E5_11 * ka11 + E5_12 * ka12)
    e5b = (E5_1 * kb1 + E5_6 * kb6 + E5_7 * kb7 + E5_8 * kb8 + E5_9 * kb9 + E5_10 * kb10
           + E5_11 * kb11 + E5_12 * kb12)
    e5p = (E5_1 * kp1 + E5_6 * kp6 + E5_7 * kp7 + E5_8 * kp8 + E5_9 * kp9 + E5_10 * kp10
           + E5_11 * kp11 + E5_12 * kp12)
    # E3 = B - B3 is B itself on stages 6, 7, 8, 10 and 11
    e3a = (E3_1 * ka1 + B6 * ka6 + B7 * ka7 + B8 * ka8 + E3_9 * ka9 + B10 * ka10 + B11 * ka11
           + E3_12 * ka12)
    e3b = (E3_1 * kb1 + B6 * kb6 + B7 * kb7 + B8 * kb8 + E3_9 * kb9 + B10 * kb10 + B11 * kb11
           + E3_12 * kb12)
    e3p = (E3_1 * kp1 + B6 * kp6 + B7 * kp7 + B8 * kp8 + E3_9 * kp9 + B10 * kp10 + B11 * kp11
           + E3_12 * kp12)

    return (a + h * sa, b + h * sb, ph + h * sp, e5a, e5b, e5p, e3a, e3b, e3p)


def integrate(params: StepParameters) -> OracleOutcome:
    """Propagate the incident wave through the step and project the final state.

    Starts from phi = e^{-i E1 (t - t0)}, theta = ((E1 - pi1)/m) * phi at
    t0 - T, T = SPAN_FACTOR tau (a = 1/cos(theta1/2), b = 0 in the eigenmode
    picture) and reports the chiral amplitudes of the forward/backward late
    modes at t0 + T, with the e^{-/+ i E2 (t - t0)} phases stripped; `compare`
    turns them into f, b and the probabilities.  The window and tolerances
    are the module constants, read at each call.
    """
    m = params.m
    modes = asymptotic_modes(params)
    # integrate in s = u/S, u = t - t0, S = 2^k with tau = tau_s S and
    # tau_s in [1/2, 1); the profile depends on t only through s
    tau_s, k = math.frexp(params.tau)
    scale = math.ldexp(1.0, k)
    s_end = SPAN_FACTOR * tau_s
    s = -s_end
    # incident wave: a = 1/cos(theta1/2), b = 0, dynamical phase -E1 T
    a = 1.0 / math.cos(0.5 * math.atan2(m, modes.pi1)) + 0.0j
    b = 0.0j
    ph = -modes.e1 * (s_end * scale)
    norm0 = (a * a.conjugate()).real
    drift_max = 0.0

    # pi(s) = pi_mid - half_dpi * tanh(s/tau_s); per unit s, Theta' = S E and
    # g = m q (a2 - a1) sech^2(s/tau_s) / (4 tau_s E^2), sech^2 = 4w / (1 + w)^2
    pi_mid = 0.5 * (modes.pi1 + modes.pi2)
    half_dpi = 0.5 * (modes.pi1 - modes.pi2)
    g0 = m * params.q * (params.a2 - params.a1) / tau_s
    inv_tau = 1.0 / tau_s
    m_sq = m * m

    def rhs(ss: float, aa: complex, bb: complex, pp: float) -> tuple[complex, complex, float]:
        x = ss * inv_tau
        # w = e^{-2|x|}: the sech^2 tails underflow instead of cancelling, and
        # tanh|x| = (1 - w)/(1 + w), where 1 - w is exact for w >= 1/2
        w = math.exp(-2.0 * abs(x))
        opw = 1.0 + w
        th = (1.0 - w) / opw
        piv = pi_mid - half_dpi * th if x >= 0.0 else pi_mid + half_dpi * th
        e_sq = piv * piv + m_sq
        gr = cmath.rect(g0 * w / (opw * opw * e_sq), 2.0 * pp)
        return (gr * bb, -gr.conjugate() * aa, scale * math.sqrt(e_sq))

    rtol = REL_TOL  # module settings read once per call, not per step
    atol = ABS_TOL
    h_max = 2.0 * s_end / 16.0
    h = min(tau_s / 4.0, 0.1 / max(modes.e1, modes.e2) / scale)
    h_min = 1e-14 * tau_s
    max_steps = STEP_BUDGET * (1.0 + params.tau * max(modes.e1, modes.e2))
    k1 = rhs(s, a, b, ph)
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
        a_new, b_new, ph_new, ea5, eb5, ep5, ea3, eb3, ep3 = _dop853_step(
            rhs, s, h, a, b, ph, k1)
        sc_a = atol + rtol * max(abs(a), abs(a_new))
        sc_b = atol + rtol * max(abs(b), abs(b_new))
        sc_p = atol + rtol * max(abs(ph), abs(ph_new))
        # DOP853's estimate h |e5|^2 / sqrt(|e5|^2 + |e3|^2 / 100), as an rms
        # over the three components
        err5 = (abs(ea5) / sc_a) ** 2 + (abs(eb5) / sc_b) ** 2 + (ep5 / sc_p) ** 2
        err3 = (abs(ea3) / sc_a) ** 2 + (abs(eb3) / sc_b) ** 2 + (ep3 / sc_p) ** 2
        denom = err5 + 0.01 * err3
        # denom = 0: every scaled error is zero or squares to below the
        # double range, so with h <= s_end/8 < 2.5 the step's error is < 1e-160
        err = h * err5 / math.sqrt(3.0 * denom) if denom > 0.0 else 0.0
        steps += 1
        if err <= 1.0:
            s += h
            a, b, ph = a_new, b_new, ph_new
            k1 = rhs(s, a, b, ph)  # FSAL
            norm = (a * a.conjugate() + b * b.conjugate()).real
            drift = abs(norm - norm0) / norm0
            if drift > drift_max:
                drift_max = drift
            factor = _SAFETY * (err ** -_PI_ALPHA if err > 0 else _MAX_FACTOR) * err_prev ** _PI_BETA
            err_prev = max(err, 1e-4)
        else:
            factor = max(_MIN_FACTOR, _SAFETY * err ** -_PI_ALPHA)
        h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        h = min(h, h_max)
        if h <= h_min:
            raise StepLimitError(f"step size underflow at t - t0 = {s * scale:.6g}")

    if drift_max > DRIFT_LIMIT:
        raise NormDriftError(f"norm drift {drift_max:.3e} exceeds limit {DRIFT_LIMIT:.3e}")

    # psi = a e^{-i Theta} v+ + b e^{+i Theta} v-; the late eigenmodes are
    # v+ = cos(theta2/2) u+ and v- = -sin(theta2/2) u- in terms of the
    # chiral u+ = (1, (E2 - pi2)/m), u- = (1, -(E2 + pi2)/m)
    half2 = 0.5 * math.atan2(m, modes.pi2)
    c2 = math.cos(half2)
    s2 = math.sin(half2)
    pos = a * cmath.exp(-1j * ph)
    neg = b * cmath.exp(1j * ph)
    cf = pos * c2
    cb = -neg * s2
    return OracleOutcome(
        norm_drift=drift_max,
        g_f=cf * cmath.exp(1j * modes.e2 * (s * scale)),
        g_b=cb * cmath.exp(-1j * modes.e2 * (s * scale)),
        steps=steps,
    )


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
    num = result_from_mode_amplitudes(1.0 + 0.0j, out.g_f, out.g_b, params.m, ana.modes)
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
