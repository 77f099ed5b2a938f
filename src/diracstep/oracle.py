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
of order 8 (Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.10), twelve
stages per step.  Its error estimate blends embedded 5th- and 3rd-order
solutions, |e5|^2 / sqrt(|e5|^2 + |e3|^2 / 100), weighed per component by
ABS_TOL + REL_TOL max(|y|, |y_new|), and a PI controller with exponents
0.7/8 and 0.4/8 sets the next step.  The coefficients are those of Hairer's
dop853.f, as named module constants, and e3 is formed as there: the
8th-order sum less the 3rd-order weights' terms.

Theta' = E(u) does not depend on (a, b), so a step's abscissae fix every
stage's phase Theta_i and coupling G_i = g e^{2i Theta_i}.
`_stage_profile` evaluates g and E at the twelve abscissae in one pass,
with tanh(u/tau) and sech^2(u/tau) from the one exponential
w = e^{-2|u|/tau}, as sign(u) (1 - w)/(1 + w) and 4w/(1 + w)^2.  `_step`
is then straight-line code that reads the constants by name: Theta_i from
its tableau row, G_i from cmath.rect, and the slopes of a and b as
G_i b_i and -G_i* a_i.  The integration variable is s = u/S, S the power
of two with tau/S in [1/2, 1): the slopes per unit s carry no 1/tau, so
neither they nor the squares of the error norm overflow at any tau, and
since scaling by a power of two is exact each step is the step in u, bit
for bit, wherever no intermediate is subnormal.

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
from .model import AsymptoticModes, StepParameters, asymptotic_modes

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


@dataclass(frozen=True)
class OracleOutcome:
    """g_f and g_b are the chiral amplitudes of the late forward and backward
    modes per unit incident amplitude, with the e^{-/+i E2 (t - t0)} phases
    stripped.  steps counts attempted steps, rejected ones included."""

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
# 3rd-order weights (Hairer's BHH), nonzero on stages 1, 9 and 12 only
B3_1 = 0.244094488188976377952755905512
B3_9 = 0.733846688281611857341361741547
B3_12 = 0.220588235294117647058823529412e-1

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


# stage abscissae as fractions of the step, stage 1 first (C1 = 0, C12 = 1)
_NODES = (0.0, C2, C3, C4, C5, C6, C7, C8, C9, C10, C11, 1.0)


def _stage_profile(params: StepParameters, modes: AsymptoticModes):
    """(tau_s, S, profile): s = u/S, tau = tau_s S with tau_s in [1/2, 1), and
    profile(s, h) gives g and the Theta-slope S E per unit s, each times h,
    at the twelve stage abscissae s + Ci h, stage 1 first."""
    m = params.m
    tau_s, k = math.frexp(params.tau)
    scale = math.ldexp(1.0, k)
    # pi(s) = pi_mid - half_dpi tanh(s/tau_s); per unit s, Theta' = S E and
    # g = m q (a2 - a1) sech^2(s/tau_s) / (4 tau_s E^2), sech^2 = 4w / (1 + w)^2
    pi_mid = 0.5 * (modes.pi1 + modes.pi2)
    half_dpi = 0.5 * (modes.pi1 - modes.pi2)
    g0 = m * params.q * (params.a2 - params.a1) / tau_s
    inv_tau = 1.0 / tau_s
    m_sq = m * m
    exp = math.exp
    sqrt = math.sqrt

    def profile(s, h):
        hg0 = h * g0
        hs = h * scale
        hg = []
        hw = []
        for c in _NODES:
            x = (s + c * h) * inv_tau
            # w = e^{-2|x|}: the sech^2 tails underflow instead of cancelling,
            # and tanh|x| = (1 - w)/(1 + w), where 1 - w is exact for w >= 1/2
            w = exp(-2.0 * abs(x))
            opw = 1.0 + w
            th = (1.0 - w) / opw
            piv = pi_mid - half_dpi * th if x >= 0.0 else pi_mid + half_dpi * th
            e_sq = piv * piv + m_sq
            hg.append(hg0 * w / (opw * opw * e_sq))
            hw.append(hs * sqrt(e_sq))
        return hg, hw

    return tau_s, scale, profile


def _step(a, b, ph, hg, hw):
    """One DOP853 step of (a, b, Theta) from the profile hg, hw at its twelve
    stages.  Returns the 8th-order state at s + h followed by the 5th- and
    3rd-order error sums of a, b and Theta, h-scaled like the slopes."""
    hg1, hg2, hg3, hg4, hg5, hg6, hg7, hg8, hg9, hg10, hg11, hg12 = hg
    kp1, kp2, kp3, kp4, kp5, kp6, kp7, kp8, kp9, kp10, kp11, kp12 = hw
    rect = cmath.rect
    g = rect(hg1, 2.0 * ph)
    ka1 = g * b
    kb1 = -g.conjugate() * a
    g = rect(hg2, 2.0 * (ph + kp1 * A21))
    ka2 = g * (b + kb1 * A21)
    kb2 = -g.conjugate() * (a + ka1 * A21)
    g = rect(hg3, 2.0 * (ph + (kp1 * A31 + kp2 * A32)))
    ka3 = g * (b + (kb1 * A31 + kb2 * A32))
    kb3 = -g.conjugate() * (a + (ka1 * A31 + ka2 * A32))
    g = rect(hg4, 2.0 * (ph + (kp1 * A41 + kp3 * A43)))
    ka4 = g * (b + (kb1 * A41 + kb3 * A43))
    kb4 = -g.conjugate() * (a + (ka1 * A41 + ka3 * A43))
    g = rect(hg5, 2.0 * (ph + (kp1 * A51 + kp3 * A53 + kp4 * A54)))
    ka5 = g * (b + (kb1 * A51 + kb3 * A53 + kb4 * A54))
    kb5 = -g.conjugate() * (a + (ka1 * A51 + ka3 * A53 + ka4 * A54))
    g = rect(hg6, 2.0 * (ph + (kp1 * A61 + kp4 * A64 + kp5 * A65)))
    ka6 = g * (b + (kb1 * A61 + kb4 * A64 + kb5 * A65))
    kb6 = -g.conjugate() * (a + (ka1 * A61 + ka4 * A64 + ka5 * A65))
    g = rect(hg7, 2.0 * (ph + (kp1 * A71 + kp4 * A74 + kp5 * A75 + kp6 * A76)))
    ka7 = g * (b + (kb1 * A71 + kb4 * A74 + kb5 * A75 + kb6 * A76))
    kb7 = -g.conjugate() * (a + (ka1 * A71 + ka4 * A74 + ka5 * A75 + ka6 * A76))
    g = rect(hg8, 2.0 * (ph + (kp1 * A81 + kp4 * A84 + kp5 * A85 + kp6 * A86 + kp7 * A87)))
    ka8 = g * (b + (kb1 * A81 + kb4 * A84 + kb5 * A85 + kb6 * A86 + kb7 * A87))
    kb8 = -g.conjugate() * (a + (ka1 * A81 + ka4 * A84 + ka5 * A85 + ka6 * A86 + ka7 * A87))
    g = rect(hg9, 2.0 * (ph + (kp1 * A91 + kp4 * A94 + kp5 * A95 + kp6 * A96 + kp7 * A97
                               + kp8 * A98)))
    ka9 = g * (b + (kb1 * A91 + kb4 * A94 + kb5 * A95 + kb6 * A96 + kb7 * A97 + kb8 * A98))
    kb9 = -g.conjugate() * (a + (ka1 * A91 + ka4 * A94 + ka5 * A95 + ka6 * A96 + ka7 * A97
                                 + ka8 * A98))
    g = rect(hg10, 2.0 * (ph + (kp1 * A101 + kp4 * A104 + kp5 * A105 + kp6 * A106 + kp7 * A107
                                + kp8 * A108 + kp9 * A109)))
    ka10 = g * (b + (kb1 * A101 + kb4 * A104 + kb5 * A105 + kb6 * A106 + kb7 * A107
                     + kb8 * A108 + kb9 * A109))
    kb10 = -g.conjugate() * (a + (ka1 * A101 + ka4 * A104 + ka5 * A105 + ka6 * A106
                                  + ka7 * A107 + ka8 * A108 + ka9 * A109))
    g = rect(hg11, 2.0 * (ph + (kp1 * A111 + kp4 * A114 + kp5 * A115 + kp6 * A116 + kp7 * A117
                                + kp8 * A118 + kp9 * A119 + kp10 * A1110)))
    ka11 = g * (b + (kb1 * A111 + kb4 * A114 + kb5 * A115 + kb6 * A116 + kb7 * A117
                     + kb8 * A118 + kb9 * A119 + kb10 * A1110))
    kb11 = -g.conjugate() * (a + (ka1 * A111 + ka4 * A114 + ka5 * A115 + ka6 * A116
                                  + ka7 * A117 + ka8 * A118 + ka9 * A119 + ka10 * A1110))
    g = rect(hg12, 2.0 * (ph + (kp1 * A121 + kp4 * A124 + kp5 * A125 + kp6 * A126 + kp7 * A127
                                + kp8 * A128 + kp9 * A129 + kp10 * A1210 + kp11 * A1211)))
    ka12 = g * (b + (kb1 * A121 + kb4 * A124 + kb5 * A125 + kb6 * A126 + kb7 * A127
                     + kb8 * A128 + kb9 * A129 + kb10 * A1210 + kb11 * A1211))
    kb12 = -g.conjugate() * (a + (ka1 * A121 + ka4 * A124 + ka5 * A125 + ka6 * A126
                                  + ka7 * A127 + ka8 * A128 + ka9 * A129 + ka10 * A1210
                                  + ka11 * A1211))
    sa = (ka1 * B1 + ka6 * B6 + ka7 * B7 + ka8 * B8 + ka9 * B9 + ka10 * B10 + ka11 * B11
          + ka12 * B12)
    sb = (kb1 * B1 + kb6 * B6 + kb7 * B7 + kb8 * B8 + kb9 * B9 + kb10 * B10 + kb11 * B11
          + kb12 * B12)
    sp = (kp1 * B1 + kp6 * B6 + kp7 * B7 + kp8 * B8 + kp9 * B9 + kp10 * B10 + kp11 * B11
          + kp12 * B12)
    e5a = (ka1 * E5_1 + ka6 * E5_6 + ka7 * E5_7 + ka8 * E5_8 + ka9 * E5_9 + ka10 * E5_10
           + ka11 * E5_11 + ka12 * E5_12)
    e5b = (kb1 * E5_1 + kb6 * E5_6 + kb7 * E5_7 + kb8 * E5_8 + kb9 * E5_9 + kb10 * E5_10
           + kb11 * E5_11 + kb12 * E5_12)
    e5p = (kp1 * E5_1 + kp6 * E5_6 + kp7 * E5_7 + kp8 * E5_8 + kp9 * E5_9 + kp10 * E5_10
           + kp11 * E5_11 + kp12 * E5_12)
    # the 3rd-order error is the 8th-order sum less the 3rd-order one, whose
    # weights are nonzero on stages 1, 9 and 12 only, as dop853.f forms it
    e3a = sa - ka1 * B3_1 - ka9 * B3_9 - ka12 * B3_12
    e3b = sb - kb1 * B3_1 - kb9 * B3_9 - kb12 * B3_12
    e3p = sp - kp1 * B3_1 - kp9 * B3_9 - kp12 * B3_12
    return (a + sa, b + sb, ph + sp, e5a, e5b, e5p, e3a, e3b, e3p)


def integrate(params: StepParameters) -> OracleOutcome:
    """Propagate the incident wave through the step and project the final state.

    Starts from phi = e^{-i E1 (t - t0)}, theta = ((E1 - pi1)/m) * phi at
    t0 - T, T = SPAN_FACTOR tau (a = 1/cos(theta1/2), b = 0 in the eigenmode
    picture) and reports the chiral amplitudes of the forward/backward late
    modes at t0 + T, with the e^{-/+ i E2 (t - t0)} phases stripped; `compare`
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
    s_end = SPAN_FACTOR * tau_s
    s = -s_end
    # incident wave: a = 1/cos(theta1/2), b = 0, dynamical phase -E1 T
    a = 1.0 / math.cos(0.5 * math.atan2(m, modes.pi1)) + 0.0j
    b = 0.0j
    ph = -modes.e1 * (s_end * scale)
    norm0 = (a * a.conjugate()).real
    drift_max = 0.0

    rtol = REL_TOL  # module settings read once per call, not per step
    atol = ABS_TOL
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
        hg, hw = profile(s, h)
        a_new, b_new, ph_new, ea5, eb5, ep5, ea3, eb3, ep3 = _step(a, b, ph, hg, hw)
        sc_a = atol + rtol * max(abs(a), abs(a_new))
        sc_b = atol + rtol * max(abs(b), abs(b_new))
        sc_p = atol + rtol * max(abs(ph), abs(ph_new))
        # DOP853's estimate |e5|^2 / sqrt(|e5|^2 + |e3|^2 / 100), as an rms
        # over the three components; the sums carry h already
        x5a, x5b, x5p = abs(ea5) / sc_a, abs(eb5) / sc_b, ep5 / sc_p
        x3a, x3b, x3p = abs(ea3) / sc_a, abs(eb3) / sc_b, ep3 / sc_p
        err5 = x5a * x5a + x5b * x5b + x5p * x5p
        denom = err5 + 0.01 * (x3a * x3a + x3b * x3b + x3p * x3p)
        # denom = 0: every scaled error is zero or squares to below the
        # double range, so the step's error is below 1e-161
        err = err5 / math.sqrt(3.0 * denom) if denom > 0.0 else 0.0
        steps += 1
        if err <= 1.0:
            s += h
            a, b, ph = a_new, b_new, ph_new
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
