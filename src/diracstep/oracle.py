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
not the width of the window.  An embedded Dormand-Prince 5(4) pair under PI
step-size control runs from the exact incident plane wave (a = 1/cos(theta1/2),
b = 0) well before the transition; at the end the instantaneous eigenmodes
are the exact late-time ones, so the forward and backward amplitudes are read
off (a, b, Theta) directly.  Shares nothing with the hypergeometric path
except the governing equations.

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
from .model import Basis, StepParameters, TwoSpinor, asymptotic_modes

__all__ = [
    "OracleError",
    "StepLimitError",
    "NormDriftError",
    "IntegrationConfig",
    "OracleOutcome",
    "ComparisonReport",
    "integrate",
    "compare",
]


class OracleError(RuntimeError):
    """Integration failed in a way that must not be silently passed."""


class StepLimitError(OracleError):
    """Step cap exceeded (or step size underflowed) before reaching the end time."""


class NormDriftError(OracleError):
    """Norm conservation violated beyond the configured drift limit."""


@dataclass(frozen=True)
class IntegrationConfig:
    """Controls for the time integration.

    span_factor N sets the window t0 +- N*tau (stretched to 10/E1 for very
    small tau so the incident wave is well developed); N >= 12 keeps the tanh
    tail residual below ~4e-11.
    """

    span_factor: float = 20.0
    rel_tol: float = 3e-12
    abs_tol: float = 3e-14
    max_steps: int = 2_000_000

    def __post_init__(self):
        if self.span_factor < 12:
            raise ValueError("span_factor must be >= 12")
        for name in ("rel_tol", "abs_tol"):
            v = getattr(self, name)
            if not 0 < v <= 1e-3:
                raise ValueError(f"{name} must lie in (0, 1e-3], got {v!r}")
        if self.max_steps < 1000:
            raise ValueError("max_steps unrealistically small")

    @property
    def drift_limit(self) -> float:
        # ~4e-13 measured worst drift at the default tolerances (acceptance
        # grid for tau 1e-12..30, and random points with signed q, m != 1,
        # a1 != 0, t0 != 0); scale up proportionally when the user loosens
        # rel_tol
        return max(1e-9, 100.0 * self.rel_tol)


@dataclass(frozen=True)
class OracleOutcome:
    final_spinor: TwoSpinor
    norm_drift: float
    g_f_weyl: complex
    g_b_weyl: complex
    steps: int


@dataclass(frozen=True)
class ComparisonReport:
    analytic: ScatteringResult
    numeric: ScatteringResult
    outcome: OracleOutcome
    deviations: dict[str, float]
    tolerance: float
    passed: bool


# Dormand-Prince 5(4) tableau
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
# b5 - b4: local truncation error weights of the embedded 4th-order solution
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0


def _span(params: StepParameters, cfg: IntegrationConfig) -> float:
    modes = asymptotic_modes(params)
    return max(cfg.span_factor * params.tau, 10.0 / modes.e1)


def integrate(params: StepParameters, cfg: IntegrationConfig | None = None) -> OracleOutcome:
    """Propagate the incident wave through the step and project the final state.

    Starts from phi = e^{-i E1 (t - t0)}, theta = ((E1 - pi1)/m) * phi at
    t0 - T (a = 1/cos(theta1/2), b = 0 in the eigenmode picture) and reports
    the chiral amplitudes of the forward/backward late modes at t0 + T, with
    the e^{-/+ i E2 (t - t0)} phases stripped; `compare` turns them into f, b
    and the probabilities.
    """
    cfg = cfg or IntegrationConfig()
    m = params.m
    modes = asymptotic_modes(params)
    T = _span(params, cfg)
    # integrate in u = t - t0; the profile depends on t only through u
    u_end = T
    u = -T
    # incident wave: a = 1/cos(theta1/2), b = 0, dynamical phase -E1*T
    a = 1.0 / math.cos(0.5 * math.atan2(m, modes.pi1)) + 0.0j
    b = 0.0j
    ph = -modes.e1 * T
    norm0 = (a * a.conjugate()).real
    drift_max = 0.0

    # pi(u) = pi_mid - half_dpi * tanh(u/tau);
    # g = m q (a2 - a1) sech^2(u/tau) / (4 tau E^2), sech^2 = 4w / (1 + w)^2
    pi_mid = 0.5 * (modes.pi1 + modes.pi2)
    half_dpi = 0.5 * (modes.pi1 - modes.pi2)
    g0 = m * params.q * (params.a2 - params.a1) / params.tau
    inv_tau = 1.0 / params.tau
    m_sq = m * m

    def rhs(uu: float, aa: complex, bb: complex, pp: float) -> tuple[complex, complex, float]:
        s = uu * inv_tau
        # w = e^{-2|s|}: the sech^2 tails underflow instead of cancelling
        w = math.exp(-2.0 * abs(s))
        piv = pi_mid - half_dpi * math.tanh(s)
        e_sq = piv * piv + m_sq
        gr = g0 * w / ((1.0 + w) ** 2 * e_sq) * cmath.exp(2j * pp)
        return (gr * bb, -gr.conjugate() * aa, math.sqrt(e_sq))

    rtol = cfg.rel_tol
    atol = cfg.abs_tol
    h_max = 2.0 * T / 16.0
    h = min(h_max, params.tau / 4.0, 0.1 / max(modes.e1, modes.e2))
    # the transition needs steps of order tau, far below T when tau << 1/E1
    h_min = 1e-14 * min(T, params.tau)
    k1 = rhs(u, a, b, ph)
    err_prev = 1.0
    steps = 0
    nk = len(_C)
    # a remaining sliver below rounding scale contributes nothing but could
    # drive the step size into the underflow guard
    span_eps = 16.0 * sys.float_info.epsilon * T
    while u_end - u > span_eps:
        if steps >= cfg.max_steps:
            raise StepLimitError(f"step cap {cfg.max_steps} exceeded at t - t0 = {u:.6g}")
        # land on the sech^2 peak at u = 0 so no step can jump the transition
        target = 0.0 if u < 0.0 else u_end
        if u + h > target:
            h = target - u
        # stages
        ka = [k1[0]] * nk
        kb = [k1[1]] * nk
        kp = [k1[2]] * nk
        for i in range(1, nk):
            ai = _A[i]
            sa = 0.0j
            sb = 0.0j
            sp = 0.0
            for j in range(i):
                aij = ai[j]
                if aij != 0.0:
                    sa += aij * ka[j]
                    sb += aij * kb[j]
                    sp += aij * kp[j]
            ka[i], kb[i], kp[i] = rhs(u + _C[i] * h, a + h * sa, b + h * sb, ph + h * sp)
        a_new = a + h * (
            _B5[0] * ka[0] + _B5[2] * ka[2] + _B5[3] * ka[3] + _B5[4] * ka[4] + _B5[5] * ka[5]
        )
        b_new = b + h * (
            _B5[0] * kb[0] + _B5[2] * kb[2] + _B5[3] * kb[3] + _B5[4] * kb[4] + _B5[5] * kb[5]
        )
        ph_new = ph + h * (
            _B5[0] * kp[0] + _B5[2] * kp[2] + _B5[3] * kp[3] + _B5[4] * kp[4] + _B5[5] * kp[5]
        )
        err_a = h * (
            _E[0] * ka[0] + _E[2] * ka[2] + _E[3] * ka[3] + _E[4] * ka[4]
            + _E[5] * ka[5] + _E[6] * ka[6]
        )
        err_b = h * (
            _E[0] * kb[0] + _E[2] * kb[2] + _E[3] * kb[3] + _E[4] * kb[4]
            + _E[5] * kb[5] + _E[6] * kb[6]
        )
        err_p = h * (
            _E[0] * kp[0] + _E[2] * kp[2] + _E[3] * kp[3] + _E[4] * kp[4]
            + _E[5] * kp[5] + _E[6] * kp[6]
        )
        sc_a = atol + rtol * max(abs(a), abs(a_new))
        sc_b = atol + rtol * max(abs(b), abs(b_new))
        sc_p = atol + rtol * max(abs(ph), abs(ph_new))
        err = math.sqrt(
            ((abs(err_a) / sc_a) ** 2 + (abs(err_b) / sc_b) ** 2 + (err_p / sc_p) ** 2) / 3.0
        )
        steps += 1
        if err <= 1.0:
            u += h
            a, b, ph = a_new, b_new, ph_new
            k1 = (ka[6], kb[6], kp[6])  # FSAL
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
            raise StepLimitError(f"step size underflow at t - t0 = {u:.6g}")

    if drift_max > cfg.drift_limit:
        raise NormDriftError(
            f"norm drift {drift_max:.3e} exceeds limit {cfg.drift_limit:.3e}"
        )

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
        final_spinor=TwoSpinor(upper=cf + cb, lower=pos * s2 + neg * c2, basis=Basis.WEYL),
        norm_drift=drift_max,
        g_f_weyl=cf * cmath.exp(1j * modes.e2 * u),
        g_b_weyl=cb * cmath.exp(-1j * modes.e2 * u),
        steps=steps,
    )


def compare(params: StepParameters, cfg: IntegrationConfig | None = None,
            tolerance: float = 1e-6) -> ComparisonReport:
    """Run the closed form and the integrator on identical inputs and diff them.

    Deviations of f and b are measured against tolerance * max(1, f, b); the
    probability pairs are reported alongside for inspection.  `passed` is
    therefore an absolute check on f and b: it does not vouch for the
    relative accuracy of a tiny B_u.  The integrator resolves B_u only to
    about 1e-24 absolute; at tau = 10, p = 4, a2 = 1 (m = q = 1) it gives
    1.6e-24 where the exact value is 1.2e-86, and the report still passes.
    """
    cfg = cfg or IntegrationConfig()
    ana = scatter(params)
    out = integrate(params, cfg)
    num = result_from_mode_amplitudes(
        1.0 + 0.0j, out.g_f_weyl, out.g_b_weyl, params.m, asymptotic_modes(params)
    )
    deviations = {
        "f": abs(ana.f - num.f),
        "b": abs(ana.b - num.b),
        "F": abs(ana.F - num.F),
        "B": abs(ana.B - num.B),
        "F_u": abs(ana.F_u - num.F_u),
        "B_u": abs(ana.B_u - num.B_u),
    }
    bar = tolerance * max(1.0, ana.f, ana.b)
    passed = deviations["f"] < bar and deviations["b"] < bar
    return ComparisonReport(
        analytic=ana,
        numeric=num,
        outcome=out,
        deviations=deviations,
        tolerance=tolerance,
        passed=passed,
    )
