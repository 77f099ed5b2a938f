"""Brute-force cross-check: direct time integration of the two-component system.

Integrates i phi' = pi(t) phi + m theta, i theta' = -pi(t) theta + m phi with
an embedded Dormand-Prince 5(4) pair under PI step-size control, launched from
the exact incident plane wave well before the transition, and projects the
final state onto the exact late-time eigenmodes.  Shares nothing with the
hypergeometric path except the governing equations.

|phi|^2 + |theta|^2 is conserved exactly by the flow (the generator
pi*sigma3 + m*sigma1 is Hermitian), so the accumulated drift of the norm is a
direct measure of integration error and is enforced, never silently ignored.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

from .analytic import ScatteringResult, result_from_mode_amplitudes, scatter
from .model import (
    Basis,
    StepParameters,
    TwoSpinor,
    asymptotic_modes,
    dirac_upper,
    potential_at,
)

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
        # ~1e-10 measured worst drift at the default tolerances; scale up
        # proportionally when the user loosens rel_tol
        return max(1e-9, 100.0 * self.rel_tol)


@dataclass(frozen=True)
class OracleOutcome:
    final_spinor: TwoSpinor
    g_f_num: complex
    g_b_num: complex
    f_num: float
    b_num: float
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
    t0 - T and reports the chiral and standard-basis amplitudes of the
    forward/backward late modes at t0 + T, with the e^{-/+ i E2 (t - t0)}
    phases stripped.
    """
    cfg = cfg or IntegrationConfig()
    m = params.m
    q = params.q
    p = params.p
    modes = asymptotic_modes(params)
    T = _span(params, cfg)
    # integrate in u = t - t0; the profile depends on t only through u
    u_end = T
    u = -T
    phase0 = cmath.exp(-1j * modes.e1 * u)
    phi = phase0
    theta = (modes.e1 - modes.pi1) / m * phase0
    norm0 = (phi * phi.conjugate() + theta * theta.conjugate()).real
    drift_max = 0.0

    a1 = params.a1
    half_rise = 0.5 * (params.a2 - params.a1)
    inv_tau = 1.0 / params.tau

    def rhs(uu: float, ph: complex, th: complex) -> tuple[complex, complex]:
        piv = p - q * (a1 + half_rise * (1.0 + math.tanh(uu * inv_tau)))
        return (-1j * (piv * ph + m * th), -1j * (m * ph - piv * th))

    rtol = cfg.rel_tol
    atol = cfg.abs_tol
    h_max = 2.0 * T / 16.0
    h = min(h_max, params.tau / 4.0, 0.1 / max(modes.e1, modes.e2))
    k1 = rhs(u, phi, theta)
    err_prev = 1.0
    steps = 0
    nk = len(_C)
    # a remaining sliver below rounding scale contributes nothing but could
    # drive the step size into the underflow guard
    span_eps = 16.0 * sys.float_info.epsilon * T
    while u_end - u > span_eps:
        if steps >= cfg.max_steps:
            raise StepLimitError(f"step cap {cfg.max_steps} exceeded at t - t0 = {u:.6g}")
        if u + h > u_end:
            h = u_end - u
        # stages
        kp = [k1[0]] * nk
        kt = [k1[1]] * nk
        for i in range(1, nk):
            ai = _A[i]
            sp = 0.0 + 0.0j
            st = 0.0 + 0.0j
            for j in range(i):
                aij = ai[j]
                if aij != 0.0:
                    sp += aij * kp[j]
                    st += aij * kt[j]
            kp[i], kt[i] = rhs(u + _C[i] * h, phi + h * sp, theta + h * st)
        phi_new = phi + h * (
            _B5[0] * kp[0] + _B5[2] * kp[2] + _B5[3] * kp[3] + _B5[4] * kp[4] + _B5[5] * kp[5]
        )
        theta_new = theta + h * (
            _B5[0] * kt[0] + _B5[2] * kt[2] + _B5[3] * kt[3] + _B5[4] * kt[4] + _B5[5] * kt[5]
        )
        err_p = h * (
            _E[0] * kp[0] + _E[2] * kp[2] + _E[3] * kp[3] + _E[4] * kp[4]
            + _E[5] * kp[5] + _E[6] * kp[6]
        )
        err_t = h * (
            _E[0] * kt[0] + _E[2] * kt[2] + _E[3] * kt[3] + _E[4] * kt[4]
            + _E[5] * kt[5] + _E[6] * kt[6]
        )
        sc_p = atol + rtol * max(abs(phi), abs(phi_new))
        sc_t = atol + rtol * max(abs(theta), abs(theta_new))
        err = math.sqrt(0.5 * ((abs(err_p) / sc_p) ** 2 + (abs(err_t) / sc_t) ** 2))
        steps += 1
        if err <= 1.0:
            u += h
            phi, theta = phi_new, theta_new
            k1 = (kp[6], kt[6])  # FSAL
            norm = (phi * phi.conjugate() + theta * theta.conjugate()).real
            drift = abs(norm - norm0) / norm0
            if drift > drift_max:
                drift_max = drift
            factor = _SAFETY * (err ** -_PI_ALPHA if err > 0 else _MAX_FACTOR) * err_prev ** _PI_BETA
            err_prev = max(err, 1e-4)
        else:
            factor = max(_MIN_FACTOR, _SAFETY * err ** -_PI_ALPHA)
        h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        h = min(h, h_max)
        if h <= 1e-14 * T:
            raise StepLimitError(f"step size underflow at t - t0 = {u:.6g}")

    if drift_max > cfg.drift_limit:
        raise NormDriftError(
            f"norm drift {drift_max:.3e} exceeds limit {cfg.drift_limit:.3e}"
        )

    # exact late-time eigenmode decomposition (chiral basis):
    # u+ = (1, (E2 - pi2)/m), u- = (1, -(E2 + pi2)/m)
    r_p = (modes.e2 - modes.pi2) / m
    r_m = -(modes.e2 + modes.pi2) / m
    det = r_m - r_p
    cf = (phi * r_m - theta) / det
    cb = (theta - phi * r_p) / det
    gf_w = cf * cmath.exp(1j * modes.e2 * u)
    gb_w = cb * cmath.exp(-1j * modes.e2 * u)
    gi_w = 1.0 + 0.0j  # incident chiral amplitude fixed by the initial state
    g_f = gf_w * dirac_upper(modes.pi2, m, True)
    g_b = gb_w * dirac_upper(modes.pi2, m, False)
    g_i = gi_w * dirac_upper(modes.pi1, m, True)
    return OracleOutcome(
        final_spinor=TwoSpinor(upper=phi, lower=theta, basis=Basis.WEYL),
        g_f_num=g_f,
        g_b_num=g_b,
        f_num=abs(g_f / g_i),
        b_num=abs(g_b / g_i),
        norm_drift=drift_max,
        g_f_weyl=gf_w,
        g_b_weyl=gb_w,
        steps=steps,
    )


def compare(params: StepParameters, cfg: IntegrationConfig | None = None,
            tolerance: float = 1e-6) -> ComparisonReport:
    """Run the closed form and the integrator on identical inputs and diff them.

    Deviations of f and b are measured against tolerance * max(1, f, b); the
    probability pairs are reported alongside for inspection.
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
