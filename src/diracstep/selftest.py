"""Built-in verification battery behind `diracstep selftest`.

The battery's seven checks cover the special functions (two checks), the
matched wavefunction's own identities (continuity at t0, its constant norm
and its plane-wave limits), the closed form against the integrator (the
moduli f, b and F_u against `scatter`, and the amplitudes u_f and u_b,
phase included, against the charts, on each point at once), the Heaviside
and adiabatic limits, and the normalization identities.  The wavefunction
identities, the integrator check and the sharp-step limit read one list of
nine points.

Each check returns (passed, detail) and compares strictly against a tolerance
held as a module constant, so a tolerance of 0 fails it; the two bars on the
probabilities are `analytic`'s, which the command line's guard reads too, so
that `diracstep scatter` and `sweep` need not import this module.  The `check_*`
functions take the points they check: `run_all` passes small point sets, and
the acceptance suite (tests/test_acceptance.py) calls the same functions on
its own larger ones, so both apply one set of checks and tolerances.
"""

from __future__ import annotations

import cmath
import math
import random
import time
from collections.abc import Sequence

from . import analytic, model, oracle, specfun

ANCHOR = dict(m=1.0, q=1.0, p=math.sqrt(3.0), a1=0.0, a2=2.0 * math.sqrt(3.0))

SPECFUN_TOL = 1e-10
# on the matched solution's identities, relative to its norm, which read
# rounding and |zeta| = e^(-36) at the plane-wave times: 1.4e-15 on the
# battery's nine points, 1.4e-14 on acceptance criterion 8's
WAVEFUNCTION_TOL = 1e-12
# the smooth step that must reproduce the Heaviside limit: the O(tau^2)
# physics is ~1e-16 at tau = 1e-8, so SHARP_TOL bounds the arithmetic
# (measured 1.1e-15 over the acceptance grid, 9.4e-16 over the battery's
# six kinematics and 8.9e-16 at the anchor)
SHARP_TOL = 1e-13
SHARP_TAU = 1e-8
ADIABATIC_TOL = 1e-6  # on B_u at the slowest step


class CheckResult(model.FrozenRecord):
    fields = ("name", "passed", "detail", "seconds")

    def __init__(self, name: str, passed: bool, detail: str, seconds: float):
        self.__dict__.update(name=name, passed=passed, detail=detail, seconds=seconds)


def _worst(deviations) -> float:
    """The largest deviation, or NaN if any is NaN.

    max() keeps a NaN only in first place, and a skipped NaN would pass the
    strict comparison with the tolerance.
    """
    devs = list(deviations)
    return math.nan if any(math.isnan(d) for d in devs) else max(devs, default=0.0)


def check_specfun_values(pairs: Sequence[tuple[float, float]]):
    """Reference values of log_gamma and hyp2f1, and Kummer's theorem
    F(a, b; 1+a-b; -1) = G(1+a-b) G(1+a/2)/(G(1+a) G(1+a/2-b)) (DLMF 15.4.26)
    at a = i y1, b = -i y2 for each (y1, y2), relative to the Gamma side.
    Every Gamma argument lies on Re z = 1, the line `match_at_t0` takes
    log G on, so hyp2f1 and log_gamma are each checked by the other."""
    devs = [
        abs(cmath.exp(specfun.log_gamma(1.0)) - 1.0),
        abs(cmath.exp(specfun.log_gamma(0.5)) - math.sqrt(math.pi)),
        abs(cmath.exp(specfun.log_gamma(4.0)) - 6.0),
        abs(specfun.hyp2f1(1, 1, 2, -1.0) - math.log(2.0)),
        abs(specfun.hyp2f1(0.5, 1, 1.5, -1.0) - math.pi / 4.0),  # arctan(1)/1
    ]
    lg = specfun.log_gamma
    for y1, y2 in pairs:
        a, b = 1j * y1, -1j * y2
        kummer = cmath.exp(lg(1 + a - b) + lg(1 + a / 2) - lg(1 + a) - lg(1 + a / 2 - b))
        devs.append(abs(specfun.hyp2f1(a, b, 1 + a - b, -1.0) - kummer) / abs(kummer))
    worst = _worst(devs)
    return worst < SPECFUN_TOL, f"worst deviation {worst:.2e} (tol {SPECFUN_TOL:g})"


def check_gamma_moduli(ys: Sequence[float]):
    """|G(iy)|^2 = pi/(y sinh pi y) and |G(1 + iy)|^2 = pi y/sinh pi y
    (DLMF 5.4.3, 5.4.4) at each y > 0, in log form: absolute in 2 Re ln G,
    so relative in |G|^2.  No route reads Re ln G (`match_at_t0` takes the
    moduli from sinh products and only Im ln G, on Re z = 1); this checks
    log_gamma's real part against closed forms on Re z = 0 and 1."""
    devs = []
    ln_pi = math.log(math.pi)
    for y in ys:
        # ln sinh x = x + ln(1 - e^(-2x)) - ln 2 at x = pi y, which neither
        # overflows nor cancels
        x = math.pi * y
        ln_sinh = x + math.log(-math.expm1(-2.0 * x)) - math.log(2.0)
        ln_y = math.log(y)
        devs += [abs(2.0 * specfun.log_gamma(1j * y).real - (ln_pi - ln_y - ln_sinh)),
                 abs(2.0 * specfun.log_gamma(1.0 + 1j * y).real - (ln_pi + ln_y - ln_sinh))]
    worst = _worst(devs)
    return worst < SPECFUN_TOL, (
        f"worst deviation of 2 Re ln G from DLMF 5.4.3/5.4.4 {worst:.2e} "
        f"over {len(ys)} y on Re z = 0 and 1 (tol {SPECFUN_TOL:g})"
    )


def check_wavefunction(points: Sequence[model.StepParameters]):
    """Three identities of each point's matched solution
    (`analytic.solve_earlier`), each relative to its norm N = e^(log_norm):
    continuity, the earlier chart at t0 equal to the later chart one double
    after t0; the norm, |psi(t)| = N at nine times over t0 -+ 2 tau; and the
    plane waves at u = t - t0 = -+18 tau, where |zeta| = e^(-36): the
    incident N e^(-i E1 u) (cos theta1/2, sin theta1/2) before t0, and
    N (u_f e^(-i E2 u) (cos theta2/2, sin theta2/2)
    + u_b e^(+i E2 u) (sin theta2/2, -cos theta2/2)) after it.  Any mix of
    the later waves solves the equations, so only continuity ties u_f and
    u_b, phases included, to the incident branch.  The plane-wave phase
    E 18 tau carries ~ulp(18 tau E) of rounding, 2.8e-14 at tau E = 10."""
    continuity, norm, plane = [], [], []
    for params in points:
        sol = analytic.match_at_t0(analytic.build_solution(params), params)
        n, t0, tau = math.exp(sol.log_norm), params.t0, params.tau

        def off(t, upper, lower):
            psi = analytic.solve_earlier(sol, t, params)
            return math.hypot(abs(psi.upper - upper), abs(psi.lower - lower)) / n

        at_t0 = analytic.solve_earlier(sol, t0, params)
        continuity.append(off(math.nextafter(t0, math.inf), at_t0.upper, at_t0.lower))
        norm += [abs(off(t0 + k * (0.5 * tau), 0.0, 0.0) - 1.0) for k in range(-4, 5)]
        c1, s1 = math.exp(sol.earlier.log_cos), math.exp(sol.earlier.log_sin)
        c2, s2 = math.exp(sol.later.log_cos), math.exp(sol.later.log_sin)
        t = t0 - 18.0 * tau
        w = n * cmath.exp(-1j * sol.modes.e1 * (t - t0))
        plane.append(off(t, w * c1, w * s1))
        t = t0 + 18.0 * tau
        w = cmath.exp(-1j * sol.modes.e2 * (t - t0))
        f, b = n * sol.u_f * w, n * sol.u_b * w.conjugate()
        plane.append(off(t, f * c2 + b * s2, f * s2 - b * c2))
    parts = [_worst(d) for d in (continuity, norm, plane)]
    worst = _worst(parts)
    return worst < WAVEFUNCTION_TOL, (
        f"worst deviation {worst:.2e} of N (continuity {parts[0]:.2e}, norm {parts[1]:.2e}, "
        f"plane waves {parts[2]:.2e}; tol {WAVEFUNCTION_TOL:g}) over {len(points)} points"
    )


def check_vs_oracle(cases: Sequence[tuple[model.StepParameters, oracle.ComparisonReport]]):
    """The closed form against the integrator on each (params, report),
    moduli and phases together: the report passed oracle.compare's bar on
    f, b and F_u against `scatter`, and the charts' unitary amplitudes u_f
    and u_b (`match_at_t0`) are within COMPARE_TOL of the integrator's,
    phase included.  Both routes report the amplitudes per unit incident
    eigenmode, so |u| <= 1 and their deviation is absolute."""
    moduli, amplitudes = [], []
    for params, rep in cases:
        sol = analytic.match_at_t0(analytic.build_solution(params), params)
        scale = max(1.0, rep.analytic.f, rep.analytic.b)
        moduli += [dev / scale for dev in rep.deviations.values()]
        amplitudes += [abs(sol.u_f - rep.outcome.u_f), abs(sol.u_b - rep.outcome.u_b)]
    worst_moduli, worst_amplitudes = _worst(moduli), _worst(amplitudes)
    ok = all(rep.passed for _, rep in cases) and worst_amplitudes < oracle.COMPARE_TOL
    return ok, (
        f"worst modulus deviation {worst_moduli:.2e} of max(1, f, b), worst |u| deviation "
        f"{worst_amplitudes:.2e} from the charts (tol {oracle.COMPARE_TOL:g}) "
        f"over {len(cases)} points"
    )


def check_sharp_limit(kinematics: Sequence[dict]):
    """Scatter at tau = SHARP_TAU against the Heaviside closed form for each
    (m, q, p, a1, a2), and both at ANCHOR against its exact
    (F, B, F_u, B_u) = (1/2, 1/2, 1/4, 3/4)."""
    devs = []
    for kw in kinematics:
        soft = analytic.scatter(model.StepParameters(tau=SHARP_TAU, **kw))
        hard = analytic.sharp_step(**kw)
        devs += [abs(soft.F - hard.F), abs(soft.B - hard.B)]
    worst = _worst(devs)
    anchor_dev = _worst(
        abs(v - want)
        for res in (analytic.scatter(model.StepParameters(tau=SHARP_TAU, **ANCHOR)),
                    analytic.sharp_step(**ANCHOR))
        for v, want in ((res.F, 0.5), (res.B, 0.5), (res.F_u, 0.25), (res.B_u, 0.75))
    )
    ok = worst < SHARP_TOL and anchor_dev < SHARP_TOL
    return ok, (
        f"max |F, B - sharp| {worst:.2e} over {len(kinematics)} kinematics, "
        f"anchor (1/2,1/2,1/4,3/4) deviation {anchor_dev:.2e} (tol {SHARP_TOL:g})"
    )


def check_adiabatic(taus: Sequence[float]):
    """B_u at ANCHOR falls strictly over increasing taus, below ADIABATIC_TOL at the last."""
    values = [analytic.scatter(model.StepParameters(tau=t, **ANCHOR)).B_u for t in taus]
    decreasing = all(b < a for a, b in zip(values, values[1:]))
    ok = decreasing and values[-1] < ADIABATIC_TOL
    return ok, (
        f"B_u over tau {tuple(taus)}: {['%.3e' % v for v in values]} "
        f"(strictly decreasing: {decreasing}; tol {ADIABATIC_TOL:g} on the last)"
    )


def normalization_points(seed: int, n: int) -> list[model.StepParameters]:
    """n random steps: p, a2 uniform in [-5, 5], tau log-uniform in [1e-4, 10]."""
    rng = random.Random(seed)
    return [
        model.StepParameters(
            m=1.0,
            q=1.0,
            p=rng.uniform(-5, 5),
            a1=0.0,
            a2=rng.uniform(-5, 5),
            tau=math.exp(rng.uniform(math.log(1e-4), math.log(10.0))),
        )
        for _ in range(n)
    ]


def check_normalization(points: Sequence[model.StepParameters]):
    """F + B = 1 (an identity) and F_u + B_u = 1 (norm conservation)."""
    results = [analytic.scatter(params) for params in points]
    worst_fb = _worst(abs(res.F + res.B - 1.0) for res in results)
    worst_u = _worst(abs(res.F_u + res.B_u - 1.0) for res in results)
    # the command line's guard reads the same two bars
    fb_tol = analytic.PROBABILITY_SUM_TOL
    u_tol = analytic.UNITARITY_TOL
    ok = worst_fb < fb_tol and worst_u < u_tol
    return ok, (
        f"|F+B-1| {worst_fb:.2e} (tol {fb_tol:g}), "
        f"|F_u+B_u-1| {worst_u:.2e} (tol {u_tol:g}) over {len(points)} points"
    )


# the anchor (E1 = E2) at four widths, four kinematics with E1 != E2, and
# a point off the anchor's symmetries: signed q, m != 1, a1 != 0, t0 != 0;
# the anchor at tau = 3 (tau E = 6) is the one the integrator runs in the
# eigenmode picture, the others tau E <= 2 in the diabatic one
_POINTS = [model.StepParameters(**kw) for kw in (
    dict(ANCHOR, tau=0.1),
    dict(ANCHOR, tau=0.3),
    dict(ANCHOR, tau=1.0),
    dict(ANCHOR, tau=3.0),
    dict(m=1.0, q=1.0, p=0.5, a1=0.0, a2=2.0, tau=0.05),
    dict(m=1.0, q=1.0, p=2.5, a1=0.0, a2=-1.0, tau=0.5),
    dict(m=1.0, q=1.0, p=1.0, a1=0.0, a2=5.0, tau=0.3),
    dict(m=1.0, q=1.0, p=math.sqrt(3.0), a1=0.0, a2=1.0, tau=0.4),
    dict(m=0.8, q=-1.3, p=0.9, a1=0.4, a2=-1.6, t0=1.5, tau=0.6),
)]


def _sharp_kinematics() -> list[dict]:
    """The distinct (m, q, p, a1, a2) of the battery's points, the anchor first."""
    kinematics = [{k: getattr(params, k) for k in ANCHOR} for params in _POINTS]
    return [kw for i, kw in enumerate(kinematics) if kw not in kinematics[:i]]


# each entry computes when run, so importing the module costs nothing
_CHECKS = [
    ("special-function reference values",
     lambda: check_specfun_values([(0.3, 1.1), (2.5, -1.5), (7.0, 6.0)])),
    ("log-gamma moduli on Re z = 0 and 1",
     lambda: check_gamma_moduli([10 ** (k / 40) for k in range(-120, 105, 8)])),
    ("matched wavefunction identities", lambda: check_wavefunction(_POINTS)),
    ("closed form vs integrator",
     lambda: check_vs_oracle([(params, oracle.compare(params)) for params in _POINTS])),
    ("sharp-step limit", lambda: check_sharp_limit(_sharp_kinematics())),
    ("adiabatic suppression", lambda: check_adiabatic((2.0, 4.0, 7.0, 10.0))),
    ("normalization identities", lambda: check_normalization(normalization_points(515, 60))),
]


def run_all() -> list[CheckResult]:
    results = []
    for name, fn in _CHECKS:
        start = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, bool(ok), detail, time.perf_counter() - start))
    return results
