"""Built-in verification battery behind `diracstep selftest`.

The battery covers the special functions, the oscillator-equation residual of
the constructed solution, the closed-form-vs-integrator agreement, the
Heaviside and adiabatic limits, the normalization identities, and the
matched wavefunction's amplitude ratios, phase included, against the
integrator.

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
RESIDUAL_TOL = 1e-7
# the smooth step that must reproduce the Heaviside limit: the O(tau^2)
# physics is ~1e-16 at tau = 1e-8, so SHARP_TOL bounds the arithmetic
# (measured 1.1e-15 over the acceptance grid and 8.9e-16 at the anchor)
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


def check_residual(cases: Sequence[tuple[model.StepParameters, int]], n_points: int):
    """`residual_max` at n_points sample times for each (params, seed)."""
    worst = _worst(residual_max(params, n_points=n_points, seed=seed) for params, seed in cases)
    return worst < RESIDUAL_TOL, (
        f"worst relative residual {worst:.2e} (tol {RESIDUAL_TOL:g}) "
        f"over {len(cases)} parameter sets x {n_points} times"
    )


def residual_max(params: model.StepParameters, n_points: int = 20,
                 seed: int = 7, span: float = 2.0) -> float:
    """Max relative residual |phi'' + Omega^2 phi| / |Omega^2 phi| on sample times.

    phi'' by central differences of the matched solution, which
    `solve_earlier` evaluates in the chart native to each side of t0.
    """
    sol = analytic.match_at_t0(analytic.build_solution(params), params)
    rng = random.Random(seed)
    residuals = []
    for _ in range(n_points):
        t = params.t0 + rng.uniform(-span, span) * params.tau
        omega2 = analytic.governing_frequency(t, params)
        # fourth-order five-point stencil; h balances its h^4 truncation
        # against rounding on the local variation scale
        w_eff = math.sqrt(abs(omega2)) + 2.0 / params.tau
        h = 1e-2 / w_eff
        phi = [analytic.solve_earlier(sol, t + k * h, params).upper
               for k in (-2, -1, 0, 1, 2)]
        second = (-phi[0] + 16 * phi[1] - 30 * phi[2] + 16 * phi[3] - phi[4]) / (12 * h * h)
        residuals.append(abs(second + omega2 * phi[2]) / abs(omega2 * phi[2]))
    return _worst(residuals)


def check_vs_oracle(reports: Sequence[oracle.ComparisonReport]):
    """The closed form against the integrator: every report passed
    oracle.compare's bar."""
    worst = _worst(dev / max(1.0, rep.analytic.f, rep.analytic.b)
                   for rep in reports for dev in rep.deviations.values())
    return all(rep.passed for rep in reports), (
        f"worst deviation {worst:.2e} of max(1, f, b) (tol {oracle.COMPARE_TOL:g}) "
        f"over {len(reports)} points"
    )


def check_amplitude_ratios(cases: Sequence[tuple[model.StepParameters, oracle.OracleOutcome]]):
    """The charts' unitary amplitudes u_f and u_b (`match_at_t0`) against
    the integrator's of each (params, outcome), phase included.  Both
    routes report them in one convention, per unit incident eigenmode, so
    |u| <= 1 and the deviation is absolute."""
    devs = []
    for params, out in cases:
        sol = analytic.match_at_t0(analytic.build_solution(params), params)
        devs += [abs(sol.u_f - out.u_f), abs(sol.u_b - out.u_b)]
    worst = _worst(devs)
    return worst < oracle.COMPARE_TOL, (
        f"worst |u| deviation {worst:.2e} between the charts and the integrator "
        f"(tol {oracle.COMPARE_TOL:g}) over {len(cases)} points"
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


def _oracle_reports() -> list[oracle.ComparisonReport]:
    points = [
        dict(ANCHOR, tau=0.1),
        dict(ANCHOR, tau=0.3),
        dict(ANCHOR, tau=1.0),
        dict(m=1.0, q=1.0, p=0.5, a1=0.0, a2=2.0, tau=0.05),
        dict(m=1.0, q=1.0, p=2.5, a1=0.0, a2=-1.0, tau=0.5),
        dict(m=1.0, q=1.0, p=1.0, a1=0.0, a2=5.0, tau=0.3),
    ]
    return [oracle.compare(model.StepParameters(**kw)) for kw in points]


def _ratio_cases() -> list[tuple[model.StepParameters, oracle.OracleOutcome]]:
    # asymmetric kinematics, so that E1 != E2, and a point off the anchor's
    # symmetries: signed q, m != 1, a1 != 0, t0 != 0
    points = [model.StepParameters(m=1.0, q=1.0, p=math.sqrt(3.0), a1=0.0, a2=1.0, tau=0.4),
              model.StepParameters(m=0.8, q=-1.3, p=0.9, a1=0.4, a2=-1.6, t0=1.5, tau=0.6)]
    return [(params, oracle.integrate(params)) for params in points]


def _residual_cases() -> list[tuple[model.StepParameters, int]]:
    return [(model.StepParameters(m=1, q=1, p=p, a1=0.0, a2=a2, tau=tau), 7)
            for p, a2, tau in ((math.sqrt(3.0), 2 * math.sqrt(3.0), 0.3), (1.4, -2.0, 0.8))]


# each entry builds its points when run, so importing the module costs nothing
_CHECKS = [
    ("special-function reference values",
     lambda: check_specfun_values([(0.3, 1.1), (2.5, -1.5), (7.0, 6.0)])),
    ("log-gamma moduli on Re z = 0 and 1",
     lambda: check_gamma_moduli([10 ** (k / 40) for k in range(-120, 105, 8)])),
    ("oscillator-equation residual", lambda: check_residual(_residual_cases(), n_points=8)),
    ("closed form vs integrator", lambda: check_vs_oracle(_oracle_reports())),
    ("sharp-step limit", lambda: check_sharp_limit([ANCHOR])),
    ("adiabatic suppression", lambda: check_adiabatic((2.0, 4.0, 7.0, 10.0))),
    ("normalization identities", lambda: check_normalization(normalization_points(515, 60))),
    ("amplitude ratios vs integrator", lambda: check_amplitude_ratios(_ratio_cases())),
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
