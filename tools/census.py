"""Accuracy census: fixed-seed routes through diracstep, one JSON object.

    python tools/census.py

Route `oracle`: `oracle.compare` on the 384 inputs of the benchmark's
`oracle-validation` workload at seeds 1-3, taken from
benchmarks/workloads.py, which this tool imports and never edits.  It
prints the number of inputs, how many the integrator took in its
diabatic and its eigenmode picture, how many passed and how many it
refused (an `OracleError`), the worst deviation of f, b and F_u in units
of max(1, f, b) (the unit of `oracle.COMPARE_TOL`), the worst |u_f| or
|u_b| deviation, phase included, between the integrator's `OracleOutcome`
and the charts' (`match_at_t0`), absolute as |u| <= 1, the total and median
attempted steps, the most in the unit of `oracle.STEP_BUDGET`,
steps / (1 + tau max(E1, E2)), the most terms one tail's series took in
either picture (`oracle._tail` or `oracle._diabatic_tail`, the unit of
`oracle._TAIL_TERMS`), and the largest norm drift.  A refused input counts
in neither the pictures, the deviations, the steps, the terms nor the
drift.  `outcomes_sha256` is the
SHA-256 of the inputs' `OracleOutcome` reprs (a refusal's exception repr),
one a line in input order, so that an integrator that moves by one bit on
one input shows.

Route `oracle_range`: `oracle.compare` on ORACLE_RANGE_DRAWS draws from
seed ORACLE_RANGE_SEED over the double range: m, |p|, |a1| and |a2|
log-uniform in 1e-300..1e300 with random signs, |q| log-uniform in
1e-3..1e3, and tau set so that tau max(E1, E2) is log-uniform in
1e-3..10.  It prints how many passed and failed `compare`, and the
refusals (an `OracleError`) counted by cause: the exception's class and
message, each number in it replaced by #.

Route `chart`: the wavefunction API (`build_solution`, `match_at_t0`,
`solve_earlier`) on CHART_DRAWS draws from seed CHART_SEED, each of m,
|q|, |p|, |a1| and |a2| log-uniform over the double range (|q| within
1e-3..1e3) with random signs and tau (E1 + E2) = 10, the distribution of
tests/test_analytic.py's `test_chart_route_agrees_with_scatter`.  It prints
the draws whose amplitudes were answered and refused (a
`ParameterRangeError`), the worst unitarity defect |u_f|^2 + |u_b|^2 - 1
and the count above UNITARITY_BAR, the worst ||u| - sqrt(P)| against
`scatter`'s F_u and B_u, and at t0 -+ 0.2 tau the spinors answered and
refused (ln N beyond the double range), how many of the answered have a
component that is not finite, and the worst norm defect
|ln|psi|^2 - 2 ln N| / max(1, 2 ln N) over the finite ones.

Routes `scatter` and `sharp_step`: the closed form and its Heaviside limit
on RANGE_DRAWS draws from seed RANGE_SEED over the whole double range, the
draws of tests/test_analytic.py's `TestAcrossTheDoubleRange._points`.  Each
prints the draws answered and refused (a `ValueError`), how many answered
have a value that is not finite, the worst |F_u + B_u - 1| over the finite
ones, and the worst relative error of every value its decimal reference
gives (tools/decimal_reference.py: `sinh_reference`'s f, b, F_u and B_u,
`sharp_reference`'s also E1, E2, F and B) where that value is above 1e-290,
with the count of draws that have one above RELATIVE_BAR.  A reference runs
at its default digits, and again at 2400 where that fails or misses the
route by more than RELATIVE_BAR: the defaults fall short where m << |pi|
(sharp_reference at 4 of the 1,000 draws, sinh_reference at 3, where
|delta| - |E2 - E1| cancels to 0), and the route is then measured against
the 2400-digit value.

Stdlib only, imports diracstep from src/ next to this script's directory,
and a rerun prints identical bytes.
"""

from __future__ import annotations

import cmath
import decimal
import hashlib
import json
import math
import os
import random
import re
import statistics
import sys

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path[:0] = [os.path.join(_ROOT, "src"), os.path.join(_ROOT, "benchmarks")]

import workloads  # noqa: E402
from decimal_reference import sharp_reference, sinh_reference  # noqa: E402
from diracstep import analytic, model, oracle  # noqa: E402
from diracstep.model import StepParameters  # noqa: E402

ORACLE_SEEDS = (1, 2, 3)
CHART_SEED = 20261023
CHART_DRAWS = 5000
UNITARITY_BAR = 1e-13
RANGE_SEED = 20261020
RANGE_DRAWS = 1000
RELATIVE_BAR = 1e-12
ORACLE_RANGE_SEED = 777
ORACLE_RANGE_DRAWS = 300
# a number in a refusal's message, not a digit within a name such as E2 or t0
_NUMBER = re.compile(r"(?<![\w.])[-+]?\d[\w.+-]*")


def oracle_route() -> dict:
    """`oracle.compare` over the oracle-validation inputs of ORACLE_SEEDS."""
    workload = workloads.OracleValidation()
    inputs = [desc for seed in ORACLE_SEEDS for desc in workload.inputs(random.Random(seed))]
    passed = refused = terms = 0
    worst = amplitudes = drift = per_unit = 0.0
    steps = []
    digest = hashlib.sha256()
    # the picture and terms each of the current input's tails took, read off
    # the tails' returns by wrappers that `integrate` calls in their place
    tails = {"eigenmode": oracle._tail, "diabatic": oracle._diabatic_tail}
    tail_terms, pictures = [], dict.fromkeys(tails, 0)

    def counted(picture, tail):
        def counted_tail(*args):
            out = tail(*args)
            tail_terms.append((picture, out[-1]))
            return out
        return counted_tail

    oracle._tail = counted("eigenmode", tails["eigenmode"])
    oracle._diabatic_tail = counted("diabatic", tails["diabatic"])
    try:
        for desc in inputs:
            params = StepParameters(**desc)
            tail_terms.clear()
            try:
                report = oracle.compare(params)
            except oracle.OracleError as exc:
                digest.update(f"{exc!r}\n".encode())
                refused += 1
                continue
            digest.update(f"{report.outcome!r}\n".encode())
            passed += report.passed
            scale = max(1.0, report.analytic.f, report.analytic.b)
            worst = max(worst, *(report.deviations[k] / scale for k in ("f", "b", "F_u")))
            sol = analytic.match_at_t0(analytic.build_solution(params), params)
            amplitudes = max(amplitudes, abs(sol.u_f - report.outcome.u_f),
                             abs(sol.u_b - report.outcome.u_b))
            drift = max(drift, report.outcome.norm_drift)
            steps.append(report.outcome.steps)
            terms = max(terms, *(n for _, n in tail_terms))
            pictures[tail_terms[0][0]] += 1
            modes = report.analytic.modes
            per_unit = max(per_unit, report.outcome.steps
                           / (1.0 + params.tau * max(modes.e1, modes.e2)))
    finally:
        oracle._tail, oracle._diabatic_tail = tails["eigenmode"], tails["diabatic"]
    return {
        "inputs": len(inputs),
        "diabatic": pictures["diabatic"],
        "eigenmode": pictures["eigenmode"],
        "passed": passed,
        "refused": refused,
        "worst_deviation": worst,
        "amplitude_deviation_max": amplitudes,
        "steps_total": sum(steps),
        "steps_median": statistics.median(steps),
        "steps_per_unit_max": per_unit,
        "tail_terms_max": terms,
        "norm_drift_max": drift,
        "outcomes_sha256": digest.hexdigest(),
    }


def oracle_range_route() -> dict:
    """`oracle.compare` over ORACLE_RANGE_DRAWS whole-range draws."""
    rng = random.Random(ORACLE_RANGE_SEED)

    def signed(lo, hi):
        return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(lo, hi)

    passed = failed = 0
    refused = {}
    for _ in range(ORACLE_RANGE_DRAWS):
        m = 10.0 ** rng.uniform(-300.0, 300.0)
        p, a1, a2 = (signed(-300.0, 300.0) for _ in range(3))
        q = signed(-3.0, 3.0)
        modes = model.plateau_modes(m, q, p, a1, a2)
        tau = 10.0 ** rng.uniform(-3.0, 1.0) / max(modes.e1, modes.e2)
        try:
            report = oracle.compare(StepParameters(m, q, p, a1, a2, tau))
        except oracle.OracleError as exc:
            # the cause: the exception's class and message, its numbers
            # replaced by #
            cause = f"{type(exc).__name__}: {_NUMBER.sub('#', str(exc))}"
            refused[cause] = refused.get(cause, 0) + 1
            continue
        passed += report.passed
        failed += not report.passed
    return {"draws": ORACLE_RANGE_DRAWS, "passed": passed, "failed": failed, "refused": refused}


def chart_route() -> dict:
    """The wavefunction API over CHART_DRAWS whole-range draws."""
    rng = random.Random(CHART_SEED)

    def signed(lo, hi):
        return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(lo, hi)

    answered = refused = above = sides = sides_refused = not_finite = 0
    unitarity = modulus = norm = 0.0
    for _ in range(CHART_DRAWS):
        m, q = 10.0 ** rng.uniform(-300.0, 300.0), signed(-3.0, 3.0)
        p, a1, a2 = (signed(-300.0, 300.0) for _ in range(3))
        modes = model.plateau_modes(m, q, p, a1, a2)
        params = StepParameters(m, q, p, a1, a2, 10.0 / (modes.e1 + modes.e2))
        try:
            sol = analytic.match_at_t0(analytic.build_solution(params), params)
        except analytic.ParameterRangeError:
            refused += 1
            continue
        answered += 1
        direct = analytic.scatter(params)
        defect = abs(abs(sol.u_f) ** 2 + abs(sol.u_b) ** 2 - 1.0)
        unitarity = max(unitarity, defect)
        above += defect > UNITARITY_BAR
        modulus = max(modulus, abs(abs(sol.u_f) - math.sqrt(direct.F_u)),
                      abs(abs(sol.u_b) - math.sqrt(direct.B_u)))
        for x in (-0.2, 0.2):
            try:
                psi = analytic.solve_earlier(sol, params.t0 + x * params.tau, params)
            except analytic.ParameterRangeError:
                sides_refused += 1
                continue
            sides += 1
            if not (cmath.isfinite(psi.upper) and cmath.isfinite(psi.lower)):
                not_finite += 1
                continue
            # |psi|^2 itself overflows where N is near the top of the range
            log_n2 = 2.0 * sol.log_norm
            log_psi2 = 2.0 * math.log(math.hypot(abs(psi.upper), abs(psi.lower)))
            norm = max(norm, abs(log_psi2 - log_n2) / max(1.0, log_n2))
    return {
        "draws": CHART_DRAWS,
        "answered": answered,
        "refused": refused,
        "unitarity_defect_max": unitarity,
        "unitarity_above_bar": above,
        "modulus_deviation_max": modulus,
        "sides_answered": sides,
        "sides_refused": sides_refused,
        "sides_not_finite": not_finite,
        "norm_defect_max": norm,
    }


def _range_draws():
    """RANGE_DRAWS whole-range draws (m, q, p, a1, a2, tau), pi tau E1 and
    pi tau E2 normal doubles below 1e300."""
    rng = random.Random(RANGE_SEED)

    def signed(lo, hi):
        return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(lo, hi)

    for _ in range(RANGE_DRAWS):
        m, q = 10.0 ** rng.uniform(-300.0, 300.0), signed(-3.0, 3.0)
        p, a1, a2 = (signed(-300.0, 300.0) for _ in range(3))
        modes = model.asymptotic_modes(StepParameters(m=m, q=q, p=p, a1=a1, a2=a2, tau=1.0))
        # log10 of the smallest normal double, 2.2e-308, is -307.65
        lo = max(-300.0, -307.6 - math.log10(math.pi * min(modes.e1, modes.e2)))
        hi = min(300.0, 300.0 - math.log10(math.pi * max(modes.e1, modes.e2)))
        yield m, q, p, a1, a2, 10.0 ** rng.uniform(lo, hi)


def _relative_error(got: dict, want: dict) -> float:
    """The largest |got - want|/want over want's values above 1e-290."""
    return max(abs(got[name] - v) / v for name, v in want.items() if v > 1e-290)


def _closed_form_route(evaluate, reference) -> dict:
    """evaluate(args) against reference(args) over the whole-range draws."""
    answered = refused = not_finite = above = 0
    unitarity = worst = 0.0
    for args in _range_draws():
        try:
            res = evaluate(args)
        except ValueError:
            refused += 1
            continue
        answered += 1
        got = {name: getattr(res, name) for name in ("f", "b", "F", "B", "F_u", "B_u")}
        got.update(e1=res.modes.e1, e2=res.modes.e2)
        if not all(math.isfinite(v) for v in got.values()):
            not_finite += 1
            continue
        unitarity = max(unitarity, abs(res.F_u + res.B_u - 1.0))
        try:
            error = _relative_error(got, reference(args))
        except decimal.InvalidOperation:
            error = math.inf
        if error > RELATIVE_BAR:
            # the default digits fall short where m << |pi| (module docstring)
            error = _relative_error(got, reference(args, digits=2400))
        worst = max(worst, error)
        above += error > RELATIVE_BAR
    return {
        "draws": RANGE_DRAWS,
        "answered": answered,
        "refused": refused,
        "not_finite": not_finite,
        "unitarity_defect_max": unitarity,
        "relative_error_max": worst,
        "relative_error_above_bar": above,
    }


def scatter_route() -> dict:
    """`scatter` against `sinh_reference` over the whole-range draws."""
    return _closed_form_route(lambda args: analytic.scatter(StepParameters(*args)),
                              lambda args, **digits: sinh_reference(*args, **digits))


def sharp_step_route() -> dict:
    """`sharp_step` against `sharp_reference` over the whole-range draws."""
    return _closed_form_route(lambda args: analytic.sharp_step(*args[:5]),
                              lambda args, **digits: sharp_reference(*args[:5], **digits))


def main() -> int:
    print(json.dumps({"chart": chart_route(), "oracle": oracle_route(),
                      "oracle_range": oracle_range_route(), "scatter": scatter_route(),
                      "sharp_step": sharp_step_route()},
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
