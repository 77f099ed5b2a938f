"""Accuracy census: fixed-seed routes through diracstep, one JSON object.

    python tools/census.py

Route `oracle`: `oracle.compare` on the 384 inputs of the benchmark's
`oracle-validation` workload at seeds 1-3, taken from
benchmarks/workloads.py, which this tool imports and never edits.  It
prints the number of inputs, how many passed and how many the integrator
refused (an `OracleError`), the worst deviation of f, b and F_u in units
of max(1, f, b) (the unit of `oracle.COMPARE_TOL`), the total and median
attempted steps, and the largest norm drift.  A refused input counts in
neither the deviation, the steps nor the drift.

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

Stdlib only, imports diracstep from src/ next to this script's directory,
and a rerun prints identical bytes.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
import statistics
import sys

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path[:0] = [os.path.join(_ROOT, "src"), os.path.join(_ROOT, "benchmarks")]

import workloads  # noqa: E402
from diracstep import analytic, model, oracle  # noqa: E402
from diracstep.model import StepParameters  # noqa: E402

ORACLE_SEEDS = (1, 2, 3)
CHART_SEED = 20261023
CHART_DRAWS = 5000
UNITARITY_BAR = 1e-13


def oracle_route() -> dict:
    """`oracle.compare` over the oracle-validation inputs of ORACLE_SEEDS."""
    workload = workloads.OracleValidation()
    inputs = [desc for seed in ORACLE_SEEDS for desc in workload.inputs(random.Random(seed))]
    passed = refused = 0
    worst = drift = 0.0
    steps = []
    for desc in inputs:
        try:
            report = oracle.compare(StepParameters(**desc))
        except oracle.OracleError:
            refused += 1
            continue
        passed += report.passed
        scale = max(1.0, report.analytic.f, report.analytic.b)
        worst = max(worst, *(report.deviations[k] / scale for k in ("f", "b", "F_u")))
        drift = max(drift, report.outcome.norm_drift)
        steps.append(report.outcome.steps)
    return {
        "inputs": len(inputs),
        "passed": passed,
        "refused": refused,
        "worst_deviation": worst,
        "steps_total": sum(steps),
        "steps_median": statistics.median(steps),
        "norm_drift_max": drift,
    }


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


def main() -> int:
    print(json.dumps({"chart": chart_route(), "oracle": oracle_route()}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
