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

Stdlib only, imports diracstep from src/ next to this script's directory,
and a rerun prints identical bytes.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import sys

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path[:0] = [os.path.join(_ROOT, "src"), os.path.join(_ROOT, "benchmarks")]

import workloads  # noqa: E402
from diracstep import oracle  # noqa: E402
from diracstep.model import StepParameters  # noqa: E402

ORACLE_SEEDS = (1, 2, 3)


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


def main() -> int:
    print(json.dumps({"oracle": oracle_route()}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
