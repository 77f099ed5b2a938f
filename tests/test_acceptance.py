"""Acceptance suite: every release criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (run pytest with -s to see them all)
and asserts the same condition.  Criteria 1, 2, 3, 5, 6 and 8 run the checks
of `diracstep.selftest`, with their tolerances, on larger point sets than the
selftest's own; this file adds only the points and the time bounds.  The
closed-form-vs-integrator grid is computed once in a module fixture and
reused by the criteria that share it.
"""

import math
import random
import time

import pytest

from diracstep import StepParameters, compare
from diracstep import cli, oracle
from diracstep.selftest import (
    check_adiabatic,
    check_gamma_moduli,
    check_normalization,
    check_sharp_limit,
    check_specfun_values,
    check_vs_oracle,
    check_wavefunction,
    normalization_points,
)

RT3 = math.sqrt(3.0)
GRID_P = (0.5, 1.0, RT3, 2.5, 4.0)
GRID_A2 = (0.5, 1.0, 2 * RT3, 4.0, 5.0)
GRID_TAU = (0.05, 0.1, 0.3, 1.0, 3.0)
GRID = [StepParameters(m=1.0, q=1.0, p=p, a1=0.0, a2=a2, tau=tau)
        for p in GRID_P for a2 in GRID_A2 for tau in GRID_TAU]

_MODULE_T0 = time.perf_counter()


def report(criterion: int, ok: bool, detail: str) -> bool:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def oracle_grid():
    """compare() over the fixed 5x5x5 GRID, in its order, and its runtime."""
    t0 = time.perf_counter()
    reports = [compare(params) for params in GRID]
    return reports, time.perf_counter() - t0


def test_criterion_1_normalization_identities():
    t0 = time.perf_counter()
    ok, detail = check_normalization(normalization_points(20260810, 500))
    elapsed = time.perf_counter() - t0
    assert report(1, ok and elapsed < 10.0, f"{detail}, {elapsed:.1f}s (<10s)")


def test_criterion_2_analytic_vs_oracle(oracle_grid):
    # the grid's own integrations, moduli and phases
    reports, elapsed = oracle_grid
    ok, detail = check_vs_oracle(list(zip(GRID, reports)))
    assert report(2, ok and elapsed < 60.0, f"{detail}, grid time {elapsed:.1f}s (<60s)")


def test_criterion_3_sharp_step_limit():
    ok, detail = check_sharp_limit([dict(m=1.0, q=1.0, p=p, a1=0.0, a2=a2)
                                    for p in GRID_P for a2 in GRID_A2])
    assert report(3, ok, detail)


def test_criterion_4_slow_step_backward_wave(tmp_path, capsys):
    code = cli.main(["figure2", "--out-dir", str(tmp_path), "--count", "81"])
    capsys.readouterr()
    assert code == 0

    def rows(name):
        lines = [l for l in (tmp_path / name).read_text().splitlines()
                 if l and not l.startswith("#")]
        header = lines[0].split(",")
        return [dict(zip(header, l.split(","))) for l in lines[1:]]

    b_slow_max = max(float(r["B"]) for r in rows("panel_b.csv"))
    fast_dev = max(abs(float(r["B"]) - float(r["B_sharp"])) for r in rows("panel_a.csv"))
    ok = b_slow_max > 0.01 and fast_dev < 0.01
    assert report(4, ok, f"slow panel max B {b_slow_max:.3f} (>0.01), "
                         f"fast panel max |B - B_sharp| {fast_dev:.2e} (<0.01)")


def test_criterion_5_adiabatic_suppression():
    # tau*(E1+E2) from 5 to 40
    ok, detail = check_adiabatic((1.25, 1.75, 2.5, 3.5, 5.0, 7.0, 10.0))
    assert report(5, ok, detail)


def test_criterion_6_special_functions():
    t0 = time.perf_counter()
    rng = random.Random(6)
    ys = [10 ** (k / 40) for k in range(-120, 105)]
    pairs = [(rng.uniform(-15, 15), rng.uniform(-15, 15)) for _ in range(40)]
    ok_values, values = check_specfun_values(pairs)
    ok_moduli, moduli = check_gamma_moduli(ys)
    elapsed = time.perf_counter() - t0
    assert report(6, ok_values and ok_moduli and elapsed < 5.0,
                  f"{values}; {moduli}; {elapsed:.1f}s (<5s)")


def test_criterion_7_oracle_integrity(oracle_grid, monkeypatch):
    reports, _ = oracle_grid
    worst_drift = max(rep.outcome.norm_drift for rep in reports)
    # stability of a grid subset under a wider window and 10x tighter tolerance
    worst_change = 0.0
    for p, a2, tau in ((0.5, 0.5, 0.1), (RT3, 2 * RT3, 0.3), (2.5, 4.0, 1.0),
                       (4.0, 1.0, 0.05), (1.0, 5.0, 3.0)):
        params = StepParameters(m=1.0, q=1.0, p=p, a1=0.0, a2=a2, tau=tau)
        base = compare(params).numeric
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "SPAN_FACTOR", 24.0)
            wider = compare(params).numeric
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "TOL", oracle.TOL / 10)
            tighter = compare(params).numeric
        for other in (wider, tighter):
            worst_change = max(worst_change, abs(other.f - base.f), abs(other.b - base.b))
    ok = worst_drift < 1e-9 and worst_change < 1e-7
    assert report(7, ok, f"worst norm drift {worst_drift:.2e} (<1e-9), "
                         f"worst f/b change under N+4 and tol/10 {worst_change:.2e} (<1e-7)")


def test_criterion_8_wavefunction_identities():
    # each point's fourth draw goes unused, so the points stay the ten this
    # criterion has always checked
    rng = random.Random(8)
    points = []
    for _ in range(10):
        points.append(StepParameters(m=1.0, q=1.0, p=rng.uniform(0.3, 4.0), a1=0.0,
                                     a2=rng.uniform(-4.0, 4.0), tau=rng.uniform(0.05, 2.0)))
        rng.randrange(1 << 30)
    ok, detail = check_wavefunction(points)
    assert report(8, ok, detail)


def test_criterion_9_reproducibility(capsys):
    code = cli.main(["selftest"])
    selftest_out = capsys.readouterr().out
    sweep_args = ["sweep", "--sweep-var", "a2", "--start", "-3", "--stop", "5",
                  "--count", "17", "--p", "1.3", "--tau", "0.4"]
    assert cli.main(sweep_args) == 0
    first = capsys.readouterr().out
    assert cli.main(sweep_args) == 0
    second = capsys.readouterr().out
    elapsed = time.perf_counter() - _MODULE_T0
    ok = code == 0 and first == second and elapsed < 120.0
    assert report(9, ok, f"selftest exit {code} (=0), sweep CSV byte-identical: "
                         f"{first == second}, acceptance module time {elapsed:.0f}s (<120s)")
