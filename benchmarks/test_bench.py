"""Tests of the benchmark's own parts: the reference, the workloads' checks and
the span recorder.

    python3 -m pytest benchmarks/test_bench.py
"""

import json
import math
import os
import random
import shutil
import subprocess
import sys

import pytest

import hostspeed
import reference
import run
import workloads

sys.path.insert(0, run.SRC)

from diracstep import StepParameters, scatter, sharp_step  # noqa: E402


def _random_kinematics(rng):
    return dict(
        m=math.exp(rng.uniform(math.log(0.5), math.log(2.0))),
        q=rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5),
        p=rng.uniform(-3.0, 3.0),
        a1=rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 1.0),
        a2=rng.uniform(-4.0, 4.0),
    )


def test_reference_matches_sharp_step_as_tau_goes_to_zero():
    rng = random.Random(7)
    for _ in range(300):
        kw = _random_kinematics(rng)
        sharp = sharp_step(**kw)
        assert abs(reference.sharp_backward_probability(**kw) - sharp.B_u) < 1e-12
        for tau in (1e-6, 1e-8):
            assert abs(reference.backward_probability(tau=tau, **kw) - sharp.B_u) < 1e-9


def test_reference_matches_scatter_for_tau_up_to_one():
    rng = random.Random(11)
    worst = 0.0
    for _ in range(300):
        kw = _random_kinematics(rng)
        tau = math.exp(rng.uniform(math.log(1e-4), 0.0))
        res = scatter(StepParameters(tau=tau, t0=rng.uniform(-3.0, 3.0), **kw))
        f_u, b_u = reference.probabilities(tau=tau, **kw)
        worst = max(worst, abs(res.B_u - b_u), abs(res.F_u - f_u))
    assert worst < 1e-9


def test_reference_keeps_the_adiabatic_tail():
    kw = dict(m=1.0, q=1.0, p=1.7, a1=0.0, a2=3.4)
    # exact values of the elementary form at tau = 50 and 100
    assert reference.backward_probability(tau=50.0, **kw) == pytest.approx(7.0e-38, rel=1e-2)
    assert reference.backward_probability(tau=100.0, **kw) == pytest.approx(4.9e-75, rel=1e-2)
    assert reference.probabilities(tau=1e3, **kw) == (1.0, 0.0)
    assert reference.backward_probability(m=1.0, q=1.0, p=1.0, a1=2.0, a2=2.0, tau=5.0) == 0.0


def test_sweep_check_counts_a_wrong_ok_row_as_failed():
    wl = workloads.WORKLOADS["closed-form-sweep"]
    prog = run.import_program()
    desc = next(d for d in wl.inputs(random.Random(3)) if d["var"] == "p")
    out = wl.op(prog, wl.prepare(prog, desc))
    points, failed, checkable = wl.check(desc, out)
    assert checkable and points == workloads.SWEEP_ROWS
    header, *rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
    cols = header.split(",")
    i = next(k for k, row in enumerate(rows) if row.endswith(",ok"))
    cells = rows[i].split(",")
    cells[cols.index("B_u")] = repr(float(cells[cols.index("B_u")]) + 1e-6)
    rows[i] = ",".join(cells)
    tampered = "\n".join([header] + rows)
    assert wl.check(desc, tampered) == (points, failed + 1, True)
    assert wl.check(desc, "\n".join([header] + rows[:-1]))[2] is False


def test_inputs_depend_only_on_the_seed():
    for wl in workloads.WORKLOADS.values():
        first = wl.inputs(random.Random(5))
        assert first == wl.inputs(random.Random(5))
        assert first != wl.inputs(random.Random(6))
        assert len(first) == workloads.POOL >= 110


def test_traced_counts_repeat_and_recorder_restores_the_program(tmp_path):
    counts = []
    for _ in range(2):
        prog = run.import_program()
        originals = {name: getattr(prog.analytic, name) for name in ("hyp2f1", "scatter")}
        wl = workloads.WORKLOADS["wavefunction"]
        descs = wl.inputs(random.Random(2))
        inputs = [wl.prepare(prog, d) for d in descs]
        metrics, res = run.per_layer(prog, wl, descs, inputs, 2, str(tmp_path / "w.csv.gz"))
        assert res["checkable"] and res["failed"] == 0
        assert all(getattr(prog.analytic, k) is v for k, v in originals.items())
        counts.append({k: v[0] for k, v in metrics.items() if k.endswith(".calls")})
    assert counts[0] == counts[1]
    assert counts[0]["analytic.chart_eval.calls"] == 2 * 2 * workloads.WAVE_TIMES
    assert counts[0]["specfun.log_gamma.calls"] > 0
    assert counts[0]["oracle.integrate.calls"] == 0


def test_oracle_op_makes_one_scatter_worth_of_hyp2f1_calls(tmp_path):
    prog = run.import_program()
    wl = workloads.WORKLOADS["oracle-validation"]
    descs = wl.inputs(random.Random(1))[:1]
    inputs = [wl.prepare(prog, d) for d in descs]
    metrics, res = run.per_layer(prog, wl, descs, inputs, 1, str(tmp_path / "o.csv.gz"))
    assert res["failed"] == 0
    assert metrics["oracle.integrate.calls"][0] == 1
    assert metrics["oracle.integrate.steps"][0] > 0
    assert metrics["specfun.hyp2f1.calls"][0] == 6


def test_scaling_divides_by_the_nearby_host_speed():
    ref = hostspeed.REF_MS
    # the host runs at half speed around op 0 and at full speed from op 6 on
    cals = [2 * ref] * 5 + [ref] * 11
    scaled = run.scale_to_reference([1.0] * 16, cals)
    assert scaled[0] == 0.5 and scaled[-1] == 1.0
    assert run.scale_to_reference([3.0], [ref]) == [3.0]


def test_calibration_repeats_its_result():
    assert hostspeed.calibrate() > 0.0
    assert hostspeed._work() == hostspeed._work()


def test_failed_points_do_not_depend_on_the_number_of_passes():
    prog = run.import_program()
    wl = workloads.WORKLOADS["closed-form-sweep"]
    descs = wl.inputs(random.Random(1))[:4]
    inputs = [wl.prepare(prog, d) for d in descs]
    one = run.run_ops(wl, prog, descs, inputs, 0.0)
    more = run.run_ops(wl, prog, descs, inputs, 1.0)
    assert len(one["passes"]) == run.MIN_PASSES < len(more["passes"])
    assert one["points"] == more["points"] == 4 * workloads.SWEEP_ROWS
    assert one["failed"] == more["failed"]
    assert one["checkable"]


@pytest.mark.parametrize("trace", [False, True])
def test_benchmark_json_names_match_what_run_reports(tmp_path, trace):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    if trace:
        prog = run.import_program()
        wl = workloads.WORKLOADS["closed-form-sweep"]
        descs = wl.inputs(random.Random(1))[:1]
        inputs = [wl.prepare(prog, d) for d in descs]
        metrics, _ = run.per_layer(prog, wl, descs, inputs, 1, str(tmp_path / "s.csv.gz"))
    else:
        passes = [[0.01 * k for k in range(1, 21)]] * 3
        metrics = run.end_to_end([0.1], {"passes": passes, "points": 60, "failed": 0})
    for name, unit in run.declared_metrics(trace):
        assert metrics[name][1] == unit


def test_run_fails_without_the_program(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    for name in os.listdir(run.HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(run.HERE, name), tmp_path / "benchmarks")
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "wavefunction", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
