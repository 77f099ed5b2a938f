"""diracstep benchmark: one seeded workload, run in-process through the public API.

    python3 benchmarks/run.py --workload closed-form-sweep --seed 1 --seconds 12 --trace 0

Run from the repository root; the program is imported from `src/` of the
same checkout and nowhere else.  The load is one process, one thread and a
closed loop with one caller: the next operation starts when the previous one
has returned.  Workloads are defined in `workloads.py`.

--trace 0 measures the end-to-end metrics with nothing wrapped, each op's
CPU time scaled to a reference host speed measured between ops
(`hostspeed.py`), so that the speed of a shared host at the time of the run
drops out.  --trace 1 runs one pass over the inputs, each op once plain and
once with every layer's public functions wrapped by the span recorder
(`spans.py`), and reports the per-layer metrics and the tracing overhead.
One pass, not a time limit, so that call and step counts repeat exactly for
a seed.  The spans are written to `.bench_trace/` in the checkout.

Standard output ends with one JSON line: correct, attempted, failed and the
metrics named in BENCHMARK.json.  `attempted` and `failed` count the output
points of one pass over the inputs; a point fails if the operation raised,
if the program marked it as failed, or if it misses this directory's
reference.  `correct` is false only when an output could not be checked at
all (malformed CSV, missing rows).  Before that line come a human-readable
table with units and sample counts and a `facts` line recording the
inputs' digest and the host.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import types

import workloads
from hostspeed import REF_MS, calibrate
from spans import SpanRecorder

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# setup_s is the median of this many set-ups in one run
SETUP_REPS = 9
# each input's latency is its median over passes; three outvote one slowed run
MIN_PASSES = 3
# an op's host speed is the median of the calibrations of the ops within
# this many places of it in the pass
CAL_WINDOW = 4
# calibrations before and after each set-up
CAL_AROUND = 3

MODULES = ("model", "specfun", "analytic", "oracle", "cli")
# (span name, module, function): each layer's public entry points
SPAN_TARGETS = (
    ("cli.main", "cli", "main"),
    ("analytic.scatter", "analytic", "scatter"),
    ("analytic.build_solution", "analytic", "build_solution"),
    ("analytic.match_at_t0", "analytic", "match_at_t0"),
    ("analytic.asymptotic_amplitudes", "analytic", "asymptotic_amplitudes"),
    ("analytic.chart_eval", "analytic", "solve_earlier"),
    ("analytic.chart_eval", "analytic", "solve_later"),
    ("specfun.hyp2f1", "specfun", "hyp2f1"),
    ("specfun.hyp2f1_derivative", "specfun", "hyp2f1_derivative"),
    ("specfun.log_gamma", "specfun", "log_gamma"),
    ("oracle.compare", "oracle", "compare"),
    ("oracle.integrate", "oracle", "integrate"),
    ("model.asymptotic_modes", "model", "asymptotic_modes"),
)

# end-to-end timings: CPU time, so that waiting for a core does not count
cpu = time.process_time
# traced spans: wall time, cheap enough to read at every call
clock = time.perf_counter


def import_program() -> types.SimpleNamespace:
    """Import diracstep afresh from this checkout's src/."""
    for name in [n for n in sys.modules if n == "diracstep" or n.startswith("diracstep.")]:
        del sys.modules[name]
    package = importlib.import_module("diracstep")
    where = os.path.dirname(os.path.abspath(package.__file__))
    if where != os.path.join(SRC, "diracstep"):
        raise SystemExit(f"benchmark: diracstep was imported from {where}, not from {SRC}")
    mods = {name: importlib.import_module(f"diracstep.{name}") for name in MODULES}
    return types.SimpleNamespace(package=package, **mods)


def set_up(workload, seed: int):
    """Import, generate the inputs and run one untimed warm-up op.

    Returns the set-up's CPU time scaled to the reference host speed by the
    calibrations just before and after it (see `hostspeed.py`).
    """
    cals = [calibrate() for _ in range(CAL_AROUND)]
    start = cpu()
    prog = import_program()
    descs = workload.inputs(random.Random(seed))
    inputs = [workload.prepare(prog, d) for d in descs]
    workload.op(prog, inputs[0])
    elapsed = cpu() - start
    cals += [calibrate() for _ in range(CAL_AROUND)]
    return elapsed * REF_MS / statistics.median(cals), prog, descs, inputs


def scale_to_reference(latencies: list[float], cals: list[float]) -> list[float]:
    """Each op's CPU time at the reference host speed, the host's speed at
    op i being the median of the calibrations that followed ops i - CAL_WINDOW
    to i + CAL_WINDOW."""
    return [t * REF_MS / statistics.median(cals[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1])
            for i, t in enumerate(latencies)]


def run_ops(workload, prog, descs, inputs, seconds: float) -> dict:
    """Closed loop over the inputs in order; check each output after timing it.

    Runs whole passes over the inputs, at least MIN_PASSES and until
    `seconds` of wall time have passed, so every pass measures the same
    stratified mix.  Each op is followed by one calibration of the host's
    speed, outside its timed interval.  Returns each pass's op latencies at
    the reference host speed, and the points and failed points of one pass:
    every pass is checked, and a point that fails in any pass counts, so the
    counts depend on the seed and not on how many passes fitted.
    """
    passes = []
    all_cals = []
    points = [0] * len(inputs)
    failed = [0] * len(inputs)
    checkable = True
    deadline = clock() + seconds
    while len(passes) < MIN_PASSES or clock() < deadline:
        latencies = []
        cals = []
        for k, (desc, inp) in enumerate(zip(descs, inputs)):
            t = cpu()
            out = workload.op(prog, inp)
            latencies.append(cpu() - t)
            cals.append(calibrate())
            n, f, ok = workload.check(desc, out)
            points[k] = n
            failed[k] = max(failed[k], f)
            checkable = checkable and ok
        passes.append(scale_to_reference(latencies, cals))
        all_cals += cals
    return {"ops": sum(map(len, passes)), "passes": passes,
            "host_speed": REF_MS / statistics.median(all_cals),
            "points": sum(points), "failed": sum(failed), "checkable": checkable}


def end_to_end(setup_times, res) -> dict:
    """Timings over inputs, each input's latency being its median over passes.

    Every pass runs each input once, so the median over passes discards runs
    of an input slowed by other load on the host, and the percentiles are
    those of the program's cost over the stratified inputs.  All times are
    CPU times at the reference host speed.
    """
    passes = res["passes"]
    per_input = [statistics.median(runs) for runs in zip(*passes)]
    p90 = statistics.quantiles(per_input, n=10)[8]
    samples = f"{len(per_input)} inputs x median of {len(passes)} passes"
    # ru_maxrss is in KiB on Linux
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(setup_times), "s", f"median of {len(setup_times)} set-ups"),
        "op_ms_p50": (1e3 * statistics.median(per_input), "ms", samples),
        "op_ms_p90": (1e3 * p90, "ms",
                      f"{samples}, {sum(x > p90 for x in per_input)} inputs beyond p90"),
        "points_per_s": (res["points"] / sum(per_input), "1/s",
                         f"{samples}, {res['points']} points per pass"),
        "fail_frac": (res["failed"] / res["points"], "ratio", f"{res['points']} points"),
        "peak_rss_mb": (rss_mb, "MB", "1 process"),
    }


def per_layer(prog, workload, descs, inputs, count: int, trace_path: str) -> tuple[dict, dict]:
    """Run `count` ops, each once plain and once traced, back to back.

    Pairing each traced op with a plain run of the same input, and
    alternating which of the two runs first, keeps drift in machine speed
    and back-to-back effects out of the overhead ratio.
    """
    modules = [prog.package] + [getattr(prog, name) for name in MODULES]
    recorder = SpanRecorder(modules, [(span, getattr(prog, mod), fn)
                                      for span, mod, fn in SPAN_TARGETS])
    plain_s = traced_s = 0.0
    points = failed = 0
    checkable = True
    for i in range(count):
        j = i % len(inputs)
        for traced in (i % 2 == 1, i % 2 == 0):
            with recorder if traced else contextlib.nullcontext():
                t = clock()
                out = workload.op(prog, inputs[j])
                elapsed = clock() - t
            n, f, ok = workload.check(descs[j], out)
            checkable = checkable and ok
            if traced:
                traced_s += elapsed
                points += n
                failed += f
            else:
                plain_s += elapsed
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    recorder.write(trace_path)

    ops = f"{count} ops"
    metrics = {}
    for span, row in recorder.totals().items():
        metrics[f"{span}.calls"] = (row["calls"], "count", ops)
        metrics[f"{span}.self_s"] = (row["self_s"], "s", ops)
    n_integrate = metrics["oracle.integrate.calls"][0]
    steps = recorder.integrate_steps
    metrics["oracle.integrate.steps"] = (steps, "count", ops)
    metrics["oracle.integrate.steps_per_call"] = (
        steps / n_integrate if n_integrate else 0.0, "count", f"{n_integrate} calls")
    metrics["oracle.integrate.norm_drift_max"] = (
        recorder.integrate_drift_max, "ratio", f"{n_integrate} calls")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio", f"2 x {ops}")
    return metrics, {"ops": count, "points": points, "failed": failed, "checkable": checkable}


def declared_metrics(trace: bool) -> list[tuple[str, str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = workloads.WORKLOADS[args.workload]
    declared = declared_metrics(bool(args.trace))

    setup_times = []
    calibrate()  # the first call also records the result later calls must give
    for _ in range(SETUP_REPS):
        elapsed, prog, descs, inputs = set_up(workload, args.seed)
        setup_times.append(elapsed)

    if args.trace:
        count = len(inputs)
        trace_path = os.path.join(ROOT, ".bench_trace", f"{workload.name}-seed{args.seed}.csv.gz")
        metrics, res = per_layer(prog, workload, descs, inputs, count, trace_path)
    else:
        res = run_ops(workload, prog, descs, inputs, args.seconds)
        metrics = end_to_end(setup_times, res)

    facts = {
        "workload": workload.name,
        "seed": args.seed,
        "inputs_sha256": hashlib.sha256(json.dumps(descs, sort_keys=True).encode()).hexdigest(),
        "inputs": len(descs),
        "ops": res["ops"],
        "points": res["points"],
        "host_speed": res.get("host_speed"),
        "failed": res["failed"],
        "trace": args.trace,
        "seconds": args.seconds,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
    }
    declared_values = []
    for name, unit in declared:
        value, measured_unit, _ = metrics[name]
        if measured_unit != unit:
            raise SystemExit(f"benchmark: {name} is measured in {measured_unit}, declared as {unit}")
        declared_values.append((name, value, unit))
    print(f"{workload.name} seed={args.seed} trace={args.trace}: "
          f"{facts['ops']} ops, {res['points']} points, {res['failed']} failed")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<36} {value:>16.6g} {unit:<6} {samples}")
    print("facts " + json.dumps(facts))
    print(json.dumps({
        "correct": res["checkable"],
        "attempted": res["points"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit in declared_values},
    }))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, SRC)
    sys.exit(main())
