"""Run workloads over several seeds and summarise every metric.

    python3 benchmarks/report.py --seeds 1 2 3 4 5 --seconds 12 --trace 0 --out baseline.json

Each run is one `run.py` process, started and waited for in turn.  For each
workload and metric the summary gives the median over seeds, the quartiles
and the spread (q3 - q1) / median that BENCHMARK.json's bounds are set
against, plus the failed share of attempted points.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    wall_s = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    facts = next(json.loads(ln[len("facts "):]) for ln in lines if ln.startswith("facts "))
    return {"facts": facts, "wall_s": wall_s, "result": json.loads(lines[-1])}


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"unit": runs[0]["result"]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
                     "min": min(values), "max": max(values)}
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    out["fail_frac"] = {"unit": "ratio", "median": failed / attempted,
                        "attempted": attempted, "failed": failed}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=sorted(workloads.WORKLOADS),
                        default=list(workloads.WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write runs and summary to this JSON file")
    args = parser.parse_args()

    report = {"seconds": args.seconds, "trace": args.trace, "seeds": args.seeds, "workloads": {}}
    for name in args.workloads:
        runs = [run_once(name, seed, args.seconds, args.trace) for seed in args.seeds]
        summary = summarise(runs)
        report["workloads"][name] = {"summary": summary, "runs": runs}
        print(f"{name}: {len(runs)} seeds, all correct: "
              f"{all(r['result']['correct'] for r in runs)}, "
              f"longest run {max(r['wall_s'] for r in runs):.1f} s")
        for metric, s in summary.items():
            if "spread" in s:
                print(f"  {metric:<40} median {s['median']:>12.6g} {s['unit']:<6} "
                      f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
            else:
                print(f"  {metric:<40} {s['median']:>19.6g} {s['unit']:<6} "
                      f"({s['failed']} of {s['attempted']} points)")
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
