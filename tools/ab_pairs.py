"""Compare two checkouts on one benchmark workload in alternating pairs.

    python tools/ab_pairs.py PARENT CHANGE --workload W --pairs N --seconds S [--first-seed K]

Pair i runs `benchmarks/run.py --workload W --seed K+i --seconds S` once in
each checkout, each with that checkout's own run.py and sources; the parent
goes first in even pairs and the change in odd ones, so a drift of the
host's speed favours neither side.  For each end-to-end metric of PARENT's
BENCHMARK.json it prints each side's median and quartiles, the change's
median relative to the parent's, and the pairs the change won (ties count
for neither), then whether a gain can be claimed: the change wins at least
nine tenths of the pairs, and the medians differ, in the metric's better
direction, by more than the parent's quartile spread q3 - q1.  The failed
points of each side are printed too.  Stdlib only; a run that exits non-zero
stops the comparison with its stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result line of one untraced run.py run in checkout."""
    cmd = [sys.executable, os.path.join("benchmarks", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"ab_pairs: {' '.join(cmd)} in {checkout} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), as benchmarks/report.py takes them; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(parent: list[float], change: list[float], lower_is_better: bool) -> dict:
    """Wins of the change over the parent pair by pair, and whether both
    rules of a claimed gain hold."""
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))
    p1, pmed, p3 = quartiles(parent)
    cmed = statistics.median(change)
    return {"wins": wins, "nine_tenths": 10 * wins >= 9 * len(parent),
            "beyond_spread": sign * (pmed - cmed) > p3 - p1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", type=int, default=1,
                        help="seed of the first pair; pair i runs seed FIRST_SEED + i")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(os.path.join(args.parent, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args.workload, seed, args.seconds))
        print(f"pair {i + 1}/{args.pairs} seed {seed}: {order[0]} first", flush=True)

    print(f"{args.workload}: {args.pairs} alternating pairs of {args.seconds:g} s runs, "
          f"seeds {args.first_seed}..{args.first_seed + args.pairs - 1}")
    for side, results in runs.items():
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        correct = all(r["correct"] for r in results)
        print(f"  {side:<6} {failed} of {attempted} points failed, all checkable: {correct}")
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        (p1, pmed, p3), (c1, cmed, c3) = quartiles(parent), quartiles(change)
        v = verdict(parent, change, lower)
        rel = f"{cmed / pmed - 1.0:+.1%}" if pmed else "n/a"
        gain = "gain holds" if v["nine_tenths"] and v["beyond_spread"] else "no gain"
        print(f"  {name} ({metric['unit']}, {metric['better']} is better)\n"
              f"    parent median {pmed:.6g}  q1 {p1:.6g}  q3 {p3:.6g}\n"
              f"    change median {cmed:.6g}  q1 {c1:.6g}  q3 {c3:.6g}  ({rel})\n"
              f"    change won {v['wins']} of {args.pairs}; 9 of 10 rule: "
              f"{'yes' if v['nine_tenths'] else 'no'}; beyond the parent's quartile spread: "
              f"{'yes' if v['beyond_spread'] else 'no'}; {gain}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
