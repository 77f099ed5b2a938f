"""In-memory span recorder for the traced benchmark run.

The recorder wraps public functions of the program from outside: each target
function is replaced, in every module namespace that holds it, by a wrapper
that records one span (op, name, start, end, parent).  Nothing in the
program is edited, and nothing stays wrapped outside a `with recorder:`
block, so the untraced end-to-end runs execute the program as shipped.

A span's self time is its duration minus the durations of its direct
children.  Counters that live in return values (the integrator's step count
and norm drift) are taken from what the wrapped function returns.
"""

from __future__ import annotations

import functools
import gzip
import time


class SpanRecorder:
    """Records spans while active: `with recorder: ...`, one block per op.

    `targets` are (span name, module, attribute) triples.  Every binding of
    each target function in `modules` is rebound on entry and restored on
    exit, so calls made through an imported name (`from .specfun import
    hyp2f1`) are recorded as well as module-attribute calls.  Several
    targets may share one span name.
    """

    def __init__(self, modules, targets) -> None:
        self.names: list[str] = []
        # one entry per call: (op, name index, start, end, parent span index or -1)
        self.spans: list[tuple[int, int, float, float, int] | None] = []
        self._stack = [-1]
        self._op = [-1]
        self.integrate_steps = 0
        self.integrate_drift_max = 0.0
        self._patches: list[tuple[object, str, object, object]] = []
        for name, module, attr in targets:
            if name not in self.names:
                self.names.append(name)
            original = getattr(module, attr)
            hook = self._on_integrate if name == "oracle.integrate" else None
            wrapper = self._wrap(self.names.index(name), original, hook)
            for mod in modules:
                for key, value in vars(mod).items():
                    if value is original:
                        self._patches.append((mod, key, original, wrapper))

    def _wrap(self, idx: int, fn, on_return):
        spans = self.spans
        stack = self._stack
        op = self._op
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (op[0], idx, start, end, parent)
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def _on_integrate(self, outcome) -> None:
        self.integrate_steps += outcome.steps
        self.integrate_drift_max = max(self.integrate_drift_max, outcome.norm_drift)

    def __enter__(self):
        self._op[0] += 1
        for mod, key, _, wrapper in self._patches:
            setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, key, original, _ in self._patches:
            setattr(mod, key, original)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls and summed self time in seconds."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for i, (_, idx, start, end, _) in enumerate(self.spans):
            row = out[self.names[idx]]
            row["calls"] += 1
            row["self_s"] += (end - start) - child[i]
        return out

    def write(self, path) -> None:
        """Write every span as gzip-compressed CSV, one row per call.

        `parent` is the row index of the calling span, -1 for a span called
        directly by the benchmark; `op` numbers the traced ops from 0.
        """
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op,name,start_s,end_s,parent\n")
            names = self.names
            fh.writelines(
                f"{op},{names[idx]},{start:.9f},{end:.9f},{parent}\n"
                for op, idx, start, end, parent in self.spans
            )
