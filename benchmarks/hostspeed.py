"""The host's speed, measured with a fixed piece of pure-Python work.

On a shared host the same op can take 1.5x or 2x longer from one minute to
the next, because other tenants share the physical cores, caches and memory
bandwidth; the process's own CPU time grows with them.  `run.py` therefore
runs `calibrate()` between ops and scales each op's CPU time by
REF_MS / (CPU time of the nearby calibrations): the result is what the op
would take on a host on which one calibration takes REF_MS.  A change to
diracstep moves the scaled times exactly as it moves the raw ones.

The work mixes what diracstep's hot paths do -- complex series products,
float loops with math.tanh, small lists and function calls, float repr -- so
that the host's contention slows both alike.  It shares no code with
diracstep, and its result is checked so that nothing can skip it.
"""

from __future__ import annotations

import math
import time

# CPU time of one calibrate() on the reference host (a quiet 2-vCPU share of
# an Intel Xeon at 2.1 GHz, CPython 3.11), in ms; it sets the unit of the
# scaled times
REF_MS = 1.0

_SERIES_TERMS = 400
_STEPS = 300
_EXPECTED = None


def _series(a: complex, b: complex, c: complex, z: complex) -> complex:
    term = 1.0 + 0.0j
    total = term
    for n in range(_SERIES_TERMS):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * z
        total += term
    return total


def _rk4(tau: float) -> tuple[complex, complex]:
    def rhs(u: float, ph: complex, th: complex) -> tuple[complex, complex]:
        piv = 0.5 - 0.75 * (1.0 + math.tanh(u / tau))
        return (-1j * (piv * ph + th), -1j * (ph - piv * th))

    h = 8.0 / _STEPS
    u, ph, th = -4.0, 1.0 + 0.0j, 0.5 + 0.0j
    for _ in range(_STEPS):
        k = [rhs(u, ph, th)]
        k.append(rhs(u + h / 2, ph + h / 2 * k[0][0], th + h / 2 * k[0][1]))
        k.append(rhs(u + h / 2, ph + h / 2 * k[1][0], th + h / 2 * k[1][1]))
        k.append(rhs(u + h, ph + h * k[2][0], th + h * k[2][1]))
        ph += h / 6 * (k[0][0] + 2 * k[1][0] + 2 * k[2][0] + k[3][0])
        th += h / 6 * (k[0][1] + 2 * k[1][1] + 2 * k[2][1] + k[3][1])
        u += h
    return ph, th


def _work() -> str:
    s = _series(0.3 + 0.7j, -0.2 + 1.1j, 1.5 - 0.4j, -0.95 + 0.0j)
    ph, th = _rk4(0.7)
    return ",".join(repr(x) for x in (s.real, s.imag, ph.real, ph.imag, th.real, th.imag))


def calibrate() -> float:
    """CPU time of one fixed piece of work, in ms."""
    global _EXPECTED
    start = time.process_time()
    out = _work()
    elapsed = time.process_time() - start
    if _EXPECTED is None:
        _EXPECTED = out
    elif out != _EXPECTED:
        raise RuntimeError("host speed calibration gave a different result")
    return 1e3 * elapsed
