"""Independent reference for the tanh-step scattering probabilities.

The moduli of the connection-formula amplitudes reduce, through
|Gamma(iy)|^2 = pi / (y sinh(pi y)) (DLMF 5.4.3), to elementary functions:

    B_u = sinh(pi tau (d + E2 - E1)/2) sinh(pi tau (d - E2 + E1)/2)
          / (sinh(pi tau E1) sinh(pi tau E2)),      d = pi1 - pi2,
    F_u = 1 - B_u.

This is the fermion form of the Sauter-pulse Bogoliubov coefficient
(Narozhny & Nikishov, Sov. J. Nucl. Phys. 11, 596 (1970)).  Each sinh is
taken in log form, ln sinh x = x + ln(-expm1(-2x)) - ln 2 for x > 0, so the
ratio neither overflows nor loses its small tail at any tau.  The module
uses only the standard library and shares no code with diracstep.
"""

from __future__ import annotations

import math

_LN2 = math.log(2.0)


def _log_sinh(x: float) -> float:
    # x > 0
    return x + math.log(-math.expm1(-2.0 * x)) - _LN2


def kinematics(m: float, q: float, p: float, a1: float, a2: float) -> tuple[float, float, float, float]:
    """(pi1, pi2, E1, E2) of the two asymptotic plateaus."""
    pi1 = p - q * a1
    pi2 = p - q * a2
    return pi1, pi2, math.hypot(pi1, m), math.hypot(pi2, m)


def backward_probability(m: float, q: float, p: float, a1: float, a2: float, tau: float) -> float:
    """Unitary backward probability B_u of the tanh step."""
    pi1, pi2, e1, e2 = kinematics(m, q, p, a1, a2)
    delta = pi1 - pi2
    # |E2 - E1| <= |pi1 - pi2|, so both numerator factors share the sign of
    # delta and their product is |x| |y| in magnitude
    x = abs(0.5 * math.pi * tau * (delta + e2 - e1))
    y = abs(0.5 * math.pi * tau * (delta - e2 + e1))
    if x == 0.0 or y == 0.0:
        return 0.0
    log_b = (_log_sinh(x) + _log_sinh(y)
             - _log_sinh(math.pi * tau * e1) - _log_sinh(math.pi * tau * e2))
    return math.exp(log_b)


def probabilities(m: float, q: float, p: float, a1: float, a2: float, tau: float) -> tuple[float, float]:
    """(F_u, B_u) of the tanh step."""
    b = backward_probability(m, q, p, a1, a2, tau)
    return 1.0 - b, b


def sharp_backward_probability(m: float, q: float, p: float, a1: float, a2: float) -> float:
    """tau -> 0 limit of B_u: (d^2 - (E2 - E1)^2) / (4 E1 E2)."""
    pi1, pi2, e1, e2 = kinematics(m, q, p, a1, a2)
    delta = pi1 - pi2
    return (delta - (e2 - e1)) * (delta + (e2 - e1)) / (4.0 * e1 * e2)
