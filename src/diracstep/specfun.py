"""Complex-parameter special functions for the analytic step solution.

Only the arguments the scattering problem actually visits are first class:
the Gauss hypergeometric function 2F1(a, b; c; z) for real -1 <= z <= 1/2,
plus z = 1 under Gauss summability.  Each chart of the time-dependent
solution is evaluated only on its own side of the step, where its argument
zeta = -exp(-2|t - t0|/tau) lies in [-1, 0), so no representation for
z < -1 is needed.  Parameters are generally complex; in production they are
purely imaginary (a, b) with c on the line 1 + i*R.

Accuracy strategy: among the equivalent Maclaurin representations

    direct   F(a, b; c; z)
    Euler    (1-z)^(c-a-b) F(c-a, c-b; c; z)
    Pfaff-a  (1-z)^(-a)    F(a, c-b; c; z/(z-1))
    Pfaff-b  (1-z)^(-b)    F(c-a, b; c; z/(z-1))

the one with the smallest term-growth indicator |A*B*w|/|C| is summed, which
keeps intermediate terms small and avoids the catastrophic cancellation a
naive series suffers for oscillatory parameter sets.  On the chart
arguments -1 <= z < 0 every series runs at |w| <= 1/2.

`hyp2f1_with_derivative` returns F and dF/dz from one series pass: the
series loop sums S and dS/dw together, and each transformation carries the
derivative by the chain rule, so no second representation is chosen for
F' = (a b / c) F(a+1, b+1; c+1; z).  `hyp2f1` and `hyp2f1_derivative` are
its two halves.
"""

from __future__ import annotations

import cmath
import math

__all__ = [
    "GammaPoleError",
    "DomainError",
    "ConvergenceError",
    "log_gamma",
    "hyp2f1",
    "hyp2f1_derivative",
    "hyp2f1_with_derivative",
]


class GammaPoleError(ValueError):
    """log_gamma evaluated at a non-positive integer."""


class DomainError(ValueError):
    """Argument outside the supported evaluation domain."""


class ConvergenceError(ArithmeticError):
    """Series failed to reach tolerance within the iteration cap."""


# Lanczos approximation, g = 7, 9 terms (Godfrey's coefficient set, widely
# reproduced e.g. in Numerical Recipes-derived code); ~1e-15 relative on the
# right half plane.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_LN_SQRT_2PI = 0.9189385332046727417803297364056176

SERIES_TOL = 1e-15
MAX_TERMS = 100_000


def _is_nonpositive_int(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.5 and z.real == round(z.real)


def log_gamma(z: complex) -> complex:
    """Principal branch of log Gamma.

    exp(log_gamma) satisfies the recurrence and reflection identities to
    ~1e-14 relative on |Re z|, |Im z| <= 50.  Raises GammaPoleError at the
    poles 0, -1, -2, ...
    """
    z = complex(z)
    if _is_nonpositive_int(z):
        raise GammaPoleError(f"log_gamma pole at z = {z}")
    if z.imag < 0.0:
        return log_gamma(z.conjugate()).conjugate()
    if abs(z) < 0.5:
        # near the pole at 0 the reflection below cancels in 1 - e^{2 i pi z}
        return log_gamma(1.0 + z) - cmath.log(z)
    if z.real < 0.5:
        # reflection onto Re >= 0.5 with a continuous branch of log sin(pi z)
        # on the closed upper half plane:
        #   sin(pi z) = e^{-i pi z} (e^{2 i pi z} - 1) * i/2
        lsin = (
            -1j * math.pi * z
            + cmath.log(1.0 - cmath.exp(2j * math.pi * z))
            - cmath.log(2j)
        )
        return math.log(math.pi) - lsin - log_gamma(1.0 - z) - 1j * math.pi
    w = z - 1.0
    acc = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[k] / (w + k)
    t = w + _LANCZOS_G + 0.5
    return _LN_SQRT_2PI + (w + 0.5) * cmath.log(t) - t + cmath.log(acc)


def _series(a: complex, b: complex, c: complex, z: complex) -> tuple[complex, complex]:
    # S = sum t_n and dS/dz = sum n t_n / z in one loop over u_n = t_n z^(n-1):
    # S gains u_n z and dS/dz gains n u_n.  Stop only on two consecutive
    # small terms of both sums: a single term may vanish accidentally for
    # oscillatory parameters
    tol = SERIES_TOL  # a local, read once per call rather than once per term
    term = 1.0 + 0.0j
    total = term
    deriv = 0.0 + 0.0j
    prev_small = False
    for n in range(MAX_TERMS):
        dterm = term * ((a + n) * (b + n) / (c + n))  # (n+1) u_(n+1)
        term = dterm * z / (n + 1)                     # u_(n+1) z
        total += term
        deriv += dterm
        small = (abs(term) <= tol * max(abs(total), 1e-300)
                 and abs(dterm) <= tol * max(abs(deriv), 1e-300))
        if small and prev_small:
            return total, deriv
        prev_small = small
    raise ConvergenceError(
        f"2F1 series did not converge within {MAX_TERMS} terms "
        f"(a={a}, b={b}, c={c}, z={z})"
    )


def _gauss_limit(a: complex, b: complex, c: complex) -> complex:
    # F(a, b; c; 1) = G(c) G(c-a-b) / (G(c-a) G(c-b)), Re(c-a-b) > 0
    return cmath.exp(log_gamma(c) + log_gamma(c - a - b) - log_gamma(c - a) - log_gamma(c - b))


def _best_representation(a, b, c, z) -> tuple[complex, complex]:
    # (transform, series parameters, series argument); only the chosen
    # transform's prefactor is computed
    w = z / (z - 1.0)
    candidates = []
    if abs(z) <= 0.5:
        candidates.append(("direct", a, b, c, z))
        candidates.append(("euler", c - a, c - b, c, z))
    candidates.append(("pfaff-a", a, c - b, c, w))
    candidates.append(("pfaff-b", c - a, b, c, w))

    def growth(cand):
        _, aa, bb, cc, zz = cand
        return abs(aa * bb * zz) / max(abs(cc), 1e-30)

    kind, aa, bb, cc, zz = min(candidates, key=growth)
    s, ds = _series(aa, bb, cc, zz)
    if kind == "direct":
        return s, ds
    one_minus = 1.0 - z
    if kind == "euler":
        # (1-z)^e S(z), e = c-a-b:  F' = (1-z)^e [S' - e S/(1-z)]
        e = c - a - b
        prefactor = one_minus ** e
        return prefactor * s, prefactor * (ds - e * s / one_minus)
    # (1-z)^(-e) S(z/(z-1)), e = a or b:  F' = (1-z)^(-e-1) [e S - S'/(1-z)]
    e = a if kind == "pfaff-a" else b
    prefactor = one_minus ** (-e)
    return prefactor * s, prefactor * (e * s - ds / one_minus) / one_minus


def hyp2f1_with_derivative(a: complex, b: complex, c: complex,
                           z: complex) -> tuple[complex, complex]:
    """(2F1(a, b; c; z), d/dz 2F1(a, b; c; z)) from one series evaluation.

    Supported z: real with -1 <= z <= 1/2, plus z = 1 when Re(c - a - b) > 0.
    At z = 1 the derivative is finite only when Re(c - a - b) > 1 and is nan
    otherwise.  c must not be zero or a negative integer.  Deterministic:
    identical inputs give identical output bits.
    """
    a, b, c, z = complex(a), complex(b), complex(c), complex(z)

    if _is_nonpositive_int(c):
        raise GammaPoleError(f"2F1 parameter c = {c} is a non-positive integer")
    if a == 0 or b == 0:
        return 1.0 + 0.0j, 0.0 + 0.0j
    if z == 0:
        return 1.0 + 0.0j, a * b / c
    if z == 1:
        if (c - a - b).real <= 0:
            raise DomainError(
                "2F1 at z = 1 requires Re(c - a - b) > 0 for Gauss summability"
            )
        value = _gauss_limit(a, b, c)
        if (c - a - b).real <= 1:
            return value, complex(math.nan, math.nan)
        return value, a * b / c * _gauss_limit(a + 1, b + 1, c + 1)
    if z.imag != 0.0:
        raise DomainError(f"2F1 argument must be real (or exactly 1), got z = {z}")
    x = z.real
    if not -1.0 <= x <= 0.5:
        raise DomainError(f"2F1 argument must satisfy -1 <= z <= 1/2 (or z = 1), got z = {x}")
    return _best_representation(a, b, c, z)


def hyp2f1(a: complex, b: complex, c: complex, z: complex) -> complex:
    """Gauss hypergeometric function on the domain the step problem visits.

    The value half of `hyp2f1_with_derivative`, with its domain and errors.
    """
    return hyp2f1_with_derivative(a, b, c, z)[0]


def hyp2f1_derivative(a: complex, b: complex, c: complex, z: complex) -> complex:
    """d/dz 2F1(a, b; c; z), equal to (a b / c) 2F1(a+1, b+1; c+1; z).

    The derivative half of `hyp2f1_with_derivative`; at z = 1 it raises
    DomainError unless Re(c - a - b) > 1.
    """
    deriv = hyp2f1_with_derivative(a, b, c, z)[1]
    if cmath.isnan(deriv):
        raise DomainError("d/dz 2F1 at z = 1 requires Re(c - a - b) > 1")
    return deriv
