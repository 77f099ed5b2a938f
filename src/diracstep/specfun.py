"""Complex-parameter special functions for the analytic step solution.

Only the arguments the scattering problem actually visits are first class:
the Gauss hypergeometric function 2F1(a, b; c; z) for real -1 <= z <= 1/2.
Each chart of the time-dependent solution is evaluated only on its own side
of the step, where its argument zeta = -exp(-2|t - t0|/tau) lies in [-1, 0),
so no representation for z < -1 or for z near 1 is needed; z = 1 itself
raises DomainError like any other point outside the domain.  Parameters are
generally complex; in production they are purely imaginary (a, b) with c on
the line 1 + i*R.

Accuracy strategy: among the equivalent Maclaurin representations

    direct   F(a, b; c; z)
    Euler    (1-z)^(c-a-b) F(c-a, c-b; c; z)
    Pfaff-a  (1-z)^(-a)    F(a, c-b; c; z/(z-1))
    Pfaff-b  (1-z)^(-b)    F(c-a, b; c; z/(z-1))

the one with the smallest term-growth indicator |A*B*x|/|C| is summed
(x = z or w = z/(z-1)), which keeps intermediate terms small and avoids the
catastrophic cancellation a naive series suffers for oscillatory parameter
sets.  On the chart arguments -1 <= z < 0 every series runs at |x| <= 1/2.

Every evaluation goes through a `Hyp2F1Plan`, built once per (a, b, c).
Direct and Euler share the argument z, Pfaff-a and Pfaff-b share w, so the
plan keeps the better of each pair by its constant g = |A*B|/|C| and the
choice at z is one comparison, g_D |z| <= g_P |w| with |z| <= 1/2; ties go
to the z pair, as the four-way minimum gives them to the first of the four.
Each kept series has a table of its term ratios rho_n = (A+n)(B+n)/(C+n),
grown on demand up to MAX_TERMS, so a term of the sum costs a complex
product by its ratio and one by the float x/(n+1).  The terms are added four
at a time and the stopping test, two moduli, is made once per pass, on the
pass's last two terms: the sum stops at the first pass whose last two terms
are small in the value and the derivative sum, so one term that vanishes by
accident does not stop it, and on a decreasing tail it stops at most three
terms later than a test of every term for two small ones in a row would.
Against the same loop in pairs with a complex division by n + 1 per term,
this and fewer attribute reads per chart spinor took the `wavefunction`
benchmark op from 1.022 to 0.921 ms at the median (seed 7, 10 alternating
pairs of 30 s runs on CPython 3.11, 10 of 10 won, parent quartile spread
0.009 ms).  The plan returns the exponent kappa of the representation's
prefactor (1-z)^kappa with the sums, so that a caller with other powers of
(1-z), such as the charts of `analytic`, takes them all in one exp.  The
charts evaluate one (a, b, c) at many z and build their plans once.

`hyp2f1_with_derivative` returns F and dF/dz from one series pass: the
series loop sums S and dS/dx together, and each transformation carries the
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
    "Hyp2F1Plan",
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


# Stirling's series (DLMF 5.11.1): B_2k / (2k (2k - 1)), k = 1..8
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
             1 / 156, -3617 / 122400)
_LN_SQRT_2PI = 0.9189385332046727417803297364056176

SERIES_TOL = 1e-15
MAX_TERMS = 100_000
# first length of a term-ratio table; it doubles when a sum runs past its end
_TABLE_START = 32


def _is_nonpositive_int(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real.is_integer()


def log_gamma(z: complex) -> complex:
    """Principal branch of log Gamma.

    One path on the closed upper half plane, the lower taken by conjugation
    (a zero imaginary part of either sign takes the upper side): the
    recurrence ln G(z) = ln G(z + n) - sum_k ln(z + k), whose principal
    logarithms add up to the principal branch there, lifts z until
    Re z >= 1 and |z| >= 10, and eight terms of Stirling's series in 1/z
    finish it.  Only for Re z < -20, where the lift would take more than
    ~30 logarithms, the reflection formula maps z to 1 - z first.

    Against 30-digit mpmath, on the lines Re z = 0 and 1 that
    `analytic.match_at_t0` visits, the error is within 9e-15 for
    |Im z| <= 10 and within 3.4e-16 |ln G(z)| for 10 < |Im z| <= 400.
    Within |Re z|, |Im z| <= 50 it is within 1.4e-15 max(1, |ln G(z)|),
    next to the poles 0 to -19 too.  Where Re z < -20 the reflection takes
    1 - e^{2 i pi z} as -2 i sin(pi f) e^{i pi f} at the exact
    f = z - round(Re z), which does not cancel next to a pole: at 320 points
    within 1e-14 to 0.1 of the poles -21 to -60 it is within
    3.5e-16 max(1, |ln G(z)|) of mpmath.  Raises GammaPoleError at the poles
    0, -1, -2, ...; Re z = -inf gives nan + nan i.
    """
    z = complex(z)
    if _is_nonpositive_int(z):
        raise GammaPoleError(f"log_gamma pole at z = {z}")
    if z.imag < 0.0:
        return log_gamma(z.conjugate()).conjugate()
    if z.imag == 0.0:
        z = complex(z.real, 0.0)  # -0.0 would put ln(z) on the lower side
    if z.real < -20.0:
        if z.real == -math.inf:
            return complex(math.nan, math.nan)
        # reflection with a continuous branch of log sin(pi z) on the closed
        # upper half plane: sin(pi z) = e^{-i pi z} (e^{2 i pi z} - 1) * i/2.
        # 1 - e^{2 i pi z} cancels next to a pole, so it is taken at the
        # exact f = z - round(Re z) as -2 i sin(pi f) e^{i pi f}
        f = z - round(z.real)
        lsin = (
            -1j * math.pi * z
            + cmath.log(-2j * cmath.sin(math.pi * f) * cmath.exp(1j * math.pi * f))
            - cmath.log(2j)
        )
        return math.log(math.pi) - lsin - log_gamma(1.0 - z) - 1j * math.pi
    lifted = 0j
    while z.real < 1.0 or abs(z) < 10.0:
        lifted += cmath.log(z)
        z += 1.0
    # w first: z * z overflows for |z| above ~1e154
    w = 1.0 / z
    w2 = w * w
    tail = 0j
    for coeff in reversed(_STIRLING):
        tail = tail * w2 + coeff
    return (z - 0.5) * cmath.log(z) - z + _LN_SQRT_2PI + w * tail - lifted


class _Representation:
    """One Maclaurin series (1-z)^kappa F(a, b; c; x) and its term-ratio table.

    The table holds rho_n = (a+n)(b+n)/(c+n), which depends only on
    (a, b, c).  It grows on demand, doubling, and never past MAX_TERMS.
    """

    __slots__ = ("name", "a", "b", "c", "kappa", "growth", "table")

    def __init__(self, name: str, a: complex, b: complex, c: complex, kappa: complex) -> None:
        self.name = name
        self.a, self.b, self.c = a, b, c
        self.kappa = kappa
        # term-growth indicator per unit |argument|
        self.growth = abs(a * b) / max(abs(c), 1e-30)
        self.table: list[complex] = []

    def sums(self, x: float) -> tuple[complex, complex]:
        """(S, dS/dx) of F(a, b; c; x) from one pass over the table.

        S = sum t_n and dS/dx = sum u_n with u_n = t_n rho_n and
        t_(n+1) = u_n (x/(n+1)), the real factor one float division, so a
        term costs a complex product by rho_n and one by a float.  The terms
        are added four at a time, t_(n+1) to t_(n+4) for n a multiple of
        four, summed among themselves before they join S (the u likewise
        for dS/dx), and the stopping test is made once per pass, on its last
        two terms: the sum stops at the first pass whose t_(n+3) and t_(n+4)
        are small, |t| <= tol |S| or |t| <= tiny against the sums at the end
        of the pass, and whose u_(n+2) and u_(n+3) are small against dS/dx.
        A single term may vanish accidentally for oscillatory parameters, so
        one small term never stops it; on a decreasing tail it stops at most
        three terms after a test of every term for two small ones in a row
        would, and at most two after a test of each pair.  The test costs two
        moduli per pass until the pass's last term is small.  Against the
        loop in pairs with t_(n+1) = (u_n x)/(n+1), a complex division, this
        loop alone took the `wavefunction` benchmark op from 1.012 to
        0.924 ms at the median (seed 7, 3 alternating pairs of 30 s runs).
        Where MAX_TERMS is not a multiple of four, the terms past the last
        whole pass below it are added one at a time and the test is made on
        the last two, so exactly MAX_TERMS terms after t_0 are tried before
        ConvergenceError.
        """
        tol = SERIES_TOL  # module settings read once per call, not per term
        max_terms = MAX_TERMS
        # |term| <= max(tol |sum|, tiny) is |term| <= tol |sum| or |term| <= tiny
        tiny = tol * 1e-300
        table = self.table
        term = 1.0 + 0.0j
        total = term
        deriv = 0.0 + 0.0j
        u = None  # the last u_n summed, once there is one
        done = 0
        while True:
            size = min(len(table), max_terms)
            for n in range(done, size - 3, 4):
                u0 = term * table[n]
                t1 = u0 * (x / (n + 1))
                u1 = t1 * table[n + 1]
                t2 = u1 * (x / (n + 2))
                u2 = t2 * table[n + 2]
                t3 = u2 * (x / (n + 3))
                u = t3 * table[n + 3]
                term = u * (x / (n + 4))
                total += t1 + t2 + t3 + term
                deriv += u0 + u1 + u2 + u
                small = tol * abs(total)
                if small < tiny:
                    small = tiny
                if abs(term) <= small and abs(t3) <= small:
                    small = tol * abs(deriv)
                    if small < tiny:
                        small = tiny
                    if abs(u) <= small and abs(u2) <= small:
                        return total, deriv
            done = size - size % 4  # the first term of the next pass
            if size == max_terms:
                break
            # a new list, not appends: an evaluation running alongside keeps
            # iterating a whole table
            a, b, c = self.a, self.b, self.c
            table = self.table = table + [
                (a + n) * (b + n) / (c + n)
                for n in range(size, min(max_terms, max(_TABLE_START, 2 * size)))]
        # the cap's last size % 4 terms, one at a time, and the test on the
        # last two
        t_prev = u_prev = None
        for n in range(done, size):
            t_prev, u_prev = term, u
            u = term * table[n]
            term = u * (x / (n + 1))
            total += term
            deriv += u
        if u_prev is not None:
            small = max(tol * abs(total), tiny)
            if abs(term) <= small and abs(t_prev) <= small:
                small = max(tol * abs(deriv), tiny)
                if abs(u) <= small and abs(u_prev) <= small:
                    return total, deriv
        raise ConvergenceError(
            f"2F1 series did not converge within {max_terms} terms "
            f"(a={self.a}, b={self.b}, c={self.c}, x={x})"
        )


class Hyp2F1Plan:
    """The series plan of 2F1(a, b; c; z) for one parameter triple.

    on_z is the better of direct and Euler, on_w the better of Pfaff-a and
    Pfaff-b, by growth constant (ties to direct and to Pfaff-a).  The two
    tables are shared by every evaluation, the results are not: the sums at
    z do not depend on which z were evaluated before.
    """

    __slots__ = ("on_z", "on_w")

    def __init__(self, a: complex, b: complex, c: complex) -> None:
        direct = _Representation("direct", a, b, c, 0j)
        euler = _Representation("euler", c - a, c - b, c, c - a - b)
        pfaff_a = _Representation("pfaff-a", a, c - b, c, -a)
        pfaff_b = _Representation("pfaff-b", c - a, b, c, -b)
        self.on_z = direct if direct.growth <= euler.growth else euler
        self.on_w = pfaff_a if pfaff_a.growth <= pfaff_b.growth else pfaff_b

    def select(self, z: float) -> _Representation:
        """The representation summed at real z, -1 <= z <= 1/2."""
        if abs(z) <= 0.5 and self.on_z.growth * abs(z) <= self.on_w.growth * abs(z / (z - 1.0)):
            return self.on_z
        return self.on_w

    def series(self, z: float) -> tuple[complex, complex, complex]:
        """(kappa, s, f) with 2F1(a, b; c; z) = (1-z)^kappa s(z) and
        d/dz 2F1 = (1-z)^kappa f(z), f = s' - kappa s/(1-z).

        The prefactor's exponent is returned rather than applied, so a
        caller with other powers of (1-z) takes them all in one exp.  f is
        written here once, for `hyp2f1_with_derivative` and the charts of
        `analytic` alike.  Where a or b is small the plan sums direct or the
        Pfaff series that keeps it, each of whose terms then carries the
        small parameter, so f = (1-z)^(-kappa) (a b / c) F(a+1, b+1; c+1; z)
        keeps its relative accuracy.
        """
        rep = self.select(z)
        kappa = rep.kappa
        one_minus = 1.0 - z
        if rep is self.on_z:
            s, ds = rep.sums(z)
        else:
            # x = z/(z-1), dx/dz = -1/(1-z)^2
            s, ds = rep.sums(z / (z - 1.0))
            ds = -ds / (one_minus * one_minus)
        return kappa, s, ds - kappa * s / one_minus


def hyp2f1_with_derivative(a: complex, b: complex, c: complex,
                           z: complex) -> tuple[complex, complex]:
    """(2F1(a, b; c; z), d/dz 2F1(a, b; c; z)) from one series evaluation.

    Supported z: real with -1 <= z <= 1/2; any other z, z = 1 included,
    raises DomainError.
    c must not be zero or a negative integer.
    Deterministic: identical inputs give identical output bits.
    """
    a, b, c, z = complex(a), complex(b), complex(c), complex(z)

    if _is_nonpositive_int(c):
        raise GammaPoleError(f"2F1 parameter c = {c} is a non-positive integer")
    if z == 0:
        return 1.0 + 0.0j, a * b / c
    if z.imag != 0.0:
        raise DomainError(f"2F1 argument must be real, got z = {z}")
    x = z.real
    if not -1.0 <= x <= 0.5:
        raise DomainError(f"2F1 argument must satisfy -1 <= z <= 1/2, got z = {x}")
    kappa, s, f = Hyp2F1Plan(a, b, c).series(x)
    # 1 - x >= 1/2: the logarithm is real
    prefactor = cmath.exp(kappa * math.log1p(-x))
    return prefactor * s, prefactor * f


def hyp2f1(a: complex, b: complex, c: complex, z: complex) -> complex:
    """Gauss hypergeometric function on the domain the step problem visits.

    The value half of `hyp2f1_with_derivative`, with its domain and errors.
    """
    return hyp2f1_with_derivative(a, b, c, z)[0]


def hyp2f1_derivative(a: complex, b: complex, c: complex, z: complex) -> complex:
    """d/dz 2F1(a, b; c; z), equal to (a b / c) 2F1(a+1, b+1; c+1; z).

    The derivative half of `hyp2f1_with_derivative`, with its domain and errors.
    """
    return hyp2f1_with_derivative(a, b, c, z)[1]
