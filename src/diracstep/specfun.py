"""Complex-parameter special functions for the analytic step solution.

Only the arguments the scattering problem actually visits are first class:
the Gauss hypergeometric function 2F1(a, b; c; z) for real -1 <= z <= 0.
Each chart of the time-dependent solution is evaluated only on its own side
of the step, where its argument zeta = -exp(-2|t - t0|/tau) lies in [-1, 0),
so that is the domain; any other z raises DomainError.  a and b are
generally complex and c needs Re c >= 1, and all three must be finite,
DomainError elsewhere; in production a and b are purely imaginary and c
lies on the line 1 + i*R, which the Pfaff forms keep.  log_gamma likewise
takes Re z >= 0, z != 0: the connection coefficients need only its
imaginary part, their phases, and only on the line Re z = 1
(`analytic.match_at_t0`); no route reads Re ln G.

Accuracy strategy: 2F1 is summed as one of its two Pfaff forms (DLMF 15.8.1)

    Pfaff-a  (1-z)^(-a)    F(a, c-b; c; w)
    Pfaff-b  (1-z)^(-b)    F(c-a, b; c; w),     w = z/(z-1),

the one with the smaller term-growth indicator |A*B|/|C|, chosen once per
(a, b, c), ties to Pfaff-a.  This keeps intermediate terms small and avoids
the catastrophic cancellation a naive series suffers for oscillatory
parameter sets, and on -1 <= z <= 0 the series runs at 0 <= w <= 1/2.  The
accuracy is vouched for on the chart parameter family (a, b purely
imaginary, c on 1 + i*R, as `analytic.build_solution` builds them), against
high-precision references in the tests; for general complex parameters it
is not.

Every evaluation goes through a `Hyp2F1Plan`, built once per (a, b, c),
which holds the kept series and a table of its term ratios
rho_n = (A+n)(B+n)/(C+n).  Its `series` sums at one z in one loop, which
grows the table when it reaches the end, so a term of the sum costs a
complex product by its ratio and one by the float w/(n+1).  The terms are
added four at a time, and the series stops at the first pass whose last
term, times a bound on the rest of the series, is small in the value and in
the derivative sum: as Re C >= 1, the ratio of every term after the n-th to
the one before is at most r = |w| (1 + |A|/n) (1 + |B - C|/(Re C + n)), so
the rest is at most r/(1 - r) times the last term.  A term made small by a
factor A + k or B + k that nearly vanishes does not stop the sum before
ratios above 1 (a large real B) lift it again.  A last term of exactly 0
stops it too, as every later term of the recurrence is 0.
MAX_TERMS is counted in whole passes, rounded down to a multiple of four.
`series` returns the exponent kappa of the series' prefactor
(1-z)^kappa beside the two sums, so that a caller with other powers of
(1-z), such as the charts of `analytic`, takes them all in one exp.  The
charts evaluate one (a, b, c) at many z and build their plans once.

`hyp2f1_with_derivative` returns F and dF/dz from one series pass: the
series loop sums S and dS/dw together, and the Pfaff transformation carries
the derivative by the chain rule, so no second series is summed for
F' = (a b / c) F(a+1, b+1; c+1; z).  `hyp2f1` and `hyp2f1_derivative` are
its two halves.
"""

from __future__ import annotations

import cmath
import math

__all__ = [
    "DomainError",
    "ConvergenceError",
    "Hyp2F1Plan",
    "log_gamma",
    "hyp2f1",
    "hyp2f1_derivative",
    "hyp2f1_with_derivative",
]


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


def log_gamma(z: complex) -> complex:
    """Principal branch of log Gamma on the closed right half plane.

    One path on the closed upper half plane, the lower taken by conjugation:
    the recurrence ln G(z) = ln G(z + n) - sum_k ln(z + k), whose principal
    logarithms add up to the principal branch there, lifts z until
    Re z >= 1 and |z| >= 10, and eight terms of Stirling's series in 1/z
    finish it.

    Against 30-digit mpmath, on the lines Re z = 0 and 1 (`analytic.match_at_t0`
    reads Im ln G on Re z = 1 alone), the error is within 9e-15 for
    |Im z| <= 10 and within 3.4e-16 |ln G(z)| for 10 < |Im z| <= 400.
    Raises DomainError where not Re z >= 0 (a NaN included) and at the pole
    z = 0.
    """
    z = complex(z)
    if not z.real >= 0.0 or z == 0:
        raise DomainError(f"log_gamma needs Re z >= 0 and z != 0, got z = {z}")
    if z.imag < 0.0:
        return log_gamma(z.conjugate()).conjugate()
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


class Hyp2F1Plan:
    """The series plan of 2F1(a, b; c; z) for one parameter triple: the
    better of its two Pfaff series and that series' term-ratio table.

    Of Pfaff-a (1-z)^(-a) F(a, c-b; c; w) and Pfaff-b (1-z)^(-b)
    F(c-a, b; c; w), w = z/(z-1), the plan keeps the one with the smaller
    |A B|/|C|, ties to Pfaff-a; a, b and c are then that series' parameters
    A, B and C, and kappa is the exponent of its prefactor (1-z)^kappa.
    The table holds rho_n = (a+n)(b+n)/(c+n), which depends only on
    (a, b, c).  It grows on demand, doubling, and never past MAX_TERMS; it
    is shared by every evaluation, the results are not: the series at z
    does not depend on which z were evaluated before.  Raises DomainError
    where not Re c >= 1 (a NaN included) and where a, b or c is not finite.
    """

    __slots__ = ("a", "b", "c", "kappa", "reach", "table")

    def __init__(self, a: complex, b: complex, c: complex) -> None:
        if not c.real >= 1.0:
            raise DomainError(f"2F1 needs Re c >= 1, got c = {c}")
        # a NaN or inf parameter makes NaN terms, which would run to MAX_TERMS
        if not (cmath.isfinite(a) and cmath.isfinite(b) and cmath.isfinite(c)):
            raise DomainError(f"2F1 needs finite a, b and c, got a = {a}, b = {b}, c = {c}")
        # both series have C = c, so |A B| alone decides
        if abs(a * (c - b)) <= abs((c - a) * b):
            self.a, self.b, self.kappa = a, c - b, -a
        else:
            self.a, self.b, self.kappa = c - a, b, -b
        self.c = c
        # (|a|, |b - c|, Re c), which bound the later term ratios (`series`)
        self.reach = (abs(self.a), abs(self.b - c), c.real)
        self.table: list[complex] = []

    def series(self, z: float) -> tuple[complex, complex, complex]:
        """(kappa, s, f) with 2F1(a, b; c; z) = (1-z)^kappa s(z) and
        d/dz 2F1 = (1-z)^kappa f(z), f = s' - kappa s/(1-z), for real
        -1 <= z <= 0, from one pass over the table at x = w = z/(z-1),
        0 <= x <= 1/2.

        s = sum t_n and s' = -(ds/dx)/(1-z)^2 with ds/dx = sum u_n,
        u_n = t_n rho_n and t_(n+1) = u_n (x/(n+1)), the real factor one
        float division, so a term costs a complex product by rho_n and one
        by a float.  The terms are added four at a time, t_(n+1) to t_(n+4)
        for n a multiple of four, summed among themselves before they join
        s (the u likewise for ds/dx).  Let m = n + 4 be the end of a pass.
        For k >= m, |a + k|/k <= 1 + |a|/m and, as Re c >= 1,
        |b + k|/|c + k| <= 1 + |b - c|/(Re c + m), so
        r = |x| (1 + |a|/m) (1 + |b - c|/(Re c + m)) bounds every later ratio
        t_(k+1)/t_k = rho_k x/(k+1) and u_k/u_(k-1) = rho_k x/k, and where
        r < 1 the rest of each sum is at most r/(1 - r) times the pass's
        last term, t_m or u_(m-1).  The sum stops at the first pass where
        that last term times max(1, r/(1 - r)) is at most tol |s| (or tiny,
        for s ~ 0), and the same for ds/dx; a small term before ratios
        above 1 (a large real b) thus does not stop it.  A last term of
        exactly 0 stops it too, as every later term of the recurrence is
        then 0: a terminating series, or terms fallen below the double
        range.  r is formed only once both last terms are small, so an
        ordinary pass costs one modulus.  A pass that reaches the end of
        the table first grows it.  MAX_TERMS is counted in whole passes,
        rounded down to a multiple of four, and ConvergenceError names the
        number of terms tried.

        The prefactor's exponent is returned rather than applied, so a
        caller with other powers of (1-z) takes them all in one exp.  f is
        written here once, for `hyp2f1_with_derivative` and the charts of
        `analytic` alike.  Where the original a or b is small the plan sums
        the Pfaff series that keeps it, each of whose terms then carries the
        small parameter, but f = s' - kappa s/(1-z) is a difference, which
        cancels by about |c|/|c - b| of the series' (a, b, c) where a and b
        are both small against c.
        """
        tol = SERIES_TOL  # module settings read once per call, not per term
        max_terms = MAX_TERMS - MAX_TERMS % 4
        # |term| <= max(tol |sum|, tiny) is |term| <= tol |sum| or |term| <= tiny
        tiny = tol * 1e-300
        # w = z/(z-1), dw/dz = -1/(1-z)^2
        x = z / (z - 1.0)
        table = self.table
        size = len(table)
        term = 1.0 + 0.0j
        total = term
        deriv = 0.0 + 0.0j
        # a table longer than max_terms (grown under a larger cap) is read
        # only up to it
        for n in range(0, max_terms, 4):
            if n == size:
                # a new list, not appends: an evaluation running alongside
                # keeps iterating a whole table
                a, b, c = self.a, self.b, self.c
                table = self.table = table + [
                    (a + k) * (b + k) / (c + k)
                    for k in range(size, min(max_terms, max(_TABLE_START, 2 * size)))]
                size = len(table)
            u0 = term * table[n]
            t1 = u0 * (x / (n + 1))
            u1 = t1 * table[n + 1]
            t2 = u1 * (x / (n + 2))
            u2 = t2 * table[n + 2]
            t3 = u2 * (x / (n + 3))
            u3 = t3 * table[n + 3]
            term = u3 * (x / (n + 4))
            total += t1 + t2 + t3 + term
            deriv += u0 + u1 + u2 + u3
            small = tol * abs(total)
            if small < tiny:
                small = tiny
            if abs(term) <= small:
                small_d = tol * abs(deriv)
                if small_d < tiny:
                    small_d = tiny
                if abs(u3) <= small_d:
                    size_a, size_bc, re_c = self.reach
                    m = n + 4.0
                    r = abs(x) * (1.0 + size_a / m) * (1.0 + size_bc / (m + re_c))
                    # max(1, r/(1 - r)) is 1 for r <= 1/2
                    if (not term or r <= 0.5 or r < 1.0
                            and max(abs(term) / small, abs(u3) / small_d) * r <= 1.0 - r):
                        one_minus = 1.0 - z
                        kappa = self.kappa
                        return (kappa, total,
                                -deriv / (one_minus * one_minus) - kappa * total / one_minus)
        raise ConvergenceError(
            f"2F1 series did not converge within {max_terms} terms "
            f"(a={self.a}, b={self.b}, c={self.c}, x={x})"
        )


def hyp2f1_with_derivative(a: complex, b: complex, c: complex,
                           z: complex) -> tuple[complex, complex]:
    """(2F1(a, b; c; z), d/dz 2F1(a, b; c; z)) from one series evaluation.

    Supported: Re c >= 1, finite a, b and c, and real z with -1 <= z <= 0;
    any other parameters or z raise DomainError, the parameters checked
    first.  At z = 0 the series gives 1 and a b / c.  Deterministic:
    identical inputs give identical output bits.  The values are vouched
    for only on the chart parameter family (a, b purely imaginary, c on
    1 + i*R): for general complex parameters the kept series' terms can
    grow far beyond the sum and cancel, and the result can be wrong with
    no error raised.
    """
    a, b, c, z = complex(a), complex(b), complex(c), complex(z)

    plan = Hyp2F1Plan(a, b, c)
    if z.imag != 0.0:
        raise DomainError(f"2F1 argument must be real, got z = {z}")
    x = z.real
    if not -1.0 <= x <= 0.0:
        raise DomainError(f"2F1 argument must satisfy -1 <= z <= 0, got z = {x}")
    kappa, s, f = plan.series(x)
    # 1 - x >= 1: the logarithm is real
    prefactor = cmath.exp(kappa * math.log1p(-x))
    return prefactor * s, prefactor * f


def hyp2f1(a: complex, b: complex, c: complex, z: complex) -> complex:
    """Gauss hypergeometric function on the domain the step problem visits.

    The value half of `hyp2f1_with_derivative`, with its domain, errors
    and accuracy: vouched for only on the chart parameter family (a, b
    purely imaginary, c on 1 + i*R), not for general complex parameters.
    """
    return hyp2f1_with_derivative(a, b, c, z)[0]


def hyp2f1_derivative(a: complex, b: complex, c: complex, z: complex) -> complex:
    """d/dz 2F1(a, b; c; z), equal to (a b / c) 2F1(a+1, b+1; c+1; z).

    The derivative half of `hyp2f1_with_derivative`, with its domain, errors
    and accuracy.
    """
    return hyp2f1_with_derivative(a, b, c, z)[1]
