"""Decimal references for the closed forms, stdlib only.

`sharp_reference` gives the Heaviside limit from the continuity-solve
formulas with 800 significant digits by default, and `sinh_reference` the
sinh products of the `diracstep.analytic` docstring with 1200, every input
taken exactly.  E - |pi| = m^2/(E + |pi|) takes about 2 log10(|pi|/m)
digits, so neither default resolves every input of the double range;
2400 digits do.  Neither shares code with diracstep.  The tests
(through tests/conftest.py) and tools/census.py import them from here.
"""

import math
from decimal import Decimal, localcontext


def sharp_reference(m, q, p, a1, a2, digits=800):
    """The Heaviside limit from the direct continuity-solve formulas, with
    every input taken exactly and 800 significant digits by default."""
    with localcontext() as ctx:
        ctx.prec = digits
        m, q, p, a1, a2 = (Decimal(v) for v in (m, q, p, a1, a2))
        pi1, pi2 = p - q * a1, p - q * a2
        e1, e2 = (pi1 * pi1 + m * m).sqrt(), (pi2 * pi2 + m * m).sqrt()
        alpha = (e1 + e2 - pi1 + pi2) / (2 * e2)
        beta = (e2 - e1 + pi1 - pi2) / (2 * e2)
        # standard-basis upper components times sqrt(2) m
        u_i, u_f, u_b = m + e1 - pi1, m + e2 - pi2, m - e2 - pi2
        f, b = abs(alpha * u_f / u_i), abs(beta * u_b / u_i)
        n1 = m * m + (e1 - pi1) ** 2
        n2p, n2m = m * m + (e2 - pi2) ** 2, m * m + (e2 + pi2) ** 2
        values = dict(e1=e1, e2=e2, f=f, b=b, F=f * f / (f * f + b * b),
                      B=b * b / (f * f + b * b), F_u=alpha * alpha * n2p / n1,
                      B_u=beta * beta * n2m / n1)
        return {k: float(v) for k, v in values.items()}


def sinh_reference(m, q, p, a1, a2, tau, digits=1200):
    """f, b, F_u and B_u from the sinh products of the analytic module
    docstring, with every input taken exactly.  The arguments are formed
    with 1200 significant digits by default, enough to resolve
    E - |pi| ~ m^2/|pi| at m = 1e-300; |delta| - |E2 - E1|, which can be
    |delta| m^2/pi^2 for |pi1|, |pi2| >> m, takes up to twice as many.
    Each sinh is taken in logarithms, ln sinh x = x + ln((1 - e^(-2x))/2)
    from x = 1 on: the linear parts are summed with the arguments' digits,
    so they cancel as in exact arithmetic, and the rest is taken to 40.  An
    argument far beyond the double range, such as pi tau E2 = 3e50, then
    overflows nothing."""
    def log_sinh(x):
        # (linear part, the rest to 40 digits)
        with localcontext() as ctx:
            ctx.prec = 40
            x40 = +x
            if x40 >= 1:
                return x, ((1 - (-2 * x40).exp()) / 2).ln()
            term, total, n = x40, x40, 1
            while abs(term) > abs(total) * Decimal(10) ** -40:
                term *= x40 * x40 / ((2 * n) * (2 * n + 1))
                total += term
                n += 1
            return 0, total.ln()

    def log_ratio(num, den):
        # ln(sinh num_1 sinh num_2 / (sinh den_1 sinh den_2))
        (a, ra), (b, rb), (c, rc), (d, rd) = (log_sinh(x) for x in num + den)
        return (a + b - c - d) + (ra + rb - rc - rd)

    with localcontext() as ctx:
        ctx.prec = digits
        m, q, p, a1, a2, tau = (Decimal(v) for v in (m, q, p, a1, a2, tau))
        pi1, pi2 = p - q * a1, p - q * a2
        e1, e2 = (pi1 * pi1 + m * m).sqrt(), (pi2 * pi2 + m * m).sqrt()
        delta, gap = abs(pi1 - pi2), abs(e2 - e1)
        k = Decimal(math.pi) * tau / 2  # pi rounded once: 1e-16 relative in each argument
        den = [2 * k * e1, 2 * k * e2]
        log_f_u = log_ratio([k * (e1 + e2 + delta), k * (e1 + e2 - delta)], den)
        # a trivial step's last argument is 0, and so are B_u and b
        log_b_u = log_ratio([k * (delta + gap), k * (delta - gap)], den) if delta else None
        ctx.prec = 40
        log_scale = e1.ln() - e2.ln() - (e1 + m).ln()
        values = dict(f=((log_f_u + log_scale + (e2 + m).ln()) / 2).exp(), b=0,
                      F_u=log_f_u.exp(), B_u=0)
        if log_b_u is not None:
            values["B_u"] = log_b_u.exp()
            if e2 != m:
                values["b"] = ((log_b_u + log_scale + (e2 - m).ln()) / 2).exp()
        return {name: float(v) for name, v in values.items()}
