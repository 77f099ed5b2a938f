import math
import random

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

from diracstep import StepParameters
from diracstep.selftest import ANCHOR


@pytest.fixture
def anchor_kw():
    """Hand-checkable kinematics: E1 = E2 = 2, pi1 = -pi2 = sqrt(3)."""
    return dict(ANCHOR)


@pytest.fixture
def anchor_params(anchor_kw):
    return StepParameters(tau=0.3, **anchor_kw)


def _sauter_cases():
    rng = random.Random(1970)
    cases = [dict(m=1.0, q=1.0, p=1.7, a1=0.0, a2=3.4, tau=tau, t0=0.0)
             for tau in (30.0, 50.0, 100.0)]
    # tiny tau: the Gamma arguments a', b' sit next to the pole at 0
    cases += [dict(m=0.8, q=-1.1, p=0.6, a1=0.4, a2=-2.5, tau=tau, t0=1.5)
              for tau in (1e-12, 1e-10)]
    for k in range(70):
        cases.append(dict(
            m=math.exp(rng.uniform(math.log(0.5), math.log(2.0))),
            q=rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5),
            p=rng.uniform(-3.0, 3.0),
            a1=rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 1.0),
            a2=rng.uniform(-5.0, 5.0),
            # one log-uniform draw per tenth of a decade of 1e-4..1e3
            tau=10.0 ** (-4.0 + (k + rng.random()) / 10.0),
            t0=rng.uniform(-3.0, 3.0),
        ))
    return cases


SAUTER_CASES = _sauter_cases()


def sauter_case_id(c):
    return f"p={c['p']:.3g}-a2={c['a2']:.3g}-tau={c['tau']:.3g}"


def sharp_reference(m, q, p, a1, a2):
    """The Heaviside limit from the direct continuity-solve formulas, with
    every input taken exactly and 800 significant digits."""
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 800
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
    from decimal import Decimal, localcontext

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
