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


def sauter_backward_probability(m, q, p, a1, a2, tau):
    """Elementary form of B_u (the fermion Sauter-pulse coefficient).

    pi1 - pi2 = q (a2 - a1) is taken from the inputs and E2 - E1 as
    -(pi1 - pi2)(pi1 + pi2)/(E1 + E2), so a weak step keeps its relative
    accuracy.  Each sinh is taken as ln sinh u = u + ln(-expm1(-2u)) - ln 2,
    u > 0, so the ratio neither overflows nor loses its tail at large tau.
    """
    pi1, pi2 = p - q * a1, p - q * a2
    e1, e2 = math.hypot(pi1, m), math.hypot(pi2, m)
    delta = q * (a2 - a1)
    de = -delta * (pi1 + pi2) / (e1 + e2)
    x = abs(0.5 * math.pi * tau * (delta + de))
    y = abs(0.5 * math.pi * tau * (delta - de))
    if x == 0.0 or y == 0.0:
        return 0.0

    def log_sinh(u):
        return u + math.log(-math.expm1(-2.0 * u)) - math.log(2.0)

    return math.exp(log_sinh(x) + log_sinh(y)
                    - log_sinh(math.pi * tau * e1) - log_sinh(math.pi * tau * e2))


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
