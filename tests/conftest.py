import math
import os
import random
import sys

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

# the decimal references live beside tools/census.py, which shares them
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tools"))
from decimal_reference import sharp_reference, sinh_reference  # noqa: F401


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

