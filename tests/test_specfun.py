import cmath
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from diracstep import specfun
from diracstep.specfun import (
    ConvergenceError,
    DomainError,
    GammaPoleError,
    Hyp2F1Plan,
    hyp2f1,
    hyp2f1_derivative,
    hyp2f1_with_derivative,
    log_gamma,
)

LN_SQRT_PI = 0.57236494292470009
LN_2 = 0.69314718055994531

# reference values computed with mpmath (dps=30)
LOGGAMMA_REFERENCE = [
    (3.5 + 20.0j, -21.498922066996628 + 44.404908452981567j),
    (-7.3 + 12.5j, -38.871233213123221 + 4.5256746687863667j),
    (0.25 - 40.0j, -62.835129518830187 - 107.1627395018991j),
    (-20.5 - 3.25j, -51.973777612346531 + 56.065566609912045j),
    (12.0 + 0.0j, 17.502307845873886 + 0.0j),
]

HYP2F1_REFERENCE = [
    ((0.3 + 0.7j), 1.1, (2.4 - 0.2j), -1.0, 0.87908416993188455 - 0.22553554634443061j),
    (2.5j, -1.5j, 1 + 3j, -1.0, 0.50427720534945975 + 0.62245288045336917j),
    (5.5j, 0.5j, 1 + 6j, -0.35, 1.0111006713122916 - 0.13865697354865804j),
    ((1.25 + 0.5j), 0.75, 3.0, 0.5, 1.2046995785273498 + 0.10052079954750623j),
]

# (a, b, c, z, 2F1, d/dz 2F1), computed with mpmath (dps=30); z in both
# bands of the representation choice, |z| <= 0.5 and 0.5 < |z| <= 1 (Pfaff
# series only), with |a - b| from 4 to 27
HYP2F1_DERIVATIVE_REFERENCE = [
    (5.5j, 0.5j, 1 + 6j, -0.35,
     1.0111006713122916 - 0.13865697354865804j, 0.0014232984915141629 + 0.35204039792277783j),
    (2.5j, -1.5j, 1 + 3j, -1.0,
     0.50427720534945975 + 0.62245288045336917j, 0.49704376688008558 - 0.28002155818593108j),
    (1.5j, -2.5j, 1 + 1j, -0.8,
     -0.08514365026417686 + 0.4293002280303794j, 0.804874042992901 + 0.1757143142492283j),
    (3j, -24j, 1 + 9j, -1.0,
     -0.26822350822648605 - 0.24545805541474985j, -2.524930741230523 + 2.4881753830786004j),
    (0.5j, -4j, 1 - 1j, -0.95,
     0.6029819066686473 - 0.5227877757688575j, 0.19499392366163595 + 0.24389054313590203j),
]


def reference_series(a, b, c, z, n_terms=400_000):
    """Test-local Maclaurin evaluation, independent of the production path.

    At the alternating boundary case z = -1 the partial sums oscillate around
    the limit, so the mean of the last two partial sums is returned; that
    cancels the leading oscillation and leaves an O(n^-3) tail.
    """
    term = 1.0 + 0j
    partial = term
    previous = 0.0 + 0j
    for n in range(n_terms):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * z
        previous = partial
        partial += term
        if abs(term) < 1e-17 * max(abs(partial), 1.0):
            return partial
    return 0.5 * (partial + previous)


def four_way_choice(a, b, c, z):
    """The representation rule the series plan replaces: of the four series,
    the smallest growth indicator |A B x|/|C| at this z, the first on ties."""
    w = z / (z - 1.0)
    candidates = []
    if abs(z) <= 0.5:
        candidates.append(("direct", a, b, c, z))
        candidates.append(("euler", c - a, c - b, c, z))
    candidates.append(("pfaff-a", a, c - b, c, w))
    candidates.append(("pfaff-b", c - a, b, c, w))
    return min(candidates, key=lambda k: abs(k[1] * k[2] * k[4]) / max(abs(k[3]), 1e-30))[0]


class TestLogGamma:
    def test_factorial_base_case(self):
        assert abs(log_gamma(1.0)) < 1e-14

    def test_half_integer(self):
        assert log_gamma(0.5).real == pytest.approx(LN_SQRT_PI, abs=1e-14)
        assert abs(log_gamma(0.5).imag) < 1e-14

    def test_gamma_four(self):
        assert log_gamma(4.0).real == pytest.approx(math.log(6.0), abs=1e-13)

    def test_poles_raise(self):
        for z in (0.0, -1.0, -2.0, -37.0):
            with pytest.raises(GammaPoleError):
                log_gamma(z)

    @pytest.mark.parametrize("z,expected", LOGGAMMA_REFERENCE)
    def test_principal_branch_box_points(self, z, expected):
        got = log_gamma(z)
        assert got == pytest.approx(expected, rel=1e-12)

    @given(st.floats(min_value=-50, max_value=50), st.floats(min_value=0.05, max_value=50))
    def test_recurrence(self, x, y):
        z = complex(x, y)
        lhs = cmath.exp(log_gamma(z + 1))
        rhs = z * cmath.exp(log_gamma(z))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @given(st.floats(min_value=-20, max_value=20), st.floats(min_value=0.05, max_value=20))
    def test_reflection(self, x, y):
        z = complex(x, y)
        lhs = cmath.exp(log_gamma(z)) * cmath.exp(log_gamma(1 - z))
        rhs = math.pi / cmath.sin(math.pi * z)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_conjugate_symmetry(self):
        z = 2.25 + 7.5j
        assert log_gamma(z.conjugate()) == log_gamma(z).conjugate()

    @pytest.mark.parametrize("z", [1e-6j, 1e-8j, 1e-12j, -1e-10j, 1e-6, -3e-7,
                                   1e-7 * (1 - 1j), -8e-7 + 6e-7j])
    def test_near_pole_at_zero(self, z):
        # Maclaurin series of ln Gamma(z) + ln z; the z^3 term is below 1e-18
        euler_gamma = 0.57721566490153286
        want = -cmath.log(z) - euler_gamma * z + math.pi ** 2 * z * z / 12
        assert abs(log_gamma(z) - want) <= 1e-14


class TestHyp2F1:
    @given(st.floats(min_value=-3, max_value=3), st.floats(min_value=-3, max_value=3),
           st.floats(min_value=0.3, max_value=3))
    def test_unit_at_origin(self, ar, br, cr):
        assert hyp2f1(complex(ar, 0.4), complex(br, -0.2), complex(cr, 0.1), 0.0) == 1.0

    def test_log_identity(self):
        # 2F1(1,1;2;z) = -ln(1-z)/z
        assert hyp2f1(1, 1, 2, -1.0) == pytest.approx(LN_2, abs=1e-14)

    def test_arctan_identity(self):
        # 2F1(1/2,1;3/2;-z^2) = arctan(z)/z, summed by a Pfaff series at w = 1/2
        assert hyp2f1(0.5, 1, 1.5, -1.0) == pytest.approx(math.pi / 4.0, abs=1e-14)

    @given(st.floats(min_value=-3, max_value=3), st.floats(min_value=-3, max_value=3),
           st.floats(min_value=0.3, max_value=3))
    def test_unit_argument_outside_domain(self, ar, br, cr):
        # z = 1 raises whether or not the series converges there
        a, b, c = complex(ar, 0.4), complex(br, -0.2), complex(cr, 0.1)
        with pytest.raises(DomainError):
            hyp2f1(a, b, c, 1.0)
        with pytest.raises(DomainError):
            hyp2f1_with_derivative(a, b, c, 1.0)

    def test_gauss_summation_requires_convergence(self):
        with pytest.raises(DomainError):
            hyp2f1(2.0, 1.5, 2.0, 1.0)  # Re(c-a-b) = -1.5

    def test_pfaff_consistency_independent_series(self):
        # both sides by series: the left at z = -1 directly, the right at the
        # Pfaff image z/(z-1) = 1/2
        a, b, c = 0.3 + 0.7j, 1.1 + 0j, 2.4 - 0.2j
        lhs = reference_series(a, b, c, -1.0)
        rhs = 2.0 ** (-a) * reference_series(a, c - b, c, 0.5)
        assert lhs == pytest.approx(rhs, rel=1e-10)
        assert hyp2f1(a, b, c, -1.0) == pytest.approx(lhs, rel=1e-10)

    @pytest.mark.parametrize("a,b,c,z,expected", HYP2F1_REFERENCE)
    def test_reference_values(self, a, b, c, z, expected):
        assert hyp2f1(a, b, c, z) == pytest.approx(expected, rel=1e-11)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            hyp2f1(1.0, 1.0, 2.0, 0.75)
        with pytest.raises(DomainError):
            hyp2f1(1.0, 1.0, 2.0, 0.2 + 0.3j)
        with pytest.raises(DomainError):
            hyp2f1(1.0, 1.0, 2.0, -1.5)
        # a or b = 0 makes the function 1 everywhere; the domain holds all the same
        with pytest.raises(DomainError):
            hyp2f1(0, 1, 2, 5.0)
        with pytest.raises(DomainError):
            hyp2f1(0, 1, 2, 0.2 + 0.3j)
        with pytest.raises(DomainError):
            hyp2f1(1, 0, 2, -1.5)

    def test_c_pole_raises(self):
        with pytest.raises(GammaPoleError):
            hyp2f1(0.5, 0.5, 0.0, -0.5)
        with pytest.raises(GammaPoleError):
            hyp2f1(0.5, 0.5, -3.0, -0.5)

    # a + 1 and c + 2 are 1e-17 i and 3e-17 i, so in every representation the
    # term ratio (A+1)(B+1)/(C+1) nearly vanishes and (A+2)(B+2)/(C+2) is
    # nearly a pole: t_2 is ~1e-19 |S| and t_3 ~1e-3 |S|.  (F, F') computed
    # with mpmath (dps=50); a rule that stopped on t_2 would miss ~1e-3 of F
    @pytest.mark.parametrize("z, series, value, slope", [
        (-0.45, "pfaff-b", 0.9335459436179354 - 0.04394009697559417j,
         0.14418256116315142 + 0.09423702956095056j),
        (0.25, "direct", 1.0370024389673855 + 0.02442527813010929j,
         0.14303935451408056 + 0.09179348671958056j),
    ])
    def test_one_small_term_does_not_stop_the_series(self, z, series, value, slope):
        a, b, c = complex(-1.0, 1e-17), complex(0.3, 0.2), complex(-2.0, 3e-17)
        plan = Hyp2F1Plan(a, b, c)
        rep = plan.select(z)
        assert rep.name == series
        x = z if rep is plan.on_z else z / (z - 1.0)
        t = [1.0]
        for n in range(3):
            t.append(t[-1] * (rep.a + n) * (rep.b + n) / (rep.c + n) * x / (n + 1))
        assert abs(t[2]) <= specfun.SERIES_TOL * abs(sum(t)) < abs(t[3])
        f, df = hyp2f1_with_derivative(a, b, c, z)
        assert abs(f - value) <= 1e-14 * abs(value)
        assert abs(df - slope) <= 1e-14 * abs(slope)

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(specfun, "MAX_TERMS", 4)
        with pytest.raises(ConvergenceError):
            hyp2f1(0.5j, 0.25j, 1 + 1j, -0.49)

    def test_deterministic(self):
        args = (1.5j, -2.5j, 1 + 3j, -0.8)
        assert hyp2f1(*args) == hyp2f1(*args)

    @given(st.floats(min_value=-4, max_value=4), st.floats(min_value=-4, max_value=4),
           st.floats(min_value=-4, max_value=4),
           st.floats(min_value=-0.99, max_value=0.45))
    def test_symmetric_in_a_b(self, ai, bi, ci, z):
        a, b, c = complex(0.2, ai), complex(-0.1, bi), complex(1.0, ci)
        lhs = hyp2f1(a, b, c, z)
        rhs = hyp2f1(b, a, c, z)
        assert rhs == pytest.approx(lhs, rel=1e-13, abs=1e-13)

    @given(st.floats(min_value=-3, max_value=3), st.floats(min_value=-3, max_value=3),
           st.floats(min_value=-3, max_value=3),
           st.floats(min_value=-0.9, max_value=0.45))
    def test_euler_transformation(self, ai, bi, ci, z):
        a, b, c = complex(0.3, ai), complex(0.6, bi), complex(1.2, ci)
        lhs = hyp2f1(a, b, c, z)
        rhs = (1 - z) ** (c - a - b) * hyp2f1(c - a, c - b, c, z)
        assert rhs == pytest.approx(lhs, rel=1e-9, abs=1e-9)


class TestSeriesPlan:
    # chart parameters: a, b purely imaginary, c = 1 +- 2i eps, with
    # tau (E1 + E2)/2 <= 200; at z = 0 every indicator is 0 and every series
    # is 1, so z = 0 is left out
    @given(st.floats(min_value=-400, max_value=400), st.floats(min_value=-400, max_value=400),
           st.floats(min_value=0, max_value=200), st.sampled_from((1.0, -1.0)),
           st.floats(min_value=-1.0, max_value=0.5).filter(lambda z: z != 0.0))
    def test_selects_as_the_four_way_rule(self, ai, bi, eps, sign, z):
        a, b, c = complex(0.0, ai), complex(0.0, bi), complex(1.0, sign * 2.0 * eps)
        assert Hyp2F1Plan(a, b, c).select(z).name == four_way_choice(a, b, c, z)


class TestHyp2F1Derivative:
    @given(st.floats(min_value=-3, max_value=3), st.floats(min_value=-3, max_value=3))
    def test_value_at_origin(self, ai, bi):
        a, b, c = complex(0.5, ai), complex(1.5, bi), 2.0 + 0.5j
        assert hyp2f1_derivative(a, b, c, 0.0) == pytest.approx(a * b / c, rel=1e-14)

    def test_matches_finite_difference(self):
        h = 1e-6
        fd = (hyp2f1(1, 1, 2, -0.9 + h) - hyp2f1(1, 1, 2, -0.9 - h)) / (2 * h)
        got = hyp2f1_derivative(1, 1, 2, -0.9)
        assert got == pytest.approx(fd, abs=1e-7)
        # d/dz [-ln(1-z)/z] = [z/(1-z) + ln(1-z)] / z^2
        assert got == pytest.approx(0.20761688351367766, abs=1e-13)

    @given(st.floats(min_value=-0.99, max_value=0.45))
    def test_vanishes_for_zero_a(self, z):
        assert hyp2f1_derivative(0.0, 1.5j, 1 + 1j, z) == 0.0
        # the first term ratio is 0, and the representation chosen keeps a
        # zero parameter, so the series is exactly (1, 0)
        assert hyp2f1_with_derivative(0.0, 1.5j, 1 + 1j, z) == (1.0, 0.0)
        assert hyp2f1_with_derivative(2.5j, 0.0, 1 + 1j, z) == (1.0, 0.0)

    @pytest.mark.parametrize("a,b,c,z,value,deriv", HYP2F1_DERIVATIVE_REFERENCE)
    def test_reference_values(self, a, b, c, z, value, deriv):
        assert hyp2f1_with_derivative(a, b, c, z) == (hyp2f1(a, b, c, z),
                                                      hyp2f1_derivative(a, b, c, z))
        assert hyp2f1(a, b, c, z) == pytest.approx(value, rel=1e-11)
        assert hyp2f1_derivative(a, b, c, z) == pytest.approx(deriv, rel=1e-11)

    @pytest.mark.parametrize("a,b,c,z,value,deriv", HYP2F1_DERIVATIVE_REFERENCE)
    def test_contiguous_form(self, a, b, c, z, value, deriv):
        contiguous = a * b / c * hyp2f1(a + 1, b + 1, c + 1, z)
        assert hyp2f1_derivative(a, b, c, z) == pytest.approx(contiguous, rel=1e-10)
