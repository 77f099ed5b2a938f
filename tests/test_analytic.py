import cmath
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracstep import analytic, model, specfun
from diracstep.analytic import (
    ParameterRangeError,
    asymptotic_amplitudes,
    build_solution,
    match_at_t0,
    scatter,
    sharp_step,
    solve_earlier,
    solve_later,
)
from diracstep.model import StepParameters, asymptotic_modes
from diracstep.selftest import check_wavefunction

from conftest import SAUTER_CASES, sauter_case_id, sharp_reference, sinh_reference

RT3 = math.sqrt(3.0)
# solve_earlier's one refusal starts with this
_NORM_REFUSAL = re.escape("the matched spinor's norm e^(pi eps1)/cos(theta1/2) = e^(")


def mk(m=1.0, q=1.0, p=RT3, a1=0.0, a2=2 * RT3, tau=0.3, t0=0.0):
    return StepParameters(m=m, q=q, p=p, a1=a1, a2=a2, tau=tau, t0=t0)


def partner(spinor):
    """The conjugate partner (theta*, -phi*) of a chiral spinor: of a
    chart's branch, the chart's other Frobenius branch, on its unit -E
    eigenmode."""
    return model.TwoSpinor(upper=spinor.lower.conjugate(), lower=-spinor.upper.conjugate())


def rk4_to_t0(params, n_steps=40_000):
    """Independent fixed-step RK4 integration of the two-component system from
    the chart-normalized incident state at t0 - 20 tau up to t0."""
    modes = asymptotic_modes(params)
    eps1 = 0.5 * params.tau * modes.e1
    amp = math.exp(math.pi * eps1)  # incident normalization of the chart solution
    m, q, p = params.m, params.q, params.p

    def rhs(t, y):
        piv = p - q * model.potential_at(t, params)
        return (-1j * (piv * y[0] + m * y[1]), -1j * (m * y[0] - piv * y[1]))

    t = params.t0 - 20 * params.tau
    phase = cmath.exp(-1j * modes.e1 * (t - params.t0))
    y = (amp * phase, amp * (modes.e1 - modes.pi1) / m * phase)
    h = 20 * params.tau / n_steps
    for _ in range(n_steps):
        k1 = rhs(t, y)
        k2 = rhs(t + h / 2, (y[0] + h / 2 * k1[0], y[1] + h / 2 * k1[1]))
        k3 = rhs(t + h / 2, (y[0] + h / 2 * k2[0], y[1] + h / 2 * k2[1]))
        k4 = rhs(t + h, (y[0] + h * k3[0], y[1] + h * k3[1]))
        y = (
            y[0] + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
            y[1] + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]),
        )
        t += h
    return y


class TestMatchedSolution:
    def test_identities_of_constructed_solution(self):
        # the selftest's identities of the matched wavefunction; each point's
        # fourth draw goes unused, so the points stay the three this test
        # has always checked
        rng = random.Random(99)
        points = []
        for _ in range(3):
            points.append(mk(p=rng.uniform(0.4, 3.0), a2=rng.uniform(-3.0, 3.0),
                             tau=rng.uniform(0.1, 1.5)))
            rng.randrange(1 << 30)
        ok, detail = check_wavefunction(points)
        assert ok, detail


class TestBuildSolution:
    def test_exponents_match_frequencies(self):
        params = mk(tau=0.7)
        sol = build_solution(params)
        modes = asymptotic_modes(params)
        for chart, e in ((sol.earlier, modes.e1), (sol.later, modes.e2)):
            assert chart.mu == pytest.approx(-chart.sign * 0.5j * params.tau * e)
            # d ln|zeta|/dt = 2 sign / tau, so |zeta|^mu is e^(-i E (t - t0))
            assert chart.mu * 2.0 * chart.sign / params.tau == pytest.approx(-1j * e)

    def test_exp_map_consistency(self):
        # before t0 the matched solution is the zeta^-mu branch of the earlier
        # chart, the incident plane wave e^{-i E1 (t - t0)} times a constant,
        # checked at two times
        params = mk(tau=0.45)
        sol = match_at_t0(build_solution(params), params)
        modes = asymptotic_modes(params)
        t_a = params.t0 - 20 * params.tau
        t_b = params.t0 - 18 * params.tau
        s_a = solve_earlier(sol, t_a, params)
        s_b = solve_earlier(sol, t_b, params)
        expected = cmath.exp(-1j * modes.e1 * (t_b - t_a))
        assert s_b.upper / s_a.upper == pytest.approx(expected, rel=1e-8)

    def test_parameters_admissible(self):
        for tau in (1e-4, 0.3, 5.0):
            sol = build_solution(mk(tau=tau))
            for chart in (sol.earlier, sol.later):
                plan = chart.plan
                for v in (plan.a, plan.b, plan.c, plan.kappa):
                    assert cmath.isfinite(v)
                c = plan.c
                assert not (c.imag == 0 and c.real <= 0 and c.real == round(c.real))

    # the anchor, and pi2/m = +40 and -39.5, where the later backward wave's
    # upper component comes from the forward wave's lower one
    REFERENCE_POINTS = [mk(tau=0.3), mk(p=1.7, a2=-38.3, tau=0.3),
                        mk(m=0.7, q=-1.2, p=0.4, a1=0.3, a2=-23.4, tau=0.2, t0=0.8)]

    def test_residual_at_reference_point(self):
        for params in self.REFERENCE_POINTS:
            self._check_residuals(params)

    @staticmethod
    def _check_residuals(params):
        sol = match_at_t0(build_solution(params), params)
        m = params.m
        for t in (params.t0 - 2 * params.tau, params.t0, params.t0 + 2 * params.tau):
            piv = params.p - params.q * model.potential_at(t, params)
            # h balances the stencil's h^4 truncation against rounding on the
            # local variation scale
            h = 1e-2 / (math.hypot(piv, m) + 2.0 / params.tau)
            psi = [solve_earlier(sol, t + k * h, params) for k in (-2, -1, 0, 1, 2)]
            phi = [s.upper for s in psi]
            theta = [s.lower for s in psi]
            # both first-order equations, i phi' = pi phi + m theta and
            # i theta' = -pi theta + m phi, by the five-point first derivative
            dphi, dtheta = ((v[0] - 8 * v[1] + 8 * v[3] - v[4]) / (12 * h) for v in (phi, theta))
            scale = (abs(piv) + m) * math.sqrt(psi[2].norm_sq)
            assert abs(1j * dphi - piv * phi[2] - m * theta[2]) / scale < 1e-8
            assert abs(1j * dtheta + piv * theta[2] - m * phi[2]) / scale < 1e-8

    def test_range_guard(self):
        with pytest.raises(ParameterRangeError):
            build_solution(mk(tau=150.0))


# The matched spinor (phi, theta) at one time on each side of t0, at points
# chosen for the series an earlier four-way plan (direct, Euler and the two
# Pfaff forms) summed there, which still name them; every chart now sums one
# Pfaff series.  Computed once with mpmath (dps 40) from the
# incident branch alone: g_i |zeta|^(-i eps1) (1 - zeta)^(i d)
# 2F1(a', b'; c'; zeta) with zeta = -exp(2 (t - t0)/tau) continued past
# zeta = -1 by mpmath.hyp2f1, phi' by mpmath.diff and theta = (i phi' - pi phi)/m
# with pi(t) from the tanh profile; no chart, plan or connection formula of
# the program enters.  The last four are a small mass, m << |pi| (`_chart_m`),
# where i phi' - pi phi cancels to ~m^2/(2 pi) of its terms, so the
# reference takes dps 60 at m = 1e-12 and dps 280 at m = 1e-100.
_CHART_A = StepParameters(m=0.8379646270918913, q=-0.9219730999288476, p=0.6235202315771669,
                          a1=0.25144060821610803, a2=-3.475769126081495,
                          tau=0.13160317973169794, t0=0.67493816419292)
_CHART_B = StepParameters(m=1.461664716459667, q=1.1869308476850022, p=-2.6317912480901944,
                          a1=-0.5583936542669883, a2=-3.022231785378633,
                          tau=2.2303302732135806, t0=-0.7615789745553991)
_CHART_C = StepParameters(m=0.8593540143280076, q=-0.8150464623971797, p=1.302888235610582,
                          a1=0.08194777125807762, a2=0.3970493362160443,
                          tau=1.0531229848695063, t0=0.7220442168506447)
_CHART_D = StepParameters(m=1.3881088548980554, q=0.9369780424004464, p=1.8054526259113697,
                          a1=-0.11075788789847874, a2=3.4846937736361685,
                          tau=2.2092799848113, t0=-0.8050913805382456)

def _chart_m(m):
    return StepParameters(m=m, q=1.0, p=1.7, a1=0.0, a2=0.4, tau=0.3, t0=0.0)


CHART_PINNED = [
    (_CHART_A, 0.47753339459537303, "direct",
     (1.241288405815052+0.31336756062034876j), (0.5110778253608381+0.11743999767770642j)),
    (_CHART_B, -4.10707438437577, "euler",
     (-2548.891552352439+5054.021053756446j), (-7440.707509383318+14380.333645346853j)),
    (_CHART_C, -0.8576402604536149, "pfaff-a",
     (-12.036490031892578+8.114054368155287j), (-3.451084102459805+2.310145696114631j)),
    (_CHART_A, 0.6486175282465804, "pfaff-b",
     (1.2596748900132484+0.18637514433986382j), (0.5392128700694798-0.04149444401319042j)),
    (_CHART_A, 0.7539000720319388, "direct",
     (1.219239851573253+0.29337509837696385j), (0.5416405096336923-0.21908816810092052j)),
    (_CHART_D, 0.5204766103485343, "euler",
     (1860.591864842827-147.58466961647827j), (3254.6806244372456-584.0433914532814j)),
    (_CHART_D, -0.6946273812976805, "pfaff-a",
     (-418.0187937903045+2829.6655121606086j), (168.16487772546003+2491.5075604218227j)),
    (_CHART_A, 0.6815183231795049, "pfaff-b",
     (1.2532137719615677+0.20183481673981155j), (0.5429033835777847-0.08923393809187018j)),
    (_chart_m(1e-12), -0.1, "pfaff-a",
     (2.185837619206809+0.4314114260277101j), (6.613492862946861e-13+1.0475370174788113e-13j)),
    (_chart_m(1e-12), 0.6, "direct",
     (1.5856236390286118-1.5651835647618515j), (5.00062760149536e-13-7.044335509919987e-13j)),
    (_chart_m(1e-100), -0.1, "pfaff-a",
     (2.185837619206809+0.4314114260277101j), (6.613492862946861e-101+1.0475370174788112e-101j)),
    (_chart_m(1e-100), 0.6, "direct",
     (1.5856236390286118-1.5651835647618515j), (5.00062760149536e-101-7.044335509919987e-101j)),
]


def _chart_id(params, t, series):
    side = "earlier" if t <= params.t0 else "later"
    # the small-mass cases name their mass, so every id stays unique
    return f"{side}-{series}" + (f"-m={params.m:g}" if params.m < 1e-3 else "")


class TestChartEvaluation:
    def test_incident_asymptote(self):
        params = mk(tau=0.5)
        sol = match_at_t0(build_solution(params), params)
        modes = asymptotic_modes(params)
        t = params.t0 - 20 * params.tau
        got = solve_earlier(sol, t, params)
        amp = math.exp(0.5 * math.pi * params.tau * modes.e1)
        phase = cmath.exp(-1j * modes.e1 * (t - params.t0))
        assert got.upper == pytest.approx(amp * phase, rel=1e-8)
        assert got.lower == pytest.approx(amp * phase * (modes.e1 - modes.pi1) / params.m,
                                          rel=1e-8)

    def test_free_wave_when_step_trivial(self):
        params = mk(a1=1.2, a2=1.2, tau=0.4)
        sol = match_at_t0(build_solution(params), params)
        modes = asymptotic_modes(params)
        amp = math.exp(0.5 * math.pi * params.tau * modes.e1)
        for t in (-3.0, -0.2, 0.0):
            got = solve_earlier(sol, t, params)
            want = amp * cmath.exp(-1j * modes.e1 * (t - params.t0))
            assert got.upper == pytest.approx(want, rel=1e-10)
        for t in (0.0, 0.2, 3.0):
            got = solve_later(sol, t, params)
            want = amp * cmath.exp(-1j * modes.e1 * (t - params.t0))
            assert got.upper == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("params, t, phi, theta",
                             [pytest.param(params, t, phi, theta, id=_chart_id(params, t, series))
                              for params, t, series, phi, theta in CHART_PINNED])
    def test_pinned_high_precision_spinors(self, params, t, phi, theta):
        sol = match_at_t0(build_solution(params), params)
        got = solve_earlier(sol, t, params)
        scale = math.hypot(abs(phi), abs(theta))
        assert abs(got.upper - phi) <= 1e-12 * scale
        assert abs(got.lower - theta) <= 1e-12 * scale
        # theta on its own scale too: at a small mass it is ~m/|pi| of phi
        assert abs(got.lower - theta) <= 1e-12 * abs(theta)

    def test_matches_independent_integration_at_t0(self):
        params = mk(tau=0.3)
        sol = match_at_t0(build_solution(params), params)
        got = solve_earlier(sol, params.t0, params)
        ref = rk4_to_t0(params)
        assert got.upper == pytest.approx(ref[0], rel=1e-6)
        assert got.lower == pytest.approx(ref[1], rel=1e-6)

    def test_backward_branch_is_the_conjugate_partner(self):
        # the later chart's |zeta|^(-i eps2) branch, summed from its own 2F1
        # (a - 2 mu, b - 2 mu; 1 - 2 i eps2; zeta) with its unit head, times
        # sin(theta2/2), which puts it on its unit -E eigenmode, against the
        # conjugate partner of the |zeta|^(i eps2) branch that solve_later sums
        rng = random.Random(1919)
        for _ in range(40):
            m = math.exp(rng.uniform(math.log(0.3), math.log(3.0)))
            q = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)
            p = rng.uniform(-3.0, 3.0) * m
            pi2 = rng.uniform(-50.0, 50.0) * m
            a2 = (p - pi2) / q
            # tau E2 / 2 from 0.05 to 8
            tau = 2.0 * math.exp(rng.uniform(math.log(0.05), math.log(8.0))) / math.hypot(pi2, m)
            a1 = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 1.0)
            params = StepParameters(m=m, q=q, p=p, a1=a1, a2=a2, tau=tau,
                                    t0=rng.uniform(-2.0, 2.0))
            sol = build_solution(params)
            chart = sol.later
            # the charts' mu are -i eps1 and +i eps2
            eps1, eps2, d = -sol.earlier.mu.imag, chart.mu.imag, chart.nu.imag
            a, b = 1j * (d + eps1 - eps2), 1j * (d - eps1 - eps2)
            sin2 = math.exp(chart.log_sin)
            for _ in range(20):
                # |zeta| from e^-8 to 1
                t = params.t0 + 0.5 * params.tau * rng.uniform(0.0, 8.0)
                log_abs_zeta = -2.0 * ((t - params.t0) / params.tau)
                zeta = -math.exp(log_abs_zeta)
                f, df = specfun.hyp2f1_with_derivative(a, b, 1.0 - 2j * eps2, zeta)
                head = cmath.exp(-1j * eps2 * log_abs_zeta + chart.nu * math.log1p(-zeta))
                phi = head * f
                # d zeta/dt = -2 zeta / tau on the later chart
                zeta_dphi = phi * (-1j * eps2 - chart.nu * zeta / (1.0 - zeta)) + head * zeta * df
                piv = sol.modes.pi2 - sol.modes.delta * zeta / (1.0 - zeta)
                theta = (1j * (-2.0 / params.tau) * zeta_dphi - piv * phi) / m
                phi, theta = sin2 * phi, sin2 * theta
                positive = model.TwoSpinor(
                    *analytic._chart_spinor(chart, params, t))
                got = partner(positive)
                err = math.hypot(abs(got.upper - phi), abs(got.lower - theta))
                assert err <= 1e-12 * math.hypot(abs(phi), abs(theta)), (params, t)

    def test_norm_where_the_pfaff_series_cancels(self):
        # tau E2 / 2 ~ 14: on these times the earlier chart's argument would
        # run over |zeta| in (2, 8), where its Pfaff series cancels; the later
        # chart, native there, keeps the incident norm
        params = mk(m=0.83, q=-1.1, p=0.49, a1=-0.31, a2=5.2, tau=4.6)
        modes = asymptotic_modes(params)
        sol = match_at_t0(build_solution(params), params)
        incident = (math.exp(math.pi * params.tau * modes.e1)
                    * (1.0 + ((modes.e1 - modes.pi1) / params.m) ** 2))
        # the earlier chart's |zeta| = exp(2 (t - t0) / tau) runs over (2, 8)
        lo, hi = (0.5 * params.tau * math.log(x) for x in (2.0, 8.0))
        for j in range(1, 201):
            t = params.t0 + lo + (hi - lo) * j / 201
            assert solve_earlier(sol, t, params).norm_sq == pytest.approx(incident, rel=1e-9)

    def test_norm_sq_overflows_to_inf(self):
        # eps1 ~ 115 and eps1 + eps2 ~ 151 are inside the supported range, but
        # |psi|^2 at t = -400 is beyond the double range: inf, not OverflowError
        params = mk(m=1.0, q=1.0, p=3.0, a1=0.0, a2=3.0, tau=72.7)
        sol = match_at_t0(build_solution(params), params)
        early = solve_earlier(sol, -400.0, params)
        assert math.isfinite(abs(early.upper)) and math.isfinite(abs(early.lower))
        assert early.norm_sq == math.inf

    def test_evaluation_is_deterministic(self):
        params = mk(m=0.83, q=-1.1, p=0.49, a1=-0.31, a2=5.2, tau=4.6, t0=0.4)
        sol = match_at_t0(build_solution(params), params)
        # |zeta| from e^-8 to 1 in each chart
        times = [params.t0 + params.tau * (0.25 * j - 4.0) for j in range(33)]

        def spinors():
            return [(s.upper, s.lower) for s in (solve_earlier(sol, t, params) for t in times)]

        assert spinors() == spinors()

    def test_table_growth_order_leaves_no_trace(self):
        # the series tables grow in another order when the times run
        # backwards; each spinor depends on its own time only
        params = mk(m=0.83, q=-1.1, p=0.49, a1=-0.31, a2=5.2, tau=4.6, t0=0.4)
        times = [params.t0 + params.tau * (0.25 * j - 4.0) for j in range(33)]

        def spinors(ts):
            sol = match_at_t0(build_solution(params), params)
            return {t: (s.upper, s.lower)
                    for t, s in ((t, solve_earlier(sol, t, params)) for t in ts)}

        assert spinors(times) == spinors(times[::-1])

    def test_iteration_cap_bounds_the_tables(self, monkeypatch):
        params = mk(tau=2.0)
        for cap in (4, 5, 6, 7):
            sol = match_at_t0(build_solution(params), params)
            monkeypatch.setattr(specfun, "MAX_TERMS", cap)
            with pytest.raises(specfun.ConvergenceError):
                solve_later(sol, params.t0 + 0.1, params)
            for chart in (sol.earlier, sol.later):
                assert len(chart.plan.table) <= cap

    def test_one_series_per_spinor_and_two_plans_per_solution(self, monkeypatch):
        # the cost of the chart route: build_solution builds two plans, and a
        # spinor on either side of t0 sums one 2F1 series
        counts = {"plans": 0, "series": 0}
        plan_init, series = specfun.Hyp2F1Plan.__init__, specfun.Hyp2F1Plan.series

        def counting_init(plan, *args):
            counts["plans"] += 1
            plan_init(plan, *args)

        def counting_series(plan, z):
            counts["series"] += 1
            return series(plan, z)

        monkeypatch.setattr(specfun.Hyp2F1Plan, "__init__", counting_init)
        monkeypatch.setattr(specfun.Hyp2F1Plan, "series", counting_series)
        params = mk(m=0.83, q=-1.1, p=0.49, a1=-0.31, a2=5.2, tau=4.6, t0=0.4)
        sol = match_at_t0(build_solution(params), params)
        assert counts == {"plans": 2, "series": 0}
        for dt in (-4.0, -1.0, -0.1, 0.0, 0.1, 1.0, 4.0):
            before = counts["series"]
            solve_earlier(sol, params.t0 + dt * params.tau, params)
            assert counts["series"] == before + 1, dt
        assert counts["plans"] == 2

    def test_unset_coefficients_rejected(self):
        sol = build_solution(mk())
        with pytest.raises(ValueError):
            solve_earlier(sol, 0.0, mk())

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_non_finite_time_rejected(self, t):
        # inf gave NaN spinors, and NaN summed the series to its term cap
        params = mk(tau=0.3)
        sol = match_at_t0(build_solution(params), params)
        with pytest.raises(ValueError, match=f"t must be finite, got t = {t}"):
            solve_earlier(sol, t, params)

    def test_chart_overflow_guard(self):
        # 1e3 tau from t0, |ln zeta| = 2000: each side's chart variable
        # underflows to -0 instead of overflowing, and the spinor is the
        # exact plane waves of that side
        params = mk(tau=1e-3)
        sol = match_at_t0(build_solution(params), params)
        modes = asymptotic_modes(params)
        g_i = math.exp(0.5 * math.pi * params.tau * modes.e1)
        dt = 1e3 * params.tau
        early = solve_earlier(sol, params.t0 - dt, params)
        want = g_i * cmath.exp(1j * modes.e1 * dt)
        assert early.upper == pytest.approx(want, rel=1e-8)
        late = solve_later(sol, params.t0 + dt, params)
        # the later forward branch tends to (cos, sin)(theta2/2) e^(-i E2 dt),
        # and its partner to (sin, -cos)(theta2/2) e^(+i E2 dt)
        norm = math.exp(sol.log_norm)
        cos2, sin2 = math.exp(sol.later.log_cos), math.exp(sol.later.log_sin)
        want = norm * (sol.u_f * cos2 * cmath.exp(-1j * modes.e2 * dt)
                       + sol.u_b * sin2 * cmath.exp(1j * modes.e2 * dt))
        assert late.upper == pytest.approx(want, rel=1e-8)


class TestMatching:
    def test_trivial_step(self):
        params = mk(a1=0.7, a2=0.7)
        sol = match_at_t0(build_solution(params), params)
        assert abs(sol.u_b) < 1e-12 * abs(sol.u_f)
        res = asymptotic_amplitudes(sol, params)
        assert res.f == pytest.approx(1.0, abs=1e-10)

    def test_continuity_defining_property(self):
        params = mk(tau=0.6)
        sol = match_at_t0(build_solution(params), params)
        # the earlier chart at t0 and the later one a double after it, where
        # the matched solution switches between them
        early = solve_earlier(sol, params.t0, params)
        late = solve_later(sol, math.nextafter(params.t0, math.inf), params)
        mismatch = abs(early.upper - late.upper) + abs(early.lower - late.lower)
        assert mismatch / math.sqrt(early.norm_sq) < 1e-10

    def test_wronskian_value(self):
        # the determinant of each chart's two branches at t0 is the constant
        # +1 (earlier chart) or -1 (later chart): the branch not summed is
        # the conjugate partner of the one that is, so the determinant is
        # +-(|phi|^2 + |theta|^2), the unit norm of a branch on its unit
        # eigenmode
        params = mk(tau=0.8)
        sol = build_solution(params)
        for chart, want in ((sol.earlier, 1.0), (sol.later, -1.0)):
            positive = model.TwoSpinor(*analytic._chart_spinor(chart, params, params.t0))
            other = partner(positive)
            # (|zeta|^(+i eps), |zeta|^(-i eps)) in the parent's order
            f1, f2 = (other, positive) if chart.sign > 0 else (positive, other)
            det = f1.upper * f2.lower - f2.upper * f1.lower
            assert det == pytest.approx(want, rel=1e-10)

    def test_gamma_ratios_where_tau_e2_is_18(self):
        # u_f = G(c') G(b'-a')/(G(b') G(c'-a')) cos(theta1/2)/cos(theta2/2)
        # and u_b = G(c') G(a'-b')/(G(a') G(c'-b')) cos(theta1/2)/sin(theta2/2),
        # cos^2 and sin^2 of theta/2 being (E +- pi)/(2E), computed once with
        # mpmath (dps 150) from these exact binary inputs; tau E2 = 18.47 puts
        # log G(-i tau E2) at |Im z| ~ 18
        params = StepParameters(m=1.2889742354046688e-39, q=-1.7520955294161322,
                                p=-2.514692200642492, a1=0.3791218723777005,
                                a2=-3.4732809507443827, tau=2.1474068177924406)
        sol = match_at_t0(build_solution(params), params)
        for got, want in ((sol.u_f, 1 + 5.793077025807506e-79j),
                          (sol.u_b, -4.913461306642281e-45 + 3.158176684955616e-45j)):
            assert abs(got - want) <= 2e-14 * abs(want)

    @pytest.mark.parametrize("args, t0, u_f, u_b", [
        # the anchor, eps1 + eps2 = 0.6
        ((1.0, 1.0, RT3, 0.0, 2 * RT3, 0.3), 0.0,
         0.6295165422155353 + 0.13717514360129868j, 0.7647822585906129 - 1.5330622737491956e-51j),
        # selftest's asymmetric point, eps1 + eps2 = 0.92
        ((0.8, -1.3, 0.9, 0.4, -1.6, 0.6), 1.5,
         0.679611902401891 + 0.34389012578032796j, 0.6479071246834327 - 0.009143374044613658j),
        # the anchor, eps1 + eps2 = 60
        ((1.0, 1.0, RT3, 0.0, 2 * RT3, 30.0), 0.0,
         -0.9639829425838363 - 0.2659640697677192j, 1.077689705865085e-11 + 3.686926098260272e-60j),
        # delta < 0, eps1 + eps2 = 129.6
        ((1.2, 0.9, -0.7, 0.3, -2.6, 72.5), 0.0,
         0.7335154858015067 - 0.6796727389629362j, -4.747577712619396e-49 + 1.776665610720466e-48j),
    ])
    def test_amplitudes_are_the_gamma_ratios(self, args, t0, u_f, u_b):
        # u_f and u_b, phases included, against the Gamma ratios of the test
        # above, computed once with mpmath (dps 50) from these exact binary
        # inputs.  The phases are sums of log G in floats, good to ~ulp of the
        # largest term: over 6,000 draws with eps1 + eps2 in 0.5..196 (m in
        # 0.3..3, signed q, a1 != 0) |du_f| and |du_b|/|u_b| were at most 28
        # ulps per unit of max(1, eps1 + eps2); the bar is twice that, and at
        # most 5e-13
        params = StepParameters(*args, t0=t0)
        sol = match_at_t0(build_solution(params), params)
        eps_sum = 0.5 * params.tau * (sol.modes.e1 + sol.modes.e2)
        bar = min(5e-13, 1.25e-14 * max(1.0, eps_sum))
        assert abs(sol.u_f - u_f) <= bar
        assert abs(sol.u_b - u_b) <= bar * abs(u_b)

    @pytest.mark.parametrize("args", [
        (1.0, 1.0, RT3, 0.0, 2 * RT3, 0.3),  # the anchor
        (1e-100, 1.0, -1.0, 0.0, 1.0, 1.0),  # ln cos(theta1/2) = -230.6
        (0.3, -2.0, 4.0, 1.0, 3.0, 30.0),  # B_u = e^-1203, 0 as a double
        (1e-300, 1.0, 0.0, 1e300, 0.0, 1e-299),  # tau E2 = 1e-599, as its log
        (1.0, 1.0, RT3, 0.5, 0.5, 0.3),  # a trivial step, B_u = 0
    ])
    def test_log_gamma_moduli_are_the_sinh_products(self, args):
        # match_at_t0 takes |u_f| and |u_b| from the sinh products and only
        # their phases from log_gamma; through DLMF 5.4.3 and 5.4.4 the real
        # parts of its log G sums plus the half angles' logarithms are
        # (1/2) ln F_u and (1/2) ln B_u, which checks log_gamma, on Re z = 0
        # and 1, and the arrangement of `_connection_arguments` against them
        def log_gamma_gap(shift, sign, x):
            # log G(shift + i sign y) of a gap argument: y = x, or y = e^x
            # where x < 0 carries y as its logarithm, and there
            # log G(i sign y) = log G(1 + i sign y) - ln y - i sign pi/2
            if x >= 0.0:
                return specfun.log_gamma(shift + 1j * (sign * x))
            lg = specfun.log_gamma(1.0 + 1j * (sign * math.exp(x)))
            return lg if shift else lg - complex(x, math.copysign(0.5 * math.pi, sign))

        params = StepParameters(*args)
        modes = asymptotic_modes(params)
        s, xa, xcb, xb, xca, x_1, x_2 = analytic._connection_arguments(modes, params.m, params.tau)
        lc1 = model.log_half_angles(modes.pi1, modes.e1, params.m)[0]
        lc2, ls2 = model.log_half_angles(modes.pi2, modes.e2, params.m)
        log_f_u, log_b_u = analytic._log_sinh_products(modes, params.m, params.tau)
        # g_f/g_i = G(c') G(b'-a')/(G(b') G(c'-a')), times cos(theta1/2)/cos(theta2/2)
        terms = [log_gamma_gap(1.0, -1.0, x_1).real, log_gamma_gap(0.0, -1.0, x_2).real,
                 -log_gamma_gap(0.0, -1.0, xb).real, -log_gamma_gap(1.0, -1.0, xca).real,
                 lc1, -lc2]
        assert abs(sum(terms) - 0.5 * log_f_u) <= 1e-15 * max(1.0, sum(map(abs, terms)))
        if xa == 0.0:
            # 1/G(a') = 1/G(0) = 0
            assert (modes.delta, log_b_u) == (0.0, -math.inf)
            return
        # g_b/g_i = G(c') G(a'-b')/(G(a') G(c'-b')), times cos(theta1/2)/sin(theta2/2)
        terms = [log_gamma_gap(1.0, -1.0, x_1).real, log_gamma_gap(0.0, 1.0, x_2).real,
                 -log_gamma_gap(0.0, s, xa).real, -log_gamma_gap(1.0, -s, xcb).real,
                 lc1, -ls2]
        assert abs(sum(terms) - 0.5 * log_b_u) <= 1e-15 * max(1.0, sum(map(abs, terms)))

    def test_sharp_limit_of_amplitudes(self, anchor_kw):
        soft = scatter(StepParameters(tau=1e-4, **anchor_kw))
        hard = sharp_step(**anchor_kw)
        assert soft.f == pytest.approx(hard.f, abs=1e-3)
        assert soft.b == pytest.approx(hard.b, abs=1e-3)


class TestAmplitudes:
    def test_trivial_step_probabilities(self):
        res = scatter(mk(a1=-0.4, a2=-0.4, p=1.1))
        assert res.F == pytest.approx(1.0, abs=1e-12)
        assert res.B == pytest.approx(0.0, abs=1e-12)
        assert res.F_u == pytest.approx(1.0, abs=1e-9)
        assert res.B_u == pytest.approx(0.0, abs=1e-9)

    def test_anchor_sharp_values(self, anchor_kw):
        res = scatter(StepParameters(tau=1e-4, **anchor_kw))
        assert res.F == pytest.approx(0.5, abs=1e-3)
        assert res.B == pytest.approx(0.5, abs=1e-3)
        assert res.F_u == pytest.approx(0.25, abs=1e-3)
        assert res.B_u == pytest.approx(0.75, abs=1e-3)

    def test_adiabatic_suppression(self, anchor_kw):
        res = scatter(StepParameters(tau=10.0, **anchor_kw))
        assert res.B_u < 1e-6

    def test_massless_limit_when_mass_underflows(self):
        # m^2 underflows, and so does F_u ~ 1e-400, but f ~ m does not: the
        # forward gap is carried as its logarithm.  f from `sinh_reference`
        res = scatter(mk(m=1e-200, p=1.0, a2=2.0, tau=1.0))
        assert res.F_u == 0.0
        assert res.f == pytest.approx(1.7757669033229453e-200, rel=1e-13, abs=0.0)
        assert res.B_u == pytest.approx(1.0, rel=1e-15, abs=0.0)
        assert res.B == 1.0

    def test_forward_probability_when_only_m_squared_underflows(self):
        # m^2 = 1e-340 underflows, but pi tau (E1 + E2 - |pi1 - pi2|) / 2
        # = 1.6e-290 does not; F_u from 600-digit mpmath
        res = scatter(mk(m=1e-170, p=1.0, a2=2.0, tau=1e50))
        assert res.F_u == pytest.approx(3.1415926535897932e-290, rel=1e-12, abs=0.0)
        assert res.B_u == 1.0

    def test_unmatched_solution_rejected(self):
        with pytest.raises(ValueError):
            asymptotic_amplitudes(build_solution(mk()), mk())

    @given(st.floats(min_value=-5, max_value=5), st.floats(min_value=-5, max_value=5),
           st.floats(min_value=-3.5, max_value=0.9))
    @settings(max_examples=40)
    def test_normalizations(self, p, a2, log_tau):
        res = scatter(mk(p=p, a2=a2, tau=10.0 ** log_tau))
        assert abs(res.F + res.B - 1.0) <= 1e-12
        assert abs(res.F_u + res.B_u - 1.0) <= 1e-9

    @given(st.floats(min_value=-2, max_value=2))
    @settings(max_examples=20)
    def test_gauge_shift_invariance(self, shift):
        base = mk(p=1.3, a1=0.2, a2=-1.1, tau=0.45)
        shifted = StepParameters(m=base.m, q=base.q, p=base.p + base.q * shift,
                                 a1=base.a1 + shift, a2=base.a2 + shift,
                                 tau=base.tau, t0=base.t0)
        r0 = scatter(base)
        r1 = scatter(shifted)
        m0 = asymptotic_modes(base)
        m1 = asymptotic_modes(shifted)
        assert m1.e1 == pytest.approx(m0.e1, rel=1e-10)
        assert m1.e2 == pytest.approx(m0.e2, rel=1e-10)
        for attr in ("f", "b", "F", "B"):
            assert getattr(r1, attr) == pytest.approx(getattr(r0, attr), rel=1e-10, abs=1e-10)

    @given(st.floats(min_value=0.5, max_value=2.0), st.floats(min_value=-1.5, max_value=1.5),
           st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=-1.0, max_value=1.0),
           st.floats(min_value=-5.0, max_value=5.0), st.floats(min_value=-4.0, max_value=3.0),
           st.floats(min_value=0.1, max_value=10.0), st.floats(min_value=-10.0, max_value=10.0))
    def test_mass_scaling_sign_and_t0_invariance(self, m, q, p, a1, a2, log_tau, lam, shift):
        # (m, p, a1, a2, tau) -> (lam m, lam p, lam a1, lam a2, tau/lam) keeps
        # tau*E and tau*pi; (q, a1, a2) -> -(q, a1, a2) keeps pi1 and pi2
        # exactly; t0 only shifts phases
        base = StepParameters(m=m, q=q, p=p, a1=a1, a2=a2, tau=10.0 ** log_tau, t0=0.3)
        scaled = StepParameters(m=lam * m, q=q, p=lam * p, a1=lam * a1, a2=lam * a2,
                                tau=base.tau / lam, t0=base.t0)
        flipped = StepParameters(m=m, q=-q, p=p, a1=-a1, a2=-a2, tau=base.tau, t0=base.t0)
        shifted = StepParameters(m=m, q=q, p=p, a1=a1, a2=a2, tau=base.tau,
                                 t0=base.t0 + shift)
        r0 = scatter(base)
        for params in (scaled, flipped, shifted):
            r1 = scatter(params)
            for attr in ("F", "B", "F_u", "B_u"):
                assert abs(getattr(r1, attr) - getattr(r0, attr)) <= 1e-10
            assert abs(r1.B_u - r0.B_u) <= 1e-10 * r0.B_u

    def test_scatter_matches_gamma_ratio_route(self):
        # the sinh moduli against the connection-formula amplitudes of the
        # matched chart solution; every step drawn has tau (E1 + E2) <= 400,
        # as build_solution requires
        rng = random.Random(1570)
        for _ in range(200):
            params = StepParameters(
                m=math.exp(rng.uniform(math.log(0.5), math.log(2.0))),
                q=rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5),
                p=rng.uniform(-3.0, 3.0),
                a1=rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 1.0),
                a2=rng.uniform(-5.0, 5.0),
                tau=math.exp(rng.uniform(math.log(1e-4), math.log(30.0))),
                t0=rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 3.0),
            )
            direct = scatter(params)
            via_gamma = asymptotic_amplitudes(match_at_t0(build_solution(params), params),
                                              params)
            for attr in ("f", "b", "F_u", "B_u"):
                want = getattr(via_gamma, attr)
                if want > 1e-250:
                    assert abs(getattr(direct, attr) - want) <= 1e-10 * want, attr

    @pytest.mark.parametrize("m", [1e-4, 1e-8, 1e-100])
    def test_gamma_route_where_the_forward_gap_cancels(self, m):
        # pi1 = -pi2 = 1.7, so E1 + E2 - |pi1 - pi2| ~ m^2/1.7: b' formed as
        # i(d - eps2 - eps1) cancels to 0, a Gamma pole, below m ~ 1e-8
        params = StepParameters(m=m, q=1.0, p=1.7, a1=0.0, a2=3.4, tau=0.3)
        direct = scatter(params)
        via_gamma = asymptotic_amplitudes(match_at_t0(build_solution(params), params), params)
        for attr in ("F_u", "B_u"):
            want = getattr(direct, attr)
            assert abs(getattr(via_gamma, attr) - want) <= 1e-12 * want, attr

    @pytest.mark.parametrize("m, tau", [(1e-200, 0.3), (1e-100, 1e-200)])
    def test_gamma_route_where_the_forward_gap_underflows(self, m, tau):
        # tau (E1 + E2 - |pi1 - pi2|)/2 is below the double range, so b' is
        # carried as its logarithm instead of hitting the pole at 0; at
        # m = 1e-200 F_u ~ 1e-400 is 0 on both routes
        params = StepParameters(m=m, q=1.0, p=1.7, a1=0.0, a2=3.4, tau=tau)
        direct = scatter(params)
        via_gamma = asymptotic_amplitudes(match_at_t0(build_solution(params), params), params)
        for attr in ("F_u", "B_u"):
            want = getattr(direct, attr)
            assert abs(getattr(via_gamma, attr) - want) <= 1e-12 * want, attr


class TestScatteringResult:
    def test_replace_changes_only_the_named_field(self):
        res = scatter(mk())
        new = res.replace(F=0.25)
        assert new.F == 0.25 and new != res
        for name in res.fields:
            if name != "F":
                assert getattr(new, name) == getattr(res, name)
        assert res.replace() == res


# 50-digit values of (F_u, B_u) from the sinh form and of (f, b) from the
# Gamma ratios of the connection formula, computed once with mpmath from these
# exact binary inputs; 0.0 stands for a value below the double range
PINNED = [
    # weak step, q (a2 - a1) = 3e-12
    (dict(m=1.0, q=3e-12, p=1.0, a1=0.0, a2=1.0, tau=1.0),
     1.0, 6.1460111547129388816e-27, 1.0000000000003106602, 3.2472893390522942022e-14),
    (dict(m=1.0, q=1.0, p=1.0, a1=0.0, a2=4.0, tau=30.0),
     1.0, 2.5320380808481115319e-24, 0.87808221378218502116, 1.0070719586217548853e-12),
    (dict(m=1.0, q=1.0, p=1.0, a1=0.0, a2=4.0, tau=1e6),
     1.0, 0.0, 0.87808221378218502116, 0.0),
    (dict(m=1.0, q=1.0, p=1.0, a1=0.0, a2=4.0, tau=1e8),
     1.0, 0.0, 0.87808221378218502116, 0.0),
    # pi1 pi2 < 0
    (dict(m=0.8, q=-1.1, p=0.6, a1=0.4, a2=-2.5, tau=0.7),
     0.60141346800989178988, 0.39858653199010821012,
     0.70986498986599393738, 0.40157501604536439908),
]


class TestSauterForm:
    @pytest.mark.parametrize("kw, f_u, b_u, f, b", PINNED,
                             ids=[sauter_case_id(c[0]) for c in PINNED])
    def test_pinned_high_precision_values(self, kw, f_u, b_u, f, b):
        res = scatter(StepParameters(**kw))
        for got, want in ((res.F_u, f_u), (res.B_u, b_u), (res.f, f), (res.b, b),
                          (sinh_reference(**kw)["B_u"], b_u)):
            assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("kw", SAUTER_CASES,
                             ids=[sauter_case_id(c) for c in SAUTER_CASES])
    def test_scatter_matches_elementary_form(self, kw):
        res = scatter(StepParameters(**kw))
        want = sinh_reference(kw["m"], kw["q"], kw["p"], kw["a1"], kw["a2"], kw["tau"])["B_u"]
        assert abs(res.B_u - want) <= 1e-9
        assert abs(res.F_u - (1.0 - want)) <= 1e-9
        if want > 1e-300:
            assert abs(res.B_u - want) <= 1e-9 * want


class TestBelowTheNormalRange:
    """Gap arguments pi tau (...)/2 below the smallest normal double, taken
    by `_gap_arguments` as logarithms, against `sinh_reference`."""

    @pytest.mark.parametrize("kw, want", [
        # F_u ~ 6e-401 underflows, f does not
        (dict(m=1e-200, p=1.7, a2=3.4, tau=0.3), dict(f=7.754351e-201, F_u=0.0)),
        (dict(m=1e-100, p=1.7, a2=3.4, tau=1e-150), dict(f=5.882353e-101, F_u=3.460208e-201)),
        (dict(m=1e-20, p=3.0, a2=1.0, tau=1e-300), dict(b=8.333333e-22, B_u=6.944444e-43)),
        # both B_u arguments are subnormal
        (dict(m=1.0, p=1.0, a2=1e-20, tau=1e-300), dict(B_u=6.25e-42)),
        # pi tau |delta| (E1 + E2 + |pi1 + pi2|)/2 ~ 1e-321 on the way to B_u ~ 1
        (dict(m=5e-215, p=-4e-67, a2=-3.2e-60, tau=2.75e-203),
         dict(f=6.250001e-149, F_u=3.906251e-297, B_u=1.0)),
    ], ids=["m=1e-200", "m=1e-100-tau=1e-150", "m=1e-20-tau=1e-300", "a2=1e-20-tau=1e-300",
            "tiny-kinematics"])
    def test_values_that_underflowed(self, kw, want):
        params = StepParameters(q=1.0, a1=0.0, **kw)
        res = scatter(params)
        ref = sinh_reference(params.m, params.q, params.p, params.a1, params.a2, params.tau)
        for name, value in want.items():
            assert ref[name] == pytest.approx(value, rel=1e-6, abs=0.0)
            assert abs(getattr(res, name) - ref[name]) <= 1e-12 * ref[name], name

    def test_fast_steps_and_tiny_masses(self):
        # f, b, F_u and B_u to 1e-12 relative wherever they exceed 1e-290
        rng = random.Random(20261019)
        for _ in range(10):
            # m, q, p, a1, a2, tau
            args = (10.0 ** rng.uniform(-200.0, -5.0),
                    rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0), rng.uniform(-3.0, 3.0),
                    rng.uniform(-1.0, 1.0), rng.uniform(-5.0, 5.0),
                    10.0 ** rng.uniform(-300.0, -100.0))
            res = scatter(StepParameters(*args))
            for name, want in sinh_reference(*args).items():
                if want > 1e-290:
                    assert abs(getattr(res, name) - want) <= 1e-12 * want, (args, name)


class TestAcrossTheDoubleRange:
    """m, p, a1 and a2 drawn over the whole double range, tau where
    pi tau E1 and pi tau E2 are normal doubles below 1e300."""

    @staticmethod
    def _points(n):
        rng = random.Random(20261020)

        def signed(lo, hi):
            return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(lo, hi)

        for _ in range(n):
            m, q = 10.0 ** rng.uniform(-300.0, 300.0), signed(-3.0, 3.0)
            p, a1, a2 = (signed(-300.0, 300.0) for _ in range(3))
            modes = asymptotic_modes(StepParameters(m=m, q=q, p=p, a1=a1, a2=a2, tau=1.0))
            # log10 of the smallest normal double, 2.2e-308, is -307.65
            lo = max(-300.0, -307.6 - math.log10(math.pi * min(modes.e1, modes.e2)))
            hi = min(300.0, 300.0 - math.log10(math.pi * max(modes.e1, modes.e2)))
            yield m, q, p, a1, a2, 10.0 ** rng.uniform(lo, hi)

    def test_no_point_raises(self):
        # among them E1/E2 beyond the double range, m/max(|pi1|, |pi2|) below
        # it, and E2 or |pi2| far below |pi1|; 50 points against the sinh
        # products with twice the default digits
        for i, args in enumerate(self._points(300)):
            res = scatter(StepParameters(*args))
            values = [res.f, res.b, res.F_u, res.B_u]
            assert all(math.isfinite(v) for v in values), args
            assert abs(res.F_u + res.B_u - 1.0) <= 1e-12, args
            if i % 6 == 0:
                for name, want in sinh_reference(*args, digits=2400).items():
                    if want > 1e-290:
                        assert abs(getattr(res, name) - want) <= 1e-12 * want, (args, name)

    def test_heaviside_limit_at_every_point(self):
        for args in self._points(300):
            res = sharp_step(*args[:5])
            values = [res.f, res.b, res.F, res.B, res.F_u, res.B_u]
            assert all(math.isfinite(v) for v in values), args
            assert abs(res.F_u + res.B_u - 1.0) <= 1e-12, args

    @pytest.mark.parametrize("tau", [1e-308, 1e-300, 1.0])
    def test_momenta_at_the_top_of_the_range(self, tau):
        # pi1 = -pi2 = 8e307: E1 + E2 + |delta| = 3.2e308 overflows a
        # double, so the arguments are formed in decimal; B_u = b = 1 to
        # double precision in the sinh products
        args = (1.0, 1.0, 8e307, 0.0, 1.6e308, tau)
        res = scatter(StepParameters(*args))
        for name, want in sinh_reference(*args).items():
            if want > 1e-290:
                assert abs(getattr(res, name) - want) <= 1e-12 * want, name
        assert (res.b, res.B_u) == (1.0, 1.0)
        hard = sharp_step(*args[:5])
        assert (hard.b, hard.B_u) == (1.0, 1.0)

    def test_chart_route_agrees_with_scatter(self):
        # the connection formula's amplitudes (match_at_t0, then
        # asymptotic_amplitudes) against the sinh products at
        # tau (E1 + E2) = 10, at every point: draw 215 has pi tau min(E1, E2)
        # below the normal range, where the chiral amplitude ratio underflowed
        # and the route missed scatter, and draw 236 a ratio of e^715.44,
        # which was refused; the unitary amplitudes u_f and u_b form neither.
        # At t0 -+ 0.2 tau a side is refused exactly where
        # ln N = pi eps1 - ln cos(theta1/2) is beyond ln of the largest
        # double, naming it, and every other spinor is finite
        rng = random.Random(20261023)

        def signed(lo, hi):
            return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(lo, hi)

        refusals = 0
        for _ in range(300):
            m, q = 10.0 ** rng.uniform(-300.0, 300.0), signed(-3.0, 3.0)
            p, a1, a2 = (signed(-300.0, 300.0) for _ in range(3))
            modes = model.plateau_modes(m, q, p, a1, a2)
            params = StepParameters(m, q, p, a1, a2, 10.0 / (modes.e1 + modes.e2))
            sol = match_at_t0(build_solution(params), params)
            via_gamma = asymptotic_amplitudes(sol, params)
            direct = scatter(params)
            bar = 1e-10 * max(1.0, direct.f, direct.b)
            for name in ("f", "b", "F", "B", "F_u", "B_u"):
                assert abs(getattr(via_gamma, name) - getattr(direct, name)) <= bar, (
                    (m, q, p, a1, a2), name)
            lc1 = model.log_half_angles(modes.pi1, modes.e1, m)[0]
            want = 0.5 * math.pi * params.tau * modes.e1 - lc1
            assert abs(sol.log_norm - want) <= 1e-14 * max(1.0, want)
            for x in (-0.2, 0.2):
                t = params.t0 + x * params.tau
                if sol.log_norm > analytic._LOG_MAX:
                    refusals += 1
                    with pytest.raises(ParameterRangeError,
                                       match=_NORM_REFUSAL + re.escape(f"{sol.log_norm:.6g})")):
                        solve_earlier(sol, t, params)
                else:
                    psi = solve_earlier(sol, t, params)
                    assert cmath.isfinite(psi.upper) and cmath.isfinite(psi.lower), (params, x)
        assert 0 < refusals < 600

    def test_coefficient_beyond_the_range_is_refused(self):
        # tau E2 = 1e-599: the chiral ratio g_f/g_i carries G(-i tau E2) ~
        # i/(tau E2) and is e^1381.55, and match_at_t0 refused it.  The
        # unitary amplitudes take it times cos(theta1/2)/cos(theta2/2) ~
        # e^-1382, so match_at_t0 answers and they match scatter.  The
        # spinors' norm N = e^(pi eps1)/cos(theta1/2) is e^1397.95, with
        # pi1 = -1e300 and m = 1e-300, so both sides are refused by it
        params = StepParameters(1e-300, 1.0, 0.0, 1e300, 0.0, 1e-299)
        sol = match_at_t0(build_solution(params), params)
        via_gamma = asymptotic_amplitudes(sol, params)
        direct = scatter(params)
        for name in ("f", "b", "F", "B", "F_u", "B_u"):
            assert abs(getattr(via_gamma, name) - getattr(direct, name)) <= 1e-12, name
        for x in (-0.2, 0.2):
            with pytest.raises(ParameterRangeError, match=_NORM_REFUSAL + r"1397\.95\)"):
                solve_later(sol, params.t0 + x * params.tau, params)

    def test_coefficient_product_beyond_the_range_is_refused(self):
        # tau E1 = 380 and tau E2 = 3.8e-98: g_i = e^(190 pi) and g_f/g_i ~
        # 1e100 are doubles, but c_f = g_i (g_f/g_i) = e^827.16 is not; it was
        # stored as inf, and c_b as NaN.  The amplitudes need only u_f and
        # u_b; the spinors' norm N = e^(190 pi)/cos(theta1/2) = e^827.854 is
        # beyond the range, so both sides are refused by it, and tau E2 is
        # not named
        params = StepParameters(1.0, 1.0, -1e100, 0.0, -1e100, 3.8e-98)
        sol = match_at_t0(build_solution(params), params)
        res = asymptotic_amplitudes(sol, params)
        assert all(math.isfinite(v) for v in (res.f, res.b, res.F, res.B, res.F_u, res.B_u))
        for x in (-0.2, 0.2):
            with pytest.raises(ParameterRangeError, match=_NORM_REFUSAL + r"827\.854\)") as info:
                solve_later(sol, params.t0 + x * params.tau, params)
            assert "tau E2" not in str(info.value)

    def test_coefficient_product_below_the_range(self):
        # g_b/g_i underflows to 0 where (E2 + pi2)/m overflows to inf, so
        # c_b = g_i (g_b/g_i) (E2 + pi2)/m was 0 inf = NaN and every later
        # spinor NaN; the later backward branch is now the forward one's
        # partner with no mode factor, and u_b = 0 adds nothing
        args = (5.891118715673762e-233, -0.0010586524023870247, 53834696.87920547,
                2.407794096770281e+175, 1.7390190064765216e+251)
        modes = model.plateau_modes(*args)
        params = StepParameters(*args, 10.0 / (modes.e1 + modes.e2))
        # ln((E2 + pi2)/m) = ln cot(theta2/2)
        lc2, ls2 = model.log_half_angles(modes.pi2, modes.e2, params.m)
        assert lc2 - ls2 > analytic._LOG_MAX
        sol = match_at_t0(build_solution(params), params)
        assert sol.u_b == 0.0
        psi = solve_later(sol, params.t0 + 0.2 * params.tau, params)
        assert cmath.isfinite(psi.upper) and cmath.isfinite(psi.lower)
        assert abs(math.log(psi.norm_sq) - 2.0 * sol.log_norm) <= 1e-12

    @pytest.mark.parametrize("args, refused", [
        # pi1 = 8.3e282, pi2 = -2.6e114 and m = 1.7e-196, tau = 10/(E1 + E2):
        # g_f/g_i underflows, and c_f theta was 0 inf; the later chart's
        # lower (E2 - pi2)/m overflows, and that side was refused.  On its
        # unit eigenmode the chart overflows nowhere, and N = e^15.71
        ((1.7173301279885868e-196, -0.14774443026220513, -2.618135928795297e+114,
          5.619784929009988e+283, -7.161451251464571e+100, 1.2043956744148708e-282), ()),
        # pi1 = -1e200 and pi2 = -1.1e200, m = 1e-200: both charts' lower
        # overflow, and N = e^923.298 is beyond the range
        ((1e-200, 1.0, -1e200, 0.0, 1e199, 1e-200), ("earlier", "later")),
        # m = 5e-324, pi1 = 1 and pi2 = -3 or 5: cos(theta1/2)/m overflows,
        # and that inf times the lower term's exact 0 was NaN on both sides;
        # m divides that term last
        ((5e-324, 1.0, 1.0, 0.0, 4.0, 1.0), ()),
        ((5e-324, 1.0, 1.0, 0.0, -4.0, 1.0), ()),
    ])
    def test_a_chart_lower_beyond_the_range_is_refused(self, args, refused):
        # pi < 0 and m << |pi|: a chart's lower (E - pi)/m overflowed to inf,
        # and its spinors were NaN.  Each side is now answered with
        # |psi| = N, or refused by N, while the amplitudes, which need only
        # u_f and u_b, are still given
        params = StepParameters(*args)
        sol = match_at_t0(build_solution(params), params)
        assert asymptotic_amplitudes(sol, params).F_u == scatter(params).F_u
        for side, x in (("earlier", -0.2), ("later", 0.2)):
            t = params.t0 + x * params.tau
            if side in refused:
                with pytest.raises(ParameterRangeError, match=_NORM_REFUSAL):
                    solve_earlier(sol, t, params)
            else:
                psi = solve_earlier(sol, t, params)
                assert cmath.isfinite(psi.upper) and cmath.isfinite(psi.lower)
                assert abs(math.log(psi.norm_sq) - 2.0 * sol.log_norm) <= 1e-12, side

    def test_a_coefficient_times_a_chart_lower_beyond_the_range_is_refused(self):
        # draw 3 of the chart-route probe: c_f = 1.0e247 and the later
        # chart's lower (E2 - pi2)/m = 3.5e170 were doubles, but c_f theta
        # was not, and the later spinor at t0 + 0.2 tau was -inf + inf i.
        # The norm N = e^(pi eps1)/cos(theta1/2) = e^961.468 of the matched
        # spinor is beyond the range: both sides are refused by it
        args = (1.0487738141823337e-276, -19.578726679048525, 5.440233947091657e-150,
                -1.4662355006557483e+133, -9.490275316427631e-108)
        modes = model.plateau_modes(*args)
        params = StepParameters(*args, 10.0 / (modes.e1 + modes.e2))
        sol = match_at_t0(build_solution(params), params)
        assert asymptotic_amplitudes(sol, params).F_u == scatter(params).F_u
        for x in (-0.2, 0.2):
            with pytest.raises(ParameterRangeError, match=_NORM_REFUSAL + r"961\.468\)"):
                solve_later(sol, params.t0 + x * params.tau, params)

    @pytest.mark.parametrize("x", [0.05, 0.2])
    def test_later_side_where_tau_e1_is_subnormal(self, x):
        # tau E1 = 6.1e-311 is subnormal: the later chart's lower
        # (E2 - pi2)/m overflowed, and the later side was refused.  On its
        # unit eigenmode it is answered, with ln|psi|^2 = 2 ln N to 1e-12.
        # (The earlier side's theta is off there, by up to 4.5e-7 in the
        # norm, as the earlier plan's f keeps few bits; that is not pinned.)
        params = StepParameters(7.860244442015603e-96, 495.12812960580635,
                                2.5908347624842284e-264, 2.257971556520177e-215,
                                2.5956354406326036e+213, 7.781058924088977e-216)
        sol = match_at_t0(build_solution(params), params)
        psi = solve_later(sol, params.t0 + x * params.tau, params)
        assert abs(math.log(psi.norm_sq) - 2.0 * sol.log_norm) <= 1e-12

    def test_matching_where_tau_e2_is_below_the_range(self):
        # tau E2 = 2e-394 underflows to 0, where log G(-i tau E2) hit its
        # pole; it is taken from ln(tau E2) now
        args = (1.680540269785933e-223, 0.3453255952122716, 2.662986532830128e-186,
                -1.0237106796857998e+298, 2.0913201617698692e-97, 2.8287462872016543e-297)
        params = StepParameters(*args)
        via_gamma = asymptotic_amplitudes(match_at_t0(build_solution(params), params), params)
        direct = scatter(params)
        for name in ("f", "b", "F", "B", "F_u", "B_u"):
            assert abs(getattr(via_gamma, name) - getattr(direct, name)) <= 1e-10, name

    def test_backward_gap_beyond_the_range(self):
        # k (E1 + E2 - |pi1 + pi2|) = 3e400 overflows and |delta|/(E1 + E2) =
        # 5e-371 underflows, so their product is inf 0 = NaN, and b, F, B and
        # B_u were NaN; the adiabatic limit is exact in the sinh products
        args = (1e200, 1.0, 0.0, 1e-170, 0.0, 1e200)
        res = scatter(StepParameters(*args))
        assert sinh_reference(*args) == dict(f=1.0, b=0.0, F_u=1.0, B_u=0.0)
        assert (res.f, res.b, res.F, res.B, res.F_u, res.B_u) == (1.0, 0.0, 1.0, 0.0, 1.0, 0.0)

    def test_unlike_numerator_lifted_back_into_range(self):
        # pi1 pi2 = -1e347 overflows a double; an order of the unlike-sign
        # numerator that passed through a subnormal ~1e-322 before k lifted
        # it back into range printed F_u = 1.605e-241, where the sinh
        # products give 1.5708e-241
        args = (1e-94, 1.0, 0.0, 1e133, -1e214, 1e80)
        res = scatter(StepParameters(*args))
        for name, want in sinh_reference(*args, digits=2400).items():
            assert abs(getattr(res, name) - want) <= 1e-12 * want, name

    def test_energy_far_below_the_momenta(self):
        # E1 = m = 1e-200, E2 = 1e150: m^2 and the quotient E1/(E2 (E1 + m))
        # underflow, so the half-logarithm of f^2/F_u is taken term by term;
        # all four values are 1/2 to 40 digits in the sinh products
        args = (1e-200, 1.0, 0.0, 0.0, 1e150, 1e-100)
        res = scatter(StepParameters(*args))
        for name, want in sinh_reference(*args).items():
            assert want == 0.5
            assert abs(getattr(res, name) - want) <= 4e-13 * want, name


class TestGapFormula:
    """`_gap_arguments` evaluates the one formula, `_gap_formula`, on floats
    where nothing leaves the normal range, and on Decimals elsewhere."""

    @staticmethod
    def _ordinary_points(n):
        rng = random.Random(20261025)
        for _ in range(n):
            m = 10.0 ** rng.uniform(-2.0, 1.0)
            q = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, 1.0)
            p, a1, a2 = rng.uniform(-5.0, 5.0), rng.uniform(-3.0, 3.0), rng.uniform(-10.0, 10.0)
            yield m, model.plateau_modes(m, q, p, a1, a2), 10.0 ** rng.uniform(-12.0, 10.0)

    @pytest.mark.parametrize("c", [0.5 * math.pi, 0.5])
    def test_ordinary_points_take_the_float_formula(self, c):
        from decimal import Context, Decimal, localcontext

        for m, modes, tau in self._ordinary_points(200):
            kinematics = (modes.e1, modes.e2, modes.pi1, modes.pi2, abs(modes.delta), m)
            args = analytic._gap_arguments(modes, m, c, tau)
            assert args == analytic._gap_formula(*kinematics, c * tau)[:6], (m, modes, tau)
            with localcontext(Context(prec=40)):
                exact = analytic._gap_formula(*map(Decimal, kinematics),
                                              Decimal(c) * Decimal(tau))[:6]
            for got, want in zip(args, exact):
                assert abs(Decimal(got) - want) <= Decimal(2e-15) * want, (m, modes, tau)


class TestSharpStep:
    def test_anchor_closed_form(self, anchor_kw):
        res = sharp_step(**anchor_kw)
        assert res.f == pytest.approx(0.5, rel=1e-12)
        assert res.b == pytest.approx(0.5, rel=1e-12)
        assert res.F == pytest.approx(0.5, rel=1e-12)
        assert res.B == pytest.approx(0.5, rel=1e-12)
        assert res.F_u == pytest.approx(0.25, rel=1e-12)
        assert res.B_u == pytest.approx(0.75, rel=1e-12)

    def test_trivial(self):
        res = sharp_step(m=1, q=1, p=0.8, a1=1.5, a2=1.5)
        assert res.F == 1.0
        assert res.B == 0.0

    def test_backscatter_dies_at_high_momentum(self):
        # monotone pass-through decay sets in beyond the lobe at p ~ 3
        values = [sharp_step(m=1, q=1, p=p, a1=0.0, a2=2.0).B
                  for p in (3.0, 4.0, 6.0, 8.0, 16.0, 32.0)]
        assert all(b2 < b1 for b1, b2 in zip(values, values[1:]))
        assert values[-1] < 1e-3

    def test_trend_agrees_with_integrator(self):
        from diracstep import compare

        hard = sharp_step(m=1, q=1, p=4.0, a1=0.0, a2=2.0)
        num = compare(mk(p=4.0, a2=2.0, tau=1e-4)).numeric
        assert num.b == pytest.approx(hard.b, abs=1e-3)

    def test_degenerate_late_momentum_is_exact_limit(self):
        # pi2 = 0: the backward mode's standard-basis upper component vanishes
        # identically, so b = 0 exactly and F = 1
        res = sharp_step(m=1, q=1, p=1.0, a1=0.0, a2=1.0)
        assert res.b == 0.0
        assert res.F == 1.0
        assert res.B_u > 0.0  # the unitary channel still sees the backward mode

    def test_matches_a_decimal_reference_at_large_momenta(self):
        # the continuity solve's own formulas in 800-digit decimal arithmetic,
        # enough to resolve E - |pi| at |pi| = 1e300; weak steps (pi1 ~ pi2)
        # and strong ones, on both signs of pi1 and pi2.  |q| = 1, so that
        # p - q A rounds once and the reference measures the solve, not the
        # conditioning of forming pi from the inputs
        rng = random.Random(20261018)
        cases = [(1.0, 1.0, 1e4, 0.0, 1.0), (1.0, 1.0, 1e6, 0.0, 1.0),
                 (1.0, 1.0, 1e155, 0.0, 1.0), (1.0, 1.0, 1.0, 0.0, 1e200),
                 (1.0, 1.0, 1e300, 0.0, -1e300), (1.0, -1.0, -1e300, 1.0, 3e299)]
        for _ in range(200):
            scale = 10.0 ** rng.uniform(0.0, 300.0)
            p = rng.choice((-1.0, 1.0)) * scale
            step = rng.choice((rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0) * scale))
            cases.append((math.exp(rng.uniform(-1.5, 1.5)), rng.choice((-1.0, 1.0)), p,
                          rng.uniform(-1.0, 1.0), step))
        for m, q, p, a1, a2 in cases:
            res = sharp_step(m=m, q=q, p=p, a1=a1, a2=a2)
            ref = sharp_reference(m, q, p, a1, a2)
            for name, want in ref.items():
                got = getattr(res.modes if name in ("e1", "e2") else res, name)
                # below 1e-290 a value may be lost to underflow
                assert abs(got - want) <= 1e-14 * abs(want) + 1e-290, (
                    (m, q, p, a1, a2), name, got, want)
