import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracstep import analytic, model, specfun
from diracstep.analytic import (
    ParameterRangeError,
    asymptotic_amplitudes,
    build_solution,
    governing_frequency,
    match_at_t0,
    scatter,
    sharp_step,
    solve_earlier,
    solve_later,
)
from diracstep.model import StepParameters, asymptotic_modes
from diracstep.selftest import residual_max

from conftest import SAUTER_CASES, sauter_backward_probability, sauter_case_id

RT3 = math.sqrt(3.0)


def mk(m=1.0, q=1.0, p=RT3, a1=0.0, a2=2 * RT3, tau=0.3, t0=0.0):
    return StepParameters(m=m, q=q, p=p, a1=a1, a2=a2, tau=tau, t0=t0)


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


class TestGoverningFrequency:
    def test_constant_potential_is_energy_squared(self):
        params = mk(a1=1.0, a2=1.0, p=2.0)
        modes = asymptotic_modes(params)
        for t in (-3.0, 0.0, 7.5):
            om2 = governing_frequency(t, params)
            assert om2.imag == 0.0
            assert om2.real == pytest.approx(modes.e1 ** 2, rel=1e-14)

    def test_plateau_tails(self):
        # compare against pi_i^2 + m^2 assembled the same way the frequency
        # is, so only the exponential tail (not representation rounding) counts
        params = mk()
        modes = asymptotic_modes(params)
        early = governing_frequency(params.t0 - 30 * params.tau, params)
        late = governing_frequency(params.t0 + 30 * params.tau, params)
        assert abs(early - (modes.pi1 ** 2 + params.m ** 2)) < 1e-20
        assert abs(late - (modes.pi2 ** 2 + params.m ** 2)) < 1e-20

    def test_residual_of_constructed_solution(self):
        rng = random.Random(99)
        for _ in range(3):
            params = mk(p=rng.uniform(0.4, 3.0), a2=rng.uniform(-3.0, 3.0),
                        tau=rng.uniform(0.1, 1.5))
            assert residual_max(params, n_points=20, seed=rng.randrange(1 << 30)) < 1e-7


class TestBuildSolution:
    def test_exponents_match_frequencies(self):
        params = mk(tau=0.7)
        sol = build_solution(params)
        modes = asymptotic_modes(params)
        for chart, e in ((sol.earlier, modes.e1), (sol.later, modes.e2)):
            (mu, _), (minus_mu, _) = chart.branches
            assert mu == pytest.approx(0.5j * params.tau * e)
            assert minus_mu == -mu

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
                for _, plan in chart.branches:
                    for rep in (plan.on_z, plan.on_w):
                        for v in (rep.a, rep.b, rep.c):
                            assert cmath.isfinite(v)
                        c = rep.c
                        assert not (c.imag == 0 and c.real <= 0 and c.real == round(c.real))

    def test_residual_at_reference_point(self):
        params = mk(tau=0.3)
        sol = match_at_t0(build_solution(params), params)
        for t in (-2 * params.tau, 0.0, 2 * params.tau):
            om2 = governing_frequency(t, params)
            w_eff = math.sqrt(abs(om2)) + 2.0 / params.tau
            h = 1e-2 / w_eff
            phi = [solve_earlier(sol, t + k * h, params).upper for k in (-2, -1, 0, 1, 2)]
            second = (-phi[0] + 16 * phi[1] - 30 * phi[2] + 16 * phi[3] - phi[4]) / (12 * h * h)
            assert abs(second + om2 * phi[2]) / abs(om2 * phi[2]) < 1e-7

    def test_range_guard(self):
        with pytest.raises(ParameterRangeError):
            build_solution(mk(tau=150.0))


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

    def test_matches_independent_integration_at_t0(self):
        params = mk(tau=0.3)
        sol = match_at_t0(build_solution(params), params)
        got = solve_earlier(sol, params.t0, params)
        ref = rk4_to_t0(params)
        assert got.upper == pytest.approx(ref[0], rel=1e-6)
        assert got.lower == pytest.approx(ref[1], rel=1e-6)

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

    def test_evaluation_is_deterministic(self):
        params = mk(m=0.83, q=-1.1, p=0.49, a1=-0.31, a2=5.2, tau=4.6, t0=0.4)
        sol = match_at_t0(build_solution(params), params)
        # |zeta| from e^-8 to 1 in each chart, through every representation
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
        sol = match_at_t0(build_solution(params), params)
        monkeypatch.setattr(specfun, "MAX_TERMS", 4)
        with pytest.raises(specfun.ConvergenceError):
            solve_later(sol, params.t0 + 0.1, params)
        for chart in (sol.earlier, sol.later):
            for _, plan in chart.branches:
                assert len(plan.on_z.table) <= 4
                assert len(plan.on_w.table) <= 4

    def test_unset_coefficients_rejected(self):
        sol = build_solution(mk())
        with pytest.raises(ValueError):
            solve_earlier(sol, 0.0, mk())

    def test_chart_overflow_guard(self):
        # 1e3 tau from t0, |ln zeta| = 2000: each side's chart variable
        # underflows to -0 instead of overflowing, and the spinor is the
        # exact plane waves of that side
        params = mk(tau=1e-3)
        sol = match_at_t0(build_solution(params), params)
        modes = asymptotic_modes(params)
        g_i = math.exp(math.pi * sol.earlier.eps)
        dt = 1e3 * params.tau
        early = solve_earlier(sol, params.t0 - dt, params)
        want = g_i * cmath.exp(1j * modes.e1 * dt)
        assert early.upper == pytest.approx(want, rel=1e-8)
        late = solve_later(sol, params.t0 + dt, params)
        want = g_i * (sol.c1l * cmath.exp(-1j * modes.e2 * dt)
                      + sol.c2l * cmath.exp(1j * modes.e2 * dt))
        assert late.upper == pytest.approx(want, rel=1e-8)


class TestMatching:
    def test_trivial_step(self):
        params = mk(a1=0.7, a2=0.7)
        sol = match_at_t0(build_solution(params), params)
        assert abs(sol.c2l) < 1e-12 * abs(sol.c1l)
        res = asymptotic_amplitudes(sol, params)
        assert res.f == pytest.approx(1.0, abs=1e-10)

    def test_continuity_defining_property(self):
        params = mk(tau=0.6)
        sol = match_at_t0(build_solution(params), params)
        # both charts at t0, where the matched solution switches between them
        g_i = math.exp(math.pi * sol.earlier.eps)
        early = analytic._chart_spinor(sol.earlier, sol.delta, params, (0.0, g_i), params.t0)
        late = analytic._chart_spinor(sol.later, sol.delta, params,
                                      (g_i * sol.c1l, g_i * sol.c2l), params.t0)
        mismatch = abs(early.upper - late.upper) + abs(early.lower - late.lower)
        assert mismatch / math.sqrt(early.norm_sq) < 1e-10

    def test_wronskian_value(self):
        # the determinant of each chart's two branches at t0 is the constant
        # +2 E1 / m (earlier chart) or -2 E2 / m (later chart)
        params = mk(tau=0.8)
        modes = asymptotic_modes(params)
        sol = build_solution(params)
        for chart, want in ((sol.earlier, 2 * modes.e1 / params.m),
                            (sol.later, -2 * modes.e2 / params.m)):
            f1 = analytic._chart_spinor(chart, sol.delta, params, (1.0, 0.0), params.t0)
            f2 = analytic._chart_spinor(chart, sol.delta, params, (0.0, 1.0), params.t0)
            det = f1.upper * f2.lower - f2.upper * f1.lower
            assert det == pytest.approx(want, rel=1e-10)

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
        # m^2 underflows, so the forward gap E1 + E2 - |pi1 - pi2| is 0: the
        # massless limit F_u = f = 0, and the whole wave is reflected
        res = scatter(mk(m=1e-200, p=1.0, a2=2.0, tau=1.0))
        assert res.F_u == 0.0
        assert res.f == 0.0
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
                          (sauter_backward_probability(**kw), b_u)):
            assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("kw", SAUTER_CASES,
                             ids=[sauter_case_id(c) for c in SAUTER_CASES])
    def test_scatter_matches_elementary_form(self, kw):
        res = scatter(StepParameters(**kw))
        want = sauter_backward_probability(kw["m"], kw["q"], kw["p"], kw["a1"],
                                           kw["a2"], kw["tau"])
        assert abs(res.B_u - want) <= 1e-9
        assert abs(res.F_u - (1.0 - want)) <= 1e-9
        if want > 1e-300:
            assert abs(res.B_u - want) <= 1e-9 * want


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
            ref = _sharp_reference(m, q, p, a1, a2)
            for name, want in ref.items():
                got = getattr(res.modes if name in ("e1", "e2") else res, name)
                # below 1e-290 a value may be lost to underflow
                assert abs(got - want) <= 1e-14 * abs(want) + 1e-290, (
                    (m, q, p, a1, a2), name, got, want)


def _sharp_reference(m, q, p, a1, a2):
    """sharp_step's result from the direct continuity-solve formulas, with
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
