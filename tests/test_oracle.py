import math

import pytest

from diracstep import IntegrationConfig, StepParameters, compare, integrate, oracle
from diracstep.oracle import NormDriftError, StepLimitError

from conftest import SAUTER_CASES, sauter_backward_probability, sauter_case_id

RT3 = math.sqrt(3.0)


def mk(m=1.0, q=1.0, p=RT3, a1=0.0, a2=2 * RT3, tau=0.3, t0=0.0):
    return StepParameters(m=m, q=q, p=p, a1=a1, a2=a2, tau=tau, t0=t0)


class TestConfig:
    def test_span_factor_floor(self):
        with pytest.raises(ValueError):
            IntegrationConfig(span_factor=8)

    def test_tolerance_window(self):
        with pytest.raises(ValueError):
            IntegrationConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            IntegrationConfig(abs_tol=1e-2)

    def test_step_cap_floor(self):
        with pytest.raises(ValueError):
            IntegrationConfig(max_steps=10)


class TestTableau:
    """The DOP853 constants satisfy the order conditions they were built on."""

    def test_rows_sum_to_nodes(self):
        for ci, row in zip(oracle._C, oracle._A):
            assert sum(aij for _, aij in row) == pytest.approx(ci, abs=1e-14)

    @pytest.mark.parametrize("k", range(8))
    def test_weights_integrate_powers(self, k):
        quad = sum(bi * ci ** k for bi, ci in zip(oracle._B, oracle._C))
        assert quad == pytest.approx(1.0 / (k + 1), abs=1e-14)

    def test_error_weights_sum_to_zero(self):
        assert abs(sum(oracle._E5)) <= 1e-14
        assert abs(sum(oracle._E3)) <= 1e-14


class TestIntegrate:
    def test_free_evolution(self):
        num = compare(mk(a1=1.0, a2=1.0, p=0.9)).numeric
        assert num.b < 1e-10
        assert num.f == pytest.approx(1.0, abs=1e-10)

    def test_sharp_limit_equal_amplitudes(self):
        # below tau ~ 3e-3 the transition is a sliver of the window: a step
        # grown across the empty plateau can jump it and report b = 0
        for tau in (1e-12, 1e-4, 1e-3, 3e-3):
            num = compare(mk(tau=tau)).numeric
            assert num.f / num.b == pytest.approx(1.0, abs=1e-3)

    def test_norm_conserved_along_trajectory(self):
        out = integrate(mk())
        assert out.norm_drift < 1e-9

    def test_stability_in_span_and_tolerance(self):
        base = compare(mk(), IntegrationConfig()).numeric
        wider = compare(mk(), IntegrationConfig(span_factor=24.0)).numeric
        tighter = compare(mk(), IntegrationConfig(rel_tol=3e-13, abs_tol=3e-15)).numeric
        for other in (wider, tighter):
            assert abs(other.f - base.f) < 1e-7
            assert abs(other.b - base.b) < 1e-7

    def test_transition_time_only_shifts_phases(self):
        a = compare(mk(t0=0.0)).numeric
        b = compare(mk(t0=37.5)).numeric
        assert abs(a.f - b.f) < 1e-10
        assert abs(a.b - b.b) < 1e-10

    def test_steps_follow_the_transition(self):
        # the free e^{-/+iEt} oscillation is stripped, so the steps follow the
        # sech^2 transition: ~420 at tau = 3
        assert integrate(mk(tau=3.0)).steps <= 600

    def test_step_cap_enforced(self):
        # tau = 30 takes ~3.5k steps
        with pytest.raises(StepLimitError):
            integrate(mk(tau=30.0), IntegrationConfig(max_steps=1000))

    @pytest.mark.parametrize("tau", [10.0, 30.0])
    def test_adiabatic_amplitudes_match_closed_form(self, tau):
        report = compare(mk(tau=tau))
        assert report.deviations["f"] <= 1e-12
        assert report.deviations["b"] <= 1e-12

    def test_final_state_normalized(self):
        # incident state has |phi|^2 + |theta|^2 = 1 + ((E1 - pi1)/m)^2,
        # which the flow conserves exactly
        params = mk()
        out = integrate(params)
        e1 = math.hypot(params.p, params.m)
        want = 1.0 + ((e1 - params.p) / params.m) ** 2
        assert out.final_spinor.norm_sq == pytest.approx(want, rel=1e-9)


class TestCompare:
    def test_reference_point(self):
        report = compare(mk())
        assert report.passed
        assert report.deviations["f"] < 1e-6
        assert report.deviations["b"] < 1e-6

    def test_trivial_step(self):
        report = compare(mk(a1=0.5, a2=0.5, p=1.4))
        assert all(v < 1e-10 for v in report.deviations.values())

    def test_adiabatic_both_sides(self):
        report = compare(mk(tau=10.0))
        assert report.analytic.B_u < 1e-6
        assert report.numeric.B_u < 1e-6

    @pytest.mark.parametrize("kw", [c for c in SAUTER_CASES if c["tau"] <= 3.0],
                             ids=sauter_case_id)
    def test_whole_input_space(self, kw):
        # signed q, m != 1, a1 != 0, t0 != 0, tau 1e-12..3
        report = compare(StepParameters(**kw))
        assert report.passed
        want = sauter_backward_probability(kw["m"], kw["q"], kw["p"], kw["a1"],
                                           kw["a2"], kw["tau"])
        assert abs(report.numeric.B_u - want) <= 1e-6
