import cmath
import math
import random
import time

import pytest

from diracstep import StepParameters, analytic, compare, dop853, integrate, oracle, sharp_step
from diracstep.analytic import result_from_mode_amplitudes
from diracstep.model import asymptotic_modes, potential_at, potential_rate
from diracstep.oracle import NormDriftError, StepLimitError

from conftest import SAUTER_CASES, sauter_case_id, sinh_reference

RT3 = math.sqrt(3.0)


def mk(m=1.0, q=1.0, p=RT3, a1=0.0, a2=2 * RT3, tau=0.3, t0=0.0):
    return StepParameters(m=m, q=q, p=p, a1=a1, a2=a2, tau=tau, t0=t0)


# DOP853's stages as the step reads them: stage i (from 1; stage 1 is at the
# step's start) is taken at u + Ci h from the stages in _COLS[i], with
# weights Aij; the 0-based tables below are built from those names
_COLS = {
    2: (1,), 3: (1, 2), 4: (1, 3), 5: (1, 3, 4), 6: (1, 4, 5), 7: (1, 4, 5, 6),
    8: (1, 4, 5, 6, 7), 9: (1, 4, 5, 6, 7, 8), 10: (1, 4, 5, 6, 7, 8, 9),
    11: (1, 4, 5, 6, 7, 8, 9, 10), 12: (1, 4, 5, 6, 7, 8, 9, 10, 11),
}
_STAGES = range(1, 13)


def _weights(prefix, stages):
    return tuple(getattr(dop853, f"{prefix}{i}") if i in stages else 0.0 for i in _STAGES)


_C = (0.0,) + tuple(getattr(dop853, f"C{i}") for i in range(2, 12)) + (1.0,)
_A = ((),) + tuple(tuple((j - 1, getattr(dop853, f"A{i}{j}")) for j in _COLS[i])
                   for i in range(2, 13))
_B = _weights("B", (1, 6, 7, 8, 9, 10, 11, 12))
_E5 = _weights("E5_", (1, 6, 7, 8, 9, 10, 11, 12))
_B3 = _weights("B3_", (1, 9, 12))
_E3 = tuple(bi - b3i for bi, b3i in zip(_B, _B3))
_OUT = tuple((j, _B[j], _E5[j]) for j in range(12) if _B[j] or _E5[j])
_OUT3 = tuple((j, b3j) for j, b3j in enumerate(_B3) if b3j)


def reference_step(a, b, ph, hg, hw):
    """DOP853 as a loop over the sparse tableau rows, on an h-scaled profile:
    stage i's phase is ph plus its row's sum of the Theta-slopes hw, and its
    slopes are G b_i and -G* a_i with G = hg[i] e^{2i Theta_i}."""
    ka = []
    kb = []
    for i in range(len(_C)):
        sa = 0.0j
        sb = 0.0j
        sp = 0.0
        for j, aij in _A[i]:
            sa += ka[j] * aij
            sb += kb[j] * aij
            sp += hw[j] * aij
        g = cmath.rect(hg[i], 2.0 * (ph + sp))
        ka.append(g * (b + sb))
        kb.append(-g.conjugate() * (a + sa))
    sa = sb = ea5 = eb5 = 0.0j
    sp = ep5 = 0.0
    for j, bj, e5j in _OUT:
        sa += ka[j] * bj
        sb += kb[j] * bj
        sp += hw[j] * bj
        ea5 += ka[j] * e5j
        eb5 += kb[j] * e5j
        ep5 += hw[j] * e5j
    # e3 = (B-sum) - B3-terms
    ea3, eb3, ep3 = sa, sb, sp
    for j, b3j in _OUT3:
        ea3 -= ka[j] * b3j
        eb3 -= kb[j] * b3j
        ep3 -= hw[j] * b3j
    return (a + sa, b + sb, ph + sp, ea5, eb5, ep5, ea3, eb3, ep3)


def toy_profile(u, h):
    # coupling and phase slope that differ at every stage
    return ([0.8 + 0.3 * math.sin(3.0 * (u + c * h)) for c in _C],
            [1.5 + math.cos(u + c * h) + 0.2 * c for c in _C])


class TestTableau:
    """The DOP853 constants satisfy the order conditions they were built on."""

    def test_rows_sum_to_nodes(self):
        for ci, row in zip(_C, _A):
            assert sum(aij for _, aij in row) == pytest.approx(ci, abs=1e-14)

    @pytest.mark.parametrize("k", range(8))
    def test_weights_integrate_powers(self, k):
        quad = sum(bi * ci ** k for bi, ci in zip(_B, _C))
        assert quad == pytest.approx(1.0 / (k + 1), abs=1e-14)

    def test_error_weights_sum_to_zero(self):
        assert abs(sum(_E5)) <= 1e-14
        assert abs(sum(_E3)) <= 1e-14

    @pytest.mark.parametrize("k", range(3))
    def test_third_order_weights_integrate_powers(self, k):
        quad = sum(bi * ci ** k for bi, ci in zip(_B3, _C))
        assert quad == pytest.approx(1.0 / (k + 1), abs=1e-14)


class TestStep:
    @staticmethod
    def assert_matches_reference(a, b, ph, h, g, e):
        # the float step takes the state as (Re a, Im a, Re b, Im b, Theta) and
        # the unscaled profile; the reference takes complex a, b and h-scaled lists
        out = dop853.step(a.real, a.imag, b.real, b.imag, ph, h, g, e)
        ref = reference_step(a, b, ph, [h * x for x in g], [h * x for x in e])
        got = (complex(out[0], out[1]), complex(out[2], out[3]), out[4],
               complex(out[5], out[6]), complex(out[7], out[8]), out[9],
               complex(out[10], out[11]), complex(out[12], out[13]), out[14])
        assert got == ref

    @pytest.mark.parametrize("h", [1e-3, 0.05, 0.4, 1.7])
    def test_matches_the_tableau_loop_bit_for_bit(self, h):
        for u, a, b, ph in ((0.0, 1.0 + 0.0j, 0.0j, 0.0), (-2.5, 0.3 - 0.8j, 1.2 + 0.1j, -4.0),
                            (1.5, -0.7 + 0.4j, 0.0j, 2.5)):
            self.assert_matches_reference(a, b, ph, h, *toy_profile(u, h))

    def test_matches_the_tableau_loop_with_a_subnormal_coupling(self):
        # h g subnormal at every stage: the stage slopes keep few bits, and the
        # float step must still make the complex step's every rounding
        g, e = toy_profile(0.7, 0.05)
        self.assert_matches_reference(0.3 - 0.8j, 1.2 + 0.1j, -4.0, 0.05,
                                      [x * 1e-310 for x in g], e)
        self.assert_matches_reference(1.0 + 0.0j, 0.0j, 0.0, 0.05, [x * 1e-310 for x in g], e)


class TestProfile:
    """The stepper's profile against the governing equations."""

    @pytest.mark.parametrize("tau", [1e-300, 0.3, 1e3])
    @pytest.mark.parametrize("m, q, p, a1, a2", [
        (0.7, -1.3, 0.4, 0.5, -2.0),
        (1.6, 0.8, -2.2, -0.6, 3.1),
        (0.45, -0.9, 1.9, 0.3, 4.4),
    ])
    def test_coupling_and_phase_slope(self, m, q, p, a1, a2, tau):
        # per unit s = u/S: the coupling S theta'/2 = -S m pi'(u) / (2 E^2)
        # and the Theta-slope S E(u); stage 1's values, at s, come from a
        # profile of zero width, whose every abscissa is s
        params = StepParameters(m=m, q=q, p=p, a1=a1, a2=a2, tau=tau)
        tau_s, scale, profile = oracle._stage_profile(params, asymptotic_modes(params))
        assert tau_s * scale == tau and 0.5 <= tau_s < 1.0
        for k in range(-40, 39):
            s = 0.5 * k * tau_s  # stage abscissae up to |s/tau_s| = 20
            at_s = profile(s, 0.0, 0.0, 0.0)
            hg, hw = profile(s, 1.0, at_s[0][-1], at_s[1][-1])
            for c, g, w in zip(_C, hg, hw):
                u = (s + c) * scale
                piv = p - q * potential_at(u, params)
                e_sq = piv * piv + m * m
                want_g = -scale * m * (-q * potential_rate(u, params)) / (2.0 * e_sq)
                want_w = scale * math.sqrt(e_sq)
                assert abs(g - want_g) <= 1e-14 * abs(want_g), (u, g, want_g)
                assert abs(w - want_w) <= 1e-14 * want_w, (u, w, want_w)


class TestIntegrate:
    def test_free_evolution(self):
        num = compare(mk(a1=1.0, a2=1.0, p=0.9)).numeric
        assert num.b < 1e-10
        assert num.f == pytest.approx(1.0, abs=1e-10)

    def test_sharp_limit_equal_amplitudes(self):
        # at every tau the window is 40 tau wide and a step lands on u = 0,
        # so no step grown on a plateau can jump the transition and report b = 0
        for tau in (1e-12, 1e-4, 1e-3, 3e-3):
            num = compare(mk(tau=tau)).numeric
            assert num.f / num.b == pytest.approx(1.0, abs=1e-3)

    def test_the_first_node_is_handed_on(self, monkeypatch):
        # each step takes stage 1's profile values from the step before, or
        # from the rejected attempt at the same s; evaluating them afresh at
        # every step gives the same outcome, bit for bit
        handed_on = integrate(mk(tau=3.0))
        stage_profile = oracle._stage_profile

        def afresh(params, modes):
            tau_s, scale, profile = stage_profile(params, modes)

            def recomputing(s, h, g1, e1):
                g, e = profile(s, 0.0, 0.0, 0.0)
                return profile(s, h, g[-1], e[-1])

            return tau_s, scale, recomputing

        monkeypatch.setattr(oracle, "_stage_profile", afresh)
        assert integrate(mk(tau=3.0)) == handed_on
        assert handed_on.steps > 400

    def test_norm_conserved_along_trajectory(self):
        out = integrate(mk())
        assert out.norm_drift < 1e-9

    def test_drift_beyond_the_limit_raises(self, monkeypatch):
        monkeypatch.setattr(oracle, "DRIFT_LIMIT", 0.0)
        with pytest.raises(NormDriftError):
            integrate(mk())

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_a_nan_state_is_never_returned(self, monkeypatch, bad):
        # a step that returns a NaN or infinite state with zero error sums: its
        # error weights are NaN or 0, and its norm drift NaN or inf, and none
        # of these may pass a comparison with a limit
        monkeypatch.setattr(dop853, "step",
                            lambda ar, ai, br, bi, ph, h, g, e: (bad,) * 4 + (ph,) + (0.0,) * 10)
        with pytest.raises(oracle.OracleError):
            integrate(mk())

    @pytest.mark.parametrize("kw", [
        dict(m=1e200, p=0.0, a2=1e200, tau=1e-300),
        dict(m=1e160, q=1e160, p=0.0, a2=1.0, tau=1e-300),
    ])
    def test_huge_kinematics_do_not_overflow_the_profile(self, kw):
        # m q (a2 - a1) and pi^2 + m^2 overflow a double; (m/E) (q (a2 - a1)/E)
        # and E = hypot(pi, m) do not
        report = compare(mk(**kw))
        assert report.passed
        assert 0.0 < report.outcome.norm_drift <= oracle.DRIFT_LIMIT

    def test_an_unresolved_profile_is_refused(self):
        # pi1 = 1e200, pi2 = 0: near the late plateau pi_mid - half_dpi tanh
        # cancels to 0, so the coupling m q (a2 - a1)/E^2 is ~4e183 where it
        # should be ~4e-184 and the amplitudes overflow; the NaN error sums
        # are refused, not taken for zero
        with pytest.raises(oracle.OracleError):
            integrate(mk(m=1.0, p=1e200, a2=1e200, tau=1e-250))

    def test_a_vanishing_mass_is_refused_as_a_step_limit(self):
        # m^2 = 1e-400 underflows where pi crosses 0; E = hypot(pi, m) = m
        # there, the coupling spike is refused as at m = 1e-8, and nothing
        # divides by zero
        with pytest.raises(StepLimitError):
            integrate(mk(m=1e-200, p=1.0, a2=2.0, tau=1.0))

    def test_stability_in_span_and_tolerance(self, monkeypatch):
        base = compare(mk()).numeric
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "SPAN_FACTOR", 24.0)
            wider = compare(mk()).numeric
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "REL_TOL", 3e-13)
            patch.setattr(oracle, "ABS_TOL", 3e-15)
            tighter = compare(mk()).numeric
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
        # sech^2 transition, about linearly in tau; a mis-wired stage that
        # loses order takes many more
        for tau, want in ((0.3, 121), (3.0, 422), (10.0, 1341), (30.0, 3509)):
            steps = integrate(mk(tau=tau)).steps
            assert steps == pytest.approx(want, rel=0.02), f"tau = {tau}: {steps} steps"

    def test_step_cap_enforced(self, monkeypatch):
        # tau = 30 takes ~3.5k steps, 58 per unit of 1 + tau E; a budget of
        # 16 per unit allows ~1k
        monkeypatch.setattr(oracle, "STEP_BUDGET", 16)
        with pytest.raises(StepLimitError):
            integrate(mk(tau=30.0))

    def test_a_slow_step_is_refused_before_the_first_step(self):
        # tau max(E1, E2) = 3.2e8: the step budget alone would allow ~3e11 steps
        start = time.perf_counter()
        with pytest.raises(StepLimitError, match="supported range"):
            integrate(mk(p=1.0, a2=4.0, tau=1e8))
        assert time.perf_counter() - start < 1.0

    def test_refusal_reads_max_tau_e(self, monkeypatch):
        # the anchor has max(E1, E2) = 2: tau E = 0.4 runs, 0.6 is refused
        monkeypatch.setattr(oracle, "MAX_TAU_E", 0.5)
        assert integrate(mk(tau=0.2)).steps > 0
        with pytest.raises(StepLimitError):
            integrate(mk(tau=0.3))

    @pytest.mark.parametrize("tau", [1e-50, 1e-300])
    def test_a_fast_step_takes_a_fixed_number_of_steps(self, tau):
        # the window is 40 tau wide at every tau, so the plateaus cost what
        # they cost at tau ~ 1e-3, not a climb over decades of step size
        assert integrate(mk(tau=tau)).steps <= 200

    def test_smallest_tau_gives_the_sharp_step(self):
        # tau = 5e-324, the least double: Theta' = E is subnormal per unit
        # s = u/S, Theta barely moves, and the amplitudes are the Heaviside limit's
        params = mk(tau=5e-324)
        out = integrate(params)
        num = result_from_mode_amplitudes(out.g_f, out.g_b, params.m, asymptotic_modes(params))
        hard = sharp_step(m=params.m, q=params.q, p=params.p, a1=params.a1, a2=params.a2)
        assert num.f == pytest.approx(hard.f, abs=1e-10)
        assert num.b == pytest.approx(hard.b, abs=1e-10)

    def test_amplitudes_carry_the_closed_form_phases(self):
        # g_f and g_b are the connection formula's amplitude ratios c1l and
        # c2l, phase included; compare reads moduli only
        rng = random.Random(3)
        for _ in range(12):
            m = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
            params = StepParameters(
                m=m, q=rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5),
                p=rng.uniform(-3.0, 3.0), a1=rng.uniform(-1.0, 1.0), a2=rng.uniform(-3.0, 3.0),
                t0=rng.uniform(-2.0, 2.0), tau=math.exp(rng.uniform(math.log(1e-3), math.log(3.0))))
            sol = analytic.match_at_t0(analytic.build_solution(params), params)
            out = integrate(params)
            assert abs(out.g_f - sol.c1l) <= 1e-10 * max(1.0, abs(sol.c1l)), params
            assert abs(out.g_b - sol.c2l) <= 1e-10 * max(1.0, abs(sol.c2l)), params

    @pytest.mark.parametrize("tau", [10.0, 30.0])
    def test_adiabatic_amplitudes_match_closed_form(self, tau):
        report = compare(mk(tau=tau))
        assert report.deviations["f"] <= 1e-12
        assert report.deviations["b"] <= 1e-12

    def test_final_state_normalized(self):
        # incident state has |phi|^2 + |theta|^2 = 1 + ((E1 - pi1)/m)^2 =
        # 1/cos^2(theta1/2) = |a|^2 + |b|^2, which the flow conserves exactly;
        # norm_drift is its relative change, the largest over accepted steps
        out = integrate(mk())
        assert out.norm_drift <= 1e-9


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
        want = sinh_reference(kw["m"], kw["q"], kw["p"], kw["a1"], kw["a2"], kw["tau"])["B_u"]
        assert abs(report.numeric.B_u - want) <= 1e-6
