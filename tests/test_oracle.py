import cmath
import decimal
import itertools
import math
import random
import time

import pytest

from diracstep import StepParameters, analytic, compare, dop853, integrate, oracle, sharp_step
from diracstep.analytic import result_from_amplitudes
from diracstep.model import asymptotic_modes, log_half_angles, potential_at, potential_rate
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
    slopes are G b_i and -G* a_i with G = hg[i] e^{2i Theta_i}.  Returns the
    amplitudes at the step's end, Theta's increment, and the error sums;
    Theta's increment and error sums are taken on the slopes' differences
    from stage 1, as the step's."""
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
    for j, bj, e5j in _OUT:
        sa += ka[j] * bj
        sb += kb[j] * bj
        ea5 += ka[j] * e5j
        eb5 += kb[j] * e5j
    # e3 = (B-sum) - B3-terms
    ea3, eb3 = sa, sb
    for j, b3j in _OUT3:
        ea3 -= ka[j] * b3j
        eb3 -= kb[j] * b3j
    # sum(B) = 1 and sum(E5) = sum(E3) = 0: Theta's sums are taken on
    # hw[j] - hw[0], whose stage-1 term is 0, over stages 6..12
    sp = ep5 = 0.0
    for j in range(5, 12):
        sp += (hw[j] - hw[0]) * _B[j]
        ep5 += (hw[j] - hw[0]) * _E5[j]
    ep3 = sp
    for j, b3j in _OUT3[1:]:
        ep3 -= (hw[j] - hw[0]) * b3j
    return (a + sa, b + sb, hw[0] + sp, ea5, eb5, ep5, ea3, eb3, ep3)


def reference_error(out, tol):
    """dop853.f's blend |e5|^2 / (tol sqrt(|e5|^2 + |e3|^2 / 100)), an rms over
    a, b and Theta, each held to the one absolute tolerance tol, of the sums
    in reference_step's output `out`."""
    _, _, _, ea5, eb5, ep5, ea3, eb3, ep3 = out

    def sq(z):
        return z.real * z.real + z.imag * z.imag

    err5 = sq(ea5) + sq(eb5) + ep5 * ep5
    denom = err5 + 0.01 * (sq(ea3) + sq(eb3) + ep3 * ep3)
    return 0.0 if denom == 0.0 else err5 / (tol * math.sqrt(3.0 * denom))


def toy_profile(u, h):
    # h-scaled coupling and phase slope that differ at every stage
    return ([h * (0.8 + 0.3 * math.sin(3.0 * (u + c * h))) for c in _C],
            [h * (1.5 + math.cos(u + c * h) + 0.2 * c) for c in _C])


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
    def assert_matches_reference(a, b, ph, hg, hw):
        # the float step takes the state as (Re a, Im a, Re b, Im b, Theta), the
        # reference complex a and b; both take the h-scaled profile, and both
        # return Theta's increment
        out = dop853.step(a.real, a.imag, b.real, b.imag, ph, hg, hw, oracle.TOL)
        ref = reference_step(a, b, ph, hg, hw)
        got = (complex(out[0], out[1]), complex(out[2], out[3]), out[4], out[5])
        assert got == ref[:3] + (reference_error(ref, oracle.TOL),)

    @pytest.mark.parametrize("h", [1e-3, 0.05, 0.4, 1.7])
    def test_matches_the_tableau_loop_bit_for_bit(self, h):
        for u, a, b, ph in ((0.0, 1.0 + 0.0j, 0.0j, 0.0), (-2.5, 0.3 - 0.8j, 1.2 + 0.1j, -4.0),
                            (1.5, -0.7 + 0.4j, 0.0j, 2.5)):
            self.assert_matches_reference(a, b, ph, *toy_profile(u, h))

    def test_matches_the_tableau_loop_with_a_subnormal_coupling(self):
        # h g subnormal at every stage: the stage slopes keep few bits, and the
        # float step must still make the complex step's every rounding
        hg, hw = toy_profile(0.7, 0.05)
        hg = [x * 1e-310 for x in hg]
        self.assert_matches_reference(0.3 - 0.8j, 1.2 + 0.1j, -4.0, hg, hw)
        self.assert_matches_reference(1.0 + 0.0j, 0.0j, 0.0, hg, hw)

    @pytest.mark.parametrize("slope", [0.3, 7.0, 692.0, 1e5])
    def test_a_constant_slope_steps_theta_exactly(self, slope):
        # on a plateau Theta's h-scaled slope is the same at every stage, and
        # the step's increment is exactly that slope.  The plain weighted
        # sum, whose float weights add to 1 + 4.4e-16, is off by ulps at 7,
        # 692 and 1e5, a bias that long plateau steps add up: 5.0e-13 in u_f
        # over a window of +-346 widths at m = 1e-300, p = -1, a2 = 1,
        # tau = 1, where this gave 5.9e-15
        hg = [1e-9] * 12
        out = dop853.step(1.0, 0.0, 0.0, 0.0, 3.0, hg, [slope] * 12, oracle.TOL)
        assert out[4] == slope

    # a NaN must reach the error, which then fails every comparison, so
    # that integrate rejects the step and never accepts a NaN state
    @pytest.mark.parametrize("part", range(5))
    def test_a_nan_state_gives_a_nan_error(self, part):
        state = [1.0, 0.0, 0.0, 0.0, -4.0]
        state[part] = math.nan
        assert math.isnan(dop853.step(*state, *toy_profile(0.7, 0.05), oracle.TOL)[5])

    @pytest.mark.parametrize("stage", range(12))
    def test_a_nan_stage_coupling_gives_a_nan_error(self, stage):
        hg, hw = toy_profile(0.7, 0.05)
        hg[stage] = math.nan
        assert math.isnan(dop853.step(1.0, 0.0, 0.0, 0.0, -4.0, hg, hw, oracle.TOL)[5])


class TestProfile:
    """The stepper's profile against the governing equations."""

    @pytest.mark.parametrize("tau", [1e-300, 0.3, 1e3])
    @pytest.mark.parametrize("m, q, p, a1, a2", [
        (0.7, -1.3, 0.4, 0.5, -2.0),
        (1.6, 0.8, -2.2, -0.6, 3.1),
        (0.45, -0.9, 1.9, 0.3, 4.4),
    ])
    def test_coupling_and_phase_slope(self, m, q, p, a1, a2, tau):
        # per unit x = u/tau: the coupling tau theta'/2 = -tau m pi'(u) / (2 E^2)
        # and the Theta-slope tau E(u), h-scaled at h = 1; stage 1's values, at
        # x, are the unscaled end values of a profile of zero width
        params = StepParameters(m=m, q=q, p=p, a1=a1, a2=a2, tau=tau)
        profile = oracle._stage_profile(params, asymptotic_modes(params))
        for k in range(-40, 39):
            x = 0.5 * k  # stage abscissae up to |x| = 20
            g1, e1 = profile(x, 0.0, 0.0, 0.0)[2:]
            hg, hw, _, _ = profile(x, 1.0, g1, e1)
            for c, g, w in zip(_C, hg, hw):
                u = (x + c) * tau
                piv = p - q * potential_at(u, params)
                e_sq = piv * piv + m * m
                want_g = -tau * m * (-q * potential_rate(u, params)) / (2.0 * e_sq)
                want_w = tau * math.sqrt(e_sq)
                assert abs(g - want_g) <= 1e-14 * abs(want_g), (u, g, want_g)
                assert abs(w - want_w) <= 1e-14 * want_w, (u, w, want_w)

    def test_coupling_beside_a_plateau_at_zero_momentum(self):
        # pi1 = 1e200, pi2 = 0, tau = 1e-250: at x = 19 pi is ~1e200 e^-38,
        # which pi_mid - half_dpi tanh(x) lost to rounding (g per unit x was
        # 3.2e183); from the late plateau it keeps every digit.  The
        # reference is g = (m/E) (delta/E) sech^2(x)/4 per unit x in 60
        # digits, with pi = pi2 + delta w/(1 + w), w = e^-2x
        params = StepParameters(m=1.0, q=1.0, p=1e200, a1=0.0, a2=1e200, tau=1e-250)
        profile = oracle._stage_profile(params, asymptotic_modes(params))
        g = profile(19.0, 0.0, 0.0, 0.0)[2]
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            delta = decimal.Decimal(1e200)
            w = decimal.Decimal(-38).exp()
            pi = delta * w / (1 + w)
            e_sq = pi * pi + 1
            want = delta / e_sq * 4 * w / ((1 + w) ** 2 * 4)
        assert abs(g - float(want)) <= 1e-14 * float(want), (g, want)
        assert 3e-184 < g < 3.4e-184


class TestTail:
    @staticmethod
    def _tail_arguments(params):
        # (sigma, te, mu, r, k, w) of each tail, as integrate passes them
        calls = []
        tail = oracle._tail

        def recording(*args):
            calls.append(args)
            return tail(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "_tail", recording)
            integrate(params)
        return calls

    @pytest.mark.parametrize("y", [0.5, 1.0])
    @pytest.mark.parametrize("kw", [
        # E2/E1 = 2: the early edge at 1 width, the late at 0.65; m = 1e-3
        # |delta|, the least the eigenmode picture takes
        dict(m=1e-3, p=-1.0, a2=1.0),
        # E1/E2 = 1.34: the late edge at 0.80, and pi2 = 0.1 m
        dict(p=0.9, a2=0.8),
    ], ids=("widened", "unwidened"))
    def test_series_sum_to_the_stepped_profile(self, kw, y):
        # the coupling mk y/(1 + c1 y + c2 y^2) whose coefficients `_tail`
        # runs as recurrences, and the coefficients of E/E_i in powers of
        # y = e^{-2(|x| - X)} summed at y, give the coupling per unit x and
        # tau E / (tau E_i) that the stepped profile evaluates directly at
        # that x, in each tail, from the arguments integrate hands the tail
        # (measured: g to 4e-16 relative, E/E_i to 2.2e-16); a wrong mk, c1,
        # c2 or eps coefficient moves them by far more.  At tau = 3, tau E > 2,
        # the eigenmode picture runs, and sums its two tails
        params = mk(tau=3.0, **kw)
        profile = oracle._stage_profile(params, asymptotic_modes(params))
        calls = self._tail_arguments(params)
        assert len(calls) == 2
        for sigma, te, mu, r, k, w in calls:
            g_y, c1, c2, eps = oracle._tail_profile(sigma, mu, r, k, w)
            g = g_y * y / (1.0 + c1 * y + c2 * y * y)
            e = 1.0
            for n, e_n in enumerate(itertools.islice(eps, 60), 1):
                e += e_n * y ** n
            x = sigma * (-0.5 * math.log(w) - 0.5 * math.log(y))
            g_x, te_x = profile(x, 0.0, 0.0, 0.0)[2:]
            assert g == pytest.approx(g_x, rel=1e-14, abs=0.0), (sigma, y)
            assert e == pytest.approx(te_x / te, rel=0.0, abs=1e-15), (sigma, y)

    def test_real_zeros_of_pi_lie_inside_the_window(self):
        # where pi1 and pi2 have opposite signs, pi(x) has one real zero x_c,
        # on the side of the smaller |pi_i|, at e^(-2|x_c|) = |pi_i|/|pi_other|.
        # Each tail's series falls at w_i max(1, E_other/E_i), its nearest
        # singularities where pi = +-im, and the edges set that ratio to
        # 2 e^(-2 SPAN_FACTOR) in both tails; with |pi_i| >= m/2 the zero is
        # then strictly inside [-X1, X2], and at m << |pi_i| the edge is
        # |x_c| + SPAN_FACTOR - ln(2)/2
        rng = random.Random(50)
        ratio = 2.0 * math.exp(-2.0 * oracle.SPAN_FACTOR)
        for _ in range(40):
            m = math.exp(rng.uniform(math.log(1e-9), 0.0))
            sign = rng.choice((-1.0, 1.0))
            pi1, pi2 = sign * rng.uniform(0.5, 5.0), -sign * rng.uniform(0.5, 5.0)
            modes = asymptotic_modes(mk(m=m, p=pi1, a2=pi1 - pi2))
            x1, w1, x2, w2, _ = oracle._window(modes)
            e1, e2 = modes.e1, modes.e2
            assert w1 * max(1.0, e2 / e1) == pytest.approx(ratio, rel=1e-14)
            assert w2 * max(1.0, e1 / e2) == pytest.approx(ratio, rel=1e-14)
            small, large = sorted((abs(modes.pi1), abs(modes.pi2)))
            depth = -0.5 * math.log(small / large)
            x_c, edge = (-depth, x1) if abs(modes.pi1) < abs(modes.pi2) else (depth, x2)
            assert -x1 < x_c < x2, (m, pi1, pi2)
            if m < 1e-6:
                want = depth + oracle.SPAN_FACTOR - 0.5 * math.log(2.0)
                assert edge == pytest.approx(want, rel=0.0, abs=1e-11), (m, pi1, pi2)

    def test_a_plateau_ratio_beyond_the_double_range_passes(self):
        # E2/E1 = 1e600 is beyond the double range, and the eigenmode
        # picture's early edge would be 691 widths out, where e^(-2|x|) is
        # below the normal range.  tau E2 = 1, so the diabatic picture takes
        # the input, over its fixed +-0.65 widths, in 13 steps
        report = compare(mk(m=1e-300, p=0.0, a2=-1e300, tau=1e-300))
        assert report.passed
        assert report.outcome.steps <= 20

    def test_a_tail_short_of_rounding_is_refused(self, monkeypatch):
        # at SPAN_FACTOR 0.25 the tails' ratio is 2 e^(-1/2) = 1.21 in both
        # pictures (tau = 0.3 runs the diabatic one, tau = 3 the eigenmode
        # one), so the early tail's terms grow and do not reach rounding
        # within the term cap; a tail that stopped short would be off by its
        # next terms
        monkeypatch.setattr(oracle, "SPAN_FACTOR", 0.25)
        for tau in (0.3, 3.0):
            with pytest.raises(oracle.OracleError, match="early tail"):
                integrate(mk(p=0.0, a2=1.0, tau=tau))


class TestIntegrate:
    def test_free_evolution(self):
        num = compare(mk(a1=1.0, a2=1.0, p=0.9)).numeric
        assert num.b < 1e-10
        assert num.f == pytest.approx(1.0, abs=1e-10)

    def test_sharp_limit_equal_amplitudes(self):
        # at every tau the window is at least 1.3 tau wide and a step lands
        # on u = 0, so no step grown on a plateau can jump the transition and
        # report b = 0
        for tau in (1e-12, 1e-4, 1e-3, 3e-3):
            num = compare(mk(tau=tau)).numeric
            assert num.f / num.b == pytest.approx(1.0, abs=1e-3)

    def test_the_first_node_is_handed_on(self, monkeypatch):
        # each step takes stage 1's profile values from the step before, or
        # from the rejected attempt at the same x; evaluating them afresh at
        # every step gives the same outcome, bit for bit, in the eigenmode
        # picture (tau = 3, 42 steps) and the diabatic one (tau = 0.3, 14)
        for name, tau in (("_stage_profile", 3.0), ("_diabatic_profile", 0.3)):
            handed_on = integrate(mk(tau=tau))
            stage_profile = getattr(oracle, name)

            def afresh(params, modes):
                profile = stage_profile(params, modes)

                def recomputing(x, h, g1, e1):
                    return profile(x, h, *profile(x, 0.0, 0.0, 0.0)[2:])

                return recomputing

            with monkeypatch.context() as patch:
                patch.setattr(oracle, name, afresh)
                assert integrate(mk(tau=tau)) == handed_on
            assert handed_on.steps > 12

    @pytest.mark.parametrize("lam", [2.0, 0.25])
    @pytest.mark.parametrize("kw", [
        dict(m=0.8, q=-1.2, p=0.4, a1=0.3, a2=-0.2, tau=0.5, t0=1.5),
        dict(m=1.3, q=0.7, p=-1.1, a1=-0.5, a2=1.0, tau=2.0, t0=-0.7),
        dict(m=0.6, q=-0.9, p=2.2, a1=0.4, a2=1.0, tau=0.05, t0=0.25),
        dict(m=1.0, q=1.0, p=0.9, a1=0.0, a2=0.8, tau=1.0, t0=3.0),
        dict(m=0.15, q=-1.33, p=0.5, a1=0.79, a2=1.1, tau=0.65, t0=-1.08),
    ], ids=lambda kw: f"tau={kw['tau']:g}")
    def test_power_of_two_mass_scaling_is_exact(self, kw, lam):
        # (m, p, a1, a2, tau, t0) -> (l m, l p, l a1, l a2, tau/l, t0/l) leaves
        # every slope per unit x = (t - t0)/tau unchanged, and scaling by a
        # power of two is exact, so the run is the same bit for bit.  The
        # window reads E2/E1 alone, which the scaling keeps exact, so this
        # holds where |delta| > m too (the last case, |delta| = 2.7 m)
        base = StepParameters(**kw)
        scaled = StepParameters(m=lam * base.m, q=base.q, p=lam * base.p, a1=lam * base.a1,
                                a2=lam * base.a2, tau=base.tau / lam, t0=base.t0 / lam)
        want, got = integrate(base), integrate(scaled)
        assert (got.u_f, got.u_b, got.steps) == (want.u_f, want.u_b, want.steps)

    def test_norm_conserved_along_trajectory(self):
        out = integrate(mk())
        assert out.norm_drift < 1e-9

    def test_drift_beyond_the_limit_raises(self, monkeypatch):
        monkeypatch.setattr(oracle, "DRIFT_LIMIT", 0.0)
        with pytest.raises(NormDriftError):
            integrate(mk())

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_a_nan_state_is_never_returned(self, monkeypatch, bad):
        # a step that returns NaN or infinite amplitudes with zero error: its
        # norm drift is NaN or inf, and neither may pass a comparison with a
        # limit
        monkeypatch.setattr(dop853, "step", lambda *state_profile_and_tol: (bad,) * 4 + (0.0, 0.0))
        with pytest.raises(oracle.OracleError):
            integrate(mk())

    def test_a_nan_error_shrinks_the_step_to_a_refusal(self, monkeypatch):
        # finite amplitudes with a NaN error: every step is rejected and h
        # shrinks by _MIN_FACTOR to the underflow refusal within a few dozen
        # attempts, in the diabatic picture (tau = 0.3) and the eigenmode
        # one (tau = 3); a rule that read a NaN error as no error would grow
        # h and run to the step budget, 1,600 and 7,000 attempts here
        real_step = dop853.step
        calls = []

        def nan_errors(*args):
            calls.append(None)
            return real_step(*args)[:5] + (math.nan,)

        monkeypatch.setattr(dop853, "step", nan_errors)
        for tau in (0.3, 3.0):
            calls.clear()
            with pytest.raises(StepLimitError, match="step size underflow"):
                integrate(mk(tau=tau))
            assert len(calls) <= 40

    @pytest.mark.parametrize("kw", [
        dict(m=1e200, p=0.0, a2=1e200, tau=1e-300),
        dict(m=1e160, q=1e160, p=0.0, a2=1.0, tau=1e-300),
        dict(m=1e-308, p=0.0, a2=1e-308, tau=1e308),
        dict(m=1e200, p=0.0, a2=1e200, tau=3e-200),
        dict(m=1e160, q=1e160, p=0.0, a2=1.0, tau=3e-160),
        dict(m=1e-308, p=0.0, a2=1e-308, tau=1.7e308),
    ])
    def test_huge_kinematics_do_not_overflow_the_profile(self, kw):
        # m q (a2 - a1) and pi^2 + m^2 overflow a double; tau m, tau pi, and
        # in the eigenmode picture (the last three, tau E > 2) (m/E)
        # (q (a2 - a1)/E) and E = hypot(pi, m), do not.  At tau = 1e308 the
        # window's 2 tau in t overflows, but tau E and x do not, so Theta
        # stays finite
        report = compare(mk(**kw))
        assert report.passed
        drift = report.outcome.norm_drift
        assert drift <= oracle.DRIFT_LIMIT
        # the stepped coupling moves the state, and its norm by rounding,
        # save where it is tau m <= 1e-100 (the first two, in the diabatic
        # picture), which leaves the state as it was, to the bit
        assert (drift > 0.0) == (kw["m"] * kw["tau"] > 1e-50)

    def test_half_angles_keep_the_mixing_angle(self):
        # 2 cos sin = sin theta = m/E and cos^2 - sin^2 = cos theta = pi/E,
        # each to a few ulps of 1, at every sign and scale
        for m in (5e-324, 1e-300, 1e-30, 1e-6, 1.0, 1e6, 1e300):
            for pi in (-1e300, -3.0, -1e-300, 0.0, 1e-300, 3.0, 1e300):
                e = math.hypot(pi, m)
                c, s = (math.exp(x) for x in log_half_angles(pi, e, m))
                assert abs(2.0 * c * s - m / e) <= 1e-15, (m, pi)
                assert abs(c * c - s * s - pi / e) <= 1e-15, (m, pi)
                # the larger half is on pi's side; at |pi| << m the two agree
                # to every digit (pi = -1e-300, m = 1e-30)
                assert c >= s if pi >= 0.0 else s >= c, (m, pi)

    @pytest.mark.parametrize("m", [5e-324])
    def test_compare_passes_where_the_mode_ratio_leaves_the_range(self, m):
        # pi1 = -1: the chiral backward mode per unit incident one carries
        # sin(theta2/2)/cos(theta1/2) ~ 2/m = e^745, beyond the double range,
        # and that ratio was refused; the integrator reports the unitary
        # amplitudes, which never form it, and agrees with the closed form
        report = compare(mk(m=m, p=-1.0, a2=1.0, tau=1.0))
        assert report.passed
        assert abs(report.outcome.u_f) <= 1.0 + 1e-9 and abs(report.outcome.u_b) <= 1.0
        assert max(report.deviations.values()) <= 1e-13

    @pytest.mark.parametrize("kw", [
        dict(m=1.0, p=1e200, a2=1e200, tau=1e-250),
        dict(m=1e-7, p=1.0, a2=1.0, tau=1.0),
        dict(m=1e-9, p=1.0, a2=1.0, tau=1.0),
    ], ids=lambda kw: f"m={kw['m']:g}")
    def test_a_late_plateau_at_zero_momentum(self, kw):
        # pi2 = 0 and |pi1|/m >= 1: pi near the late plateau is taken from
        # pi2, not as a difference of the plateaus' that cancels to rounding
        # noise (at pi1 = 1e200 that gave a coupling of 4e183 where it is
        # 4e-184, and the amplitudes overflowed), and the late edge is at
        # SPAN_FACTOR + ln(E1/(2 E2))/2 so that the late tail's series falls
        # at 2 e^(-2 SPAN_FACTOR) a term
        report = compare(mk(**kw))
        assert report.passed
        assert max(report.deviations[k] for k in ("f", "b", "F_u")) <= 1e-13

    def test_a_vanishing_mass_crossing_passes_diabatic(self, monkeypatch):
        # m^2 = 1e-400 underflows where pi crosses 0.  The diabatic picture's
        # coupling is tau m at every x, so it passes; the eigenmode picture's
        # coupling is a spike of width ~m/|delta| there, which it refuses as a
        # step limit, with nothing divided by zero
        params = mk(m=1e-200, p=1.0, a2=2.0, tau=1.0)
        assert compare(params).passed
        monkeypatch.setattr(oracle, "DIABATIC_TAU_E", 0.0)
        monkeypatch.setattr(oracle, "DIABATIC_MASS", 0.0)
        with pytest.raises(StepLimitError):
            integrate(params)

    def test_stability_in_span_and_tolerance(self, monkeypatch):
        base = compare(mk()).numeric
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "SPAN_FACTOR", 24.0)
            wider = compare(mk()).numeric
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "TOL", oracle.TOL / 10)
            tighter = compare(mk()).numeric
        for other in (wider, tighter):
            assert abs(other.f - base.f) < 1e-12
            assert abs(other.b - base.b) < 1e-12

    @pytest.mark.parametrize("scale", [1.0, 10.0])
    @pytest.mark.parametrize("kw", [
        dict(tau=0.3), dict(tau=3.0), dict(tau=10.0),
        dict(m=1e-6, p=-1.0, a2=1.0, tau=1.0),
        dict(m=1.3, q=-0.7, p=-1.1, a1=-0.5, a2=1.0, tau=2.0, t0=-0.7),
    ], ids=lambda kw: ",".join(f"{k}={v:g}" for k, v in kw.items()))
    def test_tolerance_bounds_the_amplitudes_absolutely(self, monkeypatch, kw, scale):
        # TOL is one absolute bar on every component of the unitary state, so
        # the amplitudes, phases included, are within a few TOL of the charts'
        # however small |u_b| is (3.8e-8 at m = 1e-6); measured at TOL and
        # 10 TOL: at most 0.58 TOL (the anchor at tau = 10, at 10 TOL)
        monkeypatch.setattr(oracle, "TOL", scale * oracle.TOL)
        params = mk(**kw)
        sol = analytic.match_at_t0(analytic.build_solution(params), params)
        out = integrate(params)
        assert max(abs(out.u_f - sol.u_f), abs(out.u_b - sol.u_b)) <= 2.0 * oracle.TOL

    @pytest.mark.parametrize("kw", [
        dict(tau=0.3), dict(tau=3.0), dict(p=4.0, a2=1.0, tau=10.0),
        # |delta|/m = 10, E2/E1 = 2; pi = -1 .. -2 never crosses 0
        dict(m=0.1, p=-1.0, a2=1.0, tau=1.0),
        # an early plateau at pi1 = 0 with |delta| = m: the tail's coupling
        # is at its largest against E1
        dict(p=0.0, a2=1.0, tau=0.3),
        # pi1 = 0.577 m and tau E1 ~ 1, where the tail's phase and its
        # coupling are of one size
        dict(p=0.577, a2=1.0, tau=1.0),
        # E2/E1 = 4.98: the edges are -1.46 and 0.65, an asymmetric window
        dict(p=0.1, a2=5.0, tau=1.0),
    ], ids=lambda kw: ",".join(f"{k}={v:g}" for k, v in kw.items()))
    def test_closed_form_tails_match_the_stepped_tails(self, monkeypatch, kw):
        # beyond the window's edges the coupling's tails are summed as
        # series; stepping 19 more widths on each side gives the same
        # amplitudes to rounding, where a dropped or wrong-signed tail term
        # moves them by more than 1e-12.  The wide run steps at TOL/10: at
        # TOL its outer plateau steps leave u_b 2.4e-13 off 50-digit Gamma
        # ratios at tau = 3 (2.1e-14 at TOL/10), where the default run is
        # 7.0e-15 off; at TOL/10 the runs differ by at most 2.2e-13 here, in
        # u_f at p = 4, tau = 10, where the wide run is the one 2.2e-13 off
        # the Gamma ratios and the default run 5.9e-15
        tails = integrate(mk(**kw))
        monkeypatch.setattr(oracle, "SPAN_FACTOR", 20.0)
        monkeypatch.setattr(oracle, "TOL", oracle.TOL / 10)
        stepped = integrate(mk(**kw))
        assert abs(tails.u_f - stepped.u_f) <= 1e-12
        assert abs(tails.u_b - stepped.u_b) <= 1e-12

    @pytest.mark.parametrize("kw", [
        dict(tau=0.9), dict(tau=1.1),
        dict(m=0.5, q=-1.3, p=0.4, a1=0.5, a2=-2.0, tau=0.8),
        dict(m=0.5, q=-1.3, p=0.4, a1=0.5, a2=-2.0, tau=1.2),
        # pi crosses 0 at m = 0.003 |delta|
        dict(m=0.01, p=1.7, a2=3.4, tau=1.0),
    ], ids=lambda kw: ",".join(f"{k}={v:g}" for k, v in kw.items()))
    def test_both_pictures_give_the_same_amplitudes(self, monkeypatch, kw):
        # on both sides of tau max(E1, E2) = DIABATIC_TAU_E = 2, and at a
        # crossing, the diabatic and eigenmode pictures share nothing but the
        # step rule and `dop853.step`; their u_f and u_b, phases included,
        # agree to 1.2e-13 here
        params = mk(**kw)
        runs = []
        for tau_e in (math.inf, 0.0):
            monkeypatch.setattr(oracle, "DIABATIC_TAU_E", tau_e)
            monkeypatch.setattr(oracle, "DIABATIC_MASS", 0.0)
            runs.append(integrate(params))
        diabatic, eigenmode = runs
        assert abs(diabatic.u_f - eigenmode.u_f) <= 1e-12
        assert abs(diabatic.u_b - eigenmode.u_b) <= 1e-12

    def test_transition_time_only_shifts_phases(self):
        a = compare(mk(t0=0.0)).numeric
        b = compare(mk(t0=37.5)).numeric
        assert abs(a.f - b.f) < 1e-10
        assert abs(a.b - b.b) < 1e-10

    def test_steps_follow_the_transition(self):
        # the free e^{-/+iEt} oscillation is stripped, so the steps follow the
        # sech^2 transition, about linearly in tau; a mis-wired stage that
        # loses order takes many more.  tau = 0.3 runs the diabatic picture,
        # and a crossing at m = 1e-8 takes 15 steps there too
        for kw, want in ((dict(tau=0.3), 14), (dict(m=1e-8, p=1.7, a2=3.4), 15),
                         (dict(tau=3.0), 42), (dict(tau=10.0), 105), (dict(tau=30.0), 267)):
            steps = integrate(mk(**kw)).steps
            assert steps == pytest.approx(want, rel=0.02), f"{kw}: {steps} steps"

    def test_step_counts_do_not_follow_rounding(self, monkeypatch):
        # on the plateaus Theta's slope is constant and its error sums are
        # exactly 0, not the rounding of weights that add to -1.6e-16 in
        # floats, so raising E = hypot(pi, m) one ulp at every node moves no
        # step count; with the noise it moved 221 of the 384 inputs of the
        # benchmark's oracle-validation seeds 1-3, by up to 8 steps
        # in the eigenmode picture, which forms E; tau E is 3 to 6
        points = [mk(tau=1.5), mk(tau=3.0), mk(p=0.5, a2=0.5, tau=3.0),
                  mk(p=2.5, a2=0.5, tau=1.0), mk(p=4.0, a2=5.0, tau=0.6)]
        steps = [integrate(params).steps for params in points]

        class HypotOneUlpUp:
            def __getattr__(self, name):
                return getattr(math, name)

            @staticmethod
            def hypot(x, y):
                return math.nextafter(math.hypot(x, y), math.inf)

        monkeypatch.setattr(oracle, "math", HypotOneUlpUp())
        assert [integrate(params).steps for params in points] == steps

    @pytest.mark.parametrize("m", [1e-6, 1e-8, 1e-12, 1e-100, 1e-300])
    def test_small_mass_phases_rest_on_theta_error_control(self, m):
        # pi1 = -1, pi2 = -2: the integrator's u_f and u_b carry the charts'
        # phases only if the step control bounds Theta's error, a phase error,
        # at the absolute scale a and b are held to where |a| ~ 1.  `compare`
        # reads moduli only, so it cannot see a phase this loses
        params = mk(m=m, p=-1.0, a2=1.0, tau=1.0)
        sol = analytic.match_at_t0(analytic.build_solution(params), params)
        out = integrate(params)
        assert abs(out.u_f - sol.u_f) <= 1e-12
        assert abs(out.u_b - sol.u_b) <= 1e-9 * abs(sol.u_b)

    def test_step_cap_enforced(self, monkeypatch):
        # tau = 30 takes 267 steps, ~4.4 per unit of 1 + tau E, in the
        # eigenmode picture, and m = 1e-3 (~3e-4 |delta|) 412 steps, ~8.1 per
        # unit, in the diabatic one; a budget of 3 per unit allows 183 and 156
        monkeypatch.setattr(oracle, "STEP_BUDGET", 3)
        for kw in (dict(), dict(m=1e-3, p=1.7, a2=3.4)):
            with pytest.raises(StepLimitError, match="step budget"):
                integrate(mk(tau=30.0, **kw))

    def test_a_slow_step_is_refused_before_the_first_step(self):
        # tau max(E1, E2) = 3.2e8: the step budget alone would allow ~3e11 steps
        start = time.perf_counter()
        with pytest.raises(StepLimitError, match="supported range"):
            integrate(mk(p=1.0, a2=4.0, tau=1e8))
        assert time.perf_counter() - start < 1.0

    def test_refusal_reads_max_tau_e(self, monkeypatch):
        # the anchor has max(E1, E2) = 2: at MAX_TAU_E = 0.5 tau E = 0.4 runs,
        # in the diabatic picture, and 0.6 is refused; at 5, tau E = 4 runs,
        # in the eigenmode picture, and 6 is refused
        for limit, tau in ((0.5, 0.2), (5.0, 2.0)):
            monkeypatch.setattr(oracle, "MAX_TAU_E", limit)
            assert integrate(mk(tau=tau)).steps > 0
            with pytest.raises(StepLimitError, match="supported range"):
                integrate(mk(tau=1.5 * tau))

    @pytest.mark.parametrize("tau", [1e-50, 1e-300])
    def test_a_fast_step_takes_a_fixed_number_of_steps(self, tau):
        # the window is a fixed number of tau wide at every tau (1.3 at the
        # anchor), so the plateaus cost what they cost at tau ~ 1e-3, not a
        # climb over decades of step size
        assert integrate(mk(tau=tau)).steps <= 100

    def test_smallest_tau_gives_the_sharp_step(self):
        # tau = 5e-324, the least double: Theta' = tau E is subnormal per unit
        # x = u/tau, Theta barely moves, and the amplitudes are the Heaviside limit's
        params = mk(tau=5e-324)
        out = integrate(params)
        num = result_from_amplitudes(asymptotic_modes(params), params.m, abs(out.u_f),
                                     abs(out.u_b))
        hard = sharp_step(m=params.m, q=params.q, p=params.p, a1=params.a1, a2=params.a2)
        assert num.f == pytest.approx(hard.f, abs=1e-10)
        assert num.b == pytest.approx(hard.b, abs=1e-10)

    def test_amplitudes_carry_the_closed_form_phases(self):
        # the integrator's u_f and u_b are the charts' (connection formula)
        # unitary amplitudes, phase included; compare reads moduli only, and
        # |u| <= 1, so the bar is absolute
        rng = random.Random(3)
        for _ in range(12):
            m = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
            params = StepParameters(
                m=m, q=rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5),
                p=rng.uniform(-3.0, 3.0), a1=rng.uniform(-1.0, 1.0), a2=rng.uniform(-3.0, 3.0),
                t0=rng.uniform(-2.0, 2.0), tau=math.exp(rng.uniform(math.log(1e-3), math.log(3.0))))
            sol = analytic.match_at_t0(analytic.build_solution(params), params)
            out = integrate(params)
            assert abs(out.u_f - sol.u_f) <= 1e-10, params
            assert abs(out.u_b - sol.u_b) <= 1e-10, params

    @pytest.mark.parametrize("tau", [10.0, 30.0])
    def test_adiabatic_amplitudes_match_closed_form(self, tau):
        report = compare(mk(tau=tau))
        assert report.deviations["f"] <= 1e-12
        assert report.deviations["b"] <= 1e-12

    @pytest.mark.parametrize("tau", [30.0, 100.0])
    def test_slow_forward_amplitude_matches_the_charts(self, tau):
        # tau E = 60 and 200: u_f, phase included, within 1e-12 of the
        # charts', 1.3e-13 and 1.7e-13 off in 267 and 763 steps.  Against
        # 50-digit Gamma ratios the charts are 6.9e-14 and 1.1e-13 off, the
        # integrator 6.6e-14 and 5.7e-14
        params = mk(tau=tau)
        sol = analytic.match_at_t0(analytic.build_solution(params), params)
        assert abs(integrate(params).u_f - sol.u_f) <= 1e-12

    # u_f from the connection formula's Gamma ratios
    # G(c') G(b' - a')/(G(b') G(c' - a')) cos(theta1/2)/cos(theta2/2), the
    # arguments from `analytic._gap_formula` on mpf, computed once with
    # mpmath at 50 digits from these exact binary inputs: the anchor at
    # tau = 100 and 300, and a draw with pi2 ~ 0 at tau E1 = 829
    @pytest.mark.parametrize("kw, u_f", [
        (dict(tau=100.0), ("-0.99225294465955113485984269871675417386694567823134",
                           "0.12423402840787926811882374443633743870514336719780")),
        (dict(tau=300.0), ("-0.93340783952909524153184209220841456237928123105889",
                           "0.35881723078139208373946407604599992498237398474615")),
        (dict(p=1.9542210032705185, a2=1.9361864682532268, tau=377.45920597610575),
         ("0.97268342025934400244279528784130083338207842810763",
          "0.23213565851153583041080839189331749377786609716149")),
    ], ids=("tau=100", "tau=300", "pi2~0"))
    def test_slow_forward_phase_matches_the_gamma_ratios(self, kw, u_f):
        # tau max(E1, E2) = 200, 600 and 829, the last two beyond the charts'
        # range (`build_solution` refuses them): there the integrator alone
        # gives the phase.  Theta ~ tau E X is carried as a compensated pair,
        # and x advances by exactly the h each step integrated, so the phase
        # keeps no accumulated rounding: 5.7e-14, 1.3e-13 and 5.8e-14 off in
        # 763, 1,989 and 3,170 steps.  One float Theta summed over a
        # drifting x at +-2 widths was 5.0e-13, 7.7e-12 and 2.4e-12 off;
        # dropping either the compensation or the exact h leaves the last
        # case 2.6e-12 or 3.7e-12 off
        want = complex(*map(float, u_f))
        assert abs(integrate(mk(**kw)).u_f - want) <= 1e-12

    def test_final_state_normalized(self):
        # the incident eigenmode has |phi|^2 + |theta|^2 = |a|^2 + |b|^2 = 1,
        # which the flow conserves exactly; norm_drift is its change, the
        # largest over accepted steps
        out = integrate(mk())
        assert out.norm_drift <= 1e-9


class TestCompare:
    def test_reference_point(self):
        report = compare(mk())
        assert report.passed
        assert report.deviations["f"] < 1e-6
        assert report.deviations["b"] < 1e-6

    @pytest.mark.parametrize("m", [1e-6, 1e-12, 1e-30, 1e-200])
    def test_incident_wave_where_theta_is_near_pi(self, m):
        # pi1 = -1, pi2 = -2 (q = 1, a1 = 0, a2 = 1): theta1 = atan2(m, pi1)
        # rounds near pi, so half angles taken from the angle kept few digits,
        # and at m = 1e-20 gave f = 2 where the closed form gives 1; at
        # m = 1e-200 the incident mode's 1/cos^2(theta1/2) ~ 4/m^2 is beyond
        # the double range, and the integrator starts from a = 1 instead
        report = compare(mk(m=m, p=-1.0, a2=1.0, tau=1.0))
        assert report.passed
        # rounding only: the integrator's own error at these tolerances
        assert report.deviations["f"] <= 1e-14
        assert report.deviations["F_u"] <= 1e-14

    @pytest.mark.parametrize("m", [1e-2, 1e-6, 3e-7, 1e-7, 1e-8, 1e-100])
    def test_small_mass_crossings_pass(self, m):
        # pi = 1.7 -> -1.7 crosses 0 at x = 0, where the eigenmode coupling is
        # a spike of width ~m/|delta|, which that picture cannot follow at
        # m <= 1e-7.  tau E = 0.51, and the diabatic picture, whose coupling
        # is tau m, passes at every m, in 15 steps, with deviations below 1e-15
        report = compare(mk(m=m, p=1.7, a2=3.4, tau=0.3))
        assert report.passed
        assert max(report.deviations[k] for k in ("f", "b", "F_u")) <= 1e-14

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
