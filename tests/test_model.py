import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from diracstep import analytic, model, oracle, selftest, sharp_step
from diracstep.model import (
    StepParameters,
    TwoSpinor,
    asymptotic_modes,
    potential_at,
    potential_rate,
)

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
amplitude = st.floats(min_value=-5, max_value=5, allow_nan=False)


def mk(m=1.0, q=1.0, p=1.0, a1=0.0, a2=1.0, tau=1.0, t0=0.0):
    return StepParameters(m=m, q=q, p=p, a1=a1, a2=a2, tau=tau, t0=t0)


class TestStepParameters:
    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            mk(m=0.0)
        with pytest.raises(ValueError):
            mk(m=-1.0)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            mk(tau=0.0)
        with pytest.raises(ValueError):
            mk(tau=-0.5)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            mk(p=math.inf)
        with pytest.raises(ValueError):
            mk(a2=math.nan)

    @pytest.mark.parametrize("name,bad", [
        (name, bad) for name in ("m", "q", "p", "a1", "a2")
        for bad in (math.nan, math.inf, -math.inf)] + [("m", 0.0), ("m", -1.0)])
    def test_one_rule(self, name, bad):
        """check_inputs, StepParameters and sharp_step reject an input alike."""
        inputs = dict(m=1.0, q=1.0, p=1.0, a1=0.0, a2=1.0)
        inputs[name] = bad
        expected = f"{name} must be {'positive' if math.isfinite(bad) else 'finite'}, got {bad!r}"
        for check in (model.check_inputs, lambda kw: StepParameters(tau=1.0, **kw),
                      lambda kw: sharp_step(**kw)):
            with pytest.raises(ValueError) as exc:
                check(inputs)
            assert str(exc.value) == expected

    def test_finite_inputs_whose_sum_overflows(self):
        big = 1.5e308
        assert mk(p=big, a1=big, a2=big, t0=big).p == big
        model.check_inputs({"m": big, "tau": big})


def one_record_of_each_class():
    """A record of each of the package's nine record classes."""
    params = mk()
    sol = analytic.match_at_t0(analytic.build_solution(params), params)
    return [params, asymptotic_modes(params), TwoSpinor(1.0 + 2.0j, -0.5j), sol.earlier, sol,
            analytic.scatter(params), oracle.OracleOutcome(0.0, 1j, 0j, 3),
            oracle.compare(params), selftest.CheckResult("check", True, "detail", 0.5)]


class TestRecords:
    """The records are `model.Record`s, without `dataclasses` but with its
    repr, equality and hash: StepParameters and the chart, solution, oracle
    and check records are frozen and hashable, the per-point results
    (AsymptoticModes, TwoSpinor, ScatteringResult) mutable and unhashable."""

    def test_assignment_raises(self):
        params = mk()
        with pytest.raises(AttributeError, match="cannot assign to field 'tau'"):
            params.tau = 2.0
        with pytest.raises(AttributeError, match="cannot delete field 'p'"):
            del params.p
        assert params.tau == 1.0

    def test_replace_checks_the_inputs(self):
        with pytest.raises(ValueError) as exc:
            mk().replace(tau=-1.0)
        assert str(exc.value) == "tau must be positive, got -1.0"
        assert mk().replace(tau=2.0) == mk(tau=2.0)
        assert hash(mk().replace(tau=2.0)) == hash(mk(tau=2.0))

    def test_replace_derives_the_private_values_again(self):
        # a matched solution's N, N u_f and N u_b follow its log_norm and
        # amplitudes through replace, and so does the one refusal
        params = mk()
        sol = analytic.match_at_t0(analytic.build_solution(params), params)
        twice = sol.replace(log_norm=sol.log_norm + math.log(2.0))
        for t in (-0.5, 0.5):
            one, two = (analytic.solve_earlier(s, t, params) for s in (sol, twice))
            assert two.upper == pytest.approx(2.0 * one.upper, rel=1e-14)
            assert two.lower == pytest.approx(2.0 * one.lower, rel=1e-14)
        with pytest.raises(analytic.ParameterRangeError, match=r"e\^\(1000\)"):
            analytic.solve_earlier(sol.replace(log_norm=1000.0), 0.5, params)

    def test_construction_forms_agree(self):
        forms = [StepParameters(1.0, 1.0, 2.0, 0.0, 1.0, 0.5),
                 StepParameters(1.0, 1.0, 2.0, 0.0, 1.0, 0.5, 0.0),
                 StepParameters(m=1.0, q=1.0, p=2.0, a1=0.0, a2=1.0, tau=0.5),
                 StepParameters(tau=0.5, t0=0.0, a2=1.0, a1=0.0, p=2.0, q=1.0, m=1.0)]
        for params in forms:
            assert params == forms[0]
            assert hash(params) == hash(forms[0])
            assert repr(params) == ("StepParameters(m=1.0, q=1.0, p=2.0, a1=0.0, "
                                    "a2=1.0, tau=0.5, t0=0.0)")
        assert mk(t0=1.0) != forms[0]

    def test_missing_or_unknown_argument(self):
        with pytest.raises(TypeError):
            StepParameters(m=1.0, q=1.0, p=2.0, a1=0.0, a2=1.0)
        with pytest.raises(TypeError):
            StepParameters(m=1.0, q=1.0, p=2.0, a1=0.0, a2=1.0, tau=0.5, t1=0.0)
        with pytest.raises(TypeError):
            StepParameters(1.0, 1.0, 2.0, 0.0, 1.0, 0.5, 0.0, 0.0)
        with pytest.raises(TypeError):
            mk().replace(t1=0.0)

    @pytest.mark.parametrize("record,name,value", [
        (asymptotic_modes(mk(p=2.0)), "e2", 3.0),
        (TwoSpinor(1.0 + 2.0j, -0.5j), "lower", 4.0 + 0.0j),
    ])
    def test_replace_changes_only_the_named_field(self, record, name, value):
        new = record.replace(**{name: value})
        assert new != record and getattr(new, name) == value
        for other in record.fields:
            if other != name:
                assert getattr(new, other) == getattr(record, other)
        assert record.replace() == record

    def test_repr_is_the_dataclass_repr(self):
        assert repr(oracle.OracleOutcome(norm_drift=0.0, u_f=1j, u_b=0j, steps=3)) == (
            "OracleOutcome(norm_drift=0.0, u_f=1j, u_b=0j, steps=3)")
        for record in one_record_of_each_class():
            cls = type(record)
            reference = dataclasses.make_dataclass(cls.__qualname__, cls.fields)
            assert repr(record) == repr(reference(*record._values()))

    def test_equality_is_of_one_class_and_its_field_tuple(self):
        for record in one_record_of_each_class():
            twin = record.replace()
            assert twin is not record and twin == record
            assert record != record._values()
        spinor = TwoSpinor(1.0, 2.0)
        assert type("Other", (TwoSpinor,), {})(1.0, 2.0) != spinor
        # a tuple compares its items by identity first, as a dataclass's __eq__ does
        modes = model.AsymptoticModes(math.nan, 1.0, 2.0, 3.0, 4.0)
        assert modes == modes.replace()
        assert modes != modes.replace(pi1=float("nan"))

    def test_the_chart_plan_takes_no_part(self):
        chart = analytic.build_solution(mk()).earlier
        other = chart.replace(plan=analytic.build_solution(mk(tau=2.0)).earlier.plan)
        assert other.plan is not chart.plan
        assert other == chart and hash(other) == hash(chart) and repr(other) == repr(chart)
        assert "plan" not in repr(chart)

    def test_frozen_records_refuse_assignment_and_mutable_ones_take_it(self):
        frozen = (StepParameters, analytic.ChartExpansion, analytic.HypergeometricSolution,
                  oracle.OracleOutcome, oracle.ComparisonReport, selftest.CheckResult)
        for record in one_record_of_each_class():
            if isinstance(record, frozen):
                with pytest.raises(AttributeError):
                    record.fields = ()
            else:
                record.fields = ()
                assert record.fields == ()

    def test_a_frozen_record_hashes_its_field_tuple(self):
        # so a record holding a mutable one, or a dict, is unhashable, as a
        # dataclass is
        hashable = (StepParameters, analytic.ChartExpansion, oracle.OracleOutcome,
                    selftest.CheckResult)
        for record in one_record_of_each_class():
            if isinstance(record, hashable):
                assert hash(record) == hash(record.replace()) == hash(record._values())
            else:
                with pytest.raises(TypeError, match="unhashable"):
                    hash(record)


class TestPotential:
    def test_midpoint_at_t0(self):
        params = mk(a1=-1.0, a2=3.0, t0=0.7)
        assert potential_at(0.7, params) == pytest.approx(1.0, abs=1e-15)

    def test_constant_potential(self):
        params = mk(a1=3.0, a2=3.0)
        for t in (-100.0, -1.0, 0.0, 2.5, 1e4):
            assert potential_at(t, params) == 3.0

    def test_direct_value(self):
        # (1 + tanh 1)/2 for a unit step one tau past t0
        params = mk(a1=0.0, a2=1.0, tau=1.0)
        assert potential_at(1.0, params) == pytest.approx(0.88079707797788244, abs=1e-15)

    def test_monotone_when_step_nontrivial(self):
        params = mk(a1=0.0, a2=2.0)
        ts = [-3.0 + 0.25 * k for k in range(25)]
        vals = [potential_at(t, params) for t in ts]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @given(amplitude, amplitude, st.floats(min_value=0.01, max_value=10),
           st.floats(min_value=-50, max_value=50))
    def test_bounded_by_plateaus(self, a1, a2, tau, s):
        params = mk(a1=a1, a2=a2, tau=tau)
        v = potential_at(s * tau, params)
        assert min(a1, a2) - 1e-12 <= v <= max(a1, a2) + 1e-12


class TestPotentialRate:
    def test_peak_value_at_t0(self):
        params = mk(a1=-1.0, a2=2.0, tau=0.5, t0=1.0)
        assert potential_rate(1.0, params) == pytest.approx(3.0 / (2 * 0.5), rel=1e-15, abs=0.0)

    def test_tail_negligible(self):
        params = mk(a1=0.0, a2=4.0, tau=0.2)
        bound = 1e-25 * 4.0 / 0.2
        assert abs(potential_rate(30 * 0.2, params)) < bound
        assert abs(potential_rate(-30 * 0.2, params)) < bound

    def test_matches_finite_difference(self):
        params = mk(a1=0.0, a2=1.0, tau=1.0)
        h = 1e-5
        fd = (potential_at(1.0 + h, params) - potential_at(1.0 - h, params)) / (2 * h)
        assert potential_rate(1.0, params) == pytest.approx(fd, abs=1e-9)

    def test_no_overflow_deep_in_tails(self):
        params = mk(a1=0.0, a2=1.0, tau=1.0)
        assert potential_rate(1e4, params) == 0.0
        assert potential_rate(-1e4, params) == 0.0


class TestAsymptoticModes:
    def test_early_mode(self):
        modes = asymptotic_modes(mk(p=math.sqrt(3.0), a1=0.0, a2=1.0))
        assert modes.pi1 == pytest.approx(math.sqrt(3.0))
        assert modes.e1 == pytest.approx(2.0, rel=1e-15, abs=0.0)

    def test_late_mode(self):
        modes = asymptotic_modes(mk(p=math.sqrt(3.0), a2=2 * math.sqrt(3.0)))
        assert modes.pi2 == pytest.approx(-math.sqrt(3.0))
        assert modes.e2 == pytest.approx(2.0, rel=1e-15, abs=0.0)

    def test_equal_plateaus_give_equal_energies(self):
        modes = asymptotic_modes(mk(p=0.37, a1=1.3, a2=1.3))
        assert modes.e1 == modes.e2

    @given(st.floats(min_value=0.1, max_value=5), amplitude, amplitude, finite)
    def test_energies_at_least_mass(self, m, a1, a2, p):
        modes = asymptotic_modes(mk(m=m, p=p, a1=a1, a2=a2))
        assert modes.e1 >= m and modes.e2 >= m
        if modes.pi1 == 0.0:
            assert modes.e1 == m


def chiral_mode(pi, m, positive):
    # the unit eigenmodes (cos, sin)(theta/2) of +E and (-sin, cos)(theta/2)
    # of -E, theta = atan2(m, pi), from `model.log_half_angles`
    c, s = (math.exp(x) for x in model.log_half_angles(pi, math.hypot(pi, m), m))
    return TwoSpinor(c, s) if positive else TwoSpinor(-s, c)


class TestModeSpinors:
    def test_norm_sq(self):
        assert TwoSpinor(3.0 + 4.0j, -12.0).norm_sq == 169.0
        assert TwoSpinor(1e200j, 0.0).norm_sq == math.inf

    @given(st.floats(min_value=-8, max_value=8), st.floats(min_value=0.1, max_value=4))
    def test_eigenvector_identity(self, pi, m):
        # [[pi, m], [m, -pi]] applied to (cos, sin)(theta/2) equals E times it
        e = math.hypot(pi, m)
        v = chiral_mode(pi, m, positive=True)
        top = pi * v.upper + m * v.lower
        bot = m * v.upper - pi * v.lower
        assert top == pytest.approx(e * v.upper, rel=1e-12, abs=1e-12)
        assert bot == pytest.approx(e * v.lower, rel=1e-12, abs=1e-12)

    @given(st.floats(min_value=-8, max_value=8), st.floats(min_value=0.1, max_value=4))
    def test_negative_branch(self, pi, m):
        e = math.hypot(pi, m)
        v = chiral_mode(pi, m, positive=False)
        top = pi * v.upper + m * v.lower
        bot = m * v.upper - pi * v.lower
        assert top == pytest.approx(-e * v.upper, rel=1e-12, abs=1e-12)
        assert bot == pytest.approx(-e * v.lower, rel=1e-12, abs=1e-12)
