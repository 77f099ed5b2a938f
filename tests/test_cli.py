import argparse
import decimal
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from diracstep import StepParameters, analytic, asymptotic_modes, cli, oracle, selftest, sharp_step

from conftest import sharp_reference

RT3_STR = "1.7320508"
A2_STR = "3.4641016"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestScatter:
    def test_sharp_anchor_json(self, capsys):
        code, out, _ = run(capsys, "scatter", "--m", "1", "--q", "1", "--p", RT3_STR,
                           "--a1", "0", "--a2", A2_STR, "--tau", "0.0001", "--format", "json")
        assert code == 0
        rec = json.loads(out)
        assert list(rec) == ["m", "q", "p", "a1", "a2", "t0", "tau", "e1", "e2",
                             "f", "b", "F", "B", "F_u", "B_u"]
        assert rec["F"] == pytest.approx(0.5, abs=1e-3)
        assert rec["B"] == pytest.approx(0.5, abs=1e-3)

    def test_trivial_step(self, capsys):
        code, out, _ = run(capsys, "scatter", "--a1", "2", "--a2", "2", "--tau", "0.5",
                           "--p", "1", "--format", "json")
        assert code == 0
        rec = json.loads(out)
        assert rec["F"] == pytest.approx(1.0, abs=1e-12)
        assert rec["B"] == pytest.approx(0.0, abs=1e-12)

    def test_energy_far_below_the_momenta(self, capsys):
        # E1 = 1e-200, E2 = 1e150: E1/E2 is below the double range; f, b,
        # F_u and B_u are 1/2 to 40 digits (test_analytic's decimal sinh
        # products), and the command once exited 2 with "math domain error"
        code, out, err = run(capsys, "scatter", "--m", "1e-200", "--p", "0", "--a2", "1e150",
                             "--tau", "1e-100", "--format", "json")
        assert (code, err) == (0, "")
        rec = json.loads(out)
        assert (rec["e1"], rec["e2"]) == (1e-200, 1e150)
        for name in ("f", "b", "F_u", "B_u"):
            assert abs(rec[name] - 0.5) <= 4e-13 * 0.5, name

    def test_tau_zero_is_flag_error(self, capsys):
        code, _, err = run(capsys, "scatter", "--tau", "0", "--p", "1", "--a2", "2")
        assert code == 2
        assert "tau must be positive; use `scatter --sharp` for the Heaviside limit" in err

    def test_missing_required_flags(self, capsys):
        code, _, err = run(capsys, "scatter", "--tau", "0.5")
        assert code == 2
        assert "--p" in err
        # neither --tau nor --sharp
        code, out, err = run(capsys, "scatter", "--p", "1", "--a2", "2")
        assert (code, out) == (2, "")
        assert "--tau" in err

    def test_sharp_limit_flag(self, capsys):
        code, out, _ = run(capsys, "scatter", "--sharp", "--p", RT3_STR, "--a2", A2_STR,
                           "--format", "json")
        assert code == 0
        rec = json.loads(out)
        assert rec["tau"] == 0.0
        hard = sharp_step(m=1, q=1, p=float(RT3_STR), a1=0.0, a2=float(A2_STR))
        assert rec["F"] == pytest.approx(hard.F, rel=1e-12)

    @pytest.mark.parametrize("flags", [("--m", "0"), ("--m", "-1"), ("--p", "nan"),
                                       ("--t0", "inf"), ("--tau", "nan"), ("--tau", "-1"),
                                       ("--tau", "5")])
    def test_sharp_rejects_bad_inputs(self, capsys, flags):
        code, out, err = run(capsys, "scatter", "--sharp", "--p", "1", "--a2", "2", *flags)
        assert (code, out) == (2, "")
        assert flags[0][2:] in err
        # a --tau the record would drop: every tau is refused, naming both flags
        if flags[0] == "--tau":
            assert "--tau" in err and "--sharp" in err

    @pytest.mark.parametrize("tau", ["1e-100", "1e-200", "1e-300"])
    def test_oracle_at_a_vanishing_tau(self, capsys, tau):
        # the integration variable is t/tau up to a power of two, so neither
        # the window nor the steps leave the double range
        code, out, _ = run(capsys, "scatter", "--p", RT3_STR, "--a2", A2_STR, "--tau", tau,
                           "--format", "json", "--oracle")
        assert code == 0
        rec = json.loads(out)
        assert rec["oracle_dev_f"] < oracle.COMPARE_TOL
        assert rec["oracle_dev_b"] < oracle.COMPARE_TOL

    def test_oracle_refuses_a_slow_step(self, capsys):
        # tau E = 3.2e8 is beyond oracle.MAX_TAU_E: exit 3 at once, nothing printed
        code, out, err = run(capsys, "scatter", "--p", "1", "--a2", "4", "--tau", "1e8",
                             "--oracle", "--format", "json")
        assert (code, out) == (3, "")
        assert "supported range" in err

    def test_oracle_deviation_fields(self, capsys):
        code, out, _ = run(capsys, "scatter", "--p", "1.2", "--a2", "0.8", "--tau", "0.2",
                           "--format", "json", "--oracle")
        assert code == 0
        rec = json.loads(out)
        assert rec["oracle_dev_f"] < 1e-6
        assert rec["oracle_dev_b"] < 1e-6

    def test_sharp_with_oracle_is_flag_error(self, capsys):
        # the record could not carry the oracle_dev_* fields --oracle promises
        code, out, err = run(capsys, "scatter", "--sharp", "--oracle", "--p", "1", "--a2", "2",
                             "--format", "json")
        assert code == 2
        assert out == ""
        assert "--oracle" in err and "--sharp" in err

    @pytest.mark.parametrize("flags", [("--p", "1e6", "--a2", "1"), ("--p", "1e155", "--a2", "1"),
                                       ("--p", "1", "--a2", "1e200")])
    def test_sharp_at_large_momenta(self, capsys, flags):
        code, out, _ = run(capsys, "scatter", "--sharp", *flags, "--format", "json")
        assert code == 0
        rec = json.loads(out)
        ref = sharp_step(m=1.0, q=1.0, p=rec["p"], a1=0.0, a2=rec["a2"])
        assert (rec["f"], rec["b"], rec["B_u"]) == (ref.f, ref.b, ref.B_u)
        if rec["p"] == 1e6:
            # 60-digit decimal evaluation of the continuity solve
            assert rec["b"] == pytest.approx(4.99999999999500e-13, rel=1e-13, abs=0.0)
            assert rec["B_u"] == pytest.approx(2.50000500000250e-25, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("flags", [
        ("--m", "2.2319937348444016e-263", "--q", "-809.1063405712639",
         "--p", "2.4094208447587265e-203", "--a1", "2.7312176019499322e+60",
         "--a2", "-1.3802861836389848e-300"),
        ("--m", "1.993695827230455e-106", "--q", "-0.23385194077476407",
         "--p", "-2.895822915735515e-257", "--a1", "-2.5903004890980456e-81",
         "--a2", "-6.644126397634703e+245"),
    ], ids=["E1=2e63-E2=2e-203", "E1=6e-82-E2=2e245"])
    def test_sharp_across_the_double_range(self, capsys, flags):
        # m/E and E1/E2 far from 1: these exited 3 with "float division by
        # zero" and "F + B - 1 = nan" while the mode factors were ratios
        code, out, err = run(capsys, "scatter", "--sharp", *flags, "--format", "json")
        assert (code, err) == (0, "")
        rec = json.loads(out)
        for name, want in sharp_reference(*(rec[k] for k in ("m", "q", "p", "a1", "a2"))).items():
            assert abs(rec[name] - want) <= 1e-13 * abs(want), name

    @pytest.mark.parametrize("flags", [("--tau", "1e-308"), ("--tau", "1e-300"), ("--tau", "1"),
                                       ("--sharp",)])
    def test_momenta_at_the_top_of_the_range(self, capsys, flags):
        # E1 + E2 + |delta| = 3.2e308 overflowed and gave "F + B - 1 = nan"
        code, out, err = run(capsys, "scatter", "--p", "8e307", "--a2", "1.6e308", *flags,
                             "--format", "json")
        assert (code, err) == (0, "")
        rec = json.loads(out)
        assert (rec["b"], rec["B_u"]) == (1.0, 1.0)

    @pytest.mark.parametrize("flags", [("--p", "1e308", "--a1", "-1e308", "--a2", "0", "--tau", "1"),
                                       ("--sharp", "--p", "1e308", "--a2", "-1e308")],
                             ids=["pi1=inf", "sharp-pi2=inf"])
    def test_overflowing_kinematics_are_refused(self, capsys, flags):
        # finite inputs whose pi1 or pi2 overflows exited 3 with
        # "F + B - 1 = nan": now a flag error naming the kinematics and inputs
        code, out, err = run(capsys, "scatter", *flags, "--format", "json")
        assert (code, out) == (2, "")
        assert "plateau kinematics beyond the double range" in err
        assert "p = 1e+308" in err and "E2 = " in err

    def test_numerical_failure_exit_code(self, capsys):
        # pi tau E is a subnormal double, which once exited 3: the sinh
        # arguments are formed in decimal, so the step is its Heaviside
        # limit
        code, out, err = run(capsys, "scatter", "--p", "1", "--a2", "4", "--tau", "5e-324",
                             "--format", "json")
        assert (code, err) == (0, "")
        rec = json.loads(out)
        code, out, _ = run(capsys, "scatter", "--sharp", "--p", "1", "--a2", "4",
                           "--format", "json")
        assert code == 0
        hard = json.loads(out)
        for name in ("F_u", "B_u"):
            assert abs(rec[name] - hard[name]) <= 1e-12 * hard[name], name

    @pytest.mark.parametrize("flags", [
        ("--m", "1e-200", "--p", "0", "--a2", "1e150", "--tau", "1e-200"),
        ("--m", "1e290", "--p", "1e300", "--a2", "3e300", "--tau", "1e-320"),
        ("--m", "1", "--p", "2e300", "--a2", "1e300", "--tau", "1e-320"),
    ], ids=["E1=1e-200-E2=1e150", "F_u=5.625e-21", "E1=2e300-E2=1e300"])
    def test_subnormal_steps_are_the_heaviside_limit(self, capsys, flags):
        # pi tau E1 or pi tau E2 below the normal range: these exited 3, or
        # printed F_u = 5.62466e-21 where the limit is 5.625e-21, while the
        # arguments were formed with pi tau/2 itself subnormal
        code, out, err = run(capsys, "scatter", *flags, "--format", "json")
        assert (code, err) == (0, "")
        rec = json.loads(out)
        hard = sharp_step(*(rec[k] for k in ("m", "q", "p", "a1", "a2")))
        for name in ("f", "b", "F", "B", "F_u", "B_u"):
            want = getattr(hard, name)
            assert abs(rec[name] - want) <= 1e-12 * want, name
        if rec["m"] == 1e-200:
            for name in ("F", "B", "F_u", "B_u"):
                assert abs(rec[name] - 0.5) <= 1e-12, name

    def test_adiabatic_limit_where_the_backward_gap_overflows(self, capsys):
        # k (E1 + E2 - |pi1 + pi2|) overflows and |delta|/(E1 + E2) underflows:
        # their product was inf 0 = NaN, and this exited 3 with
        # "F + B - 1 = nan"
        code, out, err = run(capsys, "scatter", "--m", "1e200", "--p", "0", "--a1", "1e-170",
                             "--a2", "0", "--tau", "1e200", "--format", "json")
        assert (code, err) == (0, "")
        rec = json.loads(out)
        assert (rec["f"], rec["b"], rec["F_u"], rec["B_u"]) == (1.0, 0.0, 1.0, 0.0)

    def test_csv_record_reads_back_as_the_json_one(self, capsys):
        flags = ("scatter", "--p", "1.2", "--a2", "-0.8", "--a1", "0.3", "--tau", "0.2",
                 "--t0", "1.5", "--m", "0.7", "--q", "-1.1")
        code, out, err = run(capsys, *flags, "--format", "csv")
        assert (code, err) == (0, "")
        lines = [line for line in out.splitlines() if not line.startswith("#")]
        assert len(lines) == 2
        record = dict(zip(lines[0].split(","), map(float, lines[1].split(","))))
        code, out, _ = run(capsys, *flags, "--format", "json")
        assert code == 0
        assert record == json.loads(out)

    def test_very_slow_step_passes_the_unitarity_guard(self, capsys):
        code, out, _ = run(capsys, "scatter", "--p", "1", "--a2", "4", "--tau", "1e8",
                           "--format", "json")
        assert code == 0
        rec = json.loads(out)
        assert rec["F_u"] == 1.0
        assert rec["B_u"] == 0.0

    def test_huge_kinematics_do_not_overflow(self, capsys):
        # E1 E2 and pi^2 exceed the double range; the gaps are formed on
        # kinematics scaled by max(|pi1|, |pi2|, m)
        code, out, _ = run(capsys, "scatter", "--p", "1e200", "--a2", "2", "--tau", "1",
                           "--format", "json")
        assert code == 0
        rec = json.loads(out)
        assert rec["F_u"] == 1.0
        assert rec["B_u"] == 0.0
        code, out, _ = run(capsys, "scatter", "--p=0", "--a1=-1e200", "--a2=1e200",
                           "--tau", "1", "--format", "json")
        assert code == 0
        assert json.loads(out)["B_u"] == pytest.approx(1.0, rel=1e-15, abs=0.0)

    def test_mass_below_the_double_range(self, capsys):
        # m^2 underflows: the massless limit, not a flag error
        code, out, _ = run(capsys, "scatter", "--m", "1e-200", "--p", "1", "--a2", "2",
                           "--tau", "1", "--format", "json")
        assert code == 0
        rec = json.loads(out)
        assert rec["F_u"] == 0.0
        assert rec["B_u"] == pytest.approx(1.0, rel=1e-15, abs=0.0)

    def test_forward_probability_when_only_m_squared_underflows(self, capsys):
        # m^2 underflows, pi tau m^2 does not: F_u is resolved, not the
        # massless limit (600-digit mpmath gives 3.1415926535897932e-290)
        code, out, _ = run(capsys, "scatter", "--m", "1e-170", "--p", "1", "--a2", "2",
                           "--tau", "1e50", "--format", "json")
        assert code == 0
        rec = json.loads(out)
        assert rec["F_u"] == pytest.approx(3.1415926535897932e-290, rel=1e-12, abs=0.0)
        assert rec["B_u"] == 1.0

    def test_human_format(self, capsys):
        code, out, _ = run(capsys, "scatter", "--p", "1", "--a2", "2", "--tau", "0.5")
        assert code == 0
        assert "F_u" in out


class TestSweep:
    def test_degenerate_fixed_plateaus(self, capsys):
        code, out, _ = run(capsys, "sweep", "--sweep-var", "p", "--start", "0.5",
                           "--stop", "3", "--count", "7", "--a1", "2", "--a2", "2",
                           "--tau", "0.5")
        assert code == 0
        rows = [r for r in out.splitlines() if r and not r.startswith("#")]
        header = rows[0].split(",")
        for row in rows[1:]:
            cells = dict(zip(header, row.split(",")))
            assert float(cells["F"]) == pytest.approx(1.0, abs=1e-12)
            assert float(cells["B"]) == pytest.approx(0.0, abs=1e-12)
            assert cells["status"] == "ok"

    def test_tau_sweep_adiabatic_trend(self, capsys):
        code, out, _ = run(capsys, "sweep", "--sweep-var", "tau", "--start", "1e-4",
                           "--stop", "10", "--count", "9", "--log",
                           "--p", RT3_STR, "--a2", A2_STR)
        assert code == 0
        rows = [r for r in out.splitlines() if r and not r.startswith("#")]
        header = rows[0].split(",")
        recs = [dict(zip(header, r.split(","))) for r in rows[1:]]
        e_sum = float(recs[0]["e1"]) + float(recs[0]["e2"])
        tail = [float(r["B_u"]) for r in recs if float(r["tau"]) * e_sum >= 5.0]
        assert len(tail) >= 2
        assert all(b < a for a, b in zip(tail, tail[1:]))

    def test_momentum_sweep_matches_sharp(self, capsys):
        code, out, _ = run(capsys, "sweep", "--sweep-var", "p", "--start", "0.5",
                           "--stop", "4", "--count", "8", "--a2", "2.5", "--tau", "1e-4")
        assert code == 0
        rows = [r for r in out.splitlines() if r and not r.startswith("#")]
        header = rows[0].split(",")
        for row in rows[1:]:
            cells = dict(zip(header, row.split(",")))
            hard = sharp_step(m=1, q=1, p=float(cells["p"]), a1=0.0, a2=2.5)
            assert float(cells["F"]) == pytest.approx(hard.F, abs=1e-3)
            assert float(cells["B"]) == pytest.approx(hard.B, abs=1e-3)

    def test_energy_ratio_sweep(self, capsys):
        code, out, _ = run(capsys, "sweep", "--sweep-var", "energy_ratio", "--start", "1.5",
                           "--stop", "3", "--count", "4", "--a2", "1.0", "--tau", "0.3")
        assert code == 0
        rows = [r for r in out.splitlines() if r and not r.startswith("#")]
        header = rows[0].split(",")
        for row in rows[1:]:
            cells = dict(zip(header, row.split(",")))
            assert float(cells["e1"]) == pytest.approx(float(cells["energy_ratio"]), rel=1e-12)

    def test_momentum_at_ratio_against_decimal(self):
        # m sqrt(r^2 - 1) to 40 digits from the exact binary r, for r - 1 from
        # 1e-15, where r^2 - 1 cancels, to 1e300, where r^2 overflows
        ctx = decimal.Context(prec=40)
        args = types.SimpleNamespace(m=1.0, q=0.0, a1=0.0)
        n = 20_000
        for i in range(n):
            r = 1.0 + 10.0 ** (-15.0 + 315.0 * i / (n - 1))
            d = decimal.Decimal(r)
            ref = ctx.sqrt(ctx.subtract(ctx.multiply(d, d), 1))
            got = cli._momentum_at_ratio(r, args)
            assert abs(decimal.Decimal(got) - ref) <= decimal.Decimal(1e-15) * ref, r
            assert cli._momentum_at_ratio(r, args, minus=True) == -got

    def test_huge_energy_ratios(self, capsys):
        code, out, _ = run(capsys, "sweep", "--sweep-var", "energy_ratio", "--log",
                           "--start", "1.0000001", "--stop", "1e300", "--count", "5",
                           "--a2", "2", "--tau", "0.5")
        assert code == 0
        rows = [r for r in out.splitlines() if r and not r.startswith("#")]
        assert len(rows) == 6
        for row in rows[1:]:
            cells = dict(zip(rows[0].split(","), row.split(",")))
            assert cells["status"] == "ok"
            assert float(cells["e1"]) == pytest.approx(float(cells["energy_ratio"]), rel=1e-12)

    def test_energy_ratio_beyond_the_double_range(self, capsys):
        # m sqrt(r^2 - 1) overflows at r = 1e308, m = 2: that row fails and
        # names the ratio, the rows before it are computed
        code, out, _ = run(capsys, "sweep", "--sweep-var", "energy_ratio", "--log",
                           "--start", "1e300", "--stop", "1e308", "--count", "3",
                           "--a2", "2", "--tau", "0.5", "--m", "2")
        assert code == 0
        rows = [r for r in out.splitlines() if r and not r.startswith("#")]
        status = [dict(zip(rows[0].split(","), row.split(",")))["status"] for row in rows[1:]]
        assert status[:2] == ["ok", "ok"]
        assert status[2].startswith("ValueError: --energy-ratio ")

    def test_oracle_every_interleaving(self, capsys):
        code, out, _ = run(capsys, "sweep", "--sweep-var", "p", "--start", "1", "--stop", "2",
                           "--count", "4", "--a2", "1.0", "--tau", "0.2",
                           "--oracle-every", "2")
        assert code == 0
        rows = [r for r in out.splitlines() if r and not r.startswith("#")]
        header = rows[0].split(",")
        assert "oracle_dev_f" in header
        recs = [dict(zip(header, r.split(","))) for r in rows[1:]]
        assert recs[0]["oracle_dev_f"] != ""
        assert recs[1]["oracle_dev_f"] == ""
        assert float(recs[2]["oracle_dev_f"]) < 1e-6

    def test_oracle_every_with_a_failed_row(self, capsys):
        # tau = -0.1 fails on a row the oracle would check; 0.1 and 0.5 are
        # not checked, 0.3 is
        code, out, _ = run(capsys, "sweep", "--sweep-var", "tau", "--start", "-0.1",
                           "--stop", "0.5", "--count", "4", "--p", "1", "--a2", "1",
                           "--oracle-every", "2")
        assert code == 0
        rows = [r for r in out.splitlines() if r and not r.startswith("#")]
        header = rows[0].split(",")
        assert header[-3:] == ["oracle_dev_f", "oracle_dev_b", "status"]
        recs = [r.split(",") for r in rows[1:]]
        assert [len(cells) for cells in recs] == [len(header)] * 4
        failed, unchecked, checked, last = recs
        assert failed[-1].startswith("ValueError")
        assert failed[1:-1] == [""] * (len(header) - 2)
        for cells in (unchecked, last):
            assert cells[-1] == "ok"
            assert "" not in cells[:-3]
            assert cells[-3:-1] == ["", ""]
        assert checked[-1] == "ok"
        assert all(float(c) < 1e-6 for c in checked[-3:-1])

    def test_bad_spec_rejected(self, capsys):
        code, _, err = run(capsys, "sweep", "--sweep-var", "p", "--start", "1",
                           "--stop", "1", "--count", "5", "--a2", "1", "--tau", "0.3")
        assert code == 2
        code, _, err = run(capsys, "sweep", "--sweep-var", "p", "--start", "1",
                           "--stop", "2", "--count", "1", "--a2", "1", "--tau", "0.3")
        assert code == 2
        # every row takes p from its ratio, so a given --p would be echoed
        # falsely in the header
        code, out, err = run(capsys, "sweep", "--sweep-var", "energy_ratio", "--start", "1.5",
                             "--stop", "3", "--count", "4", "--a2", "1.0", "--tau", "0.3",
                             "--p", "0.5")
        assert code == 2
        assert out == ""
        assert "--p" in err and "--sweep-var energy_ratio" in err
        # every other sweep sets its swept input, so a flag for it would be
        # dropped
        base = ["--start", "1", "--stop", "2", "--count", "3"]
        for var, flags in (("p", ["--p", "9", "--a2", "1", "--tau", "0.3"]),
                           ("a2", ["--p", "1", "--a2", "9", "--tau", "0.3"]),
                           ("tau", ["--p", "1", "--a2", "2", "--tau", "-1"])):
            code, out, err = run(capsys, "sweep", "--sweep-var", var, *base, *flags)
            assert code == 2
            assert out == ""
            assert f"--{var}" in err and f"--sweep-var {var}" in err

    @pytest.mark.parametrize("var,name,value", [
        ("p", "m", "0"), ("p", "m", "-1"), ("p", "q", "inf"), ("p", "a1", "nan"),
        ("p", "t0", "inf"), ("p", "tau", "nan"), ("a2", "p", "nan"),
        ("energy_ratio", "m", "0")])
    def test_bad_fixed_flag_rejected_before_any_row(self, capsys, var, name, value):
        # a fixed input would fail every row alike: a flag error, not rows
        given = {"p": "1", "a2": "2", "tau": "0.5", name: value}
        del given["p" if var == "energy_ratio" else var]
        code, out, err = run(capsys, "sweep", "--sweep-var", var, "--start", "1",
                             "--stop", "2", "--count", "3",
                             *(f"--{k}={v}" for k, v in given.items()))
        assert code == 2
        assert out == ""
        assert f"{name} must be" in err

    @pytest.mark.parametrize("var,bounds,fixed", [
        ("p", ("nan", "2"), ("--a2", "2", "--tau", "0.5")),
        ("p", ("-inf", "2"), ("--a2", "2", "--tau", "0.5")),
        ("tau", ("1", "inf"), ("--p", "1", "--a2", "2", "--log")),
        # finite bounds whose grid leaves the double range
        ("a2", ("0", "1e308"), ("--p", "1", "--tau", "1")),
        ("a2", ("-1e308", "1e308"), ("--p", "1", "--tau", "1")),
        ("tau", ("1e-300", "1.7976931348623157e308"), ("--p", "1", "--a2", "2", "--log")),
    ])
    def test_range_outside_the_doubles_is_flag_error(self, capsys, var, bounds, fixed):
        code, out, err = run(capsys, "sweep", "--sweep-var", var, f"--start={bounds[0]}",
                             f"--stop={bounds[1]}", "--count", "7", *fixed)
        assert code == 2
        assert out == ""
        assert "--start" in err and "--stop" in err

    @pytest.mark.parametrize("flag,flags", [
        ("--log", ("--sweep-var", "tau", "--log", "--start", "0", "--stop", "1",
                   "--p", "1", "--a2", "2")),
        ("--log", ("--sweep-var", "p", "--log", "--start", "1", "--stop", "-2",
                   "--a2", "2", "--tau", "0.5")),
        ("--a2", ("--sweep-var", "p", "--start", "1", "--stop", "2", "--tau", "0.5")),
        ("--oracle-every", ("--sweep-var", "p", "--start", "1", "--stop", "2",
                            "--a2", "2", "--tau", "0.5", "--oracle-every", "-1")),
    ], ids=["log-start-0", "log-stop-negative", "no-a2", "oracle-every-negative"])
    def test_flag_error_names_its_flag(self, capsys, flag, flags):
        code, out, err = run(capsys, "sweep", "--count", "3", *flags)
        assert (code, out) == (2, "")
        assert flag in err

    def test_all_points_failing_exits_numerical(self, capsys):
        code, out, err = run(capsys, "sweep", "--sweep-var", "tau", "--start", "-2.0",
                             "--stop", "-1.0", "--count", "3", "--p", "1", "--a2", "1")
        assert code == 3
        rows = [r for r in out.splitlines() if r and not r.startswith("#")]
        for row in rows[1:]:
            assert row.split(",")[-1] != "ok"

    def test_rows_with_overflowing_kinematics_name_them(self, capsys):
        # E2 = inf on every row: each status names the kinematics, not a
        # broken identity "F + B - 1 = nan"
        code, out, _ = run(capsys, "sweep", "--sweep-var", "a2", "--start", "-1e308",
                           "--stop", "-1.7e308", "--count", "3", "--p", "1e308", "--tau", "1")
        assert code == 3
        rows = [r for r in out.splitlines() if r and not r.startswith("#")]
        for row in rows[1:]:
            assert row.split(",")[-1].startswith(
                "ValueError: plateau kinematics beyond the double range: E1 = 1e+308; E2 = inf")

    def test_partial_failure_keeps_going(self, capsys):
        # tau sweep crossing zero: negative tau rows fail, positive succeed
        code, out, _ = run(capsys, "sweep", "--sweep-var", "tau", "--start", "-0.2",
                           "--stop", "0.4", "--count", "4", "--p", "1", "--a2", "1")
        assert code == 0
        rows = [r for r in out.splitlines() if r and not r.startswith("#")]
        statuses = [r.split(",")[-1] for r in rows[1:]]
        assert "ok" in statuses and any(s != "ok" for s in statuses)

    def test_byte_identical_output(self, capsys):
        args = ("sweep", "--sweep-var", "a2", "--start", "-2", "--stop", "4",
                "--count", "11", "--p", "0.9", "--tau", "0.7")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


# one float cell, with the extremes of the double range drawn often
_CELL = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                  st.sampled_from([0.0, -0.0, 5e-324, -5e-324, sys.float_info.max,
                                   -sys.float_info.max, sys.float_info.min]))


class TestRowTemplate:
    """Every CSV row is written with one %-template; its cells are _NUM's."""

    # a figure2 row is the widest: qa2, the result columns, four sharp ones
    WIDTH = 1 + 8 + 4

    @given(st.lists(_CELL, min_size=WIDTH, max_size=WIDTH))
    @example([-0.0, 5e-324, sys.float_info.max, math.nan, math.inf, -math.inf, 0.0,
              -5e-324, -sys.float_info.max, 1.0, -1.0, 0.1, 2.0 ** -1074 * 3])
    def test_template_matches_num_cell_by_cell(self, row):
        line = cli._row_template(len(row)) % tuple(row)
        assert line == ",".join(cli._NUM(v) for v in row)


class TestSharedParser:
    """main parses with one parser per process; no call leaves state in it."""

    def test_one_parser_per_process(self):
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()

    def test_no_state_between_calls(self, capsys):
        sweep = ("sweep", "--sweep-var", "a2", "--start", "0.5", "--stop", "4",
                 "--count", "5", "--p", "0.9", "--tau", "0.7", "--oracle-every", "3")
        code, first, _ = run(capsys, *sweep)
        assert code == 0
        # a flag error inside argparse, part-way through the arguments
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--sweep-var", "p", "--start", "1", "--count", "many"])
        assert exc.value.code == 2
        assert "--count" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--help"])
        assert exc.value.code == 0
        assert "--sweep-var" in capsys.readouterr().out
        code, out, _ = run(capsys, "scatter", "--sharp", "--p", "1", "--a2", "2",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["tau"] == 0.0
        # a flag error raised in the command, after the parser has set both
        code, out, _ = run(capsys, "scatter", "--sharp", "--p", "1", "--a2", "2",
                           "--oracle", "--format", "json")
        assert (code, out) == (2, "")
        # neither --sharp nor --oracle leaked from the calls before
        code, out, _ = run(capsys, "scatter", "--p", "1", "--a2", "2", "--tau", "0.5",
                           "--format", "json")
        assert code == 0
        rec = json.loads(out)
        assert rec["tau"] == 0.5
        assert "oracle_dev_f" not in rec
        code, again, _ = run(capsys, *sweep)
        assert code == 0
        assert again == first


class TestNegativeValues:
    """A float flag reads a negative value in any notation, whatever
    argparse's own rule on the Python that runs it."""

    def test_every_float_flag_of_every_command(self):
        parser = cli.build_parser()
        required = {"sweep": ["--sweep-var", "p", "--start", "0", "--stop", "1", "--count", "2"]}
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        flags = [(name, action) for name, sub in commands.choices.items()
                 for action in sub._actions if action.type is float]
        assert len(flags) == 25
        for name, action in flags:
            for text in ("-1e3", "-1.2000000000000000e+00", "-2.5E-1", "-.5", "-2"):
                argv = [name, *required.get(name, []), action.option_strings[0], text]
                assert getattr(parser.parse_args(argv), action.dest) == float(text), argv

    def test_scatter_with_negative_scientific_values(self, capsys):
        code, out, _ = run(capsys, "scatter", "--p", "1", "--a2", "-1e3", "--tau", "0.5",
                           "--q", "-1.2000000000000000e+00", "--format", "json")
        assert code == 0
        rec = json.loads(out)
        assert (rec["a2"], rec["q"]) == (-1e3, -1.2)

    def test_a_malformed_negative_value_names_its_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["scatter", "--p", "1", "--a2", "-1e3x", "--tau", "0.5"])
        assert exc.value.code == 2
        assert "--a2: invalid float value: '-1e3x'" in capsys.readouterr().err


class TestFigure2:
    def test_outputs_and_claims(self, tmp_path, capsys):
        code, out, _ = run(capsys, "figure2", "--out-dir", str(tmp_path), "--count", "41")
        assert code == 0
        panel_a = tmp_path / "panel_a.csv"
        panel_b = tmp_path / "panel_b.csv"
        script = tmp_path / "figure2.gp"
        assert panel_a.exists() and panel_b.exists() and script.exists()
        assert "plot" in script.read_text()

        def rows(path):
            lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
            header = lines[0].split(",")
            return [dict(zip(header, l.split(","))) for l in lines[1:]]

        for rec in rows(panel_a) + rows(panel_b):
            assert abs(float(rec["F"]) + float(rec["B"]) - 1.0) < 1e-12
        assert max(abs(float(r["B"]) - float(r["B_sharp"])) for r in rows(panel_a)) < 0.01
        assert any(float(r["B"]) > 0.01 for r in rows(panel_b))

    def test_huge_energy_ratio(self, tmp_path, capsys):
        # p = 1e200: the ratio's square would overflow, the momentum does not
        code, out, _ = run(capsys, "figure2", "--out-dir", str(tmp_path), "--count", "5",
                           "--energy-ratio", "1e200")
        assert code == 0
        for name in ("panel_a.csv", "panel_b.csv"):
            assert f"wrote {tmp_path / name}" in out
            lines = [ln for ln in (tmp_path / name).read_text().splitlines()
                     if not ln.startswith("#")]
            assert len(lines) == 6
            for line in lines[1:]:
                e1 = float(dict(zip(lines[0].split(","), line.split(",")))["e1"])
                assert e1 == pytest.approx(1e200, rel=1e-12)

    @pytest.mark.parametrize("flags", [("--energy-ratio", "inf"),
                                       ("--energy-ratio", "1e308", "--m", "2")])
    def test_energy_ratio_beyond_the_double_range(self, tmp_path, capsys, flags):
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "figure2", "--out-dir", str(out_dir), "--count", "5", *flags)
        assert code == 2
        assert out == ""
        assert list(tmp_path.iterdir()) == []
        # the message names the flag, not the p formed from it
        assert "--energy-ratio" in err

    def test_unwritable_directory_is_io_error(self, tmp_path, capsys):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        code, _, err = run(capsys, "figure2", "--out-dir", str(target), "--count", "5")
        assert code == 4

    def test_bad_counts_and_ratio_rejected(self, tmp_path, capsys):
        code, _, _ = run(capsys, "figure2", "--out-dir", str(tmp_path), "--count", "1")
        assert code == 2
        code, _, _ = run(capsys, "figure2", "--out-dir", str(tmp_path),
                         "--energy-ratio", "0.5")
        assert code == 2
        # the sweep runs over q*A2, so A2 = qa2/q needs q != 0
        code, _, err = run(capsys, "figure2", "--out-dir", str(tmp_path), "--q", "0")
        assert code == 2
        assert "--q" in err
        code, out, err = run(capsys, "figure2", "--out-dir", str(tmp_path),
                             "--energy-ratio", "nan")
        assert code == 2
        assert out == ""
        assert "energy ratio" in err

    @pytest.mark.parametrize("flags", [("--tau-slow", "-1"), ("--m", "-1"),
                                       ("--energy-ratio", "0.5"), ("--start", "inf"),
                                       ("--stop", "nan"), ("--stop", "1e308")])
    def test_bad_flag_writes_nothing(self, tmp_path, capsys, flags):
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "figure2", "--out-dir", str(out_dir), "--count", "5", *flags)
        assert code == 2
        assert out == ""
        assert list(tmp_path.iterdir()) == []
        if flags[0] in ("--start", "--stop"):
            # the message names the flags, not an input formed from them
            assert "--start" in err and "--stop" in err


    @pytest.mark.parametrize("flags", [("--tau-fast", "0"), ("--tau-slow", "nan"),
                                       ("--energy-ratio", "0.5"),
                                       ("--start", "1", "--stop", "1")])
    def test_flag_error_names_its_flag(self, tmp_path, capsys, flags):
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "figure2", "--out-dir", str(out_dir), "--count", "5", *flags)
        assert (code, out) == (2, "")
        assert flags[0] in err
        assert list(tmp_path.iterdir()) == []


class TestKinematicsCells:
    """e1 and e2 are the plateau energies of each row's own inputs, to the bit."""

    FIXED = dict(m=0.8, q=-1.2, p=0.7, a1=0.3, a2=-2.1, tau=0.4, t0=1.5)

    def _assert_cells(self, cells, **kw):
        modes = asymptotic_modes(StepParameters(**dict(self.FIXED, **kw)))
        assert cells["e1"] == cli._NUM(modes.e1)
        assert cells["e2"] == cli._NUM(modes.e2)

    @pytest.mark.parametrize("var,start,stop,branch", [
        ("p", "-2", "3", "plus"), ("a2", "-4", "1.5", "plus"), ("tau", "1e-3", "50", "plus"),
        ("energy_ratio", "1", "4", "plus"), ("energy_ratio", "1", "4", "minus")])
    def test_sweep_rows(self, capsys, var, start, stop, branch):
        fixed = {k: v for k, v in self.FIXED.items() if k != var}
        if var == "energy_ratio":
            del fixed["p"]
        argv = ["sweep", "--sweep-var", var, "--start", start, "--stop", stop,
                "--count", "5", "--branch", branch] + [f"--{k}={v!r}" for k, v in fixed.items()]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        rows = [r for r in out.splitlines() if r and not r.startswith("#")]
        header = rows[0].split(",")
        assert len(rows) == 6
        for row in rows[1:]:
            cells = dict(zip(header, row.split(",")))
            assert cells["status"] == "ok"
            value = float(cells[var])
            if var == "energy_ratio":
                pi1 = fixed["m"] * (math.sqrt(value - 1.0) * math.sqrt(value + 1.0))
                kw = {"p": fixed["q"] * fixed["a1"] + (-pi1 if branch == "minus" else pi1)}
            else:
                kw = {var: value}
            self._assert_cells(cells, **kw)

    def test_figure2_rows(self, tmp_path, capsys):
        m, q, a1, t0 = (self.FIXED[k] for k in ("m", "q", "a1", "t0"))
        code, _, _ = run(capsys, "figure2", "--out-dir", str(tmp_path), "--count", "5",
                         "--m", repr(m), "--q", repr(q), "--a1", repr(a1), "--t0", repr(t0))
        assert code == 0
        p = q * a1 + m * math.sqrt(2.0 ** 2 - 1.0)  # the default E1/m = 2
        for name, tau in (("panel_a.csv", 1e-4), ("panel_b.csv", 0.5)):
            lines = [ln for ln in (tmp_path / name).read_text().splitlines()
                     if not ln.startswith("#")]
            header = lines[0].split(",")
            for line in lines[1:]:
                cells = dict(zip(header, line.split(",")))
                self._assert_cells(cells, p=p, a2=float(cells["qa2"]) / q, tau=tau)

    def test_scatter_records(self, capsys):
        argv = ["scatter", "--format", "json"] + [f"--{k}={v!r}" for k, v in self.FIXED.items()]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        smooth = json.loads(out)
        # --sharp refuses a --tau, which its record would drop
        code, out, _ = run(capsys, *(a for a in argv if not a.startswith("--tau=")), "--sharp")
        assert code == 0
        sharp = json.loads(out)
        assert list(sharp) == list(smooth)
        assert sharp["tau"] == 0.0
        modes = asymptotic_modes(StepParameters(**self.FIXED))
        for rec in (smooth, sharp):
            assert (rec["e1"], rec["e2"]) == (modes.e1, modes.e2)


class TestSharedTolerances:
    """The command line's guard and the battery read one definition of each tolerance."""

    @pytest.mark.parametrize("name,message", [("PROBABILITY_SUM_TOL", "F + B - 1"),
                                              ("UNITARITY_TOL", "F_u + B_u - 1")])
    def test_guard_reads_the_battery_tolerance(self, capsys, monkeypatch, name, message):
        # the one definition is analytic's; a negative tolerance fails every
        # point, in the command line's guard and in the battery alike
        monkeypatch.setattr(analytic, name, -1.0)
        code, out, err = run(capsys, "scatter", "--p", "1", "--a2", "2", "--tau", "0.5")
        assert (code, out) == (3, "")
        assert message in err
        assert not selftest.check_normalization(selftest.normalization_points(515, 3))[0]

    def test_oracle_check_reads_the_compare_bar(self, monkeypatch):
        params = StepParameters(m=1.0, q=1.0, p=1.2, a1=0.0, a2=0.8, tau=0.2)
        assert selftest.check_vs_oracle([oracle.compare(params)])[0]
        monkeypatch.setattr(oracle, "COMPARE_TOL", 0.0)
        assert not selftest.check_vs_oracle([oracle.compare(params)])[0]


class TestOracleVerdict:
    """A closed form that misses the integrator fails the command that checks it."""

    @pytest.fixture(autouse=True)
    def scaled_f(self, monkeypatch):
        exact = analytic.scatter

        def scaled(params):
            res = exact(params)
            return res.replace(f=1.01 * res.f)

        # the command prints what cli reads, and compare checks what oracle reads
        monkeypatch.setattr(analytic, "scatter", scaled)
        monkeypatch.setattr(oracle, "scatter", scaled)

    def test_scatter_exits_3_with_the_deviations_on_stderr(self, capsys):
        code, out, err = run(capsys, "scatter", "--p", RT3_STR, "--a2", A2_STR, "--tau", "0.3",
                             "--oracle", "--format", "json")
        assert (code, out) == (3, "")
        assert "disagree" in err and "f 6.4" in err

    def test_sweep_marks_the_checked_rows_failed(self, capsys):
        code, out, _ = run(capsys, "sweep", "--sweep-var", "tau", "--start", "0.1",
                           "--stop", "0.4", "--count", "4", "--p", "1", "--a2", "1",
                           "--oracle-every", "2")
        assert code == 0
        rows = [r for r in out.splitlines() if r and not r.startswith("#")]
        recs = [r.split(",") for r in rows[1:]]
        for cells in recs[0::2]:
            assert cells[-1].startswith("ArithmeticError: closed form and integrator disagree")
            assert cells[1:-1] == [""] * (len(cells) - 2)
        for cells in recs[1::2]:
            assert cells[-1] == "ok"


class TestSelftest:
    def test_the_battery_is_imported_only_to_run(self):
        # scatter, sweep and figure2 do not need it: `cmd_selftest` imports it
        src = str(Path(cli.__file__).resolve().parents[1])
        probe = "import sys, diracstep.cli; print('diracstep.selftest' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, check=True)
        assert done.stdout == "False\n"

    def test_start_up_imports_what_every_command_needs_only(self):
        # each run is a fresh process that pays for every import: json,
        # datetime and pathlib are imported by the commands that use them, and
        # the records need no dataclasses (which imports inspect).  -S keeps
        # site-packages' .pth files, which may import pathlib, out of the probe
        src = str(Path(cli.__file__).resolve().parents[1])
        probe = ("import sys, diracstep.cli; print(sorted({'dataclasses', 'inspect', 'json', "
                 "'datetime', 'pathlib', 'diracstep.selftest'} & set(sys.modules)))")
        done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
        assert done.stdout == "[]\n"

    def test_json_report_passes(self, capsys):
        code, out, _ = run(capsys, "selftest", "--json")
        assert code == 0
        records = json.loads(out)
        assert len(records) >= 8
        assert all(r["passed"] for r in records)

    def test_break_tolerance_fails_with_named_check(self, capsys, monkeypatch):
        monkeypatch.setattr(selftest, "SPECFUN_TOL", 0.0)
        code, out, _ = run(capsys, "selftest")
        assert code == 1
        assert "FAIL" in out
        assert "special-function reference values" in out

    def test_a_check_that_raises_fails(self, capsys, monkeypatch):
        # a check that raises is reported failed, and the battery goes on
        def broken(points):
            raise ZeroDivisionError("broken check")

        monkeypatch.setattr(selftest, "check_sharp_limit", broken)
        code, out, _ = run(capsys, "selftest", "--json")
        assert code == 1
        records = {r["name"]: r for r in json.loads(out)}
        failed = records.pop("sharp-step limit")
        assert not failed["passed"]
        assert failed["detail"] == "raised ZeroDivisionError: broken check"
        assert all(r["passed"] for r in records.values())

    def test_early_frequency_backward_ratio_fails(self, capsys, monkeypatch):
        # c2l scaled by e^(pi (eps1 - eps2)), the backward ratio taken with
        # the early frequency, must miss the integrator's g_b
        real = analytic.match_at_t0

        def early(sol, params):
            sol = real(sol, params)
            scale = math.exp(math.pi * (sol.earlier.eps - sol.later.eps))
            return sol.replace(c2l=scale * sol.c2l)

        monkeypatch.setattr(analytic, "match_at_t0", early)
        code, out, _ = run(capsys, "selftest")
        assert code == 1
        assert "[FAIL] amplitude ratios vs integrator" in out

    def test_nan_result_fails_its_checks(self, capsys, monkeypatch):
        # a NaN deviation must fail, not drop out of the worst case
        real = analytic.scatter
        monkeypatch.setattr(analytic, "scatter",
                            lambda params: real(params).replace(F=math.nan))
        code, out, _ = run(capsys, "selftest")
        assert code == 1
        assert "[FAIL] normalization identities" in out
        assert "[FAIL] sharp-step limit" in out
