"""The benchmark's workloads: seeded inputs, one operation, and its check.

Each workload makes POOL inputs from the seed, already in execution order,
runs one operation per input through diracstep's public API, and checks every
output point against this directory's own reference (never against the
program's own status cells or exit code).

Inputs are stratified so that every seed exercises the same spread of the
variable that sets the cost (tau): the cost-setting range is cut into equal
log strata, each stratum gets one seeded draw, and strata are visited in
bit-reversed order, which spreads cheap and costly ops evenly through a
pass.  The seed moves every input; it does not move the shape of the load.
"""

from __future__ import annotations

import contextlib
import io
import math

import reference

# inputs per workload, a power of 2 for the bit-reversed order; at least 110
# leaves 10 inputs beyond p90
POOL = 128
SWEEP_ROWS = 81
WAVE_TIMES = 64

# README tolerance for closed-form probabilities, and the F + B identity
CLOSED_FORM_TOL = 1e-9
IDENTITY_TOL = 1e-12
KINEMATICS_RTOL = 1e-12
# integrator agreement with the reference (the oracle's own tolerance)
ORACLE_TOL = 1e-6
# relative norm conservation of a chart spinor
NORM_RTOL = 1e-9

RT3 = math.sqrt(3.0)
# the acceptance suite's closed-form-vs-integrator grid
GRID_P = (0.5, 1.0, RT3, 2.5, 4.0)
GRID_A2 = (0.5, 1.0, 2 * RT3, 4.0, 5.0)


def _bitrev(i: int, n: int) -> int:
    """Position i of the bit-reversal permutation of range(n), n a power of 2."""
    bits = n.bit_length() - 1
    return int(format(i, f"0{bits}b")[::-1], 2) if bits else 0


def _log_strata(rng, lo: float, hi: float, n: int) -> list[float]:
    """One log-uniform draw from each of n equal log strata of [lo, hi]."""
    a, b = math.log(lo), math.log(hi)
    return [math.exp(a + (b - a) * (k + rng.random()) / n) for k in range(n)]


def _signed(rng, lo: float, hi: float) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


def _grid_point(rng, stratum: int) -> tuple[float, float]:
    # every tau stratum meets the 25 (p, a2) grid cells in turn; the seed
    # jitters each cell by up to 5%
    cell = stratum % 25
    p = GRID_P[cell % 5] * rng.uniform(0.95, 1.05)
    a2 = GRID_A2[cell // 5] * rng.uniform(0.95, 1.05)
    return p, a2


def _close(x: float, ref: float, atol: float) -> bool:
    # False for NaN
    return abs(x - ref) <= atol


def _rclose(x: float, ref: float, rtol: float) -> bool:
    return abs(x - ref) <= rtol * abs(ref)


class ClosedFormSweep:
    """One op: `diracstep sweep` with 81 rows, in-process through cli.main."""

    name = "closed-form-sweep"
    VARS = ("tau", "a2", "p", "energy_ratio")
    COLUMNS = ("e1", "e2", "f", "b", "F", "B", "F_u", "B_u", "status")

    def inputs(self, rng) -> list[dict]:
        per_var = POOL // len(self.VARS)
        taus = {v: _log_strata(rng, 1e-4, 1e3, per_var) for v in self.VARS}
        out = []
        for i in range(POOL):
            var = self.VARS[i % len(self.VARS)]
            fixed = {
                "m": math.exp(rng.uniform(math.log(0.5), math.log(2.0))),
                "q": _signed(rng, 0.5, 1.5),
                "a1": _signed(rng, 0.2, 1.0),
                "t0": _signed(rng, 0.1, 3.0),
                "p": rng.uniform(-3.0, 3.0),
                "a2": rng.uniform(-4.0, 4.0),
                "tau": taus[var][_bitrev(i // len(self.VARS), per_var)],
            }
            desc = {"var": var, "log": False, "branch": "plus"}
            if var == "tau":
                desc.update(start=1e-4, stop=1e3, log=True)
            elif var == "a2":
                desc.update(start=rng.uniform(-5.0, -0.5), stop=rng.uniform(0.5, 5.0))
            elif var == "p":
                desc.update(start=rng.uniform(-4.0, -0.5), stop=rng.uniform(0.5, 4.0))
            else:
                desc.update(start=1.0, stop=rng.uniform(2.0, 6.0),
                            branch=rng.choice(("plus", "minus")))
            if var != "energy_ratio":
                del fixed[var]
            else:
                del fixed["p"]
            desc["fixed"] = fixed
            out.append(desc)
        return out

    def prepare(self, prog, desc: dict) -> list[str]:
        argv = ["sweep", "--sweep-var", desc["var"], f"--start={desc['start']!r}",
                f"--stop={desc['stop']!r}", "--count", str(SWEEP_ROWS),
                "--branch", desc["branch"]]
        if desc["log"]:
            argv.append("--log")
        for key, value in desc["fixed"].items():
            argv.append(f"--{key}={value!r}")
        return argv

    def op(self, prog, argv: list[str]):
        out = io.StringIO()
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                prog.cli.main(argv)
        except Exception as exc:  # a crash fails every row of the op
            return exc
        return out.getvalue()

    def _values(self, desc: dict) -> list[float]:
        lo, hi, n = desc["start"], desc["stop"], SWEEP_ROWS
        if desc["log"]:
            la, lb = math.log(lo), math.log(hi)
            return [math.exp(la + (lb - la) * i / (n - 1)) for i in range(n)]
        return [lo + (hi - lo) * i / (n - 1) for i in range(n)]

    def _row_ok(self, desc: dict, value: float, cells: list[str]) -> bool:
        if cells[-1] != "ok":
            return False
        kw = dict(desc["fixed"])
        if desc["var"] == "energy_ratio":
            pi1 = kw["m"] * math.sqrt(value * value - 1.0)
            if desc["branch"] == "minus":
                pi1 = -pi1
            kw["p"] = kw["q"] * kw["a1"] + pi1
        else:
            kw[desc["var"]] = value
        _, _, e1_ref, e2_ref = reference.kinematics(kw["m"], kw["q"], kw["p"], kw["a1"], kw["a2"])
        f_u_ref, b_u_ref = reference.probabilities(
            kw["m"], kw["q"], kw["p"], kw["a1"], kw["a2"], kw["tau"])
        row = dict(zip(self.COLUMNS, cells[1:]))
        try:
            e1, e2, big_f, big_b, f_u, b_u = (
                float(row[k]) for k in ("e1", "e2", "F", "B", "F_u", "B_u"))
        except ValueError:
            return False
        return (_rclose(e1, e1_ref, KINEMATICS_RTOL) and _rclose(e2, e2_ref, KINEMATICS_RTOL)
                and _close(b_u, b_u_ref, CLOSED_FORM_TOL)
                and _close(f_u, f_u_ref, CLOSED_FORM_TOL)
                and _close(big_f + big_b, 1.0, IDENTITY_TOL))

    def check(self, desc: dict, out) -> tuple[int, int, bool]:
        """(points, failed points, whether the output could be checked)."""
        if isinstance(out, Exception):
            return SWEEP_ROWS, SWEEP_ROWS, True
        lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
        header = (desc["var"],) + self.COLUMNS
        if not lines or tuple(lines[0].split(",")) != header or len(lines) != SWEEP_ROWS + 1:
            return SWEEP_ROWS, SWEEP_ROWS, False
        failed = 0
        for value, line in zip(self._values(desc), lines[1:]):
            cells = line.split(",")
            if len(cells) != len(header):
                return SWEEP_ROWS, SWEEP_ROWS, False
            try:
                echoed = float(cells[0])
            except ValueError:
                return SWEEP_ROWS, SWEEP_ROWS, False
            if not _rclose(echoed, value, KINEMATICS_RTOL):
                return SWEEP_ROWS, SWEEP_ROWS, False
            if not self._row_ok(desc, value, cells):
                failed += 1
        return SWEEP_ROWS, failed, True


class OracleValidation:
    """One op, and one point: oracle.compare on one parameter set."""

    name = "oracle-validation"

    def inputs(self, rng) -> list[dict]:
        taus = _log_strata(rng, 0.05, 3.0, POOL)
        out = []
        for i in range(POOL):
            s = _bitrev(i, POOL)
            p, a2 = _grid_point(rng, s)
            out.append({"m": 1.0, "q": 1.0, "p": p, "a1": 0.0, "a2": a2,
                        "tau": taus[s], "t0": 0.0})
        return out

    def prepare(self, prog, desc: dict):
        return prog.model.StepParameters(**desc)

    def op(self, prog, params):
        try:
            return prog.oracle.compare(params)
        except Exception as exc:
            return exc

    def check(self, desc: dict, out) -> tuple[int, int, bool]:
        if isinstance(out, Exception) or not out.passed:
            return 1, 1, True
        f_u_ref, b_u_ref = reference.probabilities(
            desc["m"], desc["q"], desc["p"], desc["a1"], desc["a2"], desc["tau"])
        ok = (_close(out.numeric.F_u, f_u_ref, ORACLE_TOL)
              and _close(out.numeric.B_u, b_u_ref, ORACLE_TOL)
              and _close(out.analytic.F_u, f_u_ref, CLOSED_FORM_TOL)
              and _close(out.analytic.B_u, b_u_ref, CLOSED_FORM_TOL))
        return 1, 0 if ok else 1, True


class Wavefunction:
    """One op: build and match the charts, then evaluate both charts at 64
    times across t0 +- 4 tau (128 spinors, one point each)."""

    name = "wavefunction"
    points_per_op = 2 * WAVE_TIMES

    def inputs(self, rng) -> list[dict]:
        # tau m is log-uniform over [0.05, 5]: the mass sets the time unit
        tau_m = _log_strata(rng, 0.05, 5.0, POOL)
        out = []
        for i in range(POOL):
            s = _bitrev(i, POOL)
            p, a2 = _grid_point(rng, s)
            m = math.exp(rng.uniform(math.log(0.8), math.log(1.25)))
            out.append({
                "m": m, "q": (1.0 if i % 2 == 0 else -1.0) * rng.uniform(0.8, 1.2),
                "p": p, "a1": rng.uniform(-0.5, 0.5), "a2": a2,
                "tau": tau_m[s] / m, "t0": rng.uniform(-2.0, 2.0),
            })
        return out

    def prepare(self, prog, desc: dict):
        params = prog.model.StepParameters(**desc)
        times = [desc["t0"] + 4.0 * desc["tau"] * (2.0 * j / (WAVE_TIMES - 1) - 1.0)
                 for j in range(WAVE_TIMES)]
        return params, times

    def op(self, prog, inp):
        params, times = inp
        analytic = prog.analytic
        try:
            sol = analytic.match_at_t0(analytic.build_solution(params), params)
            spinors = []
            for t in times:
                spinors.append(analytic.solve_earlier(sol, t, params))
                spinors.append(analytic.solve_later(sol, t, params))
        except Exception as exc:
            return exc
        return spinors

    def check(self, desc: dict, out) -> tuple[int, int, bool]:
        if isinstance(out, Exception):
            return self.points_per_op, self.points_per_op, True
        if len(out) != self.points_per_op:
            return self.points_per_op, self.points_per_op, False
        pi1, _, e1, _ = reference.kinematics(desc["m"], desc["q"], desc["p"], desc["a1"], desc["a2"])
        # the incident chart branch carries amplitude e^(pi eps1), eps1 = tau E1 / 2
        incident = math.exp(math.pi * desc["tau"] * e1) * (1.0 + ((e1 - pi1) / desc["m"]) ** 2)
        failed = sum(not _rclose(s.norm_sq, incident, NORM_RTOL) for s in out)
        return self.points_per_op, failed, True


WORKLOADS = {w.name: w for w in (ClosedFormSweep(), OracleValidation(), Wavefunction())}
