"""Command-line front end: scatter, sweep, figure2, selftest.

All output uses natural units (hbar = c = 1); every CSV carries that note and
the tool version in `#` header comments, and repeated runs with identical
flags produce byte-identical CSV.

Exit codes: 0 success, 1 selftest failure, 2 flag validation, 3 numerical
failure, 4 I/O failure.  Only `main` maps the exceptions the commands raise
to exit codes.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys

# json, datetime and pathlib are imported by the commands that use them, as
# each run is a fresh process that pays for every import at start-up
from . import __version__, analytic, model, oracle

_NUM = "{:.16e}".format  # 17 significant digits, scientific

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_FLAGS = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _add_physics_flags(p: argparse.ArgumentParser):
    p.add_argument("--m", type=float, default=1.0, help="rest mass (default 1)")
    p.add_argument("--q", type=float, default=1.0, help="signed coupling (default 1)")
    p.add_argument("--p", type=float, default=None, help="conserved momentum")
    p.add_argument("--a1", type=float, default=0.0, help="early potential (default 0)")
    p.add_argument("--a2", type=float, default=None, help="late potential")
    p.add_argument("--t0", type=float, default=0.0, help="transition time (default 0)")
    p.add_argument("--tau", type=float, default=None, help="transition time parameter")


def _given_inputs(args) -> dict:
    """The physics flags given or defaulted, in header order."""
    return {k: v for k in ("m", "q", "p", "a1", "a2", "t0", "tau")
            if (v := getattr(args, k)) is not None}


def _momentum_at_ratio(ratio: float, args, minus: bool = False) -> float:
    """The p whose incident energy is E1 = ratio*m: q*a1 ± m*sqrt(ratio² - 1),
    formed as m*sqrt(ratio - 1)*sqrt(ratio + 1), which neither cancels near
    ratio = 1 nor overflows where ratio² would.  A ratio of inf, or one whose
    p leaves the double range, is a ValueError naming --energy-ratio."""
    if not ratio >= 1.0:  # written as `not >=` so that NaN fails too
        raise ValueError(f"energy ratio must be >= 1, got {ratio}")
    pi1 = args.m * (math.sqrt(ratio - 1.0) * math.sqrt(ratio + 1.0))
    p = args.q * args.a1 + (-pi1 if minus else pi1)
    if not math.isfinite(p):
        raise ValueError(f"--energy-ratio {ratio} puts p beyond the double range")
    return p


def _header_lines(fixed: dict) -> list[str]:
    lines = [
        f"# diracstep {__version__}",
        "# natural units, hbar=c=1",
    ]
    if fixed:
        lines.append("# " + " ".join(f"{k}={_NUM(v)}" for k, v in fixed.items()))
    return lines


def _row_template(n: int) -> str:
    """A %-template for a CSV row of n numbers; "%.16e" % v is _NUM(v), to the
    byte, for every float."""
    return ",".join(["%.16e"] * n)


# the columns of a result that every record and row carries
_RESULT_COLUMNS = ("e1", "e2", "f", "b", "F", "B", "F_u", "B_u")


def _result_values(res: analytic.ScatteringResult) -> list[float]:
    """The values of _RESULT_COLUMNS, in that order."""
    return [res.modes.e1, res.modes.e2, res.f, res.b, res.F, res.B, res.F_u, res.B_u]


def _guard_probabilities(res: analytic.ScatteringResult) -> None:
    """F + B = 1 by construction; F_u + B_u = 1 only by norm conservation."""
    defect = res.F + res.B - 1.0
    defect_u = res.F_u + res.B_u - 1.0
    # written as `not <=` so that NaN fails too
    if not abs(defect) <= analytic.PROBABILITY_SUM_TOL:
        raise ArithmeticError(f"probability identity violated: F + B - 1 = {defect:.3e}")
    if not abs(defect_u) <= analytic.UNITARITY_TOL:
        raise ArithmeticError(f"unitarity defect too large: F_u + B_u - 1 = {defect_u:.3e}")


def _oracle_deviations(params: model.StepParameters) -> dict[str, float]:
    """oracle.compare's deviations; a report that did not pass is a numerical
    failure."""
    report = oracle.compare(params)
    dev = report.deviations
    if not report.passed:
        raise ArithmeticError(
            "closed form and integrator disagree beyond oracle.COMPARE_TOL = "
            f"{oracle.COMPARE_TOL:g}: deviations "
            + " ".join(f"{k} {v:.3e}" for k, v in dev.items()))
    return dev


# ----------------------------------------------------------------- scatter


def cmd_scatter(args) -> int:
    if args.p is None or args.a2 is None:
        raise ValueError("--p and --a2 are required")
    if args.sharp:
        if args.oracle:
            raise ValueError("--oracle cannot be given with --sharp: it needs tau > 0")
        if args.tau is not None:
            raise ValueError("--tau cannot be given with --sharp: its record carries tau = 0")
        # sharp_step reads no t0, and the record echoes it
        model.check_inputs(_given_inputs(args))
        res = analytic.sharp_step(m=args.m, q=args.q, p=args.p, a1=args.a1, a2=args.a2)
        tau = 0.0  # marks the Heaviside limit in the emitted record
    else:
        if args.tau is None:
            raise ValueError("--tau is required (or pass --sharp)")
        if args.tau <= 0:
            raise ValueError("tau must be positive; use `scatter --sharp` for the Heaviside limit")
        params = model.StepParameters(**_given_inputs(args))
        res = analytic.scatter(params)
        tau = args.tau
    _guard_probabilities(res)
    record = {k: getattr(args, k) for k in ("m", "q", "p", "a1", "a2", "t0")}
    record["tau"] = tau
    record.update(zip(_RESULT_COLUMNS, _result_values(res)))
    if args.oracle:
        dev = _oracle_deviations(params)
        record["oracle_dev_f"] = dev["f"]
        record["oracle_dev_b"] = dev["b"]
    if args.format == "json":
        import json

        print(json.dumps(record))
    elif args.format == "csv":
        keys = list(record)
        for line in _header_lines({}):
            print(line)
        print(",".join(keys))
        print(_row_template(len(keys)) % tuple(record.values()))
    else:
        from datetime import datetime, timezone

        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        print(f"diracstep {__version__} ({stamp}), natural units hbar=c=1")
        width = max(len(k) for k in record)
        for k, v in record.items():
            print(f"{k:<{width}}  {_NUM(v)}")
    return EXIT_OK


# ------------------------------------------------------------------- sweep


def _sweep_values(start: float, stop: float, count: int, log: bool) -> list[float]:
    """The count grid values from start to stop, evenly spaced (in log with
    log=True); a grid that is too short or not finite is a flag error."""
    if count < 2:
        raise ValueError("--count must be >= 2")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"--start and --stop must be finite, got {start!r} and {stop!r}")
    if start == stop:
        raise ValueError("--start and --stop must differ")
    beyond = f"--start {start!r} to --stop {stop!r} leaves the double range"
    if log:
        if start <= 0 or stop <= 0:
            raise ValueError("--log requires positive start/stop")
        la, lb = math.log(start), math.log(stop)
        try:
            return [math.exp(la + (lb - la) * i / (count - 1)) for i in range(count)]
        except OverflowError:  # the last exponent, rounded past ln(max double)
            raise ValueError(beyond) from None
    values = [start + (stop - start) * i / (count - 1) for i in range(count)]
    if not all(map(math.isfinite, values)):
        raise ValueError(beyond)
    return values


def cmd_sweep(args) -> int:
    # each row sets one input, p for an energy_ratio sweep and otherwise the
    # swept one; the other two of p, a2 and tau are required, and a flag for
    # the swept one would be dropped
    swept = "p" if args.sweep_var == "energy_ratio" else args.sweep_var
    for name in ("p", "a2", "tau"):
        if name != swept and getattr(args, name) is None:
            raise ValueError(f"--{name} is required for a {args.sweep_var} sweep")
    if getattr(args, swept) is not None:
        raise ValueError(f"--{swept} cannot be given with --sweep-var {args.sweep_var}: "
                         f"each row sets {swept}")
    if args.oracle_every < 0:
        raise ValueError("--oracle-every must be >= 0")
    fixed = _given_inputs(args)
    # a bad fixed input is a flag error before any row; only a swept value
    # fails a single row
    model.check_inputs(fixed)
    values = _sweep_values(args.start, args.stop, args.count, args.log)
    header_cols = [args.sweep_var, *_RESULT_COLUMNS]
    if args.oracle_every:
        header_cols += ["oracle_dev_f", "oracle_dev_b"]
    header_cols.append("status")

    lines = _header_lines(fixed)
    lines.append(",".join(header_cols))
    # one template per kind of row: checked by the oracle, not checked, failed
    row = _row_template(1 + len(_RESULT_COLUMNS))
    checked = row + "," + _row_template(2) + ",ok"
    unchecked = row + (",,,ok" if args.oracle_every else ",ok")
    failed = "%.16e" + "," * (len(header_cols) - 1) + "%s"
    inputs = dict(fixed)
    failures = 0
    for i, value in enumerate(values):
        try:
            if args.sweep_var == "energy_ratio":
                inputs["p"] = _momentum_at_ratio(value, args, args.branch == "minus")
            else:
                inputs[swept] = value
            params = model.StepParameters(**inputs)
            res = analytic.scatter(params)
            _guard_probabilities(res)
            if args.oracle_every and i % args.oracle_every == 0:
                dev = _oracle_deviations(params)
                line = checked % (value, *_result_values(res), dev["f"], dev["b"])
            else:
                line = unchecked % (value, *_result_values(res))
        except Exception as exc:
            failures += 1
            line = failed % (value, f"{type(exc).__name__}: {exc}".replace(",", ";"))
        lines.append(line)
    print("\n".join(lines))
    if failures == len(values):
        raise ArithmeticError("all sweep points failed")
    return EXIT_OK


# ----------------------------------------------------------------- figure2


def _figure2_panel(tau: float, p: float, grid: list[tuple[float, float]], args) -> str:
    """One panel's CSV: step-strength sweep at fixed incident E1/m, with the
    Heaviside reference columns; grid holds the (q*A2, A2) pairs."""
    fixed = {"m": args.m, "q": args.q, "p": p, "a1": args.a1, "t0": args.t0, "tau": tau}
    # the Heaviside reference columns are F, B, F_u, B_u of the sharp step
    cols = ["qa2", *_RESULT_COLUMNS, *(c + "_sharp" for c in _RESULT_COLUMNS[4:])]
    lines = _header_lines(fixed)
    lines.append("# sweep of step strength q*A2 at fixed incident energy ratio "
                 f"E1/m={_NUM(args.energy_ratio)}")
    lines.append(",".join(cols))
    row = _row_template(len(cols))
    for qa2, a2 in grid:
        params = model.StepParameters(a2=a2, **fixed)
        res = analytic.scatter(params)
        _guard_probabilities(res)
        hard = analytic.sharp_step(m=args.m, q=args.q, p=p, a1=args.a1, a2=a2)
        lines.append(row % (qa2, *_result_values(res), *_result_values(hard)[4:]))
    return "\n".join(lines) + "\n"


_GNUPLOT_TEMPLATE = """# gnuplot script: scattering probabilities vs step strength
set datafile separator ','
set datafile commentschars '#'
set xlabel 'q A_2 (natural units)'
set ylabel 'probability'
set yrange [0:1]
set key outside
set term pngcairo size 1200,500
set output 'figure2.png'
set multiplot layout 1,2
set title 'fast transition (tau = {tau_a})'
plot 'panel_a.csv' using 1:6 with lines lw 2 title 'F', \\
     'panel_a.csv' using 1:7 with lines lw 2 title 'B', \\
     'panel_a.csv' using 1:10 with lines dt 2 title 'F sharp', \\
     'panel_a.csv' using 1:11 with lines dt 2 title 'B sharp'
set title 'slow transition (tau = {tau_b})'
plot 'panel_b.csv' using 1:6 with lines lw 2 title 'F', \\
     'panel_b.csv' using 1:7 with lines lw 2 title 'B', \\
     'panel_b.csv' using 1:10 with lines dt 2 title 'F sharp', \\
     'panel_b.csv' using 1:11 with lines dt 2 title 'B sharp'
unset multiplot
"""


def cmd_figure2(args) -> int:
    if args.q == 0:
        raise ValueError("--q must be nonzero: the sweep runs over q*A2")
    # every flag is checked before p, which is formed from them, and both
    # panels are computed in full before anything is written.  The taus and
    # the ratio are checked here to name their flags: the messages of
    # StepParameters and _momentum_at_ratio, which sweep's status cells
    # carry, name the input
    model.check_inputs({"m": args.m, "q": args.q, "a1": args.a1, "t0": args.t0})
    for flag, tau in (("--tau-fast", args.tau_fast), ("--tau-slow", args.tau_slow)):
        if not (math.isfinite(tau) and tau > 0):
            raise ValueError(f"{flag} must be finite and positive, got {tau!r}")
    if not args.energy_ratio >= 1.0:  # written as `not >=` so that NaN fails too
        raise ValueError(f"--energy-ratio, the incident energy ratio E1/m, must be >= 1, "
                         f"got {args.energy_ratio!r}")
    p = _momentum_at_ratio(args.energy_ratio, args)
    grid = [(qa2, qa2 / args.q)
            for qa2 in _sweep_values(args.start, args.stop, args.count, log=False)]
    files = {"panel_a.csv": _figure2_panel(args.tau_fast, p, grid, args),
             "panel_b.csv": _figure2_panel(args.tau_slow, p, grid, args),
             "figure2.gp": _GNUPLOT_TEMPLATE.format(tau_a=f"{args.tau_fast:g}",
                                                    tau_b=f"{args.tau_slow:g}")}
    from pathlib import Path

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out_dir / name).write_text(text)
    for name in files:
        print(f"wrote {out_dir / name}")
    return EXIT_OK


# ---------------------------------------------------------------- selftest


def cmd_selftest(args) -> int:
    # imported here: scatter, sweep and figure2 do not need the battery
    import json

    from . import selftest

    results = selftest.run_all()
    if args.json:
        print(json.dumps([
            {"name": r.name, "passed": r.passed, "detail": r.detail,
             "seconds": round(r.seconds, 3)}
            for r in results
        ]))
    else:
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            print(f"[{mark}] {r.name} ({r.seconds:.2f}s): {r.detail}")
        n_bad = sum(not r.passed for r in results)
        print(f"{len(results) - n_bad}/{len(results)} checks passed")
    return EXIT_OK if all(r.passed for r in results) else EXIT_SELFTEST


# ------------------------------------------------------------------ parser


class _Parser(argparse.ArgumentParser):
    """Takes every token that starts -<digit> or -.<digit> for a value, so
    a float flag reads -1e3 and -1.2e+00 on every Python; argparse's own
    rule up to 3.12 takes only -2 and -.5.  The subcommand parsers are
    built from this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="diracstep",
        description="Electron scattering at a smooth temporal potential step "
                    "(natural units, hbar=c=1)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sc = sub.add_parser("scatter", help="single-point scattering computation")
    _add_physics_flags(p_sc)
    p_sc.add_argument("--sharp", action="store_true", help="Heaviside (sharp-step) limit")
    p_sc.add_argument("--format", choices=("json", "csv", "human"), default="human")
    p_sc.add_argument("--oracle", action="store_true",
                      help="check against the integrator and attach its deviations; "
                           "exit 3 if the check fails")
    p_sc.set_defaults(func=cmd_scatter)

    p_sw = sub.add_parser("sweep", help="parameter sweep, CSV on stdout")
    _add_physics_flags(p_sw)
    p_sw.add_argument("--sweep-var", choices=("p", "a2", "tau", "energy_ratio"), required=True)
    p_sw.add_argument("--start", type=float, required=True)
    p_sw.add_argument("--stop", type=float, required=True)
    p_sw.add_argument("--count", type=int, required=True)
    p_sw.add_argument("--log", action="store_true", help="log-spaced sweep values")
    p_sw.add_argument("--branch", choices=("plus", "minus"), default="plus",
                      help="sign branch for the energy_ratio sweep")
    p_sw.add_argument("--oracle-every", type=int, default=0, metavar="K",
                      help="check every K-th row against the integrator and attach its "
                           "deviations; a row that fails gets a failed status")
    p_sw.set_defaults(func=cmd_sweep)

    p_f2 = sub.add_parser("figure2", help="step-strength sweeps at fast/slow tau, CSV + gnuplot")
    p_f2.add_argument("--out-dir", default="figure2_out")
    p_f2.add_argument("--m", type=float, default=1.0)
    p_f2.add_argument("--q", type=float, default=1.0)
    p_f2.add_argument("--a1", type=float, default=0.0)
    p_f2.add_argument("--t0", type=float, default=0.0)
    p_f2.add_argument("--energy-ratio", type=float, default=2.0, dest="energy_ratio",
                      help="incident E1/m (default 2)")
    p_f2.add_argument("--tau-fast", type=float, default=1e-4, dest="tau_fast")
    p_f2.add_argument("--tau-slow", type=float, default=0.5, dest="tau_slow")
    p_f2.add_argument("--start", type=float, default=0.0, help="first q*A2 value")
    p_f2.add_argument("--stop", type=float, default=8.0, help="last q*A2 value")
    p_f2.add_argument("--count", type=int, default=81)
    p_f2.set_defaults(func=cmd_figure2)

    p_st = sub.add_parser("selftest", help="run the verification battery")
    p_st.add_argument("--json", action="store_true", help="machine-readable report")
    p_st.set_defaults(func=cmd_selftest)

    return parser


# parsing keeps no state in the parser, so repeated in-process calls of main
# share the one built by the first
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ArithmeticError, oracle.OracleError) as exc:  # a guard, an all-failed sweep
        code, message = EXIT_NUMERICAL, str(exc)
    except ValueError as exc:
        code, message = EXIT_FLAGS, str(exc)
    except OSError as exc:
        code, message = EXIT_IO, str(exc)
    print(f"diracstep: error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
