"""Command-line front end.

Subcommands: plan (solve one scenario), feasibility / sweep (grid CSVs),
validate (re-check a plan file), fit (least-squares calibration fragment
from a measurement CSV).

Artifacts are deterministic: sorted JSON keys, 6 significant digits, and no
wall-clock fields unless --emit-runtime is given, so identical inputs give
byte-identical outputs.  Exit codes: 0 solved (or stopped at the gap/time
limit with an incumbent), 1 usage or parse error, 2 infeasible or degenerate
fit, 3 invalid plan.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from pathlib import Path

from .calibration import (
    FIT_LABELS,
    CalibrationError,
    CalibrationLookupError,
    DegenerateFitError,
    default_calibration,
    fit_fragment,
    fit_linear,
    load_calibration,
    read_measurement_csv,
)
from .model import StrategyId
from .orchestrator import (
    SOLVERS,
    apply_undeployments,
    energy_sweep,
    feasibility_sweep,
    run_timeslot,
)
from .problem import (
    STATUS_INFEASIBLE,
    STATUS_NO_PLAN,
    MigrationPlan,
    SolveLimits,
    build_problem,
    validate_plan,
)
from .reader import Reader
from .scenario import parse_scenario, parse_sweep

CSV_HEADER = ("strategy", "class", "rho_mb", "nu_s", "n_total", "feasible",
              "energy_gain", "activation_ratio", "mip_gap", "runtime_s")


class _Parser(argparse.ArgumentParser):
    """argparse, but usage errors exit 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _limit(text: str) -> float:
    """A --time-limit or --gap value: a number >= 0, as in a scenario's
    `limits`; anything else is a usage error."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}") from None
    return Reader(argparse.ArgumentTypeError).nonnegative(value, "")


def _sig6(value):
    """Round floats to 6 significant digits; drop non-finite for JSON."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            return None
        return float(f"{value:.6g}")
    if isinstance(value, dict):
        return {k: _sig6(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sig6(v) for v in value]
    return value


def _write_json(path: Path, payload):
    path.write_text(json.dumps(_sig6(payload), sort_keys=True, indent=2) + "\n")


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            return ""
        return f"{value:.6g}"
    return str(value)


def _write_csv(path: Path, rows, emit_runtime: bool):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in rows:
            out = dict(row)
            if not emit_runtime:
                out["runtime_s"] = None
            writer.writerow([_cell(out[k]) for k in CSV_HEADER])


def _load_cal(args):
    if args.calibration is None:
        return default_calibration()
    return load_calibration(args.calibration)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _limits(args, fallback: SolveLimits) -> SolveLimits:
    return SolveLimits(
        time_limit=args.time_limit if args.time_limit is not None
        else fallback.time_limit,
        gap_target=args.gap if args.gap is not None else fallback.gap_target,
    )


def cmd_plan(args) -> int:
    cal = _load_cal(args)
    scen = parse_scenario(args.scenario, strategy_override=args.strategy)
    limits = _limits(args, scen.limits)
    slot = run_timeslot(scen.state, scen.params, cal, args.solver, limits)
    out = _out_dir(args)

    report = slot.report.to_dict()
    if not args.emit_runtime:
        report["runtime_s"] = None
    report["baseline_energy_j"] = slot.baseline_energy
    report["energy_gain"] = slot.energy_gain
    _write_json(out / "report.json", report)

    if slot.plan is None:
        print(f"status={slot.report.status} detail={slot.report.detail}")
        return 2 if slot.report.status in (STATUS_INFEASIBLE,
                                           STATUS_NO_PLAN) else 0
    _write_json(out / "plan.json", slot.plan.to_dict())
    gain = "" if slot.energy_gain is None else f" gain={slot.energy_gain:.6g}"
    print(
        f"status={slot.report.status} "
        f"objective_j={slot.plan.energy_total:.6g}"
        f"{gain} activation_ratio={slot.plan.activation_ratio:.6g}"
    )
    return 0


def cmd_feasibility(args) -> int:
    cal = _load_cal(args)
    scen = parse_scenario(args.scenario, strategy_override=args.strategy)
    spec = parse_sweep(args.sweep)
    rows, summary = feasibility_sweep(spec, scen.params, cal)
    out = _out_dir(args)
    _write_csv(out / "feasibility.csv", rows, args.emit_runtime)
    for (strategy, rho, nu), best in sorted(summary.items()):
        print(f"{strategy} rho_mb={rho:.6g} nu_s={nu:.6g} "
              f"max_feasible={'none' if best is None else best}")
    return 0


def cmd_sweep(args) -> int:
    cal = _load_cal(args)
    scen = parse_scenario(args.scenario, strategy_override=args.strategy)
    spec = parse_sweep(args.sweep)
    limits = _limits(args, scen.limits)
    rows = energy_sweep(spec, scen.state.servers, scen.params, cal,
                        args.solver, limits)
    out = _out_dir(args)
    _write_csv(out / "sweep.csv", rows, args.emit_runtime)
    print(f"wrote {len(rows)} rows")
    return 0


def cmd_validate(args) -> int:
    cal = _load_cal(args)
    scen = parse_scenario(args.scenario, strategy_override=args.strategy)
    problem = build_problem(apply_undeployments(scen.state), scen.params, cal)
    result = validate_plan(problem, MigrationPlan.from_dict(args.plan))
    if result.valid:
        print("valid")
        return 0
    for tag, message in result.breaches:
        print(f"violated {tag}: {message}")
    return 3


def cmd_fit(args) -> int:
    series = read_measurement_csv(args.measurements, label=args.label)
    fit = fit_linear(series)
    fragment = fit_fragment(args.label, fit)
    print(json.dumps(_sig6({
        "label": args.label,
        "slope": fit.slope,
        "intercept": fit.intercept,
        "rms": fit.rms,
        "fragment": fragment,
    }), sort_keys=True, indent=2))
    try:  # half a kpi line at a state size the tables lack
        load_calibration(fragment)
    except CalibrationError as exc:
        print(f"note: the fragment does not load by itself ({exc}); merge "
              "the .d and .m fragments before --calibration", file=sys.stderr)
    return 0


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it as it
    was, so every `main` call after the first reuses it."""
    parser = _Parser(prog="ricplan",
                     description="energy-aware xApp placement planner")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario=True):
        if scenario:
            p.add_argument("--scenario", required=True,
                           help="scenario JSON file")
        p.add_argument("--calibration", default=None,
                       help="calibration JSON (defaults to shipped tables)")
        p.add_argument("--strategy", default=None,
                       choices=[s.value for s in StrategyId],
                       help="override the scenario strategy")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--emit-runtime", action="store_true",
                       help="include wall-clock fields in artifacts "
                            "(breaks byte-reproducibility)")

    def solver_flags(p):
        p.add_argument("--solver", default="bnb", choices=list(SOLVERS))
        p.add_argument("--time-limit", type=_limit, default=None, metavar="S",
                       help="solver time limit in seconds (default 300)")
        p.add_argument("--gap", type=_limit, default=None, metavar="FRAC",
                       help="stop once the optimality gap is certified below "
                            "this fraction")

    p = sub.add_parser("plan", help="solve one scenario")
    common(p)
    solver_flags(p)
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("feasibility", help="population feasibility grid")
    common(p)
    p.add_argument("--sweep", required=True, help="sweep grid JSON file")
    p.set_defaults(fn=cmd_feasibility)

    p = sub.add_parser("sweep", help="energy-gain grid")
    common(p)
    p.add_argument("--sweep", required=True, help="sweep grid JSON file")
    solver_flags(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("validate", help="re-check a plan file")
    common(p)
    p.add_argument("--plan", required=True, help="plan JSON file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("fit", help="fit a calibration coefficient")
    p.add_argument("--measurements", required=True,
                   help="two-column predictor,response CSV")
    p.add_argument("--label", required=True, help=FIT_LABELS)
    p.set_defaults(fn=cmd_fit)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except DegenerateFitError as exc:
        print(f"error: degenerate fit: {exc}", file=sys.stderr)
        return 2
    except (CalibrationLookupError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
