"""Command-line interface.

Subcommands:

* ``run``      solve one problem and write a JSON report
* ``converge`` solve a list of tree depths against the direct solver and
               write a CSV convergence table
* ``validate`` parse a problem file and check the standing assumptions

Exit codes: 0 success (and ``--help``), 1 bad input (a usage error such as
an unknown option, or a parse/validation failure), 2 solver failure, 3 a
``--check`` quality gate failed.  Reports are written with sorted keys
so that, apart from the timing block, repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from ._errors import ConfigurationError, MfbslqError, SpecValidationError
from .model import load_spec_file, realize, validate_h1_h2
from .outer import run_pipeline
from .tree import DEFAULT_DEPTH, build_tree

CHECK_CONTROL_ERROR = 0.10
CHECK_RESIDUAL = 1e-8
CHECK_COST_GAP = -1e-9


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _run_checks(result, report: dict, max_control_error: float) -> list:
    """The --check quality gates; each is written so that NaN fails it."""
    failures = []
    cres = report["constraint_residuals"]
    worst = max(cres.values())
    if not worst <= CHECK_RESIDUAL:
        failures.append(f"constraint residual {worst:.3e} > {CHECK_RESIDUAL:.1e}")
    if not report["multiplier_residual"] <= CHECK_RESIDUAL:
        failures.append(f"multiplier residual {report['multiplier_residual']:.3e} "
                        f"> {CHECK_RESIDUAL:.1e}")
    if not report["riccati"]["symmetry"] <= 1e-10:
        failures.append(f"riccati symmetry defect {report['riccati']['symmetry']:.3e}")
    if not report["riccati"]["min_I_plus_SigmaR_sv"] > 0.0:
        failures.append("riccati conditioner lost invertibility")
    if not math.isfinite(report["cost"]):
        failures.append("cost is not finite")
    if result.oracle is not None:
        if not result.oracle_control_error <= max_control_error:
            failures.append(
                f"control error vs direct solve {result.oracle_control_error:.3f} "
                f"> {max_control_error}"
            )
        if not result.oracle_cost_gap >= CHECK_COST_GAP:
            failures.append(
                f"cost gap vs direct solve {result.oracle_cost_gap:.3e} "
                f"< {CHECK_COST_GAP:.1e}"
            )
    return failures


def _cmd_run(args) -> int:
    spec = load_spec_file(args.spec)
    result = run_pipeline(spec, args.nt, with_oracle=args.with_oracle)
    report = result.report()
    _write_text(args.out, _report_json(report))
    if args.check:
        failures = _run_checks(result, report, args.max_control_error)
        if failures:
            for line in failures:
                print(f"check failed: {line}", file=sys.stderr)
            return 3
    return 0


def _rate(prev: float, cur: float) -> str:
    if prev is None or not (prev > 0.0) or not (cur > 0.0):
        return ""
    return f"{math.log2(prev / cur):.4f}"


def _cmd_converge(args) -> int:
    spec = load_spec_file(args.spec)
    depths = []
    for entry in filter(None, args.nt.split(",")):
        try:
            depths.append(int(entry))
        except ValueError:
            raise ConfigurationError(
                f"--nt entries must be integers, got {entry!r} in {args.nt!r}") from None
    if not depths or any(b <= a for a, b in zip(depths, depths[1:])):
        raise ConfigurationError(
            f"--nt must be a strictly ascending list, got {args.nt!r}")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([
        "nt", "dt", "control_err_vs_oracle", "cost_gap", "stationarity_residual",
        "control_rate", "cost_gap_rate", "stationarity_rate",
    ])
    prev = (None, None, None)
    failed = None
    for nt in depths:
        try:
            result = run_pipeline(spec, nt, with_oracle=True)
        except MfbslqError as exc:
            writer.writerow([nt, "", f"error: {exc}", "", "", "", "", ""])
            failed = exc
            break
        err = result.oracle_control_error
        gap = result.oracle_cost_gap
        stat = result.stationarity_residual
        writer.writerow([
            nt, f"{result.tree.dt:.10g}", f"{err:.10e}", f"{gap:.10e}", f"{stat:.10e}",
            _rate(prev[0], err), _rate(prev[1], abs(gap) if gap is not None else None),
            _rate(prev[2], stat),
        ])
        prev = (err, abs(gap), stat)
    _write_text(args.out, buf.getvalue())
    if failed is not None:
        print(f"solver error at nt={nt}: {failed}", file=sys.stderr)
        return 2
    return 0


def _cmd_validate(args) -> int:
    spec = load_spec_file(args.spec)
    tree = build_tree(spec.horizon, args.nt)
    report = validate_h1_h2(realize(spec, tree), spec.delta)
    print(report.summary())
    return 0 if report.ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfbslq",
        description="Mean-field backward-SDE linear-quadratic control on a "
                    "binary scenario tree.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve one problem and write a JSON report")
    p_run.add_argument("--spec", required=True, help="problem file (JSON)")
    p_run.add_argument("--nt", type=int, default=DEFAULT_DEPTH,
                       help="number of tree levels (time steps)")
    p_run.add_argument("--with-oracle", action="store_true",
                       help="also solve with the direct quadratic-program solver")
    p_run.add_argument("--check", action="store_true",
                       help="exit 3 if a quality gate fails")
    p_run.add_argument("--max-control-error", type=float,
                       default=CHECK_CONTROL_ERROR,
                       help="gate on relative control error (with --check "
                            "--with-oracle); the default 0.10 is criterion "
                            "02's bound at depth 16, and the error is first "
                            "order in dt, so shallower runs need an explicit "
                            "gate")
    p_run.add_argument("--out", default=None, help="output path (default stdout)")
    p_run.set_defaults(fn=_cmd_run)

    p_conv = sub.add_parser("converge", help="convergence table against the "
                                             "direct solver")
    p_conv.add_argument("--spec", required=True)
    p_conv.add_argument("--nt", required=True,
                        help="comma-separated tree depths, e.g. 4,8,16")
    p_conv.add_argument("--out", default=None, help="CSV output path")
    p_conv.set_defaults(fn=_cmd_converge)

    p_val = sub.add_parser("validate", help="check a problem file")
    p_val.add_argument("--spec", required=True)
    p_val.add_argument("--nt", type=int, default=8,
                       help="tree depth used to realize random coefficients")
    p_val.set_defaults(fn=_cmd_validate)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:   # argparse exits 2 on a usage error: bad input
        return 1 if exc.code else 0
    try:
        return args.fn(args)
    except (ConfigurationError, SpecValidationError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MfbslqError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
