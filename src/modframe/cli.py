"""Command-line surface: sample frames and indicatrices to CSV/JSON and
run the validation suite.

Exit codes: 0 success, 1 validation failure, 2 usage error, 3 the
requested curve/kind combination is inadmissible.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import curves, frames, indicatrix, validation
from .curves import CurveSpec
from .errors import ModFrameError, NonConstantCurvature
from .indicatrix import IndicatrixKind
from .numerics import ABS_TOL, FD_STEP, norm

EXIT_OK = 0
EXIT_VALIDATION_FAILED = 1
EXIT_USAGE = 2
EXIT_INADMISSIBLE = 3

def parse_curve(text: str) -> CurveSpec:
    """Parse ``family`` or ``family:p1,p2`` (underscores optional) into a CurveSpec."""
    name, _, param_text = text.partition(":")
    spellings = {f.name.replace("_", ""): f for f in curves.FAMILIES.values()}
    family = spellings.get(name.strip().lower().replace("_", ""))
    if family is None:
        raise argparse.ArgumentTypeError(
            f"unknown curve family {name!r}; choose from {', '.join(spellings)}"
        )
    try:
        params = [float(x) for x in param_text.split(",") if x.strip()] if param_text else []
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad curve parameters in {text!r}") from exc
    if len(params) != family.arity:
        raise argparse.ArgumentTypeError(
            f"{family.name} takes {family.arity} parameter(s), got {len(params)}"
        )
    try:
        return family.factory(*params)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"range must be 'lo,hi', got {text!r}") from exc
    if lo >= hi:
        raise argparse.ArgumentTypeError("range must have lo < hi")
    return lo, hi


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _json(config: dict, rows: list[dict], report: dict | None = None) -> str:
    """The JSON document of every command: its config, rows and report."""
    return json.dumps({"config": config, "rows": rows, "report": report}, indent=2) + "\n"


def _write(args, text: str) -> None:
    """Write a command's output to ``--out``, or to stdout for '-'."""
    if args.out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)


def _write_rows(args, columns: list[str], rows: list[dict]) -> None:
    payload_rows = [{c: r[c] for c in columns} for r in rows]
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for r in payload_rows:
            writer.writerow(
                [_fmt(v) if isinstance(v, float) else v for v in r.values()]
            )
        text = buf.getvalue()
    else:
        text = _json({
            "curve": getattr(args, "curve_text", None),
            "samples": getattr(args, "samples", None),
            "range": list(getattr(args, "s_range", ()) or ()) or None,
        }, payload_rows)
    _write(args, text)


def _sample_range(args, spec: CurveSpec, margin: float = 0.0) -> np.ndarray:
    total = curves.total_arclength(spec)
    lo, hi = args.s_range if args.s_range else (0.0, total)
    if not (0.0 <= lo < hi <= total + ABS_TOL):
        raise argparse.ArgumentTypeError(
            f"sample range [{lo:g}, {hi:g}] outside the curve's arclength [0, {total:g}]"
        )
    # finite-difference oracles need room on both sides of each sample
    start, stop = max(lo, margin), min(hi, total) - margin
    if start > stop:
        raise argparse.ArgumentTypeError(
            f"sample range [{lo:g}, {hi:g}] leaves no room for the {margin:g} "
            f"finite-difference margin inside [0, {total:g}]"
        )
    return np.linspace(start, stop, args.samples)


def cmd_frames(args) -> int:
    spec = args.curve
    columns = ["s", "x", "y", "z", "Tx", "Ty", "Tz", "Nx", "Ny", "Nz",
               "Bx", "By", "Bz", "kappa", "tau", "kappa_prime"]
    s = _sample_range(args, spec)
    mf = frames.modified_frames(spec, s)
    table = np.column_stack([s, mf.r, mf.T, mf.N, mf.B, mf.kappa, mf.tau, mf.kappa_prime])
    _write_rows(args, columns, [dict(zip(columns, row)) for row in table.tolist()])
    return EXIT_OK


def cmd_indicatrix(args) -> int:
    spec = args.curve
    kind = IndicatrixKind(args.kind)
    columns = ["s", "px", "py", "pz", "speed", "tx", "ty", "tz",
               "cx", "cy", "cz", "ox", "oy", "oz", "residual", "degenerate"]
    rows = []
    zero3 = (0.0, 0.0, 0.0)
    fd_margin = 4.0 * FD_STEP
    try:
        for s in _sample_range(args, spec, margin=fd_margin):
            smp = indicatrix.sample(kind, spec, float(s))
            if smp.degenerate:
                rows.append(dict(zip(columns, [
                    float(s), *smp.point, smp.speed, *zero3, *zero3, *zero3,
                    0.0, True,
                ])))
                continue
            oracle = indicatrix.cov_deriv_numeric(kind, spec, float(s))
            residual = norm(smp.cov_deriv - oracle)
            rows.append(dict(zip(columns, [
                float(s), *smp.point, smp.speed, *smp.unit_tangent,
                *smp.cov_deriv, *oracle, residual, False,
            ])))
    except NonConstantCurvature as exc:
        print(f"error: inadmissible curve for {kind.value} indicatrix: {exc}",
              file=sys.stderr)
        return EXIT_INADMISSIBLE
    _write_rows(args, columns, rows)
    return EXIT_OK


def cmd_validate(args) -> int:
    only = args.only.split(",") if args.only else None
    if only:
        unknown = [n for n in only if n not in validation.IDENTITY_NAMES]
        if unknown:
            print(f"error: unknown identity name(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return EXIT_USAGE
    families = None if args.curve is None else {args.curve.family: args.curve}
    report = validation.run_validation(
        samples=args.samples,
        tolerance_override=args.tolerance,
        only=only,
        families=families,
    )
    if args.format == "csv":
        columns = ["name", "max_residual", "tolerance", "passed", "n_evaluated",
                   "expected_discrepancy", "note"]
        rows = [{c: e.to_dict()[c] for c in columns} for e in report.entries]
        _write_rows(args, columns, rows)
    else:
        config = {"samples": args.samples, "tolerance": args.tolerance, "only": only}
        _write(args, _json(config, [], report.to_dict()))
    return EXIT_OK if report.passed else EXIT_VALIDATION_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modframe",
        description="Modified orthogonal frames, Darboux vectors and "
                    "spherical indicatrices of analytic space curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_curve=True):
        if need_curve:
            p.add_argument("--curve", type=parse_curve, required=True,
                           help="family[:p1,p2], e.g. helix:2,1 or salkowski:0.5")
        p.add_argument("--samples", type=int, default=256)
        p.add_argument("--range", dest="s_range", type=_parse_range, default=None,
                       help="arclength range 'lo,hi' (default: full curve)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default="-", help="output path, '-' for stdout")

    p_frames = sub.add_parser("frames", help="sample the modified frame along a curve")
    common(p_frames)
    p_frames.set_defaults(fn=cmd_frames)

    p_ind = sub.add_parser("indicatrix", help="sample a spherical indicatrix")
    common(p_ind)
    p_ind.add_argument("--kind", required=True,
                       choices=[k.value for k in IndicatrixKind])
    p_ind.set_defaults(fn=cmd_indicatrix)

    p_val = sub.add_parser("validate", help="run the identity validation suite")
    p_val.add_argument("--curve", type=parse_curve, default=None,
                       help="restrict validation to one curve")
    p_val.add_argument("--samples", type=int, default=32)
    p_val.add_argument("--tolerance", type=float, default=None,
                       help="override every identity's residual tolerance")
    p_val.add_argument("--only", default=None,
                       help="comma-separated identity names to run")
    p_val.add_argument("--format", choices=("csv", "json"), default="json")
    p_val.add_argument("--out", default="-")
    p_val.set_defaults(fn=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # involute scans in validate need three samples per curve
    min_samples = 3 if args.command == "validate" else 2
    if args.samples < min_samples:
        parser.error(f"--samples must be >= {min_samples}")
    if isinstance(getattr(args, "curve", None), CurveSpec):
        args.curve_text = f"{args.curve.family}:{','.join(map(str, args.curve.params))}"
    try:
        return args.fn(args)
    except argparse.ArgumentTypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ModFrameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
