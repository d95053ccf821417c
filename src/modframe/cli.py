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
import os
import sys

import numpy as np

from . import curves, frames, indicatrix, validation
from .curves import CurveSpec
from .errors import DegenerateIndicatrix, ModFrameError, NonConstantCurvature
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
        params = [float(x) for x in param_text.split(",")] if param_text else []
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


def _parse_tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"tolerance must be a number, got {text!r}") from exc
    if not 0.0 <= tol < np.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text!r}")
    return tol


def _write(args, parts) -> None:
    """Write a command's output, an iterable of strings, to ``--out``, or to
    stdout for '-'."""
    to_stdout = args.out in (None, "-")
    try:
        if to_stdout:
            sys.stdout.writelines(parts)
            sys.stdout.flush()
        else:
            with open(args.out, "w") as fh:
                fh.writelines(parts)
    except OSError as exc:
        raise argparse.ArgumentTypeError(
            f"cannot write {'stdout' if to_stdout else args.out}: "
            f"{exc.strerror or exc}") from exc


_BLOCK = 256  # rows that _write_table formats and writes at a time


def _write_table(args, columns: list[str], block: np.ndarray,
                 flag: np.ndarray | None = None) -> None:
    """Write a float block, and ``flag`` as a trailing bool column, as CSV or JSON.

    One template spells a row; repeated once per row of a ``_BLOCK``-row
    slice, it is applied to the slice's cells in a single ``%`` operation,
    so the write holds one slice's cells and text at a time. CSV cells are
    ``%.17g`` and ``True``/``False``; JSON keeps the
    ``json.dumps(..., indent=2)`` layout and spelling: float repr, ``NaN``,
    ``Infinity``, ``true``/``false``.
    """
    as_csv = args.format == "csv"
    k = block.shape[1]
    spelling = ["%.17g" if as_csv else "%s"] * k + ["%s"] * (flag is not None)
    if as_csv:
        head, row, sep, tail = ",".join(columns) + "\n", ",".join(spelling) + "\n", "", ""
    else:
        config = json.dumps({"curve": args.curve_text, "samples": args.samples,
                             "range": list(args.s_range) if args.s_range else None},
                            indent=2).replace("\n", "\n  ")
        head = f'{{\n  "config": {config},\n  "rows": ['
        fields = ",".join(f"\n      {json.dumps(c)}: {v}"
                          for c, v in zip(columns, spelling))
        row, sep, tail = "\n    {" + fields + "\n    }", ",", '\n  ],\n  "report": null\n}\n'

    def parts():
        yield head
        for start in range(0, len(block), _BLOCK):
            rows = block[start:start + _BLOCK]
            cells = np.empty((len(rows), len(columns)), dtype=object)
            cells[:, :k] = rows
            if flag is not None:
                f = flag[start:start + _BLOCK]
                cells[:, k] = f if as_csv else np.where(f, "true", "false")
            if not as_csv:
                bad = ~np.isfinite(rows)
                cells[:, :k][bad] = [json.dumps(v) for v in rows[bad].tolist()]
            text = sep.join([row] * len(rows)) % tuple(cells.ravel().tolist())
            yield sep + text if start else text
        yield tail

    _write(args, parts())


def _sample_range(args, spec: CurveSpec, margin: float = 0.0) -> np.ndarray:
    total = curves.total_arclength(spec)
    lo, hi = args.s_range if args.s_range else (0.0, total)
    if not (0.0 <= lo < hi <= total + ABS_TOL):
        raise argparse.ArgumentTypeError(
            f"sample range [{lo:g}, {hi:g}] outside the curve's arclength [0, {total:g}]"
        )
    # finite-difference oracles need room on both sides of each sample
    start, stop = max(lo, margin), min(hi, total - margin)
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
    _write_table(args, columns, table)
    return EXIT_OK


def cmd_indicatrix(args) -> int:
    spec = args.curve
    kind = IndicatrixKind(args.kind)
    columns = ["s", "px", "py", "pz", "speed", "tx", "ty", "tz",
               "cx", "cy", "cz", "ox", "oy", "oz", "residual", "degenerate"]
    s = _sample_range(args, spec, margin=4.0 * FD_STEP)
    try:
        table = frames.frame_table(spec, s)
        smp = indicatrix.sample(kind, table, s)
        oracle = indicatrix.cov_deriv_numeric(kind, table, s)
    except NonConstantCurvature as exc:
        print(f"error: inadmissible curve for {kind.value} indicatrix: {exc}",
              file=sys.stderr)
        return EXIT_INADMISSIBLE
    # Degenerate rows carry zeros in place of the tangent, the covariant
    # derivatives and the residual.
    live = ~smp.degenerate
    on_live = lambda v: np.where(live[:, None], v, 0.0)
    residual = np.where(live, norm((smp.cov_deriv - oracle).T), 0.0)
    values = np.column_stack([s, smp.point, smp.speed, on_live(smp.unit_tangent),
                              on_live(smp.cov_deriv), on_live(oracle), residual])
    missing = ~np.isfinite(values).all(axis=1)
    if missing.any():
        raise DegenerateIndicatrix(
            f"{kind.value} indicatrix undefined at s = {s[missing][0]:g}")
    _write_table(args, columns, values, smp.degenerate)
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
    # mixed records whose note can need quoting: csv.writer and json.dumps
    if args.format == "csv":
        columns = ["name", "max_residual", "tolerance", "passed", "n_evaluated",
                   "expected_discrepancy", "note"]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(["%.17g" % v if isinstance(v, float) else v
                          for v in (d[c] for c in columns)]
                         for d in (e.to_dict() for e in report.entries))
        text = buf.getvalue()
    else:
        config = {"samples": args.samples, "tolerance": args.tolerance, "only": only}
        text = json.dumps({"config": config, "rows": [], "report": report.to_dict()},
                          indent=2) + "\n"
    _write(args, [text])
    return EXIT_OK if report.passed else EXIT_VALIDATION_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modframe",
        description="Modified orthogonal frames, Darboux vectors and "
                    "spherical indicatrices of analytic space curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
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
    p_val.add_argument("--tolerance", type=_parse_tolerance, default=None,
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
    except MemoryError as exc:  # an array of --samples points
        print(f"error: --samples {args.samples} is too large: {str(exc) or 'out of memory'}",
              file=sys.stderr)
        return EXIT_USAGE
    except ModFrameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE


def entry() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except OSError:  # _write reported it; flushed at exit, it would exit 120
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry()
