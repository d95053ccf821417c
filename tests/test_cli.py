import argparse
import csv
import errno
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import modframe
from modframe import cli, curves, frames, indicatrix, validation
from modframe.cli import (
    EXIT_INADMISSIBLE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION_FAILED,
    main,
    parse_curve,
)
from modframe.numerics import norm


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseCurve:
    def test_helix(self):
        spec = parse_curve("helix:2,1")
        assert spec.family == "helix"
        assert spec.params == (2.0, 1.0)

    def test_no_params(self):
        assert parse_curve("twistedcubic").family == "twisted_cubic"

    def test_unknown_family(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            parse_curve("clothoid")

    def test_wrong_arity(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            parse_curve("helix:2")
        # a colon with nothing after it names no parameter
        with pytest.raises(argparse.ArgumentTypeError, match="takes 1 parameter"):
            parse_curve("circle:")

    @pytest.mark.parametrize("text", ["helix:1,,2", "helix:1,2,", "circle:,1"])
    def test_empty_parameter_rejected(self, capsys, text):
        # an empty field is an error, not a parameter dropped in silence
        with pytest.raises(SystemExit) as exc:
            main(["frames", "--curve", text, "--samples", "2"])
        assert exc.value.code == EXIT_USAGE
        assert "bad curve parameters" in capsys.readouterr().err

    def test_invalid_parameter_value(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            parse_curve("circle:-1")


class TestFrames:
    def test_csv_output(self, capsys):
        code, out, err = run(capsys, "frames", "--curve", "helix:2,1",
                             "--samples", "8")
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 8
        for row in rows:
            assert float(row["kappa"]) == pytest.approx(0.4, rel=1e-12)
            assert float(row["tau"]) == pytest.approx(0.2, rel=1e-12)
            assert float(row["kappa_prime"]) == pytest.approx(0.0, abs=1e-9)

    def test_rows_match_scalar_frames(self, capsys):
        code, out, err = run(capsys, "frames", "--curve", "twistedcubic",
                             "--samples", "64")
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 64
        spec = parse_curve("twistedcubic")
        for row in rows:
            mf = frames.modified_frame(spec, float(row["s"]))
            expected = [*mf.r, *mf.T, *mf.N, *mf.B, mf.kappa, mf.tau, mf.kappa_prime]
            got = [float(row[c]) for c in list(row)[1:]]
            for g, e in zip(got, expected):
                assert abs(g - e) <= 1e-13 * max(1.0, abs(e)), row["s"]

    def test_csv_cells_round_trip_bit_for_bit(self, capsys):
        code, out, err = run(capsys, "frames", "--curve", "twistedcubic",
                             "--samples", "64")
        assert code == EXIT_OK
        spec = parse_curve("twistedcubic")
        s = np.linspace(0.0, curves.total_arclength(spec), 64)
        mf = frames.modified_frames(spec, s)
        expected = np.column_stack([s, mf.r, mf.T, mf.N, mf.B, mf.kappa, mf.tau,
                                    mf.kappa_prime])
        rows = list(csv.reader(io.StringIO(out)))[1:]
        got = np.array([[float(cell) for cell in row] for row in rows])
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 3: at small m each salkowski angle w*t rounds by about "
        "t*eps with t up to pi/(2m), so the command exits 0 with kappa up to 1.000245"))
    def test_salkowski_small_m_prints_unit_curvature(self, capsys):
        code, out, err = run(capsys, "frames", "--curve", "salkowski:1e-12", "--samples", "5")
        assert code == EXIT_OK
        kappas = [float(row["kappa"]) for row in csv.DictReader(io.StringIO(out))]
        assert len(kappas) == 5
        assert all(abs(k - 1.0) <= 1e-14 for k in kappas), kappas

    @pytest.mark.parametrize("curve", ["circle:1e300", "helix:1e200,1e200",
                                       "circle:1e-160", "circle:1e-200", "circle:1e70"])
    def test_extreme_scale_refused(self, capsys, curve):
        code, out, err = run(capsys, "frames", "--curve", curve, "--samples", "4")
        assert code == EXIT_INADMISSIBLE
        assert out == ""
        assert err.count("\n") == 1 and "speed" in err

    @pytest.mark.parametrize("curve", ["circle:1e308", "helix:1e308,1"])
    @pytest.mark.parametrize("command", [["frames"], ["indicatrix", "--kind", "tangent"],
                                         ["validate"]], ids=lambda c: c[0])
    def test_overflowing_length_refused(self, capsys, command, curve):
        # a length of 1e308 x 2 pi overflows: one line and exit 3 from
        # every command, no numpy warning (which the test setup raises)
        code, out, err = run(capsys, *command, "--curve", curve, "--samples", "3")
        assert code == EXIT_INADMISSIBLE
        assert out == ""
        assert err.count("\n") == 1 and "overflows" in err

    def test_salkowski_large_m(self, capsys):
        code, out, err = run(capsys, "frames", "--curve", "salkowski:1000",
                             "--samples", "8")
        assert code == EXIT_OK
        for row in csv.DictReader(io.StringIO(out)):
            assert float(row["kappa"]) == pytest.approx(1.0, abs=1e-9)

    def test_json_output(self, capsys):
        code, out, err = run(capsys, "frames", "--curve", "circle:1",
                             "--samples", "4", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["config"]["samples"] == 4
        assert len(doc["rows"]) == 4
        assert set(doc["rows"][0]) >= {"s", "x", "Tx", "kappa", "tau"}

    @pytest.mark.parametrize("curve, text", [
        ("line", "line"), ("twistedcubic", "twisted_cubic"), ("planarcubic", "planar_cubic"),
        ("helix:2,1", "helix:2.0,1.0"),
    ])
    def test_json_config_names_the_curve(self, capsys, curve, text):
        # a family without parameters is named alone, with no trailing
        # colon, and every name parses back to the curve asked for
        code, out, err = run(capsys, "frames", "--curve", curve, "--samples", "2",
                             "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["config"]["curve"] == text
        assert parse_curve(text) == parse_curve(curve)

    def test_range_restriction(self, capsys):
        code, out, err = run(capsys, "frames", "--curve", "helix:2,1",
                             "--samples", "4", "--range", "0,1")
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert float(rows[-1]["s"]) == pytest.approx(1.0)

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "frames.csv"
        code, out, err = run(capsys, "frames", "--curve", "circle:2",
                             "--samples", "4", "--out", str(path))
        assert code == EXIT_OK
        assert out == ""
        assert len(list(csv.DictReader(path.open()))) == 4


class TestIndicatrix:
    def test_tangent_csv(self, capsys):
        code, out, err = run(capsys, "indicatrix", "--curve", "helix:2,1",
                             "--kind", "tangent", "--samples", "6")
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 6
        for row in rows:
            assert float(row["speed"]) == pytest.approx(0.4, rel=1e-9)
            assert float(row["residual"]) < 1e-5
            assert row["degenerate"] == "False"

    def test_degenerate_rows_flagged_not_nan(self, capsys):
        code, out, err = run(capsys, "indicatrix", "--curve", "circle:1",
                             "--kind", "binormal", "--samples", "5")
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        for row in rows:
            assert row["degenerate"] == "True"
            for col in ("px", "py", "pz", "speed", "tx", "cx", "ox"):
                assert row[col].lower() not in ("nan", "inf", "-inf")

    @pytest.mark.parametrize("curve, kind", [
        ("salkowski:0.5", "pole"), ("helix:2,1", "pole"), ("circle:1", "binormal"),
        ("twistedcubic", "tangent"), ("planarcubic", "tangent"),
    ])
    def test_rows_match_scalar_samples(self, capsys, curve, kind):
        # 33 rows put one on the planar cubic's curvature zero
        code, out, err = run(capsys, "indicatrix", "--curve", curve, "--kind", kind,
                             "--samples", "33")
        assert code == EXIT_OK
        spec, kind = parse_curve(curve), indicatrix.IndicatrixKind(kind)
        for row in csv.DictReader(io.StringIO(out)):
            s = float(row["s"])
            smp = indicatrix.sample(kind, spec, s)
            assert row["degenerate"] == str(smp.degenerate)
            expected = [*smp.point, smp.speed]
            if not smp.degenerate:
                oracle = indicatrix.cov_deriv_numeric(kind, spec, s)
                expected += [*smp.unit_tangent, *smp.cov_deriv, *oracle,
                             norm(smp.cov_deriv - oracle)]
            got = [float(row[c]) for c in list(row)[1:1 + len(expected)]]
            for g, e in zip(got, expected):
                assert abs(g - e) <= 1e-13 * max(1.0, abs(e)), (row["s"], g, e)

    @pytest.mark.parametrize("curve, kind", [
        ("line", "normal"), ("circle:1e12", "pole"), ("helix:0.01,1e-13", "binormal"),
    ])
    def test_undefined_rows_refused(self, capsys, curve, kind):
        # no Darboux data at kappa ~ 0; a binormal covariant derivative
        # that divides by tau ~ 0 at a nonzero rate
        code, out, err = run(capsys, "indicatrix", "--curve", curve, "--kind", kind,
                             "--samples", "5")
        assert code == EXIT_INADMISSIBLE
        assert out == "" and err.startswith("error:")

    def test_inadmissible_curve(self, capsys):
        code, out, err = run(capsys, "indicatrix", "--curve", "twistedcubic",
                             "--kind", "normal", "--samples", "4")
        assert code == EXIT_INADMISSIBLE
        assert "inadmissible" in err

    def test_tangent_kind_allows_varying_curvature(self, capsys):
        code, out, err = run(capsys, "indicatrix", "--curve", "twistedcubic",
                             "--kind", "tangent", "--samples", "4")
        assert code == EXIT_OK

    def test_builds_one_frame_table(self, capsys, monkeypatch):
        # the samples and the oracle read the frames of one batch
        calls = []
        batch = frames.modified_frames

        def counted(spec, s):
            calls.append(s)
            return batch(spec, s)

        monkeypatch.setattr(frames, "modified_frames", counted)
        code, out, err = run(capsys, "indicatrix", "--curve", "helix:2,1",
                             "--kind", "pole", "--samples", "8")
        assert code == EXIT_OK
        assert len(calls) == 1


class TestValidate:
    def test_subset_passes(self, capsys):
        code, out, err = run(capsys, "validate", "--samples", "6",
                             "--only", "frame-ode,unit-speed")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["report"]["passed"] is True
        assert len(doc["report"]["entries"]) == 2

    def test_unknown_identity(self, capsys):
        code, out, err = run(capsys, "validate", "--only", "nonsense")
        assert code == EXIT_USAGE
        assert err == "error: unknown identity name(s): nonsense\n"

    def test_wrong_form_fails_a_row(self, capsys, monkeypatch):
        # a pole point scaled by 1 + 1e-4 leaves the unit sphere: a failed
        # row (exit 1), not an inadmissible curve (exit 3)
        row = indicatrix.KINDS[indicatrix.IndicatrixKind.POLE]
        monkeypatch.setitem(indicatrix.KINDS, indicatrix.IndicatrixKind.POLE,
                            row._replace(point=lambda mf: row.point(mf) * (1.0 + 1e-4)))
        frames.modified_frame.cache_clear()
        code, out, err = run(capsys, "validate", "--samples", "8", "--curve", "salkowski:0.5",
                             "--only", "geodesic-sphere-det")
        assert code == EXIT_VALIDATION_FAILED
        [entry] = json.loads(out)["report"]["entries"]
        assert entry["max_residual"] == pytest.approx(1e-4, rel=1e-6)

    def test_impossible_tolerance_fails(self, capsys):
        code, out, err = run(capsys, "validate", "--samples", "6",
                             "--only", "frame-ode", "--tolerance", "1e-18")
        assert code == EXIT_VALIDATION_FAILED
        doc = json.loads(out)
        assert doc["report"]["passed"] is False
        # the override reaches the row on the curvature zero too
        code, out, err = run(capsys, "validate", "--curve", "planarcubic",
                             "--only", "kappa-zero-extension", "--tolerance", "1e-30")
        assert code == EXIT_VALIDATION_FAILED

    def test_single_curve(self, capsys):
        code, out, err = run(capsys, "validate", "--samples", "6",
                             "--curve", "circle:1",
                             "--only", "frame-coincidence")
        assert code == EXIT_OK

    def test_curve_shorter_than_the_stencil_gets_a_verdict(self, capsys):
        # circle:1e-5 is 6.3e-5 long, so the finite-difference stencils
        # would leave it: those rows report not applicable
        code, out, err = run(capsys, "validate", "--samples", "8", "--curve", "circle:1e-5")
        assert code in (EXIT_OK, EXIT_VALIDATION_FAILED)
        assert err == ""

    def test_straight_line_reports_not_applicable(self, capsys):
        code, out, err = run(capsys, "validate", "--samples", "6", "--curve", "line")
        entries = {e["name"]: e for e in json.loads(out)["report"]["entries"]}
        evaluated = {n for n, e in entries.items() if e["n_evaluated"]}
        assert evaluated == {"metric-relations", "unit-sphere-points", "unit-speed"}
        for name in entries.keys() - evaluated:
            assert entries[name]["passed"] is False
            assert entries[name]["note"] == "not applicable: no sample evaluated"
        # the three evaluated identities pass and carry the verdict
        assert code == EXIT_OK

    def test_straight_line_lists_every_identity(self, capsys):
        code, out, err = run(capsys, "validate", "--samples", "6", "--curve", "line")
        names = [e["name"] for e in json.loads(out)["report"]["entries"]]
        assert names == validation.IDENTITY_NAMES and len(names) == 28
        code, out, err = run(capsys, "validate", "--samples", "6", "--curve", "line",
                             "--only", "involute-normal")
        [entry] = json.loads(out)["report"]["entries"]
        assert entry["n_evaluated"] == 0
        assert entry["note"] == "not applicable: no sample evaluated"
        assert code == EXIT_VALIDATION_FAILED

    def test_tiny_curvature_counts_as_zero(self, capsys):
        # kappa = 1e-12 <= ABS_TOL: the curve is picked like a straight line,
        # not as a constant-curvature curve whose frame ODE needs kappa > 0
        code, out, err = run(capsys, "validate", "--samples", "6", "--curve", "circle:1e12")
        entries = {e["name"]: e for e in json.loads(out)["report"]["entries"]}
        evaluated = {n for n, e in entries.items() if e["n_evaluated"]}
        assert evaluated == {"metric-relations", "unit-sphere-points", "unit-speed"}
        assert entries["metric-relations"]["passed"] is True
        # s +- FD_STEP rounds to s at this scale, so the finite-difference
        # speed is 0: a known failure of the fixed oracle step
        assert entries["unit-speed"]["max_residual"] == 1.0
        assert code == EXIT_VALIDATION_FAILED
        assert err == ""

    def test_short_curve_skips_the_determinant_oracle(self, capsys):
        # circle:1e-3 is 6.3e-3 long: the determinant oracle's stencil
        # (+-2e-3) would leave the curve, so its row evaluates no sample and
        # the command reports a verdict instead of an inadmissible curve
        code, out, err = run(capsys, "validate", "--samples", "16", "--curve", "circle:1e-3")
        entries = {e["name"]: e for e in json.loads(out)["report"]["entries"]}
        assert entries["geodesic-sphere-det"]["n_evaluated"] == 0
        assert entries["geodesic-sphere-det"]["note"] == "not applicable: no sample evaluated"
        assert code == EXIT_VALIDATION_FAILED
        assert err == ""

    def test_nothing_evaluated_fails(self, capsys):
        code, out, err = run(capsys, "validate", "--samples", "6", "--curve", "line",
                             "--only", "frame-ode")
        assert code == EXIT_VALIDATION_FAILED
        assert json.loads(out)["report"]["passed"] is False

    def test_csv_format(self, capsys):
        code, out, err = run(capsys, "validate", "--samples", "6",
                             "--only", "frame-ode", "--format", "csv")
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["name"] == "frame-ode"
        assert rows[0]["passed"] == "True"


class TestUsageErrors:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE

    def test_bad_curve_argument(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frames", "--curve", "nope"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("m", ["1e155", "-1e300", "1e-320"])
    def test_unrepresentable_salkowski_parameter(self, capsys, m):
        # 1 + m*m overflows, or at tiny m the parameter range pi/(2c) does:
        # a usage error with one error line, no traceback
        with pytest.raises(SystemExit) as exc:
            main(["frames", "--curve", f"salkowski:{m}", "--samples", "2"])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] == [err.splitlines()[-1]]
        cause = "too small: its range pi/(2c) overflows" if abs(float(m)) < 1 else "too large"
        assert cause in err and "Traceback" not in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_tolerance_must_be_finite_and_nonnegative(self, capsys, tol):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--samples", "8", "--tolerance", tol])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] == [err.splitlines()[-1]]
        assert "finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["frames", "--curve", "helix:a,1"],
        ["frames", "--curve", "helix:2,1", "--range", "1"],
        ["frames", "--curve", "helix:2,1", "--range", "2,1"],
        ["validate", "--tolerance", "abc"],
    ])
    def test_malformed_numbers_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] == [err.splitlines()[-1]]
        assert "Traceback" not in err

    def test_too_few_samples(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frames", "--curve", "circle:1", "--samples", "1"])
        assert exc.value.code == EXIT_USAGE

    def test_validate_needs_three_samples(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--samples", "2"])
        assert exc.value.code == EXIT_USAGE
        assert "--samples must be >= 3" in capsys.readouterr().err

    @pytest.mark.parametrize("only", ["", ",", "frame-ode,"])
    def test_empty_identity_name(self, capsys, only):
        # '' once ran all 25 rows with "only": null; ',' was an unknown name
        code, out, err = run(capsys, "validate", "--samples", "4", "--only", only)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: empty identity name in [") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["frames", "--curve", "helix:2,1"],
        ["indicatrix", "--curve", "salkowski:0.5", "--kind", "pole"],
        ["validate"],
    ])
    def test_samples_too_large_to_allocate(self, capsys, argv):
        # 10**18 float64 values are 6.94 EiB, refused at once on any host
        code, out, err = run(capsys, *argv, "--samples", str(10**18))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"error: --samples {10**18} is too large: Unable to allocate")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_memory_error_without_a_message(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr(frames, "modified_frames", refuse)
        code, out, err = run(capsys, "frames", "--curve", "helix:2,1", "--samples", "8")
        assert code == EXIT_USAGE
        assert err == "error: --samples 8 is too large: out of memory\n"

    def test_range_inside_fd_margin(self, capsys):
        code, out, err = run(capsys, "indicatrix", "--curve", "helix:2,1",
                             "--kind", "tangent", "--samples", "3",
                             "--range", "0,1e-6")
        assert code == EXIT_USAGE
        assert "margin" in err

    def test_range_ends_where_asked_inside_the_curve(self, capsys):
        # the margin moves only an end that would leave the curve
        code, out, err = run(capsys, "indicatrix", "--curve", "circle:1",
                             "--kind", "tangent", "--samples", "2", "--range", "1,2")
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert [float(r[0]) for r in rows] == [1.0, 2.0]

    def test_bad_range(self, capsys):
        code, out, err = run(capsys, "frames", "--curve", "circle:1",
                             "--samples", "4", "--range", "0,99")
        assert code == EXIT_USAGE


def reference_text(args, columns, block, flag=None):
    """A table as csv.writer and json.dumps(indent=2) write it, cell by cell."""
    rows = block.tolist()
    if flag is not None:
        rows = [[*row, f] for row, f in zip(rows, flag.tolist())]
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(["%.17g" % v if isinstance(v, float) else v for v in r]
                         for r in rows)
        return buf.getvalue()
    config = {"curve": args.curve_text, "samples": args.samples,
              "range": list(args.s_range) if args.s_range else None}
    return json.dumps({"config": config, "rows": [dict(zip(columns, r)) for r in rows],
                       "report": None}, indent=2) + "\n"


def assert_same_text(out, expected):
    """Equal text, or a failure that names the first line that differs
    (an assert on megabyte strings makes pytest diff them for minutes)."""
    if out == expected:
        return
    got, want = out.split("\n"), expected.split("\n")
    i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    pytest.fail(f"{len(got)} lines against {len(want)}; first difference at line {i + 1}: "
                f"{got[i:i + 1]} != {want[i:i + 1]}")


class TestTableBytes:
    """The block table writer prints what the cell-by-cell writers print."""

    def written(self, capsys, monkeypatch, *argv):
        calls = []
        write = cli._write_table

        def spy(args, columns, block, flag=None):
            calls.append(reference_text(args, columns, block, flag))
            write(args, columns, block, flag)

        monkeypatch.setattr(cli, "_write_table", spy)
        code, out, err = run(capsys, *argv)
        assert code == EXIT_OK and err == ""
        [expected] = calls
        return out, expected

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", [
        ["frames", "--curve", "twistedcubic", "--samples", "4096"],
        ["indicatrix", "--curve", "salkowski:0.5", "--kind", "pole", "--samples", "256"],
        # every row of a straight line's tangent image is degenerate
        ["indicatrix", "--curve", "line", "--kind", "tangent", "--samples", "64"],
        ["frames", "--curve", "helix:2,1", "--samples", "5", "--range", "0,1"],
    ])
    def test_commands_match_the_reference(self, capsys, monkeypatch, argv, fmt):
        out, expected = self.written(capsys, monkeypatch, *argv, "--format", fmt)
        assert_same_text(out, expected)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("with_flag", [False, True])
    def test_special_floats(self, capsys, fmt, with_flag):
        values = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, -1e-300,
                  0.1, 1 / 3, 2.0**53 + 2, -123456.789]
        block = np.array(values * 3).reshape(6, 6)
        flag = np.array([True, False, False, True, True, False]) if with_flag else None
        columns = ["a", "b", "c", "d", "e", "f"] + ["degenerate"] * with_flag
        args = argparse.Namespace(format=fmt, out="-", curve_text="helix:2.0,1.0",
                                  samples=6, s_range=(0.0, 1.5))
        cli._write_table(args, columns, block, flag)
        out = capsys.readouterr().out
        assert_same_text(out, reference_text(args, columns, block, flag))
        if fmt == "json":
            back = [[r[c] for c in columns[:6]] for r in json.loads(out)["rows"]]
        else:
            back = [[float(v) for v in r[:6]] for r in list(csv.reader(io.StringIO(out)))[1:]]
        assert np.array(back).tobytes() == block.tobytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("with_flag", [False, True])
    @pytest.mark.parametrize("n", [1, cli._BLOCK - 1, cli._BLOCK, cli._BLOCK + 1,
                                   2 * cli._BLOCK + 1])
    def test_block_boundaries(self, capsys, tmp_path, n, fmt, with_flag):
        b = cli._BLOCK
        rng = np.random.default_rng(n)
        block = rng.standard_normal((n, 6)) * 10.0 ** rng.integers(-300, 300, (n, 6))
        # special floats in the first and the last row of every block
        specials = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.1])
        for i in sorted({*range(0, n, b), *range(b - 1, n, b), n - 1}):
            block[i] = np.roll(specials, i)
        flag = rng.random(n) < 0.5 if with_flag else None
        columns = ["a", "b", "c", "d", "e", "f"] + ["degenerate"] * with_flag
        args = argparse.Namespace(format=fmt, out="-", curve_text="circle:1.0",
                                  samples=n, s_range=None)
        cli._write_table(args, columns, block, flag)
        out = capsys.readouterr().out
        assert_same_text(out, reference_text(args, columns, block, flag))
        if n == 2 * b + 1:
            args.out = str(tmp_path / "table.out")
            cli._write_table(args, columns, block, flag)
            assert capsys.readouterr().out == ""
            assert_same_text(Path(args.out).read_text(), out)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_write_memory_is_bounded(self, fmt):
        """The write holds one block of rows, not the table: its traced peak
        neither reaches 2 MB nor grows with the row count."""
        peaks = {}
        for n in (4096, 16384):
            block = np.random.default_rng(n).standard_normal((n, 16))
            args = argparse.Namespace(format=fmt, out=os.devnull, curve_text="circle:1.0",
                                      samples=n, s_range=None)
            tracemalloc.start()
            try:
                cli._write_table(args, [f"c{i}" for i in range(16)], block)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[16384] < 2e6
        assert peaks[16384] <= 1.25 * peaks[4096]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("curve", ["twistedcubic", "salkowski:0.5"])
    @pytest.mark.parametrize("n", [cli._FRAME_BLOCK - 1, cli._FRAME_BLOCK,
                                   cli._FRAME_BLOCK + 1, 2 * cli._FRAME_BLOCK + 1])
    def test_frame_blocks_match_one_batch(self, capsys, monkeypatch, n, curve, fmt):
        argv = ["frames", "--curve", curve, "--samples", str(n), "--format", fmt]
        code, blocked, err = run(capsys, *argv)
        assert code == EXIT_OK and err == ""
        monkeypatch.setattr(cli, "_FRAME_BLOCK", n)  # the whole table in one batch
        code, batch, err = run(capsys, *argv)
        assert code == EXIT_OK and err == ""
        assert_same_text(blocked, batch)

    @staticmethod
    def _indicatrix_argv(case):
        if case == "pole":
            return ["--curve", "salkowski:0.5", "--kind", "pole", "--samples", "40"]
        # 17 rows whose ninth lands on the planar cubic's curvature zero: a
        # degenerate row inside the second block of 7
        zero = curves.arclength(curves.planar_cubic(), -1.0, 0.0)
        return ["--curve", "planarcubic", "--kind", "tangent", "--samples", "17",
                "--range", f"{zero - 0.25!r},{zero + 0.25!r}"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("case", ["pole", "degenerate"])
    def test_indicatrix_blocks_match_one_block(self, capsys, monkeypatch, case, fmt):
        argv = ["indicatrix", *self._indicatrix_argv(case), "--format", fmt]
        code, one_block, err = run(capsys, *argv)
        assert code == EXIT_OK and err == ""
        monkeypatch.setattr(cli, "_FRAME_BLOCK", 7)
        code, blocked, err = run(capsys, *argv)
        assert code == EXIT_OK and err == ""
        assert_same_text(blocked, one_block)
        flag = "True" if fmt == "csv" else '"degenerate": true'
        assert blocked.count(flag) == (case == "degenerate")

    @pytest.mark.parametrize("holes", [(), (9, 15)], ids=["line", "planted"])
    def test_indicatrix_blocks_name_the_first_undefined_row(self, capsys, monkeypatch, holes):
        """Every row of the normal indicatrix on the line is undefined; on
        salkowski(0.5), rows 9 and 15 (in the second and third blocks of 7)
        are made undefined by a NaN oracle.  The error names the first."""
        curve, kind = ("salkowski:0.5", "pole") if holes else ("line", "normal")
        argv = ["indicatrix", "--curve", curve, "--kind", kind, "--samples", "20"]
        code, out, err = run(capsys, *argv)
        s = [float(row["s"]) for row in csv.DictReader(io.StringIO(out))]
        if holes:
            assert code == EXIT_OK
            oracle = indicatrix.cov_deriv_numeric

            def holed(kind, table, part):
                return np.where(np.isin(part, [s[i] for i in holes])[:, None], np.nan,
                                oracle(kind, table, part))

            monkeypatch.setattr(indicatrix, "cov_deriv_numeric", holed)
        results = []
        for block in (cli._FRAME_BLOCK, 7):
            monkeypatch.setattr(cli, "_FRAME_BLOCK", block)
            results.append(run(capsys, *argv))
        assert results[0] == results[1]
        code, out, err = results[1]
        assert code == EXIT_INADMISSIBLE and out == ""
        first = f"{s[holes[0]]:g}" if holes else "4e-05"
        assert err == f"error: {kind} indicatrix undefined at s = {first}\n"

    def test_indicatrix_computation_memory_is_bounded(self):
        """The indicatrix table is computed a block at a time: from 2,048 to
        8,192 rows its traced peak grows by at most the table itself."""
        spec, kind = curves.salkowski(0.5), indicatrix.IndicatrixKind.POLE
        peaks = {}
        for n in (2048, 8192):
            s = np.linspace(1e-3, curves.total_arclength(spec) - 1e-3, n)
            cli._indicatrix_rows(kind, spec, s)  # caches filled before tracing
            tracemalloc.start()
            try:
                cli._indicatrix_rows(kind, spec, s)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[8192] - peaks[2048] <= 6144 * 16 * 8

    def test_frame_computation_memory_is_bounded(self):
        """The frames table is computed a block at a time: from 4,096 to
        16,384 rows its traced peak grows by at most the table itself."""
        spec = curves.twisted_cubic()
        peaks = {}
        for n in (4096, 16384):
            s = np.linspace(0.0, curves.total_arclength(spec), n)
            cli._frame_rows(spec, s)  # the arclength table is cached before tracing
            tracemalloc.start()
            try:
                cli._frame_rows(spec, s)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[16384] - peaks[4096] <= 16384 * 16 * 8

    @pytest.mark.parametrize("argv", [
        ["frames", "--curve", "twistedcubic", "--samples", "512", "--format", "json"],
        ["indicatrix", "--curve", "salkowski:0.5", "--kind", "pole", "--samples", "64"],
        ["validate", "--samples", "6", "--format", "csv"],
    ])
    def test_out_file_matches_stdout(self, capsys, tmp_path, argv):
        path = tmp_path / "table.out"
        code, out, err = run(capsys, *argv)
        code_file, out_file, err_file = run(capsys, *argv, "--out", str(path))
        assert (code_file, out_file, err_file) == (code, "", err)
        assert_same_text(path.read_text(), out)


@pytest.mark.parametrize("argv", [
    ["frames", "--curve", "helix:2,1", "--samples", "3"],
    ["indicatrix", "--curve", "helix:2,1", "--kind", "tangent", "--samples", "3"],
    ["validate", "--samples", "3", "--only", "unit-speed"],
])
def test_unwritable_out_is_a_usage_error(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: cannot write {path}: No such file or directory\n"
    assert not path.exists()


class _FullStdout(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("argv", [
    ["frames", "--curve", "helix:2,1", "--samples", "3"],
    ["indicatrix", "--curve", "helix:2,1", "--kind", "tangent", "--samples", "3"],
    ["validate", "--samples", "3", "--only", "unit-speed"],
])
def test_unwritable_stdout_is_a_usage_error(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stdout", _FullStdout())
    code = main(argv)
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: cannot write stdout: No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", [
    ["frames", "--curve", "twistedcubic", "--samples", "4096"],
    ["validate", "--samples", "3", "--only", "unit-speed"],
])
def test_full_stdout_exits_with_the_usage_code(argv, unbuffered):
    """The interpreter's own flush at exit, which finds the output still
    buffered, neither prints a second error nor turns exit 2 into 120."""
    env = {"PYTHONPATH": str(Path(modframe.__file__).resolve().parents[1]),
           "PYTHONDONTWRITEBYTECODE": "1"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-c", "from modframe.cli import entry; entry()",
                               *argv], stdout=full, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (
        EXIT_USAGE, "error: cannot write stdout: No space left on device\n")
