import csv
import io
import json

import pytest

from modframe import cli
from modframe.cli import (
    EXIT_INADMISSIBLE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION_FAILED,
    main,
    parse_curve,
)


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

    def test_json_output(self, capsys):
        code, out, err = run(capsys, "frames", "--curve", "circle:1",
                             "--samples", "4", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["config"]["samples"] == 4
        assert len(doc["rows"]) == 4
        assert set(doc["rows"][0]) >= {"s", "x", "Tx", "kappa", "tau"}

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

    def test_inadmissible_curve(self, capsys):
        code, out, err = run(capsys, "indicatrix", "--curve", "twistedcubic",
                             "--kind", "normal", "--samples", "4")
        assert code == EXIT_INADMISSIBLE
        assert "inadmissible" in err

    def test_tangent_kind_allows_varying_curvature(self, capsys):
        code, out, err = run(capsys, "indicatrix", "--curve", "twistedcubic",
                             "--kind", "tangent", "--samples", "4")
        assert code == EXIT_OK


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
        assert "unknown identity" in err

    def test_impossible_tolerance_fails(self, capsys):
        code, out, err = run(capsys, "validate", "--samples", "6",
                             "--only", "frame-ode", "--tolerance", "1e-18")
        assert code == EXIT_VALIDATION_FAILED
        doc = json.loads(out)
        assert doc["report"]["passed"] is False

    def test_single_curve(self, capsys):
        code, out, err = run(capsys, "validate", "--samples", "6",
                             "--curve", "circle:1",
                             "--only", "frame-coincidence")
        assert code == EXIT_OK

    def test_straight_line_reports_not_applicable(self, capsys):
        code, out, err = run(capsys, "validate", "--samples", "6", "--curve", "line")
        entries = {e["name"]: e for e in json.loads(out)["report"]["entries"]}
        evaluated = {n for n, e in entries.items() if e["n_evaluated"]}
        assert evaluated == {"metric-relations", "unit-speed"}
        for name in entries.keys() - evaluated:
            assert entries[name]["passed"] is False
            assert entries[name]["note"] == "not applicable: no sample evaluated"
        # the two evaluated identities pass and carry the verdict
        assert code == EXIT_OK

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

    def test_too_few_samples(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frames", "--curve", "circle:1", "--samples", "1"])
        assert exc.value.code == EXIT_USAGE

    def test_validate_needs_three_samples(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--samples", "2"])
        assert exc.value.code == EXIT_USAGE

    def test_range_inside_fd_margin(self, capsys):
        code, out, err = run(capsys, "indicatrix", "--curve", "helix:2,1",
                             "--kind", "tangent", "--samples", "3",
                             "--range", "0,1e-6")
        assert code == EXIT_USAGE
        assert "margin" in err

    def test_bad_range(self, capsys):
        code, out, err = run(capsys, "frames", "--curve", "circle:1",
                             "--samples", "4", "--range", "0,99")
        assert code == EXIT_USAGE
