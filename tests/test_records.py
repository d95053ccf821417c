"""The library's value records are NamedTuples with the layout they had as
frozen dataclasses; only ModifiedFrame and DarbouxData stay dataclasses."""

import csv
import dataclasses
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import modframe
from modframe import cli, curves, frames, geodesic, indicatrix, involute, validation
from modframe.indicatrix import IndicatrixKind

SPEC = curves.helix(2.0, 1.0)

# Each record's fields, in order, and its defaults, as the dataclasses had
# them.  ValidationReport's entries defaulted to a fresh empty list; a
# NamedTuple default is one object shared by every instance, so it is ().
LAYOUTS = {
    curves.CurveSpec: (("family", "params", "t_lo", "t_hi"), {}),
    curves.Jet: (("r", "r1", "r2", "r3", "r4"), {}),
    curves.Family: (("name", "arity", "factory", "jet", "speed", "constant_speed",
                     "constant_kappa", "kappa_zeros"), {"kappa_zeros": ()}),
    frames.FrenetFrame: (("t_vec", "n_vec", "b_vec", "kappa", "tau"), {}),
    frames.FrameOdeResult: (("s", "residual_T", "residual_N", "residual_B"), {}),
    indicatrix.Kind: (("constant_kappa", "on_unit_sphere", "point", "rate", "tangent", "cov",
                       "gamma", "singular", "unweighted"),
                      {"singular": None, "unweighted": False}),
    indicatrix.IndicatrixSample: (("kind", "s", "point", "speed", "unit_tangent", "cov_deriv",
                                   "degenerate"), {}),
    geodesic.GeodesicReport: (("kind", "s", "gamma_closed", "gamma_unweighted", "gamma_oracle",
                               "residual_closed", "residual_unweighted"), {}),
    involute.InvoluteReport: (("kind", "n_samples", "n_defined", "max_abs_inner", "is_involute",
                               "precondition_note"), {}),
    validation.ValidationEntry: (("name", "description", "max_residual", "tolerance", "passed",
                                  "n_evaluated", "expected_discrepancy", "note"),
                                 {"expected_discrepancy": False, "note": ""}),
    validation.ValidationReport: (("entries",), {"entries": ()}),
    validation.Identity: (("name", "description", "tolerance", "assumes", "residual", "measure",
                           "expected_discrepancy", "note", "points"),
                          {"residual": None, "measure": None, "expected_discrepancy": False,
                           "note": "", "points": validation._stencil_points}),
}


def _instances():
    # one instance of each record, from the library's own producers
    report = validation.run_validation(samples=4, only=["unit-speed"])
    return [
        SPEC, SPEC.jet(0.5), curves.FAMILIES["helix"], frames.frenet_frame(SPEC, 0.5),
        frames.check_frame_ode(SPEC, 0.5), indicatrix.KINDS[IndicatrixKind.POLE],
        indicatrix.sample(IndicatrixKind.TANGENT, SPEC, 0.5),
        geodesic.geodesic_report(IndicatrixKind.TANGENT, SPEC, 0.5),
        involute.involute_scan(IndicatrixKind.TANGENT, SPEC, 5),
        report.entries[0], report, validation.IDENTITIES[0],
    ]


@pytest.mark.parametrize("record", LAYOUTS, ids=lambda c: c.__name__)
def test_layout_is_the_dataclass_layout(record):
    names, defaults = LAYOUTS[record]
    assert issubclass(record, tuple) and not dataclasses.is_dataclass(record)
    assert record._fields == names
    assert record._field_defaults == defaults


@pytest.mark.parametrize("value", _instances(), ids=lambda v: type(v).__name__)
def test_records_are_immutable(value):
    assert type(value) in LAYOUTS
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        value.extra = 1.0  # no instance dict either


def test_every_record_is_covered():
    assert len({type(v) for v in _instances()}) == len(LAYOUTS)


def test_curve_spec_hashes_as_its_tuple():
    for spec in (SPEC, curves.line(), curves.salkowski(0.5), curves.circle(2.0)):
        assert hash(spec) == hash((spec.family, spec.params, spec.t_lo, spec.t_hi))
        # an equal spec, however it is built, is the same lru_cache key
        again = curves.CurveSpec(*spec)
        assert again == spec
        assert frames.modified_frame(spec, 0.1) is frames.modified_frame(again, 0.1)


def test_curve_spec_checks_every_construction():
    assert SPEC._replace(t_hi=3.0) == curves.CurveSpec("helix", (2.0, 1.0), 0.0, 3.0)
    for field, value in [("t_lo", math.nan), ("t_hi", math.inf), ("params", (1.0, math.nan))]:
        with pytest.raises(ValueError, match="must be finite"):
            SPEC._replace(**{field: value})
    with pytest.raises(ValueError, match="must be finite"):
        curves.CurveSpec._make(["circle", (math.inf,), 0.0, 1.0])


@dataclasses.dataclass(frozen=True)
class _DataclassEntry:
    # ValidationEntry as it was written before, for its asdict() output
    name: str
    description: str
    max_residual: float
    tolerance: float
    passed: bool
    n_evaluated: int
    expected_discrepancy: bool = False
    note: str = ""


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_validate_output_bytes_as_from_dataclass_records(capsys, fmt):
    """``validate`` prints the bytes it printed from dataclass records:
    ``to_dict`` by ``_asdict`` equals ``dataclasses.asdict``, key order,
    values and their types alike."""
    code = cli.main(["validate", "--samples", "16", "--format", fmt])
    out = capsys.readouterr().out
    report = validation.run_validation(samples=16)
    rows = [dataclasses.asdict(_DataclassEntry(*e)) for e in report.entries]
    assert [e.to_dict() for e in report.entries] == rows
    if fmt == "json":
        config = {"samples": 16, "tolerance": None, "only": None}
        expected = json.dumps({"config": config, "rows": [], "report": {
            "passed": report.passed, "entries": rows}}, indent=2) + "\n"
    else:
        columns = ["name", "max_residual", "tolerance", "passed", "n_evaluated",
                   "expected_discrepancy", "note"]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(["%.17g" % v if isinstance(v, float) else v
                          for v in (d[c] for c in columns)] for d in rows)
        expected = buf.getvalue()
    assert code == cli.EXIT_OK and out == expected


def test_import_leaves_two_dataclasses():
    """A fresh ``import modframe.cli`` builds two dataclasses, ModifiedFrame
    and DarbouxData: 12 generated functions, where the 14 dataclass
    records made 81."""
    code = (
        "import dataclasses, sys\n"
        "made = []\n"
        "create = getattr(dataclasses, '_create_fn', None)\n"
        "if create is not None:\n"
        "    dataclasses._create_fn = lambda *a, **k: made.append(a[0]) or create(*a, **k)\n"
        "import modframe.cli\n"
        "print(sorted({c.__qualname__ for m in list(sys.modules.values())\n"
        "              if m.__name__.startswith('modframe') for c in vars(m).values()\n"
        "              if isinstance(c, type) and dataclasses.is_dataclass(c)}))\n"
        "print(len(made) if create is not None else None)\n")
    src = str(Path(modframe.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
                         check=True, timeout=60).stdout.split("\n")
    assert out[0] == "['DarbouxData', 'ModifiedFrame']"
    assert out[1] in ("12", "None")  # the count where dataclasses has _create_fn (3.11)


def test_report_default_is_empty():
    report = validation.ValidationReport()
    assert report.entries == () and not report.passed
    assert report.to_dict() == {"passed": False, "entries": []}
