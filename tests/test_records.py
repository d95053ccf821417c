"""The library's value records are NamedTuples with the layout they had as
frozen dataclasses; ModifiedFrame is a slotted record with the same fields."""

import copy
import csv
import dataclasses
import io
import json
import math
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import modframe
from modframe import cli, curves, frames, geodesic, indicatrix, involute, validation
from modframe.darboux import DarbouxData
from modframe.indicatrix import IndicatrixKind

SPEC = curves.helix(2.0, 1.0)

# Each record's fields, in order, and its defaults, as the dataclasses had
# them.  ValidationReport's entries defaulted to a fresh empty list; a
# NamedTuple default is one object shared by every instance, so it is ().
LAYOUTS = {
    curves.CurveSpec: (("family", "params", "t_lo", "t_hi"), {}),
    curves.Jet: (("r", "r1", "r2", "r3", "r4"), {}),
    curves.Family: (("name", "arity", "factory", "jet", "speed", "length",
                     "constant_kappa", "kappa_zeros"),
                    {"kappa_zeros": ()}),
    frames.FrenetFrame: (("t_vec", "n_vec", "b_vec", "kappa", "tau"), {}),
    DarbouxData: (("w", "w_norm", "phi", "phi_prime", "C"), {}),
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
    validation.Identity: (("name", "description", "tolerance", "assumes", "residual",
                           "expected_discrepancy", "note", "grid", "stencils"),
                          {"expected_discrepancy": False, "note": "",
                           "grid": curves.arclength_grid, "stencils": ((1, None),)}),
}


def _instances():
    # one instance of each record, from the library's own producers
    report = validation.run_validation(samples=4, only=["unit-speed"])
    return [
        SPEC, SPEC.jet(0.5), curves.FAMILIES["helix"], frames.frenet_frame(SPEC, 0.5),
        frames.modified_frames(SPEC, [0.5]).darboux,
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


def test_import_leaves_dataclasses_out():
    """A fresh ``import modframe.cli`` defines no dataclass, so it leaves
    the ``dataclasses`` module unloaded (numpy does not load it either)."""
    code = "import sys, modframe.cli\nprint('dataclasses' in sys.modules)\n"
    src = str(Path(modframe.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
                         check=True, timeout=60).stdout
    assert out == "False\n"


# What the frozen dataclass gave a frame, kept by the slotted record.
FRAME_FIELDS = ("T", "N", "B", "kappa", "tau", "kappa_prime", "tau_prime", "t", "r")


def _frames():
    # a one-point frame, a batch and a table read, each from its producer
    table = frames.FrameTable(SPEC, [0.25, 0.5])
    return [frames.modified_frame(SPEC, 0.5), frames.modified_frames(SPEC, [0.25, 0.5]),
            table(0.5), table(np.array([0.25, 0.5]))]


def _same(a, b):
    # every field equal bit for bit, as raw bytes
    return all(np.asarray(getattr(a, f)).tobytes() == np.asarray(getattr(b, f)).tobytes()
               for f in FRAME_FIELDS)


def test_frame_lists_its_fields_in_order():
    assert frames.ModifiedFrame._fields == FRAME_FIELDS
    assert not dataclasses.is_dataclass(frames.ModifiedFrame)


def test_frame_builds_by_keyword():
    mf = frames.modified_frame(SPEC, 0.5)
    again = frames.ModifiedFrame(**{f: getattr(mf, f) for f in FRAME_FIELDS})
    assert _same(again, mf)


def test_frame_repr_names_its_fields():
    mf = frames.modified_frame(SPEC, 0.5)
    fields = ", ".join(f"{f}={getattr(mf, f)!r}" for f in FRAME_FIELDS)
    assert repr(mf) == f"ModifiedFrame({fields})"


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda mf: pickle.loads(pickle.dumps(mf))],
                         ids=["copy", "deepcopy", "pickle"])
def test_frame_copies_and_pickles(clone):
    for mf in _frames():
        twin = clone(mf)
        assert type(twin) is frames.ModifiedFrame and twin is not mf and _same(twin, mf)
        # numpy's pickling and deepcopy make writable arrays; the twin's are
        # read-only, as its producer made the original's
        arrays = [getattr(twin, f) for f in FRAME_FIELDS
                  if isinstance(getattr(twin, f), np.ndarray)]
        assert arrays and not any(a.flags.writeable for a in arrays)
        # the twin builds its own Darboux data, equal to the original's
        assert all(np.array_equal(a, b) for a, b in zip(twin.darboux, mf.darboux))


def test_frame_refuses_assignment_and_new_attributes():
    for mf in _frames():
        for name in FRAME_FIELDS:
            with pytest.raises(AttributeError):
                setattr(mf, name, getattr(mf, name))
            with pytest.raises(AttributeError):
                delattr(mf, name)
        with pytest.raises(AttributeError):
            mf.extra = 1.0
        with pytest.raises(AttributeError):
            mf._darboux = None  # the Darboux slot is filled by its first read only


def test_held_frame_is_one_slotted_object():
    """A held frame has no instance dict, so its record is one object of a
    fixed size: CPython's object header (sys.getsizeof(object()), a reference
    count and a type pointer), the two-pointer link every object the garbage
    collector tracks carries, and one pointer for each of its ten slots: on
    64-bit CPython 16 + 16 + 80 = 112 bytes, whatever the fields hold."""
    mf = frames.modified_frame(SPEC, 0.5)
    mf.darboux  # noqa: B018  (the Darboux slot filled too)
    assert not hasattr(mf, "__dict__")
    pointer = np.dtype(np.intp).itemsize
    bound = sys.getsizeof(object()) + 2 * pointer + pointer * len(frames.ModifiedFrame.__slots__)
    assert sys.getsizeof(mf) <= bound


def test_report_default_is_empty():
    report = validation.ValidationReport()
    assert report.entries == () and not report.passed
    assert report.to_dict() == {"passed": False, "entries": []}
