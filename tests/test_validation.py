import subprocess
import sys
from pathlib import Path

import pytest

import modframe
from modframe import curves, validation
from modframe.validation import IDENTITY_NAMES, run_validation


@pytest.fixture(scope="module")
def report():
    return run_validation(samples=12)


def test_full_suite_passes(report):
    failing = [e.name for e in report.entries
               if not e.passed and not e.expected_discrepancy]
    assert report.passed, f"failing identities: {failing}"


def test_all_identities_present(report):
    assert [e.name for e in report.entries] == IDENTITY_NAMES


def test_expected_discrepancy_entry(report):
    entry = next(e for e in report.entries
                 if e.name == "geodesic-binormal-unweighted")
    assert entry.expected_discrepancy
    assert entry.passed
    # the gap is real and well above tolerance, not a rounding artifact
    assert entry.max_residual > 1e-2
    # reported but not judged: under any tolerance it still passes, and
    # a report of it alone passes too
    rep = run_validation(samples=8, only=[entry.name], tolerance_override=1e-30)
    assert rep.entries[0].passed and rep.passed


def test_only_filter():
    rep = run_validation(samples=8, only=["frame-ode", "unit-speed"])
    assert {e.name for e in rep.entries} == {"frame-ode", "unit-speed"}


def test_only_rejects_unknown_names(monkeypatch):
    # refused before any frame is computed
    monkeypatch.setattr(validation.frames, "FrameTable", None)
    with pytest.raises(ValueError, match="unknown identity name.*nope, bad"):
        run_validation(samples=8, only=["nope", "frame-ode", "bad"])


def test_family_restriction():
    rep = run_validation(samples=8, only=["frame-ode"],
                         families={"helix": curves.helix(2.0, 1.0)})
    assert rep.passed
    assert len(rep.entries) == 1


def test_curves_chosen_by_property_not_key():
    rep = run_validation(samples=6,
                         only=["darboux-rotation", "involute-normal", "kappa-zero-extension"],
                         families={"a": curves.helix(2.0, 1.0), "b": curves.planar_cubic(),
                                   "c": curves.salkowski(0.5)})
    entries = {e.name: e for e in rep.entries}
    assert set(entries) == {"darboux-rotation", "involute-normal", "kappa-zero-extension"}
    assert entries["darboux-rotation"].max_residual > 0.0  # evaluated, not vacuous
    assert "varying-torsion" in entries["involute-normal"].note
    assert rep.passed


def test_tolerance_override_can_fail():
    rep = run_validation(samples=8, only=["frame-ode"],
                         tolerance_override=1e-18)
    assert not rep.passed
    # the override also reaches an entry with an extra condition
    rep = run_validation(samples=8, only=["kappa-zero-extension"],
                         tolerance_override=1e-30)
    assert rep.entries[0].n_evaluated and not rep.entries[0].passed
    assert not rep.passed


def test_to_dict_roundtrip(report):
    doc = report.to_dict()
    assert doc["passed"] is True
    assert len(doc["entries"]) == len(report.entries)
    for entry in doc["entries"]:
        assert set(entry) == {"name", "description", "max_residual",
                              "tolerance", "passed", "n_evaluated",
                              "expected_discrepancy", "note"}


def test_every_default_entry_evaluated(report):
    assert all(e.n_evaluated > 0 for e in report.entries)


def test_table_names_unique_and_in_report_order():
    names = [i.name for i in validation.IDENTITIES]
    assert len(set(names)) == len(names)
    assert names == IDENTITY_NAMES == [
        "frame-ode", "metric-relations", "darboux-alignment", "darboux-rotation",
        "lancret-angle",
        "tangent-ind-covderiv", "normal-ind-covderiv", "binormal-ind-covderiv",
        "pole-ind-covderiv",
        "tangent-ind-tangent", "normal-ind-tangent", "binormal-ind-tangent",
        "pole-ind-tangent",
        "geodesic-tangent", "geodesic-normal", "geodesic-binormal", "geodesic-pole",
        "geodesic-binormal-unweighted", "geodesic-sphere-det",
        "involute-tangent", "involute-binormal", "involute-normal",
        "frame-coincidence", "unit-speed", "kappa-zero-extension",
    ]


@pytest.mark.parametrize("name", IDENTITY_NAMES)
def test_single_entry_matches_full_run(report, name):
    # every entry, and so its verdict, is the same alone as in the full suite
    full = next(e for e in report.entries if e.name == name)
    assert run_validation(samples=12, only=[name]).entries == [full]


def test_skipped_samples_count_nowhere(report):
    # 12 samples per curve; a degenerate sample (the pole of a helix or a
    # circle, the binormal of a circle) counts in no entry.  The unweighted
    # binormal gap counts every sample of the helix and the salkowski curve.
    assert {e.name: e.n_evaluated for e in report.entries} == {
        "frame-ode": 60, "metric-relations": 72, "darboux-alignment": 48,
        "darboux-rotation": 48, "lancret-angle": 48,
        "tangent-ind-covderiv": 60, "normal-ind-covderiv": 48,
        "binormal-ind-covderiv": 24, "pole-ind-covderiv": 12,
        "tangent-ind-tangent": 60, "normal-ind-tangent": 48,
        "binormal-ind-tangent": 24, "pole-ind-tangent": 12,
        "geodesic-tangent": 60, "geodesic-normal": 48, "geodesic-binormal": 24,
        "geodesic-pole": 12, "geodesic-binormal-unweighted": 24,
        "geodesic-sphere-det": 36, "involute-tangent": 48, "involute-binormal": 24,
        "involute-normal": 24, "frame-coincidence": 24, "unit-speed": 72,
        "kappa-zero-extension": 12,
    }


def _fresh(code):
    src = str(Path(modframe.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": src}, check=True, timeout=120).stdout.strip()


def test_validation_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma on first use (numpy 2.4); the frame
    # tables deduplicate their arclengths without it.
    if _fresh("import sys, numpy; print('numpy.ma' in sys.modules)") == "True":
        pytest.skip("import numpy alone loads numpy.ma")
    code = ("import sys; from modframe.validation import run_validation; "
            "run_validation(samples=8); print('numpy.ma' in sys.modules)")
    assert _fresh(code) == "False"


def test_tangent_rows_evaluate_at_small_rates():
    # helix(1, 100): kappa = 1e-4, tau = 1e-2, so the normal and binormal
    # rates are about 1e-6, well above ABS_TOL: every sample is evaluated
    rep = run_validation(samples=16, only=["normal-ind-tangent", "binormal-ind-tangent"],
                         families={"helix": curves.helix(1.0, 100.0)})
    for entry in rep.entries:
        assert entry.n_evaluated == 16, entry
        assert entry.passed, entry
