import pytest

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


def test_only_filter():
    rep = run_validation(samples=8, only=["frame-ode", "unit-speed"])
    assert {e.name for e in rep.entries} == {"frame-ode", "unit-speed"}


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
