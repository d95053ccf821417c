import importlib
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import modframe
from modframe import curves, frames, validation
from modframe.numerics import ABS_TOL
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


@pytest.mark.parametrize("samples, only", [(2, ["frame-ode"]), (0, ["metric-relations"]),
                                           (2, None)])
def test_too_few_samples_refused_before_any_table(monkeypatch, samples, only):
    # the involute scans' minimum holds for every run, checked before any
    # table is built, whichever rows are chosen
    builds, init = [], frames.FrameTable.__init__
    monkeypatch.setattr(frames.FrameTable, "__init__",
                        lambda self, *args: builds.append(args) or init(self, *args))
    with pytest.raises(ValueError, match=r"^need at least 3 samples$"):
        run_validation(samples=samples, only=only)
    assert builds == []


def test_family_restriction():
    rep = run_validation(samples=8, only=["frame-ode"],
                         families={"helix": curves.helix(2.0, 1.0)})
    assert rep.passed
    assert len(rep.entries) == 1


def test_curves_chosen_by_property_not_key():
    only = ["darboux-rotation", "involute-normal", "involute-normal-varying",
            "kappa-zero-extension", "kappa-zero-frame"]
    rep = run_validation(samples=6, only=only,
                         families={"a": curves.helix(2.0, 1.0), "b": curves.planar_cubic(),
                                   "c": curves.salkowski(0.5)})
    entries = {e.name: e for e in rep.entries}
    assert set(entries) == set(only)
    assert entries["darboux-rotation"].max_residual > 0.0  # evaluated, not vacuous
    # the helix, the salkowski curve and the planar cubic's one zero
    assert [entries[n].n_evaluated for n in only[1:]] == [6, 6, 6, 1]
    assert rep.passed


def test_tolerance_override_can_fail():
    rep = run_validation(samples=8, only=["frame-ode"],
                         tolerance_override=1e-18)
    assert not rep.passed
    # the override also reaches the row on the curvature zero
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
        "geodesic-binormal-unweighted", "geodesic-sphere-det", "unit-sphere-points",
        "involute-tangent", "involute-binormal", "involute-normal", "involute-normal-varying",
        "frame-coincidence", "unit-speed", "kappa-zero-extension", "kappa-zero-frame",
    ]


@pytest.mark.parametrize("name", IDENTITY_NAMES)
def test_single_entry_matches_full_run(report, name):
    # every entry, and so its verdict, is the same alone as in the full suite
    full = next(e for e in report.entries if e.name == name)
    assert run_validation(samples=12, only=[name]).entries == [full]


def test_skipped_samples_count_nowhere(report):
    # 12 samples per curve; a degenerate sample (the pole of a helix or a
    # circle, the binormal of a circle) counts in no entry.  The unweighted
    # binormal gap counts every sample of the helix and the salkowski curve,
    # and the frame coincidence every sample of all six curves.  The two
    # sphere rows count the samples of the 6-sample grid, the normal
    # involute the helix's and the frame at the zero the planar cubic's one.
    assert {e.name: e.n_evaluated for e in report.entries} == {
        "frame-ode": 72, "metric-relations": 72, "darboux-alignment": 48,
        "darboux-rotation": 48, "lancret-angle": 48,
        "tangent-ind-covderiv": 72, "normal-ind-covderiv": 48,
        "binormal-ind-covderiv": 24, "pole-ind-covderiv": 12,
        "tangent-ind-tangent": 72, "normal-ind-tangent": 48,
        "binormal-ind-tangent": 24, "pole-ind-tangent": 12,
        "geodesic-tangent": 72, "geodesic-normal": 48, "geodesic-binormal": 24,
        "geodesic-pole": 12, "geodesic-binormal-unweighted": 24,
        "geodesic-sphere-det": 36, "unit-sphere-points": 36, "involute-tangent": 48,
        "involute-binormal": 24, "involute-normal": 12, "involute-normal-varying": 12,
        "frame-coincidence": 72, "unit-speed": 72, "kappa-zero-extension": 12,
        "kappa-zero-frame": 1,
    }


def _fresh(code):
    src = str(Path(modframe.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
                          check=True, timeout=120).stdout.strip()


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


# The rows that need kappa > 0, on the planar cubic, whose curvature
# vanishes at t = 0: at an odd count the middle sample sits on the zero.
PLANAR_CUBIC_ROWS = ["frame-ode", "tangent-ind-covderiv", "tangent-ind-tangent",
                     "geodesic-tangent"]


def test_kappa_zero_curve_is_checked_per_sample():
    # each row skips the one sample on the zero through its NaN mask and
    # judges the other 32, the samples on both sides of it included
    spec = curves.planar_cubic()
    assert frames.modified_frame(spec, curves.arclength_grid(spec, 33)[16]).kappa <= ABS_TOL
    rep = run_validation(samples=33, only=PLANAR_CUBIC_ROWS, families={"p": spec})
    assert [(e.name, e.n_evaluated, e.passed) for e in rep.entries] == [
        (name, 32, True) for name in PLANAR_CUBIC_ROWS]


def test_metric_relations_count_the_sample_on_the_zero():
    # the metric relations hold at the zero itself (N = B = 0, kappa = 0):
    # every one of the 33 samples on each of the six curves is judged
    [entry] = run_validation(samples=33, only=["metric-relations"]).entries
    assert (entry.n_evaluated, entry.passed) == (6 * 33, True)


TURN = 1e-6


def _turned_coincidence(monkeypatch, families=None):
    # the frame-coincidence entry with N and B turned by TURN rad in their
    # own plane, which keeps every norm and inner product
    assemble, a = frames._assemble, TURN

    def turned(*jet):
        T, N, B, *rest = assemble(*jet)
        return (T, math.cos(a) * N + math.sin(a) * B, math.cos(a) * B - math.sin(a) * N,
                *rest)

    monkeypatch.setattr(frames, "_assemble", turned)
    frames.modified_frame.cache_clear()
    try:
        [entry] = run_validation(samples=12, only=["frame-coincidence"],
                                 families=families).entries
    finally:
        frames.modified_frame.cache_clear()
    return entry


def _max_kappa(families):
    # the largest kappa over the 12-sample grids the entry reads
    return max(float(frames.modified_frames(spec, curves.arclength_grid(spec, 12)).kappa.max())
               for spec in families.values())


def test_coincidence_sees_normal_and_binormal_turned(monkeypatch):
    # only a Frenet frame built from the jet tells the turned N and B apart;
    # the row compares N with kappa n, so it misses by TURN * kappa at the
    # sample of largest kappa (about 2, on the twisted cubic)
    entry = _turned_coincidence(monkeypatch)
    assert not entry.passed
    kappa = _max_kappa(validation.default_families())
    assert entry.max_residual == pytest.approx(TURN * kappa, rel=1e-3)


def test_coincidence_runs_where_kappa_is_not_one(monkeypatch):
    # helix(2, 1) has kappa = 0.4: every sample is compared, and the turned
    # frame fails there at TURN * kappa
    families = {"h": curves.helix(2.0, 1.0)}
    [entry] = run_validation(samples=12, only=["frame-coincidence"], families=families).entries
    assert (entry.n_evaluated, entry.passed) == (12, True)
    turned = _turned_coincidence(monkeypatch, families)
    assert (turned.n_evaluated, turned.passed) == (12, False)
    assert turned.max_residual == pytest.approx(TURN * 0.4, rel=1e-3)


def test_lancret_sees_w_off_its_norm(monkeypatch):
    # The third Lancret term compares |w| with the norm of the vector
    # w = tau T + B.  A w scaled by 1 + 1e-6 misses it by 1e-6 |w|, at
    # least 4e-7 on the constant-kappa defaults, far above 1e-9; |w| and
    # phi themselves are untouched, so the other two terms cannot see it.
    module = importlib.import_module("modframe.darboux")
    real = module.darboux
    monkeypatch.setattr(module, "darboux", lambda mf: (d := real(mf))._replace(w=d.w * (1 + 1e-6)))
    frames.modified_frame.cache_clear()
    [entry] = run_validation(samples=16, only=["lancret-angle"]).entries
    assert not entry.passed
    assert entry.max_residual > 4e-7


# Curves shorter than about 2e-4, whose 5 % grid margin cannot hold the
# finite-difference stencil.
SHORT = {"circle": curves.circle(1e-5), "salkowski": curves.salkowski(1e4)}


@pytest.mark.parametrize("name", SHORT)
def test_short_curve_gets_a_report(name):
    # a row whose points would leave the curve skips it; the grid rows run
    rep = run_validation(samples=8, families={"c": SHORT[name]})
    entries = {e.name: e for e in rep.entries}
    skipped = ["frame-ode", "unit-speed", *(n for n in entries if "-ind-" in n)]
    for n in skipped:
        assert (entries[n].n_evaluated, entries[n].note) == (
            0, "not applicable: no sample evaluated"), n
    assert entries["metric-relations"].n_evaluated == 8
    assert entries["frame-coincidence"].n_evaluated == 8


def test_select_owns_the_names():
    assert validation.select() == validation.IDENTITIES
    assert [i.name for i in validation.select(["unit-speed", "frame-ode"])] == [
        "frame-ode", "unit-speed"]
    for only in ([""], ["", ""], ["frame-ode", ""]):
        with pytest.raises(ValueError, match="empty identity name"):
            validation.select(only)
        with pytest.raises(ValueError, match="empty identity name"):
            run_validation(samples=8, only=only)


@pytest.mark.parametrize("only", ["frame-ode", "", b"frame-ode"], ids=["str", "empty", "bytes"])
def test_select_refuses_one_string(only):
    # "" in "frame-ode" holds, so a string once read as an empty name
    match = f"only takes a collection of identity names, not {type(only).__name__}"
    with pytest.raises(TypeError, match=match):
        validation.select(only)
    with pytest.raises(TypeError, match=match):
        run_validation(samples=8, only=only)
    for names in (["frame-ode"], ("frame-ode",), {"frame-ode"}):
        assert [i.name for i in validation.select(names)] == ["frame-ode"]


def test_point_off_the_sphere_fails_the_determinant_row(monkeypatch):
    # a tangent image scaled by 1 + 1e-6 leaves the unit sphere by 1e-6:
    # the determinant oracle refuses it, and its row reads that distance
    # (below its 1e-5 tolerance) instead of the run raising NotOnUnitSphere;
    # unit-sphere-points fails by it, far above its ABS_TOL
    from modframe import indicatrix
    from modframe.indicatrix import IndicatrixKind
    row = indicatrix.KINDS[IndicatrixKind.TANGENT]
    monkeypatch.setitem(indicatrix.KINDS, IndicatrixKind.TANGENT,
                        row._replace(point=lambda mf: row.point(mf) * (1.0 + 1e-6)))
    frames.modified_frame.cache_clear()
    det, points = run_validation(samples=16,
                                 only=["geodesic-sphere-det", "unit-sphere-points"]).entries
    assert det.passed and det.max_residual == pytest.approx(1e-6, rel=1e-6)
    assert not points.passed and points.n_evaluated == det.n_evaluated == 48
    assert points.max_residual == pytest.approx(1e-6, rel=1e-6)
    assert points.tolerance == ABS_TOL


def test_constant_phi_fails_the_varying_torsion_row(monkeypatch):
    # phi' x 0 on every frame: the normal-involute defect of the salkowski
    # curve vanishes, as on a helix, and the row reads the whole 1e-3
    module = importlib.import_module("modframe.darboux")
    real = module.darboux
    monkeypatch.setattr(module, "darboux",
                        lambda mf: (d := real(mf))._replace(phi_prime=d.phi_prime * 0.0))
    frames.modified_frame.cache_clear()
    try:
        [entry] = run_validation(samples=16, only=["involute-normal-varying"]).entries
        # the tolerance override reaches a condition row as any other
        [loose] = run_validation(samples=16, only=["involute-normal-varying"],
                                 tolerance_override=1e-2).entries
    finally:
        frames.modified_frame.cache_clear()
    assert (entry.n_evaluated, entry.passed, entry.max_residual) == (16, False, 1e-3)
    assert loose.passed


def test_normal_at_the_zero_fails_the_zero_frame_row(monkeypatch):
    # N moved by 1e-5 along x: at the planar cubic's zero |N| = 1e-5
    assemble = frames._assemble

    def moved(*jet):
        T, N, *rest = assemble(*jet)
        return (T, N + np.array([1e-5, 0.0, 0.0]), *rest)

    monkeypatch.setattr(frames, "_assemble", moved)
    frames.modified_frame.cache_clear()
    try:
        [entry] = run_validation(samples=16, only=["kappa-zero-frame"]).entries
    finally:
        frames.modified_frame.cache_clear()
    assert (entry.n_evaluated, entry.passed) == (1, False)
    assert entry.max_residual == pytest.approx(1e-5)


def test_kappa_prime_above_the_gate_fails_rows_that_name_the_curve(monkeypatch):
    # kappa' + 1e-5 on every frame: the curves that declare constant kappa
    # exceed the 1e-6 gate, and each row that assumes it fails and names them
    assemble = frames._assemble

    def offset(*jet):
        out = list(assemble(*jet))
        out[5] = out[5] + 1e-5
        return tuple(out)

    monkeypatch.setattr(frames, "_assemble", offset)
    frames.modified_frame.cache_clear()
    try:
        rep = run_validation(samples=12, families={"h": curves.helix(2.0, 1.0),
                                                   "c": curves.twisted_cubic()})
    finally:
        frames.modified_frame.cache_clear()
    gated = [e for e in rep.entries if "declares constant kappa" in e.note]
    names = {e.name for e in gated}
    assert {"darboux-alignment", "lancret-angle", "pole-ind-covderiv",
            "geodesic-binormal-unweighted", "involute-normal"} <= names
    for e in gated:
        assert not e.passed and e.n_evaluated
        assert e.note.startswith("h declares constant kappa, but |kappa'| reaches 1e-05")
        assert e.max_residual == pytest.approx(1e-5)
    assert not rep.passed
