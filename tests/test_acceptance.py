"""Acceptance suite: one criterion per test, one printed verdict line each.

Every expected number here is either checked against an independent
numerical oracle computed in-process or is an exact closed-form constant
of the named curve.
"""

import math

import numpy as np
import pytest

from modframe import frames, geodesic, indicatrix, involute, validation
from modframe.curves import (
    arclength,
    arclength_grid,
    circle,
    helix,
    planar_cubic,
    salkowski,
    twisted_cubic,
)
from modframe.darboux import check_alignment, darboux, rotation_residuals
from modframe.indicatrix import IndicatrixKind
from modframe.numerics import norm

HELIX = helix(2.0, 1.0)
SALK = salkowski(0.5)
CONST_KAPPA = [HELIX, circle(1.0), circle(2.0), SALK]
ALL_FAMILIES = CONST_KAPPA + [twisted_cubic(), planar_cubic()]


_CAPSYS = None


@pytest.fixture(autouse=True)
def _expose_capsys(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    line = (f"ACCEPT {name}: {'PASS' if ok else 'FAIL'}"
            + (f"  ({detail})" if detail else ""))
    # emit past pytest's capture so the verdict shows in any run mode
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line)
    else:
        print(line)
    assert ok, f"{name}: {detail}"


def test_01_frame_ode():
    worst = 0.0
    for spec in (HELIX, twisted_cubic(), SALK, circle(2.0)):
        for s in arclength_grid(spec, 64):
            worst = max(worst, frames.check_frame_ode(spec, float(s)).max_residual)
    _verdict("frame-ode", worst < 1e-5, f"max residual {worst:.3g}")


def test_02_metric_relations():
    worst = 0.0
    for spec in ALL_FAMILIES:
        for s in arclength_grid(spec, 64):
            worst = max(worst, frames.metric_residual(spec, float(s)))
    _verdict("metric-relations", worst < 1e-9, f"max residual {worst:.3g}")


def test_03_rotation_vector():
    worst_align = 0.0
    worst_rot = 0.0
    for spec in CONST_KAPPA:
        for s in arclength_grid(spec, 32):
            worst_align = max(worst_align, check_alignment(spec, float(s)))
            worst_rot = max(worst_rot, max(rotation_residuals(spec, float(s))))
    _verdict("rotation-vector", worst_align < 1e-5 and worst_rot < 1e-5,
             f"alignment {worst_align:.3g}, rotation {worst_rot:.3g}")


def test_04_covariant_derivatives():
    worst = 0.0
    for spec in ALL_FAMILIES:
        # the tangent-indicatrix formula holds for varying curvature too
        for s in arclength_grid(spec, 32):
            mf = frames.modified_frame(spec, float(s))
            closed = indicatrix.cov_deriv_closed(IndicatrixKind.TANGENT, mf)
            oracle = indicatrix.cov_deriv_numeric(IndicatrixKind.TANGENT, spec, float(s))
            worst = max(worst, norm(closed - oracle))
    for spec in CONST_KAPPA:
        for kind in (IndicatrixKind.NORMAL, IndicatrixKind.BINORMAL,
                     IndicatrixKind.POLE):
            for s in arclength_grid(spec, 32):
                mf = frames.modified_frame(spec, float(s))
                if indicatrix.indicatrix_speed(kind, mf) <= 1e-8:
                    continue
                closed = indicatrix.cov_deriv_closed(kind, mf)
                oracle = indicatrix.cov_deriv_numeric(kind, spec, float(s))
                worst = max(worst, norm(closed - oracle))
    mf0 = frames.modified_frame(HELIX, 0.0)
    spot = indicatrix.cov_deriv_closed(IndicatrixKind.TANGENT, mf0)
    spot_ok = np.allclose(spot, [0.0, -1.11803, 0.0], atol=1e-5)
    _verdict("covariant-derivatives", worst < 1e-5 and spot_ok,
             f"max residual {worst:.3g}, spot value {spot}")


def test_05_geodesic_curvatures():
    mf = frames.modified_frame(HELIX, 1.0)
    g_t = geodesic.geodesic_curvature_closed(IndicatrixKind.TANGENT, mf)
    g_n = geodesic.geodesic_curvature_closed(IndicatrixKind.NORMAL, mf)
    o_t = geodesic.geodesic_curvature_oracle(IndicatrixKind.TANGENT, HELIX, 1.0)
    o_n = geodesic.geodesic_curvature_oracle(IndicatrixKind.NORMAL, HELIX, 1.0)
    helix_ok = (abs(g_t - 0.5) < 1e-6 and abs(g_n - 2.1) < 1e-6
                and abs(g_t - o_t) < 1e-6 and abs(g_n - o_n) < 1e-6)

    pole_ok = True
    for s in arclength_grid(SALK, 32):
        mfs = frames.modified_frame(SALK, float(s))
        dd = darboux(mfs)
        g_c = geodesic.geodesic_curvature_closed(IndicatrixKind.POLE, mfs)
        pole_ok = pole_ok and abs(g_c * abs(dd.phi_prime) - dd.w_norm) < 1e-5

    det_worst = 0.0
    for spec, kind in ((HELIX, IndicatrixKind.TANGENT),
                       (SALK, IndicatrixKind.TANGENT),
                       (SALK, IndicatrixKind.POLE)):
        for s in arclength_grid(spec, 16):
            det_val = abs(geodesic.geodesic_curvature_sphere_at(kind, spec, float(s)))
            gauss = geodesic.geodesic_curvature_oracle(kind, spec, float(s))
            det_worst = max(det_worst, abs(det_val - gauss))

    _verdict("geodesic-curvatures",
             helix_ok and pole_ok and det_worst < 1e-5,
             f"gamma_T {g_t:.8f}, gamma_N {g_n:.8f}, det-vs-gauss {det_worst:.3g}")


def test_06_binormal_discrepancy():
    rep = geodesic.geodesic_report(IndicatrixKind.BINORMAL, HELIX, 1.0)
    oracle_ok = abs(rep.gamma_oracle - math.sqrt(29.41)) < 1e-5
    gap = rep.residual_unweighted
    gap_ok = abs(gap - (math.sqrt(31.41) - math.sqrt(29.41))) < 1e-4
    entry = next(e for e in validation.run_validation(
        samples=8, only=["geodesic-binormal-unweighted"]).entries)
    flagged = entry.expected_discrepancy and entry.passed
    _verdict("binormal-discrepancy", oracle_ok and gap_ok and flagged,
             f"oracle {rep.gamma_oracle:.8f}, gap {gap:.5f}, flagged {flagged}")


def test_07_involutes():
    ok = True
    details = []
    for spec, label in ((HELIX, "helix"), (SALK, "salkowski")):
        for pair in (IndicatrixKind.TANGENT, IndicatrixKind.BINORMAL):
            rep = involute.involute_scan(pair, spec, 32)
            ok = ok and rep.max_abs_inner < 1e-9
            details.append(f"{label}/{pair.value} {rep.max_abs_inner:.2g}")
    rep_h = involute.involute_scan(IndicatrixKind.NORMAL, HELIX, 32)
    rep_s = involute.involute_scan(IndicatrixKind.NORMAL, SALK, 32)
    ok = ok and rep_h.max_abs_inner < 1e-9 and rep_s.max_abs_inner > 1e-3
    details.append(f"normal helix {rep_h.max_abs_inner:.2g} vs "
                   f"salkowski {rep_s.max_abs_inner:.2g}")
    _verdict("involutes", ok, "; ".join(details))


def test_08_degeneracy_handling():
    ok = True
    for spec, kind in ((circle(1.0), IndicatrixKind.BINORMAL),
                       (HELIX, IndicatrixKind.POLE)):
        for s in arclength_grid(spec, 16):
            smp = indicatrix.sample(kind, spec, float(s))
            ok = ok and smp.degenerate and bool(np.all(np.isfinite(smp.point)))
    spec = planar_cubic()
    s0 = arclength(spec, spec.t_lo, 0.0)
    mf = frames.modified_frame(spec, s0)
    ok = (ok and norm(mf.N) < 1e-8 and norm(mf.B) < 1e-8
          and bool(np.all(np.isfinite(mf.T))))
    _verdict("degeneracy-handling", ok)


def test_09_unit_curvature_coincidence():
    worst = 0.0
    spec = circle(1.0)
    for s in arclength_grid(spec, 32):
        mf = frames.modified_frame(spec, float(s))
        ff = frames.frenet_frame(spec, float(s))
        worst = max(worst, norm(mf.T - ff.t_vec), norm(mf.N - ff.n_vec),
                    norm(mf.B - ff.b_vec))
    _verdict("unit-curvature-coincidence", worst < 1e-9,
             f"max deviation {worst:.3g}")
