import math

import numpy as np
import pytest

from modframe import frames, geodesic
from modframe.curves import arclength_grid, circle, helix, salkowski, total_arclength
from modframe.darboux import darboux
from modframe.errors import NotOnUnitSphere, TorsionVanishes
from modframe.indicatrix import IndicatrixKind

HELIX = helix(2.0, 1.0)


def _grid(spec, n=6):
    return [float(s) for s in arclength_grid(spec, n)]


class TestClosedForms:
    def test_helix_tangent(self):
        mf = frames.modified_frame(HELIX, 0.0)
        # |tau| / kappa = 0.2 / 0.4
        assert geodesic.geodesic_curvature_closed(
            IndicatrixKind.TANGENT, mf) == pytest.approx(0.5, rel=1e-12)

    def test_helix_normal(self):
        mf = frames.modified_frame(HELIX, 0.0)
        # phi' = 0, so sqrt(((kappa^2 - 1)/kappa)^2) = (1 - 0.16)/0.4
        assert geodesic.geodesic_curvature_closed(
            IndicatrixKind.NORMAL, mf) == pytest.approx(2.1, rel=1e-12)

    def test_helix_binormal(self):
        mf = frames.modified_frame(HELIX, 0.0)
        val = geodesic.geodesic_curvature_closed(IndicatrixKind.BINORMAL, mf)
        assert val == pytest.approx(math.sqrt(29.41), rel=1e-12)

    def test_helix_binormal_unweighted_variant(self):
        mf = frames.modified_frame(HELIX, 0.0)
        val = geodesic.geodesic_curvature_binormal_unweighted(mf)
        assert val == pytest.approx(math.sqrt(31.41), rel=1e-12)

    def test_salkowski_pole(self):
        # gamma_C * |phi'| = |w| with gamma_C = 1/m for slope m
        m = 0.5
        spec = salkowski(m)
        for s in _grid(spec):
            mf = frames.modified_frame(spec, s)
            dd = darboux(mf)
            gc = geodesic.geodesic_curvature_closed(IndicatrixKind.POLE, mf)
            assert gc * abs(dd.phi_prime) == pytest.approx(dd.w_norm, rel=1e-9)
            assert gc == pytest.approx(1.0 / m, rel=1e-9)

    def test_binormal_needs_torsion(self):
        mf = frames.modified_frame(circle(2.0), 0.5)
        with pytest.raises(TorsionVanishes):
            geodesic.geodesic_curvature_closed(IndicatrixKind.BINORMAL, mf)


class TestOracleAgreement:
    @pytest.mark.parametrize("kind", [
        IndicatrixKind.TANGENT, IndicatrixKind.NORMAL, IndicatrixKind.BINORMAL,
    ], ids=lambda k: k.value)
    def test_helix(self, kind):
        for s in _grid(HELIX):
            rep = geodesic.geodesic_report(kind, HELIX, s)
            assert rep.residual_closed < 1e-5, (kind, s, rep)

    @pytest.mark.parametrize("kind", list(IndicatrixKind), ids=lambda k: k.value)
    def test_salkowski(self, kind):
        spec = salkowski(0.5)
        for s in _grid(spec):
            rep = geodesic.geodesic_report(kind, spec, s)
            assert rep.residual_closed < 1e-5, (kind, s, rep)

    def test_binormal_unweighted_disagrees(self):
        # the unit-vector expansion drops the kappa^2 weight; on the
        # helix the gap to the oracle is about 0.181
        rep = geodesic.geodesic_report(IndicatrixKind.BINORMAL, HELIX, 1.0)
        assert rep.residual_unweighted == pytest.approx(
            math.sqrt(31.41) - math.sqrt(29.41), abs=1e-4)
        assert rep.residual_unweighted > 1e-2


class TestSphereDeterminantOracle:
    def test_rejects_off_sphere_points(self):
        pts = np.ones((5, 3))
        with pytest.raises(NotOnUnitSphere):
            geodesic.geodesic_curvature_sphere(pts, 1e-3)

    @pytest.mark.parametrize("step", [0.0, -1e-3, math.nan, math.inf])
    def test_rejects_bad_steps(self, step):
        us = np.array([-2, -1, 0, 1, 2]) * 1e-3
        pts = np.stack([np.cos(us), np.sin(us), np.zeros(5)], axis=1)
        with pytest.raises(ValueError, match="positive and finite"):
            geodesic.geodesic_curvature_sphere(pts, step)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            geodesic.geodesic_curvature_sphere(np.zeros((4, 3)), 1e-3)

    def test_latitude_circle(self):
        # geodesic curvature of the circle at colatitude theta is cot(theta)
        theta = 0.7
        step = 1e-3
        us = np.array([-2, -1, 0, 1, 2]) * step
        pts = np.stack([
            np.sin(theta) * np.cos(us),
            np.sin(theta) * np.sin(us),
            np.full(5, np.cos(theta)),
        ], axis=1)
        val = geodesic.geodesic_curvature_sphere(pts, step * math.sin(theta))
        assert abs(val) == pytest.approx(1.0 / math.tan(theta), rel=1e-6)

    def test_great_circle_vanishes(self):
        step = 1e-3
        us = np.array([-2, -1, 0, 1, 2]) * step
        pts = np.stack([np.cos(us), np.sin(us), np.zeros(5)], axis=1)
        assert geodesic.geodesic_curvature_sphere(pts, step) == pytest.approx(
            0.0, abs=1e-8)

    def test_tangent_indicatrix_matches_gauss_oracle(self):
        for s in _grid(HELIX, 5):
            det_val = abs(geodesic.geodesic_curvature_sphere_at(
                IndicatrixKind.TANGENT, HELIX, s))
            gauss_val = geodesic.geodesic_curvature_oracle(
                IndicatrixKind.TANGENT, HELIX, s)
            assert det_val == pytest.approx(gauss_val, abs=1e-5)

    def test_pole_indicatrix_matches_closed_form(self):
        spec = salkowski(0.5)
        total = total_arclength(spec)
        for s in np.linspace(0.2 * total, 0.8 * total, 4):
            det_val = abs(geodesic.geodesic_curvature_sphere_at(
                IndicatrixKind.POLE, spec, float(s)))
            mf = frames.modified_frame(spec, float(s))
            closed = geodesic.geodesic_curvature_closed(
                IndicatrixKind.POLE, mf)
            assert det_val == pytest.approx(closed, abs=1e-5)

    def test_normal_indicatrix_rejected(self):
        with pytest.raises(NotOnUnitSphere):
            geodesic.geodesic_curvature_sphere_at(
                IndicatrixKind.NORMAL, HELIX, 1.0)
