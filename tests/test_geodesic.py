import math

import numpy as np
import pytest

from modframe import frames, geodesic, numerics
from modframe.curves import arclength_grid, circle, helix, salkowski, total_arclength
from modframe.darboux import darboux
from modframe.errors import DegenerateIndicatrix, NotOnUnitSphere, TorsionVanishes
from modframe.indicatrix import IndicatrixKind, indicatrix_point

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


def _latitude_circle(theta, u):
    # g(u) on the circle at colatitude theta, with g' and g'', as (n, 3) rows
    u = np.asarray(u, dtype=float)
    c, s, zero, r = np.cos(u), np.sin(u), np.zeros_like(u), np.sin(theta)
    g = np.stack([r * c, r * s, np.full_like(u, np.cos(theta))], axis=-1)
    return g, r * np.stack([-s, c, zero], axis=-1), -r * np.stack([c, s, zero], axis=-1)


H = geodesic.SPHERE_STEP


def _five_point_det(kind, spec, s):
    # Reference: the fourth-order 5-point stencils at spacing H written
    # out, which diff_vec's Richardson pair at step 2H equals up to rounding.
    xs = [s + j * H for j in range(-2, 3)]
    at = frames.FrameTable(spec, np.concatenate([np.ravel(x) for x in xs]))
    gm2, gm1, g0, gp1, gp2 = (indicatrix_point(kind, at(x)) for x in xs)
    d1 = (-gp2 + 8 * gp1 - 8 * gm1 + gm2) / (12 * H)
    d2 = (-gp2 + 16 * gp1 - 30 * g0 + 16 * gm1 - gm2) / (12 * H * H)
    return geodesic.geodesic_curvature_sphere(g0, d1, d2)


class TestSphereDeterminantOracle:
    def test_rejects_off_sphere_points(self):
        with pytest.raises(NotOnUnitSphere):
            geodesic.geodesic_curvature_sphere(np.ones(3), np.ones(3), np.ones(3))
        g, g1, g2 = _latitude_circle(0.7, [0.0, 0.5])
        with pytest.raises(NotOnUnitSphere):
            geodesic.geodesic_curvature_sphere(g * [[1.0], [1.01]], g1, g2)

    @pytest.mark.parametrize("step", [0.0, -1e-3, math.nan, math.inf])
    def test_rejects_bad_steps(self, step):
        # the oracle's step passes the check of numerics, at both orders it reads
        point = lambda x: np.array([math.cos(x), math.sin(x), 0.0])
        for order in (1, 2):
            with pytest.raises(ValueError, match="positive and finite"):
                numerics.stencil(0.0, order, step)
            with pytest.raises(ValueError, match="positive and finite"):
                numerics.diff_vec(point, 0.0, order, step)

    def test_latitude_circle(self):
        # geodesic curvature of the circle at colatitude theta is cot(theta)
        theta = 0.7
        g, g1, g2 = _latitude_circle(theta, np.linspace(-3.0, 3.0, 7))
        batch = geodesic.geodesic_curvature_sphere(g, g1, g2)
        assert np.allclose(batch, 1.0 / math.tan(theta), rtol=1e-14)
        assert geodesic.geodesic_curvature_sphere(g[2], g1[2], g2[2]) == batch[2]

    def test_great_circle_vanishes(self):
        g, g1, g2 = _latitude_circle(math.pi / 2, np.linspace(-3.0, 3.0, 7))
        assert np.allclose(geodesic.geodesic_curvature_sphere(g, g1, g2), 0.0, atol=1e-15)
        assert geodesic.geodesic_curvature_sphere(g[0], g1[0], g2[0]) == pytest.approx(
            0.0, abs=1e-15)

    def test_zero_speed_raises_at_a_point_and_blanks_a_batch(self):
        g, g1, g2 = _latitude_circle(0.7, [0.0, 0.5, 1.0])
        g1[1] = 0.0
        with pytest.raises(DegenerateIndicatrix):
            geodesic.geodesic_curvature_sphere(g[1], g1[1], g2[1])
        batch = geodesic.geodesic_curvature_sphere(g, g1, g2)
        assert np.isnan(batch[1]) and np.isfinite(batch[[0, 2]]).all()

    def test_stencil_holds_the_five_points(self):
        for s in (0.37, arclength_grid(HELIX, 6)):
            points = numerics.stencil(s, 2, 2 * H)
            for j in range(-2, 3):
                assert np.isin(s + j * H, points).all(), j

    @pytest.mark.parametrize("kind, spec", [
        (IndicatrixKind.TANGENT, HELIX), (IndicatrixKind.POLE, salkowski(0.5)),
    ], ids=["tangent-helix", "pole-salkowski"])
    def test_matches_five_point_reference(self, kind, spec):
        # the two round g'' apart by about eps / H**2; numerics' noise model
        # bounds that by 8 eps / H**2, about 1.8e-9
        rel = 8 * np.finfo(float).eps / H**2
        grid = arclength_grid(spec, 6)
        got = geodesic.geodesic_curvature_sphere_at(kind, spec, grid)
        assert np.allclose(got, _five_point_det(kind, spec, grid), rtol=rel, atol=0.0)
        s = float(grid[2])
        assert geodesic.geodesic_curvature_sphere_at(kind, spec, s) == pytest.approx(
            _five_point_det(kind, spec, s), rel=rel)

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
