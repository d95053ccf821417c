import importlib
import math

import numpy as np
import pytest

from modframe import frames, indicatrix, involute, validation
from modframe.curves import arclength, arclength_grid, circle, helix, salkowski, twisted_cubic
from modframe.errors import DegenerateIndicatrix, NonConstantCurvature
from modframe.indicatrix import IndicatrixKind
from modframe.numerics import norm

HELIX = helix(2.0, 1.0)
CONST_KAPPA_SPECS = [HELIX, circle(2.0), salkowski(0.5)]
ALL_KINDS = list(IndicatrixKind)


def _grid(spec, n=8):
    return [float(s) for s in arclength_grid(spec, n)]


class TestPointsAndSpeeds:
    def test_tangent_point_is_unit(self):
        for s in _grid(HELIX):
            smp = indicatrix.sample(IndicatrixKind.TANGENT, HELIX, s)
            assert norm(smp.point) == pytest.approx(1.0, abs=1e-12)

    def test_normal_binormal_points_have_radius_kappa(self):
        for s in _grid(HELIX):
            mf = frames.modified_frame(HELIX, s)
            for kind in (IndicatrixKind.NORMAL, IndicatrixKind.BINORMAL):
                smp = indicatrix.sample(kind, HELIX, s)
                assert norm(smp.point) == pytest.approx(mf.kappa, abs=1e-10)

    def test_pole_point_is_unit(self):
        for s in _grid(salkowski(0.5)):
            smp = indicatrix.sample(IndicatrixKind.POLE, salkowski(0.5), s)
            assert norm(smp.point) == pytest.approx(1.0, abs=1e-12)

    def test_helix_speeds(self):
        mf = frames.modified_frame(HELIX, 0.0)
        k, t = 0.4, 0.2
        w = math.hypot(k, t)
        expect = {
            IndicatrixKind.TANGENT: k,
            IndicatrixKind.NORMAL: k * w,
            IndicatrixKind.BINORMAL: k * t,
            IndicatrixKind.POLE: 0.0,
        }
        for kind, val in expect.items():
            assert indicatrix.indicatrix_speed(kind, mf) == pytest.approx(
                val, abs=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_speed_matches_point_derivative(self, kind):
        # |d point / ds| computed numerically must equal the closed-form rate
        spec = salkowski(0.5)
        from modframe import numerics

        def point_at(x):
            mf = frames.modified_frame(spec, x)
            return indicatrix.indicatrix_point(kind, mf)

        for s in _grid(spec, 5):
            mf = frames.modified_frame(spec, s)
            fd = numerics.diff_vec(point_at, s)
            assert norm(fd) == pytest.approx(
                indicatrix.indicatrix_speed(kind, mf), abs=1e-7)


class TestTangents:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_unit_norm(self, kind):
        spec = salkowski(0.5)
        for s in _grid(spec, 6):
            mf = frames.modified_frame(spec, s)
            t = indicatrix.indicatrix_tangent(kind, mf)
            assert norm(t) == pytest.approx(1.0, abs=1e-10)

    def test_tangent_kind_on_varying_curvature(self):
        # the tangent indicatrix formulas hold without the constant-kappa gate
        spec = twisted_cubic()
        for s in _grid(spec, 6):
            mf = frames.modified_frame(spec, s)
            t = indicatrix.indicatrix_tangent(IndicatrixKind.TANGENT, mf)
            assert np.allclose(t, mf.N / mf.kappa, atol=1e-12)

    def test_gate_applies_to_other_kinds(self):
        mf = frames.modified_frame(twisted_cubic(), 1.0)
        with pytest.raises(NonConstantCurvature):
            indicatrix.indicatrix_tangent(IndicatrixKind.NORMAL, mf)

    # The gate reads kappa' at the point alone, and a frame does not know its
    # curve, so it passes a curve of varying kappa wherever kappa' = 0: the
    # twisted cubic at t = 0, where the oracle's stencil sees kappa' = 6e-5
    # and refuses.  ROADMAP item 10's unit images remove the gate.
    GATE_PER_POINT = pytest.mark.xfail(
        strict=True, raises=pytest.fail.Exception,
        reason="the constant-kappa gate is per point (ROADMAP item 10)")

    @staticmethod
    def _at_twisted_cubic_flat_point():
        spec = twisted_cubic()
        s0 = arclength(spec, spec.t_lo, 0.0)
        assert frames.modified_frame(spec, s0).kappa_prime == 0.0
        return spec, s0

    def test_oracle_refuses_where_kappa_prime_vanishes(self):
        spec, s0 = self._at_twisted_cubic_flat_point()
        with pytest.raises(NonConstantCurvature):
            indicatrix.cov_deriv_numeric(IndicatrixKind.NORMAL, spec, s0)

    @GATE_PER_POINT
    def test_gate_refuses_sample_where_kappa_prime_vanishes(self):
        spec, s0 = self._at_twisted_cubic_flat_point()
        with pytest.raises(NonConstantCurvature):
            indicatrix.sample(IndicatrixKind.NORMAL, spec, s0)

    @GATE_PER_POINT
    def test_gate_refuses_geodesic_curvature_where_kappa_prime_vanishes(self):
        spec, s0 = self._at_twisted_cubic_flat_point()
        with pytest.raises(NonConstantCurvature):
            indicatrix.geodesic_curvature_closed(IndicatrixKind.BINORMAL,
                                                 frames.modified_frame(spec, s0))

    def test_pole_tangent_degenerate_on_helix(self):
        # phi' = 0: the pole curve is a point, its tangent is undefined
        mf = frames.modified_frame(HELIX, 0.0)
        with pytest.raises(DegenerateIndicatrix):
            indicatrix.indicatrix_tangent(IndicatrixKind.POLE, mf)
        # but the limit direction is still available and unit
        assert norm(indicatrix.pole_tangent_direction(mf)) == pytest.approx(
            1.0, abs=1e-12)


class TestCovariantDerivatives:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_closed_matches_numeric_salkowski(self, kind):
        spec = salkowski(0.5)
        for s in _grid(spec, 6):
            mf = frames.modified_frame(spec, s)
            closed = indicatrix.cov_deriv_closed(kind, mf)
            oracle = indicatrix.cov_deriv_numeric(kind, spec, s)
            assert norm(closed - oracle) < 1e-5, (kind, s)

    @pytest.mark.parametrize("kind", [
        IndicatrixKind.TANGENT, IndicatrixKind.NORMAL, IndicatrixKind.BINORMAL,
    ], ids=lambda k: k.value)
    def test_closed_matches_numeric_helix(self, kind):
        for s in _grid(HELIX, 6):
            mf = frames.modified_frame(HELIX, s)
            closed = indicatrix.cov_deriv_closed(kind, mf)
            oracle = indicatrix.cov_deriv_numeric(kind, HELIX, s)
            assert norm(closed - oracle) < 1e-5

    def test_tangent_kind_on_varying_curvature(self):
        # kappa' contributions cancel, so the closed form survives on
        # non-constant curvature curves too
        spec = twisted_cubic()
        for s in _grid(spec, 6):
            mf = frames.modified_frame(spec, s)
            closed = indicatrix.cov_deriv_closed(IndicatrixKind.TANGENT, mf)
            oracle = indicatrix.cov_deriv_numeric(IndicatrixKind.TANGENT, spec, s)
            assert norm(closed - oracle) < 1e-5

    def test_helix_tangent_cov_deriv_value(self):
        mf = frames.modified_frame(HELIX, 0.0)
        closed = indicatrix.cov_deriv_closed(IndicatrixKind.TANGENT, mf)
        # -T + (tau / kappa^2) B at s = 0
        expect = -mf.T + (mf.tau / mf.kappa**2) * mf.B
        assert np.allclose(closed, expect, atol=1e-12)
        assert np.allclose(closed, [0.0, -math.sqrt(5.0) / 2.0, 0.0], atol=1e-9)


class TestDegeneracyFlags:
    def test_circle_binormal_degenerate(self):
        # tau = 0 everywhere: the binormal indicatrix is a fixed point
        spec = circle(1.0)
        for s in _grid(spec, 5):
            smp = indicatrix.sample(IndicatrixKind.BINORMAL, spec, s)
            assert smp.degenerate
            assert smp.speed == pytest.approx(0.0, abs=1e-12)
            assert smp.unit_tangent is None and smp.cov_deriv is None
            assert np.all(np.isfinite(smp.point))

    def test_helix_pole_degenerate(self):
        for s in _grid(HELIX, 5):
            smp = indicatrix.sample(IndicatrixKind.POLE, HELIX, s)
            assert smp.degenerate
            assert np.all(np.isfinite(smp.point))

    def test_salkowski_all_kinds_regular(self):
        spec = salkowski(0.5)
        for kind in ALL_KINDS:
            for s in _grid(spec, 5):
                smp = indicatrix.sample(kind, spec, s)
                assert not smp.degenerate
                assert np.all(np.isfinite(smp.unit_tangent))
                assert np.all(np.isfinite(smp.cov_deriv))


class TestDarbouxBuilds:
    """A frame builds its Darboux data once, on the first read of
    ``mf.darboux``, whichever forms read it; the normal indicatrix's point
    and rate build none."""

    @pytest.fixture
    def builds(self, monkeypatch):
        # the builder is patched in its module, where the frame looks it up
        module = importlib.import_module("modframe.darboux")
        calls = []
        real = module.darboux

        def counted(mf):
            calls.append(mf)
            return real(mf)

        monkeypatch.setattr(module, "darboux", counted)
        frames.modified_frame.cache_clear()  # no point frame arrives already built
        return calls

    @staticmethod
    def frame(spec, batch):
        grid = arclength_grid(spec, 9)
        return frames.frames_at(spec, grid if batch else float(grid[3]))

    @pytest.mark.parametrize("batch", [False, True], ids=["point", "batch"])
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize("form", [indicatrix.indicatrix_tangent, indicatrix.cov_deriv_closed,
                                      indicatrix.geodesic_curvature_closed],
                             ids=lambda f: f.__name__)
    def test_at_most_one_build_per_call(self, builds, form, kind, batch):
        mf = self.frame(salkowski(0.5), batch)
        form(kind, mf)
        assert len(builds) <= 1

    @pytest.mark.parametrize("batch", [False, True], ids=["point", "batch"])
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_one_build_per_frame(self, builds, kind, batch):
        mf = self.frame(salkowski(0.5), batch)
        for form in (indicatrix.indicatrix_point, indicatrix.indicatrix_speed,
                     indicatrix.indicatrix_tangent, indicatrix.cov_deriv_closed,
                     indicatrix.geodesic_curvature_closed):
            form(kind, mf)
        reads = kind in (IndicatrixKind.NORMAL, IndicatrixKind.POLE)
        assert builds == ([mf] if reads else [])
        dd = mf.darboux
        assert mf.darboux is dd
        assert builds == [mf]

    @pytest.mark.parametrize("batch", [False, True], ids=["point", "batch"])
    def test_sample_and_involute_build_once(self, builds, batch):
        spec = salkowski(0.5)
        grid = arclength_grid(spec, 9)
        s = grid if batch else float(grid[3])
        indicatrix.sample(IndicatrixKind.POLE, spec, s)
        assert len(builds) == 1
        frames.modified_frame.cache_clear()
        involute.involute_inner(IndicatrixKind.NORMAL, spec, s)
        assert len(builds) == 2

    def test_tangent_residual_builds_once_per_frame(self, builds):
        # one build on the grid's frame and one on its stencil's
        spec = salkowski(0.5)
        grid = arclength_grid(spec, 9)
        table = frames.frame_table(spec, grid)
        validation._tangent_residual(IndicatrixKind.POLE, table, grid)
        assert len(builds) == 2 and builds[0] is not builds[1]

    def test_validation_builds(self, builds):
        validation.run_validation(samples=128)
        assert len(builds) <= 110

    @pytest.mark.parametrize("batch", [False, True], ids=["point", "batch"])
    def test_data_is_read_only(self, batch):
        dd = self.frame(salkowski(0.5), batch).darboux
        for name in dd._fields:
            value = getattr(dd, name)
            if isinstance(value, np.ndarray):
                with pytest.raises(ValueError):
                    value[...] = 0.0

    @pytest.mark.parametrize("batch", [False, True], ids=["point", "batch"])
    @pytest.mark.parametrize("spec", [HELIX, salkowski(0.5)], ids=["helix", "salkowski"])
    def test_normal_point_and_rate_build_none(self, builds, spec, batch):
        mf = self.frame(spec, batch)
        indicatrix.indicatrix_point(IndicatrixKind.NORMAL, mf)
        indicatrix.indicatrix_speed(IndicatrixKind.NORMAL, mf)
        assert builds == []
