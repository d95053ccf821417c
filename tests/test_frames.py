import math
import warnings

import numpy as np
import pytest

from modframe import curves, frames, numerics
from modframe.curves import (
    arclength_grid,
    circle,
    frenet_arclength_grid,
    helix,
    line,
    planar_cubic,
    salkowski,
    twisted_cubic,
)
from modframe.errors import CurvatureVanishes, DegenerateFrame, TargetOutOfRange

HELIX = helix(2.0, 1.0)
#: kappa = a / (a^2 + b^2), tau = b / (a^2 + b^2) for helix(a, b)
HELIX_KAPPA = 2.0 / 5.0
HELIX_TAU = 1.0 / 5.0


class TestUnitSpeedJet:
    # The arclength derivatives of the position are read from the frame:
    # r' = T, r'' = N and r''' = N' from the frame ODE.
    @pytest.mark.parametrize("spec", [
        circle(2.0), HELIX, twisted_cubic(), salkowski(0.5),
    ], ids=lambda s: s.family)
    def test_matches_arclength_finite_differences(self, spec):
        total = curves.total_arclength(spec)
        for s in np.linspace(0.1 * total, 0.9 * total, 5):
            mf = frames.modified_frame(spec, float(s))
            pos = lambda x: curves.position_at_arclength(spec, x)
            for order, exact in ((1, mf.T), (2, mf.N), (3, frames.frame_ode_rhs(mf)[1])):
                fd = numerics.diff_vec(pos, float(s), order=order)
                assert np.allclose(fd, exact, atol=1e-6), (spec.family, order)

    def test_fourth_order_on_helix(self):
        # r'''' = T''' = -(kappa^2 + tau^2) N on a helix
        s = curves.arclength(HELIX, HELIX.t_lo, 0.7)
        mf = frames.modified_frame(HELIX, s)
        fd = numerics.diff_vec(lambda x: frames.modified_frame(HELIX, x).T, s, order=3)
        assert np.allclose(fd, -(HELIX_KAPPA**2 + HELIX_TAU**2) * mf.N, atol=1e-6)


class TestCurvatureTorsion:
    def test_helix_constants(self):
        jet = HELIX.jet(0.3)
        assert frames.curvature(jet) == pytest.approx(HELIX_KAPPA, rel=1e-12)
        assert frames.torsion_general(jet) == pytest.approx(HELIX_TAU, rel=1e-12)

    def test_circle(self):
        jet = circle(2.0).jet(1.0)
        assert frames.curvature(jet) == pytest.approx(0.5, rel=1e-12)
        assert frames.torsion_general(jet) == pytest.approx(0.0, abs=1e-12)

    def test_two_curvature_paths_agree(self):
        # the cross-product formula against each family's closed-form kappa
        closed_forms = [
            (HELIX, lambda t: HELIX_KAPPA),
            (salkowski(0.5), lambda t: 1.0),
            (twisted_cubic(), lambda t: 2.0 * math.sqrt(1 + 9 * t**2 + 9 * t**4)
             / (1 + 4 * t**2 + 9 * t**4) ** 1.5),
        ]
        for spec, kappa in closed_forms:
            for t in np.linspace(spec.t_lo + 0.1, spec.t_hi - 0.1, 5):
                assert frames.curvature(spec.jet(float(t))) == pytest.approx(
                    kappa(float(t)), rel=1e-12)

    def test_salkowski_unit_curvature(self):
        spec = salkowski(0.5)
        for t in np.linspace(spec.t_lo, spec.t_hi, 9):
            assert frames.curvature(spec.jet(float(t))) == pytest.approx(
                1.0, abs=1e-12)

    def test_torsion_raises_at_curvature_zero(self):
        jet = planar_cubic().jet(0.0)
        with pytest.raises(CurvatureVanishes):
            frames.torsion_general(jet)

    def test_kappa_prime_matches_finite_differences(self):
        spec = twisted_cubic()
        for s in np.linspace(0.5, 2.0, 5):
            mf = frames.modified_frame(spec, float(s))
            fd = (frames.modified_frame(spec, float(s) + 1e-5).kappa
                  - frames.modified_frame(spec, float(s) - 1e-5).kappa) / 2e-5
            assert mf.kappa_prime == pytest.approx(fd, abs=1e-6)

    def test_tau_prime_matches_finite_differences(self):
        spec = salkowski(0.5)
        total = curves.total_arclength(spec)
        for s in np.linspace(0.2 * total, 0.8 * total, 5):
            mf = frames.modified_frame(spec, float(s))
            fd = (frames.modified_frame(spec, float(s) + 1e-5).tau
                  - frames.modified_frame(spec, float(s) - 1e-5).tau) / 2e-5
            assert mf.tau_prime == pytest.approx(fd, abs=1e-6)


class TestModifiedFrame:
    def test_helix_at_zero(self):
        mf = frames.modified_frame(HELIX, 0.0)
        r5 = math.sqrt(5.0)
        assert np.allclose(mf.T, [0, 2 / r5, 1 / r5], atol=1e-12)
        assert np.allclose(mf.N, [-HELIX_KAPPA, 0, 0], atol=1e-12)
        assert mf.kappa == pytest.approx(HELIX_KAPPA, rel=1e-12)
        assert mf.tau == pytest.approx(HELIX_TAU, rel=1e-12)
        assert mf.kappa_prime == pytest.approx(0.0, abs=1e-12)

    def test_norms(self):
        for spec in (HELIX, twisted_cubic(), salkowski(0.5)):
            for s in arclength_grid(spec, 9):
                mf = frames.modified_frame(spec, float(s))
                assert numerics.norm(mf.T) == pytest.approx(1.0, abs=1e-12)
                assert numerics.norm(mf.N) == pytest.approx(mf.kappa, abs=1e-10)
                assert numerics.norm(mf.B) == pytest.approx(mf.kappa, abs=1e-10)

    def test_cached_results_are_read_only(self):
        spec = helix(2.0, 1.0)
        mf = frames.modified_frame(spec, 0.5)
        T = mf.T.copy()
        ff = frames.frenet_frame(spec, 0.5)
        for arr in (mf.T, mf.N, mf.B, ff.t_vec, ff.n_vec, ff.b_vec, spec.jet(0.5).r1):
            with pytest.raises(ValueError):
                arr[0] = 99.0
        assert np.array_equal(frames.modified_frame(spec, 0.5).T, T)

    def test_cached_vectors_own_their_memory(self):
        # a view would keep a second array alive per vector in the cache
        mf = frames.modified_frame(salkowski(0.5), 1.0)
        assert all(v.base is None for v in (mf.T, mf.N, mf.B, mf.r))

    def test_b_is_cross_of_t_and_n(self):
        mf = frames.modified_frame(twisted_cubic(), 1.0)
        assert np.allclose(mf.B, numerics.cross(mf.T, mf.N), atol=1e-12)

    def test_curvature_zero_extension(self):
        # the modified frame stays total: N = B = 0 at a curvature zero
        spec = planar_cubic()
        s0 = curves.arclength(spec, spec.t_lo, 0.0)
        mf = frames.modified_frame(spec, s0)
        assert mf.kappa <= 1e-9
        assert np.allclose(mf.N, 0.0, atol=1e-9)
        assert np.allclose(mf.B, 0.0, atol=1e-9)
        assert np.all(np.isfinite(mf.T))

    def test_frenet_frame_unit_vectors(self):
        ff = frames.frenet_frame(HELIX, 1.0)
        for v in (ff.t_vec, ff.n_vec, ff.b_vec):
            assert numerics.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_frenet_frame_raises_at_curvature_zero(self):
        spec = planar_cubic()
        s0 = curves.arclength(spec, spec.t_lo, 0.0)
        with pytest.raises(CurvatureVanishes):
            frames.frenet_frame(spec, s0)


class TestFrameOde:
    @pytest.mark.parametrize("spec", [
        HELIX, circle(2.0), twisted_cubic(), salkowski(0.5),
    ], ids=lambda s: s.family)
    def test_residuals_small(self, spec):
        for s in arclength_grid(spec, 8):
            res = frames.check_frame_ode(spec, float(s))
            assert res.max_residual < 1e-5, (spec.family, s, res)

    def test_planar_cubic_away_from_zero(self):
        spec = planar_cubic()
        for s in frenet_arclength_grid(spec, 8):
            res = frames.check_frame_ode(spec, float(s))
            assert res.max_residual < 1e-5


class TestMetricResidual:
    @pytest.mark.parametrize("spec", [
        HELIX, circle(1.0), circle(2.0), twisted_cubic(), salkowski(0.5),
        planar_cubic(),
    ], ids=lambda s: s.family + str(s.params))
    def test_metric_relations(self, spec):
        for s in arclength_grid(spec, 8):
            assert frames.metric_residual(spec, float(s)) < 1e-9


def test_unit_curvature_circle_frames_coincide():
    # radius-1 circle: kappa = 1, so modified and Frenet frames agree
    spec = circle(1.0)
    for s in arclength_grid(spec, 8):
        mf = frames.modified_frame(spec, float(s))
        ff = frames.frenet_frame(spec, float(s))
        assert np.allclose(mf.T, ff.t_vec, atol=1e-9)
        assert np.allclose(mf.N, ff.n_vec, atol=1e-9)
        assert np.allclose(mf.B, ff.b_vec, atol=1e-9)


DEFAULT_FAMILIES = [line(), circle(2.0), HELIX, twisted_cubic(), planar_cubic(),
                    salkowski(0.5)]
#: Curves whose speed over- or underflows the powers the frame algebra divides by.
EXTREME_SCALES = [circle(1e300), helix(1e200, 1e200), circle(1e-160), circle(1e-200)]


def _close(a, b, rel):
    # |a - b| <= rel * max(1, |b|), elementwise
    return np.all(np.abs(a - b) <= rel * np.maximum(1.0, np.abs(b)))


class TestModifiedFrames:
    @pytest.mark.parametrize("spec", DEFAULT_FAMILIES, ids=lambda s: s.family)
    def test_matches_scalar_path(self, spec):
        total = curves.total_arclength(spec)
        grid = np.linspace(0.0, total, 97)
        if spec.kappa_zeros:  # land exactly on the curvature zero too
            grid = np.sort(np.append(grid, curves.arclength(spec, spec.t_lo, 0.0)))
        batch = frames.modified_frames(spec, grid)
        assert batch.T.shape == (len(grid), 3) and batch.kappa.shape == (len(grid),)
        for i, s in enumerate(grid):
            mf = frames.modified_frame(spec, float(s))
            for name in ("t", "r", "T", "N", "B", "kappa", "tau"):
                assert _close(getattr(batch, name)[i], getattr(mf, name), 1e-13), (name, s)
            for name in ("kappa_prime", "tau_prime"):
                assert _close(getattr(batch, name)[i], getattr(mf, name), 1e-12), (name, s)

    def test_curvature_zero_rows(self):
        spec = planar_cubic()
        s0 = curves.arclength(spec, spec.t_lo, 0.0)
        batch = frames.modified_frames(spec, [0.5 * s0, s0, 1.5 * s0])
        assert batch.kappa[1] <= 1e-9
        assert batch.tau[1] == batch.kappa_prime[1] == batch.tau_prime[1] == 0.0
        assert np.all(batch.N[1] == 0.0) and np.all(batch.B[1] == 0.0)
        assert batch.kappa[0] > 1e-3 and batch.kappa[2] > 1e-3

    @pytest.mark.parametrize("bad", [-1e-3, 1e6, math.nan])
    def test_any_out_of_range_s_raises(self, bad):
        spec = twisted_cubic()
        grid = np.linspace(0.0, curves.total_arclength(spec), 8)
        grid[5] = bad
        with pytest.raises(TargetOutOfRange):
            frames.modified_frames(spec, grid)

    def test_fields_are_read_only(self):
        batch = frames.modified_frames(salkowski(0.5), [0.1, 0.2, 0.3])
        for name in ("T", "N", "B", "kappa", "tau", "kappa_prime", "tau_prime", "t", "r"):
            with pytest.raises(ValueError):
                getattr(batch, name)[0] = 99.0

    def test_needs_one_axis(self):
        with pytest.raises(ValueError):
            frames.modified_frames(HELIX, [[0.1, 0.2]])

    def test_bypasses_the_frame_cache(self):
        spec = salkowski(0.271)  # used by no other test, so nothing is cached
        frames.modified_frames(spec, [0.1, 0.2])
        before = frames.modified_frame.cache_info().currsize
        frames.modified_frames(spec, [0.1, 0.2])
        assert frames.modified_frame.cache_info().currsize == before


class TestExtremeScales:
    @pytest.mark.parametrize("spec", EXTREME_SCALES, ids=lambda s: f"{s.family}{s.params}")
    def test_both_paths_refuse(self, spec):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateFrame, match="speed"):
                frames.modified_frame(spec, 0.5 * curves.total_arclength(spec))
            with pytest.raises(DegenerateFrame, match="speed"):
                frames.modified_frames(spec, np.linspace(0.0, curves.total_arclength(spec), 4))

    @pytest.mark.parametrize("spec", EXTREME_SCALES, ids=lambda s: f"{s.family}{s.params}")
    def test_raw_jet_refused(self, spec):
        jet = spec.jet(0.5 * (spec.t_lo + spec.t_hi))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateFrame, match="speed"):
                frames.curvature(jet)
            with pytest.raises(DegenerateFrame, match="speed"):
                frames.torsion_general(jet)

    @pytest.mark.parametrize("m", [1e3, 1e5])
    def test_salkowski_large_m_has_unit_curvature(self, m):
        # |r' x r''| is about |r'|^3, which is 1e-12 at m = 1e3: a gate in
        # parameter units took these points for curvature zeros.
        spec = salkowski(m)
        grid = np.linspace(0.0, curves.total_arclength(spec), 17)
        batch = frames.modified_frames(spec, grid)
        assert np.all(np.abs(batch.kappa - 1.0) <= 1e-9)
        for s in grid:
            mf = frames.modified_frame(spec, float(s))
            assert abs(mf.kappa - 1.0) <= 1e-9
            assert math.isfinite(mf.tau) and mf.tau > 0.0

    @pytest.mark.xfail(strict=True, reason=(
        "the salkowski jet cancels two cosine terms of amplitude ~a/2 in x and y, "
        "so tau loses ~m^2 relative digits (3e-6 at m = 1e3, 1e-2 at m = 1e5)"))
    @pytest.mark.parametrize("m", [1e3, 1e5])
    def test_salkowski_large_m_torsion(self, m):
        spec = salkowski(m)
        c = m / math.sqrt(1.0 + m * m)
        grid = np.linspace(0.0, curves.total_arclength(spec), 17)
        batch = frames.modified_frames(spec, grid)
        assert np.all(np.abs(batch.tau - np.tan(c * batch.t)) <= 1e-9)

    def test_torsion_general_gate_in_curvature_units(self):
        spec = salkowski(1e3)
        mf = frames.modified_frame(spec, 0.5 * curves.total_arclength(spec))
        assert frames.torsion_general(spec.jet(mf.t)) == mf.tau
