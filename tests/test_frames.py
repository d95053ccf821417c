import cProfile
import math
import pstats
import warnings

import numpy as np
import pytest

from modframe import curves, frames, indicatrix, involute, numerics, validation
from modframe.curves import (
    arclength_grid,
    circle,
    helix,
    line,
    planar_cubic,
    salkowski,
    twisted_cubic,
)
from modframe.errors import (
    CurvatureVanishes,
    DegenerateFrame,
    NonConstantCurvature,
    TargetOutOfRange,
)
from modframe.indicatrix import IndicatrixKind

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

    @pytest.mark.parametrize("spec", [HELIX, twisted_cubic()], ids=lambda s: s.family)
    def test_torsion_on_a_batched_jet_matches_the_frame(self, spec):
        grid = np.linspace(0.0, curves.total_arclength(spec), 17)
        batch = frames.modified_frames(spec, grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tau = frames.torsion_general(spec.jet(batch.t))
        assert tau.shape == grid.shape
        assert np.allclose(tau, batch.tau, rtol=1e-13, atol=0.0)
        for t, one in zip(batch.t, tau):
            assert frames.torsion_general(spec.jet(float(t))) == one

    def test_torsion_on_a_batched_jet_blanks_the_curvature_zero(self):
        # kappa = 6|t| / (1 + 9t^4)^1.5: zero at t = 0 and below ABS_TOL at
        # t = 1e-12, where the scalar call raises.
        ts = np.array([-0.5, 0.0, 1e-12, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tau = frames.torsion_general(planar_cubic().jet(ts))
        assert np.array_equal(np.isnan(tau), [False, True, True, False])
        assert np.array_equal(tau[[0, 3]], [0.0, 0.0])
        with pytest.raises(CurvatureVanishes):
            frames.torsion_general(planar_cubic().jet(1e-12))

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
        batch = frames.frenet_frame(spec, np.array([0.5, 1.0]))
        jet = spec.jet(np.array([0.5, 1.0]))
        for arr in (mf.T, mf.N, mf.B, ff.t_vec, ff.n_vec, ff.b_vec, spec.jet(0.5).r1,
                    batch.t_vec, batch.n_vec, batch.b_vec, batch.kappa, batch.tau,
                    jet.r, jet.r1, jet.r2, jet.r3, jet.r4):
            with pytest.raises(ValueError):
                arr[0] = 99.0
        assert np.array_equal(frames.modified_frame(spec, 0.5).T, T)

    def test_frame_cache_keeps_the_last_point(self):
        spec = salkowski(0.283)  # used by no other test
        a, b = 0.4, 0.7
        frames.modified_frame.cache_clear()
        frames.modified_frame(spec, a)
        frames.modified_frame(spec, a)
        info = frames.modified_frame.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        frames.modified_frame.cache_clear()
        for s in (a, b, a):
            frames.modified_frame(spec, s)
        info = frames.modified_frame.cache_info()
        assert (info.misses, info.hits, info.currsize) == (3, 0, 1)
        # the position of a point is read from the frame just computed
        assert curves.position_at_arclength(spec, b) is frames.modified_frame(spec, b).r

    def test_cached_vectors_own_their_memory(self):
        # The one-point frame stays on Python floats: float scalars, and
        # (3,) read-only vectors that own their memory (a view would keep a
        # second array alive per vector in the cache).  On each default
        # family, the line, and at the planar cubic's curvature zero.
        cubic = planar_cubic()
        points = [(cubic, curves.arclength(cubic, cubic.t_lo, 0.0))]
        for spec in [*validation.default_families().values(), line()]:
            total = curves.total_arclength(spec)
            points += [(spec, s) for s in np.linspace(0.0, total, 7).tolist()]
        for spec, s in points:
            mf = frames.modified_frame(spec, s)
            for name in ("kappa", "tau", "kappa_prime", "tau_prime", "t"):
                assert type(getattr(mf, name)) is float, (spec.family, s, name)
            for v in (mf.T, mf.N, mf.B, mf.r):
                assert v.shape == (3,) and v.dtype == np.float64, (spec.family, s)
                assert not v.flags.writeable and v.base is None, (spec.family, s)
        assert frames.modified_frame(*points[0]).kappa <= numerics.ABS_TOL

    def test_numpy_scalar_arclength_reads_as_a_float(self):
        # ``for s in np.linspace(...)`` yields np.float64: the frame there
        # is the frame at float(s) bit for bit, with Python-float scalars.
        # Uncached, so that no frame computed at a float answers the call.
        uncached = frames.modified_frame.__wrapped__
        for spec in [*validation.default_families().values(), line()]:
            for s in np.linspace(0.0, curves.total_arclength(spec), 7):
                assert type(s) is np.float64
                mf, plain = uncached(spec, s), uncached(spec, float(s))
                for name in ("kappa", "tau", "kappa_prime", "tau_prime", "t"):
                    value = getattr(mf, name)
                    assert type(value) is float, (spec.family, s, name)
                    assert value.hex() == getattr(plain, name).hex(), (spec.family, s, name)
                for name in ("T", "N", "B", "r"):
                    v, w = getattr(mf, name), getattr(plain, name)
                    assert v.tobytes() == w.tobytes(), (spec.family, s, name)
                    assert not v.flags.writeable, (spec.family, s, name)

    @pytest.mark.parametrize("spec", [line(), circle(2.0), HELIX, twisted_cubic(),
                                      planar_cubic(), salkowski(0.5)], ids=lambda s: s.family)
    def test_a_string_is_not_an_arclength(self, spec):
        # float() parses "0.5" and b"0.5": the frame and the position refuse
        # them, as at_arclength does.  A list fails at the frame cache's key,
        # and so does a bytearray, which the frame's body refuses as well.
        refusal = "arclength must be a float or a numpy array, not {}"
        for call in (frames.modified_frame, curves.position_at_arclength):
            for s in ("0.5", b"0.5"):
                with pytest.raises(TypeError, match=refusal.format(type(s).__name__)):
                    call(spec, s)
            with pytest.raises(TypeError):
                call(spec, [0.5])
        with pytest.raises(TypeError, match=refusal.format("bytearray")):
            frames.modified_frame.__wrapped__(spec, bytearray(b"0.5"))

    def test_the_oracles_refuse_a_string_arclength(self):
        # frames_at hands a one-point s that is not an array to the frame as
        # given, so the oracles refuse what modified_frame refuses
        refusal = "arclength must be a float or a numpy array, not {}"
        for call in (frames.frenet_frame, frames.metric_residual,
                     lambda sp, x: indicatrix.sample(IndicatrixKind.TANGENT, sp, x)):
            for s in ("0.5", b"0.5"):
                with pytest.raises(TypeError, match=refusal.format(type(s).__name__)):
                    call(HELIX, s)

    @pytest.mark.parametrize("spec", [HELIX, twisted_cubic()], ids=lambda s: s.family)
    def test_zero_d_array_arclength_reads_as_a_float(self, spec):
        # np.ndim(s) == 0 sends a 0-d array down the one-point path of
        # frames_at, whose frame cache hashes its arguments: each caller
        # gives at np.array(x) what it gives at x, bit for bit (a sample
        # echoes its s as given), or the same refusal.
        def fields(call, spec, x):
            try:
                value = call(spec, x)
            except NonConstantCurvature as exc:  # the binormal pairing, on the cubic
                return [str(exc)]
            if isinstance(value, indicatrix.IndicatrixSample):
                value = value._replace(s=None)
            return [np.asarray(v).tobytes() if isinstance(v, (float, np.ndarray)) else repr(v)
                    for v in (value if isinstance(value, tuple) else (value,))]

        calls = {"frenet_frame": frames.frenet_frame, "metric_residual": frames.metric_residual,
                 "sample": lambda sp, x: indicatrix.sample(IndicatrixKind.TANGENT, sp, x),
                 "involute_inner": lambda sp, x: involute.involute_inner(
                     IndicatrixKind.BINORMAL, sp, x)}
        for x in (0.25, 1.0, 0.5 * curves.total_arclength(spec)):
            for name, call in calls.items():
                assert fields(call, spec, np.array(x)) == fields(call, spec, x), (name, x)

    def test_one_point_frame_tests_its_input_once_per_layer(self):
        # One float-or-array test per uncached one-point frame, in
        # at_arclength, and one more in invert_monotone on the curves it
        # inverts by Newton: the jets, speeds, length inverses and the
        # assembly below them are bound to the point case, and test nothing.
        frame = frames.modified_frame.__wrapped__
        seen = {}
        for spec in (HELIX, twisted_cubic(), salkowski(0.5)):
            points = np.linspace(0.0, curves.total_arclength(spec), 200).tolist()
            profile = cProfile.Profile()
            profile.enable()
            for s in points:
                frame(spec, s)
            profile.disable()
            seen[spec.family] = sum(v[1] for k, v in pstats.Stats(profile).stats.items()
                                    if k[2] == "<built-in method builtins.isinstance>") / 200
        assert seen == {"helix": 1.0, "twisted_cubic": 2.0, "salkowski": 2.0}

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
        # an even count: no sample of the grid sits on the zero at t = 0
        spec = planar_cubic()
        for s in arclength_grid(spec, 8):
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
#: Curves where only |r'|**3 or |r'|**5 leaves the float range.  A Python
#: float power that overflows raises OverflowError, which must not escape
#: the one-point path in place of the refusal.
POWER_SCALES = [helix(1e120, 0.0), circle(1e70), circle(1e-65), helix(1e-70, 1e-70)]


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
        info = frames.modified_frame.cache_info()
        frames.modified_frames(spec, [0.1, 0.2])
        after = frames.modified_frame.cache_info()
        assert after.hits + after.misses == info.hits + info.misses


class TestExtremeScales:
    @pytest.mark.parametrize("spec", EXTREME_SCALES + POWER_SCALES,
                             ids=lambda s: f"{s.family}{s.params}")
    def test_both_paths_refuse(self, spec):
        total = curves.total_arclength(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateFrame, match="speed"):
                frames.modified_frame(spec, 0.5 * total)
            with pytest.raises(DegenerateFrame, match="speed"):
                frames.modified_frames(spec, np.linspace(0.0, total, 4))
            with pytest.raises(DegenerateFrame, match="speed"):
                curves.position_at_arclength(spec, 0.25 * total)

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

    # The one-point assembly enters no np.errstate: it works on Python
    # floats, where only a power can raise (v**3 or v**5, which
    # frames._assemble catches) and the scale check runs before every
    # division.  So numpy's error state,
    # even set to raise, changes nothing at one point.
    @pytest.mark.parametrize("spec", EXTREME_SCALES + POWER_SCALES,
                             ids=lambda s: f"{s.family}{s.params}")
    def test_one_point_refusal_ignores_error_state(self, spec):
        s = 0.5 * curves.total_arclength(spec)
        with np.errstate(all="raise"):
            with pytest.raises(DegenerateFrame, match="speed"):
                frames.modified_frame.__wrapped__(spec, s)

    @pytest.mark.parametrize("spec", [twisted_cubic(), salkowski(0.5), salkowski(1000.0),
                                      planar_cubic()], ids=lambda s: f"{s.family}{s.params}")
    def test_one_point_frames_ignore_error_state(self, spec):
        points = np.linspace(0.0, curves.total_arclength(spec), 33).tolist()
        if spec.kappa_zeros:  # last, the curvature zero: N = B = 0 there
            points.append(curves.arclength(spec, spec.t_lo, 0.0))
        uncached = frames.modified_frame.__wrapped__
        for s in points:
            with np.errstate(all="raise"):
                mf = uncached(spec, s)
            plain = uncached(spec, s)
            for f in ("T", "N", "B", "kappa", "tau", "kappa_prime", "tau_prime", "t", "r"):
                assert np.array_equal(getattr(mf, f), getattr(plain, f)), (f, s)
        if spec.kappa_zeros:
            assert mf.kappa <= numerics.ABS_TOL and not mf.N.any() and not mf.B.any()

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
