import math

import numpy as np
import pytest

from modframe import cli, curves, frames, numerics
from modframe.curves import (
    arclength,
    arclength_grid,
    at_arclength,
    circle,
    helix,
    line,
    planar_cubic,
    salkowski,
    total_arclength,
    twisted_cubic,
)
from modframe.errors import OutOfRange, TargetOutOfRange

ALL_FAMILIES = [
    line(),
    circle(2.0),
    helix(2.0, 1.0),
    twisted_cubic(),
    planar_cubic(),
    salkowski(0.5),
]


def test_factory_validation():
    with pytest.raises(ValueError):
        circle(-1.0)
    with pytest.raises(ValueError):
        helix(0.0, 0.0)
    with pytest.raises(ValueError):
        salkowski(1.0 / math.sqrt(3.0))
    with pytest.raises(ValueError):
        salkowski(0.0)


@pytest.mark.parametrize("factory, params, arg", [
    (helix, (math.nan, 1.0), "helix:nan,1"),
    (helix, (1.0, -math.inf), "helix:1,-inf"),
    (circle, (math.inf,), "circle:inf"),
    (salkowski, (math.nan,), "salkowski:nan"),
])
def test_non_finite_parameters_rejected(factory, params, arg):
    with pytest.raises(ValueError):
        factory(*params)
    with pytest.raises(SystemExit) as exc:
        cli.main(["frames", "--curve", arg])
    assert exc.value.code == cli.EXIT_USAGE


@pytest.mark.parametrize("spec", ALL_FAMILIES + [helix(-1.0, 0.5), circle(0.5)],
                         ids=lambda s: f"{s.family}{s.params}")
def test_table_properties_match_jets(spec):
    ts = np.linspace(spec.t_lo, spec.t_hi, 9)
    kappas = [frames.curvature(spec.jet(float(t))) for t in ts]
    if spec.constant_kappa is None:
        assert np.ptp(kappas) > 1e-3
    else:
        assert np.allclose(kappas, spec.constant_kappa, rtol=1e-12, atol=1e-12)
    for t in spec.kappa_zeros:
        assert frames.curvature(spec.jet(t)) <= 1e-12
    speeds = [spec.speed(float(t)) for t in ts]
    assert (np.ptp(speeds) <= 1e-12) == curves.FAMILIES[spec.family].constant_speed


class TestEvalJet:
    def test_twisted_cubic_at_zero(self):
        jet = twisted_cubic().jet(0.0)
        assert np.allclose(jet.r1, [1, 0, 0])
        assert np.allclose(jet.r2, [0, 2, 0])
        assert np.allclose(jet.r3, [0, 0, 6])

    def test_helix_at_zero(self):
        jet = helix(2, 1).jet(0.0)
        assert np.allclose(jet.r, [2, 0, 0])
        assert np.allclose(jet.r1, [0, 2, 1])

    def test_planar_cubic_curvature_zero(self):
        jet = planar_cubic().jet(0.0)
        assert np.allclose(jet.r2, [0, 0, 0])

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            circle(1.0).jet(100.0)

    @pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.family)
    def test_jets_match_finite_differences(self, spec):
        # exact derivatives vs the numerical oracle, at interior points
        ts = np.linspace(spec.t_lo, spec.t_hi, 7)[1:-1]
        for t in ts:
            jet = spec.jet(float(t))
            for order, exact in ((1, jet.r1), (2, jet.r2), (3, jet.r3)):
                fd = numerics.diff_vec(
                    lambda x: spec.jet(x).r, float(t), order=order)
                assert np.allclose(fd, exact, atol=1e-7), (spec.family, order)

    @pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.family)
    def test_fourth_derivative_matches(self, spec):
        ts = np.linspace(spec.t_lo, spec.t_hi, 5)[1:-1]
        for t in ts:
            jet = spec.jet(float(t))
            fd = numerics.diff_vec(
                lambda x: spec.jet(x).r1, float(t), order=3)
            assert np.allclose(fd, jet.r4, atol=1e-6)

    @pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.family)
    def test_speed_matches_jet(self, spec):
        for t in np.linspace(spec.t_lo, spec.t_hi, 9):
            jet = spec.jet(float(t))
            assert spec.speed(float(t)) == pytest.approx(
                numerics.norm(jet.r1), rel=1e-12)

    @pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.family)
    def test_array_jet_matches_point_jets(self, spec):
        ts = np.linspace(spec.t_lo, spec.t_hi, 11)
        batch = spec.jet(ts)
        for i, t in enumerate(ts):
            one = spec.jet(float(t))
            for name in ("r", "r1", "r2", "r3", "r4"):
                assert getattr(batch, name).shape == (len(ts), 3)
                assert np.allclose(getattr(batch, name)[i], getattr(one, name),
                                   rtol=1e-15, atol=1e-15), (name, t)

    def test_array_out_of_range(self):
        with pytest.raises(OutOfRange):
            circle(1.0).jet(np.array([0.5, 100.0]))

    @pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.family)
    def test_regular_on_range(self, spec):
        for t in np.linspace(spec.t_lo, spec.t_hi, 33):
            assert numerics.norm(spec.jet(float(t)).r1) > 1e-6


class TestArclength:
    def test_line_unit(self):
        assert arclength(line(), 0.0, 1.0) == pytest.approx(1.0)

    def test_circle(self):
        assert arclength(circle(2.0), 0.0, math.pi) == pytest.approx(2 * math.pi)

    def test_helix(self):
        assert arclength(helix(2, 1), 0.0, 2 * math.pi) == pytest.approx(
            2 * math.pi * math.sqrt(5), rel=1e-12)

    @pytest.mark.parametrize("m", [0.5, -0.3, 2.0])
    def test_salkowski_closed_form(self, m):
        spec = salkowski(m)
        c = m / math.sqrt(1.0 + m * m)
        a = 1.0 / math.sqrt(1.0 + m * m)
        for t0, t1 in ((spec.t_lo, spec.t_hi), (spec.t_lo + 0.1, spec.t_hi - 0.3)):
            exact = a / c * (math.sin(c * t1) - math.sin(c * t0))
            assert arclength(spec, t0, t1) == pytest.approx(exact, rel=1e-14, abs=1e-14)

    def test_twisted_cubic_against_finer_rule(self):
        # Composite 24-node Gauss-Legendre on 1024 panels per interval, far
        # finer than the library's table.
        nodes, weights = np.polynomial.legendre.leggauss(24)

        def reference(t0, t1):
            edges = np.linspace(t0, t1, 1025)
            mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
            u = mid[:, None] + half[:, None] * nodes
            return float(np.sum(half[:, None] * weights
                                * np.sqrt(1.0 + 4.0 * u**2 + 9.0 * u**4)))

        spec = twisted_cubic()
        for t0, t1 in ((-1.0, 1.0), (-0.731, 0.2), (0.003, 0.9999)):
            assert arclength(spec, t0, t1) == pytest.approx(reference(t0, t1), rel=1e-14)

    @pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.family)
    def test_additive_over_subintervals(self, spec):
        t0, t1 = spec.t_lo, spec.t_hi
        tm = 0.5 * (t0 + t1)
        assert arclength(spec, t0, tm) + arclength(spec, tm, t1) == pytest.approx(
            arclength(spec, t0, t1), abs=1e-10)


class TestAtArclength:
    def test_line(self):
        assert at_arclength(line(), 0.25) == pytest.approx(0.25)

    def test_circle_speed_two(self):
        assert at_arclength(circle(2.0), math.pi) == pytest.approx(math.pi / 2)

    def test_helix(self):
        assert at_arclength(helix(2, 1), math.sqrt(5)) == pytest.approx(1.0)

    def test_out_of_range(self):
        with pytest.raises(TargetOutOfRange):
            at_arclength(line(), 5.0)

    def test_one_inversion_per_point(self, monkeypatch):
        # The frame, the position and the metric check at one s share a
        # single inversion, whether s comes as a float or a numpy float.
        targets = []
        invert = numerics.invert_monotone

        def counted(g, dg, target, *args):
            targets.append(target)
            return invert(g, dg, target, *args)

        monkeypatch.setattr(numerics, "invert_monotone", counted)
        spec = salkowski(0.4321)  # used by no other test, so nothing is cached
        s = 0.5 * total_arclength(spec)
        mf = frames.modified_frame(spec, s)
        assert frames.modified_frame(spec, np.float64(s)) is mf
        assert curves.position_at_arclength(spec, s) is mf.r
        frames.metric_residual(spec, s)
        assert targets == [s]
        assert mf.t == at_arclength(spec, s)
        assert np.array_equal(mf.r, spec.jet(mf.t).r)

    @pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.family)
    def test_array_matches_scalar(self, spec):
        grid = np.linspace(0.0, total_arclength(spec), 33)
        ts = at_arclength(spec, grid)
        assert ts.shape == grid.shape
        for s, t in zip(grid, ts):
            assert abs(t - at_arclength(spec, float(s))) <= 1e-14 * max(1.0, abs(t))

    def test_array_out_of_range(self):
        with pytest.raises(TargetOutOfRange):
            at_arclength(twisted_cubic(), np.array([0.1, -0.5, 0.2]))

    def test_empty_interval_needs_no_rule(self, monkeypatch):
        calls = []
        speed = curves.CurveSpec.speed
        monkeypatch.setattr(curves.CurveSpec, "speed",
                            lambda self, t: calls.append(t) or speed(self, t))
        assert curves._gauss(twisted_cubic(), 0.3, 0.3) == 0.0
        assert calls == []

    @pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.family)
    def test_round_trip(self, spec):
        total = total_arclength(spec)
        for s in np.linspace(0.0, total, 9):
            t = at_arclength(spec, float(s))
            assert arclength(spec, spec.t_lo, t) == pytest.approx(float(s), abs=1e-9)

    @pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.family)
    def test_unit_speed_contract(self, spec):
        rng = np.random.default_rng(7)
        total = total_arclength(spec)
        samples = rng.uniform(0.05 * total, 0.95 * total, size=100)
        for s in samples:
            fd = numerics.diff_vec(
                lambda x: curves.position_at_arclength(spec, x), float(s))
            assert numerics.norm(fd) == pytest.approx(1.0, rel=1e-6)


def test_frenet_grid_excludes_curvature_zero():
    spec = planar_cubic()
    grid = curves.frenet_arclength_grid(spec, 64)
    assert all(abs(at_arclength(spec, float(s))) > 1e-3 for s in grid)
    # the plain grid keeps everything
    assert len(arclength_grid(spec, 64)) == 64


def test_salkowski_torsion_positive_and_varying():
    spec = salkowski(0.5)
    from modframe import frames
    taus = [frames.modified_frame(spec, float(s)).tau
            for s in arclength_grid(spec, 16)]
    assert min(taus) > 0
    assert max(taus) - min(taus) > 0.1
