import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modframe import cli, curves, frames, numerics, validation
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
from modframe.errors import NotMonotone, OutOfRange, TargetOutOfRange, UnresolvedArclength
from modframe.numerics import ABS_TOL

ALL_FAMILIES = [
    line(),
    circle(2.0),
    helix(2.0, 1.0),
    twisted_cubic(),
    planar_cubic(),
    salkowski(0.5),
]
VARYING_SPEED = [twisted_cubic(), planar_cubic(), salkowski(0.5)]


def test_factory_validation():
    with pytest.raises(ValueError):
        circle(-1.0)
    with pytest.raises(ValueError):
        helix(0.0, 0.0)
    with pytest.raises(ValueError):
        salkowski(1.0 / math.sqrt(3.0))
    with pytest.raises(ValueError):
        salkowski(0.0)
    # 1 + m*m overflows beyond |m| ~ 1.34e154, so c and a cannot be represented
    for m in (1e155, -1e155, 1e300):
        with pytest.raises(ValueError, match="too large"):
            salkowski(m)
    assert salkowski(1e150).t_hi > salkowski(1e150).t_lo
    # below |m| ~ 8.7e-309 the parameter range pi/(2c) overflows
    for m in (1e-320, -5e-324, 8.7e-309):
        with pytest.raises(ValueError, match="too small: its range pi/\\(2c\\) overflows"):
            salkowski(m)
    assert math.isfinite(salkowski(8.8e-309).t_hi)


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
    # constant speed holds exactly where the family's length record is the
    # constant-speed one, which inverts s = v (t - t_lo) with no solve
    speeds = [spec.speed(float(t)) for t in ts]
    uniform = curves.FAMILIES[spec.family].length is curves._uniform_length
    assert (np.ptp(speeds) == 0.0) == uniform


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
        ts = np.linspace(spec.t_lo, spec.t_hi, 9)
        for t in ts:
            jet = spec.jet(float(t))
            assert spec.speed(float(t)) == pytest.approx(
                numerics.norm(jet.r1), rel=1e-12)
        # one speed per parameter of an array, constant speeds too, each
        # equal bit for bit to the float call
        speeds = spec.speed(ts)
        assert speeds.shape == (9,)
        assert speeds.tobytes() == np.array([spec.speed(t) for t in ts.tolist()]).tobytes()

    @pytest.mark.parametrize("spec, closed", [
        (twisted_cubic(), lambda t: np.sqrt(1.0 + 4.0 * t**2 + 9.0 * t**4)),
        (planar_cubic(), lambda t: np.sqrt(1.0 + 9.0 * t**4)),
    ], ids=lambda x: getattr(x, "family", ""))
    def test_polynomial_speed_matches_closed_form(self, spec, closed):
        # The Horner sum in t^2 against the textbook polynomial, to 2 ulp.
        ts = np.linspace(-1.5, 1.5, 3001)
        assert np.all(np.abs(spec.speed(ts) - closed(ts)) <= 2.0 * np.spacing(closed(ts)))
        for t in ts[::25].tolist():
            assert abs(spec.speed(t) - closed(t)) <= 2.0 * np.spacing(closed(t))

    @pytest.mark.parametrize("spec, powers", [
        (line(), (1, None, None)),
        (twisted_cubic(), (1, 2, 3)),
        (planar_cubic(), (1, 3, None)),
    ], ids=["line", "twisted_cubic", "planar_cubic"])
    def test_monomial_jets_equal_the_textbook_form(self, spec, powers):
        # d^k/dt^k t**n = perm(n, k) * t**(n - k), and 0.0 where k > n or
        # the component is zero, bit for bit (signed zeros included), at
        # floats and over an array that holds t = 0.
        def textbook(t):
            return [[0.0 if n is None or k > n else math.perm(n, k) * t ** (n - k)
                     for n in powers] for k in range(5)]

        ts = np.linspace(spec.t_lo, spec.t_hi, 1001)
        assert 0.0 in ts
        curve = curves._curve(spec)
        batch = curve.jets(ts)
        for k, row in enumerate(textbook(ts)):
            expected = np.column_stack([np.broadcast_to(c, ts.shape) for c in row])
            assert batch[k].tobytes() == expected.tobytes(), k
        for t in ts.tolist():
            one = curve.jet(t)
            assert [[x.hex() for x in v] for v in one] == \
                [[x.hex() for x in row] for row in textbook(t)], t

    @pytest.mark.parametrize("spec", [*ALL_FAMILIES, salkowski(-0.7), salkowski(3.0)],
                             ids=[s.family for s in ALL_FAMILIES] + ["salkowski-0.7", "salkowski3"])
    def test_array_jet_matches_point_jets(self, spec):
        # Each jet and speed is one body bound to math for a point and to
        # numpy for a batch; the curve's two bindings agree bit for bit at
        # 1,001 seeded parameters and both ends.  The cubics' jets only to
        # 1e-15: numpy's array power can differ from Python's t**3 and t**2
        # in the last bit (their speeds are a Horner sum in t*t, and agree).
        curve = curves._curve(spec)
        rng = np.random.default_rng(36)
        ts = np.concatenate(([spec.t_lo, spec.t_hi], rng.uniform(spec.t_lo, spec.t_hi, 1001)))
        batch, speeds = curve.jets(ts), curve.speeds(ts)
        exact = spec.family not in ("twisted_cubic", "planar_cubic")
        for i, t in enumerate(ts.tolist()):
            one = curve.jet(t)
            for k, v in enumerate(one):
                assert batch[k].shape == (len(ts), 3)
                if exact:
                    assert batch[k][i].tobytes() == np.array(v).tobytes(), (k, t)
                else:
                    assert np.allclose(batch[k][i], v, rtol=1e-15, atol=1e-15), (k, t)
            assert speeds[i].tobytes() == np.float64(curve.speed(t)).tobytes()
        # CurveSpec.jet and speed pick the binding by their input
        assert [v.tolist() for v in spec.jet(t)] == [list(v) for v in one]
        assert spec.jet(ts)[0].tobytes() == batch[0].tobytes()
        assert spec.speed(ts).tobytes() == speeds.tobytes()

    @pytest.mark.parametrize("m", [-0.7, 1e-4, 0.1, 0.5, 3.0, 100.0])
    def test_salkowski_jet_matches_cosine_sum(self, m):
        # The jet from cos and sin of four angles against the textbook form:
        # per component a sum of A w^k cos(w t + phase + k pi/2), 35 terms
        # over the five orders.  Each order must agree to 1e-14 of its
        # largest component over the grid, at floats and over an array.
        # At small m the range grows like 1/m, and each angle w t is only
        # known to the rounding of a large product in both forms: the bound
        # admits two ulp of each angle's largest value, weighted by its
        # amplitude.  Of the m here only 1e-4 reaches that term; at every
        # other m the first is the larger at every order.
        c = m / math.sqrt(1.0 + m * m)
        a = 1.0 / math.sqrt(1.0 + m * m)
        w1, w2 = 1.0 + 2.0 * c, 1.0 - 2.0 * c
        x = [(-a / 2.0, 1.0, 0.0),
             (-a * (1.0 - c) / (4.0 * w1), w1, 0.0),
             (-a * (1.0 + c) / (4.0 * w2), w2, 0.0)]
        y = [(A, w, -math.pi / 2.0) for A, w, _ in x]
        z = [(-a * a / (4.0 * c), 2.0 * c, 0.0)]

        def reference(t):
            return np.array([[sum(A * w**k * math.cos(w * t + ph + k * math.pi / 2.0)
                                  for A, w, ph in comp) for comp in (x, y, z)]
                             for k in range(5)])

        spec = salkowski(m)
        ts = np.linspace(spec.t_lo, spec.t_hi, 41)
        expected = np.array([reference(t) for t in ts.tolist()])  # (point, order, xyz)
        t_max = max(abs(spec.t_lo), abs(spec.t_hi))
        rounding = [max(sum(abs(A * w**k) * 2.0 * np.spacing(abs(w) * t_max) for A, w, _ in comp)
                        for comp in (x, z)) for k in range(5)]
        bound = np.maximum(1e-14 * np.abs(expected).max(axis=(0, 2)), rounding)[:, None]
        batch = spec.jet(ts)
        orders = ("r", "r1", "r2", "r3", "r4")
        for i, t in enumerate(ts.tolist()):
            one = spec.jet(t)
            for k, name in enumerate(orders):
                assert np.all(np.abs(getattr(one, name) - expected[i, k]) <= bound[k]), (name, t)
                assert np.all(np.abs(getattr(batch, name)[i] - expected[i, k]) <= bound[k]), (name, t)

    def test_array_out_of_range(self):
        with pytest.raises(OutOfRange):
            circle(1.0).jet(np.array([0.5, 100.0]))

    @pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.family)
    def test_regular_on_range(self, spec):
        for t in np.linspace(spec.t_lo, spec.t_hi, 33):
            assert numerics.norm(spec.jet(float(t)).r1) > 1e-6


# The cubics' speeds, written out as functions of u**2.
CUBIC_SPEEDS = {"twisted_cubic": lambda u2: np.sqrt(1.0 + 4.0 * u2 + 9.0 * u2 * u2),
                "planar_cubic": lambda u2: np.sqrt(1.0 + 9.0 * u2 * u2)}


def finer_rule(spec, t0, t1):
    """Length of a cubic over [t0, t1] by composite 24-node Gauss-Legendre
    on 1024 panels of the interval, far finer than the library's table."""
    nodes, weights = np.polynomial.legendre.leggauss(24)
    edges = np.linspace(t0, t1, 1025)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    u = mid[:, None] + half[:, None] * nodes
    return float(np.sum(half[:, None] * weights * CUBIC_SPEEDS[spec.family](u * u)))


class TestArclength:
    # The Gauss-Legendre rule against the closed form v (t1 - t0).
    def test_line_unit(self):
        assert arclength(line(), 0.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_circle(self):
        assert arclength(circle(2.0), 0.0, math.pi) == pytest.approx(2 * math.pi, rel=1e-14)

    def test_helix(self):
        assert arclength(helix(2, 1), 0.0, 2 * math.pi) == pytest.approx(
            2 * math.pi * math.sqrt(5), rel=1e-14)

    @pytest.mark.parametrize("m", [0.5, -0.3, 2.0])
    def test_salkowski_closed_form(self, m):
        spec = salkowski(m)
        c = m / math.sqrt(1.0 + m * m)
        a = 1.0 / math.sqrt(1.0 + m * m)
        for t0, t1 in ((spec.t_lo, spec.t_hi), (spec.t_lo + 0.1, spec.t_hi - 0.3)):
            exact = a / c * (math.sin(c * t1) - math.sin(c * t0))
            assert arclength(spec, t0, t1) == pytest.approx(exact, rel=1e-14, abs=1e-14)

    def test_tiny_circle_matches_its_length(self):
        # Panel lengths of about 2.5e-302 are normal floats: the rule keeps
        # its relative accuracy (a miss of 3.0e-15).
        spec = circle(1e-300)
        assert arclength(spec, 0.0, 2 * math.pi) == pytest.approx(
            curves.total_arclength(spec), rel=1e-14)

    @pytest.mark.parametrize("radius", [1e-308, 1e-310, 1e-320])
    def test_subnormal_panel_lengths_are_refused(self, radius):
        # Below sys.float_info.min a length rounds with no relative bound:
        # the rule missed 2 pi r by 1.7e-13 at r = 1e-310 and 6.5e-3 at
        # 1e-320, which the fit check, rounding alike, did not see.
        with pytest.raises(UnresolvedArclength, match="subnormal"):
            arclength(circle(radius), 0.0, 2 * math.pi)

    @pytest.mark.parametrize("spec", [circle(1e308), helix(1e308, 1.0)], ids=["circle", "helix"])
    def test_overflowing_length_is_refused(self, spec):
        # 1e308 x 2 pi overflows: the length record refuses the curve
        # rather than inverting arclengths in [0, inf], and with it the
        # curve's one bound record, its jet and speed too (at a speed the
        # frame algebra refuses anyway)
        for call in (lambda: total_arclength(spec), lambda: at_arclength(spec, 1.0),
                     lambda: spec.jet(0.5), lambda: spec.speed(0.5)):
            with pytest.raises(UnresolvedArclength, match="overflows"):
                call()

    def test_parameter_before_the_range(self):
        spec = twisted_cubic()
        with pytest.raises(OutOfRange):
            arclength(spec, spec.t_lo - 1.0, spec.t_hi)

    def test_range_message_is_the_jets(self):
        # one check of the parameter range, one wording, for the jet and arclength
        spec = twisted_cubic()
        for call in (lambda: spec.jet(2.0), lambda: arclength(spec, 0.0, 2.0),
                     lambda: arclength(spec, 2.0, 2.0)):
            with pytest.raises(OutOfRange, match=r"^t = 2 outside \[-1, 1\] for twisted_cubic$"):
                call()

    def test_reversed_interval_refused(self):
        # t1 below t0 used to return a negative length (-0.389 here)
        spec = twisted_cubic()
        with pytest.raises(OutOfRange, match=r"t1 = 0.2 below t0 = 0.5"):
            arclength(spec, 0.5, 0.2)
        assert arclength(spec, 0.5, 0.5) == 0.0

    @pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.family)
    def test_arclength_range_is_at_arclengths(self, spec):
        # the range at_arclength takes is [-ABS_TOL, L + ABS_TOL], both ends included
        lo, hi = curves.arclength_range(spec)
        assert (lo, hi) == (-ABS_TOL, total_arclength(spec) + ABS_TOL)
        at_arclength(spec, np.array([lo, hi]))
        for s in (np.nextafter(lo, -1.0), np.nextafter(hi, np.inf)):
            with pytest.raises(TargetOutOfRange):
                at_arclength(spec, s)

    def test_gauss_table_is_leggauss(self):
        # the written-out rule is numpy's, bit for bit
        nodes, weights = np.polynomial.legendre.leggauss(16)
        assert curves._GL_NODES.tobytes() == nodes.tobytes()
        assert curves._GL_WEIGHTS.tobytes() == weights.tobytes()

    def test_twisted_cubic_against_finer_rule(self):
        spec = twisted_cubic()
        for t0, t1 in ((-1.0, 1.0), (-0.731, 0.2), (0.003, 0.9999)):
            assert arclength(spec, t0, t1) == pytest.approx(
                finer_rule(spec, t0, t1), rel=1e-14)

    @pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.family)
    def test_additive_over_subintervals(self, spec):
        t0, t1 = spec.t_lo, spec.t_hi
        tm = 0.5 * (t0 + t1)
        assert arclength(spec, t0, tm) + arclength(spec, tm, t1) == pytest.approx(
            arclength(spec, t0, t1), abs=1e-10)
        assert arclength(spec, tm, tm) == 0.0  # an empty interval


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
            assert t == at_arclength(spec, float(s))

    @pytest.mark.parametrize("spec", VARYING_SPEED, ids=lambda s: f"{s.family}{s.params}")
    def test_array_equals_scalar_bit_for_bit_at_any_batch_size(self, spec):
        # Every step of the solve is elementwise, so neither the scalar
        # call nor the size of a batch changes the last bit of any t.
        rng = np.random.default_rng(1993)
        s = rng.uniform(0.0, total_arclength(spec), 2000)
        ts = at_arclength(spec, s)
        alone = np.array([at_arclength(spec, x) for x in s.tolist()])
        assert alone.tobytes() == ts.tobytes()
        cuts = np.cumsum(rng.integers(2, 12, size=s.size // 2))
        batches = np.split(s, cuts[cuts < s.size])
        assert {b.size for b in batches[:-1]} <= set(range(2, 12))
        assert np.concatenate([at_arclength(spec, b) for b in batches]).tobytes() == ts.tobytes()

    @pytest.mark.parametrize("spec, solves", [
        (line(), False), (circle(0.5), False), (helix(2.0, 1.0), False),
        (twisted_cubic(), True), (planar_cubic(), True), (salkowski(0.5), True),
    ], ids=["line", "circle", "helix", "twisted_cubic", "planar_cubic", "salkowski"])
    def test_exact_inverse_needs_no_solve(self, spec, solves, monkeypatch):
        # Line, circle and helix invert s = v (t - t_lo) exactly, at a float
        # and over an array; the cubics and salkowski solve with Newton.
        calls = []
        invert = numerics.invert_monotone

        def counted(*args):
            calls.append(0)
            return invert(*args)

        monkeypatch.setattr(numerics, "invert_monotone", counted)
        total = total_arclength(spec)
        at_arclength(spec, 0.37 * total)
        at_float = len(calls)
        at_arclength(spec, np.linspace(0.0, total, 1000))
        assert (at_float >= 1, len(calls) > at_float) == (solves, solves)

    def test_array_out_of_range(self):
        with pytest.raises(TargetOutOfRange):
            at_arclength(twisted_cubic(), np.array([0.1, -0.5, 0.2]))

    @pytest.mark.parametrize("spec", validation.default_families().values(),
                             ids=validation.default_families())
    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf, None],
                             ids=["nan", "inf", "-inf", "L+2tol"])
    def test_float_out_of_range_named(self, spec, s):
        # A float's range check is one chained comparison, which NaN and
        # the infinities fail as well; every one-point entry refuses the
        # value and names it.
        total = total_arclength(spec)
        s = total + 2.0 * ABS_TOL if s is None else s
        message = re.escape(f"arclength {s:g} outside [0, {total:g}]")
        for call in (at_arclength, frames.modified_frame, curves.position_at_arclength):
            with pytest.raises(TargetOutOfRange, match=f"^{message}$"):
                call(spec, s)

    @pytest.mark.parametrize("spec, most, share", [(twisted_cubic(), 3, 1 / 2),
                                                   (salkowski(0.5), 2, 1 / 3)],
                             ids=["twisted_cubic", "salkowski"])
    def test_inversion_work_per_point(self, spec, most, share, monkeypatch):
        # The table gives the bracket's image and a Hermite first guess, so
        # Newton needs two rules and the final check one: at most three
        # evaluations of g per point, at the table edges, at both ends and
        # inside the panels.  The final check reuses the last Newton
        # residual when the root is that iterate, so most interior points
        # take two.  Salkowski's exact map guesses the root to rounding, so
        # Newton stops after one rule: at most two evaluations, and one
        # wherever the root is that rule's iterate (about half the points).
        evals = []
        invert = numerics.invert_monotone

        def counted(g, *args):
            evals.append(0)

            def g_counted(t):
                evals[-1] += 1
                return g(t)
            return invert(g_counted, *args)

        monkeypatch.setattr(numerics, "invert_monotone", counted)
        cum = curves._arclength_table(spec)[1]
        total = total_arclength(spec)
        rng = np.random.default_rng(8)
        interior = rng.uniform(0.0, total, 500).tolist()
        targets = [*cum.tolist(), 0.0, total, *interior]
        for s in targets:
            t = at_arclength(spec, s)
            assert abs(arclength(spec, spec.t_lo, t) - s) <= 1e-12 * max(1.0, s)
        assert len(evals) == len(targets)
        assert max(evals) <= most
        assert evals[-len(interior):].count(most - 1) >= share * len(interior)

    def test_hermite_guess_falls_back_to_linear(self, monkeypatch):
        # A node speed that is 0, infinite or NaN makes the first guess on
        # both panels at that node the linear one, with no warning; the
        # solve still lands on the root.
        spec = curves.CurveSpec("twisted_cubic", (), -1.0, 0.875)  # a range no other test uses
        nodes = {10: 0.0, 20: math.inf, 30: math.nan}
        family = curves.FAMILIES["twisted_cubic"]

        def broken(xp, params):  # the family's speed binder, broken at the table's nodes
            speed = family.speed(xp, params)

            def at(t):
                v = speed(t)
                if np.shape(t) == (curves._PANELS + 1,):
                    v = v.copy()
                    for k, x in nodes.items():
                        v[k] = x
                return v
            return at

        guesses = []
        invert = numerics.invert_monotone

        def recorded(g, dg, target, lo, hi, t0, *args):
            guesses.append(t0)
            return invert(g, dg, target, lo, hi, t0, *args)

        monkeypatch.setitem(curves.FAMILIES, "twisted_cubic", family._replace(speed=broken))
        monkeypatch.setattr(numerics, "invert_monotone", recorded)
        try:
            ts, cum, *_ = curves._arclength_table(spec)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for i in (9, 10, 19, 20, 29, 30, 40):
                    s = cum[i] + 0.3 * (cum[i + 1] - cum[i])
                    t = at_arclength(spec, float(s))
                    linear = ts[i] + (s - cum[i]) / (cum[i + 1] - cum[i]) * (ts[i + 1] - ts[i])
                    assert (guesses[-1] == linear) == (i != 40), i
                    assert abs(arclength(spec, spec.t_lo, t) - s) <= 1e-12 * max(1.0, s)
        finally:
            curves._arclength_table.cache_clear()
            curves._curve.cache_clear()

    def test_table_cache_is_bounded(self):
        # each curve of varying speed has a table of about 40 KB; the cache
        # keeps a fixed number of them, and rebuilds an evicted one the same
        # bit for bit
        table = curves._arclength_table
        bound = table.cache_info().maxsize
        assert bound is not None
        first = salkowski(0.2718)
        kept = table(first)
        for k in range(bound + 1):
            table(salkowski(0.3 + 1e-3 * k))
        assert table.cache_info().currsize <= bound
        rebuilt = table(first)
        assert rebuilt is not kept
        for old, new in zip(kept, rebuilt):
            assert np.array_equal(np.asarray(old), np.asarray(new))

    def test_length_record_caches_are_bounded(self):
        # each curve's length record is built once, into its one bound
        # record, and the records are kept as the tables are: a fixed number
        # of them
        assert curves._curve.cache_info().maxsize == 64
        for k in range(100):
            total_arclength(helix(1.0 + 1e-3 * k, 0.5))
        assert curves._curve.cache_info().currsize <= 64

    def test_salkowski_caches_are_bounded(self):
        # a process that makes new salkowski and helix curves keeps a fixed
        # number of their bound records, and no other per-curve cache
        for k in range(3000):
            for spec in (salkowski(0.3 + 1e-4 * k), helix(1.0 + 1e-4 * k, 0.5)):
                at_arclength(spec, 0.5 * total_arclength(spec))
        assert curves._curve.cache_info().currsize <= 64
        assert not hasattr(curves._salkowski_terms, "cache_info")

    def test_one_record_per_curve(self):
        # 1,000 one-point frames and one batch on one curve build its
        # record once: one miss of the record's cache, and hits after it
        spec = salkowski(0.2917)  # used by no other test, so nothing is cached
        before = curves._curve.cache_info()
        grid = arclength_grid(spec, 1000)
        for s in grid.tolist():
            frames.modified_frame(spec, s)
            curves.position_at_arclength(spec, s)
        frames.modified_frames(spec, grid)
        after = curves._curve.cache_info()
        assert after.misses - before.misses == 1
        assert after.hits - before.hits >= 2000

    def test_cached_table_is_read_only(self):
        # every caller shares the table, so no caller may change it
        spec = twisted_cubic()
        before = at_arclength(spec, 0.01)
        ts, cum, panels = curves._arclength_table(spec)
        with pytest.raises(ValueError):
            ts[1] = 1e-3
        with pytest.raises(ValueError):
            panels[0, 2] = 1e-3
        with pytest.raises(TypeError):
            cum[1] = 1e-3
        assert at_arclength(spec, 0.01) == before

    def test_unresolved_length_polynomial_is_refused(self, monkeypatch):
        # One coefficient of the fit matrix off by 1e-9 moves every panel's
        # polynomial at its end by about 1e-9 of its length, far above the
        # build check's bound, so the table is refused, not inverted.
        nodes, fit = curves._length_fit()
        bad = fit.copy()
        bad[0, 0] += 1e-9
        monkeypatch.setattr(curves, "_length_fit", lambda: (nodes, bad))
        with pytest.raises(UnresolvedArclength, match="misses its Gauss length"):
            curves._arclength_table.__wrapped__(salkowski(0.5))
        monkeypatch.setattr(curves, "_length_fit", lambda: (nodes, fit))
        assert curves._arclength_table.__wrapped__(salkowski(0.5))[2].shape == (256, 17)

    def test_batch_from_the_start_of_a_long_curve(self):
        # The panels of salkowski(1e-12) are 3e9 long.  The length
        # (t - t0) m(u) is exactly c0 at a panel's start, so a batch that
        # holds s = 0 passes the final check there, as the scalar call
        # returns t_lo without one.
        spec = salkowski(1e-12)
        s = [0.0, 0.5 * total_arclength(spec), total_arclength(spec)]
        ts = at_arclength(spec, np.array(s))
        assert ts.tolist() == [at_arclength(spec, x) for x in s]
        assert (ts[0], ts[-1]) == (spec.t_lo, spec.t_hi)

    @pytest.mark.parametrize("spec", [twisted_cubic(), planar_cubic()], ids=lambda s: s.family)
    def test_cubic_inversion_against_finer_rule(self, spec):
        # On the cubics at_arclength and arclength read the same cumulative
        # Gauss sums, so a round trip cannot see a wrong sum.  Here the
        # length up to each t that at_arclength returns, one point and a
        # batch alike, comes from the independent finer rule instead, at
        # 100 seeded arclengths and both ends.  It misses s by at most
        # 6.9e-16 (twisted) and 3.3e-16 (planar) relative.  The bound,
        # 1e-13 relative above s = 1 and absolute below it, where s -> 0
        # leaves no relative scale, sits 100x above that and 10x below the
        # 1e-12 relative miss that the inversion's own final check allows.
        total = total_arclength(spec)
        s = [0.0, total, *np.random.default_rng(14).uniform(0.0, total, 100).tolist()]
        ts = at_arclength(spec, np.array(s))
        assert ts.tolist() == [at_arclength(spec, x) for x in s]
        for t, x in zip(ts.tolist(), s):
            assert abs(finer_rule(spec, spec.t_lo, t) - x) <= 1e-13 * max(x, 1.0), x

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


class TestExactLengthMap:
    """Salkowski's speed a cos(c t) has the closed-form length map
    (a/c)(sin(c t) - sin(c t_lo)), which at_arclength inverts with no
    table."""

    @given(st.floats(0.01, 100.0) | st.floats(-100.0, -0.01), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None, database=None)
    def test_batch_equals_one_point_bit_for_bit(self, m, u):
        assume(abs(abs(m) - 1.0 / math.sqrt(3.0)) > 1e-6)
        spec = salkowski(m)
        total = total_arclength(spec)
        s = np.array([u * total, (1.0 - u) * total, 0.5 * u * total, total, 0.0])
        assert at_arclength(spec, s).tobytes() == np.array(
            [at_arclength(spec, x) for x in s.tolist()]).tobytes()

    @pytest.mark.parametrize("m", [0.5, -0.7, 3.0, 1e-4, 1e3])
    def test_matches_a_40_digit_inverse(self, m):
        mpmath = pytest.importorskip("mpmath")
        spec = salkowski(m)
        with mpmath.workdps(40):
            mm = mpmath.mpf(m)
            c, a = mm / mpmath.sqrt(1 + mm * mm), 1 / mpmath.sqrt(1 + mm * mm)
            start = mpmath.sin(c * mpmath.mpf(spec.t_lo))
            rng = np.random.default_rng(40)
            for s in rng.uniform(0.0, total_arclength(spec), 300).tolist():
                exact = mpmath.asin(start + c * mpmath.mpf(s) / a) / c
                assert abs(at_arclength(spec, s) - exact) <= 1e-15 * abs(exact)

    @pytest.mark.parametrize("m", [0.5, -0.7, 3.0, 1e-4, 1e3, -1e5])
    def test_total_matches_the_gauss_rule(self, m):
        spec = salkowski(m)
        gauss = arclength(spec, spec.t_lo, spec.t_hi)
        assert abs(total_arclength(spec) - gauss) <= 8 * np.finfo(float).eps * gauss

    def test_frames_build_no_table(self, monkeypatch):
        def refused(spec):
            raise AssertionError(f"table built for {spec}")

        monkeypatch.setattr(curves, "_arclength_table", refused)
        spec = salkowski(0.5)
        grid = arclength_grid(spec, 9)
        batch = frames.modified_frames(spec, grid)
        for k, s in enumerate(grid.tolist()):
            assert frames.modified_frame(spec, s).t == batch.t[k]

    @pytest.mark.xfail(strict=True, raises=NotMonotone, reason=(
        "one ulp of t ~ 1.6e11 spans about 3.5e-5 of arclength on salkowski(1e-12), "
        "so no float t meets the final check at s = 1e-3"))
    def test_small_m_start_of_the_curve(self):
        spec = salkowski(1e-12)
        t = at_arclength(spec, 1e-3)
        assert abs(arclength(spec, spec.t_lo, t) - 1e-3) <= 1e-9


class TestLengthPolynomial:
    def test_fit_integrates_the_interpolant(self):
        # Speeds sampled from a polynomial of degree at most 8 are
        # interpolated exactly, so (u + 1) times the fitted mean speed is
        # their integral from -1.
        nodes, fit = curves._length_fit()
        u = np.linspace(-1.0, 1.0, 7)
        for f, integral in ((np.ones_like, lambda u: u + 1.0),
                            (lambda x: x**8, lambda u: (u**9 + 1.0) / 9.0),
                            (lambda x: 3.0 * x * x - x, lambda u: u**3 - 0.5 * u * u + 1.5)):
            mean = curves._horner(f(nodes) @ fit, u)
            assert np.allclose((u + 1.0) * mean, integral(u), rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("spec", [twisted_cubic(), planar_cubic(),
                                      *(salkowski(m) for m in (1e-12, 1e-4, 0.5, -3.0, 1e5))],
                             ids=lambda s: f"{s.family}{s.params}")
    def test_matches_gauss_across_each_panel(self, spec):
        # The length (t - t0) m(u) from the panel's start against a 16-node
        # rule over [t0, t], at both panel ends and inside, as a fraction of
        # the panel's length.  The interpolant is exact to rounding on
        # these panels, and t - t0 carries the scale, so what remains is
        # the rounding of the 9-term fit, of the 9-term Horner sum and of
        # the 16-term rule, each a few eps of the length: under 19 eps
        # (4.1e-15) on every curve here, whatever the range's size.  The
        # bound allows 64 eps.
        ts, cum, panels = curves._arclength_table(spec)
        t0, t1, mid, half, coef = *panels[:, [0, 1, 6, 7]].T, panels[:, 8:].T
        lengths = curves._gauss(spec.speed, t0, t1)
        for t in (t0, t0 + 1e-6 * half, mid - 0.7 * half, mid + 0.2 * half, mid + 0.9 * half, t1):
            poly = (t - t0) * curves._horner(coef, (t - mid) / half)
            miss = np.abs(poly - curves._gauss(spec.speed, t0, t)) / lengths
            assert np.max(miss) <= 64.0 * np.finfo(float).eps
        assert np.array_equal(panels[:, 2:4], np.column_stack((cum[:-1], cum[1:])))


def test_salkowski_torsion_positive_and_varying():
    spec = salkowski(0.5)
    from modframe import frames
    taus = [frames.modified_frame(spec, float(s)).tau
            for s in arclength_grid(spec, 16)]
    assert min(taus) > 0
    assert max(taus) - min(taus) > 0.1


def test_every_family_is_tested():
    assert {spec.family for spec in ALL_FAMILIES} == set(curves.FAMILIES)


@pytest.mark.parametrize("spec", ALL_FAMILIES + [salkowski(-3.0)],
                         ids=lambda s: f"{s.family}{s.params}")
def test_float_jet_is_python_floats(spec):
    # The one-point contract of a caller that walks a curve point by point:
    # a float's jet is five 3-tuples of Python floats, not np.float64 (a
    # float subclass).  test_cached_vectors_own_their_memory holds the
    # frame's scalars to the same contract.
    for t in np.linspace(spec.t_lo, spec.t_hi, 9).tolist():
        jet = curves._curve(spec).jet(t)
        assert len(jet) == 5
        for v in jet:
            assert type(v) is tuple and len(v) == 3, t
            assert all(type(x) is float for x in v), (t, v)


@pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.family)
def test_arclengths_of_any_shape_invert_elementwise(spec):
    # An array of arclengths inverts elementwise whatever its shape: a
    # reshaped array gives the 1-D result, reshaped, byte for byte.  The
    # cubics' table inverse raised IndexError on a 2-D array.
    flat = np.linspace(0.0, total_arclength(spec), 24)
    expected = at_arclength(spec, flat)
    for shape in ((1, 24), (24, 1), (4, 6), (2, 3, 4)):
        t = at_arclength(spec, flat.reshape(shape))
        assert t.shape == shape
        assert t.tobytes() == expected.reshape(shape).tobytes(), shape


@pytest.mark.parametrize("value", [[0.5, 0.6], (0.5,), None, "0.5"], ids=repr)
@pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.family)
def test_only_floats_and_arrays_are_taken(spec, value):
    # A list is not an array: the arclength inverse, the jet and the speed
    # refuse it, and anything else that is neither a float nor an ndarray,
    # with a TypeError that names what they take.
    for call in (lambda: at_arclength(spec, value), lambda: spec.jet(value),
                 lambda: spec.speed(value)):
        with pytest.raises(TypeError, match=f"must be a float or a numpy array, not "
                                            f"{type(value).__name__}$"):
            call()
