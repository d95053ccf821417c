"""Every function with an array form agrees with its scalar form.

Closed forms take a batched frame from ``modified_frames`` or one frame
from ``modified_frame``; oracles take an array of arclengths or one.
Where the scalar form raises, the batch marks that row with NaN, except
for the constant-curvature gate, which refuses the whole batch.
"""

import enum

import numpy as np
import pytest

from modframe import curves, frames, geodesic, indicatrix, involute, numerics
from modframe.darboux import check_alignment, darboux, rotation_residuals
from modframe.errors import (
    CurvatureVanishes,
    DegenerateFrame,
    DegenerateIndicatrix,
    ModFrameError,
    NonConstantCurvature,
    TorsionVanishes,
)
from modframe.indicatrix import IndicatrixKind
from modframe.validation import default_families

# the six default families, and a straight line (kappa = 0 everywhere)
FAMILIES = {**default_families(), "line": curves.line()}
# the indicatrices an involute scan pairs with the pole curve
PAIRED = [k for k in IndicatrixKind if k is not IndicatrixKind.POLE]


def _grid(spec):
    grid = curves.arclength_grid(spec, 9)
    if spec.kappa_zeros:  # land exactly on the curvature zero too
        grid = np.sort(np.append(grid, curves.arclength(spec, spec.t_lo, 0.0)))
    return grid


def _fields(result):
    # The per-point parts of a result, in a fixed order: the fields of a
    # record (a NamedTuple) but its kind, or a tuple's items.
    if not isinstance(result, tuple | list):
        return [result]
    return [v for v in result if not isinstance(v, enum.Enum)]


def _close(a, b):
    # a == b or |a - b| <= 1e-13 max(1, |b|), elementwise
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore"):  # inf - inf
        return np.all((a == b) | (np.abs(a - b) <= 1e-13 * np.maximum(1.0, np.abs(b))))


def _agree(batch_fn, scalar_fn, spec):
    """Compare ``batch_fn(spec, grid)`` row by row with ``scalar_fn(spec, s)``
    and return the exception types the scalar form raised."""
    grid = _grid(spec)
    try:
        batch = _fields(batch_fn(spec, grid))
    except NonConstantCurvature:
        with pytest.raises(NonConstantCurvature):
            for s in grid:
                scalar_fn(spec, float(s))
        return {NonConstantCurvature}
    raised = set()
    for i, s in enumerate(grid):
        try:
            one = _fields(scalar_fn(spec, float(s)))
        except ModFrameError as exc:
            raised.add(type(exc))
            assert any(np.isnan(np.asarray(b, dtype=float)[i]).any()
                       for b in batch if b is not None), (s, exc)
            continue
        for b, o in zip(batch, one, strict=True):
            if b is None:  # a field of other kinds, as in the scalar form
                assert o is None
            elif o is None:  # a degenerate sample's tangent: NaN in the batch
                assert np.isnan(b[i]).all()
            else:
                assert _close(np.asarray(b)[i], o), (s, b[i], o)
    return raised


def _closed(fn):
    # A closed form on the batched frames, and on the scalar frame.
    return (lambda spec, s: fn(frames.modified_frames(spec, s)),
            lambda spec, s: fn(frames.modified_frame(spec, s)))


def _oracle(fn):
    return fn, fn


def _curve_fn(s):
    # products only: s**3 rounds differently on numpy scalars and arrays
    return np.stack([np.sin(s), np.cos(3.0 * s), s * s * s], axis=-1)


CASES = {
    "curvature": _oracle(lambda spec, s: frames.curvature(spec.jet(curves.at_arclength(spec, s)))),
    "frame_ode_rhs": _closed(frames.frame_ode_rhs),
    "darboux": _closed(darboux),
    "pole_tangent_direction": _closed(indicatrix.pole_tangent_direction),
    "geodesic_curvature_binormal_unweighted": _closed(
        geodesic.geodesic_curvature_binormal_unweighted),
    "diff_vec": _oracle(lambda spec, s: numerics.diff_vec(_curve_fn, s)),
    "check_frame_ode": _oracle(frames.check_frame_ode),
    "metric_residual": _oracle(frames.metric_residual),
    "frenet_frame": _oracle(frames.frenet_frame),
    "check_alignment": _oracle(check_alignment),
    "rotation_residuals": _oracle(rotation_residuals),
    **{f"involute_inner-{k.value}": _oracle(
        lambda spec, s, k=k: involute.involute_inner(k, spec, s)) for k in PAIRED},
}
for _k in IndicatrixKind:
    CASES.update({
        f"indicatrix_point-{_k.value}": _closed(
            lambda mf, k=_k: indicatrix.indicatrix_point(k, mf)),
        f"indicatrix_speed-{_k.value}": _closed(
            lambda mf, k=_k: indicatrix.indicatrix_speed(k, mf)),
        f"indicatrix_tangent-{_k.value}": _closed(
            lambda mf, k=_k: indicatrix.indicatrix_tangent(k, mf)),
        f"cov_deriv_closed-{_k.value}": _closed(
            lambda mf, k=_k: indicatrix.cov_deriv_closed(k, mf)),
        f"geodesic_curvature_closed-{_k.value}": _closed(
            lambda mf, k=_k: geodesic.geodesic_curvature_closed(k, mf)),
        f"cov_deriv_numeric-{_k.value}": _oracle(
            lambda spec, s, k=_k: indicatrix.cov_deriv_numeric(k, spec, s)),
        f"geodesic_curvature_oracle-{_k.value}": _oracle(
            lambda spec, s, k=_k: geodesic.geodesic_curvature_oracle(k, spec, s)),
        f"geodesic_report-{_k.value}": _oracle(
            lambda spec, s, k=_k: geodesic.geodesic_report(k, spec, s)),
        f"sample-{_k.value}": _oracle(
            lambda spec, s, k=_k: indicatrix.sample(k, spec, s)),
    })
for _k in (IndicatrixKind.TANGENT, IndicatrixKind.POLE):
    CASES[f"geodesic_curvature_sphere_at-{_k.value}"] = _oracle(
        lambda spec, s, k=_k: geodesic.geodesic_curvature_sphere_at(k, spec, s))


@pytest.mark.parametrize("name", list(CASES))
def test_batched_equals_scalar(name):
    for spec in FAMILIES.values():
        _agree(*CASES[name], spec)


@pytest.mark.parametrize("name, family, raised", [
    # the planar cubic's curvature zero
    ("frame_ode_rhs", "planar_cubic", {CurvatureVanishes}),
    ("cov_deriv_closed-tangent", "planar_cubic", {CurvatureVanishes}),
    ("frenet_frame", "planar_cubic", {CurvatureVanishes}),
    ("check_frame_ode", "planar_cubic", {CurvatureVanishes}),
    # phi' = 0 on the helix: the pole indicatrix is a point
    ("indicatrix_tangent-pole", "helix", {DegenerateIndicatrix}),
    ("cov_deriv_closed-pole", "helix", {DegenerateIndicatrix}),
    ("geodesic_curvature_closed-pole", "helix", {DegenerateIndicatrix}),
    ("cov_deriv_numeric-pole", "helix", {DegenerateIndicatrix}),
    # tau = 0 on the circles
    ("indicatrix_tangent-binormal", "circle1", {DegenerateIndicatrix}),
    ("cov_deriv_closed-binormal", "circle1", {TorsionVanishes}),
    ("geodesic_curvature_closed-binormal", "circle2", {TorsionVanishes}),
    ("geodesic_curvature_binormal_unweighted", "circle2", {TorsionVanishes}),
    # no Darboux data on a straight line
    ("darboux", "line", {DegenerateFrame}),
    ("sample-normal", "line", {DegenerateFrame}),
    ("geodesic_curvature_closed-tangent", "line", {CurvatureVanishes}),
    # the gate refuses a varying curvature, point and batch alike
    ("darboux", "twisted_cubic", {NonConstantCurvature}),
    # and where nothing degenerates, nothing is masked
    ("cov_deriv_numeric-pole", "salkowski", set()),
    # on a straight line, kappa = 0 is checked before any Darboux data is built
    ("cov_deriv_closed-normal", "line", {CurvatureVanishes}),
    ("cov_deriv_closed-binormal", "line", {CurvatureVanishes}),
    ("cov_deriv_closed-pole", "line", {CurvatureVanishes}),
    ("geodesic_curvature_closed-normal", "line", {CurvatureVanishes}),
    ("geodesic_curvature_closed-binormal", "line", {CurvatureVanishes}),
    ("geodesic_curvature_closed-pole", "line", {CurvatureVanishes}),
    ("indicatrix_point-pole", "line", {DegenerateFrame}),
    # and so is it in the oracles, which mark the same rows with NaN
    *((f"{form}-{kind.value}", "line", {CurvatureVanishes})
      for form in ("cov_deriv_numeric", "geodesic_curvature_oracle") for kind in IndicatrixKind),
])
def test_degeneracy_mask_matches_scalar_exceptions(name, family, raised):
    assert _agree(*CASES[name], FAMILIES[family]) == raised


def test_one_point_at_the_curvature_zero():
    # The gate refuses a batch of the whole planar cubic, so _agree never
    # reaches its zero; ask each closed form there at one point.
    spec = FAMILIES["planar_cubic"]
    s = float(curves.arclength(spec, spec.t_lo, 0.0))
    expected = {  # tangent, normal, binormal, pole
        "indicatrix_point": (None, None, None, DegenerateFrame),
        "indicatrix_speed": (None, None, None, DegenerateFrame),
        "indicatrix_tangent": (DegenerateIndicatrix,) * 3 + (DegenerateFrame,),
        # the oracles refuse kappa ~ 0 as the closed forms do
        "cov_deriv_closed": (CurvatureVanishes,) * 4,
        "geodesic_curvature_closed": (CurvatureVanishes,) * 4,
        "cov_deriv_numeric": (CurvatureVanishes,) * 4,
        "geodesic_curvature_oracle": (CurvatureVanishes,) * 4,
    }
    for form, errors in expected.items():
        for kind, error in zip(IndicatrixKind, errors, strict=True):
            try:
                CASES[f"{form}-{kind.value}"][1](spec, s)
                raised = None
            except ModFrameError as exc:
                raised = type(exc)
            assert raised is error, (form, kind, raised)


def test_scan_matches_scalar_loop():
    for spec in (FAMILIES["helix"], FAMILIES["circle1"], FAMILIES["salkowski"]):
        for pair in PAIRED:
            rep = involute.involute_scan(pair, spec, 9)
            inners = []
            for s in curves.arclength_grid(spec, 9):
                try:
                    inners.append(abs(involute.involute_inner(pair, spec, float(s))))
                except ModFrameError:
                    continue
            assert rep.n_defined == len(inners)
            assert _close(rep.max_abs_inner, max(inners, default=np.inf))


def test_table_refuses_an_arclength_it_does_not_hold():
    spec = FAMILIES["salkowski"]
    table = frames.FrameTable(spec, [0.1, 0.2, 0.3])
    assert table(0.2).kappa == table(np.array([0.1, 0.2])).kappa[1]
    with pytest.raises(ValueError):
        table(0.25)
    with pytest.raises(ValueError):
        frames.check_frame_ode(table, 0.2)  # its stencil is not in the table


def _bits(x):
    # every field of a frame as its raw bytes: -0.0 and NaN compare exactly
    return [np.asarray(getattr(x, name)).tobytes() for name in x._fields]


@pytest.mark.parametrize("name", ["twisted_cubic", "salkowski"])
def test_table_reads_equal_the_batch_bit_for_bit(name):
    spec = FAMILIES[name]
    s = numerics.stencil(curves.arclength_grid(spec, 9))
    table = frames.FrameTable(spec, s)
    assert _bits(table(s)) == _bits(frames.modified_frames(spec, s))
    for x in s[::7]:
        one = table(float(x))
        assert one.T.shape == (3,) and np.ndim(one.kappa) == 0
        assert _bits(one) == _bits(frames.modified_frames(spec, np.array([x])))


def test_table_from_unsorted_input_with_duplicates_and_signed_zeros():
    spec = FAMILIES["twisted_cubic"]
    s = np.array([0.3, -0.0, 0.1, 0.3, 0.0, 0.2, 0.1, 0.0])
    table = frames.FrameTable(spec, s)
    assert table.s.tolist() == [0.0, 0.1, 0.2, 0.3]
    assert _bits(table(s)) == _bits(frames.modified_frames(spec, s))
    for x in s:
        assert _bits(table(float(x))) == _bits(frames.modified_frames(spec, np.array([x])))
    empty = frames.FrameTable(spec, [])(np.array([]))
    assert empty.T.shape == (0, 3) and empty.kappa.shape == (0,)


def test_table_refuses_a_read_of_more_than_one_axis():
    table = frames.FrameTable(FAMILIES["helix"], [0.1, 0.2])
    with pytest.raises(ValueError):
        table(np.array([[0.1, 0.2]]))


def test_table_fields_are_read_only():
    spec = FAMILIES["salkowski"]
    s = np.array([0.1, 0.2, 0.3])
    table = frames.FrameTable(spec, s)
    for mf in (table(s), table(0.2)):
        for name in mf._fields:
            value = getattr(mf, name)
            if isinstance(value, np.ndarray):
                assert not value.flags.writeable, name
                with pytest.raises(ValueError):
                    value[...] = 0.0


@pytest.mark.parametrize("s", [0.7, np.array([0.2, 0.7, 1.1])], ids=["float", "array"])
def test_stencil_is_every_point_diff_vec_reads(s):
    read = set()

    def f(x):
        read.update(np.ravel(x).tolist())
        return np.zeros(np.shape(x) + (3,))

    numerics.diff_vec(f, s)
    # the oracle reads its frame at s itself too
    assert set(numerics.stencil(s).tolist()) == read | set(np.ravel(s).tolist())


# The six oracles that read a frame table at the finite-difference stencil.
TABLE_ORACLES = [name for name in CASES if name.partition("-")[0] in (
    "check_frame_ode", "check_alignment", "rotation_residuals",
    "cov_deriv_numeric", "geodesic_curvature_oracle", "geodesic_report")]


def _result_bits(result):
    return [None if v is None else np.asarray(v, dtype=float).tobytes()
            for v in _fields(result)]


@pytest.mark.parametrize("name", ["helix", "salkowski"])
@pytest.mark.parametrize("oracle", TABLE_ORACLES)
def test_oracle_handed_a_table_builds_nothing(name, oracle, monkeypatch):
    spec, fn = FAMILIES[name], CASES[oracle][0]
    grid = curves.arclength_grid(spec, 9)
    table = frames.FrameTable(spec, numerics.stencil(grid))
    expected = _result_bits(fn(spec, grid))
    built = []
    stencil, init = numerics.stencil, frames.FrameTable.__init__
    monkeypatch.setattr(numerics, "stencil",
                        lambda *a, **k: built.append("stencil") or stencil(*a, **k))
    monkeypatch.setattr(frames.FrameTable, "__init__",
                        lambda self, *a: built.append("table") or init(self, *a))
    assert _result_bits(fn(table, grid)) == expected
    assert built == []


# Frame-table reads per oracle call: diff_vec reads its whole stencil at once.
TABLE_READS = {"check_frame_ode": 4, "rotation_residuals": 4, "check_alignment": 2,
               "cov_deriv_numeric": 2, "geodesic_curvature_oracle": 3, "geodesic_report": 4}


@pytest.mark.parametrize("name", ["helix", "salkowski"])
@pytest.mark.parametrize("oracle", TABLE_ORACLES)
def test_oracle_reads_its_table_a_few_times(name, oracle, monkeypatch):
    spec, fn = FAMILIES[name], CASES[oracle][0]
    grid = curves.arclength_grid(spec, 9)
    table = frames.FrameTable(spec, numerics.stencil(grid))
    reads, call = [], frames.FrameTable.__call__
    monkeypatch.setattr(frames.FrameTable, "__call__",
                        lambda self, s: reads.append(s) or call(self, s))
    fn(table, grid)
    assert len(reads) <= TABLE_READS[oracle.partition("-")[0]]
