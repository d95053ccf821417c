"""Whole-library identity validation.

Runs every closed-form identity against its numerical oracle across the
built-in curve families and collects the residuals into a machine
readable report.  The identities are the rows of :data:`IDENTITIES`: each
names the curves it assumes, the grid it reads and its residual at each
sample, and :func:`run_validation` is one loop over them that judges
every entry by its worst sample.
One entry, the unweighted binormal geodesic curvature, is a known
algebraic discrepancy: it is reported with its measured gap and marked
``expected_discrepancy`` instead of being judged.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import curves, frames, geodesic, indicatrix, involute, numerics
from .curves import CurveSpec
from .darboux import CONST_KAPPA_GATE, check_alignment, rotation_residuals
from .errors import NonConstantCurvature, NotOnUnitSphere
from .indicatrix import KINDS, IndicatrixKind
from .numerics import ABS_TOL, norm


class ValidationEntry(NamedTuple):
    """One identity's verdict: worst residual against its tolerance over
    ``n_evaluated`` samples.  An identity with no evaluated sample has not
    passed; it is marked not applicable and carries no verdict."""

    name: str
    description: str
    max_residual: float
    tolerance: float
    passed: bool
    n_evaluated: int
    expected_discrepancy: bool = False
    note: str = ""

    def to_dict(self) -> dict:
        return self._asdict()


class ValidationReport(NamedTuple):
    """The entries of one validation run, in the order of :data:`IDENTITIES`;
    none by default, as an empty tuple (a list default would be shared)."""

    entries: list[ValidationEntry] | tuple[ValidationEntry, ...] = ()

    @property
    def passed(self) -> bool:
        """Every evaluated entry passed, and some entry evaluated a sample.
        Not-applicable entries are left out; expected discrepancies pass."""
        return any(e.n_evaluated for e in self.entries) and all(
            e.passed for e in self.entries if e.n_evaluated)

    def to_dict(self) -> dict:
        return {"passed": self.passed, "entries": [e.to_dict() for e in self.entries]}


def default_families() -> dict[str, CurveSpec]:
    return {
        "helix": curves.helix(2.0, 1.0),
        "circle1": curves.circle(1.0),
        "circle2": curves.circle(2.0),
        "twisted_cubic": curves.twisted_cubic(),
        "planar_cubic": curves.planar_cubic(),
        "salkowski": curves.salkowski(0.5),
    }


def _max_over(tables, names, grid, fn) -> tuple[float, int]:
    """Worst value of ``fn`` over the named curves' grids, and the number
    of samples it was evaluated on.  ``fn(table, s)`` takes a curve's
    frame table and its whole grid ``grid(spec)`` and returns one residual
    per sample, NaN where the sample is degenerate and skipped."""
    worst, evaluated = 0.0, 0
    for name in names:
        table = tables[name]
        residual = fn(table, grid(table.spec))
        live = residual[~np.isnan(residual)]
        worst = max(worst, float(live.max(initial=0.0)))
        evaluated += live.size
    return worst, evaluated


# The curve properties an identity assumes.  As everywhere in the library,
# a curvature at most ABS_TOL counts as zero: a row that needs kappa > 0
# skips those samples through its NaN mask, not the curves that have them.

def _const_kappa(spec: CurveSpec) -> bool:
    return spec.constant_kappa is not None and spec.constant_kappa > ABS_TOL


def _admits(kind: IndicatrixKind) -> Callable[[CurveSpec], bool]:
    # The curves an indicatrix's closed forms hold on.
    return _const_kappa if KINDS[kind].constant_kappa else (lambda spec: True)


# Grids besides arclength_grid, grid(spec, samples).  A row skips a curve
# that its points would leave, as a stencil leaves one below ~2e-4.

def _det_grid(spec, samples):
    # the determinant oracle's half-size grid
    return curves.arclength_grid(spec, max(samples // 2, 4))


def _zeros(spec, samples):
    # the arclengths of the curve's curvature zeros
    return np.array([curves.arclength(spec, spec.t_lo, t0) for t0 in spec.kappa_zeros])


# Per-sample residuals, fn(table, s) for _max_over: one value per sample
# of the grid s, NaN where the sample is skipped as degenerate.

def _lancret(table, s):
    # |w| against the norm of the vector w = tau T + B: with T orthogonal
    # to B and |B| = kappa, it is hypot(kappa, tau)
    mf = table(s)
    dd = mf.darboux
    return np.maximum.reduce([
        np.abs(np.sin(dd.phi) * dd.w_norm - mf.tau),
        np.abs(np.cos(dd.phi) * dd.w_norm - mf.kappa),
        np.abs(dd.w_norm - norm(dd.w.T)),
    ])


def _cov_residual(kind, table, s):
    closed = indicatrix.cov_deriv_closed(kind, table(s))
    numeric = indicatrix.cov_deriv_numeric(kind, table, s)
    return norm((closed - numeric).T)


def _tangent_residual(kind, table, s):
    mf = table(s)
    closed = indicatrix.indicatrix_tangent(kind, mf)
    rate = indicatrix._signed_rate(kind, mf)
    with np.errstate(divide="ignore", invalid="ignore"):
        fd = numerics.diff_vec(lambda x: indicatrix.indicatrix_point(kind, table(x)), s).T / rate
    return norm(closed.T - fd)  # NaN where the closed tangent is undefined


def _binormal_gap(table, s):
    # skip where the oracle vanishes
    rep = geodesic.geodesic_report(IndicatrixKind("binormal"), table, s)
    return np.where(rep.gamma_oracle > 0, rep.residual_unweighted, np.nan)


def _det_residual(kind, table, s):
    # a kind whose points leave the sphere reads their distance from it,
    # which unit-sphere-points judges
    try:
        det = geodesic.geodesic_curvature_sphere_at(kind, table, s)
    except NotOnUnitSphere:
        return _sphere_distance(kind, table, s)
    oracle = geodesic.geodesic_curvature_oracle(kind, table, s)
    return np.abs(np.abs(det) - oracle)


def _sphere_distance(kind, table, s):
    return np.abs(norm(indicatrix.indicatrix_point(kind, table(s)).T) - 1.0)


def _on_sphere(residual):
    # The worst of residual(kind, table, s) over the unit-sphere kinds
    # whose closed forms hold on the curve.
    return lambda table, s: np.fmax.reduce([residual(k, table, s) for k, row in KINDS.items()
                                            if row.on_unit_sphere and _admits(k)(table.spec)])


def _involute_defect(kind, table, s):
    return np.abs(involute.involute_inner(kind, table, s))


def _frame_at_zeros(table, s):
    # The frame at each zero is asked for alone: one scalar frame.
    at_zeros = [frames.modified_frame(table.spec, x) for x in s.tolist()]
    return np.array([max(norm(mf.N), norm(mf.B)) for mf in at_zeros])


def _coincidence(table, s):
    mf = table(s)
    ff = frames.frenet_frame(table, s)
    return np.maximum.reduce([norm(mf.T.T - ff.t_vec.T), norm(mf.N.T - ff.n_vec.T * ff.kappa),
                              norm(mf.B.T - ff.b_vec.T * ff.kappa)])


def _unit_speed(table, s):
    fd = numerics.diff_vec(lambda x: table(x).r, s)
    return np.abs(norm(fd.T) - 1.0)


class Identity(NamedTuple):
    """One identity of the suite: on the curves for which ``assumes``
    holds, its ``residual(table, s)`` at each sample of its grid
    ``grid(spec, samples)`` is judged against ``tolerance``.  It reads
    frames at the grid and at ``numerics.stencil(grid, order, step)`` for
    each ``(order, step)`` of ``stencils``."""

    name: str
    description: str
    tolerance: float
    assumes: Callable[[CurveSpec], bool]
    residual: Callable[[frames.FrameTable, np.ndarray], np.ndarray]
    expected_discrepancy: bool = False
    note: str = ""
    grid: Callable[[CurveSpec, int], np.ndarray] = curves.arclength_grid
    stencils: tuple[tuple[int, float | None], ...] = ((1, None),)


def _per_kind(name, description, residual):
    # One row per indicatrix, on the curves it admits.
    return [Identity(name.format(k.value), description.format(k.value), 1e-5, _admits(k),
                     residual=partial(residual, k))
            for k in IndicatrixKind]


# Rows reach the library through module names when they are evaluated, so
# that a patched function (a tracer, a mock) is the one that runs.
IDENTITIES: list[Identity] = [
    Identity("frame-ode",
             "finite-difference frame derivatives match the derivative matrix",
             1e-5, lambda spec: True,
             residual=lambda table, s: frames.check_frame_ode(table, s).max_residual),
    Identity("metric-relations", "frame inner products equal (1, k^2, k^2, 0, 0, 0)",
             1e-9, lambda spec: True, residual=lambda table, s: frames.metric_residual(table, s),
             stencils=()),
    Identity("darboux-alignment", "N x N' = k^2 w against the finite-difference N'",
             1e-5, _const_kappa, residual=lambda table, s: check_alignment(table, s)),
    Identity("darboux-rotation",
             "X' = w x X for X in {T, N, B} on constant-curvature curves",
             1e-5, _const_kappa,
             residual=lambda table, s: np.maximum.reduce(rotation_residuals(table, s))),
    Identity("lancret-angle", "sin(phi)|w| = tau and cos(phi)|w| = kappa",
             1e-9, _const_kappa, residual=_lancret, stencils=()),
    *_per_kind("{}-ind-covderiv",
               "{}-indicatrix covariant derivative, closed vs oracle", _cov_residual),
    *_per_kind("{}-ind-tangent",
               "{}-indicatrix unit tangent vs differentiated point", _tangent_residual),
    *_per_kind("geodesic-{}", "{}-indicatrix geodesic curvature, closed vs oracle",
               lambda kind, table, s:
               geodesic.geodesic_report(kind, table, s).residual_closed),
    Identity("geodesic-binormal-unweighted",
             "unit-norm expansion of the binormal geodesic curvature differs "
             "from the oracle at every kappa (its square is 2 too large)",
             1e-5, _const_kappa, residual=_binormal_gap, expected_discrepancy=True,
             note="known algebraic discrepancy; oracle arbitrates"),
    Identity("geodesic-sphere-det",
             "determinant oracle agrees with the Gauss-equation oracle on the "
             "unit-sphere indicatrices",
             1e-5, lambda spec: True, residual=_on_sphere(_det_residual), grid=_det_grid,
             stencils=((1, None), geodesic.SPHERE_STENCIL)),
    Identity("unit-sphere-points", "the unit-sphere indicatrices lie on the unit sphere",
             ABS_TOL, lambda spec: True, residual=_on_sphere(_sphere_distance),
             grid=_det_grid, stencils=()),
    Identity("involute-tangent",
             "pole-curve tangent orthogonal to the tangent indicatrix tangent",
             1e-9, _const_kappa, residual=partial(_involute_defect, IndicatrixKind("tangent")),
             stencils=()),
    Identity("involute-binormal",
             "pole-curve tangent orthogonal to the binormal indicatrix tangent",
             1e-9, _const_kappa, residual=partial(_involute_defect, IndicatrixKind("binormal")),
             stencils=()),
    Identity("involute-normal",
             "normal-indicatrix involute defect is zero exactly for helices",
             1e-9, lambda spec: _const_kappa(spec) and spec.family == "helix",
             residual=partial(_involute_defect, IndicatrixKind("normal")), stencils=(),
             note="helix defect vanishes with phi'"),
    Identity("involute-normal-varying",
             "normal-indicatrix involute defect reaches 1e-3 at every sample where "
             "the torsion varies",
             ABS_TOL, lambda spec: spec.family == "salkowski", stencils=(),
             residual=lambda table, s:  # the shortfall below 1e-3
             np.maximum(0.0, 1e-3 - _involute_defect(IndicatrixKind("normal"), table, s))),
    Identity("frame-coincidence", "modified frame equals (t, k n, k b) of the jet's Frenet frame",
             1e-9, lambda spec: True, residual=_coincidence, stencils=()),
    Identity("unit-speed", "arclength reparametrization has unit speed",
             1e-6, lambda spec: True, residual=_unit_speed),
    Identity("kappa-zero-extension",
             "|N|^2 and |B|^2 extend continuously through the curvature zero",
             1e-7, lambda spec: bool(spec.kappa_zeros),
             residual=lambda table, s: frames.metric_residual(table, s), stencils=()),
    Identity("kappa-zero-frame", "N = B = 0 at the curvature zero itself",
             1e-6, lambda spec: bool(spec.kappa_zeros), residual=_frame_at_zeros,
             grid=_zeros, stencils=()),
]

IDENTITY_NAMES = [i.name for i in IDENTITIES]


def select(only: list[str] | None = None) -> list[Identity]:
    """The identities named in ``only``, in the order of :data:`IDENTITIES`,
    or all of them for None; raises ValueError on an empty or unknown name,
    and TypeError on one string in place of a collection of names."""
    if isinstance(only, (str, bytes)):  # "" in "frame-ode" holds
        raise TypeError(f"only takes a collection of identity names, not {type(only).__name__}")
    if "" in (only or ()):
        raise ValueError(f"empty identity name in {only}")
    unknown = [n for n in only or () if n not in IDENTITY_NAMES]
    if unknown:
        raise ValueError(f"unknown identity name(s): {', '.join(unknown)}")
    return [i for i in IDENTITIES if only is None or i.name in only]


def _off_gate(tables, names) -> tuple[float, int, str]:
    # The worst |kappa'| above the constant-curvature gate in the tables of
    # the named curves that declare constant kappa, the frames above it,
    # and a note naming each such curve.
    worst, over, notes = 0.0, 0, []
    for f in [f for f in names if _const_kappa(tables[f].spec)]:
        rate = np.abs(tables[f](tables[f].s).kappa_prime)
        above = rate[rate > CONST_KAPPA_GATE]
        if above.size:
            worst, over = max(worst, float(above.max())), over + above.size
            notes.append(f"{f} declares constant kappa, but |kappa'| reaches {above.max():g} "
                         f"above the gate {CONST_KAPPA_GATE:g}")
    return worst, over, "; ".join(notes)


def run_validation(
    samples: int = 32,
    tolerance_override: float | None = None,
    only: list[str] | None = None,
    families: dict[str, CurveSpec] | None = None,
) -> ValidationReport:
    """Run every identity suite and collect a report.

    An entry passes when its worst residual is within
    ``tolerance_override`` (else its own tolerance); expected
    discrepancies pass.  ``only`` restricts to the identities it names,
    through :func:`select`.  Each curve's frames come from one
    :class:`~modframe.frames.FrameTable` that holds every arclength the
    chosen identities read on it; each distinct point set is built once,
    and kept only if it lies within the curve's
    :func:`~modframe.curves.arclength_range`.  A row whose curves declare
    constant curvature, but whose frames exceed the gate on kappa', fails
    and names them.  Fewer samples than the involute scans need
    (:data:`~modframe.involute.MIN_SAMPLES`) raise ValueError before any
    work, whichever rows are chosen.
    """
    if samples < involute.MIN_SAMPLES:
        raise ValueError(f"need at least {involute.MIN_SAMPLES} samples")
    specs = families if families is not None else default_families()
    chosen = select(only)
    tables, fits = {}, {}
    for f, spec in specs.items():
        sets = {}
        for grid, stencils in dict.fromkeys((i.grid, i.stencils) for i in chosen
                                            if i.assumes(spec)):
            s = grid(spec, samples)
            sets[grid, stencils] = np.concatenate(
                [s, *(numerics.stencil(s, order, step) for order, step in stencils)])
        lo, hi = curves.arclength_range(spec)
        fits[f] = [p for p, s in sets.items() if numerics.outside(s, lo, hi) is None]
        if fits[f]:
            tables[f] = frames.FrameTable(spec, np.concatenate([sets[p] for p in fits[f]]))
    entries = []
    for ident in chosen:
        names = [f for f, spec in specs.items()
                 if ident.assumes(spec) and (ident.grid, ident.stencils) in fits[f]]
        tol = tolerance_override if tolerance_override is not None else ident.tolerance
        try:
            residual, n_evaluated = _max_over(
                tables, names, lambda spec: ident.grid(spec, samples), ident.residual)
            passed, note = ident.expected_discrepancy or residual <= tol, ident.note
        except NonConstantCurvature:
            residual, n_evaluated, note = _off_gate(tables, names)
            if not n_evaluated:
                raise
            passed = False
        if not n_evaluated:
            passed, note = False, "not applicable: no sample evaluated"
        entries.append(ValidationEntry(
            ident.name, ident.description, residual, tol, passed, n_evaluated,
            ident.expected_discrepancy, note))
    return ValidationReport(entries)
