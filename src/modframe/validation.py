"""Whole-library identity validation.

Runs every closed-form identity against its numerical oracle across the
built-in curve families and collects the residuals into a machine
readable report.  The identities are the rows of :data:`IDENTITIES`: each
names the curves it assumes and how it is measured, and
:func:`run_validation` is one loop over them that judges every entry.
One entry, the unweighted binormal geodesic curvature, is a known
algebraic discrepancy: it is reported with its measured gap and marked
``expected_discrepancy`` instead of being judged.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import curves, frames, geodesic, indicatrix, involute, numerics
from .curves import CurveSpec
from .darboux import check_alignment, rotation_residuals
from .indicatrix import KINDS, IndicatrixKind
from .numerics import ABS_TOL, norm


@dataclass(frozen=True)
class ValidationEntry:
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
        return asdict(self)


@dataclass
class ValidationReport:
    entries: list[ValidationEntry] = field(default_factory=list)

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


def _max_over(tables, names, n, fn) -> tuple[float, int]:
    """Worst value of ``fn`` over the named curves' grids, and the number
    of samples it was evaluated on.  ``fn(table, s)`` takes a curve's
    frame table and its whole grid and returns one residual per sample,
    NaN where the sample is degenerate and skipped."""
    worst, evaluated = 0.0, 0
    for name in names:
        table = tables[name]
        residual = fn(table, curves.arclength_grid(table.spec, n))
        live = residual[~np.isnan(residual)]
        worst = max(worst, float(live.max(initial=0.0)))
        evaluated += live.size
    return worst, evaluated


# The curve properties an identity assumes.  As everywhere in the library,
# a curvature at most ABS_TOL counts as zero.

def _const_kappa(spec: CurveSpec) -> bool:
    return spec.constant_kappa is not None and spec.constant_kappa > ABS_TOL


def _nonzero_kappa(spec: CurveSpec) -> bool:
    return _const_kappa(spec) or (spec.constant_kappa is None and not spec.kappa_zeros)


def _unit_kappa(spec: CurveSpec) -> bool:
    return _const_kappa(spec) and abs(spec.constant_kappa - 1.0) < 1e-12


def _admits(kind: IndicatrixKind) -> Callable[[CurveSpec], bool]:
    # The curves an indicatrix's closed forms hold on.
    return _const_kappa if KINDS[kind].constant_kappa else _nonzero_kappa


# The arclengths an identity reads frames at, points(spec, samples): its
# grid, the finite-difference stencil around it, or the determinant
# oracle's half-size grid with both of its stencils.

def _stencil_points(spec, samples):
    return numerics.stencil(curves.arclength_grid(spec, samples))


def _det_samples(samples):
    return max(samples // 2, 4)


def _det_points(spec, samples):
    grid = curves.arclength_grid(spec, _det_samples(samples))
    return np.concatenate([numerics.stencil(grid),
                           numerics.stencil(grid, 2, 2 * geodesic.SPHERE_STEP)])


# Per-sample residuals, fn(table, s) for _max_over: one value per sample
# of the grid s, NaN where the sample is skipped as degenerate.

def _lancret(table, s):
    mf = table(s)
    dd = mf.darboux
    return np.maximum.reduce([
        np.abs(np.sin(dd.phi) * dd.w_norm - mf.tau),
        np.abs(np.cos(dd.phi) * dd.w_norm - mf.kappa),
        np.abs(dd.w_norm - np.hypot(mf.kappa, mf.tau)),
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
    det = geodesic.geodesic_curvature_sphere_at(kind, table, s)
    oracle = geodesic.geodesic_curvature_oracle(kind, table, s)
    return np.abs(np.abs(det) - oracle)


def _coincidence(table, s):
    mf = table(s)
    ff = frames.frenet_frame(table, s)
    n, b = ff.n_vec.T, ff.b_vec.T
    unit = np.abs(ff.kappa - 1) < 1e-12
    return np.maximum.reduce([
        norm(mf.T.T - ff.t_vec.T), norm(mf.N.T - n * ff.kappa), norm(mf.B.T - b * ff.kappa),
        np.where(unit, norm(mf.N.T - n), 0.0)])


def _unit_speed(table, s):
    fd = numerics.diff_vec(lambda x: table(x).r, s)
    return np.abs(norm(fd.T) - 1.0)


# Whole-entry measurements, fn(tables, names, samples).  Each returns
# (residual, n_evaluated, holds, note): holds is the identity's condition
# besides its tolerance, True where it has none.

def _metric_relations(tables, names, samples):
    worst, evaluated = 0.0, 0
    for table in map(tables.get, names):
        residual = frames.metric_residual(
            table, curves.frenet_arclength_grid(table.spec, samples))
        worst = max(worst, float(residual.max(initial=0.0)))
        evaluated += residual.size
    return worst, evaluated, True, ""


def _sphere_det(tables, names, samples):
    # every indicatrix on the unit sphere, on the curves it admits
    results = [_max_over(tables, [f for f in names if _admits(kind)(tables[f].spec)],
                         _det_samples(samples), partial(_det_residual, kind))
               for kind, row in KINDS.items() if row.on_unit_sphere]
    return max(w for w, _ in results), sum(n for _, n in results), True, ""


def _involute_defect(kind, tables, names, samples):
    reps = [r for r in (involute.involute_scan(kind, tables[f], samples) for f in names)
            if r.n_defined]
    return (max((r.max_abs_inner for r in reps), default=0.0),
            sum(r.n_defined for r in reps), True, "")


def _involute_normal(tables, names, samples):
    # judged on helices; on a varying-torsion curve it must not vanish
    scan = lambda family: [involute.involute_scan(IndicatrixKind("normal"), tables[f], samples)
                           for f in names if tables[f].spec.family == family]
    helix_reps = scan("helix")
    if not helix_reps:
        return 0.0, 0, True, ""
    salk_reps = scan("salkowski")
    note = "helix defect vanishes with phi'" + "".join(
        f"; varying-torsion defect reaches {r.max_abs_inner:.3g}" for r in salk_reps)
    return (max(r.max_abs_inner for r in helix_reps),
            sum(r.n_defined for r in helix_reps + salk_reps),
            all(r.max_abs_inner > 1e-3 for r in salk_reps), note)


def _kappa_zero_extension(tables, names, samples):
    worst, evaluated = _max_over(tables, names, samples, frames.metric_residual)
    # The frame at the zero itself is asked for alone: one scalar frame.
    at_zeros = [frames.modified_frame(sp, curves.arclength(sp, sp.t_lo, t0))
                for sp in (tables[f].spec for f in names) for t0 in sp.kappa_zeros]
    vanish = all(norm(mf.N) <= 1e-6 and norm(mf.B) <= 1e-6 for mf in at_zeros)
    return worst, evaluated, vanish, "N = B = 0 at the zero itself"


@dataclass(frozen=True)
class Identity:
    """One identity of the suite: it runs on the curves for which
    ``assumes`` holds, either as a per-sample ``residual`` or as one
    ``measure`` of the whole entry, judged against ``tolerance``, and
    reads frames at the arclengths ``points(spec, samples)``."""

    name: str
    description: str
    tolerance: float
    assumes: Callable[[CurveSpec], bool]
    residual: Callable[[frames.FrameTable, np.ndarray], np.ndarray] | None = None
    measure: Callable[..., tuple] | None = None
    expected_discrepancy: bool = False
    note: str = ""
    points: Callable[[CurveSpec, int], np.ndarray] = _stencil_points


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
             1e-5, _nonzero_kappa,
             residual=lambda table, s: frames.check_frame_ode(table, s).max_residual),
    Identity("metric-relations", "frame inner products equal (1, k^2, k^2, 0, 0, 0)",
             1e-9, lambda spec: True, measure=_metric_relations,
             points=curves.arclength_grid),
    Identity("darboux-alignment", "N x N' = k^2 w against the finite-difference N'",
             1e-5, _const_kappa, residual=lambda table, s: check_alignment(table, s)),
    Identity("darboux-rotation",
             "X' = w x X for X in {T, N, B} on constant-curvature curves",
             1e-5, _const_kappa,
             residual=lambda table, s: np.maximum.reduce(rotation_residuals(table, s))),
    Identity("lancret-angle", "sin(phi)|w| = tau and cos(phi)|w| = kappa",
             1e-9, _const_kappa, residual=_lancret, points=curves.arclength_grid),
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
             # its stencil reaches 2 * SPHERE_STEP past a sample: within the grid's margin
             1e-5, lambda spec: _nonzero_kappa(spec) and (
                 0.05 * curves.total_arclength(spec) >= 2 * geodesic.SPHERE_STEP),
             measure=_sphere_det, points=_det_points),
    Identity("involute-tangent",
             "pole-curve tangent orthogonal to the tangent indicatrix tangent",
             1e-9, _const_kappa, measure=partial(_involute_defect, IndicatrixKind("tangent")),
             points=curves.arclength_grid),
    Identity("involute-binormal",
             "pole-curve tangent orthogonal to the binormal indicatrix tangent",
             1e-9, _const_kappa, measure=partial(_involute_defect, IndicatrixKind("binormal")),
             points=curves.arclength_grid),
    Identity("involute-normal",
             "normal-indicatrix involute defect is zero exactly for helices",
             1e-9, _const_kappa, measure=_involute_normal, points=curves.arclength_grid),
    Identity("frame-coincidence", "modified frame equals the Frenet frame where kappa = 1",
             1e-9, _unit_kappa, residual=_coincidence, points=curves.arclength_grid),
    Identity("unit-speed", "arclength reparametrization has unit speed",
             1e-6, lambda spec: True, residual=_unit_speed),
    Identity("kappa-zero-extension",
             "|N|^2 and |B|^2 extend continuously through the curvature zero",
             1e-7, lambda spec: bool(spec.kappa_zeros), measure=_kappa_zero_extension,
             points=curves.arclength_grid),
]

IDENTITY_NAMES = [i.name for i in IDENTITIES]


def run_validation(
    samples: int = 32,
    tolerance_override: float | None = None,
    only: list[str] | None = None,
    families: dict[str, CurveSpec] | None = None,
) -> ValidationReport:
    """Run every identity suite and collect a report.

    An entry passes when its residual is within ``tolerance_override``
    (else its own tolerance) and its extra condition holds; expected
    discrepancies pass.  ``only`` restricts to the named identities, and
    an unknown name raises ValueError.  Each curve's frames come from one
    :class:`~modframe.frames.FrameTable` that holds every arclength the
    chosen identities read on it; each distinct point set is built once.
    """
    specs = families if families is not None else default_families()
    unknown = [n for n in only or () if n not in IDENTITY_NAMES]
    if unknown:
        raise ValueError(f"unknown identity name(s): {', '.join(unknown)}")
    chosen = [i for i in IDENTITIES if only is None or i.name in only]
    tables = {}
    for f, spec in specs.items():
        sets = dict.fromkeys(i.points for i in chosen if i.assumes(spec))
        if sets:
            tables[f] = frames.FrameTable(spec, np.concatenate([p(spec, samples) for p in sets]))
    report = ValidationReport()
    for ident in chosen:
        names = [f for f, spec in specs.items() if ident.assumes(spec)]
        residual, n_evaluated, holds, note = (
            ident.measure(tables, names, samples) if ident.residual is None
            else (*_max_over(tables, names, samples, ident.residual), True, ident.note))
        tol = tolerance_override if tolerance_override is not None else ident.tolerance
        passed = ident.expected_discrepancy or (residual <= tol and holds)
        if not n_evaluated:
            passed, note = False, "not applicable: no sample evaluated"
        report.entries.append(ValidationEntry(
            ident.name, ident.description, residual, tol, passed, n_evaluated,
            ident.expected_discrepancy, note))
    return report
