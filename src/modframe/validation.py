"""Whole-library identity validation.

Runs every closed-form identity against its numerical oracle across the
built-in curve families and collects the residuals into a machine
readable report.  The identities are the rows of :data:`IDENTITIES`: each
names the curves it assumes and how it is evaluated, and
:func:`run_validation` is one loop over them.  One entry, the unweighted
binormal geodesic curvature, is a known algebraic discrepancy: it is
reported with its measured gap and marked ``expected_discrepancy``
instead of counting as a failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from . import curves, frames, geodesic, indicatrix, involute, numerics
from .curves import CurveSpec
from .darboux import check_alignment, darboux, rotation_residuals
from .errors import DegenerateIndicatrix, TorsionVanishes
from .indicatrix import IndicatrixKind
from .involute import InvolutePair
from .numerics import ABS_TOL, dot, norm


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
        return {
            "name": self.name,
            "description": self.description,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "n_evaluated": self.n_evaluated,
            "expected_discrepancy": self.expected_discrepancy,
            "note": self.note,
        }


@dataclass
class ValidationReport:
    entries: list[ValidationEntry] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Every judged entry passed, and some entry evaluated a sample.
        Expected discrepancies and not-applicable entries are not judged."""
        return any(e.n_evaluated for e in self.entries) and all(
            e.passed for e in self.entries
            if e.n_evaluated and not e.expected_discrepancy)

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


def _max_over(specs, names, n, fn) -> tuple[float, int]:
    """Worst value of ``fn`` over the named curves' grids, and the number
    of samples it was evaluated on (degenerate samples are skipped)."""
    worst, evaluated = 0.0, 0
    for name in names:
        spec = specs[name]
        for s in curves.arclength_grid(spec, n):
            try:
                worst = max(worst, fn(spec, float(s)))
            except (DegenerateIndicatrix, TorsionVanishes):
                continue
            evaluated += 1
    return worst, evaluated


# The curve properties an identity assumes.  As everywhere in the library,
# a curvature at most ABS_TOL counts as zero.

def _const_kappa(spec: CurveSpec) -> bool:
    return spec.constant_kappa is not None and spec.constant_kappa > ABS_TOL


def _nonzero_kappa(spec: CurveSpec) -> bool:
    return _const_kappa(spec) or (spec.constant_kappa is None and not spec.kappa_zeros)


def _unit_kappa(spec: CurveSpec) -> bool:
    return _const_kappa(spec) and abs(spec.constant_kappa - 1.0) < 1e-12


# Per-sample residuals, fn(spec, s) for _max_over.  A sample that raises
# DegenerateIndicatrix or TorsionVanishes is skipped.

def _lancret(spec, s):
    mf = frames.modified_frame(spec, s)
    dd = darboux(mf)
    return max(
        abs(math.sin(dd.phi) * dd.w_norm - mf.tau),
        abs(math.cos(dd.phi) * dd.w_norm - mf.kappa),
        abs(dd.w_norm - math.hypot(mf.kappa, mf.tau)),
    )


def _darboux_for(kind, mf):
    # The tangent indicatrix needs no Darboux data.
    return darboux(mf) if kind is not IndicatrixKind.TANGENT else None


def _cov_residual(kind, spec, s):
    mf = frames.modified_frame(spec, s)
    closed = indicatrix.cov_deriv_closed(kind, mf, _darboux_for(kind, mf))
    numeric = indicatrix.cov_deriv_numeric(kind, spec, s)
    return norm(closed - numeric)


def _tangent_residual(kind, spec, s):
    mf = frames.modified_frame(spec, s)
    dd = _darboux_for(kind, mf)
    closed = indicatrix.indicatrix_tangent(kind, mf, dd)
    rate = indicatrix._signed_rate(kind, mf, dd)
    if abs(rate) <= 1e-6:
        raise DegenerateIndicatrix("skip near-degenerate sample")

    def point_at(x):
        f = frames.modified_frame(spec, x)
        return indicatrix.indicatrix_point(kind, f, _darboux_for(kind, f))

    fd = numerics.diff_vec(point_at, s) / rate
    return norm(closed - fd)


def _binormal_gap(spec, s):
    rep = geodesic.geodesic_report(IndicatrixKind.BINORMAL, spec, s)
    if not (abs(rep.gamma_oracle) > 0 and frames.modified_frame(spec, s).kappa != 1.0):
        raise DegenerateIndicatrix("no gap where kappa = 1 or the oracle vanishes")
    return rep.residual_unweighted


def _det_residual(kind, spec, s):
    det = geodesic.geodesic_curvature_sphere_at(kind, spec, s)
    oracle = geodesic.geodesic_curvature_oracle(kind, spec, s)
    return abs(abs(det) - oracle)


def _coincidence(spec, s):
    mf = frames.modified_frame(spec, s)
    ff = frames.frenet_frame(spec, s)
    return max(norm(mf.T - ff.t_vec), norm(mf.N - ff.n_vec * ff.kappa),
               norm(mf.B - ff.b_vec * ff.kappa),
               norm(mf.N - ff.n_vec) if abs(ff.kappa - 1) < 1e-12 else 0.0)


def _unit_speed(spec, s):
    fd = numerics.diff_vec(lambda x: curves.position_at_arclength(spec, x), s)
    return abs(norm(fd) - 1.0)


def _kappa_gap(spec, s):
    mf = frames.modified_frame(spec, s)
    k2 = frames.curvature(spec.jet(mf.t)) ** 2
    return max(abs(dot(mf.N, mf.N) - k2), abs(dot(mf.B, mf.B) - k2))


# Whole-entry verdicts, fn(specs, names, samples).  Each returns
# (residual, n_evaluated, passed, note), with passed None to judge the
# residual against the tolerance, or None to leave the entry out.

def _metric_relations(specs, names, samples):
    worst, evaluated = 0.0, 0
    for spec in map(specs.get, names):
        for s in curves.frenet_arclength_grid(spec, samples):
            worst = max(worst, frames.metric_residual(spec, float(s)))
            evaluated += 1
    return worst, evaluated, None, ""


def _binormal_unweighted(specs, names, samples):
    return (*_max_over(specs, names, samples, _binormal_gap), True,
            "known algebraic discrepancy; oracle arbitrates")


def _sphere_det(specs, names, samples):
    # the tangent indicatrix wherever kappa > 0, the pole on constant kappa
    results = [_max_over(specs, [f for f in names if assumes(specs[f])],
                         max(samples // 2, 4), partial(_det_residual, kind))
               for assumes, kind in ((_nonzero_kappa, IndicatrixKind.TANGENT),
                                     (_const_kappa, IndicatrixKind.POLE))]
    return max(w for w, _ in results), sum(n for _, n in results), None, ""


def _involute_defect(pair, specs, names, samples):
    reps = [r for r in (involute.involute_scan(pair, specs[f], samples) for f in names)
            if r.n_defined]
    return (max((r.max_abs_inner for r in reps), default=0.0),
            sum(r.n_defined for r in reps), None, "")


def _involute_normal(specs, names, samples):
    helices = [specs[f] for f in names if specs[f].family == "helix"]
    if not helices:
        return None
    helix_reps = [involute.involute_scan(InvolutePair.N_VS_C, sp, samples)
                  for sp in helices]
    helix_defect = max(r.max_abs_inner for r in helix_reps)
    evaluated = sum(r.n_defined for r in helix_reps)
    note = "helix defect vanishes with phi'"
    ok = helix_defect <= 1e-9
    for sp in [specs[f] for f in names if specs[f].family == "salkowski"]:
        salk_rep = involute.involute_scan(InvolutePair.N_VS_C, sp, samples)
        ok = ok and salk_rep.max_abs_inner > 1e-3
        evaluated += salk_rep.n_defined
        note += f"; varying-torsion defect reaches {salk_rep.max_abs_inner:.3g}"
    return helix_defect, evaluated, ok, note


def _kappa_zero_extension(specs, names, samples):
    if not names:
        return None
    worst, evaluated = _max_over(specs, names, samples, _kappa_gap)
    at_zeros = [frames.modified_frame(sp, curves.arclength(sp, sp.t_lo, t0))
                for sp in map(specs.get, names) for t0 in sp.kappa_zeros]
    vanish = all(norm(mf.N) <= 1e-6 and norm(mf.B) <= 1e-6 for mf in at_zeros)
    return worst, evaluated, worst <= 1e-7 and vanish, "N = B = 0 at the zero itself"


@dataclass(frozen=True)
class Identity:
    """One identity of the suite: it runs on the curves for which
    ``assumes`` holds, either as a per-sample ``residual`` (judged against
    ``tolerance``) or as one ``verdict`` on the whole entry."""

    name: str
    description: str
    tolerance: float
    assumes: Callable[[CurveSpec], bool]
    residual: Callable[[CurveSpec, float], float] | None = None
    verdict: Callable[..., tuple | None] | None = None
    expected_discrepancy: bool = False


def _per_kind(name, description, residual):
    # One row per indicatrix: the tangent indicatrix needs kappa > 0 only,
    # the other three constant curvature.
    return [Identity(name.format(k.value), description.format(k.value), 1e-5,
                     _nonzero_kappa if k is IndicatrixKind.TANGENT else _const_kappa,
                     residual=partial(residual, k))
            for k in IndicatrixKind]


# Rows reach the library through module names when they are evaluated, so
# that a patched function (a tracer, a mock) is the one that runs.
IDENTITIES: list[Identity] = [
    Identity("frame-ode",
             "finite-difference frame derivatives match the derivative matrix",
             1e-5, _nonzero_kappa,
             residual=lambda spec, s: frames.check_frame_ode(spec, s).max_residual),
    Identity("metric-relations", "frame inner products equal (1, k^2, k^2, 0, 0, 0)",
             1e-9, lambda spec: True, verdict=_metric_relations),
    Identity("darboux-alignment", "N x N' = k^2 w against the finite-difference N'",
             1e-5, _const_kappa, residual=lambda spec, s: check_alignment(spec, s)),
    Identity("darboux-rotation",
             "X' = w x X for X in {T, N, B} on constant-curvature curves",
             1e-5, _const_kappa, residual=lambda spec, s: max(rotation_residuals(spec, s))),
    Identity("lancret-angle", "sin(phi)|w| = tau and cos(phi)|w| = kappa",
             1e-9, _const_kappa, residual=_lancret),
    *_per_kind("{}-ind-covderiv",
               "{}-indicatrix covariant derivative, closed vs oracle", _cov_residual),
    *_per_kind("{}-ind-tangent",
               "{}-indicatrix unit tangent vs differentiated point", _tangent_residual),
    *_per_kind("geodesic-{}", "{}-indicatrix geodesic curvature, closed vs oracle",
               lambda kind, spec, s: geodesic.geodesic_report(kind, spec, s).residual_closed),
    Identity("geodesic-binormal-unweighted",
             "unit-norm expansion of the binormal geodesic curvature differs "
             "from the oracle whenever kappa != 1",
             1e-5, _const_kappa, verdict=_binormal_unweighted,
             expected_discrepancy=True),
    Identity("geodesic-sphere-det",
             "determinant oracle agrees with the Gauss-equation oracle on the "
             "unit-sphere indicatrices",
             1e-5, _nonzero_kappa, verdict=_sphere_det),
    Identity("involute-tangent",
             "pole-curve tangent orthogonal to the tangent indicatrix tangent",
             1e-9, _const_kappa, verdict=partial(_involute_defect, InvolutePair.T_VS_C)),
    Identity("involute-binormal",
             "pole-curve tangent orthogonal to the binormal indicatrix tangent",
             1e-9, _const_kappa, verdict=partial(_involute_defect, InvolutePair.B_VS_C)),
    Identity("involute-normal",
             "normal-indicatrix involute defect is zero exactly for helices",
             1e-9, _const_kappa, verdict=_involute_normal),
    Identity("frame-coincidence", "modified frame equals the Frenet frame where kappa = 1",
             1e-9, _unit_kappa, residual=_coincidence),
    Identity("unit-speed", "arclength reparametrization has unit speed",
             1e-6, lambda spec: True, residual=_unit_speed),
    Identity("kappa-zero-extension",
             "|N|^2 and |B|^2 extend continuously through the curvature zero",
             1e-7, lambda spec: bool(spec.kappa_zeros), verdict=_kappa_zero_extension),
]

IDENTITY_NAMES = [i.name for i in IDENTITIES]


def run_validation(
    samples: int = 32,
    tolerance_override: float | None = None,
    only: list[str] | None = None,
    families: dict[str, CurveSpec] | None = None,
) -> ValidationReport:
    """Run every identity suite and collect a report.

    ``tolerance_override`` replaces each identity's default residual
    tolerance; ``only`` restricts to the named identities.
    """
    specs = families if families is not None else default_families()
    report = ValidationReport()
    for ident in IDENTITIES:
        if only is not None and ident.name not in only:
            continue
        names = [f for f, spec in specs.items() if ident.assumes(spec)]
        if ident.residual is not None:
            result = (*_max_over(specs, names, samples, ident.residual), None, "")
        else:
            result = ident.verdict(specs, names, samples)
            if result is None:
                continue
        residual, n_evaluated, passed, note = result
        tol = tolerance_override if tolerance_override is not None else ident.tolerance
        if passed is None:
            passed = residual <= tol
        if not n_evaluated:
            passed, note = False, "not applicable: no sample evaluated"
        report.entries.append(ValidationEntry(
            ident.name, ident.description, residual, tol, passed, n_evaluated,
            ident.expected_discrepancy, note))
    return report
