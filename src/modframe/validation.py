"""Whole-library identity validation.

Runs every closed-form identity against its numerical oracle across the
built-in curve families and collects the residuals into a machine
readable report.  One entry, the unweighted binormal geodesic curvature,
is a known algebraic discrepancy: it is reported with its measured gap
and marked ``expected_discrepancy`` instead of counting as a failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import curves, frames, geodesic, indicatrix, involute
from .curves import CurveSpec
from .darboux import check_alignment, darboux, rotation_residuals
from .errors import DegenerateIndicatrix, ModFrameError, TorsionVanishes
from .indicatrix import IndicatrixKind
from .involute import InvolutePair
from .numerics import DEFAULT_TOL, Tolerance, dot, norm


@dataclass(frozen=True)
class ValidationEntry:
    """One identity's verdict: worst residual against its tolerance."""

    name: str
    description: str
    max_residual: float
    tolerance: float
    passed: bool
    expected_discrepancy: bool = False
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "expected_discrepancy": self.expected_discrepancy,
            "note": self.note,
        }


@dataclass
class ValidationReport:
    entries: list[ValidationEntry] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries if not e.expected_discrepancy)

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


def _grids(specs: dict[str, CurveSpec], names, n: int):
    for name in names:
        spec = specs[name]
        for s in curves.arclength_grid(spec, n):
            yield name, spec, float(s)


def _max_over(specs, names, n, fn) -> float:
    worst = 0.0
    for _, spec, s in _grids(specs, names, n):
        try:
            worst = max(worst, fn(spec, s))
        except (DegenerateIndicatrix, TorsionVanishes):
            continue
    return worst


def run_validation(
    samples: int = 32,
    tolerance_override: float | None = None,
    only: list[str] | None = None,
    families: dict[str, CurveSpec] | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> ValidationReport:
    """Run every identity suite and collect a report.

    ``tolerance_override`` replaces each identity's default residual
    tolerance; ``only`` restricts to the named identities.
    """
    specs = families if families is not None else default_families()
    report = ValidationReport()

    def add(name, description, residual, default_tol,
            expected_discrepancy=False, note="", passed=None):
        if only is not None and name not in only:
            return
        use_tol = tolerance_override if tolerance_override is not None else default_tol
        ok = passed if passed is not None else residual <= use_tol
        report.entries.append(
            ValidationEntry(name, description, residual, use_tol, ok,
                            expected_discrepancy, note)
        )

    def wanted(name):
        return only is None or name in only

    # Each identity runs on the curves whose properties it assumes.
    avail = list(specs)
    kappa = {name: sp.constant_kappa for name, sp in specs.items()}
    const_k = [f for f in avail if kappa[f] is not None and kappa[f] > 0.0]
    nonzero_k = [f for f in avail
                 if f in const_k or (kappa[f] is None and not specs[f].kappa_zeros)]
    unit_k = [f for f in const_k if abs(kappa[f] - 1.0) < 1e-12]

    if wanted("frame-ode"):
        add("frame-ode",
            "finite-difference frame derivatives match the derivative matrix",
            _max_over(specs, nonzero_k, samples,
                      lambda sp, s: frames.check_frame_ode(sp, s, tol).max_residual),
            1e-5)

    if wanted("metric-relations"):
        worst = 0.0
        for spec in specs.values():
            for s in curves.frenet_arclength_grid(spec, samples):
                worst = max(worst, frames.metric_residual(spec, float(s), tol))
        add("metric-relations",
            "frame inner products equal (1, k^2, k^2, 0, 0, 0)",
            worst, 1e-9)

    if wanted("darboux-alignment"):
        add("darboux-alignment",
            "N x N' = k^2 w against the finite-difference N'",
            _max_over(specs, const_k, samples,
                      lambda sp, s: check_alignment(sp, s, tol=tol)),
            1e-5)

    if wanted("darboux-rotation"):
        add("darboux-rotation",
            "X' = w x X for X in {T, N, B} on constant-curvature curves",
            _max_over(specs, const_k, samples,
                      lambda sp, s: max(rotation_residuals(sp, s, tol=tol))),
            1e-5)

    if wanted("lancret-angle"):
        def lancret(sp, s):
            mf = frames.modified_frame(sp, s, tol)
            dd = darboux(mf, tol=tol)
            return max(
                abs(math.sin(dd.phi) * dd.w_norm - mf.tau),
                abs(math.cos(dd.phi) * dd.w_norm - mf.kappa),
                abs(dd.w_norm - math.hypot(mf.kappa, mf.tau)),
            )
        add("lancret-angle",
            "sin(phi)|w| = tau and cos(phi)|w| = kappa",
            _max_over(specs, const_k, samples, lancret), 1e-9)

    cov_cases = [
        ("tangent-ind-covderiv", IndicatrixKind.TANGENT, nonzero_k,
         "tangent-indicatrix covariant derivative, closed vs oracle"),
        ("normal-ind-covderiv", IndicatrixKind.NORMAL, const_k,
         "normal-indicatrix covariant derivative, closed vs oracle"),
        ("binormal-ind-covderiv", IndicatrixKind.BINORMAL, const_k,
         "binormal-indicatrix covariant derivative, closed vs oracle"),
        ("pole-ind-covderiv", IndicatrixKind.POLE, const_k,
         "pole-indicatrix covariant derivative, closed vs oracle"),
    ]
    for name, kind, fams, desc in cov_cases:
        if not wanted(name):
            continue

        def cov_residual(sp, s, kind=kind):
            mf = frames.modified_frame(sp, s, tol)
            dd = darboux(mf, tol=tol) if kind is not IndicatrixKind.TANGENT else None
            closed = indicatrix.cov_deriv_closed(kind, mf, dd, tol=tol)
            numeric = indicatrix.cov_deriv_numeric(kind, sp, s, tol=tol)
            return norm(closed - numeric)

        add(name, desc, _max_over(specs, fams, samples, cov_residual), 1e-5)

    tangent_cases = [
        ("tangent-ind-tangent", IndicatrixKind.TANGENT, nonzero_k),
        ("normal-ind-tangent", IndicatrixKind.NORMAL, const_k),
        ("binormal-ind-tangent", IndicatrixKind.BINORMAL, const_k),
        ("pole-ind-tangent", IndicatrixKind.POLE, const_k),
    ]
    for name, kind, fams in tangent_cases:
        if not wanted(name):
            continue

        def tangent_residual(sp, s, kind=kind):
            mf = frames.modified_frame(sp, s, tol)
            dd = darboux(mf, tol=tol) if kind is not IndicatrixKind.TANGENT else None
            closed = indicatrix.indicatrix_tangent(kind, mf, dd, tol=tol)
            rate = indicatrix._signed_rate(kind, mf, dd)
            if abs(rate) <= 1e-6:
                raise DegenerateIndicatrix("skip near-degenerate sample")

            def point_at(x, kind=kind):
                f = frames.modified_frame(sp, x, tol)
                d = darboux(f, tol=tol) if kind is not IndicatrixKind.TANGENT else None
                return indicatrix.indicatrix_point(kind, f, d)

            from . import numerics
            fd = numerics.diff_vec(point_at, s, tol=tol) / rate
            return norm(closed - fd)

        add(name, f"{kind.value}-indicatrix unit tangent vs differentiated point",
            _max_over(specs, fams, samples, tangent_residual), 1e-5)

    geo_cases = [
        ("geodesic-tangent", IndicatrixKind.TANGENT, nonzero_k),
        ("geodesic-normal", IndicatrixKind.NORMAL, const_k),
        ("geodesic-binormal", IndicatrixKind.BINORMAL, const_k),
        ("geodesic-pole", IndicatrixKind.POLE, const_k),
    ]
    for name, kind, fams in geo_cases:
        if not wanted(name):
            continue

        def geo_residual(sp, s, kind=kind):
            return geodesic.geodesic_report(kind, sp, s, tol=tol).residual_closed

        add(name, f"{kind.value}-indicatrix geodesic curvature, closed vs oracle",
            _max_over(specs, fams, samples, geo_residual), 1e-5)

    if wanted("geodesic-binormal-unweighted"):
        gaps = []
        for _, sp, s in _grids(specs, const_k, samples):
            try:
                rep = geodesic.geodesic_report(IndicatrixKind.BINORMAL, sp, s, tol=tol)
            except (DegenerateIndicatrix, TorsionVanishes):
                continue
            if abs(rep.gamma_oracle) > 0 and frames.modified_frame(sp, s, tol).kappa != 1.0:
                gaps.append(rep.residual_unweighted)
        gap = max(gaps) if gaps else 0.0
        add("geodesic-binormal-unweighted",
            "unit-norm expansion of the binormal geodesic curvature differs "
            "from the oracle whenever kappa != 1",
            gap, 1e-5, expected_discrepancy=True, passed=True,
            note="known algebraic discrepancy; oracle arbitrates")

    if wanted("geodesic-sphere-det"):
        def det_residual(sp, s, kind):
            det = geodesic.geodesic_curvature_sphere_at(kind, sp, s, tol=tol)
            oracle = geodesic.geodesic_curvature_oracle(kind, sp, s, tol=tol)
            return abs(abs(det) - oracle)

        worst = 0.0
        for fams, kind in ((nonzero_k, IndicatrixKind.TANGENT),
                           (const_k, IndicatrixKind.POLE)):
            worst = max(worst, _max_over(
                specs, fams, max(samples // 2, 4),
                lambda sp, s, kind=kind: det_residual(sp, s, kind)))
        add("geodesic-sphere-det",
            "determinant oracle agrees with the Gauss-equation oracle on the "
            "unit-sphere indicatrices",
            worst, 1e-5)

    inv_cases = [
        ("involute-tangent", InvolutePair.T_VS_C, const_k),
        ("involute-binormal", InvolutePair.B_VS_C, const_k),
    ]
    for name, pair, fams in inv_cases:
        if not wanted(name):
            continue
        worst = 0.0
        for fam in fams:
            rep = involute.involute_scan(pair, specs[fam], samples, tol=tol)
            worst = max(worst, rep.max_abs_inner if rep.n_defined else 0.0)
        add(name, f"pole-curve tangent orthogonal to the {pair.value} indicatrix tangent",
            worst, 1e-9)

    helices = [specs[f] for f in const_k if specs[f].family == "helix"]
    if wanted("involute-normal") and helices:
        helix_defect = max(
            involute.involute_scan(InvolutePair.N_VS_C, sp, samples, tol=tol).max_abs_inner
            for sp in helices)
        note = "helix defect vanishes with phi'"
        ok = helix_defect <= 1e-9
        for sp in [sp for sp in specs.values() if sp.family == "salkowski"]:
            salk_rep = involute.involute_scan(InvolutePair.N_VS_C, sp, samples, tol=tol)
            ok = ok and salk_rep.max_abs_inner > 1e-3
            note += f"; varying-torsion defect reaches {salk_rep.max_abs_inner:.3g}"
        add("involute-normal",
            "normal-indicatrix involute defect is zero exactly for helices",
            helix_defect, 1e-9, passed=ok, note=note)

    if wanted("frame-coincidence"):
        def coincidence(sp, s):
            mf = frames.modified_frame(sp, s, tol)
            ff = frames.frenet_frame(sp, s, tol)
            return max(norm(mf.T - ff.t_vec), norm(mf.N - ff.n_vec * ff.kappa),
                       norm(mf.B - ff.b_vec * ff.kappa),
                       norm(mf.N - ff.n_vec) if abs(ff.kappa - 1) < 1e-12 else 0.0)

        add("frame-coincidence",
            "modified frame equals the Frenet frame where kappa = 1",
            _max_over(specs, unit_k, samples, coincidence), 1e-9)

    if wanted("unit-speed"):
        from . import numerics

        def unit_speed(sp, s):
            fd = numerics.diff_vec(lambda x: curves.position_at_arclength(sp, x), s, tol=tol)
            return abs(norm(fd) - 1.0)

        add("unit-speed",
            "arclength reparametrization has unit speed",
            _max_over(specs, avail, samples, unit_speed), 1e-6)

    with_zeros = [sp for sp in specs.values() if sp.kappa_zeros]
    if wanted("kappa-zero-extension") and with_zeros:
        worst, zero_ok = 0.0, True
        for sp in with_zeros:
            for s in curves.arclength_grid(sp, samples):
                mf = frames.modified_frame(sp, float(s), tol)
                jet = sp.jet(curves.at_arclength(sp, float(s), tol))
                k2 = frames.curvature(jet) ** 2
                worst = max(worst, abs(dot(mf.N, mf.N) - k2), abs(dot(mf.B, mf.B) - k2))
            for t0 in sp.kappa_zeros:
                mf0 = frames.modified_frame(sp, curves.arclength(sp, sp.t_lo, t0), tol)
                zero_ok = zero_ok and norm(mf0.N) <= 1e-6 and norm(mf0.B) <= 1e-6
        add("kappa-zero-extension",
            "|N|^2 and |B|^2 extend continuously through the curvature zero",
            worst, 1e-7, passed=(worst <= 1e-7 and zero_ok),
            note="N = B = 0 at the zero itself")

    return report


IDENTITY_NAMES = [
    "frame-ode", "metric-relations", "darboux-alignment", "darboux-rotation",
    "lancret-angle",
    "tangent-ind-covderiv", "normal-ind-covderiv", "binormal-ind-covderiv",
    "pole-ind-covderiv",
    "tangent-ind-tangent", "normal-ind-tangent", "binormal-ind-tangent",
    "pole-ind-tangent",
    "geodesic-tangent", "geodesic-normal", "geodesic-binormal", "geodesic-pole",
    "geodesic-binormal-unweighted", "geodesic-sphere-det",
    "involute-tangent", "involute-binormal", "involute-normal",
    "frame-coincidence", "unit-speed", "kappa-zero-extension",
]
