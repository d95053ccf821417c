"""Geodesic curvatures of the four spherical indicatrices.

Each curvature is available three ways: a closed form, a Gauss-equation
oracle built from the finite-difference covariant derivative, and (for
the unit-sphere indicatrices) an independent determinant formula.  The
binormal case additionally carries a variant that expands the norm as if
N and B were unit vectors; it disagrees with the oracle whenever
kappa != 1 and is reported as an expected discrepancy, never silently
dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import frames
from .curves import CurveSpec
from .darboux import DarbouxData, darboux
from .errors import DegenerateIndicatrix, NotOnUnitSphere, TorsionVanishes
from .frames import ModifiedFrame
from .indicatrix import IndicatrixKind, cov_deriv_numeric, indicatrix_point
from .numerics import ABS_TOL, Vec3, det3, norm

#: Parameter spacing of the 5-point sample the determinant oracle
#: differentiates.
SPHERE_STEP = 1e-3


@dataclass(frozen=True)
class GeodesicReport:
    """Closed-form, variant and oracle geodesic curvatures at one point."""

    kind: IndicatrixKind
    s: float
    gamma_closed: float
    gamma_unweighted: float | None
    gamma_oracle: float
    residual_closed: float
    residual_unweighted: float | None


def geodesic_curvature_closed(
    kind: IndicatrixKind, mf: ModifiedFrame, dd: DarbouxData | None = None
) -> float:
    """Closed-form geodesic curvature (a nonnegative norm).

    tangent:  |tau| / kappa
    normal:   sqrt((phi'/(kappa |w|))^2 + ((kappa^2 - 1)/kappa)^2)
    binormal: sqrt(1/tau^2 + (kappa^2 - 1)^2 / kappa^2)
    pole:     |w| / |phi'|
    """
    if dd is None and kind is not IndicatrixKind.TANGENT:
        dd = darboux(mf)
    k = mf.kappa
    if kind is IndicatrixKind.TANGENT:
        return abs(mf.tau) / k
    if kind is IndicatrixKind.NORMAL:
        return math.hypot(dd.phi_prime / (k * dd.w_norm), (k * k - 1.0) / k)
    if kind is IndicatrixKind.BINORMAL:
        if abs(mf.tau) <= ABS_TOL:
            raise TorsionVanishes("binormal geodesic curvature needs tau != 0")
        return math.hypot(1.0 / mf.tau, (k * k - 1.0) / k)
    if abs(dd.phi_prime) <= ABS_TOL:
        raise DegenerateIndicatrix("pole geodesic curvature needs phi' != 0")
    return dd.w_norm / abs(dd.phi_prime)


def geodesic_curvature_binormal_unweighted(mf: ModifiedFrame) -> float:
    """Variant sqrt(1/tau^2 + 1/kappa^2 + kappa^2) of the binormal
    geodesic curvature.

    This is what the norm expansion gives if N and B are treated as unit
    vectors; since |B| = kappa it drops the kappa^2 weight on the binormal
    component and disagrees with the numeric oracle whenever kappa != 1.
    Kept so validation can report the discrepancy explicitly.
    """
    if abs(mf.tau) <= ABS_TOL:
        raise TorsionVanishes("binormal geodesic curvature needs tau != 0")
    k = mf.kappa
    return math.sqrt(1.0 / mf.tau**2 + 1.0 / k**2 + k * k)


def geodesic_curvature_oracle(kind: IndicatrixKind, spec: CurveSpec, s: float) -> float:
    """Gauss-equation oracle: |D_num + point| with the covariant derivative
    from finite differences and the indicatrix position as the sphere
    normal term."""
    mf = frames.modified_frame(spec, s)
    dd = darboux(mf) if kind is not IndicatrixKind.TANGENT else None
    point = indicatrix_point(kind, mf, dd)
    d_num = cov_deriv_numeric(kind, spec, s)
    return norm(d_num + point)


def geodesic_report(kind: IndicatrixKind, spec: CurveSpec, s: float) -> GeodesicReport:
    mf = frames.modified_frame(spec, s)
    dd = darboux(mf) if kind is not IndicatrixKind.TANGENT else None
    closed = geodesic_curvature_closed(kind, mf, dd)
    oracle = geodesic_curvature_oracle(kind, spec, s)
    unweighted = None
    residual_unweighted = None
    if kind is IndicatrixKind.BINORMAL:
        unweighted = geodesic_curvature_binormal_unweighted(mf)
        residual_unweighted = abs(unweighted - oracle)
    return GeodesicReport(
        kind, s, closed, unweighted, oracle, abs(closed - oracle), residual_unweighted
    )


def geodesic_curvature_sphere(points: np.ndarray, step: float) -> float:
    """Signed geodesic curvature det(g, g', g'') / |g'|^3 of a unit-sphere
    curve from uniformly spaced samples.

    ``points`` is an (n, 3) array sampled at parameter spacing ``step``
    with n >= 5 and odd; fourth-order central stencils are applied at the
    middle sample.  Independent of the Gauss-equation oracle: only the
    raw points enter.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 5 or pts.shape[0] % 2 == 0:
        raise ValueError("need an odd number (>= 5) of 3-d points")
    radii = np.sqrt((pts * pts).sum(axis=1))
    if np.max(np.abs(radii - 1.0)) > ABS_TOL:
        raise NotOnUnitSphere(
            f"samples deviate from the unit sphere by {np.max(np.abs(radii - 1.0)):g}"
        )
    i = pts.shape[0] // 2
    d1 = (-pts[i + 2] + 8 * pts[i + 1] - 8 * pts[i - 1] + pts[i - 2]) / (12 * step)
    d2 = (
        -pts[i + 2] + 16 * pts[i + 1] - 30 * pts[i] + 16 * pts[i - 1] - pts[i - 2]
    ) / (12 * step * step)
    speed = norm(d1)
    if speed <= ABS_TOL:
        raise DegenerateIndicatrix("sampled spherical curve has zero speed")
    return det3(pts[i], d1, d2) / speed**3


def geodesic_curvature_sphere_at(kind: IndicatrixKind, spec: CurveSpec, s: float) -> float:
    """Determinant oracle evaluated on a local 5-point sample of a
    unit-sphere indicatrix (tangent or pole kinds only)."""
    if kind not in (IndicatrixKind.TANGENT, IndicatrixKind.POLE):
        raise NotOnUnitSphere(
            f"{kind.value} indicatrix does not lie on the unit sphere"
        )

    def point_at(x: float) -> Vec3:
        mf = frames.modified_frame(spec, x)
        dd = darboux(mf) if kind is IndicatrixKind.POLE else None
        return indicatrix_point(kind, mf, dd)

    pts = np.array([point_at(s + j * SPHERE_STEP) for j in range(-2, 3)])
    return geodesic_curvature_sphere(pts, SPHERE_STEP)
