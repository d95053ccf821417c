"""Geodesic curvatures of the four spherical indicatrices.

Each curvature is available three ways: the closed form
:func:`~modframe.indicatrix.geodesic_curvature_closed`, a Gauss-equation
oracle built from the finite-difference covariant derivative, and (for
the unit-sphere indicatrices) an independent determinant formula.  The
binormal case additionally carries a variant that expands the norm as if
N and B were unit vectors; its square exceeds the closed form's by
exactly 2 at every kappa, so it disagrees with the oracle everywhere, and
it is reported as an expected discrepancy, never silently dropped.
Every function takes one point or a batch, as the indicatrix module does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import frames
from .errors import DegenerateIndicatrix, NotOnUnitSphere, TorsionVanishes
from .frames import ModifiedFrame
from .indicatrix import (
    KINDS,
    IndicatrixKind,
    cov_deriv_numeric,
    geodesic_curvature_closed,
    indicatrix_point,
)
from .numerics import ABS_TOL, blank, det3, norm, undefined

#: Parameter spacing of the 5-point sample the determinant oracle
#: differentiates.
SPHERE_STEP = 1e-3


@dataclass(frozen=True)
class GeodesicReport:
    """Closed-form, variant and oracle geodesic curvatures at one point,
    or at each point of a batch."""

    kind: IndicatrixKind
    s: float
    gamma_closed: float
    gamma_unweighted: float | None
    gamma_oracle: float
    residual_closed: float
    residual_unweighted: float | None


@np.errstate(divide="ignore", invalid="ignore")
def geodesic_curvature_binormal_unweighted(mf: ModifiedFrame):
    """Variant sqrt(1/tau^2 + 1/kappa^2 + kappa^2) of the binormal
    geodesic curvature.

    This is what the norm expansion gives if N and B are treated as unit
    vectors; since |B| = kappa it drops the kappa^2 weight on the binormal
    component.  Its square exceeds the closed form's by exactly 2, so it
    disagrees with the numeric oracle at every kappa, kappa = 1 included.
    Kept so validation can report the discrepancy explicitly.
    """
    flat = undefined(np.abs(mf.tau) <= ABS_TOL, TorsionVanishes,
                     "binormal geodesic curvature needs tau != 0")
    k = mf.kappa
    return blank(flat, np.sqrt(1.0 / mf.tau**2 + 1.0 / k**2 + k * k))


def geodesic_curvature_oracle(kind: IndicatrixKind, spec, s):
    """Gauss-equation oracle: |D_num + point| with the covariant derivative
    from finite differences and the indicatrix position as the sphere
    normal term.  ``spec`` is a CurveSpec or a
    :class:`~modframe.frames.FrameTable` that holds the oracle's stencil.
    The covariant derivative comes first, so that kappa ~ 0 raises
    CurvatureVanishes, as the closed form does."""
    at = frames.frame_table(spec, s)
    cov = cov_deriv_numeric(kind, at, s)
    return norm((cov + indicatrix_point(kind, at(s))).T)


def geodesic_report(kind: IndicatrixKind, spec, s) -> GeodesicReport:
    at = frames.frame_table(spec, s)
    mf = at(s)
    closed = geodesic_curvature_closed(kind, mf)
    oracle = geodesic_curvature_oracle(kind, at, s)
    unweighted = residual_unweighted = None
    if KINDS[kind].unweighted:
        unweighted = geodesic_curvature_binormal_unweighted(mf)
        residual_unweighted = np.abs(unweighted - oracle)
    return GeodesicReport(
        kind, s, closed, unweighted, oracle, np.abs(closed - oracle), residual_unweighted
    )


def geodesic_curvature_sphere(points: np.ndarray, step: float):
    """Signed geodesic curvature det(g, g', g'') / |g'|^3 of a unit-sphere
    curve from uniformly spaced samples.

    ``points`` is an (m, 3) array sampled at parameter spacing ``step``
    with m >= 5 and odd, or an (m, n, 3) array of n such samples;
    fourth-order central stencils are applied at the middle sample.
    Independent of the Gauss-equation oracle: only the raw points enter.
    """
    if not 0.0 < step < np.inf:
        raise ValueError(f"step must be positive and finite, not {step:g}")
    pts = np.asarray(points, dtype=float)
    if (pts.ndim not in (2, 3) or pts.shape[-1] != 3 or pts.shape[0] < 5
            or pts.shape[0] % 2 == 0):
        raise ValueError("need an odd number (>= 5) of 3-d points")
    off = np.abs(norm(np.moveaxis(pts, -1, 0)) - 1.0)
    if np.any(off > ABS_TOL):  # a NaN sample is degenerate, not off the sphere
        raise NotOnUnitSphere(
            f"samples deviate from the unit sphere by {np.extract(off > ABS_TOL, off).max():g}"
        )
    i = pts.shape[0] // 2
    d1 = (-pts[i + 2] + 8 * pts[i + 1] - 8 * pts[i - 1] + pts[i - 2]) / (12 * step)
    d2 = (
        -pts[i + 2] + 16 * pts[i + 1] - 30 * pts[i] + 16 * pts[i - 1] - pts[i - 2]
    ) / (12 * step * step)
    speed = norm(d1.T)
    flat = undefined(speed <= ABS_TOL, DegenerateIndicatrix,
                     "sampled spherical curve has zero speed")
    with np.errstate(divide="ignore", invalid="ignore"):
        return blank(flat, det3(pts[i].T, d1.T, d2.T) / speed**3)


def sphere_stencil(s) -> np.ndarray:
    """The arclengths s + j*SPHERE_STEP, j = -2..2, at which
    :func:`geodesic_curvature_sphere_at` samples the indicatrix around
    ``s``: one row per j."""
    return np.array([s + j * SPHERE_STEP for j in range(-2, 3)])


def geodesic_curvature_sphere_at(kind: IndicatrixKind, spec, s):
    """Determinant oracle evaluated on a local 5-point sample of a
    unit-sphere indicatrix (a kind whose row is ``on_unit_sphere``), at
    ``s`` (a float or an array).  ``spec`` is a CurveSpec, tabled here over
    :func:`sphere_stencil`, or a :class:`~modframe.frames.FrameTable` that holds it."""
    if not KINDS[kind].on_unit_sphere:
        raise NotOnUnitSphere(f"{kind.value} indicatrix does not lie on the unit sphere")
    xs = sphere_stencil(s)
    at = spec if isinstance(spec, frames.FrameTable) else frames.FrameTable(spec, xs)
    points = np.array([indicatrix_point(kind, at(x)) for x in xs])
    return geodesic_curvature_sphere(points, SPHERE_STEP)
