"""Geodesic curvatures of the four spherical indicatrices.

Each curvature is available three ways: the closed form
:func:`~modframe.indicatrix.geodesic_curvature_closed`, a Gauss-equation
oracle built from the finite-difference covariant derivative, and (for
the unit-sphere indicatrices) the determinant det(g, g', g'') / |g'|^3.  The
binormal case additionally carries a variant that expands the norm as if
N and B were unit vectors; its square exceeds the closed form's by
exactly 2 at every kappa, so it disagrees with the oracle everywhere, and
it is reported as an expected discrepancy, never silently dropped.
Every function takes one point or a batch, as the indicatrix module does.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import frames, numerics
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

#: Spacing of the determinant oracle's stencil points: its
#: :func:`~modframe.numerics.diff_vec` steps 2 * SPHERE_STEP.
SPHERE_STEP = 1e-3
#: Its stencil (order, step), g'' and g' from the same points: at ``s`` it
#: reads the arclengths ``numerics.stencil(s, *SPHERE_STENCIL)``.
SPHERE_STENCIL = (2, 2 * SPHERE_STEP)


class GeodesicReport(NamedTuple):
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


def geodesic_curvature_sphere(g, g1, g2):
    """Signed geodesic curvature det(g, g', g'') / |g'|^3 of a unit-sphere
    curve from its point ``g`` and derivatives ``g1`` and ``g2``, each a
    (3,) vector or an (n, 3) array of n points.  Independent of the
    Gauss-equation oracle: only the curve and its derivatives enter.
    """
    g, g1, g2 = (np.asarray(v, dtype=float).T for v in (g, g1, g2))
    off = np.abs(norm(g) - 1.0)
    if np.any(off > ABS_TOL):  # a NaN point is degenerate, not off the sphere
        raise NotOnUnitSphere(f"points deviate from the unit sphere by {np.nanmax(off):g}")
    speed = norm(g1)
    flat = undefined(speed <= ABS_TOL, DegenerateIndicatrix,
                     "spherical curve has zero speed")
    with np.errstate(divide="ignore", invalid="ignore"):
        return blank(flat, det3(g, g1, g2) / speed**3)


def geodesic_curvature_sphere_at(kind: IndicatrixKind, spec, s):
    """Determinant oracle on a unit-sphere indicatrix (a kind whose row is
    ``on_unit_sphere``) at ``s`` (a float or an array), with g' and g''
    from :func:`~modframe.numerics.diff_vec` at step 2 * SPHERE_STEP.
    ``spec`` is a CurveSpec, tabled over that stencil by
    :func:`~modframe.frames.frame_table`, or a FrameTable that holds it."""
    if not KINDS[kind].on_unit_sphere:
        raise NotOnUnitSphere(f"{kind.value} indicatrix does not lie on the unit sphere")
    at = frames.frame_table(spec, s, *SPHERE_STENCIL)
    point = lambda x: indicatrix_point(kind, at(x))
    g1, g2 = (numerics.diff_vec(point, s, k, SPHERE_STENCIL[1]) for k in (1, 2))
    return geodesic_curvature_sphere(point(s), g1, g2)
