"""Spherical-involute relationships between the pole indicatrix and the
tangent/normal/binormal indicatrices.

A spherical curve is an involute of another when their tangents are
orthogonal at corresponding points.  For the tangent and binormal pairs
the inner product of the unit tangents vanishes identically on
constant-curvature curves, so unit directions are compared (with the
limit direction of the pole tangent when the pole curve collapses to a
point).  For the normal pair orthogonality holds exactly when phi' = 0,
so the pole curve's actual velocity phi' * T_C is used; the result is
then zero for helices and of order phi' otherwise.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import frames
from .curves import arclength_grid
from .indicatrix import IndicatrixKind, indicatrix_tangent, pole_tangent_direction
from .numerics import ABS_TOL, dot

#: The fewest grid samples a scan takes, and so a validation run takes.
MIN_SAMPLES = 3


class InvoluteReport(NamedTuple):
    """Verdict of an orthogonality scan over an arclength grid."""

    kind: IndicatrixKind
    n_samples: int
    n_defined: int
    max_abs_inner: float
    is_involute: bool
    precondition_note: str


def involute_inner(kind: IndicatrixKind, spec, s):
    """Orthogonality defect between the ``kind`` indicatrix's tangent and
    the pole curve's tangent at base arclength ``s`` (a float, or an array
    with NaN where a tangent is undefined)."""
    if kind is IndicatrixKind.POLE:
        raise ValueError("the pole indicatrix is not paired with itself")
    mf = frames.frames_at(spec, s)
    t_c = pole_tangent_direction(mf)
    inner = dot(indicatrix_tangent(kind, mf).T, t_c.T)
    if kind is IndicatrixKind.NORMAL:
        # Pairing against the velocity phi' * T_C keeps the phi' = 0
        # (helix) limit meaningful: the pole curve is then a fixed point
        # and the defect vanishes.
        return mf.darboux.phi_prime * inner
    return inner


def involute_scan(kind: IndicatrixKind, spec, n_samples: int) -> InvoluteReport:
    """Evaluate :func:`involute_inner` on a uniform arclength grid of
    ``spec`` (a CurveSpec, or a :class:`~modframe.frames.FrameTable` that
    holds that grid).

    Verdict is true iff every defined sample is within ABS_TOL of zero;
    samples where the frame or the indicatrix degenerates are skipped and
    counted, and every error propagates.
    """
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples")
    inner = np.abs(involute_inner(kind, spec, arclength_grid(frames.curve_of(spec), n_samples)))
    defined = inner[~np.isnan(inner)]
    if not defined.size:
        return InvoluteReport(kind, n_samples, 0, float("inf"), False,
                              "no sample had both tangents defined")
    worst = float(defined.max())
    skipped = n_samples - defined.size
    note = f"{skipped} degenerate samples skipped" if skipped else "all samples defined"
    return InvoluteReport(kind, n_samples, int(defined.size), worst, worst <= ABS_TOL, note)
