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

import enum
from dataclasses import dataclass

import numpy as np

from . import frames
from .curves import CurveSpec, arclength_grid
from .darboux import darboux
from .errors import DegenerateFrame, DegenerateIndicatrix
from .indicatrix import IndicatrixKind, indicatrix_tangent, pole_tangent_direction
from .numerics import ABS_TOL, dot


class InvolutePair(enum.Enum):
    T_VS_C = "tangent"
    B_VS_C = "binormal"
    N_VS_C = "normal"


_KIND = {
    InvolutePair.T_VS_C: IndicatrixKind.TANGENT,
    InvolutePair.B_VS_C: IndicatrixKind.BINORMAL,
    InvolutePair.N_VS_C: IndicatrixKind.NORMAL,
}


@dataclass(frozen=True)
class InvoluteReport:
    """Verdict of an orthogonality scan over an arclength grid."""

    pair: InvolutePair
    n_samples: int
    n_defined: int
    max_abs_inner: float
    is_involute: bool
    precondition_note: str


def involute_inner(pair: InvolutePair, spec: CurveSpec, s: float) -> float:
    """Orthogonality defect between the pair's indicatrix tangent and the
    pole curve's tangent at base arclength ``s``."""
    mf = frames.modified_frame(spec, s)
    dd = darboux(mf)
    t_x = indicatrix_tangent(_KIND[pair], mf, dd)
    t_c = pole_tangent_direction(mf, dd)
    if pair is InvolutePair.N_VS_C:
        # Pairing against the velocity phi' * T_C keeps the phi' = 0
        # (helix) limit meaningful: the pole curve is then a fixed point
        # and the defect vanishes.
        return dd.phi_prime * dot(t_x, t_c)
    return dot(t_x, t_c)


def involute_scan(pair: InvolutePair, spec: CurveSpec, n_samples: int) -> InvoluteReport:
    """Evaluate :func:`involute_inner` on a uniform arclength grid.

    Verdict is true iff every defined sample is within ABS_TOL of zero;
    samples where the frame or the indicatrix degenerates are skipped and
    counted, and every other error propagates.
    """
    if n_samples < 3:
        raise ValueError("need at least 3 samples")
    inners: list[float] = []
    skipped = 0
    for s in arclength_grid(spec, n_samples):
        try:
            inners.append(abs(involute_inner(pair, spec, float(s))))
        except (DegenerateIndicatrix, DegenerateFrame):
            skipped += 1
    if not inners:
        return InvoluteReport(pair, n_samples, 0, float("inf"), False,
                              "no sample had both tangents defined")
    worst = max(inners)
    note = f"{skipped} degenerate samples skipped" if skipped else "all samples defined"
    return InvoluteReport(pair, n_samples, len(inners), worst, worst <= ABS_TOL, note)
