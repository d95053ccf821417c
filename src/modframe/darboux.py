"""Darboux vector, Lancret angle and pole direction of the modified frame.

The rotation vector w = tau*T + B only satisfies X' = w x X when the
curvature is constant, so every operation here is gated on |kappa'|.
Each function takes one frame or a batch (fields with a leading axis of
points); the gate refuses a batch if any of its points fails it.
:func:`darboux` is the one builder: readers ask for ``mf.darboux``, which a
frame builds on the first read and keeps, read-only.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import frames, numerics
from .errors import DegenerateFrame, NonConstantCurvature
from .frames import ModifiedFrame
from .numerics import ABS_TOL, Vec3, _read_only, blank, cross, norm, undefined

#: Width of the |kappa'| gate below which curvature counts as constant.
CONST_KAPPA_GATE = 1e-6


class DarbouxData(NamedTuple):
    """Rotation vector w, its norm, the Lancret angle and pole direction."""

    w: Vec3
    w_norm: float
    phi: float
    phi_prime: float
    C: Vec3


def _require_constant_kappa(mf: ModifiedFrame) -> None:
    rate = np.abs(mf.kappa_prime)
    over = rate > CONST_KAPPA_GATE
    if over.any():
        raise NonConstantCurvature(
            f"|kappa'| = {np.extract(over, rate)[0]:g} exceeds the constant-curvature "
            f"gate {CONST_KAPPA_GATE:g}"
        )


@np.errstate(divide="ignore", invalid="ignore")
def darboux(mf: ModifiedFrame) -> DarbouxData:
    """Darboux data of a constant-curvature curve, at one frame or a batch.

    phi is the quadrant-correct angle between B and w (atan2 of tau against
    kappa), and phi' = tau' * kappa / (kappa^2 + tau^2) -- the kappa' term
    of the general quotient rule vanishes under the gate.  Undefined where
    kappa ~ 0: one frame raises DegenerateFrame, a batch gives NaN there.
    """
    flat = undefined(mf.kappa <= ABS_TOL, DegenerateFrame,
                     "Darboux vector undefined where kappa ~ 0")
    _require_constant_kappa(mf)
    w = (mf.tau * mf.T.T + mf.B.T).T
    w_norm = np.hypot(mf.kappa, mf.tau)
    phi = np.arctan2(mf.tau, mf.kappa)
    phi_prime = mf.tau_prime * mf.kappa / (mf.kappa**2 + mf.tau**2)
    C = (w.T / w_norm).T
    return DarbouxData(*_read_only(*(blank(flat, v) for v in (w, w_norm, phi, phi_prime, C))))


def check_alignment(spec, s):
    """Residual |N x N' - kappa^2 w| at ``s`` (a float or an array) with N'
    from the finite-difference oracle.  ``spec`` is a CurveSpec or a
    :class:`~modframe.frames.FrameTable` that holds the oracle's stencil."""
    at = frames.frame_table(spec, s)
    mf = at(s)
    w = mf.darboux.w
    fd_N = numerics.diff_vec(lambda x: at(x).N, s)
    return norm(cross(mf.N.T, fd_N.T) - mf.kappa**2 * w.T)


def rotation_residuals(spec, s):
    """Residuals of X' = w x X for X in {T, N, B} at ``s`` (a float or an
    array), with X' from the finite-difference oracle."""
    at = frames.frame_table(spec, s)
    mf = at(s)
    w = mf.darboux.w
    return tuple(
        norm(numerics.diff_vec(lambda x: getattr(at(x), name), s).T
             - cross(w.T, getattr(mf, name).T))
        for name in "TNB")
