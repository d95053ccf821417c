"""Darboux vector, Lancret angle and pole direction of the modified frame.

The rotation vector w = tau*T + B only satisfies X' = w x X when the
curvature is constant, so every operation here is gated on |kappa'|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import frames, numerics
from .curves import CurveSpec
from .errors import DegenerateFrame, NonConstantCurvature
from .frames import ModifiedFrame
from .numerics import ABS_TOL, Vec3, cross, norm

#: Width of the |kappa'| gate below which curvature counts as constant.
CONST_KAPPA_GATE = 1e-6


@dataclass(frozen=True)
class DarbouxData:
    """Rotation vector w, its norm, the Lancret angle and pole direction."""

    w: Vec3
    w_norm: float
    phi: float
    phi_prime: float
    C: Vec3


def _require_constant_kappa(mf: ModifiedFrame) -> None:
    if abs(mf.kappa_prime) > CONST_KAPPA_GATE:
        raise NonConstantCurvature(
            f"|kappa'| = {abs(mf.kappa_prime):g} exceeds the constant-curvature "
            f"gate {CONST_KAPPA_GATE:g}"
        )


def darboux(mf: ModifiedFrame) -> DarbouxData:
    """Darboux data at a point of a constant-curvature curve.

    phi is the quadrant-correct angle between B and w (atan2 of tau against
    kappa), and phi' = tau' * kappa / (kappa^2 + tau^2) -- the kappa' term
    of the general quotient rule vanishes under the gate.
    """
    if mf.kappa <= ABS_TOL:
        raise DegenerateFrame("Darboux vector undefined where kappa ~ 0")
    _require_constant_kappa(mf)
    w = mf.tau * mf.T + mf.B
    w_norm = math.hypot(mf.kappa, mf.tau)
    phi = math.atan2(mf.tau, mf.kappa)
    phi_prime = mf.tau_prime * mf.kappa / (mf.kappa**2 + mf.tau**2)
    return DarbouxData(w, w_norm, phi, phi_prime, w / w_norm)


def check_alignment(spec: CurveSpec, s: float) -> float:
    """Residual |N x N' - kappa^2 w| with N' from the finite-difference
    oracle."""
    mf = frames.modified_frame(spec, s)
    dd = darboux(mf)
    fd_N = numerics.diff_vec(lambda x: frames.modified_frame(spec, x).N, s)
    return norm(cross(mf.N, fd_N) - mf.kappa**2 * dd.w)


def rotation_residuals(spec: CurveSpec, s: float) -> tuple[float, float, float]:
    """Residuals of X' = w x X for X in {T, N, B}, with X' from the
    finite-difference oracle."""
    mf = frames.modified_frame(spec, s)
    dd = darboux(mf)
    out = []
    for pick in (lambda f: f.T, lambda f: f.N, lambda f: f.B):
        fd = numerics.diff_vec(lambda x: pick(frames.modified_frame(spec, x)), s)
        out.append(norm(fd - cross(dd.w, pick(mf))))
    return tuple(out)
