"""The four spherical representations of a curve: tangent, normal,
binormal and pole indicatrices.

For each kind this module provides the point on the sphere, the rate of
its arclength against the base curve's, the unit tangent, and the
covariant derivative of that tangent -- in closed form and as a
finite-difference oracle.  Closed forms for the normal, binormal and pole
indicatrices are only valid for constant curvature; the tangent
indicatrix works for varying curvature too (the kappa' terms cancel).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import frames, numerics
from .darboux import DarbouxData, _require_constant_kappa, darboux
from .errors import CurvatureVanishes, DegenerateIndicatrix, TorsionVanishes
from .frames import ModifiedFrame
from .numerics import ABS_TOL, Vec3, blank, undefined

#: Speeds below this flag the sample as degenerate instead of producing
#: huge tangents.
DEGENERACY_THRESHOLD = 1e-8


class IndicatrixKind(enum.Enum):
    TANGENT = "tangent"
    NORMAL = "normal"
    BINORMAL = "binormal"
    POLE = "pole"


@dataclass(frozen=True)
class IndicatrixSample:
    """Full record of one spherical representation, at one point or at
    each point of a batch.  At one degenerate point the tangent and the
    covariant derivative are None; over a batch their degenerate rows are
    NaN."""

    kind: IndicatrixKind
    s: float
    point: Vec3
    speed: float
    unit_tangent: Vec3 | None
    cov_deriv: Vec3 | None
    degenerate: bool


def _needs_constant_kappa(kind: IndicatrixKind) -> bool:
    return kind is not IndicatrixKind.TANGENT


def _gate(kind: IndicatrixKind, mf: ModifiedFrame) -> None:
    if _needs_constant_kappa(kind):
        _require_constant_kappa(mf)


def indicatrix_point(
    kind: IndicatrixKind, mf: ModifiedFrame, dd: DarbouxData | None = None
) -> Vec3:
    """Point of the indicatrix: T, N, B or the pole direction C.

    N and B are kept at radius kappa, not normalized to the unit sphere.
    Like every closed form here, it takes one frame or a batch.
    """
    _gate(kind, mf)
    if kind is IndicatrixKind.TANGENT:
        return mf.T
    if kind is IndicatrixKind.NORMAL:
        return mf.N
    if kind is IndicatrixKind.BINORMAL:
        return mf.B
    if dd is None:
        dd = darboux(mf)
    return dd.C


def indicatrix_speed(
    kind: IndicatrixKind, mf: ModifiedFrame, dd: DarbouxData | None = None
):
    """Nonnegative arclength rate ds_X/ds of the indicatrix."""
    return np.abs(_signed_rate(kind, mf, dd))


def _signed_rate(kind: IndicatrixKind, mf: ModifiedFrame, dd: DarbouxData | None = None):
    # Signed rates follow the closed-form derivations (kappa, kappa*|w|,
    # kappa*tau, phi'); the sign keeps orientation consistent between the
    # closed forms and the numeric oracle when tau or phi' is negative.
    _gate(kind, mf)
    if kind is IndicatrixKind.TANGENT:
        return mf.kappa
    if kind is IndicatrixKind.NORMAL:
        return mf.kappa * np.hypot(mf.kappa, mf.tau)
    if kind is IndicatrixKind.BINORMAL:
        return mf.kappa * mf.tau
    if dd is None:
        dd = darboux(mf)
    return dd.phi_prime


@np.errstate(divide="ignore", invalid="ignore")
def indicatrix_tangent(
    kind: IndicatrixKind, mf: ModifiedFrame, dd: DarbouxData | None = None
) -> Vec3:
    """Unit tangent of the indicatrix; undefined where its speed vanishes
    (DegenerateIndicatrix at one point, NaN over a batch)."""
    rate = _signed_rate(kind, mf, dd)
    flat = undefined(np.abs(rate) <= ABS_TOL, DegenerateIndicatrix,
                     "{} indicatrix has speed {:g} here", kind.value, np.abs(rate))
    N = mf.N.T  # component-first
    if kind is IndicatrixKind.TANGENT:
        tangent = N / mf.kappa
    elif kind is IndicatrixKind.BINORMAL:
        tangent = -N / mf.kappa
    else:
        if dd is None:
            dd = darboux(mf)
        if kind is IndicatrixKind.POLE:
            return blank(flat, pole_tangent_direction(mf, dd))
        cphi, sphi = np.cos(dd.phi), np.sin(dd.phi)
        tangent = -cphi * mf.T.T + (sphi / mf.kappa) * mf.B.T
    return blank(flat, tangent.T)


def pole_tangent_direction(mf: ModifiedFrame, dd: DarbouxData) -> Vec3:
    """Unit direction cos(phi) T - (sin(phi)/kappa) B of the pole curve's
    tangent.  Stays well defined as phi' -> 0, where the pole indicatrix
    itself collapses to a point; used as the limit tangent in that case."""
    cphi, sphi = np.cos(dd.phi), np.sin(dd.phi)
    return (cphi * mf.T.T - (sphi / mf.kappa) * mf.B.T).T


@np.errstate(divide="ignore", invalid="ignore")
def cov_deriv_closed(
    kind: IndicatrixKind, mf: ModifiedFrame, dd: DarbouxData | None = None
) -> Vec3:
    """Closed-form covariant derivative D_{T_X} T_X of the indicatrix
    tangent along itself."""
    k = mf.kappa
    flat = undefined(k <= ABS_TOL, CurvatureVanishes, "covariant derivative needs kappa > 0")
    _gate(kind, mf)
    T, N, B = mf.T.T, mf.N.T, mf.B.T  # component-first
    if kind is IndicatrixKind.TANGENT:
        return blank(flat, (-T + (mf.tau / k**2) * B).T)
    if dd is None:
        dd = darboux(mf)
    cphi, sphi = np.cos(dd.phi), np.sin(dd.phi)
    if kind is IndicatrixKind.NORMAL:
        lead = dd.phi_prime / (k**2 * dd.w_norm)
        cov = lead * (k * sphi * T + cphi * B) - N / k**2
    elif kind is IndicatrixKind.BINORMAL:
        flat = flat | undefined(np.abs(mf.tau) <= ABS_TOL, TorsionVanishes,
                                "binormal indicatrix degenerate at tau ~ 0")
        cov = T / mf.tau - B / k**2
    else:
        flat = flat | undefined(np.abs(dd.phi_prime) <= ABS_TOL, DegenerateIndicatrix,
                                "pole indicatrix degenerate at phi' ~ 0")
        cov = -sphi * T - (cphi / k) * B + (dd.w_norm / (dd.phi_prime * k)) * N
    return blank(flat, cov.T)


@np.errstate(divide="ignore", invalid="ignore")
def cov_deriv_numeric(kind: IndicatrixKind, spec, s) -> Vec3:
    """Oracle: finite-difference T_X along s, divided by the signed rate
    ds_X/ds, at ``s`` (a float or an array).  Ground truth against which
    every closed form is validated.  ``spec`` is a CurveSpec or a
    :class:`~modframe.frames.FrameTable` that holds the oracle's stencil."""
    at = frames.frame_table(spec, numerics.stencil(s))
    rate = _signed_rate(kind, at(s))
    flat = undefined(np.abs(rate) <= ABS_TOL, DegenerateIndicatrix,
                     "{} indicatrix has speed {:g} at s = {:g}", kind.value, np.abs(rate), s)

    def tangent_at(x):
        f = at(x)
        return indicatrix_tangent(kind, f, darboux(f) if _needs_constant_kappa(kind) else None)

    return blank(flat, (numerics.diff_vec(tangent_at, s).T / rate).T)


def sample(kind: IndicatrixKind, spec, s) -> IndicatrixSample:
    """Evaluate the indicatrix at ``s`` (a float or an array), flagging
    degeneracy rather than letting any NaN escape at one point."""
    mf = frames.frames_at(spec, s)
    dd = darboux(mf) if _needs_constant_kappa(kind) else None
    point = indicatrix_point(kind, mf, dd)
    spd = indicatrix_speed(kind, mf, dd)
    if dd is not None:  # undefined, not degenerate, where the Darboux data is
        spd = blank(np.isnan(dd.w_norm), spd)
    degenerate = spd <= DEGENERACY_THRESHOLD
    if np.ndim(degenerate) == 0 and degenerate:
        return IndicatrixSample(kind, s, point, spd, None, None, True)
    tangent = blank(degenerate, indicatrix_tangent(kind, mf, dd))
    cov = blank(degenerate, cov_deriv_closed(kind, mf, dd))
    return IndicatrixSample(kind, s, point, spd, tangent, cov, degenerate)
