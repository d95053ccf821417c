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
import math
from dataclasses import dataclass

from . import frames, numerics
from .curves import CurveSpec
from .darboux import DarbouxData, _require_constant_kappa, darboux
from .errors import CurvatureVanishes, DegenerateIndicatrix, TorsionVanishes
from .frames import ModifiedFrame
from .numerics import ABS_TOL, Vec3

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
    """Full per-point record of one spherical representation."""

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
) -> float:
    """Nonnegative arclength rate ds_X/ds of the indicatrix."""
    return abs(_signed_rate(kind, mf, dd))


def _signed_rate(
    kind: IndicatrixKind, mf: ModifiedFrame, dd: DarbouxData | None = None
) -> float:
    # Signed rates follow the closed-form derivations (kappa, kappa*|w|,
    # kappa*tau, phi'); the sign keeps orientation consistent between the
    # closed forms and the numeric oracle when tau or phi' is negative.
    _gate(kind, mf)
    if kind is IndicatrixKind.TANGENT:
        return mf.kappa
    if kind is IndicatrixKind.NORMAL:
        return mf.kappa * math.hypot(mf.kappa, mf.tau)
    if kind is IndicatrixKind.BINORMAL:
        return mf.kappa * mf.tau
    if dd is None:
        dd = darboux(mf)
    return dd.phi_prime


def indicatrix_tangent(
    kind: IndicatrixKind, mf: ModifiedFrame, dd: DarbouxData | None = None
) -> Vec3:
    """Unit tangent of the indicatrix at this point."""
    rate = _signed_rate(kind, mf, dd)
    if abs(rate) <= ABS_TOL:
        raise DegenerateIndicatrix(
            f"{kind.value} indicatrix has speed {abs(rate):g} here"
        )
    if kind is IndicatrixKind.TANGENT:
        return mf.N / mf.kappa
    if kind is IndicatrixKind.BINORMAL:
        return -mf.N / mf.kappa
    if dd is None:
        dd = darboux(mf)
    cphi, sphi = math.cos(dd.phi), math.sin(dd.phi)
    if kind is IndicatrixKind.NORMAL:
        return -cphi * mf.T + (sphi / mf.kappa) * mf.B
    return pole_tangent_direction(mf, dd)


def pole_tangent_direction(mf: ModifiedFrame, dd: DarbouxData) -> Vec3:
    """Unit direction cos(phi) T - (sin(phi)/kappa) B of the pole curve's
    tangent.  Stays well defined as phi' -> 0, where the pole indicatrix
    itself collapses to a point; used as the limit tangent in that case."""
    cphi, sphi = math.cos(dd.phi), math.sin(dd.phi)
    return cphi * mf.T - (sphi / mf.kappa) * mf.B


def cov_deriv_closed(
    kind: IndicatrixKind, mf: ModifiedFrame, dd: DarbouxData | None = None
) -> Vec3:
    """Closed-form covariant derivative D_{T_X} T_X of the indicatrix
    tangent along itself."""
    if mf.kappa <= ABS_TOL:
        raise CurvatureVanishes("covariant derivative needs kappa > 0")
    _gate(kind, mf)
    k = mf.kappa
    if kind is IndicatrixKind.TANGENT:
        return -mf.T + (mf.tau / k**2) * mf.B
    if dd is None:
        dd = darboux(mf)
    cphi, sphi = math.cos(dd.phi), math.sin(dd.phi)
    if kind is IndicatrixKind.NORMAL:
        lead = dd.phi_prime / (k**2 * dd.w_norm)
        return lead * (k * sphi * mf.T + cphi * mf.B) - mf.N / k**2
    if kind is IndicatrixKind.BINORMAL:
        if abs(mf.tau) <= ABS_TOL:
            raise TorsionVanishes("binormal indicatrix degenerate at tau ~ 0")
        return mf.T / mf.tau - mf.B / k**2
    if abs(dd.phi_prime) <= ABS_TOL:
        raise DegenerateIndicatrix("pole indicatrix degenerate at phi' ~ 0")
    return (
        -sphi * mf.T
        - (cphi / k) * mf.B
        + (dd.w_norm / (dd.phi_prime * k)) * mf.N
    )


def cov_deriv_numeric(kind: IndicatrixKind, spec: CurveSpec, s: float) -> Vec3:
    """Oracle: finite-difference T_X along s, divided by the signed rate
    ds_X/ds.  Ground truth against which every closed form is validated."""
    mf = frames.modified_frame(spec, s)
    rate = _signed_rate(kind, mf)
    if abs(rate) <= ABS_TOL:
        raise DegenerateIndicatrix(
            f"{kind.value} indicatrix has speed {abs(rate):g} at s = {s:g}"
        )

    def tangent_at(x: float) -> Vec3:
        f = frames.modified_frame(spec, x)
        d = darboux(f) if _needs_constant_kappa(kind) else None
        return indicatrix_tangent(kind, f, d)

    return numerics.diff_vec(tangent_at, s) / rate


def sample(kind: IndicatrixKind, spec: CurveSpec, s: float) -> IndicatrixSample:
    """Evaluate one indicatrix sample, flagging degeneracy rather than
    letting any NaN escape."""
    mf = frames.modified_frame(spec, s)
    dd = darboux(mf) if _needs_constant_kappa(kind) else None
    point = indicatrix_point(kind, mf, dd)
    spd = indicatrix_speed(kind, mf, dd)
    if spd <= DEGENERACY_THRESHOLD:
        return IndicatrixSample(kind, s, point, spd, None, None, True)
    tangent = indicatrix_tangent(kind, mf, dd)
    cov = cov_deriv_closed(kind, mf, dd)
    return IndicatrixSample(kind, s, point, spd, tangent, cov, False)
