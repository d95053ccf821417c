"""The four spherical representations of a curve: tangent, normal,
binormal and pole indicatrices.

:data:`KINDS` holds the facts of each kind.  For each kind this module
provides the point on the sphere, the rate of its arclength against the
base curve's, the unit tangent, the covariant derivative of that tangent
and the geodesic curvature in closed form, each reading the Darboux data
it needs itself, and the covariant derivative as a finite-difference
oracle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import frames, numerics
from .darboux import _require_constant_kappa, darboux
from .errors import CurvatureVanishes, DegenerateIndicatrix, ModFrameError, TorsionVanishes
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
class Kind:
    """One row of :data:`KINDS`: the facts of an indicatrix kind."""

    #: Its closed forms hold only for constant curvature and refuse other
    #: curves (the tangent indicatrix's kappa' terms cancel).
    constant_kappa: bool
    #: It lies on the unit sphere, where the determinant oracle applies.
    on_unit_sphere: bool
    #: Besides kappa, the quantity whose zero leaves its covariant
    #: derivative and geodesic curvature undefined: (name, value at a
    #: frame, error raised at one point).
    singular: tuple[str, Callable[[ModifiedFrame], object], type[ModFrameError]] | None = None
    #: Its geodesic report also carries the unit-norm variant.
    unweighted: bool = False


# Rows reach darboux through the module name when they are evaluated, so
# that a patched function (a tracer, a mock) is the one that runs.
KINDS: dict[IndicatrixKind, Kind] = {
    IndicatrixKind.TANGENT: Kind(constant_kappa=False, on_unit_sphere=True),
    IndicatrixKind.NORMAL: Kind(constant_kappa=True, on_unit_sphere=False),
    IndicatrixKind.BINORMAL: Kind(constant_kappa=True, on_unit_sphere=False, unweighted=True,
                                  singular=("tau", lambda mf: mf.tau, TorsionVanishes)),
    IndicatrixKind.POLE: Kind(constant_kappa=True, on_unit_sphere=True, singular=(
        "phi'", lambda mf: darboux(mf).phi_prime, DegenerateIndicatrix)),
}


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


def _gate(kind: IndicatrixKind, mf: ModifiedFrame) -> None:
    if KINDS[kind].constant_kappa:
        _require_constant_kappa(mf)


def _undefined(kind: IndicatrixKind, mf: ModifiedFrame, what: str):
    """Mask of the points where ``what`` of ``kind`` is undefined: kappa ~ 0,
    then (after the gate) the row's singular quantity ~ 0."""
    flat = undefined(mf.kappa <= ABS_TOL, CurvatureVanishes, "{} needs kappa > 0", what)
    _gate(kind, mf)
    if KINDS[kind].singular is None:
        return flat
    name, value, error = KINDS[kind].singular
    return flat | undefined(np.abs(value(mf)) <= ABS_TOL, error,
                            "{} {} needs {} != 0", kind.value, what, name)


def indicatrix_point(kind: IndicatrixKind, mf: ModifiedFrame) -> Vec3:
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
    return darboux(mf).C


def indicatrix_speed(kind: IndicatrixKind, mf: ModifiedFrame):
    """Nonnegative arclength rate ds_X/ds of the indicatrix."""
    return np.abs(_signed_rate(kind, mf))


def _signed_rate(kind: IndicatrixKind, mf: ModifiedFrame):
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
    return darboux(mf).phi_prime


@np.errstate(divide="ignore", invalid="ignore")
def indicatrix_tangent(kind: IndicatrixKind, mf: ModifiedFrame) -> Vec3:
    """Unit tangent of the indicatrix; undefined where its speed vanishes
    (DegenerateIndicatrix at one point, NaN over a batch)."""
    rate = _signed_rate(kind, mf)
    flat = undefined(np.abs(rate) <= ABS_TOL, DegenerateIndicatrix,
                     "{} indicatrix has speed {:g} here", kind.value, np.abs(rate))
    N = mf.N.T  # component-first
    if kind is IndicatrixKind.TANGENT:
        tangent = N / mf.kappa
    elif kind is IndicatrixKind.BINORMAL:
        tangent = -N / mf.kappa
    elif kind is IndicatrixKind.NORMAL:
        tangent = 0.0 - pole_tangent_direction(mf).T  # zeros stay +0.0
    else:
        return blank(flat, pole_tangent_direction(mf))
    return blank(flat, tangent.T)


def pole_tangent_direction(mf: ModifiedFrame) -> Vec3:
    """Unit direction cos(phi) T - (sin(phi)/kappa) B of the pole curve's
    tangent.  Stays well defined as phi' -> 0, where the pole indicatrix
    itself collapses to a point; used as the limit tangent in that case."""
    dd = darboux(mf)
    cphi, sphi = np.cos(dd.phi), np.sin(dd.phi)
    return (cphi * mf.T.T - (sphi / mf.kappa) * mf.B.T).T


@np.errstate(divide="ignore", invalid="ignore")
def cov_deriv_closed(kind: IndicatrixKind, mf: ModifiedFrame) -> Vec3:
    """Closed-form covariant derivative D_{T_X} T_X of the indicatrix
    tangent along itself."""
    flat = _undefined(kind, mf, "covariant derivative")
    k = mf.kappa
    T, N, B = mf.T.T, mf.N.T, mf.B.T  # component-first
    if kind is IndicatrixKind.TANGENT:
        cov = -T + (mf.tau / k**2) * B
    elif kind is IndicatrixKind.BINORMAL:
        cov = T / mf.tau - B / k**2
    else:
        dd = darboux(mf)
        cphi, sphi = np.cos(dd.phi), np.sin(dd.phi)
        if kind is IndicatrixKind.NORMAL:
            lead = dd.phi_prime / (k**2 * dd.w_norm)
            cov = lead * (k * sphi * T + cphi * B) - N / k**2
        else:
            cov = -sphi * T - (cphi / k) * B + (dd.w_norm / (dd.phi_prime * k)) * N
    return blank(flat, cov.T)


@np.errstate(divide="ignore", invalid="ignore")
def geodesic_curvature_closed(kind: IndicatrixKind, mf: ModifiedFrame):
    """Closed-form geodesic curvature (a nonnegative norm).

    tangent:  |tau| / kappa
    normal:   sqrt((phi'/(kappa |w|))^2 + ((kappa^2 - 1)/kappa)^2)
    binormal: sqrt(1/tau^2 + (kappa^2 - 1)^2 / kappa^2)
    pole:     |w| / |phi'|
    """
    flat = _undefined(kind, mf, "geodesic curvature")
    k = mf.kappa
    if kind is IndicatrixKind.TANGENT:
        gamma = np.abs(mf.tau) / k
    elif kind is IndicatrixKind.BINORMAL:
        gamma = np.hypot(1.0 / mf.tau, (k * k - 1.0) / k)
    elif kind is IndicatrixKind.NORMAL:
        dd = darboux(mf)
        gamma = np.hypot(dd.phi_prime / (k * dd.w_norm), (k * k - 1.0) / k)
    else:
        dd = darboux(mf)
        gamma = dd.w_norm / np.abs(dd.phi_prime)
    return blank(flat, gamma)


@np.errstate(divide="ignore", invalid="ignore")
def cov_deriv_numeric(kind: IndicatrixKind, spec, s) -> Vec3:
    """Oracle: finite-difference T_X along s, divided by the signed rate
    ds_X/ds, at ``s`` (a float or an array).  Ground truth against which
    every closed form is validated.  ``spec`` is a CurveSpec or a
    :class:`~modframe.frames.FrameTable` that holds the oracle's stencil.
    Where kappa ~ 0 it raises CurvatureVanishes, as the closed forms do."""
    at = frames.frame_table(spec, s)
    mf = at(s)
    flat = undefined(mf.kappa <= ABS_TOL, CurvatureVanishes,
                     "covariant derivative needs kappa > 0 at s = {:g}", s)
    rate = _signed_rate(kind, mf)
    flat = flat | undefined(np.abs(rate) <= ABS_TOL, DegenerateIndicatrix,
                            "{} indicatrix has speed {:g} at s = {:g}",
                            kind.value, np.abs(rate), s)
    fd = numerics.diff_vec(lambda x: indicatrix_tangent(kind, at(x)), s)
    return blank(flat, (fd.T / rate).T)


def sample(kind: IndicatrixKind, spec, s) -> IndicatrixSample:
    """Evaluate the indicatrix at ``s`` (a float or an array), flagging
    degeneracy rather than letting any NaN escape at one point."""
    mf = frames.frames_at(spec, s)
    # undefined, not degenerate, where the Darboux data is
    no_darboux = np.isnan(darboux(mf).w_norm) if KINDS[kind].constant_kappa else False
    point = indicatrix_point(kind, mf)
    spd = blank(no_darboux, indicatrix_speed(kind, mf))
    degenerate = spd <= DEGENERACY_THRESHOLD
    if np.ndim(degenerate) == 0 and degenerate:
        return IndicatrixSample(kind, s, point, spd, None, None, True)
    tangent = blank(degenerate, indicatrix_tangent(kind, mf))
    cov = blank(degenerate, cov_deriv_closed(kind, mf))
    return IndicatrixSample(kind, s, point, spd, tangent, cov, degenerate)
