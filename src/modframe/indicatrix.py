"""The four spherical representations of a curve: tangent, normal,
binormal and pole indicatrices.

Each row of :data:`KINDS` holds the facts of a kind and its closed forms:
the point on the sphere, the rate of its arclength against the base
curve's, the unit tangent, the covariant derivative of that tangent and
the geodesic curvature.  The public functions look a form up in its row.
This module also provides the covariant derivative as a finite-difference
oracle.
"""

from __future__ import annotations

import enum
from typing import Callable, NamedTuple

import numpy as np

from . import frames, numerics
from .darboux import _require_constant_kappa
from .errors import CurvatureVanishes, DegenerateIndicatrix, ModFrameError, TorsionVanishes
from .frames import ModifiedFrame
from .numerics import ABS_TOL, Vec3, blank, undefined


class IndicatrixKind(enum.Enum):
    TANGENT = "tangent"
    NORMAL = "normal"
    BINORMAL = "binormal"
    POLE = "pole"


class Kind(NamedTuple):
    """One row of :data:`KINDS`: the facts of an indicatrix kind and its
    closed forms ``form(mf)``, on one frame or a batch."""

    #: Its closed forms hold only for constant curvature and refuse other
    #: curves (the tangent indicatrix's kappa' terms cancel).
    constant_kappa: bool
    #: It lies on the unit sphere, where the determinant oracle applies.
    on_unit_sphere: bool
    #: Point (T, N, B or the pole direction C) and signed rate ds_X/ds; the
    #: sign keeps orientation consistent between the closed forms and the
    #: numeric oracle when tau or phi' is negative.
    point: Callable
    rate: Callable
    #: Unit tangent, covariant derivative D_{T_X} T_X of it along itself,
    #: and geodesic curvature (a nonnegative norm).
    tangent: Callable
    cov: Callable
    gamma: Callable
    #: Besides kappa, the quantity whose zero leaves its covariant
    #: derivative and geodesic curvature undefined: (name, form, error
    #: raised at one point).
    singular: tuple[str, Callable, type[ModFrameError]] | None = None
    #: Its geodesic report also carries the unit-norm variant.
    unweighted: bool = False


def pole_tangent_direction(mf: ModifiedFrame) -> Vec3:
    """Unit direction cos(phi) T - (sin(phi)/kappa) B of the pole curve's
    tangent.  Stays well defined as phi' -> 0, where the pole indicatrix
    itself collapses to a point; used as the limit tangent in that case."""
    d = mf.darboux
    cphi, sphi = np.cos(d.phi), np.sin(d.phi)
    return (cphi * mf.T.T - (sphi / mf.kappa) * mf.B.T).T


def _normal_cov(mf):
    d, k = mf.darboux, mf.kappa
    cphi, sphi = np.cos(d.phi), np.sin(d.phi)
    lead = d.phi_prime / (k**2 * d.w_norm)
    return (lead * (k * sphi * mf.T.T + cphi * mf.B.T) - mf.N.T / k**2).T


def _pole_cov(mf):
    d, k = mf.darboux, mf.kappa
    cphi, sphi = np.cos(d.phi), np.sin(d.phi)
    return (-sphi * mf.T.T - (cphi / k) * mf.B.T + (d.w_norm / (d.phi_prime * k)) * mf.N.T).T


KINDS: dict[IndicatrixKind, Kind] = {
    IndicatrixKind.TANGENT: Kind(
        constant_kappa=False, on_unit_sphere=True,
        point=lambda mf: mf.T,
        rate=lambda mf: mf.kappa,
        tangent=lambda mf: (mf.N.T / mf.kappa).T,
        cov=lambda mf: (-mf.T.T + (mf.tau / mf.kappa**2) * mf.B.T).T,
        gamma=lambda mf: np.abs(mf.tau) / mf.kappa),
    IndicatrixKind.NORMAL: Kind(
        constant_kappa=True, on_unit_sphere=False,
        point=lambda mf: mf.N,
        rate=lambda mf: mf.kappa * np.hypot(mf.kappa, mf.tau),
        tangent=lambda mf: (0.0 - pole_tangent_direction(mf).T).T,  # zeros stay +0.0
        cov=_normal_cov,
        gamma=lambda mf: np.hypot(mf.darboux.phi_prime / (mf.kappa * mf.darboux.w_norm),
                                  (mf.kappa * mf.kappa - 1.0) / mf.kappa)),
    IndicatrixKind.BINORMAL: Kind(
        constant_kappa=True, on_unit_sphere=False, unweighted=True,
        singular=("tau", lambda mf: mf.tau, TorsionVanishes),
        point=lambda mf: mf.B,
        rate=lambda mf: mf.kappa * mf.tau,
        tangent=lambda mf: (-mf.N.T / mf.kappa).T,
        cov=lambda mf: (mf.T.T / mf.tau - mf.B.T / mf.kappa**2).T,
        gamma=lambda mf: np.hypot(1.0 / mf.tau, (mf.kappa * mf.kappa - 1.0) / mf.kappa)),
    IndicatrixKind.POLE: Kind(
        constant_kappa=True, on_unit_sphere=True,
        singular=("phi'", lambda mf: mf.darboux.phi_prime, DegenerateIndicatrix),
        point=lambda mf: mf.darboux.C,
        rate=lambda mf: mf.darboux.phi_prime,
        tangent=pole_tangent_direction,
        cov=_pole_cov,
        gamma=lambda mf: mf.darboux.w_norm / np.abs(mf.darboux.phi_prime)),
}


class IndicatrixSample(NamedTuple):
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


def _row(kind: IndicatrixKind, mf: ModifiedFrame) -> Kind:
    # The row of ``kind``, gated on ``mf``.
    row = KINDS[kind]
    if row.constant_kappa:
        _require_constant_kappa(mf)
    return row


@np.errstate(divide="ignore", invalid="ignore")
def _defined(kind: IndicatrixKind, mf: ModifiedFrame, form: str, what: str):
    # The row's ``form``, undefined where kappa ~ 0 and then (after the
    # gate) where the row's singular quantity ~ 0.
    flat = undefined(mf.kappa <= ABS_TOL, CurvatureVanishes, "{} needs kappa > 0", what)
    row = _row(kind, mf)
    if row.singular is not None:
        name, value, error = row.singular
        flat = flat | undefined(np.abs(value(mf)) <= ABS_TOL, error,
                                "{} {} needs {} != 0", kind.value, what, name)
    return blank(flat, getattr(row, form)(mf))


def indicatrix_point(kind: IndicatrixKind, mf: ModifiedFrame) -> Vec3:
    """Point of the indicatrix: T, N, B or the pole direction C.

    N and B are kept at radius kappa, not normalized to the unit sphere.
    Like every closed form here, it takes one frame or a batch.
    """
    return _row(kind, mf).point(mf)


def indicatrix_speed(kind: IndicatrixKind, mf: ModifiedFrame):
    """Nonnegative arclength rate ds_X/ds of the indicatrix."""
    return np.abs(_signed_rate(kind, mf))


def _signed_rate(kind: IndicatrixKind, mf: ModifiedFrame):
    return _row(kind, mf).rate(mf)


@np.errstate(divide="ignore", invalid="ignore")
def indicatrix_tangent(kind: IndicatrixKind, mf: ModifiedFrame) -> Vec3:
    """Unit tangent of the indicatrix; undefined where its speed vanishes
    (DegenerateIndicatrix at one point, NaN over a batch)."""
    row = _row(kind, mf)
    rate = row.rate(mf)
    flat = undefined(np.abs(rate) <= ABS_TOL, DegenerateIndicatrix,
                     "{} indicatrix has speed {:g} here", kind.value, np.abs(rate))
    return blank(flat, row.tangent(mf))


def cov_deriv_closed(kind: IndicatrixKind, mf: ModifiedFrame) -> Vec3:
    """Closed-form covariant derivative D_{T_X} T_X of the indicatrix
    tangent along itself."""
    return _defined(kind, mf, "cov", "covariant derivative")


def geodesic_curvature_closed(kind: IndicatrixKind, mf: ModifiedFrame):
    """Closed-form geodesic curvature (a nonnegative norm)."""
    return _defined(kind, mf, "gamma", "geodesic curvature")


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
    no_darboux = np.isnan(mf.darboux.w_norm) if KINDS[kind].constant_kappa else False
    point = indicatrix_point(kind, mf)
    spd = blank(no_darboux, indicatrix_speed(kind, mf))
    degenerate = spd <= ABS_TOL
    if np.ndim(degenerate) == 0 and degenerate:
        return IndicatrixSample(kind, s, point, spd, None, None, True)
    tangent = blank(degenerate, indicatrix_tangent(kind, mf))
    cov = blank(degenerate, cov_deriv_closed(kind, mf))
    return IndicatrixSample(kind, s, point, spd, tangent, cov, degenerate)
