"""Frenet frame and the modified orthogonal frame of a space curve.

The modified frame {T, N, B} = {t, kappa*n, kappa*b} stays defined where
the curvature vanishes (N and B go to zero there), while the classical
Frenet frame does not.  All quantities here come from exact jets;
:func:`check_frame_ode` compares them against the finite-difference
oracle.  :func:`modified_frame` gives the frame at one point and caches
it; :func:`modified_frames` gives it on a whole arclength grid in one
array pass.  Both share one assembly from the jet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import curves, numerics
from .curves import CurveSpec, Jet
from .errors import CurvatureVanishes, DegenerateFrame
from .numerics import ABS_TOL, ReadOnlyArrays, Vec3, cross, det3, dot, norm


@dataclass(frozen=True)
class FrenetFrame(ReadOnlyArrays):
    """Orthonormal frame {t, n, b} with curvature and torsion."""

    t_vec: Vec3
    n_vec: Vec3
    b_vec: Vec3
    kappa: float
    tau: float


@dataclass(frozen=True)
class ModifiedFrame(ReadOnlyArrays):
    """Orthogonal frame {T, N, B} with |T| = 1 and |N| = |B| = kappa.

    kappa_prime and tau_prime are arclength derivatives computed from the
    exact jets, so the finite-difference checks stay independent of them.
    At an isolated curvature zero N = B = 0 and the scalar fields that
    are undefined there (tau, kappa', tau') are reported as 0.  ``t`` is
    the curve parameter of the point and ``r`` its position.  From
    :func:`modified_frames` every field carries a leading axis of points.
    """

    T: Vec3
    N: Vec3
    B: Vec3
    kappa: float
    tau: float
    kappa_prime: float
    tau_prime: float
    t: float
    r: Vec3


def curvature(jet: Jet) -> float:
    """kappa = |r' x r''| / |r'|^3 (any regular parametrization).  Raises
    DegenerateFrame where the speed is beyond what the algebra can
    represent, as the frame paths do."""
    with np.errstate(all="ignore"):  # _check_scale refuses what overflowed
        u = norm(cross(jet.r1, jet.r2))
        v3 = norm(jet.r1) ** 3
    _check_scale(jet.r1, v3)
    return u / v3


def torsion_general(jet: Jet) -> float:
    """tau = det(r', r'', r''') / |r' x r''|^2 for any regular parameter.
    Raises DegenerateFrame as :func:`curvature` does."""
    if curvature(jet) <= ABS_TOL:
        raise CurvatureVanishes("torsion undefined where kappa ~ 0")
    with np.errstate(all="ignore"):
        c = cross(jet.r1, jet.r2)
        c2 = dot(c, c)
    _check_scale(jet.r1, c2)
    return det3(jet.r1, jet.r2, jet.r3) / c2


def _dot(a, b):
    # dot over component-first vectors: a[0] holds every x component.
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _check_scale(r1, divisor) -> None:
    # A divisor of the assembly that overflowed or underflowed: the frame
    # algebra cannot represent a curve moving at this speed.
    ok = np.logical_and(0.0 < divisor, divisor < math.inf)
    if not ok.all():
        speed = np.hypot(np.hypot(r1[0], r1[1]), r1[2])  # free of overflow
        raise DegenerateFrame(
            f"speed |r'| = {np.extract(~ok, speed)[0]:g} is outside the range "
            "the frame algebra can represent"
        )


def _rates(r1, r2, r3, r4, v, v3, v5):
    # tau = det(r1,r2,r3) / |r1 x r2|^2, and the arclength derivatives of
    # kappa = |r1 x r2| / |r1|^3 and of tau (d/dt over the speed).
    u = cross(r1, r2)
    u2 = _dot(u, u)
    uu = u2 * u2
    _check_scale(r1, uu)
    un = np.sqrt(u2)
    up = cross(r1, r3)
    d = _dot(u, r3)
    dp = _dot(u, r4)
    kappa_prime = (_dot(u, up) / (un * v3) - 3.0 * un * _dot(r1, r2) / v5) / v
    tau_prime = (dp / u2 - d * 2.0 * _dot(u, up) / uu) / v
    return d / u2, kappa_prime, tau_prime


def _assemble(jet: Jet):
    """T, N, B, kappa, tau, kappa' and tau' from a jet in any parameter:
    the one assembly behind both frame paths.  The jet's vectors are (3,)
    at one point or (..., 3) at many, and so are T, N and B."""
    r1, r2, r3, r4 = jet.r1.T, jet.r2.T, jet.r3.T, jet.r4.T  # component-first
    with np.errstate(all="ignore"):  # _check_scale refuses what overflowed
        v = np.sqrt(_dot(r1, r1))
        v3, v5 = v**3, v**5
        _check_scale(r1, v5)
        vp = _dot(r1, r2) / v
        T = r1 / v
        N = r2 / v**2 - r1 * (vp / v3)
        kappa = np.sqrt(_dot(N, N))
        B = cross(T, N)
        # tau, kappa' and tau' only where kappa > ABS_TOL; 0 elsewhere
        live = kappa > ABS_TOL
        if not isinstance(live, np.ndarray):
            rates = _rates(r1, r2, r3, r4, v, v3, v5) if live else (0.0, 0.0, 0.0)
        else:
            rates = np.zeros((3,) + live.shape)
            rates[:, live] = _rates(*(r[:, live] for r in (r1, r2, r3, r4)),
                                    v[live], v3[live], v5[live])
    # Back to (..., 3).  A (3,) vector is returned as is: its transpose
    # would be a view, and a cached frame would hold two arrays per vector.
    T, N, B = (x if x.ndim == 1 else x.T for x in (T, N, B))
    return (T, N, B, kappa, *rates)


@lru_cache(maxsize=None)
def modified_frame(spec: CurveSpec, s: float) -> ModifiedFrame:
    """Modified orthogonal frame at arclength ``s``; total on regular curves.

    The one per-point cache: the parameter and position of a point are
    read from its frame, so each point is inverted once.  Raises
    DegenerateFrame where the speed is beyond what the frame algebra can
    represent.
    """
    t = curves.at_arclength(spec, s)
    jet = spec.jet(t)
    T, N, B, *scalars = _assemble(jet)
    return ModifiedFrame(T, N, B, *map(float, scalars), t, jet.r)


def modified_frames(spec: CurveSpec, s) -> ModifiedFrame:
    """Modified frames at a 1-D array of arclengths, in one array pass.

    Every field of the result has a leading axis of length ``len(s)``
    (vectors are (n, 3)) and agrees with :func:`modified_frame` to
    rounding.  Use it for a grid of points; these frames are neither read
    from nor stored in the per-point cache.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 1:
        raise ValueError(f"modified_frames takes a 1-D array of arclengths, not {s.shape}")
    t = curves.at_arclength(spec, s)
    jet = spec.jet(t)
    return ModifiedFrame(*_assemble(jet), t, jet.r)


def frenet_frame(spec: CurveSpec, s: float) -> FrenetFrame:
    """Classical Frenet frame; raises where the curvature vanishes."""
    mf = modified_frame(spec, s)
    if mf.kappa <= ABS_TOL:
        raise CurvatureVanishes(
            f"Frenet frame undefined at s = {s:g} (kappa = {mf.kappa:g})"
        )
    return FrenetFrame(mf.T, mf.N / mf.kappa, mf.B / mf.kappa, mf.kappa, mf.tau)


def frame_ode_rhs(mf: ModifiedFrame):
    """Right-hand sides T' = N, N' = -k^2 T + (k'/k) N + tau B,
    B' = -tau N + (k'/k) B."""
    if mf.kappa <= ABS_TOL:
        raise CurvatureVanishes("frame ODE coefficients need kappa > 0")
    ratio = mf.kappa_prime / mf.kappa
    dT = mf.N
    dN = -mf.kappa**2 * mf.T + ratio * mf.N + mf.tau * mf.B
    dB = -mf.tau * mf.N + ratio * mf.B
    return dT, dN, dB


@dataclass(frozen=True)
class FrameOdeResult:
    """Residual norms of the three frame ODE rows at one point."""

    s: float
    residual_T: float
    residual_N: float
    residual_B: float

    @property
    def max_residual(self) -> float:
        return max(self.residual_T, self.residual_N, self.residual_B)


def check_frame_ode(spec: CurveSpec, s: float) -> FrameOdeResult:
    """Compare finite-difference derivatives of {T, N, B} along s with the
    exact ODE right-hand sides."""
    mf = modified_frame(spec, s)
    dT, dN, dB = frame_ode_rhs(mf)
    fd_T = numerics.diff_vec(lambda x: modified_frame(spec, x).T, s)
    fd_N = numerics.diff_vec(lambda x: modified_frame(spec, x).N, s)
    fd_B = numerics.diff_vec(lambda x: modified_frame(spec, x).B, s)
    return FrameOdeResult(
        s, norm(fd_T - dT), norm(fd_N - dN), norm(fd_B - dB)
    )


def metric_residual(spec: CurveSpec, s: float) -> float:
    """Worst deviation from <T,T> = 1, <N,N> = <B,B> = kappa^2 and pairwise
    orthogonality; kappa^2 taken from the cross-product formula so the two
    curvature paths check each other."""
    mf = modified_frame(spec, s)
    k2 = curvature(spec.jet(mf.t)) ** 2
    return max(
        abs(dot(mf.T, mf.T) - 1.0),
        abs(dot(mf.N, mf.N) - k2),
        abs(dot(mf.B, mf.B) - k2),
        abs(dot(mf.T, mf.N)),
        abs(dot(mf.T, mf.B)),
        abs(dot(mf.N, mf.B)),
    )
