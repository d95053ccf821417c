"""Frenet frame and the modified orthogonal frame of a space curve.

The modified frame {T, N, B} = {t, kappa*n, kappa*b} stays defined where
the curvature vanishes (N and B go to zero there), while the classical
Frenet frame does not.  All quantities here come from exact jets;
:func:`check_frame_ode` compares them against the finite-difference
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from . import curves, numerics
from .curves import CurveSpec, Jet
from .errors import CurvatureVanishes
from .numerics import DEFAULT_TOL, ReadOnlyArrays, Tolerance, Vec3, cross, det3, dot, norm


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
    are undefined there (tau, kappa', tau') are reported as 0.
    """

    T: Vec3
    N: Vec3
    B: Vec3
    kappa: float
    tau: float
    kappa_prime: float
    tau_prime: float


def unit_speed_jet(jet: Jet) -> Jet:
    """Chain-rule conversion of a general-parameter jet to arclength
    derivatives (orders 1..4)."""
    r1, r2, r3, r4 = jet.r1, jet.r2, jet.r3, jet.r4
    v = norm(r1)
    vp = dot(r1, r2) / v
    n2 = dot(r2, r2) + dot(r1, r3) - vp * vp
    vpp = n2 / v
    n2p = 3.0 * dot(r2, r3) + dot(r1, r4) - 2.0 * vp * vpp
    vppp = (n2p - vpp * vp) / v

    a1 = r1 / v
    a2 = r2 / v**2 - r1 * (vp / v**3)
    a3 = (
        r3 / v**3
        - r2 * (3.0 * vp / v**4)
        - r1 * (vpp / v**4)
        + r1 * (3.0 * vp * vp / v**5)
    )
    d_a3 = (
        r4 / v**3
        - r3 * (3.0 * vp / v**4)
        - (r3 * vp + r2 * vpp) * (3.0 / v**4)
        + r2 * (12.0 * vp * vp / v**5)
        - (r2 * vpp + r1 * vppp) / v**4
        + r1 * (4.0 * vpp * vp / v**5)
        + (r2 * vp * vp + 2.0 * r1 * vp * vpp) * (3.0 / v**5)
        - r1 * (15.0 * vp**3 / v**6)
    )
    a4 = d_a3 / v
    return Jet(jet.r, a1, a2, a3, a4)


def curvature(jet: Jet) -> float:
    """kappa = |r' x r''| / |r'|^3 (any regular parametrization)."""
    return norm(cross(jet.r1, jet.r2)) / norm(jet.r1) ** 3


def curvature_from_tangent(jet: Jet) -> float:
    """kappa = |dT/ds|; redundant path used to cross-check :func:`curvature`."""
    return norm(unit_speed_jet(jet).r2)


def torsion(jet: Jet, kappa: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """tau = det(r', r'', r''') / kappa^2 for a unit-speed jet."""
    if kappa <= tol.abs_tol:
        raise CurvatureVanishes("torsion undefined where kappa ~ 0")
    return det3(jet.r1, jet.r2, jet.r3) / (kappa * kappa)


def torsion_general(jet: Jet, tol: Tolerance = DEFAULT_TOL) -> float:
    """tau = det(r', r'', r''') / |r' x r''|^2 for any regular parameter."""
    c = cross(jet.r1, jet.r2)
    c2 = dot(c, c)
    if c2 <= tol.abs_tol**2:
        raise CurvatureVanishes("torsion undefined where kappa ~ 0")
    return det3(jet.r1, jet.r2, jet.r3) / c2


def _kappa_prime(jet: Jet) -> float:
    # d/ds of |r1 x r2| / |r1|^3, via d/dt and division by the speed.
    r1, r2, r3 = jet.r1, jet.r2, jet.r3
    v = norm(r1)
    u = cross(r1, r2)
    un = norm(u)
    up = cross(r1, r3)
    dkdt = dot(u, up) / (un * v**3) - 3.0 * un * dot(r1, r2) / v**5
    return dkdt / v


def _tau_prime(jet: Jet) -> float:
    # d/ds of det(r1,r2,r3) / |r1 x r2|^2.
    r1, r2, r3, r4 = jet.r1, jet.r2, jet.r3, jet.r4
    v = norm(r1)
    u = cross(r1, r2)
    u2 = dot(u, u)
    up = cross(r1, r3)
    d = det3(r1, r2, r3)
    dp = det3(r1, r2, r4)
    dtaudt = dp / u2 - d * 2.0 * dot(u, up) / (u2 * u2)
    return dtaudt / v


@lru_cache(maxsize=None)
def modified_frame(
    spec: CurveSpec, s: float, tol: Tolerance = DEFAULT_TOL
) -> ModifiedFrame:
    """Modified orthogonal frame at arclength ``s``; total on regular curves."""
    jet = spec.jet(curves.at_arclength(spec, s, tol))
    us = unit_speed_jet(jet)
    T = us.r1
    N = us.r2
    kappa = norm(N)
    B = cross(T, N)
    if kappa <= tol.abs_tol:
        return ModifiedFrame(T, N, B, kappa, 0.0, 0.0, 0.0)
    return ModifiedFrame(
        T,
        N,
        B,
        kappa,
        torsion_general(jet, tol),
        _kappa_prime(jet),
        _tau_prime(jet),
    )


def frenet_frame(
    spec: CurveSpec, s: float, tol: Tolerance = DEFAULT_TOL
) -> FrenetFrame:
    """Classical Frenet frame; raises where the curvature vanishes."""
    mf = modified_frame(spec, s, tol)
    if mf.kappa <= tol.abs_tol:
        raise CurvatureVanishes(
            f"Frenet frame undefined at s = {s:g} (kappa = {mf.kappa:g})"
        )
    return FrenetFrame(mf.T, mf.N / mf.kappa, mf.B / mf.kappa, mf.kappa, mf.tau)


def frame_ode_rhs(mf: ModifiedFrame, tol: Tolerance = DEFAULT_TOL):
    """Right-hand sides T' = N, N' = -k^2 T + (k'/k) N + tau B,
    B' = -tau N + (k'/k) B."""
    if mf.kappa <= tol.abs_tol:
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


def check_frame_ode(
    spec: CurveSpec, s: float, tol: Tolerance = DEFAULT_TOL
) -> FrameOdeResult:
    """Compare finite-difference derivatives of {T, N, B} along s with the
    exact ODE right-hand sides."""
    mf = modified_frame(spec, s, tol)
    dT, dN, dB = frame_ode_rhs(mf, tol)
    fd_T = numerics.diff_vec(lambda x: modified_frame(spec, x, tol).T, s, tol=tol)
    fd_N = numerics.diff_vec(lambda x: modified_frame(spec, x, tol).N, s, tol=tol)
    fd_B = numerics.diff_vec(lambda x: modified_frame(spec, x, tol).B, s, tol=tol)
    return FrameOdeResult(
        s, norm(fd_T - dT), norm(fd_N - dN), norm(fd_B - dB)
    )


def metric_residual(spec: CurveSpec, s: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """Worst deviation from <T,T> = 1, <N,N> = <B,B> = kappa^2 and pairwise
    orthogonality; kappa^2 taken from the cross-product formula so the two
    curvature paths check each other."""
    mf = modified_frame(spec, s, tol)
    jet = spec.jet(curves.at_arclength(spec, s, tol))
    k2 = curvature(jet) ** 2
    return max(
        abs(dot(mf.T, mf.T) - 1.0),
        abs(dot(mf.N, mf.N) - k2),
        abs(dot(mf.B, mf.B) - k2),
        abs(dot(mf.T, mf.N)),
        abs(dot(mf.T, mf.B)),
        abs(dot(mf.N, mf.B)),
    )
