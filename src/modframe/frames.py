"""Frenet frame and the modified orthogonal frame of a space curve.

The modified frame {T, N, B} = {t, kappa*n, kappa*b} stays defined where
the curvature vanishes (N and B go to zero there), while the classical
Frenet frame does not.  All quantities here come from exact jets;
:func:`check_frame_ode` compares them against the finite-difference
oracle.  :func:`modified_frame` gives the frame at one point, computed on
Python floats, and keeps the last; :func:`modified_frames` gives it on a whole
arclength grid in one array pass.  Both share one assembly from the jet.

A :class:`FrameTable` holds the frames of one curve at a set of
arclengths, from one :func:`modified_frames` call.  Every oracle in the
library takes one in place of its CurveSpec, so a caller that runs many
oracles along one grid computes each frame once.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import curves, numerics
from .curves import CurveSpec, Jet
from .errors import CurvatureVanishes, DegenerateFrame
from .numerics import ABS_TOL, Vec3, _read_only, blank, cross, det3, dot, norm, undefined


class FrenetFrame(NamedTuple):
    """Orthonormal frame {t, n, b} with curvature and torsion, read-only."""

    t_vec: Vec3
    n_vec: Vec3
    b_vec: Vec3
    kappa: float
    tau: float


class ModifiedFrame:
    """Orthogonal frame {T, N, B} with |T| = 1 and |N| = |B| = kappa.

    kappa_prime and tau_prime are arclength derivatives computed from the
    exact jets, so the finite-difference checks stay independent of them.
    At an isolated curvature zero N = B = 0 and the scalar fields that
    are undefined there (tau, kappa', tau') are reported as 0.  ``t`` is
    the curve parameter of the point and ``r`` its position.  From
    :func:`modified_frames` every field carries a leading axis of points;
    its array fields are read-only from the library's producers.  A
    slotted record that refuses assignment; ``_fields`` names its fields.
    """

    _fields = ("T", "N", "B", "kappa", "tau", "kappa_prime", "tau_prime", "t", "r")
    __slots__ = (*_fields, "_darboux")

    def __init__(self, T, N, B, kappa, tau, kappa_prime, tau_prime, t, r) -> None:
        # Through the slots' own setters (bound below), past __setattr__.
        _set_T(self, T)
        _set_N(self, N)
        _set_B(self, B)
        _set_kappa(self, kappa)
        _set_tau(self, tau)
        _set_kappa_prime(self, kappa_prime)
        _set_tau_prime(self, tau_prime)
        _set_t(self, t)
        _set_r(self, r)

    def __setattr__(self, name, *value):
        raise AttributeError(f"a ModifiedFrame is read-only: cannot set {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"ModifiedFrame({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __reduce__(self):  # deepcopy and pickle, through _rebuilt
        return _rebuilt, tuple(getattr(self, f) for f in self._fields)

    def __copy__(self):  # shares the fields: flags none of a hand-built frame's arrays
        return ModifiedFrame(*(getattr(self, f) for f in self._fields))

    @property
    def darboux(self):
        """The frame's DarbouxData, built on the first read and kept.  The
        builder :func:`modframe.darboux.darboux` is looked up in its module
        at each build, so that a patched one (a tracer, a counter) runs."""
        if not hasattr(self, "_darboux"):
            _set_darboux(self, _darboux.darboux(self))
        return self._darboux


def _rebuilt(*fields) -> ModifiedFrame:  # deepcopy and pickle give writable arrays
    return ModifiedFrame(*_read_only(*fields))


(_set_T, _set_N, _set_B, _set_kappa, _set_tau, _set_kappa_prime, _set_tau_prime, _set_t,
 _set_r, _set_darboux) = (getattr(ModifiedFrame, name).__set__ for name in ModifiedFrame.__slots__)


def curvature(jet: Jet):
    """kappa = |r' x r''| / |r'|^3 (any regular parametrization), at one
    point or, for a jet of (n, 3) arrays, at each of its points.  Raises
    DegenerateFrame where the speed is beyond what the algebra can
    represent, as the frame paths do."""
    r1, r2 = jet.r1.T, jet.r2.T  # component-first
    with np.errstate(all="ignore"):  # _check_scale refuses what overflowed
        u = norm(cross(r1, r2))
        v3 = norm(r1) ** 3
    _check_scale(r1, v3)
    return u / v3


def torsion_general(jet: Jet):
    """tau = det(r', r'', r''') / |r' x r''|^2 for any regular parameter,
    at one point or, for a jet of (n, 3) arrays, at each of its points.
    Raises CurvatureVanishes where kappa ~ 0 (a NaN entry over a batch),
    and DegenerateFrame as :func:`curvature` does."""
    flat = undefined(curvature(jet) <= ABS_TOL, CurvatureVanishes,
                     "torsion undefined where kappa ~ 0")
    r1, r2, r3 = jet.r1.T, jet.r2.T, jet.r3.T  # component-first
    with np.errstate(all="ignore"):  # _check_scale refuses what overflowed
        c = cross(r1, r2)
        c2 = dot(c, c)
        _check_scale(r1, np.where(flat, 1.0, c2))
        return blank(flat, det3(r1, r2, r3) / c2)


def _check_scale(r1, divisor) -> None:
    # A divisor of the assembly that overflowed or underflowed: the frame
    # algebra cannot represent a curve moving at this speed.  The assembly
    # tests a float divisor itself and calls this only where it fails.
    ok = np.logical_and(0.0 < divisor, divisor < math.inf)
    if not ok.all():
        speed = np.hypot(np.hypot(r1[0], r1[1]), r1[2])  # free of overflow
        raise DegenerateFrame(
            f"speed |r'| = {np.extract(~ok, speed)[0]:g} is outside the range "
            "the frame algebra can represent"
        )


# The frame assembly and its helpers, for floats at one point and arrays
# over a batch alike.  Each dot and cross product is written out on x, y
# and z, in the order of numerics.dot and numerics.cross.

def _rates(r1, r2, r3, r4, v, v3, v5, sqrt):
    # tau = det(r1,r2,r3) / |r1 x r2|^2, and the arclength derivatives of
    # kappa = |r1 x r2| / |r1|^3 and of tau (d/dt over the speed).
    (x1, y1, z1), (x2, y2, z2), (x3, y3, z3), (x4, y4, z4) = r1, r2, r3, r4
    ux, uy, uz = y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2  # r1 x r2
    u2 = ux * ux + uy * uy + uz * uz
    uu = u2 * u2
    if sqrt is np.sqrt or not 0.0 < uu < math.inf:  # a batch, or a float out of range
        _check_scale(r1, uu)
    un = sqrt(u2)
    uup = ux * (y1 * z3 - z1 * y3) + uy * (z1 * x3 - x1 * z3) + uz * (x1 * y3 - y1 * x3)
    d = ux * x3 + uy * y3 + uz * z3
    dp = ux * x4 + uy * y4 + uz * z4
    kappa_prime = (uup / (un * v3) - 3.0 * un * (x1 * x2 + y1 * y2 + z1 * z2) / v5) / v
    tau_prime = (dp / u2 - d * 2.0 * uup / uu) / v
    return d / u2, kappa_prime, tau_prime


def _assemble(r1, r2, r3, r4, one):
    """T, N, B, kappa, tau, kappa' and tau' from the derivatives of a jet
    in any parameter: the one assembly behind both frame paths.  They are
    3-tuples of floats at ``one`` point (a curve's point jet), or
    (..., 3) arrays at many, worked on as (3, ...) arrays; both unpack to
    x, y, z alike, and ``one``, which the caller knows, picks math.sqrt or
    np.sqrt.  T, N and B come back as read-only (3,) or (..., 3) arrays.  Over a
    batch, call it under ``np.errstate(all="ignore")``: _check_scale
    refuses what overflowed.  Python floats never touch numpy's error
    state: a float v**3 or v**5 that overflows, the one that raises, is
    inf, and every divisor is tested before it divides."""
    if one:
        sqrt = math.sqrt
    else:
        sqrt = np.sqrt
        r1, r2, r3, r4 = r1.T, r2.T, r3.T, r4.T
    (x1, y1, z1), (x2, y2, z2) = r1, r2
    v = sqrt(x1 * x1 + y1 * y1 + z1 * z1)
    try:
        v3, v5 = v**3, v**5
    except OverflowError:  # a float's: an array overflows to inf
        v3 = v5 = math.inf
    if not one or not 0.0 < v5 < math.inf:  # a batch, or a float out of range
        _check_scale(r1, v5)
    vp = (x1 * x2 + y1 * y2 + z1 * z2) / v
    T = tx, ty, tz = x1 / v, y1 / v, z1 / v
    v2, c = v**2, vp / v3
    N = nx, ny, nz = x2 / v2 - x1 * c, y2 / v2 - y1 * c, z2 / v2 - z1 * c
    kappa = sqrt(nx * nx + ny * ny + nz * nz)
    B = ty * nz - tz * ny, tz * nx - tx * nz, tx * ny - ty * nx  # T x N
    # tau, kappa' and tau' only where kappa > ABS_TOL; 0 elsewhere
    live = kappa > ABS_TOL
    if one:
        rates = _rates(r1, r2, r3, r4, v, v3, v5, sqrt) if live else (0.0, 0.0, 0.0)
    else:
        rates = np.zeros((3,) + live.shape)
        rates[:, live] = _rates(*(r[:, live] for r in (r1, r2, r3, r4)),
                                v[live], v3[live], v5[live], sqrt)
    # Back to the jet's shape: (3,) arrays that own their memory at one
    # point, (..., 3) views of (3, ...) arrays over a batch.
    T, N, B = np.array(T), np.array(N), np.array(B)
    if not one:
        T, N, B = T.T, N.T, B.T
    T.setflags(False)  # write=False, without keyword parsing
    N.setflags(False)
    B.setflags(False)
    return (T, N, B, kappa, *rates)


@lru_cache(maxsize=1)
def modified_frame(spec: CurveSpec, s: float) -> ModifiedFrame:
    """Modified orthogonal frame at arclength ``s``; total on regular curves.

    Its cache keeps the last point only: the parameter and position of a
    point are read from its frame, so a point asked twice in a row is
    inverted once.  Raises DegenerateFrame where the speed is beyond what
    the frame algebra can represent.  A numpy scalar ``s`` is read as a
    Python float, so the frame's scalar fields are Python floats.
    """
    t = curves.at_arclength(spec, float(s))
    # the curve's point jet, unchecked (t is in range); r, T, N, B: read-only where made
    r, r1, r2, r3, r4 = curves._curve(spec).jet(t)
    r = np.array(r)
    r.setflags(False)
    return ModifiedFrame(*_assemble(r1, r2, r3, r4, True), t, r)


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
    r, r1, r2, r3, r4 = curves._curve(spec).jets(t)
    r.setflags(False)
    with np.errstate(all="ignore"):  # _check_scale refuses what overflowed
        T, N, B, *scalars = _assemble(r1, r2, r3, r4, False)
    return ModifiedFrame(T, N, B, *_read_only(*scalars, t), r)


class FrameTable:
    """Modified frames of one curve at a fixed set of arclengths, computed
    in one :func:`modified_frames` call and read back by arclength.

    The frames are kept as one read-only (17, n) block, a column per
    arclength and component-first rows: the three rows of T, of N and of
    B, one row each for kappa, tau, kappa', tau' and t, and the three of
    r, in the order of the ModifiedFrame fields.  ``table(s)`` (``s`` a
    float or a 1-D array) takes the columns of ``s`` from the block at
    once, flags the take read-only, and returns a frame whose fields are
    views of it: (m, 3) vectors and (m,) scalars, or (3,) vectors and
    numpy scalars at a float.  Each arclength read must be one of the
    table's bit for bit; build the table from the same expressions the
    reader evaluates, as :func:`frame_table` does.
    """

    def __init__(self, spec: CurveSpec, s) -> None:
        self.spec = spec
        s = np.sort(np.asarray(s, dtype=float), axis=None)
        keep = np.ones(s.size, dtype=bool)
        keep[1:] = s[1:] != s[:-1]
        self.s = s[keep]
        mf = modified_frames(spec, self.s)
        rows = [np.atleast_2d(getattr(mf, name).T) for name in mf._fields]
        # A field's rows in the block: an index for a scalar, a slice of
        # three for a vector.
        ends = np.cumsum([len(r) for r in rows]).tolist()
        self._rows = [e - 1 if len(r) == 1 else slice(e - len(r), e)
                      for r, e in zip(rows, ends)]
        self._block = np.concatenate(rows)
        self._block.setflags(False)

    def __call__(self, s) -> ModifiedFrame:
        i = np.searchsorted(self.s, s)
        if i.ndim > 1:
            raise ValueError("a frame table is read at a float or a 1-D array")
        if (self.s.take(i, mode="clip") != s).any():
            raise ValueError("arclength not in the frame table")
        col = self._block[:, i]
        col.setflags(False)  # every field below is a view of it
        return ModifiedFrame(*(col[k].T for k in self._rows))


def frame_table(spec, s, order=1, step=None) -> FrameTable:
    """The table an oracle at ``s`` reads: ``spec`` itself when it is a
    FrameTable, which computes nothing, else the table of the CurveSpec
    ``spec`` over :func:`numerics.stencil` of ``s``, ``order`` and ``step``."""
    return spec if isinstance(spec, FrameTable) else FrameTable(
        spec, numerics.stencil(s, order, step))


def curve_of(spec) -> CurveSpec:
    """The curve of ``spec``: a CurveSpec itself, or a FrameTable's curve."""
    return spec if isinstance(spec, CurveSpec) else spec.spec


def frames_at(spec, s) -> ModifiedFrame:
    """Frames of ``spec`` (a CurveSpec or a FrameTable) at ``s``: the cached
    scalar frame for one point of a CurveSpec, else a batch."""
    if isinstance(spec, FrameTable):
        return spec(s)
    return modified_frame(spec, float(s)) if np.ndim(s) == 0 else modified_frames(spec, s)


@np.errstate(divide="ignore", invalid="ignore")
def frenet_frame(spec, s) -> FrenetFrame:
    """Classical Frenet frame at ``s`` from the jet, t = r'/|r'|,
    b = r' x r''/|r' x r''| and n = b x t, with the modified frame's kappa
    and tau; raises where the curvature vanishes (NaN rows over a batch)."""
    mf = frames_at(spec, s)
    flat = undefined(mf.kappa <= ABS_TOL, CurvatureVanishes,
                     "Frenet frame undefined at s = {:g} (kappa = {:g})", s, mf.kappa)
    jet = curve_of(spec).jet(mf.t)
    t, b = (v / norm(v) for v in (jet.r1.T, cross(jet.r1.T, jet.r2.T)))  # component-first
    n, b = (blank(flat, v.T) for v in (cross(b, t), b))
    return FrenetFrame(*_read_only(t.T, n, b, mf.kappa, mf.tau))


@np.errstate(divide="ignore", invalid="ignore")
def frame_ode_rhs(mf: ModifiedFrame):
    """Right-hand sides T' = N, N' = -k^2 T + (k'/k) N + tau B,
    B' = -tau N + (k'/k) B."""
    flat = undefined(mf.kappa <= ABS_TOL, CurvatureVanishes,
                     "frame ODE coefficients need kappa > 0")
    ratio = mf.kappa_prime / mf.kappa
    T, N, B = mf.T.T, mf.N.T, mf.B.T  # component-first
    dT = N
    dN = -mf.kappa**2 * T + ratio * N + mf.tau * B
    dB = -mf.tau * N + ratio * B
    return tuple(blank(flat, v.T) for v in (dT, dN, dB))


class FrameOdeResult(NamedTuple):
    """Residual norms of the three frame ODE rows, at one point or at
    each point of a batch."""

    s: float
    residual_T: float
    residual_N: float
    residual_B: float

    @property
    def max_residual(self):
        return np.maximum(np.maximum(self.residual_T, self.residual_N), self.residual_B)


def check_frame_ode(spec, s) -> FrameOdeResult:
    """Compare finite-difference derivatives of {T, N, B} along s with the
    exact ODE right-hand sides, at ``s`` (a float or an array)."""
    at = frame_table(spec, s)
    exact = frame_ode_rhs(at(s))
    residuals = [norm((numerics.diff_vec(lambda x: getattr(at(x), name), s) - d).T)
                 for name, d in zip("TNB", exact)]
    return FrameOdeResult(s, *residuals)


def metric_residual(spec, s):
    """Worst deviation from <T,T> = 1, <N,N> = <B,B> = kappa^2 and pairwise
    orthogonality; kappa^2 taken from the cross-product formula so the two
    curvature paths check each other."""
    mf = frames_at(spec, s)
    k2 = curvature(curve_of(spec).jet(mf.t)) ** 2
    T, N, B = mf.T.T, mf.N.T, mf.B.T
    return np.maximum.reduce([
        np.abs(dot(T, T) - 1.0),
        np.abs(dot(N, N) - k2),
        np.abs(dot(B, B) - k2),
        np.abs(dot(T, N)),
        np.abs(dot(T, B)),
        np.abs(dot(N, B)),
    ])


from . import darboux as _darboux  # noqa: E402  (darboux imports this module; bound once defined)
