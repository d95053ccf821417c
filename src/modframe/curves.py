"""Built-in analytic curve families with exact derivatives.

Everything the library knows about a family sits in one row of
:data:`FAMILIES`: its arity and factory, a closed-form jet (position and
parameter-derivatives up to order 4), an exact speed, the properties
validation selects curves by, and a length record that inverts the length
map, so the frame formulas can assume unit speed: exactly at constant
speed, by Newton on salkowski's closed-form map, and on a cubic by Newton
on one table per curve: cumulative lengths at 257 parameter nodes (a
16-node Gauss-Legendre rule per panel) and, per panel, a degree-9 length
polynomial from the degree-8 Chebyshev interpolant of the speed; the build
refuses one that misses its panel's Gauss length.  :func:`arclength`, that
rule on every family, is the reference.  A curve binds its family's jet,
speed and length record once, into one cached record: bodies over its own
constants, bound to math for one point and to numpy for a batch; a float's
jet is Python floats until :meth:`CurveSpec.jet` wraps it.  Finite
differences are never used here; they live in :mod:`modframe.numerics` as
the independent cross-check.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from collections import namedtuple
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from . import numerics
from .errors import OutOfRange, TargetOutOfRange, UnresolvedArclength
from .numerics import ABS_TOL, Vec3

_PANELS = 256
# The 16-node Gauss-Legendre rule on [-1, 1], equal bit for bit to
# numpy.polynomial.legendre.leggauss(16), written out so that the import
# runs no eigensolve.  The rule is symmetric: its eight positive nodes and
# their weights, mirrored.
_GL_X = (0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
         0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499)
_GL_W = (0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
         0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176)
_GL_NODES = np.array([-x for x in reversed(_GL_X)] + list(_GL_X))
_GL_WEIGHTS = np.array(_GL_W[::-1] + _GL_W)
# Chebyshev nodes of a panel's length polynomial, and the bound on its
# miss of the panel's Gauss length, relative to that length.
_FIT_NODES = 9
_FIT_TOL = 1e-12
# The refusal of an input that is neither a float nor a numpy array.
_NOT_A_NUMBER = "{} must be a float or a numpy array, not {}"


class CurveSpec(NamedTuple("CurveSpec", [("family", str), ("params", tuple[float, ...]),
                                         ("t_lo", float), ("t_hi", float)])):
    """An analytic curve family plus parameters and a parameter range.

    Build instances through the factory functions (:func:`helix`,
    :func:`circle`, ...) which validate parameters and choose ranges on
    which the curve is regular.  A tuple, so its hash is
    ``hash((family, params, t_lo, t_hi))``, computed in C.
    """

    __slots__ = ()

    def __new__(cls, family: str, params: tuple[float, ...], t_lo: float, t_hi: float):
        if not all(map(math.isfinite, (*params, t_lo, t_hi))):
            raise ValueError(f"{family} parameters must be finite, got {params}")
        return super().__new__(cls, family, params, t_lo, t_hi)

    # _replace builds through _make, which would skip the check above
    _make = classmethod(lambda cls, fields: cls(*fields))

    def jet(self, t) -> Jet:
        """Exact position and derivatives of the curve at parameter ``t``, a
        float or a numpy array of parameters (TypeError for a list, say),
        from the curve's bound jet.  Raises OutOfRange outside the range."""
        _check_parameters(self, t)
        curve = _curve(self)
        jet = curve.jets if isinstance(t, np.ndarray) else curve.jet
        return Jet(*numerics._read_only(*(np.asarray(v, dtype=float) for v in jet(t))))

    def speed(self, t):
        """Exact |dr/dt| at ``t``, a float or a numpy array of parameters
        (TypeError for a list, say)."""
        curve = _curve(self)
        if isinstance(t, np.ndarray):
            return curve.speeds(t)
        try:
            return curve.speed(t)
        except TypeError:
            raise TypeError(_NOT_A_NUMBER.format("t", type(t).__name__)) from None

    @property
    def constant_kappa(self) -> float | None:
        """The curvature if it is the same at every point, else None."""
        return FAMILIES[self.family].constant_kappa(self.params)

    @property
    def kappa_zeros(self) -> tuple[float, ...]:
        """Parameters of the isolated curvature zeros in the range."""
        return FAMILIES[self.family].kappa_zeros


class Jet(NamedTuple):
    """Position and first four parameter-derivatives, read-only: (3,) vectors
    at one point, or (..., 3) arrays at an array of parameters."""

    r: Vec3
    r1: Vec3
    r2: Vec3
    r3: Vec3
    r4: Vec3


def line() -> CurveSpec:
    return CurveSpec("line", (), 0.0, 1.0)


def circle(radius: float) -> CurveSpec:
    if radius <= 0:
        raise ValueError("circle radius must be positive")
    return CurveSpec("circle", (float(radius),), 0.0, 2.0 * math.pi)


def helix(a: float, b: float) -> CurveSpec:
    if a == 0 and b == 0:
        raise ValueError("helix needs (a, b) != (0, 0)")
    return CurveSpec("helix", (float(a), float(b)), 0.0, 2.0 * math.pi)


def twisted_cubic() -> CurveSpec:
    return CurveSpec("twisted_cubic", (), -1.0, 1.0)


def planar_cubic() -> CurveSpec:
    return CurveSpec("planar_cubic", (), -1.0, 1.0)


def salkowski(m: float) -> CurveSpec:
    """Constant-curvature (kappa = 1), non-constant-torsion family.

    The parametrization below places the principal normal on a circle of
    the unit sphere at constant angle to the z-axis, which forces
    kappa = 1 while tau = tan(c*t) varies.  m = +-1/sqrt(3) makes a
    frequency in the closed form vanish, and m = 0 collapses to a planar
    circle, so both are rejected.  The default range keeps the speed
    positive and tau bounded away from zero.
    """
    if m == 0.0:
        raise ValueError("salkowski m = 0 degenerates to constant torsion")
    if abs(abs(m) - 1.0 / math.sqrt(3.0)) < 1e-12:
        raise ValueError("salkowski m = +-1/sqrt(3) is excluded")
    u_max = math.pi / (2.0 * abs(_salkowski_terms(float(m))[2][0]))
    if math.isinf(u_max):
        raise ValueError(f"salkowski m = {m:g} is too small: its range pi/(2c) overflows")
    return CurveSpec("salkowski", (float(m),), 0.1 * u_max, 0.9 * u_max)


def _check_parameters(spec: CurveSpec, *ts) -> None:
    """The one check of a curve's parameter range: refuse with OutOfRange a
    parameter (a float or an array, TypeError for a list) outside [t_lo,
    t_hi] by more than ABS_TOL, and an interval t0, t1 with t1 below t0."""
    family, _, t_lo, t_hi = spec  # one unpack, not four field reads
    for t in ts:
        try:
            bad = numerics.outside(t, t_lo - ABS_TOL, t_hi + ABS_TOL)
        except TypeError:
            raise TypeError(_NOT_A_NUMBER.format("t", type(t).__name__)) from None
        if bad is not None:
            raise OutOfRange(f"t = {bad:g} outside [{t_lo:g}, {t_hi:g}] for {family}")
    if ts[1:] and ts[1] < ts[0]:
        raise OutOfRange(f"t1 = {ts[1]:g} below t0 = {ts[0]:g}")


def _arrays(jet):  # the batch jet of a jet bound to numpy: its 3-tuples as (..., 3) arrays
    def jets(t):
        out = []
        for x, y, z in jet(t):
            v = np.empty(t.shape + (3,))
            v[..., 0], v[..., 1], v[..., 2] = x, y, z
            out.append(v)
        return tuple(out)
    return jets


def _constant(v):  # the binder of the constant speed v(params), broadcast over an array t
    return lambda xp, p: lambda t, c=v(p): c + 0.0 * t


def _helix_jet(xp, p):  # math's cos and sin: the fast one-point case (see _salkowski_jet)
    a, b = p

    def jet(t, cos=xp.cos, sin=xp.sin):
        ct, st = cos(t), sin(t)
        return ((a * ct, a * st, b * t), (-a * st, a * ct, b), (-a * ct, -a * st, 0.0),
                (a * st, -a * ct, 0.0), (a * ct, a * st, 0.0))
    return jet


# The polynomial families' jets, d^k/dt^k t**n = perm(n, k) * t**(n - k)
# written out with float factors, each power by ** as in the textbook form
# (t*t*t can differ from t**3 in the last bit), and the cubics' speeds |r'|
# by Horner in t*t.  The jets call nothing that xp binds.

def _line_jet(xp, p):
    return lambda t: ((t, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0),
                      (0.0, 0.0, 0.0))


def _twisted_cubic_jet(xp, p):
    return lambda t: ((t, (t2 := t**2), t**3), (1.0, 2.0 * t, 3.0 * t2), (0.0, 2.0, 6.0 * t),
                      (0.0, 0.0, 6.0), (0.0, 0.0, 0.0))


def _twisted_cubic_speed(xp, p):
    return lambda t, sqrt=xp.sqrt: sqrt((9.0 * (t2 := t * t) + 4.0) * t2 + 1.0)


def _planar_cubic_jet(xp, p):
    return lambda t: ((t, t**3, 0.0), (1.0, 3.0 * t**2, 0.0), (0.0, 6.0 * t, 0.0),
                      (0.0, 6.0, 0.0), (0.0, 0.0, 0.0))


def _planar_cubic_speed(xp, p):
    return lambda t, sqrt=xp.sqrt: sqrt(9.0 * (t2 := t * t) * t2 + 1.0)


def _salkowski_terms(m: float):
    """(frequencies, factors, (c, a)) of the salkowski curve with parameter m.

    The speed is a*|cos(c*t)| and the torsion tan(c*t).  x = sum A cos(w t)
    and y = sum A sin(w t) over the frequencies 1, 1 + 2c and 1 - 2c, and
    z = A cos(2c t).  ``factors[k]`` holds A w**k of the four terms, the
    amplitudes of the k-th derivative.  Raises ValueError where 1 + m*m
    overflows, so that c and a cannot be represented.  Not cached.
    """
    c, a = m / math.sqrt(1.0 + m * m), 1.0 / math.sqrt(1.0 + m * m)
    if a == 0.0:
        raise ValueError(f"salkowski m = {m:g} is too large: c and a cannot be represented")
    w1 = 1.0 + 2.0 * c
    w2 = 1.0 - 2.0 * c
    freqs = (1.0, w1, w2, 2.0 * c)
    amps = (-a / 2.0, -a * (1.0 - c) / (4.0 * w1), -a * (1.0 + c) / (4.0 * w2),
            -a * a / (4.0 * c))
    return freqs, tuple(tuple(A * w**k for A, w in zip(amps, freqs)) for k in range(5)), (c, a)


def _salkowski_jet(xp, p):
    # cos and sin of the four angles w t, once each; math.cos and math.sin
    # are the fast one-point case of np.cos and np.sin (the two agree bit
    # for bit).  d/dt takes (cos, sin)(w t) to w (-sin, cos)(w t), so order
    # k turns (c, s) by k quarter turns: (-s, c), (-c, -s), (s, -c), (c, s).
    (w0, w1, w2, wz), factors, _ = _salkowski_terms(p[0])
    (a0, a1, a2, az), (b0, b1, b2, bz), (d0, d1, d2, dz), (e0, e1, e2, ez), \
        (f0, f1, f2, fz) = factors

    def jet(t, cos=xp.cos, sin=xp.sin):
        g0, g1, g2, gz = w0 * t, w1 * t, w2 * t, wz * t
        c0, c1, c2, cz = cos(g0), cos(g1), cos(g2), cos(gz)
        s0, s1, s2, sz = sin(g0), sin(g1), sin(g2), sin(gz)
        return ((a0 * c0 + a1 * c1 + a2 * c2, a0 * s0 + a1 * s1 + a2 * s2, az * cz),
                (-b0 * s0 - b1 * s1 - b2 * s2, b0 * c0 + b1 * c1 + b2 * c2, -bz * sz),
                (-d0 * c0 - d1 * c1 - d2 * c2, -d0 * s0 - d1 * s1 - d2 * s2, -dz * cz),
                (e0 * s0 + e1 * s1 + e2 * s2, -e0 * c0 - e1 * c1 - e2 * c2, ez * sz),
                (f0 * c0 + f1 * c1 + f2 * c2, f0 * s0 + f1 * s1 + f2 * s2, fz * cz))
    return jet


def _salkowski_speed(xp, p):
    c, a = _salkowski_terms(p[0])[2]
    return lambda t, cos=xp.cos: a * abs(cos(c * t))  # abs of an array is np.abs


def _uniform_length(spec: CurveSpec, speed, speeds):
    """The length record at a constant speed v: t = t_lo + s/v, clipped against
    rounding.  Raises UnresolvedArclength where L overflows."""
    _, _, t_lo, t_hi = spec
    v = speed(t_lo)
    total = v * (t_hi - t_lo)
    if not math.isfinite(total):
        raise UnresolvedArclength(f"{spec.family}{spec.params}: its length {total:g} overflows")
    return (total, lambda s: min(max(t_lo + s / v, t_lo), t_hi),
            lambda s: np.clip(t_lo + s / v, t_lo, t_hi))


def _salkowski_length(spec: CurveSpec, speed, speeds):
    """The length record of salkowski: Newton on its exact length map
    g(t) = (a/c)(sin(c t) - sin(c t_lo)), L = g(t_hi), from arcsin(sin(c t_lo) + c s/a)/c."""
    _, params, t_lo, t_hi = spec
    c, a = _salkowski_terms(params[0])[2]
    k, s_lo = a / c, math.sin(c * t_lo)
    total = k * (math.sin(c * t_hi) - s_lo)

    def inverse(sin, speed, guess):  # on math's floats or numpy's arrays
        def g(t):
            return k * (sin(c * t) - s_lo)
        # np.arcsin at a float too: math.asin can differ in the last bit
        return lambda s: numerics.invert_monotone(
            g, speed, s, t_lo, t_hi, guess(np.arcsin(s_lo + s / k)) / c, (0.0, total))

    return total, inverse(math.sin, speed, float), inverse(np.sin, speeds, lambda t: t)


def _table_length(spec: CurveSpec, speed, speeds):
    """The length record from the curve's :func:`_arclength_table`: the panel
    that holds s (the count of inner edges at or below s) gives the bracket
    [c0, c1], the Hermite first guess of t(s) and the length polynomial
    that Newton solves, with the exact speed as its derivative."""
    _, cum, panels = _arclength_table(spec)
    inner = cum[1:-1]  # a memoryview, so a bisect reads Python floats

    def solve(s, panel, dg):
        lo, hi, c0, c1, bend0, bend1, mid, half, a0, a1, a2, a3, a4, a5, a6, a7, a8 = panel
        u = (s - c0) / (c1 - c0)
        guess = lo + u * (hi - lo + (1.0 - u) * ((1.0 - u) * bend0 - u * bend1))

        def g(t):  # _horner(coef, u) written out: its first step 0.0 * u + a0 is a0
            u = (t - mid) / half
            return c0 + (t - lo) * ((((((((a0 * u + a1) * u + a2) * u + a3) * u + a4) * u + a5)
                                       * u + a6) * u + a7) * u + a8)
        return numerics.invert_monotone(g, dg, s, lo, hi, guess, (c0, c1))

    # one point's panel on Python floats; a batch's as arrays, one per column
    # of the table, whatever the shape of s
    return (cum[-1], lambda s: solve(s, panels[bisect_right(inner, s)].tolist(), speed),
            lambda s: solve(s, panels.T[:, np.searchsorted(inner, s, side="right")], speeds))


class Family(NamedTuple):
    """One curve family: how to build it, evaluate it, and what it is.

    ``jet(xp, params)`` and ``speed(xp, params)`` bind the exact bodies to
    a curve's parameters and to ``xp``, math for a point or numpy for a
    batch; a bound jet gives a :class:`Jet`'s five vectors as 3-tuples.
    ``length(spec, speed, speeds)`` builds from the bound speeds the total
    length and the inverse of the length map at a float and over an array.
    ``constant_kappa(params)`` is the curvature when it is the same at
    every point and None otherwise;
    ``kappa_zeros`` lists the parameters of isolated curvature zeros.
    """

    name: str
    arity: int
    factory: Callable[..., CurveSpec]
    jet: Callable
    speed: Callable
    length: Callable[..., tuple]
    constant_kappa: Callable[[tuple], float | None]
    kappa_zeros: tuple[float, ...] = ()


FAMILIES: dict[str, Family] = {f.name: f for f in (
    Family("line", 0, line, _line_jet, _constant(lambda p: 1.0), _uniform_length,
           lambda p: 0.0),
    Family("circle", 1, circle, lambda xp, p: _helix_jet(xp, (p[0], 0.0)),  # pitch 0
           _constant(lambda p: p[0]), _uniform_length, lambda p: 1.0 / p[0]),
    Family("helix", 2, helix, _helix_jet, _constant(lambda p: math.hypot(*p)),
           _uniform_length, lambda p: abs(p[0]) / (p[0] * p[0] + p[1] * p[1])),
    Family("twisted_cubic", 0, twisted_cubic, _twisted_cubic_jet, _twisted_cubic_speed,
           _table_length, lambda p: None),
    # Curvature vanishes at t = 0: the isolated zero exercised by the
    # modified frame.
    Family("planar_cubic", 0, planar_cubic, _planar_cubic_jet, _planar_cubic_speed,
           _table_length, lambda p: None, (0.0,)),
    Family("salkowski", 1, salkowski, _salkowski_jet, _salkowski_speed,
           _salkowski_length, lambda p: 1.0),
)}


_Curve = namedtuple("_Curve", "total hi inverse inverses jet jets speed speeds")


@lru_cache(maxsize=64)  # bounded as the tables are: a process may make any number of curves
def _curve(spec: CurveSpec) -> _Curve:
    """The one cache of what a point of ``spec`` reads: its length L, the
    end hi = L + ABS_TOL of the arclengths :func:`at_arclength` takes, and
    the inverse of its length map, its jet and its speed, each at a float
    and over an array.  Raises the length record's UnresolvedArclength.
    Private, so the benchmark's tracer puts no span on its lookups."""
    family, params = FAMILIES[spec.family], spec.params
    speed, speeds = family.speed(math, params), family.speed(np, params)
    total, inverse, inverses = family.length(spec, speed, speeds)
    return _Curve(total, total + ABS_TOL, inverse, inverses,
                  family.jet(math, params), _arrays(family.jet(np, params)), speed, speeds)


def _gauss(speed, a, b):
    # One 16-node Gauss-Legendre rule of ``speed`` over [a, b]: floats, or arrays elementwise.
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * (speed(mid[..., None] + half[..., None] * _GL_NODES) @ _GL_WEIGHTS)


@lru_cache(maxsize=None)
def _length_fit() -> tuple[np.ndarray, np.ndarray]:
    """The Chebyshev nodes x_j = cos(theta_j), theta_j = pi (j + 1/2) / 9,
    of [-1, 1], and the (9, 9) matrix that takes the speeds there to the
    monomial coefficients, highest power first, of P(u)/(u + 1), with P
    the integral from -1 of their degree-8 interpolant.  On a panel
    [t0, t1] with u = (t - mid)/half, the length from t0 is
    half P(u) = (t - t0) P(u)/(u + 1): P(u)/(u + 1) is the mean speed."""
    n = _FIT_NODES
    theta = np.pi * (np.arange(n) + 0.5) / n
    # The interpolant's Chebyshev coefficients are the cosine sums
    # a_k = (2/9) sum_j f_j cos(k theta_j), with a_0 halved: row j holds
    # the a_k of f = e_j.
    cheb = (2.0 / n) * np.cos(np.outer(theta, np.arange(n)))
    cheb[:, 0] *= 0.5
    # Row k of T: the monomial coefficients of T_k, lowest power first,
    # from T_{k+1} = 2u T_k - T_{k-1}.
    T = np.zeros((n, n))
    T[0, 0] = T[1, 1] = 1.0
    for i in range(1, n - 1):
        T[i + 1, 1:] = 2.0 * T[i, :-1]
        T[i + 1] -= T[i - 1]
    # The integral of u^k from -1, over u + 1:
    # (u^(k+1) - (-1)^(k+1)) / ((k + 1)(u + 1)) = sum over j <= k of
    # (-1)^(k-j) u^j / (k + 1), row k of D.
    k, j = np.indices((n, n))
    D = np.tril((1.0 - 2.0 * ((k - j) % 2)) / (k + 1))
    # einsum rather than @ here and in the table: a matrix product starts
    # BLAS's gemm, whose buffers cost about 0.3 MB of resident memory.
    return np.cos(theta), np.einsum("ij,jk,kl->il", cheb, T, D)[:, ::-1]


def _horner(coef, u):
    """The polynomial with coefficients ``coef``, highest power first, at
    ``u``; floats and arrays alike, elementwise.  It starts from 0.0, so a
    call slices nothing: at a finite ``u``, 0.0 * u + coef[0] is coef[0]."""
    acc = 0.0
    for a in coef:
        acc = acc * u + a
    return acc


@lru_cache(maxsize=64)  # ~40 KB a table: a process making new curves must not grow with them
def _arclength_table(spec: CurveSpec):
    """(ts, cum, panels): 257 uniform parameter nodes, the cumulative
    lengths there from one 16-node Gauss-Legendre rule per panel (a
    read-only memoryview, so that a one-point :func:`at_arclength` bisects
    them as Python floats, not numpy scalars), and one row per panel of
    what :func:`_table_length` reads.  The cache shares all three, so all
    three are read-only.

    A row holds the panel's ends t0, t1, their lengths c0, c1, the
    Hermite terms of the first guess (how far the exact slopes
    dt/ds = 1/speed at the ends exceed the secant, in units of t; 0, a
    linear guess, where a node speed is 0 or not finite), its midpoint
    and half-width, and the 9 coefficients of the mean speed m of
    :func:`_length_fit`: the length from t0 is (t - t0) m(u), a
    polynomial of degree 9 in u = (t - mid)/half, exact at t0.

    On a panel 1/256 of the range the degree-8 interpolant of these
    analytic speeds is exact to rounding, so the polynomial meets the
    panel's Gauss length at t1 to a few eps of it (under 19 eps on the
    built-in families).  The build raises UnresolvedArclength where it
    misses by more than _FIT_TOL = 1e-12 of it, the relative miss the
    inversion's final check allows, so a speed the degree cannot resolve
    is refused rather than inverted wrongly; and where a panel's length is
    subnormal, below sys.float_info.min, where rounding has no relative bound.
    """
    speed = FAMILIES[spec.family].speed(np, spec.params)  # _curve(spec) is being built
    ts = np.linspace(spec.t_lo, spec.t_hi, _PANELS + 1)
    lengths = _gauss(speed, ts[:-1], ts[1:])
    cum = np.concatenate(([0.0], np.cumsum(lengths)))
    v = speed(ts)
    live = (0.0 < v) & (v < math.inf)
    width = np.diff(ts)
    with np.errstate(divide="ignore", invalid="ignore"):
        bend0, bend1 = (np.where(live[:-1] & live[1:], lengths / w - width, 0.0)
                        for w in (v[:-1], v[1:]))
    mid, half = 0.5 * (ts[:-1] + ts[1:]), 0.5 * width
    nodes, fit = _length_fit()
    coef = np.einsum("pj,jk->pk", speed(mid[:, None] + half[:, None] * nodes), fit)
    miss = np.abs(width * _horner(coef.T, 1.0) - lengths)
    unresolved = ~(miss <= _FIT_TOL * lengths) | (lengths < sys.float_info.min)  # NaN too
    if unresolved.any():
        i = int(np.argmax(unresolved))
        raise UnresolvedArclength(
            f"{spec.family}{spec.params}: the length polynomial of panel "
            f"[{ts[i]:g}, {ts[i + 1]:g}] misses its Gauss length {lengths[i]:g} "
            f"by {miss[i]:g}: above {_FIT_TOL:g} of it, or the length is subnormal"
        )
    ts, panels = numerics._read_only(
        ts, np.column_stack((ts[:-1], ts[1:], cum[:-1], cum[1:], bend0, bend1, mid, half, coef)))
    return ts, memoryview(cum).toreadonly(), panels


def arclength(spec: CurveSpec, t0: float, t1: float) -> float:
    """Arc length between parameters t0 <= t1 on any family, the reference for
    the length records: the table's whole panels plus a rule per part-panel.
    Raises OutOfRange for a parameter outside the range, or t1 below t0."""
    _check_parameters(spec, t0, t1)
    ts, cum, *_ = _arclength_table(spec)
    i0, i1 = np.clip(np.searchsorted(ts, (t0, t1), side="right") - 1, 0, _PANELS - 1)
    # a rule per part-panel: a (2, 16) matrix product sums in another order
    return (float(cum[i1] - cum[i0])
            + float(_gauss(spec.speed, ts[i1], t1)) - float(_gauss(spec.speed, ts[i0], t0)))


def total_arclength(spec: CurveSpec) -> float:
    """Length of the curve over its whole range, from its record."""
    return _curve(spec).total


def arclength_range(spec: CurveSpec) -> tuple[float, float]:
    """[-ABS_TOL, L + ABS_TOL], the arclengths :func:`at_arclength` takes."""
    return -ABS_TOL, _curve(spec).hi


def at_arclength(spec: CurveSpec, s):
    """Parameter t with arclength(spec, t_lo, t) = s, from the inverse in
    the curve's record; for a numpy array of arclengths, of any shape, an
    array of parameters from one elementwise solve, each element equal bit
    for bit to the call at that one arclength.  Raises TargetOutOfRange for
    an s outside :func:`arclength_range`, and TypeError for an s that is
    neither a float nor a numpy array (a list, say)."""
    curve = _curve(spec)
    if not isinstance(s, np.ndarray):
        try:
            if -ABS_TOL <= s <= curve.hi:  # one chained comparison, which NaN fails as well
                return curve.inverse(s)
        except TypeError:
            raise TypeError(_NOT_A_NUMBER.format("arclength", type(s).__name__)) from None
        bad = s
    elif (bad := numerics.outside(s, -ABS_TOL, curve.hi)) is None:
        return curve.inverses(s)
    raise TargetOutOfRange(f"arclength {bad:g} outside [0, {_curve(spec).total:g}]")


def position_at_arclength(spec: CurveSpec, s: float) -> Vec3:
    """Position at arclength ``s``, read from the cached frame there so
    that the frame and the position of a point share one inversion."""
    return frames.modified_frame(spec, s).r


def arclength_grid(spec: CurveSpec, n: int) -> np.ndarray:
    """``n`` uniform arclength samples, 5 % of the length off both ends so
    finite-difference stencils stay inside the declared range."""
    total = total_arclength(spec)
    return np.linspace(0.05 * total, 0.95 * total, n)


from . import frames  # noqa: E402  (frames imports this module; bound once defined)
