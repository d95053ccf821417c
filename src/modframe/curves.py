"""Built-in analytic curve families with exact derivatives.

Everything the library knows about a family sits in one row of
:data:`FAMILIES`: its arity and factory, a closed-form jet (position and
parameter-derivatives up to order 4), an exact speed, and the properties
validation selects curves by.  Arclength comes from one table per curve,
so the frame formulas can assume unit speed: cumulative lengths at 257
parameter nodes (a 16-node Gauss-Legendre rule per panel) and, per panel,
a degree-9 length polynomial from the degree-8 Chebyshev interpolant of
the speed, which :func:`at_arclength` inverts; the build refuses one that
misses its panel's Gauss length.  Jets, speeds and arclength inversion
take a float or an array of points; a float's jet is Python floats until
:meth:`CurveSpec.jet` wraps it.  Finite differences are never used here;
they live in :mod:`modframe.numerics` as the independent cross-check.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import numerics
from .errors import OutOfRange, TargetOutOfRange, UnresolvedArclength
from .numerics import ABS_TOL, Vec3

_PANELS = 256
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
# Chebyshev nodes of a panel's length polynomial, and the bound on its
# miss of the panel's Gauss length, relative to that length.
_FIT_NODES = 9
_FIT_TOL = 1e-12


@dataclass(frozen=True)
class CurveSpec:
    """An analytic curve family plus parameters and a parameter range.

    Build instances through the factory functions (:func:`helix`,
    :func:`circle`, ...) which validate parameters and choose ranges on
    which the curve is regular.
    """

    family: str
    params: tuple[float, ...]
    t_lo: float
    t_hi: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (*self.params, self.t_lo, self.t_hi))):
            raise ValueError(f"{self.family} parameters must be finite, got {self.params}")

    def jet(self, t) -> Jet:
        """Exact position and derivatives of the curve at parameter ``t``,
        a float or an array of parameters."""
        return Jet(*numerics._read_only(*(np.asarray(v, dtype=float)
                                          for v in self.jet_components(t))))

    def jet_components(self, t) -> tuple:
        """The five vectors of :meth:`jet` as the family computes them:
        3-tuples of Python floats at a float ``t``, (..., 3) arrays at an
        array of parameters."""
        bad = numerics.outside(t, self.t_lo - ABS_TOL, self.t_hi + ABS_TOL)
        if bad is not None:
            raise OutOfRange(
                f"t = {bad:g} outside [{self.t_lo:g}, {self.t_hi:g}] for {self.family}"
            )
        return FAMILIES[self.family].jet(self.params, t)

    def speed(self, t):
        """Exact |dr/dt| at ``t``, a float or an array of parameters."""
        return FAMILIES[self.family].speed(self.params, t)

    @property
    def constant_kappa(self) -> float | None:
        """The curvature if it is the same at every point, else None."""
        return FAMILIES[self.family].constant_kappa(self.params)

    @property
    def kappa_zeros(self) -> tuple[float, ...]:
        """Parameters of the isolated curvature zeros in the range."""
        return FAMILIES[self.family].kappa_zeros


@dataclass(frozen=True)
class Jet:
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


def _vectors(t, c):
    # The five 3-vectors of a jet from its 15 components ``c``, a tuple,
    # order by order: 3-tuples of floats for a float t, (..., 3) arrays
    # for an array t, with constant components broadcast.
    if not isinstance(t, np.ndarray):
        return c[0:3], c[3:6], c[6:9], c[9:12], c[12:15]
    out = []
    for k in range(0, 15, 3):
        v = np.empty(t.shape + (3,))
        v[..., 0], v[..., 1], v[..., 2] = c[k:k + 3]
        out.append(v)
    return tuple(out)


def _helix_jet(p, t) -> tuple:
    a, b = p
    # math.cos and math.sin: the fast one-point case (see _salkowski_jet)
    cos, sin = (np.cos, np.sin) if isinstance(t, np.ndarray) else (math.cos, math.sin)
    ct, st = cos(t), sin(t)
    return _vectors(t, (a * ct, a * st, b * t,
                        -a * st, a * ct, b,
                        -a * ct, -a * st, 0.0,
                        a * st, -a * ct, 0.0,
                        a * ct, a * st, 0.0))


def _monomials(*powers: int | None):
    """(jet, speed) of t -> (t**n for n in powers); None is a zero component."""
    # d^k/dt^k t**n = perm(n, k) * t**(n - k): per order k, per component,
    # that (factor, power), or None for a zero term.
    terms = [None if n is None or k > n else (math.perm(n, k), n - k)
             for k in range(5) for n in powers]
    degree = max(filter(None, powers))

    def jet(p, t) -> tuple:
        # each power t**j once, by ** as in the textbook form: t*t*t can
        # differ from t**3 in the last bit
        tj = [t**j for j in range(degree + 1)]
        return _vectors(t, tuple([0.0 if c is None else c[0] * tj[c[1]] for c in terms]))

    # |r'|^2 = sum of n^2 t^(2n - 2), a polynomial in t^2: its
    # coefficients, highest first, summed by Horner.
    top, *rest = (k * k if k in powers else 0 for k in range(degree, 0, -1))

    def speed(p, t):
        t2, acc = t * t, top
        for c in rest:
            acc = acc * t2 + c
        return np.sqrt(acc) if isinstance(acc, np.ndarray) else math.sqrt(acc)

    return jet, speed


@lru_cache(maxsize=None)
def _salkowski_terms(m: float):
    """(frequencies, factors, (c, a)) of the salkowski curve with parameter m.

    The speed is a*|cos(c*t)| and the torsion tan(c*t).  x = sum A cos(w t)
    and y = sum A sin(w t) over the frequencies 1, 1 + 2c and 1 - 2c, and
    z = A cos(2c t).  ``factors[k]`` holds A w**k of the four terms, the
    amplitudes of the k-th derivative.  Raises ValueError where 1 + m*m
    overflows, so that c and a cannot be represented.
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


def _salkowski_jet(p, t) -> tuple:
    # cos and sin of the four angles w t, once each; math.cos and math.sin
    # are the fast one-point case of np.cos and np.sin (the two agree bit
    # for bit).  d/dt takes (cos, sin)(w t) to w (-sin, cos)(w t), so order
    # k turns (c, s) by k quarter turns: (-s, c), (-c, -s), (s, -c), (c, s).
    freqs, factors, _ = _salkowski_terms(p[0])
    cos, sin = (np.cos, np.sin) if isinstance(t, np.ndarray) else (math.cos, math.sin)
    g0, g1, g2, gz = [w * t for w in freqs]
    c0, c1, c2, cz = cos(g0), cos(g1), cos(g2), cos(gz)
    s0, s1, s2, sz = sin(g0), sin(g1), sin(g2), sin(gz)
    (a0, a1, a2, az), (b0, b1, b2, bz), (d0, d1, d2, dz), (e0, e1, e2, ez), \
        (f0, f1, f2, fz) = factors
    return _vectors(t, (
        a0 * c0 + a1 * c1 + a2 * c2, a0 * s0 + a1 * s1 + a2 * s2, az * cz,
        -b0 * s0 - b1 * s1 - b2 * s2, b0 * c0 + b1 * c1 + b2 * c2, -bz * sz,
        -d0 * c0 - d1 * c1 - d2 * c2, -d0 * s0 - d1 * s1 - d2 * s2, -dz * cz,
        e0 * s0 + e1 * s1 + e2 * s2, -e0 * c0 - e1 * c1 - e2 * c2, ez * sz,
        f0 * c0 + f1 * c1 + f2 * c2, f0 * s0 + f1 * s1 + f2 * s2, fz * cz,
    ))


def _salkowski_speed(p, t):
    c, a = _salkowski_terms(p[0])[2]
    if isinstance(t, np.ndarray):
        return a * np.abs(np.cos(c * t))
    return a * abs(math.cos(c * t))


@dataclass(frozen=True)
class Family:
    """One curve family: how to build it, evaluate it, and what it is.

    ``jet(params, t)`` and ``speed(params, t)`` are exact, for a float
    ``t`` or an array of them; the jet is the five vectors of a
    :class:`Jet`, 3-tuples of floats at a float ``t``.
    ``constant_kappa(params)`` is the curvature when it is the same at
    every point and None otherwise;
    ``kappa_zeros`` lists the parameters of isolated curvature zeros.
    """

    name: str
    arity: int
    factory: Callable[..., CurveSpec]
    jet: Callable[[tuple, float | np.ndarray], tuple]
    speed: Callable
    constant_speed: bool
    constant_kappa: Callable[[tuple], float | None]
    kappa_zeros: tuple[float, ...] = ()


FAMILIES: dict[str, Family] = {f.name: f for f in (
    Family("line", 0, line, *_monomials(1, None, None), True, lambda p: 0.0),
    Family("circle", 1, circle, lambda p, t: _helix_jet((p[0], 0.0), t),
           lambda p, t: p[0], True, lambda p: 1.0 / p[0]),
    Family("helix", 2, helix, _helix_jet, lambda p, t: math.hypot(*p), True,
           lambda p: abs(p[0]) / (p[0] * p[0] + p[1] * p[1])),
    Family("twisted_cubic", 0, twisted_cubic, *_monomials(1, 2, 3), False, lambda p: None),
    # Curvature vanishes at t = 0: the isolated zero exercised by the
    # modified frame.
    Family("planar_cubic", 0, planar_cubic, *_monomials(1, 3, None), False,
           lambda p: None, (0.0,)),
    Family("salkowski", 1, salkowski, _salkowski_jet, _salkowski_speed, False,
           lambda p: 1.0),
)}


def _gauss(spec: CurveSpec, a, b):
    # One 16-node Gauss-Legendre rule for the length over [a, b],
    # elementwise over arrays of ends; an empty interval needs no rule.
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    if isinstance(half, np.ndarray):
        return half * (spec.speed(mid[..., None] + half[..., None] * _GL_NODES) @ _GL_WEIGHTS)
    if a == b:
        return 0.0
    return half * float(_GL_WEIGHTS @ spec.speed(mid + half * _GL_NODES))


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
    ``u``; floats and arrays alike, elementwise."""
    acc = coef[0]
    for a in coef[1:]:
        acc = acc * u + a
    return acc


@lru_cache(maxsize=None)
def _arclength_table(spec: CurveSpec):
    """(ts, cum, panels): 257 uniform parameter nodes, the cumulative
    lengths there from one 16-node Gauss-Legendre rule per panel (a
    read-only memoryview, so that a one-point :func:`at_arclength` bisects
    them as Python floats, not numpy scalars), and one row per panel of
    what :func:`at_arclength` reads.  The cache shares all three, so all
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
    is refused rather than inverted wrongly.
    """
    ts = np.linspace(spec.t_lo, spec.t_hi, _PANELS + 1)
    lengths = _gauss(spec, ts[:-1], ts[1:])
    cum = np.concatenate(([0.0], np.cumsum(lengths)))
    v = spec.speed(ts)
    live = (0.0 < v) & (v < math.inf)
    width = np.diff(ts)
    with np.errstate(divide="ignore", invalid="ignore"):
        bend0, bend1 = (np.where(live[:-1] & live[1:], lengths / w - width, 0.0)
                        for w in (v[:-1], v[1:]))
    mid, half = 0.5 * (ts[:-1] + ts[1:]), 0.5 * width
    nodes, fit = _length_fit()
    coef = np.einsum("pj,jk->pk", spec.speed(mid[:, None] + half[:, None] * nodes), fit)
    miss = np.abs(width * _horner(coef.T, 1.0) - lengths)
    unresolved = ~(miss <= _FIT_TOL * lengths)  # NaN included
    if unresolved.any():
        i = int(np.argmax(unresolved))
        raise UnresolvedArclength(
            f"{spec.family}{spec.params}: the length polynomial of panel "
            f"[{ts[i]:g}, {ts[i + 1]:g}] misses its Gauss length {lengths[i]:g} "
            f"by {miss[i]:g}, above {_FIT_TOL:g} of it"
        )
    ts, panels = numerics._read_only(
        ts, np.column_stack((ts[:-1], ts[1:], cum[:-1], cum[1:], bend0, bend1, mid, half, coef)))
    return ts, memoryview(cum).toreadonly(), panels


def arclength(spec: CurveSpec, t0: float, t1: float) -> float:
    """Arc length of the curve between parameters t0 <= t1."""
    for t in (t0, t1):
        if not (spec.t_lo - ABS_TOL <= t <= spec.t_hi + ABS_TOL):
            raise OutOfRange(f"parameter {t:g} outside the declared range")
    if FAMILIES[spec.family].constant_speed:
        return spec.speed(t0) * (t1 - t0)
    # Whole panels from the table, plus one rule over each part-panel.
    ts, cum, *_ = _arclength_table(spec)
    i0, i1 = np.clip(np.searchsorted(ts, (t0, t1), side="right") - 1, 0, _PANELS - 1)
    return (float(cum[i1] - cum[i0])
            + _gauss(spec, float(ts[i1]), t1) - _gauss(spec, float(ts[i0]), t0))


def total_arclength(spec: CurveSpec) -> float:
    if FAMILIES[spec.family].constant_speed:
        return arclength(spec, spec.t_lo, spec.t_hi)
    return _arclength_table(spec)[1][-1]


def at_arclength(spec: CurveSpec, s):
    """Parameter t with arclength(spec, t_lo, t) = s; for an array of
    arclengths, an array of parameters from one elementwise solve.

    On a curve of varying speed the length map inverted is the panel's
    length polynomial c0 + (t - t0) m(u) from :func:`_arclength_table`,
    with the exact speed as its derivative.  Every step of the solve is
    elementwise, so each element of an array equals the call at that one
    arclength bit for bit, whatever the array's size.
    """
    total = total_arclength(spec)
    bad = numerics.outside(s, -ABS_TOL, total + ABS_TOL)
    if bad is not None:
        raise TargetOutOfRange(f"arclength {bad:g} outside [0, {total:g}]")
    if FAMILIES[spec.family].constant_speed:
        t = spec.t_lo + s / spec.speed(spec.t_lo)
        if isinstance(t, np.ndarray):
            return np.clip(t, spec.t_lo, spec.t_hi)
        return min(max(t, spec.t_lo), spec.t_hi)
    # The table brackets s within one panel (the count of inner panel
    # edges at or below s) and gives its image [c0, c1].  The first guess
    # is the cubic Hermite interpolant of t(s) across the panel, with the
    # exact slope dt/ds = 1/speed at both ends.
    _, cum, panels = _arclength_table(spec)
    if isinstance(s, np.ndarray):
        i = np.searchsorted(cum[1:-1], s, side="right")
        lo, hi, c0, c1, bend0, bend1, mid, half, *coef = panels[i].T
    else:  # one point, on Python floats
        i = bisect.bisect_right(cum, s, 1, _PANELS) - 1
        lo, hi, c0, c1, bend0, bend1, mid, half, *coef = panels[i].tolist()
    u = (s - c0) / (c1 - c0)
    guess = lo + u * (hi - lo + (1.0 - u) * ((1.0 - u) * bend0 - u * bend1))
    return numerics.invert_monotone(lambda t: c0 + (t - lo) * _horner(coef, (t - mid) / half),
                                    spec.speed, s, lo, hi, guess, (c0, c1))


def position_at_arclength(spec: CurveSpec, s: float) -> Vec3:
    """Position at arclength ``s``, read from the cached frame there so
    that the frame and the position of a point share one inversion."""
    return frames.modified_frame(spec, s).r


def arclength_grid(spec: CurveSpec, n: int) -> np.ndarray:
    """``n`` uniform arclength samples, 5 % of the length off both ends so
    finite-difference stencils stay inside the declared range."""
    total = total_arclength(spec)
    return np.linspace(0.05 * total, 0.95 * total, n)


def frenet_arclength_grid(spec: CurveSpec, n: int) -> np.ndarray:
    """Like :func:`arclength_grid` but drops samples whose parameter falls
    within 1e-3 of a curvature zero."""
    s = arclength_grid(spec, n)
    if not spec.kappa_zeros:
        return s
    t = at_arclength(spec, s)
    return s[np.all([np.abs(t - z) > 1e-3 for z in spec.kappa_zeros], axis=0)]


from . import frames  # noqa: E402  (frames imports this module; bound once defined)
