"""Built-in analytic curve families with exact derivatives.

Everything the library knows about a family sits in one row of
:data:`FAMILIES`: its arity and factory, a closed-form jet (position and
parameter-derivatives up to order 4), an exact speed, and the properties
validation selects curves by.  Arclength comes from one Gauss-Legendre
table per curve, so the frame formulas can assume unit speed.  Jets,
speeds and arclength inversion take a float or an array of points.
Finite differences are never used here; they live in
:mod:`modframe.numerics` as the independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import numerics
from .errors import OutOfRange, TargetOutOfRange
from .numerics import ABS_TOL, ReadOnlyArrays, Vec3, vec

_RANGE_SLACK = 1e-9
_PANELS = 256
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


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
        bad = numerics.outside(t, self.t_lo - _RANGE_SLACK, self.t_hi + _RANGE_SLACK)
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
class Jet(ReadOnlyArrays):
    """Position and first four parameter-derivatives: (3,) vectors at one
    point, or (..., 3) arrays at an array of parameters."""

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
    u_max = math.pi / (2.0 * abs(_salkowski_ca(m)[0]))
    return CurveSpec("salkowski", (float(m),), 0.1 * u_max, 0.9 * u_max)


def _vectors(t, *xyz) -> Vec3:
    # One 3-vector per parameter: (3,) for a float t, (..., 3) for an
    # array t, with constant components broadcast.
    if not isinstance(t, np.ndarray):
        return vec(*xyz)
    out = np.empty(t.shape + (3,))
    out[..., 0], out[..., 1], out[..., 2] = xyz
    return out


def _helix_jet(p, t) -> Jet:
    a, b = p
    ct, st = np.cos(t), np.sin(t)
    return Jet(
        _vectors(t, a * ct, a * st, b * t),
        _vectors(t, -a * st, a * ct, b),
        _vectors(t, -a * ct, -a * st, 0.0),
        _vectors(t, a * st, -a * ct, 0.0),
        _vectors(t, a * ct, a * st, 0.0),
    )


def _monomials(*powers: int | None):
    """(jet, speed) of t -> (t**n for n in powers); None is a zero component."""
    def term(n, k, t):
        return 0.0 if n is None or k > n else math.perm(n, k) * t ** (n - k)

    def jet(p, t) -> Jet:
        return Jet(*(_vectors(t, *(term(n, k, t) for n in powers)) for k in range(5)))

    def speed(p, t):
        return np.sqrt(sum((n * t ** (n - 1)) ** 2 for n in powers if n))

    return jet, speed


def _salkowski_ca(m: float) -> tuple[float, float]:
    # (c, a): the speed is a*|cos(c*t)| and the torsion tan(c*t).
    return m / math.sqrt(1.0 + m * m), 1.0 / math.sqrt(1.0 + m * m)


def _salkowski_jet(p, t) -> Jet:
    # Per component: cosine terms (amplitude, frequency, phase), so the
    # k-th derivative is sum A w^k cos(w t + phase + k pi/2) -- exact at
    # every order.  math.cos is the fast one-point case of np.cos (the two
    # agree bit for bit).
    c, a = _salkowski_ca(p[0])
    w1 = 1.0 + 2.0 * c
    w2 = 1.0 - 2.0 * c
    x = [(-a / 2.0, 1.0, 0.0),
         (-a * (1.0 - c) / (4.0 * w1), w1, 0.0),
         (-a * (1.0 + c) / (4.0 * w2), w2, 0.0)]
    y = [(A, w, -math.pi / 2.0) for A, w, _ in x]
    z = [(-a * a / (4.0 * c), 2.0 * c, 0.0)]
    cos = np.cos if isinstance(t, np.ndarray) else math.cos

    def column(k: int) -> Vec3:
        shift = k * math.pi / 2.0
        return _vectors(t, *(sum(A * w**k * cos(w * t + ph + shift) for A, w, ph in comp)
                             for comp in (x, y, z)))

    return Jet(*(column(k) for k in range(5)))


def _salkowski_speed(p, t):
    c, a = _salkowski_ca(p[0])
    return a * np.abs(np.cos(c * t))


@dataclass(frozen=True)
class Family:
    """One curve family: how to build it, evaluate it, and what it is.

    ``jet(params, t)`` and ``speed(params, t)`` are exact, for a float
    ``t`` or an array of them.  ``constant_kappa(params)`` is the curvature
    when it is the same at every point and None otherwise;
    ``kappa_zeros`` lists the parameters of isolated curvature zeros.
    """

    name: str
    arity: int
    factory: Callable[..., CurveSpec]
    jet: Callable[[tuple, float | np.ndarray], Jet]
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
def _arclength_table(spec: CurveSpec) -> tuple[np.ndarray, np.ndarray]:
    # Cumulative lengths on a uniform grid, one Gauss-Legendre rule per
    # panel; essentially exact for these analytic speeds.
    ts = np.linspace(spec.t_lo, spec.t_hi, _PANELS + 1)
    return ts, np.concatenate(([0.0], np.cumsum(_gauss(spec, ts[:-1], ts[1:]))))


def arclength(spec: CurveSpec, t0: float, t1: float) -> float:
    """Arc length of the curve between parameters t0 <= t1."""
    for t in (t0, t1):
        if not (spec.t_lo - _RANGE_SLACK <= t <= spec.t_hi + _RANGE_SLACK):
            raise OutOfRange(f"parameter {t:g} outside the declared range")
    if FAMILIES[spec.family].constant_speed:
        return spec.speed(t0) * (t1 - t0)
    # Whole panels from the table, plus one rule over each part-panel.
    ts, cum = _arclength_table(spec)
    i0, i1 = np.clip(np.searchsorted(ts, (t0, t1), side="right") - 1, 0, _PANELS - 1)
    return (float(cum[i1] - cum[i0])
            + _gauss(spec, float(ts[i1]), t1) - _gauss(spec, float(ts[i0]), t0))


def total_arclength(spec: CurveSpec) -> float:
    if FAMILIES[spec.family].constant_speed:
        return arclength(spec, spec.t_lo, spec.t_hi)
    return float(_arclength_table(spec)[1][-1])


def at_arclength(spec: CurveSpec, s):
    """Parameter t with arclength(spec, t_lo, t) = s; for an array of
    arclengths, an array of parameters from one elementwise solve."""
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
    # edges at or below s); linear interpolation across it is the first
    # guess.
    ts, cum = _arclength_table(spec)
    i = np.searchsorted(cum[1:-1], s, side="right")
    lo, hi, c0 = ts[i], ts[i + 1], cum[i]
    guess = lo + (hi - lo) * (s - c0) / (cum[i + 1] - c0)
    return numerics.invert_monotone(
        lambda t: c0 + _gauss(spec, lo, t), spec.speed, s, lo, hi, guess)


def position_at_arclength(spec: CurveSpec, s: float) -> Vec3:
    """Position at arclength ``s``, read from the cached frame there so
    that the frame and the position of a point share one inversion."""
    from . import frames  # frames imports this module
    return frames.modified_frame(spec, s).r


def arclength_grid(
    spec: CurveSpec, n: int, margin: float = 0.05
) -> np.ndarray:
    """Uniform interior arclength samples, keeping a margin off both ends
    so finite-difference stencils stay inside the declared range."""
    total = total_arclength(spec)
    return np.linspace(margin * total, (1.0 - margin) * total, n)


def frenet_arclength_grid(
    spec: CurveSpec, n: int, margin: float = 0.05, exclude_halfwidth: float = 1e-3
) -> np.ndarray:
    """Like :func:`arclength_grid` but drops samples whose parameter falls
    within ``exclude_halfwidth`` of a curvature zero."""
    from . import frames
    return np.array([s for s in arclength_grid(spec, n, margin) if all(
        abs(frames.modified_frame(spec, float(s)).t - z) > exclude_halfwidth
        for z in spec.kappa_zeros)])
