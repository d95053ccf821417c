"""Deterministic 3-vector algebra and scalar numerics.

Everything here is a pure function: no shared mutable state, safe to call
from any number of threads.  The finite-difference derivative is the
independent oracle used throughout the test suite, so it is implemented
here by hand, as is the bracketed Newton inversion of monotone maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NotMonotone, StepTooSmall, TargetOutOfRange

Vec3 = np.ndarray

_EPS = float(np.finfo(float).eps)
# Newton stops once a step is below _XTOL + _RTOL * |t|; bisection alone
# would shrink any bracket below that well within _MAX_NEWTON steps.
_XTOL, _RTOL, _MAX_NEWTON = 1e-14, 4.0 * _EPS, 100


@dataclass(frozen=True)
class Tolerance:
    """Numerical tolerances shared by the whole library.

    abs_tol gates absolute residuals, rel_tol relative ones, fd_step is the
    base step of the first-order finite-difference oracle.
    """

    abs_tol: float = 1e-9
    rel_tol: float = 1e-7
    fd_step: float = 1e-5

    def __post_init__(self) -> None:
        if self.abs_tol <= 0 or self.rel_tol <= 0 or self.fd_step <= 0:
            raise ValueError("all tolerances must be strictly positive")


DEFAULT_TOL = Tolerance()


class ReadOnlyArrays:
    """Dataclass base whose array fields turn read-only when built, so a
    cached result cannot be changed in place by one of its callers."""

    def __post_init__(self) -> None:
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False


def vec(x: float, y: float, z: float) -> Vec3:
    return np.array([x, y, z], dtype=float)


def norm(v: Vec3) -> float:
    return float(math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2]))


def dot(a: Vec3, b: Vec3) -> float:
    return float(a[0] * b[0] + a[1] * b[1] + a[2] * b[2])


def cross(a: Vec3, b: Vec3) -> Vec3:
    """Vector product a x b."""
    return np.array(
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ],
        dtype=float,
    )


def det3(a: Vec3, b: Vec3, c: Vec3) -> float:
    """Scalar triple product det(a, b, c) = <a x b, c>."""
    return dot(cross(a, b), c)


def normalize(v: Vec3) -> Vec3:
    n = norm(v)
    if n == 0.0:
        raise ZeroDivisionError("cannot normalize the zero vector")
    return v / n


# Higher-order stencils cancel more digits, so their base step must grow.
_STEP_SCALE = {1: 1.0, 2: 100.0, 3: 1000.0}


def _stencil(f: Callable[[float], Vec3], s: float, order: int, h: float) -> Vec3:
    if order == 1:
        return (f(s + h) - f(s - h)) / (2.0 * h)
    if order == 2:
        return (f(s + h) - 2.0 * f(s) + f(s - h)) / (h * h)
    # order == 3
    return (f(s + 2 * h) - 2.0 * f(s + h) + 2.0 * f(s - h) - f(s - 2 * h)) / (
        2.0 * h**3
    )


def diff_vec(
    f: Callable[[float], Vec3],
    s: float,
    order: int = 1,
    step: float | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> Vec3:
    """Central-difference derivative of a vector-valued map.

    Richardson extrapolation over steps h and h/2 raises the leading
    O(h^2) stencil error to O(h^4).  ``f`` must be evaluable on
    [s - 3*step, s + 3*step].  Raises StepTooSmall when the rounding-noise
    estimate eps * |f| / step**order exceeds the rel_tol budget.
    """
    if order not in (1, 2, 3):
        raise ValueError(f"unsupported derivative order {order}")
    h = tol.fd_step * _STEP_SCALE[order] if step is None else float(step)
    if h <= 0:
        raise ValueError("step must be positive")

    scale = max(norm(f(s)), 1.0)
    noise = 8.0 * _EPS * scale / h**order
    if noise > tol.rel_tol * scale:
        raise StepTooSmall(
            f"step {h:g} leaves rounding noise {noise:g} above the "
            f"rel_tol budget at order {order}"
        )

    coarse = _stencil(f, s, order, h)
    fine = _stencil(f, s, order, h / 2.0)
    return (4.0 * fine - coarse) / 3.0


def invert_monotone(
    g: Callable[[float], float],
    dg: Callable[[float], float],
    target: float,
    lo: float,
    hi: float,
    t0: float,
    tol: Tolerance = DEFAULT_TOL,
) -> float:
    """Solve g(t) = target for a strictly increasing g with derivative dg.

    Newton steps start from the guess ``t0`` and stay in a bracket that
    shrinks around the root; a step that would leave the bracket bisects
    it instead.
    """
    g_lo, g_hi = g(lo), g(hi)
    if not (g_lo - tol.abs_tol <= target <= g_hi + tol.abs_tol):
        raise TargetOutOfRange(
            f"target {target:g} outside [{g_lo:g}, {g_hi:g}]"
        )
    if target <= g_lo:
        return float(lo)
    if target >= g_hi:
        return float(hi)
    t = min(max(t0, lo), hi)
    for _ in range(_MAX_NEWTON):
        r = g(t) - target
        lo, hi = (lo, t) if r > 0.0 else (t, hi)
        d = dg(t)
        step = r / d if d > 0.0 else math.inf
        if abs(step) <= _XTOL + _RTOL * abs(t):
            t = min(max(t - step, lo), hi)
            break
        t -= step
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
    if abs(g(t) - target) > max(tol.abs_tol, 1e-12 * abs(target)):
        raise NotMonotone("bracketing converged to a point that misses the target")
    return float(t)
