"""Deterministic 3-vector algebra and scalar numerics.

Everything here is a pure function: no shared mutable state, safe to call
from any number of threads.  The finite-difference derivative is the
independent oracle used throughout the test suite, so it is implemented
here by hand, as is the bracketed Newton inversion of monotone maps.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import NotMonotone, StepTooSmall, TargetOutOfRange

Vec3 = np.ndarray

_EPS = float(np.finfo(float).eps)
# Newton stops once a step is below _XTOL + _RTOL * |t|; bisection alone
# would shrink any bracket below that well within _MAX_NEWTON steps.
_XTOL, _RTOL, _MAX_NEWTON = 1e-14, 4.0 * _EPS, 100


#: Gate on absolute residuals and on quantities that count as zero.
ABS_TOL = 1e-9
#: Budget for the relative rounding noise of the finite-difference oracle.
REL_TOL = 1e-7
#: Base step of the first-order finite-difference oracle.
FD_STEP = 1e-5


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


def diff_vec(f: Callable[[float], Vec3], s: float, order: int = 1,
             step: float | None = None) -> Vec3:
    """Central-difference derivative of a vector-valued map.

    Richardson extrapolation over steps h and h/2 raises the leading
    O(h^2) stencil error to O(h^4).  ``f`` must be evaluable on
    [s - 3*step, s + 3*step].  Raises StepTooSmall when the rounding-noise
    estimate eps * |f| / step**order exceeds the REL_TOL budget.
    """
    if order not in (1, 2, 3):
        raise ValueError(f"unsupported derivative order {order}")
    h = FD_STEP * _STEP_SCALE[order] if step is None else float(step)
    if h <= 0:
        raise ValueError("step must be positive")

    scale = max(norm(f(s)), 1.0)
    noise = 8.0 * _EPS * scale / h**order
    if noise > REL_TOL * scale:
        raise StepTooSmall(
            f"step {h:g} leaves rounding noise {noise:g} above the "
            f"REL_TOL budget at order {order}"
        )

    coarse = _stencil(f, s, order, h)
    fine = _stencil(f, s, order, h / 2.0)
    return (4.0 * fine - coarse) / 3.0


def outside(x, lo, hi):
    """The first value of ``x`` (a float or an array) outside [lo, hi],
    NaN included, or None when every value lies inside."""
    if isinstance(x, np.ndarray):
        bad = x[~((lo <= x) & (x <= hi))]
        return bad.flat[0] if bad.size else None
    return None if lo <= x <= hi else x


def _converged(step, t):
    # The stop rule of both Newton loops.
    return abs(step) <= _XTOL + _RTOL * abs(t)


def _misses(residual, target):
    # The final check of both loops: the solution must reproduce its target.
    return (abs(residual) > ABS_TOL) & (abs(residual) > 1e-12 * abs(target))


def invert_monotone(g: Callable, dg: Callable, target, lo, hi, t0):
    """Solve g(t) = target for a strictly increasing g with derivative dg.

    Newton steps start from the guess ``t0`` and stay in a bracket that
    shrinks around the root; a step that would leave the bracket bisects
    it instead.  Given arrays of targets, brackets and guesses (and a
    ``g`` and ``dg`` that act elementwise), the same solve runs on every
    element at once.
    """
    g_lo, g_hi = g(lo), g(hi)
    bad = outside(target, g_lo - ABS_TOL, g_hi + ABS_TOL)
    if bad is not None:
        raise TargetOutOfRange(f"target {bad:g} outside the image of its bracket")
    if isinstance(target, np.ndarray):
        t = _newton_elementwise(g, dg, target, lo, hi, t0, g_lo, g_hi)
        missed = _misses(g(t) - target, target).any()
    elif target <= g_lo:
        return float(lo)
    elif target >= g_hi:
        return float(hi)
    else:
        t = float(_newton(g, dg, target, lo, hi, t0))
        missed = _misses(g(t) - target, target)
    if missed:
        raise NotMonotone("bracketing converged to a point that misses the target")
    return t


def _newton(g, dg, target, lo, hi, t0):
    t = min(max(t0, lo), hi)
    for _ in range(_MAX_NEWTON):
        r = g(t) - target
        lo, hi = (lo, t) if r > 0.0 else (t, hi)
        d = dg(t)
        step = r / d if d > 0.0 else math.inf
        if _converged(step, t):
            return min(max(t - step, lo), hi)
        t -= step
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
    return t


def _newton_elementwise(g, dg, target, lo, hi, t0, g_lo, g_hi):
    # The loop of _newton on arrays: an element leaves once it meets the
    # stop rule, and targets at either end of the bracket never enter.
    at_lo, at_hi = target <= g_lo, target >= g_hi
    t = np.minimum(np.maximum(t0, lo), hi)
    active = ~(at_lo | at_hi)
    for _ in range(_MAX_NEWTON):
        if not active.any():
            break
        r = g(t) - target
        above = r > 0.0
        lo, hi = np.where(active & ~above, t, lo), np.where(active & above, t, hi)
        d = dg(t)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(d > 0.0, r / d, math.inf)
        done = active & _converged(step, t)
        t_new = t - step
        t_new = np.where(done, np.minimum(np.maximum(t_new, lo), hi),
                         np.where((lo < t_new) & (t_new < hi), t_new, 0.5 * (lo + hi)))
        t = np.where(active, t_new, t)
        active &= ~done
    return np.where(at_lo, lo, np.where(at_hi, hi, t))
