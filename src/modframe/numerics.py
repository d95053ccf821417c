"""Deterministic 3-vector algebra and scalar numerics.

Nothing here holds shared mutable state: every function is safe to call
from any number of threads.  The finite-difference derivative is the
independent oracle used throughout the test suite, so it is implemented
here by hand, as is the bracketed Newton inversion of monotone maps.

The vector helpers are component-first: ``v[0]`` holds every x component,
so they take one (3,) vector, a (3, n) array of n vectors, or 3 floats
in a list (:func:`dot` then returns a float), and a coefficient per
point broadcasts against the (3, n) array.  :func:`undefined`
and :func:`blank` carry the degeneracy policy of every closed form: a
single point raises, a batch marks the point with NaN.
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


def _read_only(*values) -> tuple:
    # ``values``, with every array among them flagged read-only: the
    # producers of jets and frames call it, so no caller changes one.
    # None of them makes an ndarray subclass, so an exact type test serves.
    for value in values:
        if type(value) is np.ndarray:
            value.setflags(False)
    return values


def vec(x: float, y: float, z: float) -> Vec3:
    return np.array([x, y, z], dtype=float)


def norm(v: Vec3):
    return np.sqrt(dot(v, v))


def dot(a: Vec3, b: Vec3):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross(a: Vec3, b: Vec3) -> Vec3:
    """Vector product a x b."""
    return np.array([a[1] * b[2] - a[2] * b[1],
                     a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]], dtype=float)


def det3(a: Vec3, b: Vec3, c: Vec3) -> float:
    """Scalar triple product det(a, b, c) = <a x b, c>."""
    return dot(cross(a, b), c)


# Higher-order stencils cancel more digits, so their base step must grow.
_STEP_SCALE = {1: 1.0, 2: 100.0, 3: 1000.0}
# Central stencils by order: offsets in steps, their weights, and the
# factor of step**order that divides the weighted sum.
_STENCILS = {
    1: ((1, -1), (1.0, -1.0), 2.0),
    2: ((1, 0, -1), (1.0, -2.0, 1.0), 1.0),
    3: ((2, 1, -1, -2), (1.0, -2.0, 2.0, -1.0), 2.0),
}


def _step(order: int, step: float | None) -> float:
    if order not in _STENCILS:
        raise ValueError(f"unsupported derivative order {order}")
    h = FD_STEP * _STEP_SCALE[order] if step is None else float(step)
    if not 0.0 < h < math.inf:
        raise ValueError(f"step must be positive and finite, not {h:g}")
    # Rounding noise 8 eps |f| / h**order against the budget REL_TOL |f|.
    noise = 8.0 * _EPS / h**order
    if noise > REL_TOL:
        raise StepTooSmall(
            f"step {h:g} leaves relative rounding noise {noise:g} above the "
            f"REL_TOL budget at order {order}"
        )
    return h


def _shifted(s, order: int, step: float | None) -> tuple[float, list]:
    # h, and the points s + k*hk where diff_vec evaluates its map (h, then h/2)
    h = _step(order, step)
    return h, [s + k * hk for hk in (h, h / 2.0) for k in _STENCILS[order][0]]


def stencil(s, order: int = 1, step: float | None = None) -> np.ndarray:
    """``s`` (a float or an array) and every arclength at which
    :func:`diff_vec` with these arguments evaluates its map, as one flat
    array: the points a finite-difference oracle at ``s`` reads."""
    return np.concatenate([np.ravel(x) for x in [s, *_shifted(s, order, step)[1]]])


def diff_vec(f: Callable, s, order: int = 1, step: float | None = None):
    """Central-difference derivative of a vector-valued map.

    Richardson extrapolation over steps h and h/2 raises the leading
    O(h^2) stencil error to O(h^4).  ``s`` is a float, with ``f`` called
    per stencil point and mapping a float to a (3,) vector, or an array,
    with ``f`` called once on all stencil points joined into one array and
    mapping it elementwise to an (n, 3) or (n,) array.  ``f`` must be
    evaluable on [s - 3*step, s + 3*step].  Raises StepTooSmall when the
    relative rounding noise 8 eps / step**order exceeds the REL_TOL budget.
    """
    h, points = _shifted(s, order, step)
    _, weights, divisor = _STENCILS[order]
    values = ([f(x) for x in points] if np.ndim(s) == 0
              else np.split(f(np.concatenate(points)), len(points)))

    def level(j, hk):  # the weighted sum of the values at step hk
        total = sum(w * v for w, v in zip(weights, values[j * len(weights):]))
        return total / (divisor * hk**order)

    return (4.0 * level(1, h / 2.0) - level(0, h)) / 3.0


def undefined(bad, error: type[Exception], message: str, *values):
    """The mask of points where a quantity is undefined.

    Over a batch, ``bad`` (one flag per point) is returned, for
    :func:`blank` to mark those points with NaN.  At a single point
    (``bad`` a bool) the point raises ``error`` instead, with ``message``
    formatted with ``values``.
    """
    if np.ndim(bad) == 0 and bad:
        raise error(message.format(*values))
    return bad


def blank(bad, value):
    """``value`` with NaN at the points where ``bad`` holds: one entry per
    point of a (n,) array, one row of an (n, 3) array."""
    if not (bad if isinstance(bad, bool) else bad.any()):
        return value
    return np.where(np.reshape(bad, np.shape(bad) + (1,) * (np.ndim(value) - np.ndim(bad))),
                    np.nan, value)


def outside(x, lo, hi):
    """The first value of ``x`` (a float or an array) outside [lo, hi],
    NaN included, or None when every value lies inside."""
    if isinstance(x, np.ndarray):
        bad = x[~((lo <= x) & (x <= hi))]
        return bad.flat[0] if bad.size else None
    return None if lo <= x <= hi else x


def _misses(residual, target):
    # The final check of the array loop: the solution must reproduce its
    # target.  invert_monotone writes it out inline for a float.
    return (abs(residual) > ABS_TOL) & (abs(residual) > 1e-12 * abs(target))


def invert_monotone(g: Callable, dg: Callable, target, lo, hi, t0, image=None):
    """Solve g(t) = target for a strictly increasing g with derivative dg.

    Newton steps start from the guess ``t0`` and stay in a bracket that
    shrinks around the root; a step that would leave the bracket bisects
    it instead.  ``image`` is the bracket's image (g(lo), g(hi)) when the
    caller already knows it, and is evaluated otherwise; a target outside
    it raises TargetOutOfRange.  Given arrays of targets, brackets and
    guesses (and a ``g`` and ``dg`` that act elementwise), the same solve
    runs on every element at once.  A solution that misses its target
    raises NotMonotone; at a single target that check reuses the last
    Newton residual when the solution is that iterate.
    """
    g_lo, g_hi = (g(lo), g(hi)) if image is None else image
    array = isinstance(target, np.ndarray)
    # a float's check is one chained comparison, which NaN fails as well
    bad = (outside(target, g_lo - ABS_TOL, g_hi + ABS_TOL) if array
           else None if g_lo - ABS_TOL <= target <= g_hi + ABS_TOL else target)
    if bad is not None:
        raise TargetOutOfRange(f"target {bad:g} outside the image of its bracket")
    if array:
        t = _newton_elementwise(g, dg, target, lo, hi, t0, g_lo, g_hi)
        # a target within ABS_TOL outside the image is met at its end, as below
        missed = _misses(g(t) - np.clip(target, g_lo, g_hi), target).any()
    elif target <= g_lo:
        return float(lo)
    elif target >= g_hi:
        return float(hi)
    else:
        t, residual = _newton(g, dg, target, lo, hi, t0)
        t = float(t)
        if residual is None:  # g was never evaluated at the root itself
            residual = g(t) - target
        missed = abs(residual) > ABS_TOL and abs(residual) > 1e-12 * abs(target)
    if missed:
        raise NotMonotone("bracketing converged to a point that misses the target")
    return t


def _newton(g, dg, target, lo, hi, t0):
    # The root and g(root) - target, when the last iterate was the root
    # itself (its step rounded away), else None.
    t = min(max(t0, lo), hi)
    for _ in range(_MAX_NEWTON):
        r = g(t) - target
        if r > 0.0:
            hi = t
        else:
            lo = t
        d = dg(t)
        step = r / d if d > 0.0 else math.inf
        if abs(step) <= _XTOL + _RTOL * abs(t):  # the stop rule
            root = min(max(t - step, lo), hi)
            return root, (r if root == t else None)
        t -= step
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
            if t in (lo, hi):  # no float is left inside the bracket
                break
    return t, None


def _newton_elementwise(g, dg, target, lo, hi, t0, g_lo, g_hi):
    # The loop of _newton on arrays: an element leaves once it meets the
    # stop rule or its bisection lands on an end of its bracket, and
    # targets at either end of the bracket never enter.
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
        done = active & (abs(step) <= _XTOL + _RTOL * abs(t))  # the stop rule of _newton
        t_new = t - step
        t_new = np.where(done, np.minimum(np.maximum(t_new, lo), hi),
                         np.where((lo < t_new) & (t_new < hi), t_new, 0.5 * (lo + hi)))
        t = np.where(active, t_new, t)
        active &= ~done & (t_new != lo) & (t_new != hi)
    return np.where(at_lo, lo, np.where(at_hi, hi, t))
