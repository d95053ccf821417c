"""The modified-frame calculus in sympy: each indicatrix form derived for a
general curve, with no sampling and no finite difference.

A vector (a, b, c) is aT + bN + cB in the modified frame, whose fields
obey T' = N, N' = -k^2 T + (k'/k) N + tau B, B' = -tau N + (k'/k) B along
the arclength s, with the metric diag(1, k^2, k^2).  kappa(s) and tau(s)
are arbitrary functions; the radius-kappa N and B images take kappa
constant, as their gate does.  For each kind, from its point g alone:

- the signed rate: a square root of |g'|^2, signed as the kind's
  orientation is (kappa on the T and N images, tau on the B image, phi' on
  the pole image; a convention, which the unit tangent follows);
- the unit tangent g' / rate;
- the covariant derivative as ``cov_deriv_numeric`` defines it, the
  derivative of the unit tangent over the rate;
- the geodesic curvature as the Gauss-equation oracle measures it,
  |covariant derivative + g|.

:func:`forms` returns them as numpy functions of kappa, tau, kappa' and
tau', vectors as their (n, 3) frame coordinates.
"""

from functools import cache

import numpy as np
import sympy as sp

s = sp.Symbol("s", real=True)
ARGS = sp.symbols("kappa tau kappa_prime tau_prime", real=True)


def derivative(v, kappa, tau):
    """d/ds of the vector v = (a, b, c) by the frame equations."""
    a, b, c = v
    r = sp.diff(kappa, s) / kappa
    return sp.Matrix([sp.diff(a, s) - kappa**2 * b,
                      a + sp.diff(b, s) + r * b - tau * c,
                      sp.diff(c, s) + tau * b + r * c])


def inner(u, v, kappa):
    """The metric diag(1, kappa^2, kappa^2)."""
    return u[0] * v[0] + kappa**2 * (u[1] * v[1] + u[2] * v[2])


def derive(point, kappa, tau) -> dict:
    """The image with ``point``: its point, ``root``, a square root of
    |g'|^2 whose sign is sympy's, the unit tangent g'/root, and the
    covariant derivative and geodesic curvature, which do not depend on
    that sign."""
    g1 = derivative(point, kappa, tau)
    root = sp.powdenest(sp.sqrt(sp.factor(sp.cancel(inner(g1, g1, kappa)))), force=True)
    tangent = (g1 / root).applyfunc(sp.cancel)
    cov = (derivative(tangent, kappa, tau) / root).applyfunc(sp.cancel)
    gamma = sp.sqrt(sp.cancel(inner(cov + point, cov + point, kappa)))
    return {"point": point, "root": root, "tangent": tangent, "cov": cov, "gamma": gamma}


def _images():
    # each kind's point, its kappa (a constant for the radius-kappa N and
    # B), tau, and the orientation whose sign its rate takes
    kappa, tau = sp.Function("kappa", positive=True)(s), sp.Function("tau", real=True)(s)
    w = sp.sqrt(tau**2 + kappa**2)
    phi_prime = (kappa * sp.diff(tau, s) - tau * sp.diff(kappa, s)) / w**2
    constant = ARGS[0]
    return {
        "tangent": (sp.Matrix([1, 0, 0]), kappa, tau, kappa),
        "normal": (sp.Matrix([0, 1, 0]), constant, tau, constant),
        "binormal": (sp.Matrix([0, 0, 1]), constant, tau, tau),
        "pole": (sp.Matrix([tau / w, 0, 1 / w]), kappa, tau, phi_prime),
    }


def _numeric(expr):
    # f(kappa, tau, kappa', tau') on (n,) arrays: (n,) for a scalar form,
    # the (n, 3) frame coordinates for a vector form
    if expr.has(sp.Derivative):
        raise ValueError(f"a derivative of kappa or tau is left in {expr}")
    if isinstance(expr, sp.MatrixBase):
        parts = [sp.lambdify(ARGS, e, "numpy") for e in expr]
        return lambda *x: np.stack(np.broadcast_arrays(x[0], *(f(*x) for f in parts))[1:], axis=-1)
    f = sp.lambdify(ARGS, expr, "numpy")
    return lambda *x: np.broadcast_to(f(*x), np.shape(x[0]))


@cache
def forms() -> dict:
    """kind name -> {"point", "rate", "tangent", "cov", "gamma"} -> a numpy
    function of (kappa, tau, kappa', tau'), derived once."""
    out = {}
    for kind, (point, kappa, tau, orientation) in _images().items():
        # the derivatives become plain symbols, then kappa and tau do
        names = [(sp.Derivative(kappa, s), ARGS[2]), (sp.Derivative(tau, s), ARGS[3]),
                 (kappa, ARGS[0]), (tau, ARGS[1])]
        f = {k: _numeric(e.subs(names)) for k, e in derive(point, kappa, tau).items()}
        f["orientation"] = _numeric(orientation.subs(names))

        def sign(*x, f=f):  # turns root into the signed rate, and g'/root into the tangent
            return np.sign(f["orientation"](*x)) * np.sign(f["root"](*x))

        out[kind] = {
            "point": f["point"], "cov": f["cov"], "gamma": f["gamma"],
            "rate": lambda *x, f=f, sign=sign: sign(*x) * f["root"](*x),
            "tangent": lambda *x, f=f, sign=sign: f["tangent"](*x) * sign(*x)[:, None],
        }
    return out
