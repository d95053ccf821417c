"""Independent reference values and output checks.

Nothing here imports modframe: every reference comes from a closed form
or from this file's own quadrature, so a wrong answer from the library
cannot also be the yardstick it is judged by.  Each check yields a
residual divided by its tolerance; a ratio above 1, or one that is not
finite, fails the operation it belongs to.
"""

from __future__ import annotations

import math

import numpy as np

#: Tolerance of every frame, position and arclength check: the library's
#: own absolute tolerance (``Tolerance.abs_tol``).
TOL = 1e-9
#: Tolerance on the closed-vs-oracle residual the ``indicatrix`` command
#: reports: the one the validation suite applies to covariant derivatives.
COV_TOL = 1e-5

# Composite Gauss-Legendre rule for the twisted cubic's arclength.  The
# integrand's nearest complex singularity sits about 0.5 off the real
# axis, so 8 panels of 32 nodes are exact to rounding on [-1, 1].
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
_GL_PANELS = 8


def _salkowski_constants(m: float) -> tuple[float, float]:
    """(c, a) with speed a*cos(c*t), curvature 1 and torsion tan(c*t)."""
    return m / math.sqrt(1.0 + m * m), 1.0 / math.sqrt(1.0 + m * m)


def twisted_cubic_length(t_lo: float, t: np.ndarray) -> np.ndarray:
    """Arclength of (u, u^2, u^3) from ``t_lo`` to each ``t``."""
    t = np.asarray(t, dtype=float)
    edges = t_lo + (t[:, None] - t_lo) * np.linspace(0.0, 1.0, _GL_PANELS + 1)
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
    half = 0.5 * (edges[:, 1:] - edges[:, :-1])
    u = mid[..., None] + half[..., None] * _GL_NODES
    speed = np.sqrt(1.0 + 4.0 * u**2 + 9.0 * u**4)
    return (half * (speed @ _GL_WEIGHTS)).sum(axis=1)


def total_length(family: str, params: tuple, t_lo: float, t_hi: float) -> float:
    """Arclength of the whole curve, for drawing seeded inputs."""
    if family == "helix":
        a, b = params
        return math.hypot(a, b) * (t_hi - t_lo)
    if family == "salkowski":
        c, a = _salkowski_constants(params[0])
        return a / c * (math.sin(c * t_hi) - math.sin(c * t_lo))
    if family == "twisted_cubic":
        return float(twisted_cubic_length(t_lo, np.array([t_hi]))[0])
    raise ValueError(f"no reference for curve family {family!r}")


def _rows_norm(v: np.ndarray) -> np.ndarray:
    return np.sqrt((v * v).sum(axis=1))


def _rows_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (u * v).sum(axis=1)


def frame_ratios(
    family: str,
    params: tuple,
    t_lo: float,
    s: np.ndarray,
    pos: np.ndarray,
    T: np.ndarray,
    N: np.ndarray,
    B: np.ndarray,
    kappa: np.ndarray,
    tau: np.ndarray,
) -> dict[str, np.ndarray]:
    """Residual/tolerance per check and point for ``n`` frame samples.

    ``s`` is the arclength asked for; the other arrays are what the
    library returned there (vectors as ``(n, 3)``).
    """
    if family == "helix":
        a, b = params
        t = t_lo + s / math.hypot(a, b)
        k_ref = np.full_like(s, a / (a * a + b * b))
        tau_ref = np.full_like(s, b / (a * a + b * b))
        r_ref = np.column_stack([a * np.cos(t), a * np.sin(t), b * t])
        extra = {"position": _rows_norm(pos - r_ref)}
    elif family == "salkowski":
        c, a = _salkowski_constants(params[0])
        sin_ct = math.sin(c * t_lo) + c * s / a  # inverts s = (a/c)(sin ct - sin ct_lo)
        k_ref = np.ones_like(s)
        tau_ref = sin_ct / np.sqrt(1.0 - sin_ct**2)  # tan(c t), without forming t
        extra = {}
    elif family == "twisted_cubic":
        # The curve is (t, t^2, t^3), so the returned position carries t.
        x, y, z = pos[:, 0], pos[:, 1], pos[:, 2]
        q = 1.0 + 4.0 * x**2 + 9.0 * x**4
        k_ref = 2.0 * np.sqrt(1.0 + 9.0 * x**2 + 9.0 * x**4) / q**1.5
        tau_ref = 3.0 / (1.0 + 9.0 * x**2 + 9.0 * x**4)
        extra = {
            "position": np.maximum(np.abs(y - x * x), np.abs(z - x**3)),
            "arclength": np.abs(twisted_cubic_length(t_lo, x) - s),
        }
    else:
        raise ValueError(f"no reference for curve family {family!r}")
    residuals = {
        "unit_T": np.abs(_rows_norm(T) - 1.0),
        "norm_N": np.abs(_rows_norm(N) - k_ref),
        "norm_B": np.abs(_rows_norm(B) - k_ref),
        "orthogonal": np.maximum.reduce(
            [np.abs(_rows_dot(T, N)), np.abs(_rows_dot(T, B)), np.abs(_rows_dot(N, B))]
        ),
        "kappa": np.abs(kappa - k_ref),
        "tau": np.abs(tau - tau_ref),
        **extra,
    }
    return {name: r / TOL for name, r in residuals.items()}


def pole_indicatrix_ratios(
    m: float, t_lo: float, rows: list[dict]
) -> dict[str, np.ndarray]:
    """Checks on the salkowski(m) pole-indicatrix rows the CLI prints.

    With kappa = 1 the Lancret angle is phi = c*t, so the pole curve's
    rate is phi' = c dt/ds = c / (a cos(c t(s))).
    """
    c, a = _salkowski_constants(m)
    col = lambda *keys: np.array([[r[k] for k in keys] for r in rows], dtype=float)
    s = col("s")[:, 0]
    p = col("px", "py", "pz")
    tan = col("tx", "ty", "tz")
    cos_ct = np.sqrt(1.0 - (math.sin(c * t_lo) + c * s / a) ** 2)
    degenerate = np.array([bool(r["degenerate"]) for r in rows])
    return {
        "unit_point": np.abs(_rows_norm(p) - 1.0) / TOL,
        "speed": np.abs(col("speed")[:, 0] - c / (a * cos_ct)) / TOL,
        "unit_tangent": np.abs(_rows_norm(tan) - 1.0) / TOL,
        "tangent_on_sphere": np.abs(_rows_dot(tan, p)) / TOL,
        "cov_residual": col("residual")[:, 0] / COV_TOL,
        # No sample of this curve is degenerate (phi' > 0 throughout).
        "degenerate": np.where(degenerate, np.inf, 0.0),
    }


def validation_ratios(report: dict, identity_names: list[str]) -> dict[str, float]:
    """Checks on a validation report (``ValidationReport.to_dict()``).

    Expected discrepancies carry no verdict and are left out of the
    residual ratio.
    """
    names = [e["name"] for e in report["entries"]]
    judged = [e for e in report["entries"] if not e["expected_discrepancy"]]
    return {
        "passed": 0.0 if report["passed"] else math.inf,
        "one_entry_per_identity": 0.0 if sorted(names) == sorted(identity_names) else math.inf,
        "residual": max(e["max_residual"] / e["tolerance"] for e in judged),
    }


def summarize(ratios: dict[str, np.ndarray]) -> tuple[np.ndarray, float, str]:
    """Per-point pass mask, worst ratio and the check that produced it."""
    table = np.vstack([np.atleast_1d(np.asarray(r, dtype=float)) for r in ratios.values()])
    table = np.where(np.isfinite(table), table, np.inf)
    ok = (table <= 1.0).all(axis=0)
    worst_row = int(np.argmax(table.max(axis=1)))
    return ok, float(table.max()), list(ratios)[worst_row]
