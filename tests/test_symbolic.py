"""Every ``KINDS`` form against its derivation in the frame calculus of
``symbolic.py``, with no finite difference: the library's point, signed
rate, unit tangent, covariant derivative and geodesic curvature of each
indicatrix, at 16 points of ``modified_frames`` per curve, against the
derived forms evaluated at the same frames' kappa, tau, kappa', tau', T, N
and B.

Both sides are one algebraic expression in double precision on the same
inputs, so they differ by rounding, and by the kappa' of a constant-
curvature frame (up to 4e-13 on salkowski(3), rounding in its jet), which
the general pole rate reads and the library's drops: 1.2e-13 on a rate
of size 9.  The derived forms come out expanded (the binormal
geodesic curvature as a ratio of quintics in tau) and cancel a few digits
where kappa is 1: the worst miss is 1.4e-13 on a field of size 5, on
salkowski(3).  On salkowski(1e-4) the normal and pole images miss (see
``_SMALL_M``).  The bound is 1e-13 (about 450 eps) of each field's largest
value on the curve, floored at 1, so that a form that vanishes on a curve
(the helix's phi', the planar cubic's tau) is held to 1e-13 absolute.
Where the library blanks a form (a rate at most ABS_TOL leaves the
tangent undefined), the point is not compared.
"""

import numpy as np
import pytest

pytest.importorskip("sympy")

import symbolic  # noqa: E402

from modframe import curves, frames, indicatrix, validation  # noqa: E402
from modframe.errors import NonConstantCurvature  # noqa: E402
from modframe.indicatrix import IndicatrixKind  # noqa: E402

REL = 1e-13
CURVES = {**validation.default_families(), "salkowski3": curves.salkowski(3.0),
          "salkowski1e-4": curves.salkowski(1e-4)}
LIBRARY = {"point": indicatrix.indicatrix_point, "rate": indicatrix._signed_rate,
           "tangent": indicatrix.indicatrix_tangent, "cov": indicatrix.cov_deriv_closed,
           "gamma": indicatrix.geodesic_curvature_closed}
# The general pole forms need phi' with its kappa' term, which the library
# drops under its constant-curvature gate (ROADMAP item 1).
_POLE_VARYING = pytest.mark.xfail(strict=True, raises=NonConstantCurvature, reason=(
    "ROADMAP item 1: the pole image needs constant kappa in the library"))
# salkowski(1e-4) misses on two sides.  Its frames carry kappa' up to
# 2.6e-15 where it is 0 exactly, the jet's rounding at small m: the general
# pole rate reads it and the library's drops it, which moves cov and gamma
# by 2.6e-8 on fields of size 1e4 (each side is within 4e-12 of a 60-digit
# evaluation of its own form).  The normal image's derived gamma, a ratio
# of expanded polynomials in tau, cancels to 9.4e-13 on a field of size
# 1e-4, floored at 1; the library's agrees with 60 digits to 1e-20.
_SMALL_M = {
    IndicatrixKind.POLE: pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 3: the salkowski jet's kappa' at small m")),
    IndicatrixKind.NORMAL: pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 12: cancellation in the expanded derived gamma")),
}


def _cases():
    for kind in IndicatrixKind:
        for name, spec in CURVES.items():
            if validation._admits(kind)(spec):
                marks = _SMALL_M.get(kind, ()) if name == "salkowski1e-4" else ()
                yield pytest.param(kind, name, id=f"{kind.value}-{name}", marks=marks)
    yield pytest.param(IndicatrixKind.POLE, "twisted_cubic", id="pole-twisted_cubic",
                       marks=_POLE_VARYING)


@pytest.fixture(scope="module")
def derived():
    return symbolic.forms()


@pytest.mark.parametrize("kind, name", _cases())
def test_forms_match_their_derivation(derived, kind, name):
    spec = CURVES[name]
    mf = frames.modified_frames(spec, curves.arclength_grid(spec, 16))
    frame = np.stack([mf.T, mf.N, mf.B], axis=1)  # (n, 3 frame fields, 3)
    misses = []
    for form, library in LIBRARY.items():
        got = np.asarray(library(kind, mf))
        with np.errstate(all="ignore"):  # a derived form may be singular where the library blanks it
            want = derived[kind.value][form](mf.kappa, mf.tau, mf.kappa_prime, mf.tau_prime)
            if want.ndim == 2:  # frame coordinates to a vector
                want = np.einsum("ni,nij->nj", want, frame)
        live = np.isfinite(got).reshape(len(got), -1).all(axis=1)
        scale = max(float(np.abs(got[live]).max(initial=0.0)), 1.0)
        miss = np.abs(got - want)[live].max(initial=0.0)
        if not miss <= REL * scale:  # a NaN derived form misses too
            misses.append(f"{form}: {miss:.3g} above {REL * scale:.3g}")
        assert live.any() or form in ("tangent", "cov", "gamma"), form
    assert not misses, misses
