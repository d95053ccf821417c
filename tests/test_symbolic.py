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
salkowski(3).  The bound is 1e-13 (about 450 eps) of each field's largest
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
CURVES = {**validation.default_families(), "salkowski3": curves.salkowski(3.0)}
LIBRARY = {"point": indicatrix.indicatrix_point, "rate": indicatrix._signed_rate,
           "tangent": indicatrix.indicatrix_tangent, "cov": indicatrix.cov_deriv_closed,
           "gamma": indicatrix.geodesic_curvature_closed}
# The general pole forms need phi' with its kappa' term, which the library
# drops under its constant-curvature gate (ROADMAP item 1).
_POLE_VARYING = pytest.mark.xfail(strict=True, raises=NonConstantCurvature, reason=(
    "ROADMAP item 1: the pole image needs constant kappa in the library"))


def _cases():
    for kind in IndicatrixKind:
        for name, spec in CURVES.items():
            if validation._admits(kind)(spec):
                yield pytest.param(kind, name, id=f"{kind.value}-{name}")
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
