import math

import numpy as np
import pytest

from modframe import frames
from modframe.darboux import check_alignment, darboux, rotation_residuals
from modframe.curves import arclength_grid, circle, helix, salkowski, twisted_cubic
from modframe.errors import DegenerateFrame, NonConstantCurvature

HELIX = helix(2.0, 1.0)


class TestDarbouxData:
    def test_helix_values(self):
        mf = frames.modified_frame(HELIX, 0.0)
        dd = darboux(mf)
        # w = tau T + B, |w| = sqrt(kappa^2 + tau^2)
        assert np.allclose(dd.w, mf.tau * mf.T + mf.B, atol=1e-12)
        assert dd.w_norm == pytest.approx(math.hypot(0.4, 0.2), rel=1e-12)
        assert dd.phi == pytest.approx(math.atan2(0.2, 0.4), rel=1e-12)
        assert dd.phi_prime == pytest.approx(0.0, abs=1e-12)
        assert np.linalg.norm(dd.C) == pytest.approx(1.0, rel=1e-12)

    def test_w_is_orthogonal_to_n(self):
        for s in arclength_grid(HELIX, 8):
            mf = frames.modified_frame(HELIX, float(s))
            dd = darboux(mf)
            assert abs(float(np.dot(dd.w, mf.N))) < 1e-12

    def test_salkowski_phi_prime(self):
        # for the unit-curvature curve with tau = tan(m s / sqrt(1 + m^2) ... )
        # the analytic rate phi' must match finite differences of phi
        spec = salkowski(0.5)
        for s in arclength_grid(spec, 6):
            mf = frames.modified_frame(spec, float(s))
            dd = darboux(mf)
            h = 1e-5
            phi = lambda x: darboux(frames.modified_frame(spec, x)).phi
            fd = (phi(float(s) + h) - phi(float(s) - h)) / (2 * h)
            assert dd.phi_prime == pytest.approx(fd, abs=1e-7)

    def test_salkowski_phi_prime_closed_form(self):
        # phi' = m * |w| for the constant-curvature family with slope m
        m = 0.5
        spec = salkowski(m)
        for s in arclength_grid(spec, 8):
            dd = darboux(frames.modified_frame(spec, float(s)))
            assert dd.phi_prime == pytest.approx(m * dd.w_norm, rel=1e-9)

    def test_nonconstant_curvature_rejected(self):
        mf = frames.modified_frame(twisted_cubic(), 1.0)
        with pytest.raises(NonConstantCurvature):
            darboux(mf)

    def test_degenerate_frame_rejected(self):
        from modframe.frames import ModifiedFrame
        from modframe.numerics import vec
        mf = ModifiedFrame(vec(1, 0, 0), vec(0, 0, 0), vec(0, 0, 0),
                           0.0, 0.0, 0.0, 0.0, 0.0, vec(0, 0, 0))
        with pytest.raises(DegenerateFrame):
            darboux(mf)


class TestRotationIdentities:
    @pytest.mark.parametrize("spec", [
        HELIX, circle(1.0), circle(2.0), salkowski(0.5),
    ], ids=lambda s: s.family + str(s.params))
    def test_alignment(self, spec):
        # |N x N' - kappa^2 w| ~ 0 against the finite-difference oracle
        for s in arclength_grid(spec, 8):
            assert check_alignment(spec, float(s)) < 1e-5

    @pytest.mark.parametrize("spec", [
        HELIX, circle(1.0), circle(2.0), salkowski(0.5),
    ], ids=lambda s: s.family + str(s.params))
    def test_rotation(self, spec):
        # X' = w x X for X in {T, N, B}
        for s in arclength_grid(spec, 8):
            rT, rN, rB = rotation_residuals(spec, float(s))
            assert max(rT, rN, rB) < 1e-5
