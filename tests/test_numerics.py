import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modframe
from modframe import numerics
from modframe.errors import NotMonotone, StepTooSmall, TargetOutOfRange
from modframe.numerics import cross, diff_vec, invert_monotone, vec

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
vectors = st.builds(vec, finite, finite, finite)


class TestCross:
    def test_basis(self):
        assert np.allclose(cross(vec(1, 0, 0), vec(0, 1, 0)), vec(0, 0, 1))

    def test_self_product_vanishes(self):
        a = vec(1.3, -2.2, 0.7)
        assert np.array_equal(cross(a, a), vec(0, 0, 0))

    def test_helix_frame_product(self):
        # hand-expanded determinant for the helix frame vectors at s = 0
        a = vec(0.0, 0.89443, 0.44721)
        b = vec(-0.4, 0.0, 0.0)
        assert np.allclose(cross(a, b), vec(0.0, -0.178886, 0.357772), atol=1e-5)

    @given(vectors, vectors)
    @settings(max_examples=200)
    def test_orthogonal_to_both_factors(self, a, b):
        c = cross(a, b)
        scale = max(1.0, numerics.norm(a) * numerics.norm(b))
        assert abs(numerics.dot(c, a)) <= 1e-9 * scale
        assert abs(numerics.dot(c, b)) <= 1e-9 * scale

    @given(vectors, vectors)
    def test_anticommutative(self, a, b):
        assert np.allclose(cross(a, b), -cross(b, a))


class TestDiffVec:
    def test_polynomial_first_derivative(self):
        f = lambda s: vec(s, s * s, s**3)
        assert np.allclose(diff_vec(f, 1.0, order=1), vec(1, 2, 3), atol=1e-8)

    @pytest.mark.parametrize("order,expected", [
        (1, vec(1, 2, 3)),
        (2, vec(0, 2, 6)),
        (3, vec(0, 0, 6)),
    ])
    def test_cubic_all_orders(self, order, expected):
        f = lambda s: vec(s, s * s, s**3)
        assert np.allclose(diff_vec(f, 1.0, order=order), expected, atol=1e-8)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_constant_map(self, order):
        f = lambda s: vec(4.0, -1.0, 2.5)
        assert np.allclose(diff_vec(f, 0.3, order=order), vec(0, 0, 0), atol=1e-8)

    def test_trig(self):
        f = lambda s: vec(math.sin(s), math.cos(s), 0.0)
        assert np.allclose(diff_vec(f, 0.5, order=1),
                           vec(math.cos(0.5), -math.sin(0.5), 0.0), atol=1e-10)

    def test_step_too_small_raises(self):
        f = lambda s: vec(math.sin(s), 0, 0)
        with pytest.raises(StepTooSmall):
            diff_vec(f, 0.5, order=2, step=1e-7)

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            diff_vec(lambda s: vec(s, 0, 0), 0.0, order=4)


class TestInvertMonotone:
    def test_identity(self):
        assert invert_monotone(lambda t: t, lambda t: 1.0, 0.5, 0.0, 1.0, 0.9) == pytest.approx(0.5)

    def test_cube(self):
        t = invert_monotone(lambda t: t**3, lambda t: 3 * t * t, 1.0, 0.0, 2.0, 1.5)
        assert t == pytest.approx(1.0)

    def test_out_of_range(self):
        with pytest.raises(TargetOutOfRange):
            invert_monotone(lambda t: t, lambda t: 1.0, 3.0, 0.0, 1.0, 0.5)

    def test_non_monotone_detected(self):
        with pytest.raises((NotMonotone, TargetOutOfRange)):
            invert_monotone(lambda t: math.sin(10 * t), lambda t: 10 * math.cos(10 * t),
                            0.5, 0.0, 3.0, 1.5)

    @given(st.floats(min_value=0.01, max_value=7.9),
           st.floats(min_value=-1.0, max_value=3.0))
    @settings(max_examples=50)
    def test_round_trip(self, target, guess):
        # Any first guess, even one outside the bracket, converges.
        g = lambda t: t**3 + t
        t = invert_monotone(g, lambda t: 3 * t * t + 1, target, 0.0, 2.0, guess)
        assert abs(g(t) - target) <= 1e-9



def test_import_loads_no_scipy():
    code = "import sys, modframe; print([m for m in sys.modules if m.startswith('scipy')])"
    src = str(Path(modframe.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": src}, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
