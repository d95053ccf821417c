import pytest

from modframe import involute, numerics
from modframe.curves import arclength_grid, helix, salkowski, twisted_cubic
from modframe.errors import NonConstantCurvature, NotMonotone
from modframe.indicatrix import IndicatrixKind

HELIX = helix(2.0, 1.0)
SALK = salkowski(0.5)
# the indicatrices paired with the pole curve
PAIRED = (IndicatrixKind.TANGENT, IndicatrixKind.BINORMAL, IndicatrixKind.NORMAL)


class TestInner:
    @pytest.mark.parametrize("pair", PAIRED, ids=lambda p: p.value)
    def test_helix_orthogonal(self, pair):
        for s in arclength_grid(HELIX, 8):
            assert abs(involute.involute_inner(pair, HELIX, float(s))) < 1e-9

    @pytest.mark.parametrize("pair", [
        IndicatrixKind.TANGENT, IndicatrixKind.BINORMAL,
    ], ids=lambda p: p.value)
    def test_salkowski_orthogonal_pairs(self, pair):
        for s in arclength_grid(SALK, 8):
            assert abs(involute.involute_inner(pair, SALK, float(s))) < 1e-9

    def test_salkowski_normal_pair_fails(self):
        # phi' != 0 on this family, so the normal pairing is of order phi'
        worst = max(
            abs(involute.involute_inner(IndicatrixKind.NORMAL, SALK, float(s)))
            for s in arclength_grid(SALK, 8)
        )
        assert worst > 1e-3

    def test_pole_is_not_paired(self):
        with pytest.raises(ValueError):
            involute.involute_inner(IndicatrixKind.POLE, HELIX, 1.0)
        with pytest.raises(ValueError):
            involute.involute_scan(IndicatrixKind.POLE, HELIX, 8)

    def test_varying_curvature_rejected(self):
        with pytest.raises(NonConstantCurvature):
            involute.involute_inner(IndicatrixKind.TANGENT, twisted_cubic(), 1.0)


class TestScan:
    def test_helix_all_pairs_pass(self):
        for pair in PAIRED:
            rep = involute.involute_scan(pair, HELIX, 16)
            assert rep.is_involute, rep
            assert rep.n_defined == 16
            assert rep.max_abs_inner < 1e-9

    def test_salkowski_verdicts(self):
        assert involute.involute_scan(IndicatrixKind.TANGENT, SALK, 16).is_involute
        assert involute.involute_scan(IndicatrixKind.BINORMAL, SALK, 16).is_involute
        rep = involute.involute_scan(IndicatrixKind.NORMAL, SALK, 16)
        assert not rep.is_involute
        assert rep.max_abs_inner > 1e-3

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            involute.involute_scan(IndicatrixKind.TANGENT, HELIX, 2)

    def test_failed_inversion_propagates(self, monkeypatch):
        # Only degenerate samples are skipped; an arclength inversion
        # that fails is an error of the scan.
        def fail(*args):
            raise NotMonotone("bracketing failed")

        monkeypatch.setattr(numerics, "invert_monotone", fail)
        with pytest.raises(NotMonotone):
            involute.involute_scan(IndicatrixKind.TANGENT, salkowski(0.3579), 8)
