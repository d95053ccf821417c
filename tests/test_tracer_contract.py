"""The benchmark's tracer (perfbench/tracer.py) still sees the validation
suite: the hooks it relies on exist and are called."""

import sys
from pathlib import Path

from modframe import validation

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_validation_matches_and_is_seen():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    expected = validation.run_validation(samples=16)
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = validation.run_validation(samples=16)
    finally:
        tr.uninstall()
    raw = tr.raw()
    assert traced == expected
    assert raw["counters"]["validation.samples_attempted"] > 0
    assert raw["calls"]["frames.modified_frame"] >= 1
    assert raw["calls"]["numerics.invert_monotone"] >= 1
    # the functions behind the per-layer metrics of BENCHMARK.json
    for name in ("darboux.darboux", "indicatrix.cov_deriv_closed",
                 "indicatrix.cov_deriv_numeric", "geodesic.geodesic_report",
                 "geodesic.geodesic_curvature_sphere_at", "involute.involute_scan"):
        assert raw["calls"].get(name, 0) >= 1, name
