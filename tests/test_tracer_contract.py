"""The benchmark's tracer (perfbench/tracer.py) still sees the validation
suite and the one-point frame path: the hooks it relies on exist and are
called."""

import sys
from pathlib import Path

import numpy as np

from modframe import curves, frames, validation

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracer.Tracer()


def test_traced_validation_matches_and_is_seen():
    expected = validation.run_validation(samples=16)
    tr = _tracer()
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
                 "geodesic.geodesic_curvature_sphere_at", "involute.involute_inner"):
        assert raw["calls"].get(name, 0) >= 1, name


def test_traced_frame_path_is_seen():
    # frame_sweep's traced check needs these counts: a one-point frame
    # calls curves.at_arclength once, through the module attribute the
    # tracer wraps, and that calls numerics.invert_monotone once on the
    # curves whose length map is inverted by Newton, never on the helix.
    specs = {"helix": curves.helix(2.0, 1.0), "twisted_cubic": curves.twisted_cubic(),
             "salkowski": curves.salkowski(0.5)}
    points = {name: (np.linspace(0.013, 0.987, 7) * curves.total_arclength(spec)).tolist()
              for name, spec in specs.items()}
    names = ("curves.at_arclength", "numerics.invert_monotone")
    seen = {}
    tr = _tracer()
    tr.install()
    try:
        for name, spec in specs.items():
            before = [tr.calls(n) for n in names]
            for s in points[name]:
                frames.modified_frame(spec, s)
            seen[name] = [tr.calls(n) - b for n, b in zip(names, before)]
    finally:
        tr.uninstall()
    assert seen == {"helix": [7, 0], "twisted_cubic": [7, 7], "salkowski": [7, 7]}
