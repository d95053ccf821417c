"""Tests of the benchmark itself (not of modframe).

Run from the repository root: ``python3 -m pytest perfbench -p no:cacheprovider``.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def _env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _frames(spec, s):
    from modframe import curves, frames
    mfs = [frames.modified_frame(spec, float(x)) for x in s]
    pos = np.array([curves.position_at_arclength(spec, float(x)) for x in s])
    T, N, B = (np.array([getattr(f, k) for f in mfs]) for k in "TNB")
    return pos, T, N, B, np.array([f.kappa for f in mfs]), np.array([f.tau for f in mfs])


@pytest.mark.parametrize("make", ["helix", "twisted_cubic", "salkowski"])
def test_checker_flags_a_perturbed_frame(make):
    from modframe import curves
    spec = {"helix": lambda: curves.helix(2.0, 1.0),
            "twisted_cubic": curves.twisted_cubic,
            "salkowski": lambda: curves.salkowski(0.5)}[make]()
    length = checks.total_length(spec.family, spec.params, spec.t_lo, spec.t_hi)
    s = np.linspace(0.0, length, 9)
    pos, T, N, B, kappa, tau = _frames(spec, s)
    args = (spec.family, spec.params, spec.t_lo, s, pos)

    ok, worst, _ = checks.summarize(checks.frame_ratios(*args, T, N, B, kappa, tau))
    assert ok.all() and worst < 1e-2

    N_bad = N.copy()
    N_bad[4] += 1e-6 * T[4]  # leaves N a little off orthogonal to T
    ok, worst, check = checks.summarize(checks.frame_ratios(*args, T, N_bad, B, kappa, tau))
    assert list(np.flatnonzero(~ok)) == [4]
    assert check == "orthogonal" and worst > 1.0


def test_checker_flags_a_failed_validation_report():
    names = ["a", "b"]
    entry = lambda name, residual: {"name": name, "max_residual": residual, "tolerance": 1e-5,
                                    "passed": residual <= 1e-5, "expected_discrepancy": False}
    good = {"passed": True, "entries": [entry("a", 1e-7), entry("b", 1e-8)]}
    ok, worst, _ = checks.summarize(checks.validation_ratios(good, names))
    assert ok.all() and worst == pytest.approx(1e-2)
    missing = {"passed": True, "entries": [entry("a", 1e-7)]}
    assert not checks.summarize(checks.validation_ratios(missing, names))[0].all()
    failed = {"passed": False, "entries": [entry("a", 1e-4), entry("b", 1e-8)]}
    assert not checks.summarize(checks.validation_ratios(failed, names))[0].all()


def test_reference_inversion_matches_closed_form_lengths():
    # Helix and salkowski lengths are closed forms; the twisted cubic's
    # quadrature must agree with a much finer trapezoid rule.
    u = np.linspace(-1.0, 1.0, 2_000_001)
    speed = np.sqrt(1.0 + 4.0 * u**2 + 9.0 * u**4)
    trapezoid = float(np.sum(0.5 * (speed[1:] + speed[:-1]) * np.diff(u)))
    assert checks.total_length("twisted_cubic", (), -1.0, 1.0) == pytest.approx(trapezoid, abs=1e-9)


def test_two_traced_runs_count_the_same_calls(tmp_path):
    raws = []
    for i in range(2):
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "frame_sweep", "7",
             "--trace", str(tmp_path / f"run{i}")],
            capture_output=True, env=_env(), cwd=ROOT, timeout=170)
        assert proc.returncode == 0, proc.stderr.decode()
        out = json.loads(proc.stdout.decode().splitlines()[-1])
        assert out["failed"] == 0
        raws.append(out)
    assert raws[0]["raw"]["calls"] == raws[1]["raw"]["calls"]
    assert raws[0]["raw"]["counters"] == raws[1]["raw"]["counters"]
    assert raws[0]["inversions"] == raws[1]["inversions"]
    inv = raws[0]["inversions"]
    assert inv["helix"] == 0 and inv["twisted_cubic"] > 0 and inv["salkowski"] > 0
    assert raws[0]["raw"]["calls"].get("numerics.diff_vec", 0) == 0
    header = (tmp_path / "run0.tsv").read_text().splitlines()[0]
    assert header == "id\tparent\tname\tstart_ns\tend_ns"


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    extra = dict(import_s=0.5, import_scipy_s=0.4, overhead_s=1.0,
                 output_bytes=0, points=0, point_inversions=0)
    derived = tracer.derive(tracer.merge([]), extra)
    assert [m["name"] for m in spec["per_layer"]] == list(derived)
    assert all(m["unit"] == derived[m["name"]][1] for m in spec["per_layer"])
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "run_s", "peak_rss_mb", "tol_margin_digits", "success_rate"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       scipy._lib",
        "import time:        20 |         30 |     scipy",
        "import time:        40 |         70 |   scipy.integrate",
        "import time:         5 |        300 | modframe",
        "import time:         7 |          7 | scipy.other",
    ])
    assert run.parse_importtime(text) == (300e-6, 77e-6)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "frame_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert b'"correct"' not in proc.stdout


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_probe_leaves_its_kernel_out_of_the_span():
    before = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    with probe.Probe(interval_s=0.005) as timed:
        _busy(0.2)
    total = time.perf_counter() - t0
    span = timed.span()
    assert span["chunks"] > 0 and span["kernel_s"] > 0.0
    assert span["wall_s"] + span["kernel_s"] == pytest.approx(total, abs=1e-3)
    assert probe.normalise(span) == pytest.approx(span["wall_s"] / probe.speed(span))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with probe.Probe(enabled=False) as plain:
        _busy(0.05)
    assert plain.span()["chunks"] == 0
    with pytest.raises(ValueError):
        probe.normalise(plain.span())


def test_site_probe_writes_the_span_of_a_process(tmp_path):
    out = tmp_path / "probe.json"
    env = dict(_env(), PYTHONPATH=str(HERE / "site"), PERFBENCH_PROBE_OUT=str(out))
    code = "import time\nend = time.perf_counter() + 0.2\nwhile time.perf_counter() < end: pass"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    span = json.loads(out.read_text())
    assert span["chunks"] > 0 and span["kernel_s"] > 0.0 and span["wall_s"] > 0.0
