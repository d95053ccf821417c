"""modframe benchmark: one workload, one seed, one line of JSON.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload frame_sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` runs passes of the workload, each in a fresh interpreter
(``worker.py``), until ``--seconds`` is spent (at least three passes), and
reports the end-to-end metrics as medians over the passes.  ``setup_s`` and
``run_s`` are wall times converted to seconds at the reference pace of the
speed probe (``probe.py``) that runs interleaved with them.  ``--trace 1``
runs one untraced and one traced pass and reports the per-layer metrics;
it ignores ``--seconds``.  The program is the library under ``src/`` of
the checkout, imported from source.  The last line of standard output is
the JSON result; the lines before it repeat the metrics for a reader.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe as speed
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("frame_sweep", "validate_suite", "cli_batch")
MIN_PASSES = 3
# Every run must end well inside the 180 s a run may take.
PASS_BUDGET_S = 150.0
WORKER_TIMEOUT_S = 170.0
IMPORT_PROBES = 3


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _run(cmd: list[str]) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(cmd, capture_output=True, env=_env(), cwd=ROOT,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(cmd)} timed out") from exc


def run_worker(workload: str, seed: int, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed)]
    if spans is not None:
        cmd += ["--trace", str(spans)]
    proc = _run(cmd)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with {proc.returncode}:\n"
                         f"{proc.stderr.decode(errors='replace')[-2000:]}")
    out = json.loads(proc.stdout.decode().splitlines()[-1])
    if not Path(out["modframe_file"]).is_relative_to(SRC):
        raise BenchError(f"imported modframe from {out['modframe_file']}, not {SRC}")
    return out


def import_probe() -> tuple[float, float]:
    """(import modframe, of which scipy) in seconds, from ``-X importtime``."""
    proc = _run([sys.executable, "-X", "importtime", "-c", "import modframe"])
    if proc.returncode != 0:
        raise BenchError(proc.stderr.decode(errors="replace")[-2000:])
    return parse_importtime(proc.stderr.decode())


def parse_importtime(text: str) -> tuple[float, float]:
    """Cumulative seconds of ``modframe`` and of the outermost ``scipy``
    imports (those not nested in another scipy import)."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = len(name) - len(name.lstrip())
        entries.append((depth, int(cumulative), name.strip()))
    total = scipy = 0
    inside: list[tuple[int, bool]] = []  # (depth, under a scipy import)
    # importtime prints a module after its children; reversed, parents come first.
    for depth, cumulative, name in reversed(entries):
        while inside and inside[-1][0] >= depth:
            inside.pop()
        under = bool(inside) and inside[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not under:
            scipy += cumulative
        if name == "modframe":
            total = cumulative
        inside.append((depth, under or is_scipy))
    return total / 1e6, scipy / 1e6


def margin_digits(worst_tol_ratio: float) -> float:
    """-log10(worst_tol_ratio): decimal digits between the worst output
    check and its tolerance.

    The worst ratio of rounding-level residuals moves by about 30 % with
    the seed; its logarithm moves by a few percent, and a 25 % bound on it
    still rejects a change that makes the worst residual several times
    larger.  Clamped so that a check that failed outright (ratio inf) or a
    pass with no check left (ratio 0) still gives a finite number.
    """
    return -math.log10(min(max(worst_tol_ratio, 1e-16), 1e16))


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict]]:
    passes, walls = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_worker(workload, seed))
        walls.append(time.perf_counter() - t0)
        # Start another pass while it would end closer to the deadline
        # than stopping now does.
        projected = time.perf_counter() - start + 0.5 * statistics.median(walls)
        if projected > PASS_BUDGET_S:
            break
        if len(passes) >= MIN_PASSES and projected > seconds:
            break
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    med = lambda key: statistics.median(p[key] for p in passes)
    try:
        for p in passes:
            p["setup_s"] = speed.normalise(p["setup"])
            p["run_s"] = speed.normalise(p["run"])
    except ValueError as exc:
        raise BenchError(str(exc)) from exc
    metrics = {
        "setup_s": (med("setup_s"), "s"),
        "run_s": (med("run_s"), "s"),
        "peak_rss_mb": (med("peak_rss_mb"), "MB"),
        "tol_margin_digits": (margin_digits(max(p["worst_tol_ratio"] for p in passes)), "digits"),
        # 1 - error_rate, so that the metric is never 0.
        "success_rate": (1.0 - failed / attempted, "1"),
    }
    return metrics, passes


def trace(workload: str, seed: int) -> tuple[dict, list[dict], list[str]]:
    spans_dir = OUT / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    plain = run_worker(workload, seed)
    traced = run_worker(workload, seed, spans_dir / f"{workload}-seed{seed}")
    probes = [import_probe() for _ in range(IMPORT_PROBES)]
    extra = {
        "import_s": statistics.median(p[0] for p in probes),
        "import_scipy_s": statistics.median(p[1] for p in probes),
        # Raw wall times: the traced pass runs no speed probe.
        "overhead_s": traced["run"]["wall_s"] - plain["run"]["wall_s"],
        "output_bytes": traced.get("output_bytes", 0),
        "points": traced.get("points", 0),
        "point_inversions": traced.get("point_inversions", 0),
    }
    metrics = tracing.derive(traced["raw"], extra)

    # A broken wrapper must not pass for an empty layer.
    problems = []
    if metrics["frames.modified_frame.calls"][0] == 0:
        problems.append("traced run saw no frames.modified_frame call")
    if metrics["numerics.invert_monotone.calls"][0] == 0:
        problems.append("traced run saw no numerics.invert_monotone call")
    for family, n in traced.get("inversions", {}).items():
        if (n == 0) != (family == "helix"):
            problems.append(f"{n} inversions traced on {family}; expected "
                            f"{'none' if family == 'helix' else 'some'}")
    return metrics, [plain, traced], problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "modframe" / "__init__.py").is_file():
        print(f"error: no modframe sources under {SRC}", file=sys.stderr)
        return 2
    try:
        # Untimed warm-up: compiles the bytecode and warms the file cache,
        # which users have too once the package is installed.
        warm = _run([sys.executable, "-c", "import modframe.cli"])
        if warm.returncode != 0:
            raise BenchError(warm.stderr.decode(errors="replace")[-2000:])
        problems: list[str] = []
        if args.trace:
            metrics, passes, problems = trace(args.workload, args.seed)
        else:
            metrics, passes = measure(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for msg in [e for p in passes for e in p["errors"]] + problems:
        print(f"check failed: {msg}", file=sys.stderr)
    v = passes[-1]["versions"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} passes={len(passes)} "
          f"nproc={os.cpu_count()} python={v['python']} numpy={v['numpy']} "
          f"scipy={v['scipy']}")
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:.6g} {unit}")
    if not args.trace:
        for part in ("setup", "run"):
            wall = statistics.median(p[part]["wall_s"] for p in passes)
            pace = statistics.median(speed.speed(p[part]) for p in passes)
            print(f"{part + '_wall_s':45s} {wall:.6g} s (machine {pace:.3f}x the reference pace)")
    worst = max(passes, key=lambda p: p["worst_tol_ratio"])
    print(f"{'worst_tol_ratio':45s} {worst['worst_tol_ratio']:.6g} 1 ({worst['worst_check']})")
    print(f"{'error_rate':45s} {failed / attempted:.6g} 1 "
          f"({failed} failed / {attempted} attempted)")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
