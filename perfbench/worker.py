"""One pass of one workload, in a fresh interpreter.

Usage: ``python3 perfbench/worker.py WORKLOAD SEED [--trace SPANS_BASE]``
with ``modframe`` importable (``PYTHONPATH=src``).  Prints one JSON line:
set-up and pass times, peak memory, the worst residual/tolerance ratio of
the output checks, and how many operations were attempted and failed.
With ``--trace`` it also writes the pass's spans to ``SPANS_BASE.tsv``
(``SPANS_BASE-<command>.tsv`` per CLI process) and adds the tracer's sums
under ``"raw"``.

A fresh interpreter per pass is what keeps the library's unbounded caches
from carrying work from one pass to the next, without calling any of its
private hooks.

The import and the pass are each timed inside a speed probe
(``probe.py``), and their spans are printed as ``setup`` and ``run``.  A
traced pass runs no probe, so the probe adds nothing to its spans.
"""

import json
import os
import sys
import time

import probe as speed

PROBING = "--trace" not in sys.argv

with speed.Probe(PROBING) as _setup:
    import modframe  # noqa: E402  (the import is the set-up being timed)
SETUP = _setup.span()

import resource  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
CLI_DIR = HERE.parent / ".perfbench" / "cli"

import checks  # noqa: E402
import tracer as tracing  # noqa: E402

SWEEP_POINTS = 4096
VALIDATE_SAMPLES = 128
# (command, CLI arguments, rows the output must hold)
CLI_BATCH = (
    ("frames", ["frames", "--curve", "twistedcubic", "--samples", "4096"], 4096),
    ("indicatrix", ["indicatrix", "--curve", "salkowski:0.5", "--kind", "pole",
                    "--samples", "256", "--format", "json"], 256),
    ("validate", ["validate", "--samples", "32"], None),
)
CLI_TIMEOUT_S = 45


def _rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB


class Result:
    """Operation counts and the worst check ratio of one pass."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.worst = 0.0
        self.worst_check = ""
        self.errors: list[str] = []

    def fail(self, what: str, n: int = 1) -> None:
        self.failed += n
        if len(self.errors) < 5:
            self.errors.append(what)

    def judge(self, label: str, ratios: dict) -> None:
        ok, worst, check = checks.summarize(ratios)
        if worst > self.worst:
            self.worst, self.worst_check = worst, f"{label}:{check}"
        bad = int((~ok).sum())
        if bad:
            self.fail(f"{label}: {bad} output(s) fail check {check} (ratio {worst:.3g})", bad)


def sweep_inputs(specs, seed: int) -> list[np.ndarray]:
    """Seeded uniform arclengths per curve, in shuffled order.

    One point is drawn in each of SWEEP_POINTS equal strata of the
    reference length.  Every seed then samples both ends of the curve,
    where rounding in the inversion is largest, so the worst check ratio
    depends little on the seed.
    """
    rng = np.random.default_rng(seed)
    out = []
    for sp in specs:
        length = checks.total_length(sp.family, sp.params, sp.t_lo, sp.t_hi)
        s = (np.arange(SWEEP_POINTS) + rng.random(SWEEP_POINTS)) * (length / SWEEP_POINTS)
        rng.shuffle(s)
        out.append(s)
    return out


def frame_sweep(seed: int, res: Result, tracer=None) -> dict:
    from modframe import curves
    specs = [curves.helix(2.0, 1.0), curves.twisted_cubic(), curves.salkowski(0.5)]
    inputs = sweep_inputs(specs, seed)
    outputs = []
    inversions = {}
    with speed.Probe(PROBING) as timed:
        for spec, points in zip(specs, inputs):
            before = tracer.calls("numerics.invert_monotone") if tracer else 0
            out = []
            for s in points.tolist():
                try:
                    out.append((modframe.modified_frame(spec, s),
                                curves.position_at_arclength(spec, s)))
                except Exception as exc:  # an operation that raises has failed
                    out.append(exc)
            outputs.append(out)
            if tracer:
                inversions[spec.family] = tracer.calls("numerics.invert_monotone") - before
    rss = _rss_mb()

    for spec, points, out in zip(specs, inputs, outputs):
        res.attempted += len(out)
        good = [i for i, o in enumerate(out) if not isinstance(o, Exception)]
        for o in out:
            if isinstance(o, Exception):
                res.fail(f"{spec.family}: {type(o).__name__}: {o}")
        if not good:
            continue
        mfs = [out[i][0] for i in good]
        res.judge(spec.family, checks.frame_ratios(
            spec.family, spec.params, spec.t_lo, points[good],
            np.array([out[i][1] for i in good]),
            np.array([f.T for f in mfs]), np.array([f.N for f in mfs]),
            np.array([f.B for f in mfs]),
            np.array([f.kappa for f in mfs]), np.array([f.tau for f in mfs])))
    varying = [sp.family for sp in specs if sp.family != "helix"]
    return {"run": timed.span(), "peak_rss_mb": rss, "inversions": inversions,
            "points": SWEEP_POINTS * len(varying),
            "point_inversions": sum(inversions.get(f, 0) for f in varying)}


def validate_suite(seed: int, res: Result) -> dict:
    # The seed does not change this input: it is the suite users run.
    from modframe.validation import IDENTITY_NAMES, run_validation
    res.attempted += 1
    with speed.Probe(PROBING) as timed:
        try:
            report = run_validation(samples=VALIDATE_SAMPLES)
        except Exception as exc:
            report = exc
    rss = _rss_mb()
    if isinstance(report, Exception):
        res.fail(f"run_validation: {type(report).__name__}: {report}")
    else:
        res.judge("validate_suite", checks.validation_ratios(report.to_dict(), IDENTITY_NAMES))
    return {"run": timed.span(), "peak_rss_mb": rss}


def _check_cli(name: str, rows_expected, out: bytes, res: Result) -> None:
    from modframe.validation import IDENTITY_NAMES
    text = out.decode()
    if name == "frames":
        lines = text.splitlines()
        header = lines[0].split(",") if lines else []
        if len(lines) != rows_expected + 1 or header[:4] != ["s", "x", "y", "z"]:
            res.fail(f"frames: {len(lines)} CSV lines, header {header[:4]}")
            return
        table = np.array([ln.split(",") for ln in lines[1:]], dtype=float)
        col = {c: table[:, i] for i, c in enumerate(header)}
        vec3 = lambda p: np.column_stack([col[p + a] for a in "xyz"])
        from modframe import curves
        sp = curves.twisted_cubic()
        res.judge("cli frames", checks.frame_ratios(
            sp.family, sp.params, sp.t_lo, col["s"],
            np.column_stack([col["x"], col["y"], col["z"]]),
            vec3("T"), vec3("N"), vec3("B"), col["kappa"], col["tau"]))
        return
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        res.fail(f"{name}: output is not JSON: {exc}")
        return
    if name == "indicatrix":
        if len(doc["rows"]) != rows_expected:
            res.fail(f"indicatrix: {len(doc['rows'])} rows, expected {rows_expected}")
            return
        from modframe import curves
        sp = curves.salkowski(0.5)
        res.judge("cli indicatrix", checks.pole_indicatrix_ratios(
            sp.params[0], sp.t_lo, doc["rows"]))
    else:
        res.judge("cli validate", checks.validation_ratios(doc["report"], IDENTITY_NAMES))


def _child_env(probe_out: Path | None) -> dict:
    """Environment of a CLI process: with ``probe_out``, ``site/sitecustomize.py``
    runs a speed probe over the whole process and writes its span there."""
    env = dict(os.environ)
    if probe_out is not None:
        env["PYTHONPATH"] = os.pathsep.join([str(HERE / "site"), env.get("PYTHONPATH", "")])
        env["PERFBENCH_PROBE_OUT"] = str(probe_out)
    return env


def _run_cli(cmd: list[str], out_path: Path, probe_out: Path | None):
    """Run one CLI process with its standard output sent to ``out_path``.

    A regular file, not a pipe: a process whose pipe write is interrupted
    by the speed probe's ``SIGALRM`` was seen to lose the tail of its
    output and still exit 0.  Users who keep a batch's output redirect it
    to a file as well.
    """
    with open(out_path, "w+b") as out:
        try:
            proc = subprocess.run(cmd, stdout=out, stderr=subprocess.PIPE,
                                  timeout=CLI_TIMEOUT_S, env=_child_env(probe_out))
            code, err = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            code, err = "timeout", exc.stderr or b""
        out.seek(0)
        return subprocess.CompletedProcess(cmd, code, out.read(), err)


def cli_batch(seed: int, res: Result, spans_path=None) -> dict:
    # The seed does not change these inputs: they are fixed commands.
    runs, probe_outs = [], []
    CLI_DIR.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    for name, args, _ in CLI_BATCH:
        if spans_path is None:
            cmd = [sys.executable, "-m", "modframe.cli", *args]
        else:
            cmd = [sys.executable, str(HERE / "cli_traced.py"),
                   f"{spans_path}-{name}.json", f"{spans_path}-{name}.tsv", *args]
        probe_out = CLI_DIR / f"{os.getpid()}-{name}.json" if PROBING else None
        if probe_out is not None:
            probe_out.unlink(missing_ok=True)
            probe_outs.append(probe_out)
        out_path = CLI_DIR / f"{os.getpid()}-{name}.out"
        runs.append(_run_cli(cmd, out_path, probe_out))
        out_path.unlink()
    wall_s = time.perf_counter() - t0
    rss = _rss_mb(resource.RUSAGE_CHILDREN)  # the largest CLI process
    run = {"wall_s": wall_s, "chunks": 0, "kernel_s": 0.0}
    if PROBING:
        # The batch's wall time without the children's probe kernels; their
        # kernels give its speed.
        children = []
        for path in probe_outs:
            if path.is_file():  # a command that died early wrote none, and failed
                children.append(json.loads(path.read_text()))
                path.unlink()
        run = speed.merge(children)
        run["wall_s"] = wall_s - run["kernel_s"]

    raws = []
    for (name, _, rows), proc in zip(CLI_BATCH, runs):
        res.attempted += 1
        if proc.returncode != 0:
            res.fail(f"{name}: exit code {proc.returncode}: "
                     f"{proc.stderr.decode(errors='replace')[-300:]}")
            continue
        _check_cli(name, rows, proc.stdout, res)
        if spans_path is not None:
            with open(f"{spans_path}-{name}.json") as fh:
                raws.append(json.load(fh))
    extra = {"run": run, "peak_rss_mb": rss,
             "output_bytes": sum(len(p.stdout) for p in runs)}
    if spans_path is not None:
        frames_raw = raws[0] if raws else {"calls": {}}
        extra["raws"] = raws
        extra["points"] = CLI_BATCH[0][2]
        extra["point_inversions"] = frames_raw["calls"].get("numerics.invert_monotone", 0)
    return extra


WORKLOADS = {"frame_sweep": frame_sweep, "validate_suite": validate_suite,
             "cli_batch": cli_batch}


def main(argv: list[str]) -> int:
    workload, seed = argv[0], int(argv[1])
    spans_path = argv[3] if len(argv) > 3 and argv[2] == "--trace" else None
    res = Result()
    if spans_path is None:
        out = WORKLOADS[workload](seed, res)
    elif workload == "cli_batch":
        out = cli_batch(seed, res, spans_path=spans_path)
        out["raw"] = tracing.merge(out.pop("raws"))
    else:
        tr = tracing.Tracer()
        tr.install()
        try:
            if workload == "frame_sweep":
                out = frame_sweep(seed, res, tracer=tr)
            else:
                out = validate_suite(seed, res)
        finally:
            tr.uninstall()
        tr.write_spans(f"{spans_path}.tsv")
        out["raw"] = tr.raw()
    out.update(setup=SETUP, attempted=res.attempted, failed=res.failed,
               worst_tol_ratio=res.worst, worst_check=res.worst_check,
               errors=res.errors, modframe_file=os.path.abspath(modframe.__file__),
               versions={"python": sys.version.split()[0], "numpy": np.__version__,
                         "scipy": getattr(sys.modules.get("scipy"), "__version__", "-")})
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
