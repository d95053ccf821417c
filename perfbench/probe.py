"""Machine-speed probe interleaved with the work being timed.

The benchmark runs on a small shared host whose speed drifts by up to
about 1.7x over seconds to minutes, so raw wall times of the same code
spread far more between runs than any useful regression bound.  While a
``Probe`` is open it runs a fixed pure-Python kernel after every
``interval_s`` seconds of the timed work, from a ``SIGALRM`` handler, so
the kernel and the work share the same moments of the host's speed.  The
kernel's time is left out of the work's time, and the kernel's pace gives
the factor that converts the work's wall time to seconds at the reference
pace ``REF_CHUNK_S`` (:func:`normalise`).

The kernel uses only the ``math`` module, so opening a probe before
``import modframe`` imports nothing that the import being timed would
otherwise pay for.
"""

from __future__ import annotations

import math
import signal
import time

# Seconds one kernel run takes at the reference pace: the median measured
# on the reference machine (see README.md).  Normalised times are the
# seconds the work would take at that pace.
REF_CHUNK_S = 0.003
INTERVAL_S = 0.02
KERNEL_ITERS = 8000


def kernel() -> float:
    """Fixed interpreter-bound work: float maths, calls and a small dict."""
    acc = 0.0
    table = {}
    for i in range(KERNEL_ITERS):
        x = i * 1e-3
        acc += math.sin(x) * math.sqrt(x + 1.0) / (1.0 + x * x)
        table[i & 63] = acc
    return acc + len(table)


class Probe:
    """Times the block it is open around, with the kernel interleaved.

    After the block, :meth:`span` gives the block's wall time without the
    kernel's, and the number and total time of the kernel runs.  With
    ``enabled=False`` it only times the block.  It owns ``SIGALRM`` while
    open, so only one probe may be open in a process.
    """

    def __init__(self, enabled: bool = True, interval_s: float = INTERVAL_S) -> None:
        self.enabled = enabled
        self.interval_s = interval_s
        self.chunks = 0
        self.kernel_s = 0.0
        self._t0 = self._t1 = 0.0
        self._open = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        if not self._open:  # a tick still pending when the probe closed
            return
        t0 = time.perf_counter()
        kernel()
        self.kernel_s += time.perf_counter() - t0
        self.chunks += 1
        # A one-shot timer re-armed here spaces the runs by the work's
        # time, not the kernel's.
        signal.setitimer(signal.ITIMER_REAL, self.interval_s)

    def __enter__(self) -> "Probe":
        if self.enabled:
            self._open = True
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.interval_s)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._t1 = time.perf_counter()
        self._open = False
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def span(self) -> dict:
        return {"wall_s": self._t1 - self._t0 - self.kernel_s,
                "chunks": self.chunks, "kernel_s": self.kernel_s}


def merge(spans: list[dict]) -> dict:
    """Sum of several spans."""
    return {key: sum(s[key] for s in spans) for key in ("wall_s", "chunks", "kernel_s")}


def speed(span: dict) -> float:
    """Mean kernel time of the span over the reference: above 1 is slower."""
    if span["chunks"] == 0 or span["kernel_s"] <= 0.0:
        raise ValueError("no probe kernel ran inside the timed work")
    return span["kernel_s"] / span["chunks"] / REF_CHUNK_S


def normalise(span: dict) -> float:
    """The span's wall time in seconds at the reference pace."""
    return span["wall_s"] / speed(span)
