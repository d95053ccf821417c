"""Speed probe over a whole CLI process of the ``cli_batch`` workload.

``worker.py`` puts this directory first on ``PYTHONPATH`` and names a file
in ``PERFBENCH_PROBE_OUT``.  Python imports this module as the process
starts; it opens a ``probe.Probe`` and, when the process exits, writes the
probe's span to that file as JSON.  Without the variable it does nothing.
"""

import os

_out = os.environ.pop("PERFBENCH_PROBE_OUT", None)
if _out:
    import atexit
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import probe
    del sys.path[0]

    _probe = probe.Probe().__enter__()

    def _write() -> None:
        _probe.__exit__(None, None, None)
        span = _probe.span()
        with open(_out, "w") as fh:
            fh.write('{"wall_s": %r, "chunks": %d, "kernel_s": %r}'
                     % (span["wall_s"], span["chunks"], span["kernel_s"]))

    atexit.register(_write)
