"""Run one ``modframe`` CLI command with the tracer installed.

Usage: ``python3 perfbench/cli_traced.py RAW_JSON SPANS_TSV <cli args>``.
Output and exit code are the command's own; the tracer's sums go to
``RAW_JSON`` and its spans to ``SPANS_TSV``.
"""

import json
import sys

import modframe.cli
import tracer as tracing


def main() -> int:
    raw_path, spans_path, *argv = sys.argv[1:]
    tr = tracing.Tracer()
    tr.install()
    try:
        code = modframe.cli.main(argv)
        sys.stdout.flush()
    finally:
        tr.uninstall()
    tr.write_spans(spans_path)
    with open(raw_path, "w") as fh:
        json.dump(tr.raw(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
