"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs():
    text = README.read_text()
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    # Pad with blank lines so a traceback points at the README's own line.
    offset = text.count("\n", 0, len(text) - len(section) + block.start(1))
    exec(compile("\n" * offset + block.group(1), str(README), "exec"), {})
