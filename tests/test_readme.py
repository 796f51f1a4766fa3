"""The README's library sketch runs as written, so the docs name only the API that exists."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_sketch_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert blocks, "README.md has no fenced python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
