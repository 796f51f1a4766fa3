"""The README's library sketch runs as written, so the docs name only the API that
exists, and its list of prices is the one the source's docstrings state."""

import re
from collections import Counter
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
SOURCES = sorted((README.parent / "src" / "fano72").glob("*.py"))
# A price, "+a% / +b%", possibly broken across a line and its indentation.
PRICE = re.compile(r"\+(\d+(?:\.\d+)?)%\s*/\s*\+(\d+(?:\.\d+)?)%")


def test_readme_python_sketch_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert blocks, "README.md has no fenced python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_lists_every_price_the_source_states():
    # Each special case beside a general route states its price in its
    # docstring; README's module list repeats each one, and no other.
    stated = Counter(PRICE.findall("".join(path.read_text(encoding="utf-8") for path in SOURCES)))
    listed = Counter(PRICE.findall(README.read_text(encoding="utf-8")))
    assert stated == listed
    assert sum(stated.values()) == 11
