"""The runtime imports the standard library only, never the test oracles, and
holds no assert statement (python -O strips them)."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).parent.parent / "src" / "fano72").glob("*.py"))


def _imports(path: Path):
    """(module, level) for every import statement, one entry per imported name."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from ((alias.name, 0) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            yield from ((f"{base}.{alias.name}".strip("."), node.level) for alias in node.names)


def test_runtime_imports_are_standard_library_only():
    assert SOURCES
    for path in SOURCES:
        for module, level in _imports(path):
            if level == 0:
                top = module.split(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name} imports {module}"


def test_runtime_never_imports_the_oracles():
    for path in SOURCES:
        for module, _ in _imports(path):
            assert "oracles" not in module.split("."), f"{path.name} imports {module}"


def test_runtime_has_no_assert_statements():
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name} has assert statements at lines {lines}"
