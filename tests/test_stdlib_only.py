"""The runtime imports the standard library only, never the test oracles, and
holds no assert statement (python -O strips them), so ``verify all`` passes
under -O too; it calls
``object.__setattr__`` only in constructors, a slot descriptor's ``__set__``
only in ``Polynomial._canonical``, and cuts a quoted value only
through ``grading.clip``.  Its own modules import
each other one way, at module level: a stack with ``grading`` and ``bundles``
at the bottom, ``cli`` the only module importing inside its functions."""

import ast
import os
import subprocess
import sys
from graphlib import TopologicalSorter
from pathlib import Path

SOURCES = sorted((Path(__file__).parent.parent / "src" / "fano72").glob("*.py"))


def _nodes(path: Path) -> tuple[list[ast.AST], list[ast.AST]]:
    """The AST nodes of a file: those outside every function, then those inside one."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    inner = [node for function in ast.walk(tree)
             if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(function)]
    inside = set(map(id, inner))
    return [node for node in ast.walk(tree) if id(node) not in inside], inner


def _imports(path: Path, nodes=None):
    """(module, level) for every import statement of a file, or among some of its
    nodes, one entry per imported name."""
    if nodes is None:
        nodes = ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    for node in nodes:
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


def test_verify_all_passes_under_optimize():
    # -O drops every assert: a check that rested on one would change the verdict.
    done = subprocess.run([sys.executable, "-O", "-m", "fano72", "verify", "all"],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SOURCES[0].parent.parent)})
    assert done.returncode == 0, done.stderr
    assert "45 checks: 45 passed" in done.stdout


def _calls_outside(tree: ast.AST, functions: set[str], called) -> list[int]:
    """Lines of the calls, outside every function named in ``functions``, whose
    callee's text ``called`` accepts."""
    inside = {id(node) for function in ast.walk(tree)
              if isinstance(function, ast.FunctionDef) and function.name in functions
              for node in ast.walk(function)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in inside
            and called(ast.unparse(node.func))]


def test_object_setattr_runs_only_in_constructors():
    # Immutable values set every slot once, as they are built: no slot is
    # filled later, lazily or otherwise.  A slot descriptor's own __set__,
    # called as such or through a module-level alias, fills a slot too: only
    # Polynomial._canonical calls one.
    outside = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        setters = {target.id for node in tree.body if isinstance(node, ast.Assign)
                   and isinstance(node.value, ast.Attribute) and node.value.attr == "__set__"
                   for target in node.targets if isinstance(target, ast.Name)}
        outside += [f"{path.name}:{line}" for line in _calls_outside(
            tree, {"__init__", "__post_init__", "_canonical"},
            lambda callee: callee == "object.__setattr__")]
        outside += [f"{path.name}:{line}" for line in _calls_outside(
            tree, {"_canonical"}, lambda callee: callee.endswith(".__set__") or callee in setters)]
    assert not outside, f"slots set outside a constructor at {outside}"


def test_refused_values_are_cut_only_by_clip():
    # grading.clip is the one rule for how much of a value a message quotes: no
    # f-string cuts a value to an upper bound itself (a suffix, text[stop:], is fine).
    cut = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        cut += [f"{path.name}:{node.lineno}" for string in ast.walk(tree)
                if isinstance(string, ast.JoinedStr) for node in ast.walk(string)
                if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Slice)
                and node.slice.upper is not None]
    assert not cut, f"f-strings slice a value at {cut}"
    linsys = ast.parse((SOURCES[0].parent / "linsys.py").read_text(encoding="utf-8"))
    assert "_shown" not in {node.name for node in ast.walk(linsys)
                            if isinstance(node, ast.FunctionDef)}


def test_package_imports_form_a_one_way_stack():
    # A relative import names a submodule, or a name of the package's __init__.
    modules = {path.stem for path in SOURCES}
    graph = {path.stem: {module.split(".")[0] if module.split(".")[0] in modules else "__init__"
                         for module, level in _imports(path, _nodes(path)[0]) if level}
             for path in SOURCES}
    assert graph["grading"] == graph["__init__"] == set()
    assert graph["bundles"] == {"grading"}
    order = list(TopologicalSorter(graph).static_order())    # raises CycleError on a cycle
    assert order.index("ratmap") < order.index("linsys")


def test_only_cli_imports_from_the_package_inside_functions():
    for path in SOURCES:
        inner = [module for module, level in _imports(path, _nodes(path)[1]) if level]
        assert path.name == "cli.py" or not inner, f"{path.name} imports {inner} in a function"
