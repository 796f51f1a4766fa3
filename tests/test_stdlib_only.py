"""The runtime imports the standard library only, never the test oracles, and
holds no assert statement (python -O strips them), so ``verify all`` passes
under -O too; only ``grading.FrozenValue`` defines how a value refuses
mutation, compares and rebuilds; it calls
``object.__setattr__`` only in constructors, a slot descriptor's ``__set__``
only in ``Polynomial._canonical``, reads every private name it defines, and
cuts a quoted value only through ``grading.clip``.  Its own modules import
each other one way, at module level: a stack with ``grading`` and ``bundles``
at the bottom, ``cli`` the only module importing inside its functions."""

import ast
import importlib
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


def test_only_frozen_value_writes_the_value_rule():
    # A value is immutable, its fields fix its equality, and it is rebuilt
    # through __init__: grading.FrozenValue says so once, and no other class
    # of the package defines __setattr__, __delattr__, __eq__ or __reduce__.
    guarded = {"__setattr__", "__delattr__", "__eq__", "__reduce__"}
    defined = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            names = set()
            for item in cls.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(item.name)
                elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                    targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                    names.update(target.id for target in targets if isinstance(target, ast.Name))
            defined += [f"{path.stem}.{cls.name}.{name}" for name in sorted(names & guarded)]
    assert defined == [f"grading.FrozenValue.{name}" for name in sorted(guarded)]


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_every_private_name_is_read_in_the_package():
    # A private helper that no module reads is dead code.  Every private
    # module-level name, and every private method of a class of the package,
    # is read somewhere in src/fano72; a method that overrides a private one of
    # a standard-library base class is read by that base (no class does today).
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in SOURCES}
    read = set()
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    unread = []
    for stem, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            unread += [f"{stem}.{name}" for name in names if _private(name) and name not in read]
            if not isinstance(node, ast.ClassDef):
                continue
            methods = [item.name for item in node.body
                       if isinstance(item, ast.FunctionDef) and _private(item.name)]
            if not methods:
                continue
            cls = getattr(importlib.import_module(f"fano72.{stem}"), node.name)
            stdlib = [base for base in cls.__mro__[1:] if not base.__module__.startswith("fano72")]
            unread += [f"{stem}.{node.name}.{name}" for name in methods if name not in read
                       and not any(name in vars(base) for base in stdlib)]
    assert not unread, f"private names read nowhere in the package: {unread}"


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
