"""Static checks over the package and its tests, standing in for a linter."""

import ast
import math
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from evflow import config

ROOT = Path(__file__).parents[1]
SOURCES = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")])


def unused_imports(source: str) -> list[str]:
    """The names that ``source``'s module-level imports bind and that the
    module never reads (``__future__`` imports aside)."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_module_level_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_an_unread_import_is_found():
    source = "from __future__ import annotations\nimport os\nimport os.path as osp\n" \
             "from math import pi, tau\nprint(tau)\n"
    assert unused_imports(source) == ["line 2: os", "line 3: osp", "line 4: pi"]


THREAD_MODULES = ("threading", "concurrent.futures")


def concurrency_outside_the_fork_helper(sources: dict[str, str]) -> list[str]:
    """``module: line n: what`` for each import of a thread module, at any
    depth, in ``sources`` (module name -> source), and each use of
    ``os.fork`` outside ``parallel``."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                names = []
            found += [f"{module}: line {node.lineno}: import {name}" for name in names
                      if any(name == m or name.startswith(f"{m}.") for m in THREAD_MODULES)]
            forks = (isinstance(node, ast.Attribute) and node.attr == "fork"
                     and getattr(node.value, "id", None) == "os") or "os.fork" in names
            if forks and module != "parallel":
                found.append(f"{module}: line {node.lineno}: os.fork")
    return found


def test_only_the_fork_helper_runs_concurrent_work():
    sources = {path.stem: path.read_text() for path in sorted(ROOT.glob("src/evflow/**/*.py"))}
    assert "os.fork" in sources["parallel"]
    assert concurrency_outside_the_fork_helper(sources) == []


def test_a_thread_or_a_stray_fork_is_found():
    source = ("import os, threading\nfrom concurrent.futures import ThreadPoolExecutor\n"
              "from concurrent import futures\nfrom os import fork\n"
              "def f():\n    import threading as t\n    return os.fork()\n")
    assert concurrency_outside_the_fork_helper({"m": source, "parallel": source}) == [
        "m: line 1: import threading", "m: line 2: import concurrent.futures.ThreadPoolExecutor",
        "m: line 3: import concurrent.futures", "m: line 4: os.fork",
        "m: line 6: import threading", "m: line 7: os.fork",
        "parallel: line 1: import threading",
        "parallel: line 2: import concurrent.futures.ThreadPoolExecutor",
        "parallel: line 3: import concurrent.futures", "parallel: line 6: import threading"]


CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def unread_constants(sources: dict[str, str]) -> list[str]:
    """``module.NAME`` for each module-level UPPER_CASE name that a module in
    ``sources`` (module name -> source) binds and that no module in them
    reads, as a name or as an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    return [f"{module}.{node.id}" for module, tree in trees.items() for statement in tree.body
            if isinstance(statement, (ast.Assign, ast.AnnAssign))
            for node in ast.walk(statement)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
            and CONSTANT.fullmatch(node.id) and node.id not in read]


def test_every_module_constant_is_read_by_the_package():
    sources = {path.stem: path.read_text() for path in sorted(ROOT.glob("src/evflow/*.py"))}
    assert unread_constants(sources) == []


def test_an_unread_constant_is_found():
    sources = {"a": "A = 1\n_B: int = 2\nC, D = 3, 4\nlower = 5\nE = 6\n"
                    "def f():\n    F = 8\n    return C + g.D\n",
               "g": "from a import A\nprint(A)\n"}
    assert unread_constants(sources) == ["a._B", "a.E"]


def attributes_read(source: str) -> set[str]:
    """Every attribute name that ``source`` reads, as in ``obj.name``."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def key_tables(module) -> dict[str, dict]:
    """The module's key tables: each dict that maps a config key to a
    (dataclass field, value parser) pair."""
    return {name: value for name, value in vars(module).items()
            if isinstance(value, dict) and value
            and all(isinstance(row, tuple) and len(row) == 2 and isinstance(row[0], str)
                    and callable(row[1]) for row in value.values())}


def unread_fields(tables: dict[str, dict], sources: list[str]) -> list[str]:
    """The keys of ``tables`` whose field no source reads as an attribute."""
    read = set().union(*map(attributes_read, sources))
    return [key for table in tables.values() for key, (name, _) in table.items()
            if name not in read]


def test_every_config_key_sets_a_field_the_package_reads():
    tables = key_tables(config)
    assert {"CAMERA", "RUN", "TEXTURE"} <= tables.keys()
    sources = [path.read_text() for path in sorted(ROOT.glob("src/evflow/*.py"))
               if path.name != "config.py"]
    assert unread_fields(tables, sources) == []


def test_an_unread_config_field_is_found():
    tables = key_tables(SimpleNamespace(T={"a.x": ("x", int), "a.y": ("y", float)},
                                        KINDS={"k": int}, N=3))
    assert list(tables) == ["T"]
    assert unread_fields(tables, ["cfg.x\ncfg.y = 1\n"]) == ["a.y"]


def defaulted_parameters(args: ast.arguments) -> list[tuple[str, float]]:
    """Each parameter that has a default, in order, with the index of the
    positional argument that passes it: ``self`` and ``cls`` are not
    counted, and a keyword-only parameter's index is infinite."""
    positional = [a.arg for a in (*args.posonlyargs, *args.args)]
    skip = 1 if positional[:1] in (["self"], ["cls"]) else 0
    first = len(positional) - len(args.defaults)
    return ([(name, i - skip) for i, name in enumerate(positional) if i >= first]
            + [(a.arg, math.inf) for a, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None])


def unpassed_defaults(sources: dict[str, str]) -> list[str]:
    """``module.function(parameter)`` for each parameter with a default, of
    a function or method in ``sources`` (module name -> source), that no
    call in ``sources`` passes.

    Calls resolve by name alone: ``f(...)`` and ``obj.f(...)`` call every
    function named ``f``, and a call of a class's name calls its
    ``__init__``.  A positional argument passes the parameter at its index;
    a call with ``*args`` or ``**kwargs`` passes every parameter.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    classes = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    passed = {}  # function name -> (positional count, keyword names), one per call
    for tree in trees.values():
        for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call)):
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            name = "__init__" if name in classes else name
            keywords = {k.arg for k in call.keywords}
            star = None in keywords or any(isinstance(a, ast.Starred) for a in call.args)
            passed.setdefault(name, []).append(
                (math.inf, set()) if star else (len(call.args), keywords))

    found = []

    def visit(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls = passed.get(node.name, [])
                for param, index in defaulted_parameters(node.args):
                    if not any(index < n or param in kw for n, kw in calls):
                        found.append(f"{prefix}{node.name}({param})")
                visit(node.body, f"{prefix}{node.name}.")

    for module, tree in trees.items():
        visit(tree.body, f"{module}.")
    return found


# Parameters with a default that only the tests set, each with the reason it stays.
TEST_ONLY_PARAMETERS = {
    "cli.main(argv)": "the entry point that the tests drive; the console script passes none",
    "pipeline.iter_pairs(t_start_us)": "windows over a span that the tests choose, around an "
                                       "empty stream or blank windows; estimate anchors them "
                                       "at the first event, and the block split bounds each "
                                       "block through iter_frames' own t_start_us",
    "pipeline.iter_pairs(t_end_us)": "as t_start_us",
}


def test_every_defaulted_parameter_is_passed_by_the_package():
    sources = {path.stem: path.read_text() for path in sorted(ROOT.glob("src/evflow/*.py"))}
    assert unpassed_defaults(sources) == list(TEST_ONLY_PARAMETERS)


def test_an_unpassed_default_is_found():
    source = """
class Box:
    def __init__(self, size, fill=0, *, tag=None):
        pass

    def get(self, i, default=None):
        def inner(z=1):
            pass

def f(a, b=1, c=2, *, d=3):
    pass

def g(x=0):
    pass

def h(y=0):
    pass

Box(3, 1)
box.get(0, default=1)
f(1, 2, d=4)
g(*args)
h(**kw)
"""
    assert unpassed_defaults({"m": source}) == ["m.Box.__init__(tag)", "m.Box.get.inner(z)",
                                                "m.f(c)"]
