"""Static checks over the package and its tests, standing in for a linter."""

import ast
import math
import os
import re
import shutil
import subprocess
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
SPLIT_CALLS = ("blocks", "default_workers")  # parallel's own choice of the blocks


def concurrency_outside_the_fork_helper(sources: dict[str, str]) -> list[str]:
    """``module: line n: what`` for each import of a thread module, at any
    depth, in ``sources`` (module name -> source), and each use of
    ``os.fork`` and each call named in ``SPLIT_CALLS`` outside ``parallel``."""
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
            if isinstance(node, ast.Call) and module != "parallel":
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name in SPLIT_CALLS:
                    found.append(f"{module}: line {node.lineno}: {name}()")
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


# parallel.forked over two blocks in a new interpreter, after starting a
# waiting thread when the argument asks for one
_FORK_IN_A_CHILD = """
import sys, threading
from evflow import parallel
parallel.default_workers = lambda: 2
idle = threading.Event()
if sys.argv[1] == "threaded":
    threading.Thread(target=idle.wait).start()
try:
    print(list(parallel.forked(4, lambda first, stop: iter(range(first, stop)), "items")))
finally:
    idle.set()
"""
PYTHON_3_12 = shutil.which("python3.12")


@pytest.mark.skipif(PYTHON_3_12 is None, reason="no python3.12 on the PATH")
@pytest.mark.parametrize("threads", ["alone", "threaded"])
def test_the_fork_helper_forks_without_a_warning_under_python_3_12(threads):
    """Python 3.12 warns (DeprecationWarning) when a process with other
    threads forks.  ``parallel.forked`` forks in a ``python3.12`` child with
    no such warning; a thread started first brings it, which shows that the
    check sees it.  The warning is shown rather than raised, because under
    3.12.1 an error filter drops the fork warning without a word."""
    # a pyenv shim runs the version PYENV_VERSION names; another python3.12 ignores it
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYENV_VERSION="3.12")
    probe = subprocess.run([PYTHON_3_12, "-c", "pass"], env=env, capture_output=True, text=True)
    if probe.returncode:
        pytest.skip(f"python3.12 does not start: {probe.stderr.strip()!r}")
    run = subprocess.run([PYTHON_3_12, "-W", "always::DeprecationWarning", "-c",
                          _FORK_IN_A_CHILD, threads], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (0, "[0, 1, 2, 3]\n")
    if threads == "alone":
        assert run.stderr == ""
    else:
        assert "parallel.py" in run.stderr and "is multi-threaded, use of fork()" in run.stderr


def test_a_block_split_outside_the_fork_helper_is_found():
    source = ("from evflow import parallel\nfrom evflow.parallel import blocks\n"
              "spans = parallel.blocks(8, parallel.default_workers())\n"
              "for block in blocks(8, 2):\n    pass\nblocks = default_workers\n")
    assert concurrency_outside_the_fork_helper({"m": source, "parallel": source}) == [
        "m: line 3: blocks()", "m: line 4: blocks()", "m: line 3: default_workers()"]


BLAS_CALLS = ("dot", "vdot", "matmul", "inner", "tensordot", "einsum")


def blas_products(source: str) -> list[str]:
    """``line n: what`` for each product in ``source`` that can run through
    BLAS, whose sums differ between CPU kernels: an ``@``, a call named in
    ``BLAS_CALLS``, and a ``linalg.norm`` without ``axis`` (a dot product)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in BLAS_CALLS:
                found.append((node.lineno, name))
            elif (name == "norm" and getattr(func.value, "attr", None) == "linalg"
                  and len(node.args) < 3 and "axis" not in {k.arg for k in node.keywords}):
                found.append((node.lineno, "linalg.norm without axis"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_the_rigid_fit_runs_no_blas_product():
    assert blas_products((ROOT / "src/evflow/rigid.py").read_text()) == []


def test_a_blas_product_is_found():
    source = ("import numpy as np\nfrom numpy import dot\na = b @ c\na @= b\nnp.dot(a, b)\n"
              "dot(a, b)\na.dot(b)\nnp.einsum('ij,j', a, b)\nnp.linalg.norm(a)\n"
              "np.linalg.norm(a, 2, 1)\nnp.linalg.norm(a, axis=1)\nnp.vdot(a, b)\n"
              "np.matmul(a, b)\nnp.inner(a, b)\nnp.tensordot(a, b)\nnp.multiply(a, b)\n")
    assert blas_products(source) == [
        "line 3: @", "line 4: @", "line 5: dot", "line 6: dot", "line 7: dot",
        "line 8: einsum", "line 9: linalg.norm without axis", "line 12: vdot",
        "line 13: matmul", "line 14: inner", "line 15: tensordot"]


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
