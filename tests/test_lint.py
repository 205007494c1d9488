"""Static checks over the package and its tests, standing in for a linter."""

import ast
from pathlib import Path

import pytest

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
