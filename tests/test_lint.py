"""Static checks over the package and its tests, standing in for a linter."""

import ast
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
