"""Every exported name resolves and every import is used, so a deletion
leaves neither a dangling export nor a stale import."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import tugems

MODULES = ["tugems"] + [f"tugems.{m.name}" for m in pkgutil.iter_modules(tugems.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


SOURCES = sorted([*Path(tugems.__file__).parent.glob("*.py"),
                  *Path(__file__).parent.glob("*.py")])


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_level_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name.split(".")[0]
                for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = next((ast.literal_eval(node.value) for node in tree.body
                     if isinstance(node, ast.Assign)
                     and any(getattr(t, "id", None) == "__all__" for t in node.targets)), [])
    assert sorted(imported - used - set(exported)) == []
