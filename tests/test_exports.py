"""Every exported name resolves, every import is used and every parameter
is read, so a deletion leaves neither a dangling export, a stale import nor
a parameter kept only for its signature."""

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


SRC = sorted(Path(tugems.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_function_parameter_goes_unread(path):
    """Each parameter but ``self``, ``cls`` and ``_``-names is read in its body."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                  *filter(None, (args.vararg, args.kwarg))]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {name.id for stmt in body for name in ast.walk(stmt)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
        unread += [f"{getattr(node, 'name', '<lambda>')}:{node.lineno} {p.arg}"
                   for p in params
                   if p.arg not in read and p.arg not in ("self", "cls")
                   and not p.arg.startswith("_")]
    assert unread == []
