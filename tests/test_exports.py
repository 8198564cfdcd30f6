"""Every exported name resolves, every import is used, every parameter is
read and every function is called, so a deletion leaves neither a dangling
export, a stale import nor a parameter kept only for its signature, and no
uncalled copy of a function stays behind."""

import ast
import importlib
import importlib.util
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


# Functions defined in src but loaded nowhere in it, each with its reason.
UNCALLED_ALLOWED = {
    "error": "argparse calls the parser's error method",
    "p_dem_bin": "the scalar oracle for run_episodes' vectorized demand bins",
}


def test_every_function_is_called_or_allowed():
    """Each function or method name defined in ``src/tugems`` is loaded there
    or used by the acceptance tests, so an uncalled copy cannot settle in."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SRC]
    defined = {node.name for tree in trees for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not (node.name.startswith("__") and node.name.endswith("__"))}
    loaded = {getattr(node, "id", getattr(node, "attr", None))
              for tree in trees for node in ast.walk(tree)
              if isinstance(node, (ast.Name, ast.Attribute))
              and isinstance(node.ctx, ast.Load)}
    acceptance = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text(
        encoding="utf-8"))
    used = {node.id for node in ast.walk(acceptance) if isinstance(node, ast.Name)}
    used |= {node.attr for node in ast.walk(acceptance) if isinstance(node, ast.Attribute)}
    used |= {node.name for node in ast.walk(acceptance) if isinstance(node, ast.alias)}
    assert sorted(defined - loaded - used - set(UNCALLED_ALLOWED)) == []
    assert sorted(set(UNCALLED_ALLOWED) - (defined - loaded - used)) == []


# The plant fields every written form of the step reads through its one
# binding, ``powertrain._plant_constants``, and the classes that own them.
STEP_BOUND_FIELDS = {"max_charge_power_w", "max_discharge_power_w", "fuel_b2", "fuel_b1",
                     "fuel_b0", "charge_release_margin", "voltage_curve", "resistance_curve"}
MODEL_CLASSES = {"TractionMotorModel", "EguModel", "BatteryModel", "PlantModels"}


def test_step_bound_fields_are_loaded_only_by_the_one_binding():
    """Within ``src/tugems`` the step-bound fields are loaded only inside
    ``powertrain._plant_constants`` and the model classes' own bodies, so no
    written form of the step binds a field of its own."""
    loads = []
    for path in SRC:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {id(node) for owner in tree.body if path.name == "powertrain.py" and (
                       isinstance(owner, ast.FunctionDef) and owner.name == "_plant_constants"
                       or isinstance(owner, ast.ClassDef) and owner.name in MODEL_CLASSES)
                   for node in ast.walk(owner)}
        loads += [f"{path.name}:{node.lineno} {node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and node.attr in STEP_BOUND_FIELDS and id(node) not in allowed]
    assert loads == []


def _mutation_smoke():
    path = Path(__file__).parent.parent / "tools" / "mutation_smoke.py"
    spec = importlib.util.spec_from_file_location("mutation_smoke", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_smoke_mutant_edits_its_scope_exactly_once():
    """Each edit of ``tools/mutation_smoke.py`` still matches the code once,
    so the smoke run (which also runs the guarding tests) cannot pass on an
    edit that has drifted out of step."""
    smoke = _mutation_smoke()
    for mutant in smoke.MUTANTS:
        source = (smoke.ROOT / "src" / "tugems" / mutant.module).read_text(encoding="utf-8")
        mutated = smoke.mutate(source, mutant)
        assert mutated.count(mutant.new) == source.count(mutant.new) + 1
