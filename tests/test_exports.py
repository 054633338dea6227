import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import pdeltaflow

_MODULES = ["pdeltaflow"] + [f"pdeltaflow.{m.name}" for m in pkgutil.iter_modules(pdeltaflow.__path__)]
_LAYERS = [m for m in _MODULES if m != "pdeltaflow" and hasattr(importlib.import_module(m), "__all__")]

SRC = Path(pdeltaflow.__file__).resolve().parent
ROOTS = [SRC / "cli.py", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"]

# Public names that no command and no benchmark workload reaches, kept on purpose.
# (recover_pressure, estimate_dual_norm and scaling_sweep are kept too, but reached:
# the mms20 workload, and commands on a non-zero body force or with certify.sweep_lambdas.)
KEPT = {
    "constitutive.eval_stress": "independent stress reference of the tests; a benchmark per-layer metric name",
    "constitutive.symmetrize": "builds the symmetric matrices of the tests' stress references",
    "discretization.norm_grad_p": "independent |grad u| norm reference of the tests",
    "discretization.level_norm": "the level norm of a field, the tests' reference for the counterexample's sphere",
    "discretization.load_field": "reader and validator of the program's own velocity_*.txt / lift_g.txt format",
}


@pytest.mark.parametrize("name", _MODULES)
def test_every_all_name_resolves(name):
    mod = importlib.import_module(name)
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


@pytest.mark.parametrize("name", _LAYERS)
def test_every_all_name_is_defined_in_its_layer(name):
    mod = importlib.import_module(name)
    defs = [n for n in mod.__all__ if inspect.isfunction(getattr(mod, n)) or inspect.isclass(getattr(mod, n))]
    assert [n for n in defs if getattr(mod, n).__module__ != name] == []


def _module_info(path, package="pdeltaflow"):
    """(top-level definitions by name, imports by local name) of one source file.

    An import maps to ("module", None) for a module of the package and to
    ("module", "name") for a name taken from one; other imports are dropped.
    """
    tree = ast.parse(path.read_text())
    defs, imports = {}, {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    defs[target.id] = node.value
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        mod = node.module or ""
        if node.level == 0 and not (mod == package or mod.startswith(package + ".")):
            continue
        mod = mod.removeprefix(package).lstrip(".")
        for alias in node.names:
            imports[alias.asname or alias.name] = (alias.name, None) if not mod else (mod, alias.name)
    return defs, imports


def _references(node, imports, module):
    """(module, name) of every Name load and module.attr under node; a bare name is taken as module's own."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield imports.get(sub.id, (module, sub.id))
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            mod, name = imports.get(sub.value.id, (None, ""))
            if mod is not None and name is None:
                yield mod, sub.attr


def _package_info():
    return {p.stem: _module_info(p) for p in SRC.glob("*.py") if p.stem != "__init__"}


def _reached():
    """(module, name) of every top-level definition of the package that the roots reach."""
    info = _package_info()
    todo = []
    for root in ROOTS:
        _, imports = info.get(root.stem) if root.parent == SRC else _module_info(root)
        todo += _references(ast.parse(root.read_text()), imports, root.stem)
    seen = set()
    while todo:
        mod, name = todo.pop()
        if (mod, name) in seen or mod not in info:
            continue
        seen.add((mod, name))
        defs, imports = info[mod]
        if name in defs:
            todo += _references(defs[name], imports, mod)
        elif name in imports:  # a name the module imports from another
            todo.append(imports[name])
    return seen


def test_every_public_name_is_reached_or_kept():
    reached = _reached()
    public = set()
    for name in _LAYERS:
        mod = importlib.import_module(name)
        layer = name.split(".")[1]
        for n in mod.__all__:
            if inspect.isfunction(getattr(mod, n)) or inspect.isclass(getattr(mod, n)):
                public.add(f"{layer}.{n}")
    unreached = {n for n in public if tuple(n.split(".")) not in reached}
    assert sorted(unreached - set(KEPT)) == []
    assert sorted(set(KEPT) - unreached) == []  # a kept name that is reached or gone leaves the list


def _is_method(node):
    return isinstance(node, ast.FunctionDef) and not (node.name.startswith("__") and node.name.endswith("__"))


def _attribute_loads(nodes):
    subs = (sub for node in nodes for sub in ast.walk(node))
    return {sub.attr for sub in subs if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}


def _unreached_methods(reached, info, roots):
    """module.Class.method of every non-dunder method of a reached class whose name no reached code loads.

    Reached code is the roots, the reached top-level definitions save their
    classes' methods, and, until no more are found, the methods of a name
    that reached code loads as an attribute.
    """
    code, methods = [ast.parse(root.read_text()) for root in roots], {}
    for mod, name in reached:
        node = info[mod][0].get(name)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if _is_method(item):
                    methods[f"{mod}.{name}.{item.name}"] = item
                else:
                    code.append(item)
        elif node is not None:
            code.append(node)
    loads, todo = set(), code
    while todo:
        loads |= _attribute_loads(todo)
        found = [key for key, m in methods.items() if m.name in loads]
        todo = [methods.pop(key) for key in found]
    return sorted(methods)


def test_every_method_of_a_reached_class_is_reached():
    assert _unreached_methods(_reached(), _package_info(), ROOTS) == []


def test_a_method_reached_only_from_an_unreached_method_is_unreached(tmp_path):
    (tmp_path / "m.py").write_text(
        "class A:\n"
        "    def __init__(self):\n        self.used()\n"
        "    def used(self):\n        return 1\n"
        "    def dead(self):\n        return self.deader()\n"
        "    def deader(self):\n        return 2\n"
    )
    info = {"m": _module_info(tmp_path / "m.py")}
    assert _unreached_methods({("m", "A")}, info, []) == ["m.A.dead", "m.A.deader"]


def test_name_resolution_is_not_by_token():
    # a record field of the same name is no reference to the function
    src = "class R:\n    penalty_norm: float\n\ndef f(rec):\n    return rec.penalty_norm, R(penalty_norm=1.0)\n"
    tree = ast.parse(src)
    refs = set(_references(tree, {"np": ("numpy", None)}, "m"))
    assert ("m", "penalty_norm") not in refs and ("m", "R") in refs
