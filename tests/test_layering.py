"""Modules of the package use each other only through public names,
import nothing they do not use, and export only names they define."""
import ast
from pathlib import Path

import devrating

PACKAGE = Path(devrating.__file__).resolve().parent


def _private(name: str) -> bool:
    # dunder names such as __version__ are public module attributes
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_relative_import_of_private_names():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [
                    f"{path.name}:{node.lineno} imports {alias.name}"
                    for alias in node.names
                    if _private(alias.name)
                ]
    assert not offenders, offenders


# Bound in devrating.rating only because perfbench/tracing.py looks for
# them there; they go when the engine traces itself.
TRACER_BINDINGS = {("rating.py", "sp"), ("rating.py", "linprog")}


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def test_every_import_is_used_or_exported():
    # the package __init__ imports only to re-export, so it is not checked
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
        unused += [(path.name, name, line) for name, line in imported.items() if name not in used]
    offenders = [f"{module}:{line} imports {name}" for module, name, line in unused if (module, name) not in TRACER_BINDINGS]
    assert not offenders, offenders
    # an exception that no longer applies is removed with the binding
    assert {(module, name) for module, name, _ in unused} == TRACER_BINDINGS


def test_no_module_reexports_another_modules_names():
    # each public name is exported by the module that defines it; only the
    # package __init__ gathers them
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("devrating"))
            for alias in node.names
        }
        offenders += [f"{path.name} exports {name}" for name in sorted(imported & _exported(tree))]
    assert not offenders, offenders
