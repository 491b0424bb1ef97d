"""Modules of the package use each other only through public names."""
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
