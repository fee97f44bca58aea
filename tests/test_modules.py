import ast
from pathlib import Path

import partition_posets

PACKAGE = Path(partition_posets.__file__).parent


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_no_private_names_across_modules():
    # a module uses another module's private name neither by import
    # (`from .poset import _x`) nor by attribute (`poset._x`)
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [f"{path.name}: from .{node.module} import {a.name}"
                          for a in node.names if _private(a.name)]
            elif (isinstance(node, ast.Attribute) and _private(node.attr)
                  and isinstance(node.value, ast.Name) and node.value.id in modules):
                found.append(f"{path.name}: {node.value.id}.{node.attr}")
    assert found == []
