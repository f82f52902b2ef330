"""Every public module-level function or class of the package is exported
from `qdiscern` or used by name somewhere in the package, and every name a
package module imports is used in that module."""

import ast
from pathlib import Path

import qdiscern

SRC = Path(qdiscern.__file__).parent
TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_every_public_definition_is_exported_or_used():
    used = set()
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    defined = [(module, node.name) for module, tree in TREES.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and not node.name.startswith("_")]
    unused = [f"{module}.{name}" for module, name in defined
              if name not in qdiscern.__all__ and name not in used]
    assert unused == []


def test_every_imported_name_is_used_in_its_module():
    unused = []
    for module, tree in TREES.items():
        if module == "__init__":  # imports names to re-export them
            continue
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                unused += [f"{module}: {name}" for name in names
                           if name not in used]
    assert unused == []
