"""Every public module-level function or class of the package is exported
from `qdiscern` or used by name somewhere in the package."""

import ast
from pathlib import Path

import qdiscern

SRC = Path(qdiscern.__file__).parent


def test_every_public_definition_is_exported_or_used():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    defined = [(module, node.name) for module, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and not node.name.startswith("_")]
    unused = [f"{module}.{name}" for module, name in defined
              if name not in qdiscern.__all__ and name not in used]
    assert unused == []
