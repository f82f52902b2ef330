"""Every public module-level function, class or constant of the package is
exported from `qdiscern` or used by name somewhere in the package (a
constant also by an attribute read in the benchmark harness), and every
name a package module imports is used in that module."""

import ast
from pathlib import Path

import qdiscern

SRC = Path(qdiscern.__file__).parent
TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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


def _public_constants(tree) -> list[str]:
    """The public names that a module-level assignment binds."""
    targets = [t for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
               for t in (node.targets if isinstance(node, ast.Assign) else [node.target])]
    return [t.id for t in targets if isinstance(t, ast.Name) and not t.id.startswith("_")]


def test_every_public_constant_is_exported_or_read():
    reads = set()
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
    for path in sorted(PERFBENCH.glob("*.py")):  # e.g. kernels.BACKEND in the run record
        reads |= {node.attr for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Attribute)}
    constants = [(module, name) for module, tree in TREES.items() for name in _public_constants(tree)]
    assert len(constants) > 20  # the scan sees the tolerances, the verdicts and the rest
    unused = [f"{module}.{name}" for module, name in constants
              if name not in qdiscern.__all__ and name not in reads]
    assert unused == []
