"""Every private helper in the package is used by the package itself.

Code that only tests use lives in the tests, so a private module-level
function, class or constant, or a private method, must be named somewhere
in the package outside its own definition.
"""

import ast
from collections import Counter
from pathlib import Path

import medcurve

SRC = Path(medcurve.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _names(node) -> list:
    """Every name that node reads, calls, looks up as an attribute or imports."""
    found = []
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            found.append(n.id)
        elif isinstance(n, ast.Attribute):
            found.append(n.attr)
        elif isinstance(n, ast.alias):
            found.append(n.name)
    return found


def _definitions(tree: ast.Module) -> list:
    """(name, node) of each module-level function, class, constant and method."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            found.extend((m.name, m) for m in node.body if isinstance(m, ast.FunctionDef))
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.extend((n.id, node) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return found


def test_every_private_name_is_used_outside_its_definition():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    uses = Counter(name for tree in trees.values() for name in _names(tree))
    unused = [
        f"{module}: {name}"
        for module, tree in sorted(trees.items())
        for name, node in _definitions(tree)
        if _private(name) and uses[name] == _names(node).count(name)
    ]
    assert unused == [], f"private names only their own definitions use: {unused}"
