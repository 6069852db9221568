"""The package's modules import one another without a cycle."""

import ast
from pathlib import Path

import medcurve

SRC = Path(medcurve.__file__).parent


def _imports(path: Path) -> set:
    """The package modules a file imports by 'from .x import', at any depth."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
    return found


def test_module_imports_form_no_cycle():
    graph = {path.stem: _imports(path) for path in SRC.glob("*.py")}
    assert graph["designs"] == {"curves", "errors"}
    # strip modules that import nothing left in the graph; a cycle never strips
    remaining = dict(graph)
    while True:
        leaves = [name for name, deps in remaining.items() if not deps & remaining.keys()]
        if not leaves:
            break
        for name in leaves:
            del remaining[name]
    assert remaining == {}, f"import cycle among {sorted(remaining)}"
