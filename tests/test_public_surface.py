"""Every public name of the package is reached by the program, the acceptance
gate or the benchmark.

A public top-level function or class, or a public method, of a module in
``src/traction_gap`` passes when its name appears as an ``ast.Name`` or an
``ast.Attribute`` in one of three places: in ``src/`` outside its own
definition, in ``tests/test_acceptance.py``, or in ``perfbench/``.  In the
last two an imported name counts too, since deleting it breaks the import.
Inside ``src/`` an import or an ``__all__`` entry is not a use, so a name
that only other tests and the package's exports mention fails.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "traction_gap"


def _public_definitions(tree: ast.Module):
    """(qualified name, bare name, definition node) of the public top-level
    functions and classes and of the public methods of those classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item


def _named(tree: ast.AST):
    """(name, line) of every ast.Name and ast.Attribute in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _imported(tree: ast.AST):
    """Names bound by every ``from ... import`` in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _unreached() -> list[str]:
    sources = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    outside = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").rglob("*.py"))]
    assert "scaled.py" in {path.name for path in sources}  # a scan of nothing passes vacuously
    reached = set()
    for tree in (ast.parse(path.read_text()) for path in outside):
        reached |= {name for name, _ in _named(tree)} | set(_imported(tree))
    uses = {path: list(_named(tree)) for path, tree in sources.items()}
    missing = []
    for path, tree in sources.items():
        for qualified, name, node in _public_definitions(tree):
            if name in reached:
                continue
            if not any(used == name and not (path == other and node.lineno <= line <= node.end_lineno)
                       for other, named in uses.items() for used, line in named):
                missing.append(f"{path.stem}.{qualified}")
    return missing


def test_every_public_name_is_reached():
    assert _unreached() == []
