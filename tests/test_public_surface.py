"""Every public name of the package is reached by the program, the acceptance
gate or the benchmark.

A public top-level function or class, or a public method, of a module in
``src/traction_gap`` passes when its name appears as an ``ast.Name`` or an
``ast.Attribute`` in one of three places: in ``src/`` outside its own
definition, in ``tests/test_acceptance.py``, or in ``perfbench/``.  In the
last two an imported name counts too, since deleting it breaks the import.
Inside ``src/`` an import or an ``__all__`` entry is not a use, so a name
that only other tests and the package's exports mention fails.

Likewise every kind of ``GalerkinSpace`` (a string its methods compare
``self.kind`` with) must be passed as a literal call argument, as in
``build_space("ansatz_k", ...)``, in ``src/`` or in one of those two places:
a kind that only tests build fails.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "traction_gap"


def _outside() -> list[Path]:
    """The acceptance gate and the benchmark."""
    return [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").rglob("*.py"))]


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
    assert "scaled.py" in {path.name for path in sources}  # a scan of nothing passes vacuously
    reached = set()
    for tree in (ast.parse(path.read_text()) for path in _outside()):
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


def _space_kinds(tree: ast.Module):
    """The strings that ``GalerkinSpace``'s methods compare ``self.kind`` with."""
    space, = (node for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name == "GalerkinSpace")
    for node in ast.walk(space):
        if isinstance(node, ast.Compare) and isinstance(node.left, ast.Attribute) \
                and node.left.attr == "kind" and getattr(node.left.value, "id", None) == "self":
            for constant in (c for comp in node.comparators for c in ast.walk(comp)):
                if isinstance(constant, ast.Constant) and isinstance(constant.value, str):
                    yield constant.value


def _call_strings(tree: ast.AST):
    """String literals passed as positional or keyword arguments of a call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            for arg in (*node.args, *(keyword.value for keyword in node.keywords)):
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    yield arg.value


def test_every_space_kind_is_built_outside_the_tests():
    kinds = set(_space_kinds(ast.parse((PACKAGE / "galerkin.py").read_text())))
    assert {"full", "ansatz_k"} <= kinds  # the scan found the branches
    built = set()
    for path in (*sorted(PACKAGE.glob("*.py")), *_outside()):
        built |= set(_call_strings(ast.parse(path.read_text())))
    assert sorted(kinds - built) == []
