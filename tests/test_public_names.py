"""Every public name in the package is used by the package or the benchmark.

A public function, class or constant that only tests read is code that
nothing calls, and is deleted instead (README "API changes").  Names are
matched by spelling: a use is any load of that name or attribute in
``src/dlab`` or ``bench`` outside the name's own definition.  Dunders are
exempt.  Of the ``_private`` names, module-level functions and classes are
held to the same rule, so a helper that a refactor leaves behind fails too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "dlab").glob("*.py"))
USERS = SOURCES + sorted((ROOT / "bench").glob("*.py"))


def _definitions(tree):
    """(name, node) of each module-level and class-level def, class and
    assigned constant."""
    for node in tree.body:
        scopes = [node, *node.body] if isinstance(node, ast.ClassDef) else [node]
        for item in scopes:
            if isinstance(item, (ast.FunctionDef, ast.ClassDef)):
                yield item.name, item
            elif isinstance(item, ast.Assign):
                for target in item.targets:
                    if isinstance(target, ast.Name):
                        yield target.id, item


def _uses(trees):
    """name -> [(path, line)] of every load of it as a name or attribute."""
    uses = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(getattr(node, "ctx", None), ast.Load):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name is not None:
                    uses.setdefault(name, []).append((path, node.lineno))
    return uses


def _unused(definitions):
    """``file:line name`` of each (path, name, node) loaded nowhere outside node."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in USERS}
    uses = _uses(trees)
    unused = []
    for path in SOURCES:
        for name, node in definitions(trees[path]):
            outside = [
                (p, line) for p, line in uses.get(name, ())
                if not (p == path and node.lineno <= line <= node.end_lineno)
            ]
            if not outside:
                unused.append(f"{path.name}:{node.lineno} {name}")
    return unused


def test_no_public_name_is_used_only_by_tests():
    def public(tree):
        return ((name, node) for name, node in _definitions(tree)
                if not name.startswith("_"))

    assert _unused(public) == []


def test_no_private_helper_is_left_unused():
    def private(tree):
        return ((node.name, node) for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name.startswith("_") and not node.name.startswith("__"))

    assert _unused(private) == []
