"""Every public name in the package is used by the package or the benchmark.

A public function, class or constant that only tests read is code that
nothing calls, and is deleted instead (README "API changes").  Names are
matched by spelling: a use is any load of that name or attribute in
``src/dlab`` or ``bench`` outside the name's own definition.  Dunders and
``_private`` names are exempt.
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


def test_no_public_name_is_used_only_by_tests():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in USERS}
    uses = _uses(trees)
    unused = []
    for path in SOURCES:
        for name, node in _definitions(trees[path]):
            if name.startswith("_"):
                continue
            outside = [
                (p, line) for p, line in uses.get(name, ())
                if not (p == path and node.lineno <= line <= node.end_lineno)
            ]
            if not outside:
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []
