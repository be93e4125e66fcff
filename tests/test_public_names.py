"""Every public name in the package is used by the package or the benchmark.

A public function, class or constant that only tests read is code that
nothing calls, and is deleted instead (README "API changes").  Names are
matched by spelling: a use is any load of that name or attribute in
``src/dlab`` or ``bench`` outside the name's own definition.  Dunders are
exempt.  Of the ``_private`` names, module-level functions and classes are
held to the same rule, so a helper that a refactor leaves behind fails too.
So is each defaulted parameter of a public function or method: some call
there passes it, by keyword or by position.  And each name a module imports
is loaded in that module, except in ``__init__.py``, which re-exports.
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


def _knobs(tree):
    """(function, parameter, index) of each defaulted parameter of a public
    function or method; ``index`` counts the positional arguments a call
    passes before it (None for a keyword-only one)."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            functions = [(item, 1) for item in node.body
                         if isinstance(item, ast.FunctionDef)
                         and not any(getattr(d, "id", None) == "staticmethod"
                                     for d in item.decorator_list)]
        elif isinstance(node, ast.FunctionDef):
            functions = [(node, 0)]
        else:
            continue
        for fn, bound in functions:
            if fn.name.startswith("_"):
                continue
            positional = fn.args.posonlyargs + fn.args.args
            first = len(positional) - len(fn.args.defaults)
            for index in range(first, len(positional)):
                yield fn.name, positional[index].arg, index - bound
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield fn.name, arg.arg, None


def test_every_defaulted_parameter_is_passed_by_the_package_or_bench():
    calls = {}
    for path in USERS:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                keywords = {k.arg for k in node.keywords}
                calls.setdefault(name, []).append(
                    (float("inf") if starred else len(node.args), keywords)
                )
    unpassed = []
    for path in SOURCES:
        for fn, param, index in _knobs(ast.parse(path.read_text(), str(path))):
            if not any(
                param in keywords or None in keywords
                or (index is not None and npos > index)
                for npos, keywords in calls.get(fn, ())
            ):
                unpassed.append(f"{path.name} {fn}({param}=)")
    assert unpassed == []


def test_every_imported_name_is_loaded_by_its_module():
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in loaded:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []
