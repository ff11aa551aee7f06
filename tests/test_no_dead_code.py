"""Every top-level function and class in the package, and every method of
its classes, is used somewhere; every field of its dataclasses is read.

A name counts as used when some code in src/ or demos/ outside its own
definition mentions it: a call, an attribute access, an import or a
reference (a recursive call from its own body does not count). Dunder
methods are exempt, and so are the methods of a class with a base from
outside the package (such as an argparse hook), which that base calls.
A field counts as read when some code in src/ or demos/ loads an attribute
of its name, other than as the same-named keyword of a call to its own
class (a copy into a new instance reads nothing). Code that nothing in
the package or the demos uses gets deleted, not kept for tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hodgeatoms"


def _mentions(node, skip):
    """Names, attribute names and imported names under node, not entering skip."""
    out = set()
    todo = [node]
    while todo:
        n = todo.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
        todo.extend(ast.iter_child_nodes(n))
    return out


def _trees():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}


def _unused(definitions, trees):
    return [label for label, node in definitions
            if not any(node.name in _mentions(tree, node) for tree in trees.values())]


def _top_level(trees):
    for path in sorted(PACKAGE.glob("*.py")):
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{path.name}: {node.name}", node


def _methods(trees):
    """Non-dunder methods of package classes whose bases are package classes."""
    top = list(_top_level(trees))
    classes = {node.name for _, node in top if isinstance(node, ast.ClassDef)}
    for label, node in top:
        if not isinstance(node, ast.ClassDef):
            continue
        if any(not (isinstance(b, ast.Name) and b.id in classes) for b in node.bases):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")):
                yield f"{label}.{item.name}", item


def test_every_top_level_definition_is_used():
    trees = _trees()
    assert _unused(_top_level(trees), trees) == []


def test_every_method_is_used():
    trees = _trees()
    assert _unused(_methods(trees), trees) == []


def _fields(trees):
    """(label, class name, field name) for the annotated fields of package dataclasses."""
    for label, node in _top_level(trees):
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in _mentions(d, None) for d in node.decorator_list):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{label}.{item.target.id}", node.name, item.target.id


def _reads(tree, cls, name):
    """Whether tree loads the attribute name, copies into cls(name=...) aside."""
    copies = {id(kw.value) for n in ast.walk(tree)
              if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == cls
              for kw in n.keywords if kw.arg == name}
    return any(isinstance(n, ast.Attribute) and n.attr == name
               and isinstance(n.ctx, ast.Load) and id(n) not in copies for n in ast.walk(tree))


def test_every_dataclass_field_is_read():
    trees = _trees()
    assert [label for label, cls, name in _fields(trees)
            if not any(_reads(tree, cls, name) for tree in trees.values())] == []
