"""Every top-level function and class in the package is used somewhere.

A name counts as used when some code in src/ or demos/ outside its own
definition mentions it: a call, an attribute access, an import or a
reference (a recursive call from its own body does not count). Code that
nothing in the package or the demos uses gets deleted, not kept for tests.
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


def test_every_top_level_definition_is_used():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not any(node.name in _mentions(tree, node) for tree in trees.values()):
                unused.append(f"{path.name}: {node.name}")
    assert unused == []
