"""Every top-level function and class in the package, and every method of
its classes, is used somewhere; every module-level constant is read; every
field of its records is read, both by name in the source and at run time
through an instance of its class.

A name counts as used when some code in src/ or demos/ outside its own
definition mentions it: a call, an attribute access, an import or a
reference (a recursive call from its own body does not count). Dunder
methods are exempt, and so are the methods of a class with a base from
outside the package (such as an argparse hook), which that base calls.
A constant, a non-dunder name bound by a top-level assignment, counts as
read when some code in src/ or demos/ mentions it outside that assignment.
A field counts as read when some code in src/ or demos/ loads an attribute
of its name, other than as the same-named keyword of a call to its own
class (a copy into a new instance reads nothing). Code that nothing in
the package or the demos uses gets deleted, not kept for tests.
"""

import ast
import importlib
import runpy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hodgeatoms"
# the record classes, each a class with __slots__
RECORDS = {"InstanceSpec", "PeriodSource", "EigenBasis", "AnsatzMatrix", "DiffOperator",
           "SolveReport", "BlockSpectrum", "ReciprocityResult", "AtomInvariants",
           "PlacementCase", "PipelineRun"}


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


def _constants(trees):
    """(label, name, assignment) for the non-dunder names bound by top-level
    assignments in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in trees[path].body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    if isinstance(target, ast.Name) and not (
                            target.id.startswith("__") and target.id.endswith("__")):
                        yield f"{path.name}: {target.id}", target.id, node


def test_every_module_constant_is_read():
    trees = _trees()
    constants = list(_constants(trees))
    assert constants
    assert [label for label, name, node in constants
            if not any(name in _mentions(tree, node) for tree in trees.values())] == []


def _fields(trees):
    """(label, class name, field name) for the fields of package records, the
    names in a class's __slots__."""
    for label, node in _top_level(trees):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.Assign) and [getattr(t, "id", None)
                                                 for t in item.targets] == ["__slots__"]:
                for name in ast.literal_eval(item.value):
                    yield f"{label}.{name}", node.name, name


def _reads(tree, cls, name):
    """Whether tree loads the attribute name, copies into cls(name=...) aside."""
    copies = {id(kw.value) for n in ast.walk(tree)
              if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == cls
              for kw in n.keywords if kw.arg == name}
    return any(isinstance(n, ast.Attribute) and n.attr == name
               and isinstance(n.ctx, ast.Load) and id(n) not in copies for n in ast.walk(tree))


def test_every_record_field_is_read():
    trees = _trees()
    assert RECORDS <= {cls for _, cls, _ in _fields(trees)}
    assert [label for label, cls, name in _fields(trees)
            if not any(_reads(tree, cls, name) for tree in trees.values())] == []


def _package_records():
    """(class, field names) for the package classes with __slots__."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"hodgeatoms.{path.stem}")
        out += [(c, vars(c)["__slots__"]) for c in vars(module).values()
                if isinstance(c, type) and c.__module__ == module.__name__
                and "__slots__" in vars(c)]
    return out


def test_every_record_field_is_read_at_run_time(monkeypatch, capsys):
    # the static test above matches attribute names only, so a field stays
    # "read" whenever any object has an attribute of its name; here each
    # record class records the fields read through its own instances, outside
    # their dunder methods (validation, comparison, repr), while certify runs
    # on three instances and the six demos run in this process
    from hodgeatoms.cli import main
    records = _package_records()
    reads = set()
    for cls, names in records:

        def spy(self, name, cls=cls, names=names, get=cls.__getattribute__):
            if name in names and type(self) is cls:
                caller = sys._getframe(1).f_code.co_name
                if not (caller.startswith("__") and caller.endswith("__")):
                    reads.add((cls, name))
            return get(self, name)

        monkeypatch.setattr(cls, "__getattribute__", spy)
    for instance in ("verra", "broken-nonsimple", "broken-a0plus"):
        main(["certify", "--instance", instance, "--format", "json"])
    monkeypatch.syspath_prepend(str(ROOT / "demos"))
    for demo in sorted((ROOT / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")
    capsys.readouterr()
    assert RECORDS <= {cls.__name__ for cls, _ in records}
    assert {cls.__name__ for cls, _ in records} == {c for _, c, _ in _fields(_trees())}
    assert [f"{cls.__name__}.{name}" for cls, names in records for name in names
            if (cls, name) not in reads] == []


def _state_keys(tree):
    """(written, read) keys of the run state in tree: writes by state.update(k=...)
    and state["k"] = ..., reads by state["k"] and state.get("k")."""
    written, read = set(), set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Subscript) and isinstance(n.value, ast.Name) \
                and n.value.id == "state" and isinstance(n.slice, ast.Constant):
            (written if isinstance(n.ctx, ast.Store) else read).add(n.slice.value)
        elif isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) \
                and isinstance(n.func.value, ast.Name) and n.func.value.id == "state":
            if n.func.attr == "update":
                written |= {kw.arg for kw in n.keywords}
            elif n.func.attr == "get":
                read |= {a.value for a in n.args[:1] if isinstance(a, ast.Constant)}
    return written, read


def test_every_run_state_key_is_read():
    written, read = _state_keys(ast.parse((PACKAGE / "pipeline.py").read_text(encoding="utf-8")))
    unread = sorted(written - read)
    assert written and not unread, f"run state keys written but never read: {unread}"
