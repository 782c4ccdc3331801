"""Every public name in serlink has a caller outside the tests.

A public function, class, method or property defined in ``src/serlink``
must be referenced outside its own definition somewhere in ``src/``,
``bench/`` or ``demos/`` (test files excluded).  A reference is a name,
an attribute, or a dotted-identifier string such as the bench's
``"Serializer.step"`` span paths.  Matching is by bare name, so a
method counts as used when any attribute of that name is read; the
guard catches API that nothing but a test (or nothing at all) calls.
"""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "serlink"
CALLER_DIRS = ("src", "bench", "demos")

ALLOWED = {
    # the per-bit reference that pd_batch is tested against
    "alexander_pd",
    # acceptance criterion 5d checks the loop's slew capacity against
    # the frequency-offset drift with these two
    "slew_capacity_ui_per_ui",
    "offset_drift_ui_per_ui",
}


def _public(name):
    return not name.startswith("_")


def _definitions(tree):
    """(qualified name, bare name, node) for module-level functions and
    classes and for the methods and properties of every class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _public(item.name):
                    yield f"{node.name}.{item.name}", item.name, item


def _references(node):
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            parts = sub.value.split(".")
            if all(part.isidentifier() for part in parts):
                refs.update(parts)
    return refs


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def unreferenced_names():
    everywhere = Counter()
    for folder in CALLER_DIRS:
        for path in (ROOT / folder).rglob("*.py"):
            if not path.name.startswith("test_"):
                everywhere += _references(_parse(path))
    unused = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, bare, node in _definitions(_parse(path)):
            if everywhere[bare] - _references(node)[bare] <= 0:
                unused.add(qualified)
    return unused


def test_every_public_name_has_a_caller_outside_the_tests():
    unused = unreferenced_names()
    assert sorted(unused - ALLOWED) == [], "public API that only tests (or nothing) call"
    assert sorted(ALLOWED - unused) == [], "allowlisted names that now have a caller"
