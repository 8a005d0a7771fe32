"""Every public name markkit defines is used by the program, its scripts or
its benchmark, or documented in README.md.

A public function, class or method that only tests read is an alias or a
wrapper the package does not need; this test names each one. Names count
as used where code reads them (a name, an attribute, or a string that is
a dotted name, as the benchmark's tracer targets are), and in README.md
where a code span or block shows them. Imports alone, docstrings and
comments do not count: a re-export is not a use. Names match by spelling
alone, so a method counts as used wherever an attribute of its name is read.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "markkit"

# reference implementations kept on purpose: the gradient oracle
# (acceptance criterion 5) and the paper's NER label alignment (criterion 7)
KEPT = {"finite_difference_grads", "align_labels_with_markers", "strip_marker_labels"}

IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")
CODE = re.compile(r"```.*?```|`[^`\n]+`", re.DOTALL)


def public_names(tree: ast.Module) -> set[str]:
    """The module's public functions and classes, and their classes'
    public methods (dunders are the language's, not the package's)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.add(node.name)
            if isinstance(node, ast.ClassDef):
                names.update(item.name for item in node.body
                             if isinstance(item, ast.FunctionDef)
                             and not item.name.startswith("_"))
    return names


def docstrings(tree: ast.Module) -> set[int]:
    """The ids of the docstring nodes of ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                found.add(id(first.value))
    return found


def names_read(tree: ast.Module) -> set[str]:
    skip = docstrings(tree)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip and DOTTED.fullmatch(node.value)):
            names.update(node.value.split("."))
    return names


def test_every_public_name_is_used_outside_the_tests():
    defined = {}
    used = set()
    for directory in ("src", "scripts", "benchmark"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            used |= names_read(tree)
            if path.parent == PACKAGE:
                defined.update(dict.fromkeys(public_names(tree), path.name))
    for path in (ROOT / "README.md", *sorted((ROOT / "benchmark").rglob("*.md"))):
        for span in CODE.findall(path.read_text(encoding="utf-8")):
            used.update(IDENTIFIER.findall(span))
    assert defined
    unused = sorted(f"{module}: {name}" for name, module in defined.items()
                    if name not in used and name not in KEPT)
    assert not unused, "named nowhere outside the tests: " + ", ".join(unused)
