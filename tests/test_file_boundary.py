"""markkit opens a path in one place, ``resources.opened``.

Everywhere else in ``src/markkit`` and ``scripts/`` a file is read or
written through it, or through ``read_text``/``write_text`` on top of it,
so that one rule turns an OSError into
``ResourceError("cannot read|write <path>: ...")``. This test names each
site that goes round it:
- a call of the builtin ``open``;
- a call of ``.read_bytes``, ``.read_text``, ``.write_bytes`` or
  ``.write_text`` on an object (a ``pathlib.Path``);
- a ``ResourceError`` built with a message that says "cannot read" or
  "cannot write".
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "markkit"
SCRIPTS = PACKAGE.parents[1] / "scripts"  # they use markkit's files, so its boundary too
BOUNDARY = ("resources.py", "opened")  # the module and function allowed to open a path
PATH_METHODS = {"read_bytes", "read_text", "write_bytes", "write_text"}


def _says_cannot(node: ast.Call) -> bool:
    return any(isinstance(part, ast.Constant) and isinstance(part.value, str)
               and ("cannot read" in part.value or "cannot write" in part.value)
               for arg in node.args for part in ast.walk(arg))


def boundary_breaches(source: str, module: str) -> list[str]:
    """``module:line: what`` for each site in ``source`` that opens a path,
    or words a file error, outside ``resources.opened``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and (module, function) != BOUNDARY:
            func = node.func
            what = None
            if isinstance(func, ast.Name) and func.id == "open":
                what = "open()"
            elif isinstance(func, ast.Attribute) and func.attr in PATH_METHODS:
                what = f".{func.attr}()"
            elif isinstance(func, ast.Name) and func.id == "ResourceError" and _says_cannot(node):
                what = "ResourceError('cannot read|write ...')"
            if what:
                found.append(f"{module}:{node.lineno}: {what}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_every_path_is_opened_in_one_place():
    breaches = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted(SCRIPTS.glob("*.py")):
        breaches += boundary_breaches(path.read_text(encoding="utf-8"), path.name)
    assert breaches == []


def test_each_kind_of_breach_is_named():
    source = "\n".join([
        "def load(path):",
        "    with open(path) as f:",
        "        return f.read()",
        "def save(path, text):",
        "    path.write_text(text)",
        "    Path(path).read_bytes()",
        "def fail(path, exc):",
        "    raise ResourceError(f'cannot write {path}: {exc}')",
        "def opened(path):",
        "    return open(path)",
    ])
    assert boundary_breaches(source, "cli.py") == [
        "cli.py:2: open()", "cli.py:5: .write_text()", "cli.py:6: .read_bytes()",
        "cli.py:8: ResourceError('cannot read|write ...')", "cli.py:10: open()"]
    assert boundary_breaches(source, "resources.py")[-1] == \
        "resources.py:8: ResourceError('cannot read|write ...')"
