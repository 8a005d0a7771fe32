#!/usr/bin/env python3
"""Print every statement of ``src/markkit`` that no test runs.

Runs the test suite, minus the three slow acceptance tests (criteria 2, 5
and 6), under a line tracer (``sys.settrace`` and ``threading.settrace``),
then prints to standard output each statement of the package none of
whose lines ran, as ``path:line: text``; pytest's own output goes to
standard error. The tracer reaches:
- the pytest process and every CLI subprocess a test starts, through a
  generated ``sitecustomize.py`` put first on ``PYTHONPATH``;
- every pool worker forked from a traced thread, through
  ``os.register_at_fork``. A worker writes its lines when
  ``Pool.__exit__`` terminates it (SIGTERM) or when it ends of itself;
  ``atexit`` runs in neither case.
Files are read and written through ``markkit.resources``, imported where
it is used: ``sitecustomize`` loads this module before tracing starts, and
an import at the top would run markkit's module-level lines untraced.

A statement on the ALLOWED list, or under an ``if __name__ ==
"__main__":`` guard, is printed with ``# allowed`` and does not fail the
census. The exit code is 0 when nothing else is printed and the tests
pass, else 1. Usage, from anywhere::

    python3 scripts/line_census.py
"""

from __future__ import annotations

import ast
import atexit
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "markkit"
SLOW = ("tests/test_acceptance.py::test_criterion_2_schedule_conformance",
        "tests/test_acceptance.py::test_criterion_5_gradient_oracle",
        "tests/test_acceptance.py::test_criterion_6_trainability")
# (module, enclosing function, statement): platform fall-backs Linux never takes
ALLOWED = {("model.py", "_physical_memory", "return None"),  # no sysconf memory figure
           ("pretrain.py", "usable_cpus", "return os.cpu_count() or 1")}  # no affinity call
SITECUSTOMIZE = """\
import importlib.util
spec = importlib.util.spec_from_file_location("line_census", {script!r})
census = importlib.util.module_from_spec(spec)
spec.loader.exec_module(census)
census.Collector({package!r}, {directory!r}).start(at_exit=True)
"""


class Collector:
    """The lines run in the files under ``root``, per file (``hits``), in
    every thread started while it traces and in the processes forked
    from them. A forked process writes its lines under ``directory`` as
    it ends; :func:`read_hits` reads them back."""

    def __init__(self, root: str | Path, directory: str | Path):
        self.root = os.path.realpath(root) + os.sep
        self.directory = Path(directory)
        self.hits: dict[str, set[int]] = {}
        self._tracers: dict[str, object] = {}  # co_filename -> its line tracer or None
        self._previous = None
        self._active = self._finished = False
        self._lock = threading.Lock()  # held while the lines are written
        os.register_at_fork(after_in_child=self._forked)

    def trace(self, frame, event, arg):
        """The global trace function: a line tracer for a file under root."""
        filename = frame.f_code.co_filename
        tracer = self._tracers.get(filename, self)  # self: not seen yet (None: not traced)
        if tracer is self:
            tracer = self._tracers[filename] = self._line_tracer(filename)
        return tracer

    def _line_tracer(self, filename: str):
        path = os.path.realpath(filename)
        if filename.startswith("<") or not path.startswith(self.root):  # "<frozen ...>"
            return None
        add = self.hits.setdefault(path, set()).add

        def line(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return line
        return line

    def start(self, at_exit: bool = False) -> None:
        """Trace this thread and the threads started from now on; with
        ``at_exit``, write the lines under ``directory`` when the process
        exits."""
        self._previous = sys.gettrace(), threading.gettrace()
        self._active = True
        sys.settrace(self.trace)
        threading.settrace(self.trace)
        if at_exit:
            atexit.register(self.finish)

    def stop(self) -> None:
        """Give tracing back to the trace functions set before :meth:`start`."""
        self._active = False
        sys.settrace(self._previous[0])
        threading.settrace(self._previous[1])

    def finish(self) -> None:
        """Stop tracing and write this process's lines under ``directory``,
        once: a later call, from any thread, returns once they are written."""
        with self._lock:
            if self._finished:
                return
            self._finished = True
            if self._active:
                self.stop()
            found = {path: sorted(lines) for path, lines in list(self.hits.items()) if lines}
            if found:
                from markkit.resources import write_text
                write_text(self.directory / f"{os.getpid()}-{os.urandom(4).hex()}.json",
                           json.dumps(found))

    def _forked(self) -> None:
        """In a child forked from a thread this collector traces: keep only
        the child's own lines, and write them when ``Pool.__exit__``
        terminates it or when multiprocessing's exit function runs.

        SIGTERM is taken by a thread in ``signal.sigwait``, not by a Python
        handler: a handler runs only when the main thread next checks for
        signals, and a worker that is already waiting on its task queue's
        lock never does, so it would outlive the ``Pool.join`` that waits
        for it."""
        if sys.gettrace() != self.trace:  # not tracing, or a nested collector is
            return
        self._lock = threading.Lock()
        for lines in self.hits.values():
            lines.clear()
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})  # threads started here too
        threading.Thread(target=self._terminated, daemon=True).start()
        # a multiprocessing child clears its finalizers, then runs its
        # after-fork hooks: the exit finalizer is registered from one
        from multiprocessing import util
        util.register_after_fork(self, lambda c: util.Finalize(c, c.finish, exitpriority=0))

    def _terminated(self) -> None:
        signal.sigwait({signal.SIGTERM})
        self.finish()
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
        signal.pthread_kill(threading.get_ident(), signal.SIGTERM)  # as if never caught


def read_hits(directory: str | Path, hits: dict[str, set[int]]) -> None:
    """Add the lines each process wrote under ``directory`` to ``hits``."""
    from markkit.resources import read_text
    for path in sorted(Path(directory).glob("*.json")):
        for filename, lines in json.loads(read_text(path)).items():
            hits.setdefault(filename, set()).update(lines)


def _code_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def statements(source: str, filename: str) -> list[tuple[int, set[int], str | None, bool]]:
    """``(line, own lines, enclosing function, under a __main__ guard)`` of
    each statement of ``source`` that compiles to code. A statement's own
    lines are its decorators and lines less those of the statements it
    holds."""
    tree = ast.parse(source, filename)
    code = _code_lines(compile(tree, filename, "exec"))
    found = []

    def visit(node, function, guarded, own):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                first = min([child.lineno, *(d.lineno for d in
                                             getattr(child, "decorator_list", ()))])
                lines = set(range(first, child.end_lineno + 1))
                own.difference_update(lines)  # the holding statement's own lines
                found.append((child.lineno, lines, function, guarded))
                visit(child, child.name if isinstance(child, (ast.FunctionDef,
                                                              ast.AsyncFunctionDef))
                      else function, guarded or _is_main_guard(child), lines)
            else:
                visit(child, function, guarded, own)

    visit(tree, None, False, set())
    return [entry for entry in found if entry[1] & code]


def _is_main_guard(node: ast.stmt) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test) in (
        "__name__ == '__main__'", "'__main__' == __name__")


def unreached(path: str | Path, hits: set[int]) -> tuple[int, list[tuple[int, str, bool]]]:
    """The number of statements in the file at ``path``, and ``(line,
    text, allowed)`` of each one none of whose own lines is in ``hits``."""
    from markkit.resources import read_text
    source = read_text(path)
    text = source.splitlines()
    found = []
    listed = statements(source, str(path))
    for lineno, lines, function, guarded in listed:
        if not lines & hits:
            stripped = text[lineno - 1].strip()
            allowed = guarded or (Path(path).name, function, stripped) in ALLOWED
            found.append((lineno, stripped, allowed))
    return len(listed), found


def main() -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    from markkit.resources import write_text
    work = Path(tempfile.mkdtemp(prefix="line-census-"))
    hits: dict[str, set[int]] = {}
    try:
        write_text(work / "sitecustomize.py", SITECUSTOMIZE.format(
            script=str(Path(__file__).resolve()), package=str(PACKAGE), directory=str(work)))
        path = [str(work), str(PACKAGE.parent), os.environ.get("PYTHONPATH")]
        status = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             *(f"--deselect={test}" for test in SLOW), "tests"],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
            stdout=sys.stderr).returncode
        read_hits(work, hits)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    total = missed = failing = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count, found = unreached(path, hits.get(str(path), set()))
        for lineno, text, allowed in found:
            print(f"{path.relative_to(ROOT)}:{lineno}: {text}" + ("  # allowed" if allowed else ""))
            failing += not allowed
        total += count
        missed += len(found)
    print(f"line census: {missed} of {total} statements in src/markkit never ran, "
          f"{failing} of them outside the allow-list", file=sys.stderr)
    if status != 0:
        print(f"line census: the tests failed (pytest exit {status})", file=sys.stderr)
    return 1 if failing or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
