"""The names the benchmark under ``benchmark/`` takes from markkit must exist.

The benchmark's tracer reads a vanished name as a null metric and does not
fail, so a rename in markkit would silently blank a benchmark figure. These
tests read the benchmark's sources without running it.
"""

import ast
import importlib
import importlib.util
import sys
import types
from pathlib import Path

import pytest

from markkit.pretrain import MaskingStats
from markkit.resources import WordEmbeddings

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def _missing(pairs) -> list[str]:
    missing = []
    for module_name, path in pairs:
        try:
            _resolve(module_name, path)
        except (AttributeError, ImportError):
            missing.append(f"{module_name}.{path}")
    return missing


def test_traced_targets_resolve(monkeypatch):
    spec = importlib.util.spec_from_file_location("benchmark_spans", BENCHMARK / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)  # standard library only
    targets = spans.CORPUS_TARGETS + spans.TRAIN_TARGETS
    assert len(targets) == 15
    assert _missing((module, path) for module, path, *_ in targets) == []
    # attributes the counters read off results
    assert hasattr(WordEmbeddings, "same_length_rows")


@pytest.mark.parametrize("filename", ["checks.py", "measure.py", "selftest.py"])
def test_imported_names_resolve(filename):
    """Every ``from markkit... import`` name, every attribute read off an
    imported markkit module, and every ``stats.<count>`` read off a
    MaskingStats exists."""
    tree = ast.parse((BENCHMARK / filename).read_text(encoding="utf-8"))
    modules: dict[str, str] = {}  # local alias -> markkit module
    pairs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("markkit"):
            for alias in node.names:
                value = getattr(importlib.import_module(node.module), alias.name, None)
                if isinstance(value, types.ModuleType):
                    modules[alias.asname or alias.name] = value.__name__
                else:
                    pairs.append((node.module, alias.name))
    assert pairs or modules
    stats = MaskingStats()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                pairs.append((modules[node.value.id], node.attr))
            elif node.value.id == "stats":
                assert hasattr(stats, node.attr), f"MaskingStats.{node.attr}"
    assert _missing(pairs) == []
