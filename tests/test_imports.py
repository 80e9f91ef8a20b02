"""Every name a ``src/metagrid`` module imports is used in that module, so
a deletion cannot leave a stale import behind; and every name the
benchmark's tracer rebinds exists."""

from __future__ import annotations

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "metagrid"


def unused_imports(source: str) -> list[str]:
    """The names ``source`` binds by import but never reads, each with its
    line.  A read is a bare name (``np`` in ``np.ndarray`` too) or an entry
    of ``__all__``; ``from __future__`` imports are directives, not names."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items()) if name not in read]


def test_the_checker_finds_an_unused_import():
    source = "from collections.abc import Mapping, Sequence\n\ndef f(x: Sequence): ...\n"
    assert unused_imports(source) == ["line 1: Mapping"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_every_benchmark_entry_point_resolves(monkeypatch):
    """The benchmark's tracer rebinds each ``(module, attr)`` of its
    ``ENTRY_POINTS`` in ``metagrid``; a rename fails here, not there."""
    path = SRC.parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.ENTRY_POINTS
    for module, attr, span in tracing.ENTRY_POINTS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr, span)
