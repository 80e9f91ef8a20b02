"""Every name a ``src/metagrid`` module or a test module imports is used
in that module, and every private helper ``src/metagrid`` defines is read
in it, so a deletion cannot leave a stale import or helper behind; every
name the benchmark's tracer rebinds exists; greedy, MMC and the GA
read no record field that the batch's ``PairTable`` holds; the
simulator's period loop builds no dict or set and sorts nothing;
importing the package loads scipy's HiGHS binding without
``scipy.optimize`` or ``scipy.sparse``; and README's library example
runs."""

from __future__ import annotations

import ast
import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "metagrid"


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


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")), ids=lambda p: p.name
)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def unread_private_definitions(sources: list[str]) -> list[str]:
    """The functions, methods and classes with a leading underscore (not
    dunders) that ``sources`` define but never read, as a bare name or as
    an attribute."""
    defined, read = set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(defined - read)


def test_the_checker_finds_an_unread_private_helper():
    sources = [
        "def _kept(): ...\ndef _left(): ...\nclass _Gone: ...\n",
        "class T:\n    def _method(self): ...\n    def __init__(self): self._method()\n",
        "def f(m): return m._kept()\n",
    ]
    assert unread_private_definitions(sources) == ["_Gone", "_left"]


def test_every_private_helper_is_read():
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    assert unread_private_definitions(sources) == []


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


# the job and resource record fields that ``PairTable`` carries as arrays
RECORD_FIELDS = {
    "pe_count", "free_pes", "budget_gd", "deadline_s", "task_sizes_mi", "cost_per_pe_second",
    "pe_speed_mips",
}


@pytest.mark.parametrize("name", ["greedy.py", "mmc.py", "ga.py"])
def test_the_schedulers_read_counts_prices_and_times_off_the_table(name):
    """Greedy, MMC and the GA read no job or resource record field that the
    batch's ``PairTable`` holds as an array."""
    tree = ast.parse((SRC / name).read_text())
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert sorted(read & RECORD_FIELDS) == []


def test_the_simulator_period_loop_builds_no_dict_or_set_and_sorts_nothing():
    """``run_scenario``'s period loop keeps its bookkeeping on lists over
    the scenario's rows and columns: it holds no dict or set display or
    comprehension and calls none of ``dict``, ``set``, ``sorted`` or
    ``list.sort``."""
    tree = ast.parse((SRC / "simulator.py").read_text())
    run = next(n for n in tree.body if getattr(n, "name", None) == "run_scenario")
    loop = next(n for n in run.body if isinstance(n, ast.While))
    found = []
    for node in ast.walk(loop):
        func = node.func if isinstance(node, ast.Call) else None
        if (
            isinstance(node, (ast.Dict, ast.Set, ast.DictComp, ast.SetComp))
            or isinstance(func, ast.Name) and func.id in {"dict", "set", "sorted"}
            or isinstance(func, ast.Attribute) and func.attr == "sort"
        ):
            found.append(f"line {node.lineno}: {ast.unparse(node)[:40]}")
    assert found == []


def run_fresh(code: str) -> None:
    """Run ``code`` in a new interpreter that imports ``metagrid`` from
    this tree; its asserts must hold."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_the_readme_library_example_runs():
    """The python block under README's ``## Library`` heading runs as
    written in a new interpreter."""
    readme = (SRC.parent.parent / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    run_fresh(section.split("```python\n", 1)[1].split("```", 1)[0])


@pytest.mark.parametrize("module", ["metagrid.cli", "metagrid.simulator"])
def test_importing_metagrid_loads_the_highs_binding_alone(module):
    """The binding is loaded from its file under its own name, and a later
    import of it, or of ``scipy.optimize``, reuses that module."""
    run_fresh(f"""
        import sys
        import {module}
        from metagrid import relaxed
        name = "scipy.optimize._highspy._core"
        assert relaxed._core is sys.modules[name]
        for loaded in ("scipy.optimize", "scipy.sparse"):
            assert loaded not in sys.modules, loaded
        from scipy.optimize._highspy import _core
        assert _core is relaxed._core
        import scipy.optimize
        res = scipy.optimize.linprog([1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[3.0], method="highs")
        assert res.status == 0 and res.x.tolist() == [3.0, 0.0], res
    """)


def test_a_binding_scipy_already_loaded_is_reused():
    """No file is looked for: ``find_spec`` would fail the import."""
    run_fresh("""
        import importlib.util
        from scipy.optimize._highspy import _core

        def fail(name, *args, **kwargs):
            raise AssertionError(f"looked for {name}")

        importlib.util.find_spec = fail
        from metagrid import relaxed
        assert relaxed._core is _core
    """)


def test_a_failed_file_load_falls_back_to_the_regular_import():
    run_fresh("""
        import importlib.util
        import sys

        def fail(name, *args, **kwargs):
            raise ImportError(name)

        importlib.util.find_spec = fail
        from metagrid import relaxed
        assert "scipy.optimize" in sys.modules
        assert relaxed._core is sys.modules["scipy.optimize._highspy._core"]
        assert relaxed._core.HighsLp
    """)


@pytest.mark.parametrize("block", [
    # neither the file nor the regular import finds the binding
    "importlib.util.find_spec = fail; sys.modules['scipy.optimize'] = None",
    # the binding's own import is blocked
    "sys.modules['scipy.optimize._highspy._core'] = None",
], ids=["no-file-no-import", "blocked"])
def test_without_the_binding_importing_relaxed_names_the_scipy_floor(block):
    run_fresh(f"""
        import importlib.util
        import sys

        def fail(name, *args, **kwargs):
            raise ImportError(name)

        {block}
        try:
            import metagrid.relaxed
        except ImportError as exc:
            assert "scipy>=1.15" in str(exc), exc
        else:
            raise AssertionError("imported without the HiGHS binding")
    """)
