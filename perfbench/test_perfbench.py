"""Self-test of the benchmark harness: span arithmetic, failure counting and
a full run of each pass on a tiny workload.

    python3 -m pytest -q perfbench
"""

import json
import subprocess

import pytest

import run
import tracing
from tracing import Tracer, accounting_errors


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def nested_tracer() -> Tracer:
    # root [0, 10] > a [1, 4] > leaf [2, 3]; root > b [5, 9]
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    tracer.cell = 0
    root = tracer.open("root")
    a = tracer.open("a")
    leaf = tracer.open("leaf")
    tracer.close(leaf)
    tracer.close(a)
    b = tracer.open("b")
    tracer.close(b)
    tracer.close(root)
    return tracer


def test_self_time_excludes_direct_children_only():
    tracer = nested_tracer()
    assert tracer.self_times() == {"root": 3, "a": 2, "leaf": 1, "b": 4}
    assert tracer.inclusive_times() == {"root": 10, "a": 3, "leaf": 1, "b": 4}
    assert accounting_errors(tracer.spans, tracer.spans) == []


def test_accounting_catches_broken_spans():
    tracer = nested_tracer()
    tracer.spans[1].child_s = 0.5  # a's children no longer add up
    assert "self times sum" in accounting_errors(tracer.spans, tracer.spans)[0]

    tracer = nested_tracer()
    tracer.spans[3].end = None
    assert accounting_errors(tracer.spans, tracer.spans) == ["span b never closed"]

    tracer = nested_tracer()
    tracer.spans[3].parent = -1
    assert "expected one root" in accounting_errors(tracer.spans, tracer.spans)[0]


def test_spans_must_close_in_order():
    tracer = Tracer()
    outer = tracer.open("outer")
    tracer.open("inner")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile([1.0] * 19) is None
    assert run.tail_percentile([float(i) for i in range(20)]) == (50, 9.0)
    assert run.tail_percentile([float(i) for i in range(100)]) == (90, 89.0)


TINY = run.Workload(resources=8, jobs=6, deadline="relaxed", scenarios=2, hga_scenarios=1)


@pytest.fixture
def harness_and_cells():
    program, cells, _, _ = run.set_up(TINY, seed=3)
    harness = run.Harness(program)
    try:
        yield program, harness, cells
    finally:
        harness.close()


def test_repeated_sweeps_pass_every_check(harness_and_cells):
    _, harness, cells = harness_and_cells
    harness.sweep(cells)
    harness.sweep(cells)
    assert all(c.problems == [] and len(c.times) == 2 for c in cells)
    assert {c.scheduler for c in cells} == set(run.SCHEDULERS)


def test_fingerprint_mismatch_fails_the_cell(harness_and_cells):
    _, harness, cells = harness_and_cells
    harness.run_cell(cells[0])
    cells[0].fingerprint = ("0.0", 0, 0, 0, 0)
    harness.run_cell(cells[0])
    assert any("fingerprint" in p for p in cells[0].problems)


def test_validate_violation_fails_the_cell(harness_and_cells, monkeypatch):
    program, harness, cells = harness_and_cells
    model = program[2]
    bogus = model.Violation(model.ViolationKind.BUDGET, None, "J0001", "over budget")
    monkeypatch.setattr(model, "validate", lambda *args, **kwargs: [bogus])
    harness.run_cell(cells[0])
    assert cells[0].problems and cells[0].problems[0].startswith("validate: budget")


def test_adapter_exception_fails_the_cell(monkeypatch):
    program, cells, _, _ = run.set_up(TINY, seed=3)
    simulator = program[3]

    def broken(jobs, resources, config, params):
        raise RuntimeError("solver exploded")

    monkeypatch.setitem(simulator.SCHEDULERS, "greedy", broken)
    harness = run.Harness(program)
    try:
        harness.run_cell(cells[0])
    finally:
        harness.close()
    assert cells[0].scheduler == "greedy"
    assert cells[0].problems == ["RuntimeError: solver exploded"]
    assert simulator.SCHEDULERS["greedy"] is broken


def test_instrument_rebinds_every_importer_and_restores(harness_and_cells):
    program, harness, cells = harness_and_cells
    metagrid = program[0]
    originals = {
        name: getattr(module, name)
        for module, name in ((metagrid.simulator, "build_relaxed"), (metagrid.ga, "build_relaxed"),
                             (metagrid.relaxed, "linprog"), (metagrid.mmc, "build_schedule"))
    }
    tracer = Tracer()
    undo = tracing.instrument(tracer)
    try:
        assert metagrid.simulator.build_relaxed is not originals["build_relaxed"]
        assert metagrid.ga.build_relaxed is metagrid.simulator.build_relaxed
        harness.tracer = tracer
        harness.sweep(cells)
    finally:
        undo()
        harness.tracer = None
    assert metagrid.simulator.build_relaxed is originals["build_relaxed"]
    assert metagrid.ga.build_relaxed is originals["build_relaxed"]
    assert metagrid.relaxed.linprog is originals["linprog"]
    assert run.trace_problems(tracer) == []
    assert all(c.problems == [] for c in cells)


@pytest.mark.parametrize("trace", [0, 1])
def test_one_run_prints_the_result_line(trace, monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(run, "SETUP_PROBES", 0)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    code = run.main(["--workload", "tiny", "--seed", "1", "--seconds", "0", "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in declared[kind]]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in declared[kind])
    assert (tmp_path / f"tiny-seed1-trace{trace}.json").is_file()


def test_all_workloads_combine_both_passes(monkeypatch, capsys):
    calls = []

    def fake_run(command, **kwargs):
        workload, trace = command[command.index("--workload") + 1], command[-1]
        calls.append((workload, trace))
        result = {"correct": workload != "grid-800", "attempted": 2, "failed": 0,
                  "metrics": {f"m{trace}": {"value": 1.0, "unit": "s"}}}
        return subprocess.CompletedProcess(command, 0, stdout=json.dumps(result) + "\n", stderr="")

    monkeypatch.setattr(run.subprocess, "run", fake_run)
    assert run.main(["--seed", "4"]) == 1
    combined = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert calls == [(name, trace) for name in run.WORKLOADS for trace in ("0", "1")]
    assert combined["correct"] is False and combined["attempted"] == 2 * len(calls)
    assert set(combined["metrics"]) == {f"{n}/m{t}" for n in run.WORKLOADS for t in (0, 1)}
