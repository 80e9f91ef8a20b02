"""Benchmark of the metagrid scheduling workbench.

    python3 perfbench/run.py --workload paper-200 --seed 0 --seconds 50 --trace 0

One run measures one workload in this process.  Set-up (imports, workload
generation from ``--seed`` and one small warm-up cell) is timed first and
repeated in ``SETUP_PROBES`` child processes, so ``setup_s`` is a median.
A sweep then runs every cell of the workload once: a cell is one
``simulator.run_scenario`` call for one scheduler on one generated
scenario.  Each cell's wall time is also scaled by a reference loop timed
around it (see ``reference_loop_s``), and the timing metrics use the
scaled times.  With ``--trace 0`` sweeps repeat while another fits into
``--seconds`` and the end-to-end metrics are printed.  With ``--trace 1``
the first half of the scenarios run once untraced and once traced; the
spans of the traced sweep give the per-layer metrics (see ``tracing.py``)
and the difference between the two sweep times is the tracing overhead.

Every schedule an adapter returns is checked with ``model.validate``
after the cell's clock stops, each cell's outputs are checked for
conservation, and each cell's fingerprint (cost, completions, GA
iterations, periods) must repeat exactly in every sweep.  A cell failing
any check counts as failed; the run then exits with code 1.  The last
line of standard output is one JSON object with the counts and metrics.
Without ``--workload`` both passes of every workload run, each in a
fresh process.
"""

from __future__ import annotations

import time

SETUP_START = time.perf_counter()  # imports below count toward set-up

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from tracing import SPAN_NAMES, Tracer, accounting_errors, instrument

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

SCHEDULERS = ("greedy", "mmc", "relaxed-mgn", "lpga", "hga")
SEED_STRIDE = 1000  # scenario seeds of --seed n are n*1000, n*1000+1, ...
SETUP_PROBES = 2
WARM_UP = dict(resource_count=25, job_count=10, scheduler="lpga")


@dataclass(frozen=True)
class Workload:
    resources: int
    jobs: int
    deadline: str
    scenarios: int  # generated scenarios per run; every scheduler runs on each
    # Further scenarios run by hga alone, for its time only.  An hga cell's
    # time follows its GA iteration count, which spreads from 60 to 300
    # across paper-200 scenarios, so its median needs more of them.
    hga_scenarios: int = 0


WORKLOADS = {
    "paper-200": Workload(
        resources=200, jobs=50, deadline="medium", scenarios=14, hga_scenarios=14
    ),
    "backlog-200job": Workload(resources=50, jobs=200, deadline="medium", scenarios=5),
    "grid-800": Workload(resources=800, jobs=50, deadline="tight", scenarios=4),
}


@dataclass
class Cell:
    index: int
    scheduler: str
    config: object  # metagrid.workload.ScenarioConfig
    grid: list
    jobs: list
    fingerprint: tuple | None = None
    wall_times: list = field(default_factory=list)
    times: list = field(default_factory=list)  # wall times scaled by the reference loop
    scale: float = 1.0  # the factor of the latest run
    metrics: object = None  # the first ScenarioMetrics
    problems: list = field(default_factory=list)
    timing_only: bool = False  # left out of the cost and completion metrics


class ProgramMissing(RuntimeError):
    """The metagrid sources are not under ``src/`` next to the benchmark."""


def load_program():
    """Import the package from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "metagrid" / "__init__.py").is_file():
        raise ProgramMissing(f"no metagrid package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import metagrid
    from metagrid import ga, model, simulator, workload

    if Path(metagrid.__file__).resolve().parent != (src / "metagrid").resolve():
        raise ProgramMissing(f"metagrid imported from {metagrid.__file__}, not {src}")
    return metagrid, ga, model, simulator, workload


def ga_params(ga):
    # the acceptance corpus's GA settings
    return ga.GaParams(population_size=30, convergence_window=25, max_iterations=300)


def make_cells(workload_mod, spec: Workload, seed: int) -> list[Cell]:
    cells = []
    for i in range(spec.scenarios + spec.hga_scenarios):
        config = workload_mod.ScenarioConfig(
            resource_count=spec.resources,
            job_count=spec.jobs,
            deadline_mode=spec.deadline,
            rng_seed=seed * SEED_STRIDE + i,
        )
        grid, jobs = workload_mod.generate_grid(config), workload_mod.generate_jobs(config)
        extra = i >= spec.scenarios
        for name in ("hga",) if extra else SCHEDULERS:
            cells.append(Cell(len(cells), name, config, grid, jobs, timing_only=extra))
    return cells


def set_up(spec: Workload, seed: int):
    """Import, generate the workload, run the warm-up cell; the clock runs
    from the top of this file."""
    program = load_program()
    _, ga, _, simulator, workload_mod = program
    t0 = time.perf_counter()
    cells = make_cells(workload_mod, spec, seed)
    generate_s = time.perf_counter() - t0
    warm = workload_mod.ScenarioConfig(
        resource_count=WARM_UP["resource_count"],
        job_count=WARM_UP["job_count"],
        deadline_mode=spec.deadline,
        rng_seed=seed * SEED_STRIDE,
    )
    simulator.run_scenario(warm, WARM_UP["scheduler"], ga_params=ga_params(ga))
    return program, cells, generate_s, time.perf_counter() - SETUP_START


def fingerprint(metrics) -> tuple:
    return (
        repr(metrics.total_cost_gd),
        metrics.jobs_completed,
        metrics.tasks_completed,
        metrics.ga_iterations,
        metrics.periods,
    )


def output_problems(cell: Cell, metrics, captured, model) -> list[str]:
    """Check one cell's outputs: every returned schedule against ``validate``
    and the cell's totals against conservation."""
    problems = []
    mode = model.JobKind.MGN if cell.scheduler == "relaxed-mgn" else model.JobKind.SGN
    placed_cost = 0.0
    for presented, snapshot, schedule in captured:
        pool, _ = model.ensure_dummy(presented, snapshot)
        for v in model.validate(schedule.assignments, presented, pool, mode):
            problems.append(f"validate: {v.kind.value}: {v.detail}")
        placed_cost += schedule.total_cost_gd
    m = metrics
    if m.jobs_completed + m.jobs_missed != m.jobs_submitted or m.jobs_submitted != len(cell.jobs):
        problems.append("job conservation violated")
    if m.tasks_completed + m.tasks_missed != m.tasks_submitted:
        problems.append("task conservation violated")
    if not captured:
        problems.append("the scheduler was never called")
    if not math.isfinite(m.total_cost_gd) or m.total_cost_gd < 0:
        problems.append(f"total cost {m.total_cost_gd!r} is not a finite nonnegative number")
    elif not math.isclose(placed_cost, m.total_cost_gd, rel_tol=1e-9, abs_tol=1e-6):
        problems.append(
            f"simulated cost {m.total_cost_gd!r} differs from the schedules' {placed_cost!r}"
        )
    return problems


REFERENCE_S = 0.01


def reference_loop_s() -> float:
    """Wall time of a fixed stdlib-only loop that no change to the program
    can speed up or slow down.

    On a shared 2-core machine the speed of each core switches between two
    states about 1.5x apart, every few seconds, so raw cell times of one
    seed differ by up to 25 % between runs.  Each cell's time is therefore
    scaled by REFERENCE_S over the mean of the loop's time just before and
    just after the cell: it reads as seconds on a machine that runs this
    loop in exactly REFERENCE_S.
    """
    t0 = time.perf_counter()
    table: dict[int, float] = {}
    for i in range(40000):
        table[i % 977] = table.get(i % 977, 0.0) + i * 1.5
    sorted(table.values())
    return time.perf_counter() - t0


class Harness:
    """Runs cells; wraps each ``simulator.SCHEDULERS`` adapter so that the
    schedules it returns are kept for checking (and, while a tracer is set,
    so that each adapter call is a span)."""

    def __init__(self, program) -> None:
        _, self.ga, self.model, self.simulator, _ = program
        self.params = ga_params(self.ga)
        self.tracer: Tracer | None = None
        self.captured: list = []
        self._originals = dict(self.simulator.SCHEDULERS)
        for name, adapter in self._originals.items():
            self.simulator.SCHEDULERS[name] = self._capturing(adapter)

    def close(self) -> None:
        self.simulator.SCHEDULERS.update(self._originals)

    def _capturing(self, adapter):
        def wrapped(jobs, resources, config, params):
            tracer = self.tracer
            if tracer is None:
                out = adapter(jobs, resources, config, params)
            else:
                index = tracer.open("simulator.adapter")
                try:
                    out = adapter(jobs, resources, config, params)
                finally:
                    tracer.close(index)
            self.captured.append((jobs, resources, out[0]))
            return out

        return wrapped

    def run_cell(self, cell: Cell) -> float:
        """Run one cell, record its time and fingerprint, check its outputs.
        Returns the cell's wall time."""
        self.captured = []
        tracer = self.tracer
        metrics = error = None
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.cell = cell.index
            root = tracer.open("simulator.run_scenario")
        try:
            metrics = self.simulator.run_scenario(
                cell.config, cell.scheduler, ga_params=self.params,
                grid=cell.grid, jobs=cell.jobs,
            )
        except Exception as exc:  # a failed cell is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.close(root)
        elapsed = time.perf_counter() - t0
        cell.wall_times.append(elapsed)
        if error is not None:
            cell.problems.append(error)
            return elapsed
        if tracer is not None:
            tracer.count("simulator.periods", metrics.periods)
            tracer.count("simulator.rollovers", sum(metrics.rollovers_per_period))
        try:
            problems = output_problems(cell, metrics, self.captured, self.model)
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        cell.problems.extend(problems)
        got = fingerprint(metrics)
        if cell.fingerprint is None:
            cell.fingerprint, cell.metrics = got, metrics
        elif got != cell.fingerprint:
            cell.problems.append(f"fingerprint {got} differs from {cell.fingerprint}")
        return elapsed

    def sweep(self, cells: list[Cell]) -> tuple[float, float]:
        """Run every cell once, timing the reference loop before the first
        cell and after each one.  Returns the summed wall and scaled times."""
        wall = scaled = 0.0
        before = reference_loop_s()
        for cell in cells:
            elapsed = self.run_cell(cell)
            after = reference_loop_s()
            cell.scale = REFERENCE_S / ((before + after) / 2)
            cell.times.append(elapsed * cell.scale)
            wall += elapsed
            scaled += cell.times[-1]
            before = after
        return wall, scaled


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest percentile (at or above the median) with at least ten
    samples beyond it, or None when there are too few samples."""
    n = len(samples)
    if n < 20:
        return None
    k = n - 10  # 1-based order statistic with exactly ten samples above it
    return math.floor(100 * k / n), sorted(samples)[k - 1]


def end_to_end(cells, sweeps, setups) -> tuple[dict, list[str]]:
    """``sweeps`` holds (wall, scaled) totals; the timing metrics use the
    scaled times and the notes give the wall times beside them."""
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "sweep_s": (statistics.median(scaled for _, scaled in sweeps), "s"),
    }
    notes = [
        f"setup_s: median of {len(setups)} set-ups (wall time)",
        f"sweep_s: median of {len(sweeps)} sweeps of {len(cells)} cells; "
        f"wall {statistics.median(wall for wall, _ in sweeps):.3f} s",
    ]
    for name in SCHEDULERS:
        mine = [c for c in cells if c.scheduler == name]
        samples = [t for c in mine for t in c.times]
        metrics[f"scenario_s.{name}"] = (statistics.median(samples), "s")
        tail = tail_percentile(samples)
        tail_text = f", p{tail[0]} {tail[1]:.6f} s" if tail else ", too few for a tail percentile"
        wall = statistics.median(t for c in mine for t in c.wall_times)
        notes.append(f"scenario_s.{name}: median of {len(samples)} cell runs{tail_text}; "
                     f"wall {wall:.6f} s")
    for name in SCHEDULERS:
        done = [c.metrics for c in cells
                if c.scheduler == name and c.metrics and not c.timing_only]
        tasks = sum(m.tasks_completed for m in done)
        cost = sum(m.total_cost_gd for m in done)
        metrics[f"cost_per_task_gd.{name}"] = (cost / max(tasks, 1), "GD/task")
    done = [c.metrics for c in cells if c.metrics and not c.timing_only]
    submitted = sum(m.tasks_submitted for m in done)
    metrics["tasks_done_frac"] = (
        sum(m.tasks_completed for m in done) / submitted if submitted else 0.0, "ratio"
    )
    # ru_maxrss is in KiB on Linux
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics, notes


def per_layer(tracer: Tracer, scale: dict, generate_s: float, overhead_s: float) -> dict:
    """Layer metrics of one traced sweep; span times are scaled per cell
    like the end-to-end times (``scale`` maps cell index to factor)."""
    self_s = tracer.self_times(scale)
    inclusive = tracer.inclusive_times(scale)
    calls = tracer.calls()
    counts = tracer.counts

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "workload.generate_s": (generate_s, "s"),
        "simulator.self_s": (self_s["simulator.run_scenario"], "s"),
        "simulator.adapter_self_s": (self_s["simulator.adapter"], "s"),
        "simulator.periods": (counts["simulator.periods"], "count"),
        "simulator.rollovers": (counts["simulator.rollovers"], "count"),
        "simulator.adapter_calls": (calls["simulator.adapter"], "count"),
        "relaxed.build_s": (self_s["relaxed.build"], "s"),
        "relaxed.assemble_s": (self_s["relaxed.assemble"], "s"),
        "relaxed.highs_s": (self_s["relaxed.highs"], "s"),
        "relaxed.solve_self_s": (self_s["relaxed.solve"], "s"),
        "relaxed.solves": (calls["relaxed.solve"], "count"),
        "relaxed.highs_calls": (calls["relaxed.highs"], "count"),
        "relaxed.force_dummy_builds": (counts["relaxed.force_dummy_builds"], "count"),
        "relaxed.vars": (counts["relaxed.vars"], "count"),
        "relaxed.rows": (counts["relaxed.rows"], "count"),
        "relaxed.vars_used_frac": (
            ratio(counts["relaxed.highs_vars_used"], counts["relaxed.highs_vars"]), "ratio"
        ),
        "relaxed.highs_nodes": (counts["relaxed.highs_nodes"], "count"),
        "mmc.consolidate_s": (self_s["mmc.consolidate"], "s"),
        "mmc.steps": (counts["mmc.steps"], "count"),
        "mmc.displacements": (counts["mmc.displacements"], "count"),
        "mmc.parked": (counts["mmc.parked"], "count"),
        "greedy.schedule_s": (self_s["greedy.schedule"], "s"),
        "greedy.calls": (calls["greedy.schedule"], "count"),
        "ga.run_s": (self_s["ga.run"], "s"),
        "ga.runs": (calls["ga.run"], "count"),
        "ga.iterations": (counts["ga.iterations"], "count"),
        "ga.iter_ms": (1000 * ratio(inclusive["ga.run"], counts["ga.iterations"]), "ms"),
        "ga.mutate_s": (self_s["ga.mutate"], "s"),
        "ga.decode_s": (self_s["ga.decode"], "s"),
        "ga.improved_frac": (ratio(counts["ga.improved"], calls["ga.run"]), "ratio"),
        "model.build_schedule_s": (self_s["model.build_schedule"], "s"),
        "model.build_schedule_calls": (calls["model.build_schedule"], "count"),
        "trace.overhead_s": (overhead_s, "s"),
    }


def trace_problems(tracer: Tracer) -> list[str]:
    """Every declared span must fire (every workload runs every layer), and
    each cell's self times must account for its run_scenario span."""
    calls = tracer.calls()
    problems = [f"span {name} never fired" for name in SPAN_NAMES if not calls[name]]
    for cell, spans in sorted(tracer.by_cell().items()):
        problems.extend(f"cell {cell}: {p}" for p in accounting_errors(spans, tracer.spans))
    return problems


def span_summary(tracer: Tracer) -> dict:
    out: dict = {}
    for span in tracer.spans:
        entry = out.setdefault(str(span.cell), {}).setdefault(
            span.name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0}
        )
        entry["calls"] += 1
        entry["inclusive_s"] += span.duration
        entry["self_s"] += span.self_s
    return out


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def probe_setups(args) -> list[float]:
    """Set-up times of fresh processes (imports are paid once per process)."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def run_workload(args) -> int:
    spec = WORKLOADS[args.workload]
    program, cells, generate_s, setup_s = set_up(spec, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    harness = Harness(program)
    info = machine()
    print(f"workload {args.workload} seed {args.seed}: {spec.scenarios} scenarios x "
          f"{len(SCHEDULERS)} schedulers + {spec.hga_scenarios} hga-only scenarios, "
          f"{spec.resources} resources x {spec.jobs} jobs, {spec.deadline} deadlines")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    problems: list[str] = []
    spans = None
    try:
        if args.trace:
            # both passes on the first half of the scenarios, so that the
            # two fit into about the time of one full sweep
            cells = cells[: len(SCHEDULERS) * math.ceil(spec.scenarios / 2)]
            untraced = harness.sweep(cells)
            tracer = Tracer()
            undo = instrument(tracer)
            harness.tracer = tracer
            try:
                traced = harness.sweep(cells)
            finally:
                undo()
                harness.tracer = None
            scale = {c.index: c.scale for c in cells}
            metrics = per_layer(tracer, scale, generate_s, traced[1] - untraced[1])
            notes = [f"trace: {len(cells)} cells, {len(tracer.spans)} spans; wall "
                     f"{untraced[0]:.3f} s untraced, {traced[0]:.3f} s traced; scaled "
                     f"{untraced[1]:.3f} s untraced, {traced[1]:.3f} s traced"]
            problems.extend(trace_problems(tracer))
            spans = span_summary(tracer)
        else:
            setups = [setup_s] + probe_setups(args)
            start = time.perf_counter()
            sweeps = [harness.sweep(cells)]
            # another sweep only if one more of the same length still fits
            while (time.perf_counter() - start) * (len(sweeps) + 1) / len(sweeps) <= args.seconds:
                sweeps.append(harness.sweep(cells))
            metrics, notes = end_to_end(cells, sweeps, setups)
    finally:
        harness.close()

    failed = [c for c in cells if c.problems]
    for cell in failed:
        problems.extend(f"cell {cell.index} ({cell.scheduler}, scenario seed "
                        f"{cell.config.rng_seed}): {p}" for p in cell.problems)
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name:30s} {value:.6f} {unit}")
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)

    result = {
        "correct": not problems,
        "attempted": sum(len(c.wall_times) for c in cells),
        "failed": sum(len(c.wall_times) for c in failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": info, "result": result, "problems": problems,
        "cells": [
            {"scheduler": c.scheduler, "scenario_seed": c.config.rng_seed,
             "fingerprint": c.fingerprint, "wall_s": c.wall_times, "scaled_s": c.times}
            for c in cells
        ],
        "spans_by_cell": spans,
    }
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Both passes of every workload, each in a fresh process, so that
    set-up time and peak memory belong to one workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 and not lines:
                return proc.returncode or 1
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload; both passes of every workload when omitted")
    parser.add_argument("--seed", type=int, default=0, help="workload base seed")
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="time budget for the timed sweeps")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced pass with per-layer metrics")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run_workload(args) if args.workload else run_all(args)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
