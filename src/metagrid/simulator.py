"""Periodic-scheduling simulator.

Jobs arrive over time; every ``interval_s`` the chosen scheduler is handed
the queue of released-but-unplaced jobs and a snapshot of currently free
PEs.  Each queued job is presented with its *remaining* deadline
(submission time plus deadline minus now), so waiting erodes slack and a
tight job can become unplaceable while it queues.  Presented jobs and
changed resources are copies that check only the new deadline or free-PE
count (``with_deadline``, ``with_free_pes``).  A returned ``Schedule``'s
real fragments are placed row-major over its table (job id, then resource
id) at the table's runtimes and rates, and every job with none, parked or
left out, stays queued.  Placements run to completion and release their
PEs; jobs whose remaining deadline hits zero are recorded as missed.

A job is a row (the scenario's jobs sorted by id) and a resource a column
(the grid in its given order): release and due times, free PEs, running
fragments, outcomes and the queue are lists over them.  One id-to-row and
one id-to-column map, built once, map a returned table back onto them.

Time is integer milliseconds throughout: boundaries fall at exact
multiples of the interval, execution times are truncated to whole
milliseconds, and all event ordering is deterministic — events at the same
timestamp sort by kind (complete, release, miss, schedule) and then job
id, which is the order this module emits them in.
"""

from __future__ import annotations

import bisect
import heapq
import json
import logging
import time as _time
from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass, replace

import numpy as np

from .ga import GaParams, hga, lpga, relax_and_consolidate
from .greedy import greedy_schedule
from .model import JobRequest, ResourceInfo, build_schedule, pair_table, positions, whole_jobs
from .relaxed import build_relaxed, solve_relaxed
from .workload import ScenarioConfig, generate_grid, generate_jobs

logger = logging.getLogger(__name__)

GA_PERIOD_SEED_STRIDE = 1_000_003


class UnknownSchedulerError(ValueError):
    """Raised when a scheduler name is not in the registry."""


@dataclass(frozen=True)
class SimEvent:
    time_ms: int
    kind: str  # "complete" | "release" | "miss" | "schedule"
    job_id: str
    resource_id: str | None = None
    detail: str = ""


@dataclass(frozen=True)
class ScenarioMetrics:
    scheduler: str
    jobs_submitted: int
    jobs_completed: int
    jobs_missed: int
    tasks_submitted: int
    tasks_completed: int
    tasks_missed: int
    total_cost_gd: float
    ga_iterations: int
    periods: int
    rollovers_per_period: tuple[int, ...]
    wall_time_s: float  # time spent inside the scheduler itself


def jsonl_sink(stream) -> Callable[[SimEvent], None]:
    """Event sink writing one JSON object per event line to ``stream``."""

    def sink(event: SimEvent) -> None:
        stream.write(json.dumps(asdict(event), sort_keys=True) + "\n")

    return sink


# Every adapter takes (jobs, resources, ga_params, rng_seed), builds the
# batch's one PairTable, which every stage of its scheduler reads, and
# returns (schedule, GA iterations); the GA adapters run with the period's
# seed.


def _run_greedy(jobs, resources, params, seed):
    return greedy_schedule(pair_table(jobs, resources)), 0


def _run_mmc(jobs, resources, params, seed):
    return relax_and_consolidate(pair_table(jobs, resources)), 0


def _run_relaxed_mgn(jobs, resources, params, seed):
    # a job whose admissible real free PEs fall short of its PE count keeps
    # a dummy share in every answer of the relaxation, and is parked whole
    table = pair_table(jobs, resources)
    if not ((table.admissible & ~table.dummy) @ table.free >= table.pes).any():
        logger.debug("no job's admissible free PEs cover it: %d job(s) parked", len(table.jobs))
        return build_schedule(table, whole_jobs(table, table.parking)), 0
    return build_schedule(table, solve_relaxed(build_relaxed(table))), 0


def _run_lpga(jobs, resources, params, seed):
    schedule, result = lpga(pair_table(jobs, resources), replace(params, rng_seed=seed))
    return schedule, result.iterations_used


def _run_hga(jobs, resources, params, seed):
    schedule, result = hga(pair_table(jobs, resources), replace(params, rng_seed=seed))
    return schedule, result.iterations_used


# `metagrid run` runs them in this order by default
SCHEDULERS: dict[str, Callable] = {
    "greedy": _run_greedy,
    "mmc": _run_mmc,
    "relaxed-mgn": _run_relaxed_mgn,
    "hga": _run_hga,
    "lpga": _run_lpga,
}


def list_schedulers() -> list[str]:
    return sorted(SCHEDULERS)


def run_scenario(
    config: ScenarioConfig,
    scheduler: str,
    ga_params: GaParams | None = None,
    event_sink: Callable[[SimEvent], None] | None = None,
    grid: Sequence[ResourceInfo] | None = None,
    jobs: Sequence[JobRequest] | None = None,
) -> ScenarioMetrics:
    """Simulate one scenario under one scheduler and return its metrics.

    ``grid`` and ``jobs`` default to the generated workload for ``config``;
    pass them explicitly to replay records held in memory instead.
    """
    if scheduler not in SCHEDULERS:
        raise UnknownSchedulerError(
            f"unknown scheduler {scheduler!r}; choose from {', '.join(list_schedulers())}"
        )
    adapter = SCHEDULERS[scheduler]
    base_params = ga_params if ga_params is not None else GaParams()
    emit = event_sink if event_sink is not None else lambda event: None

    resources = list(grid) if grid is not None else generate_grid(config)
    jobs = sorted(jobs if jobs is not None else generate_jobs(config), key=lambda j: j.job_id)
    row_of, col_of = positions(jobs, "job_id"), positions(resources, "resource_id")

    interval_ms = int(round(config.interval_s * 1000))
    submit = [int(round(j.submit_time_s * 1000)) for j in jobs]
    due = [s + int(round(j.deadline_s * 1000)) for s, j in zip(submit, jobs)]
    arrivals = sorted(range(len(jobs)), key=submit.__getitem__)  # stable: ties in id order
    released = 0
    pending: list[int] = []  # the queued rows, ascending
    free = [r.free_pes for r in resources]
    snapshot = resources  # the grid as last presented; copies only what changed
    running: list[tuple[int, int, int, int, int]] = []  # (end, seq, column, row, pes)
    fragments = [0] * len(jobs)  # running fragments per row
    outcome: list[str | None] = [None] * len(jobs)  # "complete" or "miss" per row
    seq, total_cost, ga_iterations, sched_time = 0, 0.0, 0, 0.0
    rollovers: list[int] = []

    def sweep_completions(now: int | None) -> None:
        while running and (now is None or running[0][0] <= now):
            end, _, col, row, pes = heapq.heappop(running)
            free[col] += pes
            fragments[row] -= 1
            if not fragments[row]:
                outcome[row] = "complete"
                emit(SimEvent(end, "complete", jobs[row].job_id, resources[col].resource_id))

    while released < len(arrivals) or pending:
        now = len(rollovers) * interval_ms
        sweep_completions(now)

        while released < len(arrivals) and submit[arrivals[released]] <= now:
            row = arrivals[released]
            released += 1
            bisect.insort(pending, row)
            emit(SimEvent(submit[row], "release", jobs[row].job_id))

        for row in pending:
            if due[row] <= now:
                outcome[row] = "miss"
                emit(SimEvent(now, "miss", jobs[row].job_id))
        pending = [row for row in pending if due[row] > now]

        if pending:
            snapshot = [
                r if r.free_pes == f else r.with_free_pes(f) for r, f in zip(snapshot, free)
            ]
            presented = [jobs[row].with_deadline((due[row] - now) / 1000.0) for row in pending]
            seed = config.rng_seed * GA_PERIOD_SEED_STRIDE + len(rollovers)
            t0 = _time.perf_counter()
            schedule, iters = adapter(presented, snapshot, base_params, seed)
            sched_time += _time.perf_counter() - t0
            ga_iterations += iters

            # a queued row is released and has neither an outcome nor a running fragment
            table = schedule.table
            rows = [row_of.get(j.job_id) for j in table.jobs]
            unknown = [j.job_id for j, row in zip(table.jobs, rows)
                       if row is None or submit[row] > now or outcome[row] or fragments[row]]
            assert not unknown, f"schedule mentions unknown jobs: {unknown}"
            # place the real fragments row-major; carry every row with none
            real = np.where(table.dummy, 0, schedule.placed)
            # flatnonzero + divmod: np.nonzero of a 2-D array is several times slower
            ji, ki = np.divmod(np.flatnonzero(real), real.shape[1])
            for j, k, pes, exec_s, rate in zip(
                ji.tolist(), ki.tolist(), real[ji, ki].tolist(),
                table.exec_s[ji, ki].tolist(), table.rate[ki].tolist(),
            ):
                jid, rid = table.jobs[j].job_id, table.resources[k].resource_id
                row, col = rows[j], col_of[rid]
                end = now + int(exec_s * 1000)
                assert end <= due[row], f"{scheduler} placed {jid} on {rid} past its deadline"
                assert free[col] >= pes, f"{scheduler} overcommitted {rid}"
                free[col] -= pes
                fragments[row] += 1
                seq += 1
                heapq.heappush(running, (end, seq, col, row, pes))
                total_cost += rate * pes * exec_s
                emit(SimEvent(now, "schedule", jid, rid, detail=f"pes={pes}"))
            pending = [row for row in pending if not fragments[row]]
            if pending:
                logger.debug(
                    "t=%.3fs: %d job(s) carried to the next period", now / 1000.0, len(pending)
                )
        rollovers.append(len(pending))

    sweep_completions(None)

    completed = [j.pe_count for j, o in zip(jobs, outcome) if o == "complete"]
    missed = [j.pe_count for j, o in zip(jobs, outcome) if o == "miss"]
    assert len(completed) + len(missed) == len(jobs), "job conservation violated"
    assert not running and not pending, "simulation ended with work in flight"

    return ScenarioMetrics(
        scheduler=scheduler,
        jobs_submitted=len(jobs),
        jobs_completed=len(completed),
        jobs_missed=len(missed),
        tasks_submitted=sum(j.pe_count for j in jobs),
        tasks_completed=sum(completed),
        tasks_missed=sum(missed),
        total_cost_gd=total_cost,
        ga_iterations=ga_iterations,
        periods=len(rollovers),
        rollovers_per_period=tuple(rollovers),
        wall_time_s=sched_time,
    )
