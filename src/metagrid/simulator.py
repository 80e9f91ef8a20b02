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

Time is integer milliseconds throughout: boundaries fall at exact
multiples of the interval, execution times are truncated to whole
milliseconds, and all event ordering is deterministic — events at the same
timestamp sort by kind (complete, release, miss, schedule) and then job
id, which is the order this module emits them in.
"""

from __future__ import annotations

import heapq
import json
import logging
import time as _time
from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass, replace

import numpy as np

from .ga import GaParams, hga, lpga, relax_and_consolidate
from .greedy import greedy_schedule
from .model import JobRequest, ResourceInfo, build_schedule, pair_table, whole_jobs
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
        return build_schedule(table, whole_jobs(table, [table.parking] * len(table.jobs))), 0
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

    resources = list(grid) if grid is not None else generate_grid(config)
    jobs = list(jobs) if jobs is not None else generate_jobs(config)

    interval_ms = max(1, int(round(config.interval_s * 1000)))
    submit_ms = {j.job_id: int(round(j.submit_time_s * 1000)) for j in jobs}
    deadline_ms = {j.job_id: int(round(j.deadline_s * 1000)) for j in jobs}

    def emit(event: SimEvent) -> None:
        if event_sink is not None:
            event_sink(event)

    releases = sorted(jobs, key=lambda j: (submit_ms[j.job_id], j.job_id))
    release_i = 0
    pending: list[JobRequest] = []
    free = {r.resource_id: r.free_pes for r in resources}
    snapshot = resources  # the grid as last presented; copies only what changed
    running: list[tuple[int, int, str, str, int]] = []  # (end, seq, rid, jid, pes)
    seq = 0
    fragments_left: dict[str, int] = {}

    completed: set[str] = set()
    missed: set[str] = set()
    total_cost = 0.0
    ga_iterations = 0
    sched_time = 0.0
    period = 0
    rollovers: list[int] = []

    def sweep_completions(now: int | None) -> None:
        while running and (now is None or running[0][0] <= now):
            end, _, rid, jid, pes = heapq.heappop(running)
            free[rid] += pes
            fragments_left[jid] -= 1
            if fragments_left[jid] == 0:
                completed.add(jid)
                emit(SimEvent(end, "complete", jid, rid))

    while release_i < len(releases) or pending:
        now = period * interval_ms
        sweep_completions(now)

        while release_i < len(releases) and submit_ms[releases[release_i].job_id] <= now:
            job = releases[release_i]
            release_i += 1
            pending.append(job)
            emit(SimEvent(submit_ms[job.job_id], "release", job.job_id))

        still: list[JobRequest] = []
        for job in sorted(pending, key=lambda j: j.job_id):
            remaining = submit_ms[job.job_id] + deadline_ms[job.job_id] - now
            if remaining <= 0:
                missed.add(job.job_id)
                emit(SimEvent(now, "miss", job.job_id))
            else:
                still.append(job)
        pending = still

        if pending:
            snapshot = [
                r if r.free_pes == free[r.resource_id]
                else r.with_free_pes(free[r.resource_id])
                for r in snapshot
            ]
            presented = [
                j.with_deadline((submit_ms[j.job_id] + deadline_ms[j.job_id] - now) / 1000.0)
                for j in pending
            ]
            seed = config.rng_seed * GA_PERIOD_SEED_STRIDE + period
            t0 = _time.perf_counter()
            schedule, iters = adapter(presented, snapshot, base_params, seed)
            sched_time += _time.perf_counter() - t0
            ga_iterations += iters

            # place the real fragments row-major; carry every job with none
            table = schedule.table
            unknown = {j.job_id for j in table.jobs} - {j.job_id for j in pending}
            assert not unknown, f"schedule mentions unknown jobs: {unknown}"
            real = np.where(table.dummy, 0, schedule.placed)
            # flatnonzero + divmod: np.nonzero of a 2-D array is several times slower
            ji, ki = np.divmod(np.flatnonzero(real), real.shape[1])
            for j, k, pes, exec_s, rate in zip(
                ji.tolist(), ki.tolist(), real[ji, ki].tolist(),
                table.exec_s[ji, ki].tolist(), table.rate[ki].tolist(),
            ):
                jid, rid = table.jobs[j].job_id, table.resources[k].resource_id
                end = now + int(exec_s * 1000)
                assert end <= submit_ms[jid] + deadline_ms[jid], (
                    f"{scheduler} placed {jid} on {rid} past its deadline"
                )
                assert free[rid] >= pes, f"{scheduler} overcommitted {rid}"
                free[rid] -= pes
                fragments_left[jid] = fragments_left.get(jid, 0) + 1
                seq += 1
                heapq.heappush(running, (end, seq, rid, jid, pes))
                total_cost += rate * pes * exec_s
                emit(SimEvent(now, "schedule", jid, rid, detail=f"pes={pes}"))
            carried = [job for job in pending if job.job_id not in fragments_left]
            if carried:
                logger.debug(
                    "t=%.3fs: %d job(s) carried to the next period", now / 1000.0, len(carried)
                )
            pending = carried
        rollovers.append(len(pending))
        period += 1

    sweep_completions(None)

    done_tasks = sum(j.pe_count for j in jobs if j.job_id in completed)
    missed_tasks = sum(j.pe_count for j in jobs if j.job_id in missed)
    assert len(completed) + len(missed) == len(jobs), "job conservation violated"
    assert not running and not pending, "simulation ended with work in flight"

    return ScenarioMetrics(
        scheduler=scheduler,
        jobs_submitted=len(jobs),
        jobs_completed=len(completed),
        jobs_missed=len(missed),
        tasks_submitted=sum(j.pe_count for j in jobs),
        tasks_completed=done_tasks,
        tasks_missed=missed_tasks,
        total_cost_gd=total_cost,
        ga_iterations=ga_iterations,
        periods=period,
        rollovers_per_period=tuple(rollovers),
        wall_time_s=sched_time,
    )
