"""Greedy baseline: cheapest feasible resource per job, priority order."""

from __future__ import annotations

from conftest import S1_OPTIMAL_ALLOC, S1_OPTIMAL_COST, fuzz_instance, tiny_instance
from metagrid.greedy import greedy_schedule
from metagrid.model import (
    JobKind,
    JobRequest,
    ResourceInfo,
    ensure_dummy,
    pair_table,
    validate,
)
from oracles import brute_force_sgn, schedule_cost


def test_s1(s1_jobs, s1_resources):
    schedule = greedy_schedule(pair_table(s1_jobs, s1_resources))
    assert dict(schedule.assignments.entries) == S1_OPTIMAL_ALLOC
    assert schedule.total_cost_gd == S1_OPTIMAL_COST
    assert schedule.dummy_jobs == frozenset()


def test_empty_job_list():
    schedule = greedy_schedule(pair_table([], [ResourceInfo("R", 4, 1.0, 100.0)]))
    assert schedule.assignments.entries == {}
    assert schedule.total_cost_gd == 0.0


def test_capacity_decrement_forces_second_job_elsewhere():
    # both jobs want all four PEs of the cheap resource; the higher-priority
    # one gets them, the other pays for the expensive host
    jobs = [
        JobRequest("U", "J1", 1000.0, 50.0, (1000.0,) * 4, 4),  # qos 5.0
        JobRequest("U", "J2", 400.0, 50.0, (1000.0,) * 4, 4),   # qos 2.0
    ]
    resources = [
        ResourceInfo("Rcheap", 4, 1.0, 100.0),
        ResourceInfo("Rdear", 4, 2.0, 100.0),
    ]
    schedule = greedy_schedule(pair_table(jobs, resources))
    assert schedule.assignments.pes("Rcheap", "J1") == 4
    assert schedule.assignments.pes("Rdear", "J2") == 4
    assert schedule.total_cost_gd == 40.0 + 80.0


def test_unplaceable_job_parks_on_dummy():
    job = JobRequest("U", "J", 1000.0, 1.0, (1000.0,), 1)  # 10 s > 1 s
    schedule = greedy_schedule(pair_table([job], [ResourceInfo("R", 4, 1.0, 100.0)]))
    assert schedule.dummy_jobs == {"J"}
    assert schedule.total_cost_gd == 0.0


def test_fuzzed_output_is_always_sgn_feasible():
    for seed in range(250):
        jobs, resources = fuzz_instance(seed)
        schedule = greedy_schedule(pair_table(jobs, resources))
        pool, _ = ensure_dummy(jobs, resources)
        violations = validate(schedule.assignments, jobs, pool, JobKind.SGN)
        assert violations == [], f"instance seed {seed}: {violations}"


def test_never_beats_the_exhaustive_whole_job_optimum():
    compared = 0
    for seed in range(250):
        jobs, resources = tiny_instance(seed)
        schedule = greedy_schedule(pair_table(jobs, resources))
        if schedule.dummy_jobs:
            continue
        best = brute_force_sgn(jobs, resources)
        if best is None:
            continue
        assert (
            schedule_cost(best, jobs, resources)
            <= schedule.total_cost_gd + 1e-9
        ), f"instance seed {seed}"
        compared += 1
    assert compared > 50


def test_deterministic():
    jobs, resources = fuzz_instance(7)
    a = greedy_schedule(pair_table(jobs, resources))
    b = greedy_schedule(pair_table(jobs, resources))
    assert a.assignments.entries == b.assignments.entries
    assert a.total_cost_gd == b.total_cost_gd
