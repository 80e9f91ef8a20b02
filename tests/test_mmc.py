"""Consolidation of split relaxation solutions into whole-job schedules."""

from __future__ import annotations

from conftest import S1_OPTIMAL_ALLOC, S1_OPTIMAL_COST, fuzz_instance, tiny_instance
from metagrid.mmc import (
    InterchangeContext,
    JobMapping,
    MmcStats,
    interchange_capacity,
    mappings_from_allocation,
    modified_min_cost,
    schedule_dummy_jobs,
)
from metagrid.model import (
    DUMMY_ID,
    AllocationMatrix,
    JobKind,
    JobRequest,
    ResourceInfo,
    Schedule,
    build_schedule,
    ensure_dummy,
    validate,
)
from metagrid.relaxed import build_relaxed, solve_relaxed
from oracles import brute_force_sgn, relaxed_objective


def consolidate(jobs, resources, stats=None):
    """Full pipeline: relaxed solve then consolidation."""
    model = build_relaxed(jobs, resources)
    alloc = solve_relaxed(model)
    pool, _ = ensure_dummy(jobs, model.resources)
    return modified_min_cost(
        mappings_from_allocation(alloc), jobs, pool, stats=stats
    )


def test_mappings_group_and_sort():
    alloc = AllocationMatrix({("R2", "B"): 1, ("R1", "B"): 2, ("R1", "A"): 2})
    maps = mappings_from_allocation(alloc)
    assert [m.job_id for m in maps] == ["A", "B"]
    assert maps[0].provider_allocations == (("R1", 2),)
    assert maps[0].provider_count == 1
    assert maps[1].provider_allocations == (("R1", 2), ("R2", 1))
    assert maps[1].providers() == ["R1", "R2"]


def test_s1_single_provider_jobs_are_frozen(s1_jobs, s1_resources):
    schedule = consolidate(s1_jobs, s1_resources)
    assert dict(schedule.assignments.entries) == S1_OPTIMAL_ALLOC
    assert schedule.total_cost_gd == S1_OPTIMAL_COST
    assert schedule.dummy_jobs == frozenset()


def test_multi_provider_job_with_no_room_is_parked():
    # 3 tasks split 2+1 over two 2-PE resources: no single host fits it
    job = JobRequest("U", "C", 1e6, 100.0, (1000.0,) * 3, 3)
    resources = [
        ResourceInfo("R1", 2, 1.0, 100.0),
        ResourceInfo("R2", 2, 2.0, 100.0),
    ]
    pool, _ = ensure_dummy([job], resources)
    relaxed = [JobMapping("C", (("R1", 2), ("R2", 1)))]
    schedule = modified_min_cost(relaxed, [job], pool)
    assert schedule.dummy_jobs == {"C"}
    assert schedule.total_cost_gd == 0.0


def test_multi_provider_job_consolidates_onto_biggest_cheapest():
    # R1 holds more of the split and is cheaper: job lands whole on R1
    job = JobRequest("U", "D", 1e6, 100.0, (1000.0,) * 3, 3)
    resources = [
        ResourceInfo("R1", 4, 1.0, 100.0),
        ResourceInfo("R2", 4, 2.0, 100.0),
    ]
    pool, _ = ensure_dummy([job], resources)
    relaxed = [JobMapping("D", (("R1", 2), ("R2", 1)))]
    schedule = modified_min_cost(relaxed, [job], pool)
    assert schedule.assignments.pes("R1", "D") == 3
    assert schedule.dummy_jobs == frozenset()


def test_candidate_tie_breaks_on_placement_cost_not_rate():
    # equal relaxed shares: R1 has the lower rate, but R2 runs the job 4x
    # faster, so the whole job costs 7.5 there against 20 on R1
    job = JobRequest("U", "D", 1e6, 100.0, (1000.0,) * 2, 2)
    resources = [
        ResourceInfo("R1", 4, 1.0, 100.0),
        ResourceInfo("R2", 4, 1.5, 400.0),
    ]
    pool, _ = ensure_dummy([job], resources)
    relaxed = [JobMapping("D", (("R1", 1), ("R2", 1)))]
    schedule = modified_min_cost(relaxed, [job], pool)
    assert schedule.assignments.pes("R2", "D") == 2
    assert schedule.total_cost_gd == 7.5


def test_consolidation_respects_budget_not_just_capacity():
    # the bigger-allocation provider is too expensive for the whole job;
    # the smaller one is affordable and has the room
    job = JobRequest("U", "E", 25.0, 100.0, (1000.0,) * 3, 3)
    resources = [
        ResourceInfo("R1", 4, 2.0, 100.0),  # whole job: 60 > 25
        ResourceInfo("R2", 4, 0.5, 100.0),  # whole job: 15 <= 25
    ]
    pool, _ = ensure_dummy([job], resources)
    relaxed = [JobMapping("E", (("R1", 2), ("R2", 1)))]
    schedule = modified_min_cost(relaxed, [job], pool)
    assert schedule.assignments.pes("R2", "E") == 3


def test_interchange_no_other_jobs_is_vacuous(s1_jobs, s1_resources):
    ctx = InterchangeContext(
        jobs_by_id={j.job_id: j for j in s1_jobs},
        resources_by_id={r.resource_id: r for r in s1_resources},
        available={"R1": 4, "R2": 4},
        alternates=("R2",),
    )
    assert interchange_capacity("R1", [], ctx) == []


def test_interchange_moves_displaced_job_to_alternate():
    jobs = {
        "J1": JobRequest("U", "J1", 1e6, 100.0, (1000.0,) * 2, 2),
    }
    resources = {
        "R1": ResourceInfo("R1", 4, 1.0, 100.0),
        "R2": ResourceInfo("R2", 4, 2.0, 100.0),
        "R3": ResourceInfo("R3", 4, 3.0, 100.0),
    }
    ctx = InterchangeContext(
        jobs_by_id=jobs,
        resources_by_id=resources,
        available={"R1": 0, "R2": 4, "R3": 4},
        alternates=("R2", "R3"),  # the consumer's other relaxed providers
    )
    report = interchange_capacity("R1", [JobMapping("J1", (("R1", 2),))], ctx)
    assert report == [("J1", "R2")]  # cheapest feasible alternate wins
    assert ctx.available["R2"] == 2


def test_interchange_rehomes_on_cheapest_placement_not_rate():
    jobs = {"J1": JobRequest("U", "J1", 1e6, 100.0, (1000.0,) * 2, 2)}
    resources = {
        "R1": ResourceInfo("R1", 4, 1.0, 100.0),
        "R2": ResourceInfo("R2", 4, 1.0, 100.0),  # whole job: 20
        "R3": ResourceInfo("R3", 4, 2.0, 400.0),  # whole job: 10
    }
    ctx = InterchangeContext(
        jobs_by_id=jobs,
        resources_by_id=resources,
        available={"R1": 0, "R2": 4, "R3": 4},
        alternates=("R2", "R3"),
    )
    report = interchange_capacity("R1", [JobMapping("J1", (("R1", 2),))], ctx)
    assert report == [("J1", "R3")]
    assert ctx.available == {"R1": 0, "R2": 4, "R3": 2}


def test_interchange_parks_job_with_no_feasible_alternate():
    jobs = {"J1": JobRequest("U", "J1", 1e6, 5.0, (1000.0,) * 2, 2)}
    resources = {
        "R1": ResourceInfo("R1", 4, 1.0, 1000.0),
        "R2": ResourceInfo("R2", 4, 2.0, 100.0),  # 10 s > 5 s deadline
    }
    ctx = InterchangeContext(
        jobs_by_id=jobs,
        resources_by_id=resources,
        available={"R1": 0, "R2": 4},
        alternates=("R2",),
    )
    report = interchange_capacity("R1", [JobMapping("J1", (("R1", 2),))], ctx)
    assert report == [("J1", None)]


def test_interchange_visits_smallest_jobs_first():
    jobs = {
        "Jbig": JobRequest("U", "Jbig", 1e6, 100.0, (1000.0,) * 3, 3),
        "Jsmall": JobRequest("U", "Jsmall", 1e6, 100.0, (1000.0,) * 2, 2),
    }
    resources = {
        "R1": ResourceInfo("R1", 4, 1.0, 100.0),
        "R2": ResourceInfo("R2", 3, 2.0, 100.0),
    }
    # only 3 PEs on the alternate: the small job (visited first) gets them,
    # the big one fits no longer and parks
    ctx = InterchangeContext(
        jobs_by_id=jobs,
        resources_by_id=resources,
        available={"R1": 0, "R2": 3},
        alternates=("R2",),
    )
    displaced = [
        JobMapping("Jbig", (("R1", 3),)),
        JobMapping("Jsmall", (("R1", 2),)),
    ]
    report = interchange_capacity("R1", displaced, ctx)
    assert report == [("Jsmall", "R2"), ("Jbig", None)]


def test_schedule_dummy_jobs_identity_without_parked(s1_jobs, s1_resources):
    pool, _ = ensure_dummy(s1_jobs, s1_resources)
    schedule = build_schedule(
        AllocationMatrix(S1_OPTIMAL_ALLOC), s1_jobs, pool
    )
    assert schedule_dummy_jobs(schedule, s1_jobs, pool) is schedule


def test_schedule_dummy_jobs_rescues_when_room_exists(s1_jobs, s1_resources):
    pool, dummy_id = ensure_dummy(s1_jobs, s1_resources)
    alloc = AllocationMatrix({("R1", "A"): 2, (dummy_id, "B"): 3})
    parked = build_schedule(alloc, s1_jobs, pool)
    assert parked.dummy_jobs == {"B"}
    rescued = schedule_dummy_jobs(parked, s1_jobs, pool)
    assert rescued.dummy_jobs == frozenset()
    assert rescued.assignments.pes("R2", "B") == 3  # only deadline-valid host
    assert rescued.total_cost_gd == S1_OPTIMAL_COST


def test_schedule_dummy_jobs_rescues_onto_cheapest_placement_not_rate():
    job = JobRequest("U", "Z", 1e6, 100.0, (1000.0,) * 2, 2)
    resources = [
        ResourceInfo("R1", 4, 1.0, 100.0),  # whole job: 20
        ResourceInfo("R2", 4, 2.0, 400.0),  # whole job: 10
    ]
    pool, dummy_id = ensure_dummy([job], resources)
    parked = build_schedule(
        AllocationMatrix({(dummy_id, "Z"): 2}), [job], pool
    )
    rescued = schedule_dummy_jobs(parked, [job], pool)
    assert rescued.dummy_jobs == frozenset()
    assert rescued.assignments.pes("R2", "Z") == 2
    assert rescued.total_cost_gd == 10.0


def test_schedule_dummy_jobs_leaves_hopeless_jobs_parked(s1_resources):
    job = JobRequest("U", "Z", 1e6, 0.5, (1000.0,), 1)  # 0.5 s deadline
    pool, dummy_id = ensure_dummy([job], s1_resources)
    parked = build_schedule(
        AllocationMatrix({(dummy_id, "Z"): 1}), [job], pool
    )
    rescued = schedule_dummy_jobs(parked, [job], pool)
    assert rescued.dummy_jobs == {"Z"}


def test_schedule_dummy_jobs_skips_job_larger_than_every_free_block():
    small = JobRequest("U", "S", 1e6, 100.0, (1000.0,) * 3, 3)  # visited first
    large = JobRequest("U", "L", 1e6, 100.0, (1000.0,) * 4, 4)
    resources = [
        ResourceInfo("R1", 4, 1.0, 100.0),  # S costs 30 here, 60 on R2
        ResourceInfo("R2", 3, 2.0, 100.0),
    ]
    pool, dummy_id = ensure_dummy([small, large], resources)
    parked = build_schedule(
        AllocationMatrix({(dummy_id, "S"): 3, (dummy_id, "L"): 4}),
        [small, large], pool,
    )
    stats = MmcStats()
    rescued = schedule_dummy_jobs(parked, [small, large], pool, stats=stats)
    # S takes R1 at the first step; L (4 PEs) then exceeds every free block
    # (1 and 3 PEs) and is charged one step per real resource, as a full
    # scan would have been
    assert rescued.assignments.pes("R1", "S") == 3
    assert rescued.dummy_jobs == {"L"}
    assert rescued.assignments.pes(dummy_id, "L") == 4
    assert stats.steps == 1 + 2


def test_fuzzed_output_is_always_sgn_feasible():
    for seed in range(250):
        jobs, resources = fuzz_instance(seed)
        schedule = consolidate(jobs, resources)
        pool, _ = ensure_dummy(jobs, resources)
        violations = validate(
            schedule.assignments, jobs, pool, JobKind.SGN
        )
        assert violations == [], f"instance seed {seed}: {violations}"


def test_sandwich_between_relaxed_and_feasible():
    """Relaxed optimum <= MMC cost on instances MMC fully places; MMC places
    everything whenever the whole-job oracle can."""
    compared = parked_but_solvable = 0
    for seed in range(120):
        jobs, resources = tiny_instance(seed)
        model = build_relaxed(jobs, resources)
        alloc = solve_relaxed(model)
        pool, _ = ensure_dummy(jobs, model.resources)
        schedule = modified_min_cost(
            mappings_from_allocation(alloc), jobs, pool
        )
        sgn = brute_force_sgn(jobs, resources)
        if not schedule.dummy_jobs:
            lower = relaxed_objective(model, alloc)
            # the relaxed objective includes dummy deterrent terms; compare
            # only when the relaxation also used real resources throughout
            if all(rid != model.dummy_id for (rid, _), _p in alloc.items()):
                assert lower <= schedule.total_cost_gd + 1e-9, f"seed {seed}"
                compared += 1
        elif sgn is not None:
            parked_but_solvable += 1
    assert compared > 30  # the corpus really exercised the sandwich
    # MMC may occasionally park what the oracle can place (it is a
    # heuristic), but it must not do so often
    assert parked_but_solvable <= 6


def test_freeze_correctness_single_provider_jobs_stay_put():
    for seed in range(80):
        jobs, resources = fuzz_instance(seed)
        model = build_relaxed(jobs, resources)
        alloc = solve_relaxed(model)
        pool, _ = ensure_dummy(jobs, model.resources)
        relaxed = mappings_from_allocation(alloc)
        schedule = modified_min_cost(relaxed, jobs, pool)
        for jm in relaxed:
            rid = jm.provider_allocations[0][0]
            if jm.provider_count == 1 and rid != model.dummy_id:
                job_id = jm.job_id
                assert (
                    schedule.assignments.pes(rid, job_id) > 0
                    and job_id not in schedule.dummy_jobs
                ), f"seed {seed}: frozen job {job_id} moved off {rid}"


def test_step_counter_is_instrumented(s1_jobs, s1_resources):
    stats = MmcStats()
    consolidate(s1_jobs, s1_resources, stats=stats)
    assert stats.steps > 0
    assert stats.parked == 0


def test_modified_min_cost_without_dummy_resource_still_reports_parked():
    # no dummy in the pool: the one ensure_dummy adds holds the parked job
    job = JobRequest("U", "C", 1e6, 100.0, (1000.0,) * 3, 3)
    resources = [
        ResourceInfo("R1", 2, 1.0, 100.0),
        ResourceInfo("R2", 2, 2.0, 100.0),
    ]
    relaxed = [JobMapping("C", (("R1", 2), ("R2", 1)))]
    schedule = modified_min_cost(relaxed, [job], resources)
    assert isinstance(schedule, Schedule)
    assert schedule.dummy_jobs == {"C"}
    assert schedule.assignments.entries == {(DUMMY_ID, "C"): 3}
