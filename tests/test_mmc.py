"""Consolidation of split relaxation solutions into whole-job schedules."""

from __future__ import annotations

import pytest
from conftest import S1_OPTIMAL_ALLOC, S1_OPTIMAL_COST, fuzz_instance, tiny_instance
from hypothesis import given, settings, strategies as st
from metagrid.mmc import MmcStats, cost_order, modified_min_cost
from metagrid.model import (
    DUMMY_ID,
    AllocationMatrix,
    JobKind,
    JobRequest,
    ResourceInfo,
    Schedule,
    ensure_dummy,
    pair_table,
    validate,
)
from metagrid.relaxed import build_relaxed, solve_relaxed
from oracles import (
    allocation, brute_force_sgn, parking_id, pe_array, placement_cost, relaxed_objective,
)


def consolidate(jobs, resources, stats=None):
    """Full pipeline: relaxed solve then consolidation."""
    model = build_relaxed(pair_table(jobs, resources))
    return modified_min_cost(model.table, solve_relaxed(model), stats=stats)


def consolidate_split(jobs, resources, entries, stats=None):
    """Consolidation of a hand-made relaxed split, (resource, job) -> PEs."""
    model = build_relaxed(pair_table(jobs, resources))
    return modified_min_cost(model.table, pe_array(AllocationMatrix(entries), model.table), stats)


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
    schedule = consolidate_split([job], resources, {("R1", "C"): 2, ("R2", "C"): 1})
    assert schedule.dummy_jobs == {"C"}
    assert schedule.total_cost_gd == 0.0


def test_multi_provider_job_consolidates_onto_biggest_cheapest():
    # R1 holds more of the split and is cheaper: job lands whole on R1
    job = JobRequest("U", "D", 1e6, 100.0, (1000.0,) * 3, 3)
    resources = [
        ResourceInfo("R1", 4, 1.0, 100.0),
        ResourceInfo("R2", 4, 2.0, 100.0),
    ]
    schedule = consolidate_split([job], resources, {("R1", "D"): 2, ("R2", "D"): 1})
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
    schedule = consolidate_split([job], resources, {("R1", "D"): 1, ("R2", "D"): 1})
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
    schedule = consolidate_split([job], resources, {("R1", "E"): 2, ("R2", "E"): 1})
    assert schedule.assignments.pes("R2", "E") == 3


# The interchange: a job that consumes a provider evicts the other jobs'
# tentative holds on it.  Single-provider jobs freeze first and jobs are
# consolidated fewest providers first (ties by id), so in each case below
# the consumer A holds no more providers than its evictees and sorts first.


def test_interchange_no_other_jobs_is_vacuous(s1_resources):
    job = JobRequest("U", "A", 1e6, 100.0, (1000.0,) * 3, 3)
    stats = MmcStats()
    schedule = consolidate_split([job], s1_resources, {("R1", "A"): 2, ("R2", "A"): 1}, stats)
    assert schedule.assignments.entries == {("R1", "A"): 3}
    # the job and its first candidate; nothing held R1 besides it
    assert (stats.steps, stats.displacements, stats.parked) == (2, 0, 0)


def test_interchange_moves_displaced_job_to_alternate():
    consumer = JobRequest("U", "A", 1e6, 100.0, (1000.0,) * 4, 4)
    evictee = JobRequest("U", "B", 1e6, 100.0, (1000.0,) * 3, 3)
    resources = [
        ResourceInfo("R1", 4, 1.0, 100.0),
        ResourceInfo("R2", 4, 2.0, 100.0),
        ResourceInfo("R3", 4, 3.0, 100.0),
        ResourceInfo("R4", 4, 1.5, 100.0),  # B's own, not A's
    ]
    split = {
        ("R1", "A"): 2, ("R2", "A"): 1, ("R3", "A"): 1,
        ("R1", "B"): 1, ("R3", "B"): 1, ("R4", "B"): 1,
    }
    stats = MmcStats()
    schedule = consolidate_split([consumer, evictee], resources, split, stats)
    # A takes R1; B goes to the cheapest feasible of A's other providers,
    # not to its own cheaper R4
    assert schedule.assignments.entries == {("R1", "A"): 4, ("R2", "B"): 3}
    assert (stats.steps, stats.displacements, stats.parked) == (3, 1, 0)


def test_interchange_rehomes_on_cheapest_placement_not_rate():
    consumer = JobRequest("U", "A", 1e6, 100.0, (1000.0,) * 4, 4)
    evictee = JobRequest("U", "B", 1e6, 100.0, (1000.0,) * 3, 3)
    resources = [
        ResourceInfo("R1", 4, 1.0, 100.0),
        ResourceInfo("R2", 4, 1.0, 100.0),  # B whole: 30
        ResourceInfo("R3", 4, 2.0, 400.0),  # B whole: 15
    ]
    split = {
        ("R1", "A"): 2, ("R2", "A"): 1, ("R3", "A"): 1,
        ("R1", "B"): 1, ("R2", "B"): 1, ("R3", "B"): 1,
    }
    schedule = consolidate_split([consumer, evictee], resources, split)
    assert schedule.assignments.entries == {("R1", "A"): 4, ("R3", "B"): 3}
    # A whole on R1 costs 40
    assert schedule.total_cost_gd == 40.0 + 15.0


def test_interchange_parks_job_with_no_feasible_alternate():
    consumer = JobRequest("U", "A", 1e6, 100.0, (1000.0,) * 2, 2)
    evictee = JobRequest("U", "B", 1e6, 5.0, (1000.0,) * 2, 2)
    resources = [
        ResourceInfo("R1", 2, 1.0, 1000.0),
        ResourceInfo("R2", 4, 2.0, 100.0),  # B needs 10 s > its 5 s deadline
    ]
    split = {("R1", "A"): 1, ("R2", "A"): 1, ("R1", "B"): 1, ("R2", "B"): 1}
    stats = MmcStats()
    schedule = consolidate_split([consumer, evictee], resources, split, stats)
    # A fills R1; B's one alternate misses its deadline, and the rescue
    # finds no other home
    assert schedule.assignments.pes("R1", "A") == 2
    assert schedule.dummy_jobs == {"B"}
    assert (stats.displacements, stats.parked) == (1, 1)


def test_interchange_visits_smallest_jobs_first():
    consumer = JobRequest("U", "A", 1e6, 100.0, (1000.0,) * 4, 4)
    big = JobRequest("U", "Jbig", 1e6, 100.0, (1000.0,) * 3, 3)
    small = JobRequest("U", "Jsmall", 1e6, 100.0, (1000.0,) * 2, 2)
    resources = [
        ResourceInfo("R1", 4, 1.0, 100.0),
        ResourceInfo("R2", 3, 2.0, 100.0),
    ]
    split = {
        ("R1", "A"): 3, ("R2", "A"): 1,
        ("R1", "Jbig"): 2, ("R2", "Jbig"): 1,
        ("R1", "Jsmall"): 1, ("R2", "Jsmall"): 1,
    }
    # only 3 PEs on the alternate: the small job (visited first) gets them,
    # the big one fits no longer and parks
    stats = MmcStats()
    schedule = consolidate_split([consumer, big, small], resources, split, stats)
    assert schedule.assignments.pes("R2", "Jsmall") == 2
    assert schedule.dummy_jobs == {"Jbig"}
    assert (stats.displacements, stats.parked) == (2, 1)


# The dummy share: candidates are tried most relaxed PEs first, and
# reaching the job's dummy share parks it; the rescue may place it after.


def test_dummy_share_parks_before_a_provider_with_room():
    job = JobRequest("U", "J", 1e6, 100.0, (1000.0,) * 3, 3)
    resources = [ResourceInfo("R1", 4, 1.0, 100.0)]
    stats = MmcStats()
    schedule = consolidate_split([job], resources, {("R1", "J"): 1, (DUMMY_ID, "J"): 2}, stats)
    # the dummy share ranks first, so R1 is not tried; the rescue puts the
    # job there.  Steps: the job, its dummy visit, the rescue's one visit
    assert schedule.assignments.entries == {("R1", "J"): 3}
    assert schedule.dummy_jobs == frozenset()
    assert (stats.steps, stats.displacements, stats.parked) == (3, 0, 1)


def test_dummy_share_after_a_provider_without_room():
    job = JobRequest("U", "J", 1e6, 100.0, (1000.0,) * 3, 3)
    resources = [
        ResourceInfo("R1", 2, 1.0, 100.0),  # the bigger share, but too small
        ResourceInfo("R2", 4, 2.0, 100.0),  # not among the job's providers
    ]
    stats = MmcStats()
    schedule = consolidate_split([job], resources, {("R1", "J"): 2, (DUMMY_ID, "J"): 1}, stats)
    # the job, R1 (no room), the dummy share; then the rescue visits R1
    # (no room) and R2
    assert schedule.assignments.entries == {("R2", "J"): 3}
    assert (stats.steps, stats.displacements, stats.parked) == (5, 0, 1)


def test_a_second_dummy_is_rejected_before_the_relaxation():
    hopeless = JobRequest("U", "H", 1e6, 0.5, (1000.0,), 1)  # 10 s on R1
    job = JobRequest("U", "J", 1e6, 100.0, (1000.0,), 1)
    resources = [
        ResourceInfo("R1", 4, 1.0, 100.0),
        ResourceInfo("P1", 9, 1.0, 100.0, is_dummy=True),
        ResourceInfo("P2", 9, 1.0, 100.0, is_dummy=True),
    ]
    with pytest.raises(ValueError, match="at most one dummy"):
        build_relaxed(pair_table([hopeless, job], resources))
    # one dummy, whatever its id, is the model's dummy
    model = build_relaxed(pair_table([hopeless, job], resources[:2]))
    assert parking_id(model.table) == "P1"
    stats = MmcStats()
    alloc = AllocationMatrix({("P1", "H"): 1, ("P1", "J"): 1})
    schedule = modified_min_cost(model.table, pe_array(alloc, model.table), stats)
    # both park, the rescue places J, and H stays on the dummy
    assert schedule.assignments.entries == {("P1", "H"): 1, ("R1", "J"): 1}
    assert stats.parked == 2


# The rescue: parked jobs, richest first, go whole onto the cheapest real
# resource with room that meets their deadline and budget.


def test_schedule_dummy_jobs_rescues_when_room_exists(s1_jobs, s1_resources):
    stats = MmcStats()
    rescued = consolidate_split(
        s1_jobs, s1_resources, {("R1", "A"): 2, (DUMMY_ID, "B"): 3}, stats
    )
    assert stats.parked == 1  # B froze on the dummy
    assert rescued.dummy_jobs == frozenset()
    assert rescued.assignments.pes("R2", "B") == 3  # only deadline-valid host
    assert rescued.total_cost_gd == S1_OPTIMAL_COST


def test_schedule_dummy_jobs_rescues_onto_cheapest_placement_not_rate():
    job = JobRequest("U", "Z", 1e6, 100.0, (1000.0,) * 2, 2)
    resources = [
        ResourceInfo("R1", 4, 1.0, 100.0),  # whole job: 20
        ResourceInfo("R2", 4, 2.0, 400.0),  # whole job: 10
    ]
    rescued = consolidate_split([job], resources, {(DUMMY_ID, "Z"): 2})
    assert rescued.dummy_jobs == frozenset()
    assert rescued.assignments.pes("R2", "Z") == 2
    assert rescued.total_cost_gd == 10.0


def test_schedule_dummy_jobs_leaves_hopeless_jobs_parked(s1_resources):
    job = JobRequest("U", "Z", 1e6, 0.5, (1000.0,), 1)  # 0.5 s deadline
    rescued = consolidate_split([job], s1_resources, {(DUMMY_ID, "Z"): 1})
    assert rescued.dummy_jobs == {"Z"}


def test_schedule_dummy_jobs_skips_job_larger_than_every_free_block():
    small = JobRequest("U", "S", 1e6, 100.0, (1000.0,) * 3, 3)  # visited first
    large = JobRequest("U", "L", 1e6, 100.0, (1000.0,) * 4, 4)
    resources = [
        ResourceInfo("R1", 4, 1.0, 100.0),  # S costs 30 here, 60 on R2
        ResourceInfo("R2", 3, 2.0, 100.0),
    ]
    stats = MmcStats()
    rescued = consolidate_split(
        [small, large], resources, {(DUMMY_ID, "S"): 3, (DUMMY_ID, "L"): 4}, stats
    )
    # both freeze on the dummy (one step each).  S takes R1 at the first
    # step; L (4 PEs) then exceeds every free block (1 and 3 PEs) and is
    # charged one step per real resource, as a full scan would have been
    assert rescued.assignments.pes("R1", "S") == 3
    assert rescued.dummy_jobs == {"L"}
    assert rescued.assignments.pes(DUMMY_ID, "L") == 4
    assert stats.steps == 2 + 1 + 2


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
        model = build_relaxed(pair_table(jobs, resources))
        placed = solve_relaxed(model)
        alloc = allocation(placed, model.table)
        schedule = modified_min_cost(model.table, placed)
        sgn = brute_force_sgn(jobs, resources)
        if not schedule.dummy_jobs:
            lower = relaxed_objective(model, alloc)
            # the relaxed objective includes dummy deterrent terms; compare
            # only when the relaxation also used real resources throughout
            if all(rid != parking_id(model.table) for (rid, _), _p in alloc.items()):
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
        model = build_relaxed(pair_table(jobs, resources))
        placed = solve_relaxed(model)
        alloc = allocation(placed, model.table)
        schedule = modified_min_cost(model.table, placed)
        for job_id, providers in alloc.by_job().items():
            if len(providers) != 1:
                continue
            (rid,) = providers
            if rid != parking_id(model.table):
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
    # no dummy in the pool: the one build_relaxed adds holds the parked job
    job = JobRequest("U", "C", 1e6, 100.0, (1000.0,) * 3, 3)
    resources = [
        ResourceInfo("R1", 2, 1.0, 100.0),
        ResourceInfo("R2", 2, 2.0, 100.0),
    ]
    schedule = consolidate_split([job], resources, {("R1", "C"): 2, ("R2", "C"): 1})
    assert isinstance(schedule, Schedule)
    assert schedule.dummy_jobs == {"C"}
    assert schedule.assignments.entries == {(DUMMY_ID, "C"): 3}


@st.composite
def tied_batches(draw):
    """Jobs on a grid whose rates and speeds come from two values each, so
    equal placement costs are common; ids arrive shuffled, and the pool
    may hold a dummy."""
    ids = draw(st.permutations([f"R{i}" for i in range(draw(st.integers(0, 6)))]))
    resources = [
        ResourceInfo(rid, draw(st.integers(0, 8)), draw(st.sampled_from([1.0, 2.5])),
                     draw(st.sampled_from([100.0, 300.0])))
        for rid in ids
    ]
    jobs = [
        JobRequest(f"U{j}", f"J{j}", draw(st.floats(1.0, 500.0)), draw(st.floats(1.0, 40.0)),
                   (draw(st.sampled_from([300.0, 700.0])),) * pes, pes)
        for j, pes in enumerate(draw(st.lists(st.integers(1, 4), max_size=5)))
    ]
    if jobs and draw(st.booleans()):
        resources, _ = ensure_dummy(jobs, resources)
    return jobs, resources


@settings(max_examples=200, derandomize=True, deadline=None)
@given(batch=tied_batches())
def test_cost_order_ranks_each_job_by_placement_cost_then_id(batch):
    jobs, resources = batch
    table = pair_table(jobs, resources)
    real = [r for r in resources if not r.is_dummy]
    rids = [r.resource_id for r in table.resources]
    for job, row in zip(table.jobs, cost_order(table).tolist()):
        want = sorted(real, key=lambda r: (placement_cost(job, r), r.resource_id))
        assert [rids[k] for k in row] == [r.resource_id for r in want]
