"""Core model: execution time, cost, feasibility checks, dummy plumbing."""

from __future__ import annotations

import dataclasses
import math
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

import metagrid.ga as ga
import metagrid.greedy as greedy
import metagrid.mmc as mmc
import metagrid.relaxed as relaxed
import metagrid.simulator as simulator
from metagrid.ga import GaParams
from metagrid.model import (
    AllocationMatrix,
    JobKind,
    JobRequest,
    ResourceInfo,
    UnknownIdError,
    ViolationKind,
    build_schedule,
    budget_charge,
    ensure_dummy,
    exec_time,
    make_dummy_resource,
    pair_table,
    validate,
    whole_jobs,
)
from metagrid.relaxed import build_relaxed, solve_relaxed
from metagrid.simulator import SCHEDULERS
from metagrid.workload import ScenarioConfig, generate_grid, generate_jobs

from conftest import (
    S1_OPTIMAL_ALLOC,
    S1_OPTIMAL_COST,
    assert_same_record,
    cut,
    fuzz_instance,
    same_schedule,
    tiny_instance,
)
from oracles import (
    allocation,
    gene_row,
    parking_id,
    pe_array,
    placement_cost,
    placement_feasible,
    qos_index,
    schedule_by_id,
    schedule_cost,
)


def test_exec_time_two_equal_tasks():
    job = JobRequest("U", "J", 10.0, 100.0, (1000.0, 1000.0), 2)
    res = ResourceInfo("R", 4, 1.0, 100.0)
    assert exec_time(job, res) == 10.0


def test_exec_time_identity_scale():
    job = JobRequest("U", "J", 10.0, 100.0, (1000.0,), 1)
    res = ResourceInfo("R", 4, 1.0, 1000.0)
    assert exec_time(job, res) == 1.0


def test_exec_time_max_task_dominates():
    job = JobRequest("U", "J", 10.0, 100.0, (1000.0, 2000.0), 2)
    res = ResourceInfo("R", 4, 1.0, 200.0)
    assert exec_time(job, res) == 10.0


def test_schedule_cost_empty_allocation_is_zero(s1_jobs, s1_resources):
    assert schedule_cost(AllocationMatrix({}), s1_jobs, s1_resources) == 0.0


def test_schedule_cost_single_entry():
    job = JobRequest("U", "J", 1000.0, 100.0, (1000.0, 1000.0), 2)
    res = ResourceInfo("R", 4, 1.0, 100.0)
    alloc = AllocationMatrix({("R", "J"): 2})
    # 1 G$/PE/s x 2 PEs x 10 s
    assert schedule_cost(alloc, [job], [res]) == 20.0


def test_schedule_cost_s1_optimum(s1_jobs, s1_resources):
    alloc = AllocationMatrix(S1_OPTIMAL_ALLOC)
    assert schedule_cost(alloc, s1_jobs, s1_resources) == S1_OPTIMAL_COST


def test_schedule_cost_ignores_dummy_entries(s1_jobs, s1_resources):
    pool, dummy_id = ensure_dummy(s1_jobs, s1_resources)
    alloc = AllocationMatrix({("R1", "A"): 2, (dummy_id, "B"): 3})
    assert schedule_cost(alloc, s1_jobs, pool) == 20.0


def test_schedule_cost_unknown_resource_raises(s1_jobs, s1_resources):
    alloc = AllocationMatrix({("NOPE", "A"): 2})
    with pytest.raises(UnknownIdError):
        schedule_cost(alloc, s1_jobs, s1_resources)


def test_validate_s1_optimum_clean_in_sgn_mode(s1_jobs, s1_resources):
    alloc = AllocationMatrix(S1_OPTIMAL_ALLOC)
    assert validate(alloc, s1_jobs, s1_resources, JobKind.SGN) == []


def test_validate_reports_pe_requirement_shortfall(s1_jobs, s1_resources):
    alloc = AllocationMatrix({("R1", "A"): 2, ("R2", "B"): 2})
    kinds = {v.kind for v in validate(alloc, s1_jobs, s1_resources, JobKind.SGN)}
    assert ViolationKind.PE_REQUIREMENT in kinds


def test_validate_reports_split_sgn_job(s1_jobs, s1_resources):
    # B split 2+1 across the grid: multiple resources and partial blocks
    alloc = AllocationMatrix({("R1", "A"): 2, ("R1", "B"): 1, ("R2", "B"): 2})
    violations = validate(alloc, s1_jobs, s1_resources, JobKind.SGN)
    kinds = {v.kind for v in violations}
    assert ViolationKind.MULTIPLE_RESOURCES in kinds
    assert ViolationKind.SPLIT_SGN_JOB in kinds


def test_validate_mgn_mode_allows_splits(s1_jobs, s1_resources):
    alloc = AllocationMatrix({("R1", "A"): 1, ("R2", "A"): 1, ("R2", "B"): 3})
    violations = validate(alloc, s1_jobs, s1_resources, JobKind.MGN)
    assert violations == []


def test_validate_reports_capacity_overflow(s1_jobs, s1_resources):
    alloc = AllocationMatrix({("R2", "A"): 2, ("R2", "B"): 3})  # 5 PEs on 4
    kinds = {v.kind for v in validate(alloc, s1_jobs, s1_resources, JobKind.SGN)}
    assert ViolationKind.CAPACITY in kinds


def test_validate_reports_deadline_breach(s1_jobs, s1_resources):
    # B on R1 needs 20 s against a 15 s deadline
    alloc = AllocationMatrix({("R1", "B"): 3, ("R2", "A"): 2})
    kinds = {v.kind for v in validate(alloc, s1_jobs, s1_resources, JobKind.SGN)}
    assert ViolationKind.DEADLINE in kinds


def test_validate_reports_budget_breach():
    job = JobRequest("U", "J", 10.0, 100.0, (1000.0,), 1)
    res = ResourceInfo("R", 4, 2.0, 100.0)  # spend = 2 x 1 x 10 = 20 > 10
    alloc = AllocationMatrix({("R", "J"): 1})
    kinds = {v.kind for v in validate(alloc, [job], [res], JobKind.SGN)}
    assert kinds == {ViolationKind.BUDGET}


def test_validate_reports_negative_entries(s1_jobs, s1_resources):
    alloc = AllocationMatrix({("R1", "A"): -2, ("R2", "B"): 3})
    kinds = {v.kind for v in validate(alloc, s1_jobs, s1_resources, JobKind.SGN)}
    assert ViolationKind.NEGATIVE in kinds


def test_validate_dummy_placement_skips_budget_and_deadline(s1_jobs, s1_resources):
    pool, dummy_id = ensure_dummy(s1_jobs, s1_resources)
    alloc = AllocationMatrix({(dummy_id, "A"): 2, (dummy_id, "B"): 3})
    assert validate(alloc, s1_jobs, pool, JobKind.SGN) == []


@given(st.permutations([400.0, 900.0, 1500.0, 2200.0]))
def test_cost_invariant_under_task_permutation(sizes):
    job = JobRequest("U", "J", 1e6, 1e6, tuple(sizes), 4)
    res = ResourceInfo("R", 8, 2.0, 150.0)
    alloc = AllocationMatrix({("R", "J"): 4})
    baseline = JobRequest("U", "J", 1e6, 1e6, (400.0, 900.0, 1500.0, 2200.0), 4)
    assert schedule_cost(alloc, [job], [res]) == schedule_cost(
        alloc, [baseline], [res]
    )


@given(st.floats(min_value=0.1, max_value=50.0))
def test_cost_scales_linearly_with_rates(factor):
    job = JobRequest("U", "J", 1e9, 1e9, (1000.0, 500.0), 2)
    base = ResourceInfo("R", 4, 2.0, 100.0)
    scaled = ResourceInfo("R", 4, 2.0 * factor, 100.0)
    alloc = AllocationMatrix({("R", "J"): 2})
    assert schedule_cost(alloc, [job], [scaled]) == pytest.approx(
        factor * schedule_cost(alloc, [job], [base])
    )
    # capacity/requirement/deadline findings do not depend on the rate
    for res in (base, scaled):
        kinds = {v.kind for v in validate(alloc, [job], [res], JobKind.SGN)}
        assert ViolationKind.CAPACITY not in kinds
        assert ViolationKind.DEADLINE not in kinds


def test_placement_cost_and_budget_charge_agree(s1_jobs, s1_resources):
    job = s1_jobs[0]
    res = s1_resources[0]
    whole = placement_cost(job, res)
    charged = budget_charge(job, {res.resource_id: job.pe_count}, {res.resource_id: res})
    assert whole == charged == 20.0


def test_placement_feasible_checks_deadline_and_budget(s1_jobs, s1_resources):
    a, b = s1_jobs
    r1, r2 = s1_resources
    assert placement_feasible(a, r1)
    assert not placement_feasible(b, r1)  # 20 s > 15 s deadline
    assert placement_feasible(b, r2)
    broke = JobRequest("U", "P", 1.0, 20.0, (1000.0, 1000.0), 2)
    assert not placement_feasible(broke, r1)  # costs 20 on a 1 G$ budget


def test_qos_index_formula():
    job = JobRequest("U", "J", 100.0, 20.0, (1.0, 1.0), 2)
    assert qos_index(job) == 100.0 / (20.0 * 2)


def test_pair_table_ranks_jobs_by_qos_index_then_id():
    """``rank`` lists the table's rows by the QoS index descending, ties
    by job id, with each index computed in ``oracles.qos_index``'s order
    of operations: 1 / (0.1 * 3) is one ulp below 10 / 3, and (1 / 0.1) / 3
    is not.  The hand-made batch, then ``tiny_instance`` and
    ``fuzz_instance`` 0-299."""
    jobs = [
        JobRequest("U", "D", 10.0, 3.0, (1.0,), 1),
        JobRequest("U", "C", 100.0, 20.0, (1.0, 1.0), 2),
        JobRequest("U", "B", 50.0, 10.0, (1.0, 1.0), 2),  # ties C at 2.5
        JobRequest("U", "A", 1.0, 0.1, (1.0,) * 3, 3),
    ]
    table = pair_table(jobs, [ResourceInfo("R1", 4, 1.0, 100.0)])
    assert [table.jobs[j].job_id for j in table.rank] == ["D", "A", "B", "C"]
    for seed in range(300):
        for jobs, resources in (tiny_instance(seed), fuzz_instance(seed)):
            table = pair_table(jobs, resources)
            want = sorted(table.jobs, key=lambda j: (-qos_index(j), j.job_id))
            assert [table.jobs[j] for j in table.rank] == want, seed


def test_make_dummy_resource_parameters(s1_jobs, s1_resources):
    dummy = make_dummy_resource(s1_jobs, s1_resources)
    assert dummy.is_dummy
    assert dummy.free_pes == 5  # total demanded PEs
    # 10 x the dearest real price per instruction (R2: 3 G$ at 200 MIPS),
    # taken at the dummy's speed
    assert dummy.cost_per_pe_second == 30.0
    assert dummy.pe_speed_mips == 200.0  # fastest real speed
    # deadline-feasible for every job
    for job in s1_jobs:
        assert placement_feasible(job, dummy)
        assert exec_time(job, dummy) <= job.deadline_s

    # speeds 100x apart, the slow machine dearest per instruction: the
    # price follows it, not the largest rate
    spread = [
        ResourceInfo("R1", 4, 2.0, 20.0),
        ResourceInfo("R2", 4, 3.0, 2000.0),
        ResourceInfo("R3", 4, 1.5, 400.0),
    ]
    dummy = make_dummy_resource(s1_jobs, spread)
    assert dummy.cost_per_pe_second == 2000.0  # 10 x 2 G$ x 2000 / 20
    assert dummy.pe_speed_mips == 2000.0
    for job in s1_jobs:
        parked = placement_cost(job, dummy) / job.pe_count
        for res in spread:
            assert parked >= 10 * placement_cost(job, res) / job.pe_count, res.resource_id


def test_ensure_dummy_is_idempotent(s1_jobs, s1_resources):
    pool, dummy_id = ensure_dummy(s1_jobs, s1_resources)
    again, same_id = ensure_dummy(s1_jobs, pool)
    assert same_id == dummy_id
    assert len(again) == len(pool)


def test_build_schedule_parks_dummy_touched_jobs_whole(s1_jobs, s1_resources):
    pool, dummy_id = ensure_dummy(s1_jobs, s1_resources)
    # B half-placed for real, half parked: the real fragment must be dropped
    alloc = AllocationMatrix(
        {("R1", "A"): 2, ("R2", "B"): 1, (dummy_id, "B"): 2}
    )
    table = pair_table(s1_jobs, pool)
    schedule = build_schedule(table, pe_array(alloc, table))
    assert schedule.dummy_jobs == {"B"}
    assert schedule.assignments.pes("R2", "B") == 0
    assert schedule.assignments.pes(dummy_id, "B") == 3
    assert schedule.total_cost_gd == 20.0
    assert schedule_cost(schedule.assignments, s1_jobs, pool) == 20.0


def equivalence_batches():
    """``tiny_instance`` 0-599, ``fuzz_instance`` 0-299 and generated
    batches for seeds 0-3 at four shapes, each also with its free PEs cut
    at random, as ``test_ga.reference_batches`` cuts them (the generated
    ones twice, to at most a half and to at most a third, where most jobs
    are parked): 1,848 batches."""
    for seed in range(600):
        jobs, resources = tiny_instance(seed)
        yield jobs, resources
        yield jobs, cut(resources, random.Random(seed))
    for seed in range(300):
        jobs, resources = fuzz_instance(seed)
        yield jobs, resources
        yield jobs, cut(resources, random.Random(seed))
    for resources, jobs, mode in ((25, 50, "tight"), (50, 50, "medium"), (200, 50, "medium"),
                                  (50, 200, "medium")):
        for seed in range(4):
            config = ScenarioConfig(
                resource_count=resources, job_count=jobs, deadline_mode=mode, rng_seed=seed
            )
            batch, grid = generate_jobs(config), generate_grid(config)
            yield batch, grid
            for share in (2, 3):
                yield batch, cut(grid, random.Random(seed), share)


def test_build_schedule_equals_the_id_keyed_reference(monkeypatch):
    """On every batch, ``build_schedule`` over the batch's table gives the
    schedule ``oracles.schedule_by_id`` builds by ids from the same
    placement, in entries, parked jobs and ``repr(total_cost_gd)``: for the
    relaxation's answer, split or not, with real PEs beside a dummy share
    or not, and for every whole-job array that greedy, MMC and decode hand
    it (decode on greedy's row and on a random one).  The gene row ``_refine`` seeds the
    GA with, read off greedy's and MMC's ``placed``, is the row of the
    oracle's entries by ids.  The table's ``pes`` is an int array of the
    jobs' PE counts, and every array ``whole_jobs`` and ``build_schedule``
    return is an int array."""
    built = Counter()

    def checked(name):
        def build(table, placed):
            schedule = build_schedule(table, placed)
            assert placed.dtype.kind == schedule.placed.dtype.kind == "i", name
            want = schedule_by_id(allocation(placed, table), table.jobs, table.resources)
            assert same_schedule(schedule, want), (name, allocation(placed, table))
            if name in ("metagrid.greedy", "metagrid.mmc"):
                genes = {jid: rid for rid, jid in want.assignments.entries}
                assert tuple(schedule.placed.argmax(axis=1).tolist()) == gene_row(genes, table)
            built[name] += 1
            return schedule
        return build

    for module in (greedy, mmc, ga):
        monkeypatch.setattr(module, "build_schedule", checked(module.__name__))
    rng = random.Random(0)
    batches = split = mixed = 0
    for jobs, resources in equivalence_batches():
        batches += 1
        model = build_relaxed(pair_table(jobs, resources))
        assert model.table.pes.dtype.kind == "i"
        assert model.table.pes.tolist() == [job.pe_count for job in model.table.jobs]
        assert whole_jobs(model.table, model.table.parking).dtype.kind == "i"
        placed = solve_relaxed(model)
        split += bool(((placed > 0).sum(axis=1) > 1).any())
        share = placed[:, model.table.parking]
        mixed += bool(((share > 0) & (share < model.table.pes)).any())
        checked("relaxed")(model.table, placed)
        mmc.modified_min_cost(model.table, placed)
        table = pair_table(jobs, resources)
        row = greedy.greedy_schedule(table).placed.argmax(axis=1).tolist()
        ga.decode_schedule(row, table)
        ga.decode_schedule([rng.randrange(len(table.resources)) for _ in row], table)
    assert (batches, split, mixed) == (1848, 1091, 775)
    assert built == {"relaxed": 1848, "metagrid.mmc": 1848, "metagrid.greedy": 1848,
                     "metagrid.ga": 2 * 1848}


def test_pair_table_and_every_adapter_reject_a_second_dummy(monkeypatch):
    """A resource list with two dummies is a ``ValueError`` from
    ``pair_table``, and every adapter raises it before any solve: on
    ``tiny_instance`` 0-49 with dummies P1 and P2 appended (the
    relaxation's resource-side prefix assumes one dummy column).  One
    dummy, whatever its id, is taken as is, and every adapter runs."""
    def solved(*args, **kwargs):
        raise AssertionError("a solve ran")

    dummies = [ResourceInfo(rid, 20, 50.0, 100.0, is_dummy=True) for rid in ("P1", "P2")]
    params = GaParams(population_size=6, convergence_window=2, max_iterations=4)
    for seed in range(50):
        jobs, resources = tiny_instance(seed)
        with monkeypatch.context() as patch:
            for module, name in ((relaxed, "linprog"), (relaxed, "solve_relaxed"),
                                 (simulator, "solve_relaxed"), (simulator, "greedy_schedule"),
                                 (ga, "solve_relaxed"), (ga, "greedy_schedule"), (ga, "run_ga")):
                patch.setattr(module, name, solved)
            with pytest.raises(ValueError, match="at most one dummy"):
                pair_table(jobs, resources + dummies)
            for name, adapter in SCHEDULERS.items():
                with pytest.raises(ValueError, match="at most one dummy"):
                    adapter(jobs, resources + dummies, params, seed)
        for dummy in dummies:
            assert parking_id(pair_table(jobs, resources + [dummy])) == dummy.resource_id
            for adapter in SCHEDULERS.values():
                adapter(jobs, resources + [dummy], params, seed)


def test_invalid_records_are_rejected():
    with pytest.raises(ValueError):
        ResourceInfo("R", -1, 1.0, 100.0)
    with pytest.raises(ValueError):
        ResourceInfo("R", 4, 0.0, 100.0)
    with pytest.raises(ValueError):
        ResourceInfo("R", 4, 1.0, 0.0)
    with pytest.raises(ValueError):
        JobRequest("U", "J", 10.0, 10.0, (100.0, 100.0), 3)  # 2 tasks != 3 PEs
    with pytest.raises(ValueError):
        JobRequest("U", "J", 0.0, 10.0, (100.0,), 1)
    with pytest.raises(ValueError):
        JobRequest("U", "J", 10.0, -1.0, (100.0,), 1)


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("field", ["rate", "speed"])
def test_resource_rejects_non_finite_numbers(field, bad):
    rate = bad if field == "rate" else 1.0
    speed = bad if field == "speed" else 100.0
    with pytest.raises(ValueError, match="finite"):
        ResourceInfo("R", 4, rate, speed)


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("field", ["budget_gd", "deadline_s", "task_sizes_mi", "submit_time_s"])
def test_job_rejects_non_finite_numbers(field, bad):
    values = {"budget_gd": 10.0, "deadline_s": 10.0, "task_sizes_mi": (100.0, 100.0),
              "submit_time_s": 0.0}
    values[field] = (100.0, bad) if field == "task_sizes_mi" else bad
    with pytest.raises(ValueError, match=field):
        JobRequest("U", "J", pe_count=2, **values)


def test_validate_and_build_schedule_reject_duplicate_job_ids(s1_jobs, s1_resources):
    """``build_schedule`` reads a ``PairTable``, and ``pair_table`` rejects
    the batch, so no adapter reaches it."""
    jobs = [*s1_jobs, s1_jobs[0]]
    alloc = AllocationMatrix(S1_OPTIMAL_ALLOC)
    with pytest.raises(ValueError, match="duplicate job_id A"):
        validate(alloc, jobs, s1_resources, JobKind.SGN)
    with pytest.raises(ValueError, match="duplicate job_id A"):
        pair_table(jobs, s1_resources)
    with pytest.raises(ValueError, match="duplicate job_id A"):
        SCHEDULERS["relaxed-mgn"](jobs, s1_resources, GaParams(), 0)


def test_validate_and_build_schedule_reject_duplicate_resource_ids(s1_jobs, s1_resources):
    """As for job ids: ``pair_table`` rejects the batch."""
    resources = [*s1_resources, ResourceInfo("R1", 8, 2.0, 300.0)]
    alloc = AllocationMatrix(S1_OPTIMAL_ALLOC)
    with pytest.raises(ValueError, match="duplicate resource_id R1"):
        validate(alloc, s1_jobs, resources, JobKind.SGN)
    with pytest.raises(ValueError, match="duplicate resource_id R1"):
        pair_table(s1_jobs, resources)
    with pytest.raises(ValueError, match="duplicate resource_id R1"):
        SCHEDULERS["relaxed-mgn"](s1_jobs, resources, GaParams(), 0)


def test_allocation_matrix_drops_zero_entries():
    alloc = AllocationMatrix({("R", "J"): 0, ("R", "K"): 2})
    assert ("R", "J") not in alloc.entries
    assert alloc.pes("R", "K") == 2
    assert alloc.by_job() == {"K": {"R": 2}}


# ------------------------------------------------- one-field checked copies


instances = st.builds(
    lambda fuzz, seed: (fuzz_instance if fuzz else tiny_instance)(seed),
    st.booleans(),
    st.integers(0, 299),
)


@given(
    instance=instances,
    deadline=st.floats(min_value=1e-3, max_value=1e6) | st.integers(1, 10**6),
    free=st.integers(0, 10**6),
)
def test_checked_copies_equal_dataclasses_replace(instance, deadline, free):
    jobs, resources = instance
    for job in jobs:
        before = vars(job).copy()
        expected = dataclasses.replace(job, deadline_s=deadline)
        assert_same_record(job.with_deadline(deadline), expected)
        assert vars(job) == before
    for res in resources:
        before = vars(res).copy()
        expected = dataclasses.replace(res, free_pes=free)
        assert_same_record(res.with_free_pes(free), expected)
        assert vars(res) == before


@pytest.mark.parametrize("value", [0, -1, math.nan, math.inf, True, "1"])
def test_checked_copies_reject_what_the_constructor_rejects(value):
    job = JobRequest("U", "J", 10.0, 20.0, (100.0, 100.0), 2)
    res = ResourceInfo("R", 4, 1.0, 100.0)
    with pytest.raises(ValueError) as built:
        dataclasses.replace(job, deadline_s=value)
    with pytest.raises(ValueError) as copied:
        job.with_deadline(value)
    assert str(copied.value) == str(built.value) == "job J: deadline_s must be finite and positive"

    if value == 0:  # zero free PEs is a valid resource
        assert_same_record(res.with_free_pes(value), dataclasses.replace(res, free_pes=value))
        return
    with pytest.raises(ValueError) as built:
        dataclasses.replace(res, free_pes=value)
    with pytest.raises(ValueError) as copied:
        res.with_free_pes(value)
    message = f"free_pes must be a nonnegative int, got {value!r}"
    assert str(copied.value) == str(built.value) == message
