"""Relaxed (split-allowed) solver: model building, exact solve, oracles."""

from __future__ import annotations

import dataclasses
import functools
import itertools
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import scipy.optimize
from scipy import sparse
from scipy.optimize import linprog as scipy_linprog

from conftest import S1_OPTIMAL_ALLOC, S1_OPTIMAL_COST, fuzz_instance, tiny_instance
from metagrid.model import (
    DUMMY_ID,
    AllocationMatrix,
    JobKind,
    JobRequest,
    ResourceInfo,
    budget_limit,
    exec_time,
    meets_deadline,
    pair_charge,
    validate,
)
import metagrid.relaxed as relaxed_module
from metagrid.relaxed import Csc, _model_arrays, _spend_bound, _stack, build_relaxed, solve_relaxed
from metagrid import simulator
from metagrid.workload import ScenarioConfig, generate_scenario
from oracles import (
    TooLargeError,
    allocation,
    brute_force_relaxed,
    breach_count,
    brute_force_sgn,
    job_side_columns,
    placement_cost,
    placement_feasible,
    relaxed_objective,
    schedule_cost,
    views,
)


def build_and_solve(jobs, resources):
    model = build_relaxed(jobs, resources)
    return model, allocation(solve_relaxed(model), model.table)


# --- model building ---------------------------------------------------------


def test_build_s1_feasible_pairs(s1_jobs, s1_resources):
    model = build_relaxed(s1_jobs, s1_resources)
    view = views(model)
    # the dummy is always there, one pair per job
    assert view.feasible_pairs == {
        ("R1", "A"), ("R2", "A"), ("R2", "B"), (model.dummy_id, "A"), (model.dummy_id, "B"),
    }
    assert view.cost_coeff[("R1", "A")] == 10.0
    assert view.cost_coeff[("R2", "A")] == 15.0
    assert view.cost_coeff[("R2", "B")] == 30.0


def test_build_excludes_deadline_violating_pairs(s1_jobs, s1_resources):
    model = build_relaxed(s1_jobs, s1_resources)
    assert ("R1", "B") not in model.pair_order  # 20 s > 15 s deadline


def test_build_adds_dummy_when_demand_overflows(s1_resources):
    greedy_jobs = [
        JobRequest("U", f"J{i}", 1e6, 100.0, (1000.0,) * 5, 5) for i in range(3)
    ]  # 15 PEs demanded, 8 real
    model = build_relaxed(greedy_jobs, s1_resources)
    assert model.dummy_id is not None
    dummy_pairs = {p for p in model.pair_order if p[0] == model.dummy_id}
    assert len(dummy_pairs) == 3  # always admissible


def test_build_adds_dummy_for_unplaceable_job(s1_resources):
    impossible = JobRequest("U", "X", 1e6, 1.0, (9000.0,), 1)  # no machine fast enough
    model = build_relaxed([impossible], s1_resources)
    assert model.dummy_id is not None
    assert all(p[0] == model.dummy_id for p in model.pair_order)


def test_build_rejects_a_real_resource_using_the_dummy_id():
    # a real "DUMMY" at rate 1.0 must not pass for the parking lot: the
    # model would hold two resources of that id and park jobs on 1 PE
    resources = [ResourceInfo("DUMMY", 1, 1.0, 100.0), ResourceInfo("R1", 1, 1.0, 100.0)]
    jobs = [JobRequest("U", jid, 1e6, 1e6, (1000.0,), 1) for jid in "ABC"]
    with pytest.raises(ValueError, match="reserved id DUMMY"):
        build_relaxed(jobs, resources)


def test_pair_table_matches_the_per_pair_rule():
    """Reference loop: every field of the batch's pair table, and each
    pair's admissibility and objective coefficient in the relaxation,
    computed one pair at a time by the scalar helpers of ``model``; the
    floats must be identical.  A dummy column follows the same formulas,
    except that its budget weight is 0.0 and it is always feasible and
    admissible.  Its coefficient also carries the parking surcharge: every
    job's PEs at its dearest admissible coefficient."""
    for seed in range(100):
        jobs, resources = fuzz_instance(seed)
        model = build_relaxed(jobs, resources)
        table = model.table
        assert table.jobs == tuple(sorted(jobs, key=lambda j: j.job_id))
        assert [r.resource_id for r in table.resources] == sorted(
            [r.resource_id for r in resources] + [DUMMY_ID]
        )
        kept = {}
        for j, job in enumerate(table.jobs):
            for r, res in enumerate(table.resources):
                where = f"seed {seed} ({res.resource_id}, {job.job_id})"
                weight = 0.0 if res.is_dummy else pair_charge(job, res, 1)
                assert table.exec_s[j, r] == exec_time(job, res), where
                assert table.coeff[j, r] == pair_charge(job, res, 1), where
                assert table.cost[j, r] == placement_cost(job, res), where
                assert table.weight[j, r] == weight, where
                assert table.on_time[j, r] == meets_deadline(job, res), where
                assert table.breaches[j, r] == breach_count(job, res), where
                assert table.feasible[j, r] == placement_feasible(job, res), where
                assert table.dummy[r] == res.is_dummy, where
                admissible = res.is_dummy or (
                    meets_deadline(job, res) and weight <= budget_limit(job.budget_gd)
                )
                assert model.admissible[j, r] == admissible, where
                if admissible:
                    kept[(j, r)] = pair_charge(job, res, 1)
        surcharge = sum(
            job.pe_count * max(c for (row, _), c in kept.items() if row == j)
            for j, job in enumerate(table.jobs)
        )
        for (j, r), coeff in kept.items():
            if table.dummy[r]:
                assert model.objective[j, r] == pytest.approx(coeff + surcharge, rel=1e-12)
            else:
                assert model.objective[j, r] == coeff


def test_model_keeps_what_the_benchmark_tracer_reads(s1_jobs, s1_resources, highs_calls):
    """The benchmark's tracer rebinds ``build_relaxed``, ``solve_relaxed``,
    ``_model_arrays`` and ``linprog`` in this module and reports
    ``len(model.pair_order)``, the row counts of the assembled arrays, and
    per ``linprog`` call (one per HiGHS solve) the length of ``x`` and the
    ``mip_node_count`` of its result."""
    model = build_relaxed(s1_jobs, s1_resources)
    assert len(model.pair_order) == model.admissible.sum() == 5
    arrays = _model_arrays(model)
    assert len(arrays) == 6
    c, a_ub, b_ub, a_eq, b_eq, ub = arrays
    assert len(c) == len(ub) == a_eq.shape[1] == model.columns.sum()
    assert a_eq.shape[0] == len(b_eq) == len(model.jobs)
    assert a_ub.shape[0] == len(b_ub)
    # solve_relaxed reaches HiGHS only through the module global, once per
    # solve: s1 takes one LP
    solve_relaxed(model)
    [(integer, res)] = highs_calls
    assert not integer
    assert len(res.x) == model.columns.sum()
    assert res.mip_node_count == 0


# --- exact solve ------------------------------------------------------------


def test_solve_s1_unique_optimum(s1_jobs, s1_resources):
    model = build_relaxed(s1_jobs, s1_resources)
    alloc = allocation(solve_relaxed(model), model.table)
    assert dict(alloc.entries) == S1_OPTIMAL_ALLOC
    assert relaxed_objective(model, alloc) == S1_OPTIMAL_COST
    assert validate(alloc, s1_jobs, s1_resources, JobKind.MGN) == []


def test_solve_splits_when_cheaper():
    # one job, two small cheap-ish resources: forced 2+2 split, cost 5*2+7*2
    jobs = [JobRequest("U", "J", 1e6, 100.0, (1000.0,) * 4, 4)]
    resources = [
        ResourceInfo("R1", 2, 0.5, 100.0),  # coeff 5 per PE
        ResourceInfo("R2", 4, 0.7, 100.0),  # coeff 7 per PE
    ]
    model = build_relaxed(jobs, resources)
    alloc = allocation(solve_relaxed(model), model.table)
    assert alloc.pes("R1", "J") == 2
    assert alloc.pes("R2", "J") == 2
    assert relaxed_objective(model, alloc) == 24.0


def test_solve_zero_jobs_is_empty():
    for resources in ([ResourceInfo("R", 4, 1.0, 100.0)], []):
        model = build_relaxed([], resources)
        assert allocation(solve_relaxed(model), model.table).entries == {}


def test_solve_returns_a_nonnegative_int_array_over_the_table():
    """PE counts as a jobs x resources int array over ``model.table``, zero
    off the solver's columns and summing to each job's PE count; an empty
    batch gets a (0, m) array."""
    empty = [([], [ResourceInfo("R", 4, 1.0, 100.0)]), ([], [])]
    for jobs, resources in [tiny_instance(seed) for seed in range(50)] + empty:
        model = build_relaxed(jobs, resources)
        placed = solve_relaxed(model)
        assert placed.dtype.kind == "i"
        assert placed.shape == model.table.cost.shape == (len(jobs), len(model.resources))
        assert (placed >= 0).all() and not placed[~model.columns].any()
        assert placed.sum(axis=1).tolist() == [j.pe_count for j in model.jobs]
    assert [solve_relaxed(build_relaxed(*batch)).shape for batch in empty] == [(0, 1), (0, 0)]


@pytest.fixture
def highs_calls(monkeypatch):
    """The (integer, result) of every HiGHS call ``solve_relaxed`` makes
    through the module's ``linprog``, in call order."""
    calls = []
    solve = relaxed_module.linprog

    def recording(*args, integer=False):
        res = solve(*args, integer=integer)
        calls.append((integer, res))
        return res

    monkeypatch.setattr(relaxed_module, "linprog", recording)
    return calls


def test_solve_parks_on_dummy_when_real_capacity_short(s1_resources):
    jobs = [
        JobRequest("U", f"J{i}", 1e6, 100.0, (1000.0,) * 5, 5) for i in range(3)
    ]
    model = build_relaxed(jobs, s1_resources)
    alloc = allocation(solve_relaxed(model), model.table)
    assert validate(alloc, jobs, model.resources, JobKind.MGN) == []
    parked_pes = sum(
        pes for (rid, _), pes in alloc.items() if rid == model.dummy_id
    )
    assert parked_pes == 15 - 8  # everything beyond the real grid


def no_real_column_batches():
    """Two batches whose model has no real column: every deadline shorter
    than the fastest execution time, and every resource the jobs meet
    their deadlines on without a free PE."""
    grid = [ResourceInfo("R1", 4, 1.0, 100.0), ResourceInfo("R2", 4, 3.0, 200.0)]
    late = [  # 2000 MI takes 10 s on R2, the faster machine
        JobRequest("U", f"J{i}", 1e6, 9.0, (2000.0,) * (i + 1), i + 1) for i in range(3)
    ]
    full = [ResourceInfo("R1", 4, 1.0, 100.0), ResourceInfo("R2", 0, 3.0, 200.0)]
    fits_r2 = [  # 20 s on R1, 10 s on R2: only R2 meets the deadline
        JobRequest("U", f"J{i}", 1e6, 15.0, (2000.0,) * (i + 1), i + 1) for i in range(3)
    ]
    return [pytest.param(late, grid, id="deadline"), pytest.param(fits_r2, full, id="full")]


@pytest.mark.parametrize("jobs, resources", no_real_column_batches())
def test_a_model_without_a_real_column_parks_every_job_without_highs(
    jobs, resources, monkeypatch
):
    model = build_relaxed(jobs, resources)
    assert not (model.columns & ~model.table.dummy).any()

    def no_highs(*args, **kwargs):
        raise AssertionError("HiGHS called on a model without a real column")

    monkeypatch.setattr(relaxed_module, "linprog", no_highs)
    alloc = allocation(solve_relaxed(model), model.table)
    assert dict(alloc.entries) == {(model.dummy_id, j.job_id): j.pe_count for j in jobs}
    assert alloc == brute_force_relaxed(model)
    assert validate(alloc, jobs, model.resources, JobKind.MGN) == []


# --- solver columns ---------------------------------------------------------


def every_column(model):
    return dataclasses.replace(model, columns=model.admissible)


def test_columns_stop_once_the_cheapest_prefix_covers_the_batch():
    jobs = [
        JobRequest("U", "A", 1e6, 100.0, (1000.0,) * 2, 2),
        JobRequest("U", "B", 1e6, 100.0, (1000.0,) * 3, 3),
    ]  # 5 PEs in the batch
    resources = [
        ResourceInfo("R1", 2, 3.0, 100.0),  # coeff 30
        ResourceInfo("R2", 4, 1.0, 100.0),  # coeff 10
        ResourceInfo("R3", 9, 2.0, 100.0),  # coeff 20: 4 + 9 >= 5
        ResourceInfo("R4", 9, 1.0, 50.0),  # coeff 20, after R3 on the id
    ]
    model = build_relaxed(jobs, resources)
    dummy = model.dummy_id
    assert len(model.pair_order) == 10  # 8 real pairs, one dummy pair per job
    assert views(model).lp_columns == (
        (dummy, "A"), ("R2", "A"), ("R3", "A"), (dummy, "B"), ("R2", "B"), ("R3", "B"),
    )


def test_columns_keep_the_dummy_pair(s1_resources):
    jobs = [
        JobRequest("U", f"J{i}", 1e6, 100.0, (1000.0,) * 5, 5) for i in range(3)
    ]
    model = build_relaxed(jobs, s1_resources)
    assert {p for p in views(model).lp_columns if p[0] == model.dummy_id} == {
        (model.dummy_id, j.job_id) for j in jobs
    }


def test_columns_skip_a_resource_without_a_free_pe():
    jobs = [JobRequest("U", "A", 1e6, 100.0, (1000.0,) * 2, 2)]
    resources = [ResourceInfo("R1", 0, 1.0, 100.0), ResourceInfo("R2", 4, 2.0, 100.0)]
    model = build_relaxed(jobs, resources)
    assert ("R1", "A") in model.pair_order  # admissible, but its bound is 0
    assert views(model).lp_columns == ((model.dummy_id, "A"), ("R2", "A"))


def solve_both(model):
    """Objectives with the default columns and with every admissible pair."""
    return [
        relaxed_objective(m, allocation(solve_relaxed(m), m.table))
        for m in (model, every_column(model))
    ]


def test_column_pruning_keeps_the_optimum_on_tiny_instances():
    pruned = 0
    for seed in range(600):
        jobs, resources = tiny_instance(seed)
        model = build_relaxed(jobs, resources)
        fewer, full = solve_both(model)
        assert fewer == pytest.approx(full, abs=1e-9), f"instance seed {seed}"
        pruned += model.columns.sum() < model.admissible.sum()
    assert pruned > 50


@pytest.mark.parametrize("resource_count, job_count", [
    pytest.param(25, 50, id="25"), pytest.param(200, 50, id="200"), pytest.param(50, 200, id="50x200"),
])
@pytest.mark.parametrize("deadline_mode", ["tight", "medium"])
def test_column_pruning_keeps_the_optimum_on_generated_scenarios(
    resource_count, job_count, deadline_mode
):
    """At 200 resources the job-side prefix cuts; at 50 x 200 the batch
    asks for more PEs than the grid holds, no job-side prefix closes, and
    the resource-side prefix cuts."""
    for seed in range(5):
        grid, jobs = generate_scenario(ScenarioConfig(
            resource_count=resource_count, job_count=job_count,
            deadline_mode=deadline_mode, rng_seed=seed,
        ))
        model = build_relaxed(jobs, grid)
        fewer, full = solve_both(model)
        assert fewer == pytest.approx(full, abs=1e-9), f"scenario seed {seed}"
        if resource_count == 200:
            assert model.columns.sum() < model.admissible.sum() / 3
        if job_count == 200:
            job_side = job_side_columns(model)
            assert not (model.columns & ~job_side).any()
            assert model.columns.sum() < job_side.sum() / 2, f"scenario seed {seed}"


@st.composite
def spread_instances(draw):
    """In-guard instances with speeds up to 100x apart and unequal rates."""
    resources = [
        ResourceInfo(
            f"R{i + 1}",
            draw(st.integers(0, 6)),
            draw(st.floats(0.5, 5.0)),
            draw(st.floats(20.0, 2000.0)),
        )
        for i in range(draw(st.integers(1, 3)))
    ]
    jobs = []
    for j in range(draw(st.integers(1, 5))):
        m = draw(st.integers(1, 4))
        jobs.append(
            JobRequest(
                user_id=f"U{j + 1}",
                job_id=f"J{j + 1}",
                budget_gd=draw(st.floats(5.0, 500.0)),
                deadline_s=draw(st.floats(1.0, 60.0)),
                task_sizes_mi=tuple(draw(st.floats(100.0, 4000.0)) for _ in range(m)),
                pe_count=m,
            )
        )
    return jobs, resources


@settings(max_examples=150, deadline=None, derandomize=True)
@given(spread_instances())
def test_solver_matches_brute_force_on_wide_speed_spreads(instance):
    jobs, resources = instance
    model, alloc = build_and_solve(jobs, resources)
    reference = brute_force_relaxed(model)
    assert relaxed_objective(model, alloc) == pytest.approx(
        relaxed_objective(model, reference), rel=1e-9, abs=1e-9
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(spread_instances())
def test_parking_is_a_last_resort_on_wide_speed_spreads(instance):
    """A job holds a PE on the dummy only when no admissible real resource
    has a free PE whose budget weight still fits the job's budget."""
    jobs, resources = instance
    model, alloc = build_and_solve(jobs, resources)
    view = views(model)
    load = Counter()
    spent = Counter()
    for (rid, jid), pes in alloc.items():
        load[rid] += pes
        spent[jid] += view.budget_weight.get((rid, jid), 0.0) * pes
    free = {r.resource_id: r.free_pes - load[r.resource_id] for r in model.resources}
    for job in model.jobs:
        if not alloc.pes(model.dummy_id, job.job_id):
            continue
        limit = budget_limit(job.budget_gd)
        for rid, jid in view.feasible_pairs:
            if jid != job.job_id or rid == model.dummy_id or free[rid] <= 0:
                continue
            assert spent[jid] + view.budget_weight[(rid, jid)] > limit, (
                f"{jid} parks a PE while {rid} has {free[rid]} free and affordable"
            )


@st.composite
def overflowing_instances(draw):
    """In-guard instances whose jobs ask for more PEs than the grid has
    free, on unequally priced machines, with budgets mostly ample (so the
    resource-side prefix applies) and sometimes tight."""
    resources = [
        ResourceInfo(
            f"R{i + 1}",
            draw(st.integers(0, 4)),
            draw(st.floats(0.5, 5.0)),
            draw(st.floats(20.0, 2000.0)),
        )
        for i in range(draw(st.integers(1, 3)))
    ]
    free = sum(r.free_pes for r in resources)
    jobs = []
    while sum(j.pe_count for j in jobs) <= free or len(jobs) < 2:
        m = draw(st.integers(1, 4))
        jobs.append(
            JobRequest(
                user_id=f"U{len(jobs) + 1}",
                job_id=f"J{len(jobs) + 1}",
                budget_gd=draw(st.just(1e6) | st.floats(5.0, 500.0)),
                deadline_s=draw(st.floats(1.0, 60.0)),
                task_sizes_mi=tuple(draw(st.floats(100.0, 4000.0)) for _ in range(m)),
                pe_count=m,
            )
        )
    return jobs, resources


@settings(max_examples=200, deadline=None, derandomize=True)
@given(overflowing_instances())
def test_solver_matches_brute_force_on_overflowing_batches(instance):
    jobs, resources = instance
    model, alloc = build_and_solve(jobs, resources)
    reference = brute_force_relaxed(model)
    assert relaxed_objective(model, alloc) == pytest.approx(
        relaxed_objective(model, reference), rel=1e-9, abs=1e-9
    )


def job_splits(model, j):
    """Every split of job ``j``'s PEs over its columns that fits each
    resource's free PEs and the job's budget: a superset of what the
    job holds in any feasible allocation of the batch."""
    cols = np.flatnonzero(model.columns[j])
    table = model.table
    ranges = [range(min(table.free[r], model.jobs[j].pe_count) + 1) for r in cols]
    for x in itertools.product(*ranges):
        spend = sum(table.weight[j, r] * pes for r, pes in zip(cols, x))
        if sum(x) == model.jobs[j].pe_count and spend <= table.limit[j]:
            yield spend


def spend_bounds(model):
    """Each job's spend bound over its columns: with the column bounds of
    ``_model_arrays``, and with the uncapped min(free, pe_count)."""
    table = model.table
    ji, ri = np.nonzero(model.columns)
    capped = np.zeros(model.columns.shape)
    capped[ji, ri] = _model_arrays(model)[5]
    uncapped = np.where(model.columns, np.minimum(table.free, table.pes[:, None]), 0.0)
    weight = np.where(model.columns, table.weight, 0.0)
    return _spend_bound(weight, capped, table.pes), _spend_bound(weight, uncapped, table.pes)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(spread_instances())
def test_the_spend_bound_covers_every_feasible_split(instance):
    """The bound ``_model_arrays`` keeps budget rows by is at least what
    the job spends in any split that meets its demand and budget."""
    jobs, resources = instance
    model = build_relaxed(jobs, resources)
    bound, _ = spend_bounds(model)
    for j in range(len(model.jobs)):
        for spend in job_splits(model, j):
            assert spend <= bound[j] * (1 + 1e-12), model.jobs[j].job_id


@pytest.mark.parametrize("seed", [66, 111, 113, 190, 198])
def test_a_binding_pair_cap_keeps_the_resource_side_prefix_off(seed):
    """On these overflowing batches every job passes the spend bound with
    its budget-capped column bounds, but not with min(free, pe_count): a
    swap into the resource-side prefix could push a job past its cap, so
    the prefix must not cut, and the optimum stays the brute-force one."""
    jobs, resources = tiny_instance(seed)
    model, alloc = build_and_solve(jobs, resources)
    table = model.table
    assert table.pes.sum() > table.free[~table.dummy].sum()
    capped, uncapped = spend_bounds(model)
    assert (capped <= table.limit).all()
    assert not (uncapped <= table.limit).all()
    assert (model.columns == job_side_columns(model)).all()
    assert relaxed_objective(model, alloc) == pytest.approx(
        relaxed_objective(model, brute_force_relaxed(model)), abs=1e-9
    )


def test_a_slow_free_machine_beats_parking():
    # speeds 20x apart: parking priced off the largest rate alone would
    # cost 50 here, half of B's placement on the slow machine
    resources = [ResourceInfo("R1", 4, 1.0, 100.0), ResourceInfo("R2", 1, 1.0, 2000.0)]
    jobs = [JobRequest("U", jid, 1e6, 1e6, (10000.0,), 1) for jid in ("A", "B")]
    model, alloc = build_and_solve(jobs, resources)
    assert model.dummy_id not in {rid for rid, _ in alloc.entries}
    assert relaxed_objective(model, alloc) == 105.0


def test_no_job_parks_to_save_money_for_another():
    # parking A to give B the cheap machine costs 20 + 100 at A's own
    # parking price, less than placing both (1 + 200)
    resources = [ResourceInfo("R1", 1, 1.0, 100.0), ResourceInfo("R2", 1, 2.0, 100.0)]
    jobs = [
        JobRequest("U", "A", 1.5, 1e6, (100.0,), 1),
        JobRequest("U", "B", 1e6, 1e6, (10000.0,), 1),
    ]
    model, alloc = build_and_solve(jobs, resources)
    assert dict(alloc.entries) == {("R1", "A"): 1, ("R2", "B"): 1}
    assert relaxed_objective(model, alloc) == 201.0


def parked_count(model, alloc):
    return sum(pes for (rid, _), pes in alloc.items() if rid == model.dummy_id)


@st.composite
def contended_instances(draw):
    """One PE per machine on unequally priced machines, single-PE jobs of
    short or ~100x longer tasks, budgets between a job's cheapest and
    dearest PE: placing everyone may need a tight short job on the cheap
    machine and a long job on a dear one."""
    resources = [
        ResourceInfo(f"R{i + 1}", 1, draw(st.floats(0.5, 5.0)), draw(st.floats(20.0, 2000.0)))
        for i in range(draw(st.integers(2, 3)))
    ]
    jobs = []
    for j in range(draw(st.integers(2, 4))):
        size = draw(st.sampled_from([50.0, 5000.0])) * draw(st.floats(1.0, 2.0))
        per_pe = [r.cost_per_pe_second * size / r.pe_speed_mips for r in resources]
        budget = draw(st.floats(min(per_pe), max(per_pe)))
        jobs.append(JobRequest(f"U{j + 1}", f"J{j + 1}", budget, 1e6, (size,), 1))
    return jobs, resources


@settings(max_examples=200, deadline=None, derandomize=True)
@given(contended_instances())
def test_the_relaxation_parks_the_fewest_pes_possible(instance):
    """No allocation of the batch parks fewer PEs than the optimum does:
    the oracle re-solves the same model with parked PEs as the only cost."""
    jobs, resources = instance
    model, alloc = build_and_solve(jobs, resources)
    parking_only = dataclasses.replace(
        model, objective=np.broadcast_to(model.table.dummy.astype(float), model.objective.shape)
    )
    assert parked_count(model, alloc) == parked_count(model, brute_force_relaxed(parking_only))


def test_one_budget_tolerance_in_the_solver_and_the_oracle():
    """Two PEs cost 2000 on a budget 5e-8 short of it: beyond the absolute
    tolerance, so only one PE runs and the other parks."""
    res = ResourceInfo("R1", 4, 1.0, 1.0)
    job = JobRequest("U", "A", 2000.0 - 5e-8, 1e6, (1000.0, 1000.0), 2)
    model = build_relaxed([job], [res])
    alloc = allocation(solve_relaxed(model), model.table)
    assert validate(alloc, [job], model.resources, JobKind.MGN) == []
    assert dict(alloc.entries) == {("R1", "A"): 1, (model.dummy_id, "A"): 1}
    assert brute_force_relaxed(model) == alloc


# --- LP first, integer program on a fractional vertex ------------------------


@functools.cache
def binding_budget_models():
    """The test corpus (``tiny_instance`` 0-1199 and ``fuzz_instance``
    0-299) cut to the models that keep a budget row: the only rows that can
    make an LP vertex fractional."""
    models = []
    for instance, count in ((tiny_instance, 1200), (fuzz_instance, 300)):
        for seed in range(count):
            jobs, resources = instance(seed)
            model = build_relaxed(jobs, resources)
            _, a_ub, *_ = _model_arrays(model)
            capacity_rows = len(np.unique(np.nonzero(model.columns)[1]))
            if a_ub.shape[0] > capacity_rows:
                models.append((f"{instance.__name__}({seed})", model))
    return models


def scipy_matrix(a):
    """A ``Csc`` record as scipy's sparse array."""
    return sparse.csc_array((a.data, a.indices, a.indptr), shape=a.shape)


def scipy_solve(arrays, integer=False):
    """``scipy.optimize.linprog`` on ``_model_arrays``'s tuple, with the
    options ``relaxed.linprog`` gives HiGHS."""
    c, a_ub, b_ub, a_eq, b_eq, ub = arrays
    return scipy_linprog(
        c, A_ub=scipy_matrix(a_ub), b_ub=b_ub, A_eq=scipy_matrix(a_eq), b_eq=b_eq,
        bounds=np.column_stack([np.zeros(len(c)), ub]), method="highs",
        integrality=np.ones(len(c)) if integer else None, options={"mip_rel_gap": 0.0},
    )


def forced_milp(model):
    """The zero-gap integer program's allocation over ``model``'s arrays,
    with no LP pass before it, from scipy's ``linprog``."""
    res = scipy_solve(_model_arrays(model), integer=True)
    assert res.status == 0, res.message
    ji, ri = np.nonzero(model.columns)
    return AllocationMatrix({
        (model.resources[r].resource_id, model.jobs[j].job_id): int(x)
        for j, r, x in zip(ji, ri, np.rint(res.x))
    })


def test_fractional_vertices_fall_back_to_the_integer_program(highs_calls):
    """The integer program runs exactly when the LP vertex is fractional,
    so no rounded fractional vertex is ever taken, and the answer is the
    brute-force optimum wherever the oracle can enumerate (the zero-gap
    integer program's elsewhere: there a rounded vertex can be feasible
    and dearer)."""
    fallbacks = enumerated = 0
    for where, model in binding_budget_models():
        highs_calls.clear()
        alloc = allocation(solve_relaxed(model), model.table)
        lp = highs_calls[0][1]
        lp_fractional = np.abs(lp.x - np.rint(lp.x)).max() > 1e-9
        assert len(highs_calls) == 1 + lp_fractional, where
        fallbacks += lp_fractional
        try:
            reference = brute_force_relaxed(model)
            enumerated += 1
        except TooLargeError:
            reference = forced_milp(model)
        assert relaxed_objective(model, alloc) == pytest.approx(
            relaxed_objective(model, reference), rel=1e-9, abs=1e-9
        ), where
    assert fallbacks > 0
    assert enumerated > 100


def first_batch(config):
    """The jobs and resources of the first period ``run_scenario``
    schedules for ``config``."""
    seen = []

    class Seen(Exception):
        pass

    def capture(jobs, resources, *_):
        seen.append((jobs, resources))
        raise Seen

    with mock.patch.dict(simulator.SCHEDULERS, {"relaxed-mgn": capture}), pytest.raises(Seen):
        simulator.run_scenario(config, "relaxed-mgn")
    return seen[0]


@pytest.mark.parametrize("resource_count, job_count", [(200, 50), (50, 200)])
def test_benchmark_batches_take_the_lp_vertex_unchanged(resource_count, job_count, highs_calls):
    """On the benchmark's traffic the LP vertex is integral, so no fallback
    runs, and it is the allocation the zero-gap integer program returns."""
    for seed in range(3):
        jobs, resources = first_batch(ScenarioConfig(
            resource_count=resource_count, job_count=job_count,
            deadline_mode="medium", rng_seed=seed,
        ))
        model = build_relaxed(jobs, resources)
        highs_calls.clear()
        alloc = allocation(solve_relaxed(model), model.table)
        assert [integer for integer, _ in highs_calls] == [False], f"scenario seed {seed}"
        assert alloc == forced_milp(model), f"scenario seed {seed}"


# --- the direct HiGHS call ----------------------------------------------------


def direct_call_corpus():
    """(where, model, integer): ``tiny_instance`` 0-199, ``fuzz_instance``
    0-299 and the first batches of the benchmark's shapes as LPs, and the
    binding-budget models both as LPs and as integer programs."""
    for instance, count in ((tiny_instance, 200), (fuzz_instance, 300)):
        for seed in range(count):
            model = build_relaxed(*instance(seed))
            if model.jobs:
                yield f"{instance.__name__}({seed})", model, False
    for resource_count, job_count in ((200, 50), (50, 200)):
        for seed in range(3):
            model = build_relaxed(*first_batch(ScenarioConfig(
                resource_count=resource_count, job_count=job_count,
                deadline_mode="medium", rng_seed=seed,
            )))
            yield f"{resource_count}x{job_count} seed {seed}", model, False
    for where, model in binding_budget_models():
        yield where, model, False
        yield where, model, True


@pytest.mark.skipif(relaxed_module._core is None, reason="scipy without its HiGHS binding")
def test_the_direct_highs_call_returns_scipy_linprogs_x_bit_for_bit():
    """Same model, same options: HiGHS returns the same ``x`` whichever way
    it is called.  Fails loudly on a scipy whose binding or defaults move."""
    fractional = 0
    for where, model, integer in direct_call_corpus():
        arrays = _model_arrays(model)
        direct = relaxed_module.linprog(*arrays, integer=integer)
        reference = scipy_solve(arrays, integer)
        assert (direct.status, reference.status) == (0, 0), where
        assert direct.x.tobytes() == reference.x.tobytes(), (where, integer)
        fractional += not integer and np.abs(direct.x - np.rint(direct.x)).max() > 1e-9
    assert fractional > 0  # the integer-program comparisons are not vacuous


def scipy_stacked(model):
    """The constraint matrix as scipy stacks it: the capacity and binding
    budget rows and the demand rows of ``model.columns``, each a
    ``csr_matrix`` from (row, column) triplets, under ``vstack`` as CSC."""
    table = model.table
    ji, ri = np.nonzero(model.columns)
    n = len(ji)
    k = np.arange(n)
    w = table.weight[ji, ri]
    used = np.unique(ri)
    cap_row = np.searchsorted(used, ri)
    weight, bound = np.zeros((2, len(model.jobs), len(used)))
    weight[ji, cap_row], bound[ji, cap_row] = w, _model_arrays(model)[5]
    binds = _spend_bound(weight, bound, table.pes) > table.limit
    bud_row = len(used) + np.cumsum(binds) - 1
    terms = (w > 0.0) & binds[ji]
    a_ub = sparse.csr_matrix(
        (np.concatenate([np.ones(n), w[terms]]),
         (np.concatenate([cap_row, bud_row[ji[terms]]]), np.concatenate([k, k[terms]]))),
        shape=(len(used) + binds.sum(), n),
    )
    a_eq = sparse.csr_matrix((np.ones(n), (ji, k)), shape=(len(model.jobs), n))
    return sparse.csc_array(sparse.vstack([a_ub, a_eq]))


def matrix_corpus():
    """(where, model): ``tiny_instance`` 0-599, ``fuzz_instance`` 0-299,
    the binding-budget models, and seeds 0-3 of the first batches of 25x50
    tight and 50x50, 200x50 and 50x200 medium."""
    for instance, count in ((tiny_instance, 600), (fuzz_instance, 300)):
        for seed in range(count):
            model = build_relaxed(*instance(seed))
            if model.jobs:
                yield f"{instance.__name__}({seed})", model
    yield from binding_budget_models()
    shapes = ((25, 50, "tight"), (50, 50, "medium"), (200, 50, "medium"), (50, 200, "medium"))
    for resource_count, job_count, mode in shapes:
        for seed in range(4):
            model = build_relaxed(*first_batch(ScenarioConfig(
                resource_count=resource_count, job_count=job_count,
                deadline_mode=mode, rng_seed=seed,
            )))
            yield f"{resource_count}x{job_count} {mode} seed {seed}", model


def test_the_numpy_matrix_equals_scipys_stacking():
    """``_stack(a_ub, a_eq)``, the arrays HiGHS receives, equals scipy's
    CSC of the same rows element for element and in dtype; and every
    model with a job has a capacity row, its dummy column's."""
    budget_rows = 0
    for where, model in matrix_corpus():
        _, a_ub, b_ub, a_eq, b_eq, _ = _model_arrays(model)
        assert a_ub.shape[0] == len(b_ub) >= 1, where
        assert a_eq.shape[0] == len(b_eq) == len(model.jobs), where
        a, reference = _stack(a_ub, a_eq), scipy_stacked(model)
        assert a.shape == reference.shape, where
        for mine, theirs in zip(a[:3], (reference.indptr, reference.indices, reference.data)):
            assert mine.dtype == theirs.dtype, where
            assert mine.tobytes() == theirs.tobytes(), where
        budget_rows += a_ub.shape[0] > len(np.unique(np.nonzero(model.columns)[1]))
    assert budget_rows > 100  # the budget entries are covered


def test_without_the_highs_binding_solve_relaxed_calls_scipy_linprog(monkeypatch):
    """``linprog`` imports scipy's function where it calls it, so the patch
    on ``scipy.optimize`` is the function it reaches."""
    direct = [build_and_solve(*tiny_instance(seed))[1] for seed in range(50)]
    calls = []

    def recording(*args, **kwargs):
        calls.append(kwargs["integrality"])
        return scipy_linprog(*args, **kwargs)

    monkeypatch.setattr(relaxed_module, "_core", None)
    monkeypatch.setattr(scipy.optimize, "linprog", recording)
    assert [build_and_solve(*tiny_instance(seed))[1] for seed in range(50)] == direct
    assert calls


@pytest.mark.parametrize("integer", [False, True])
def test_an_infeasible_program_returns_a_failed_status_and_no_x(integer):
    # one column bounded by 2 that must carry 5, with room for 10
    one = Csc(np.array([0, 1], dtype=np.int32), np.zeros(1, dtype=np.int32), np.ones(1), (1, 1))
    res = relaxed_module.linprog(
        np.array([1.0]), one, np.array([10.0]), one, np.array([5]), np.array([2.0]),
        integer=integer,
    )
    assert res.status != 0
    assert res.message
    assert res.x is None


def test_a_failed_highs_solve_raises_naming_the_status(s1_jobs, s1_resources, monkeypatch):
    monkeypatch.setattr(
        relaxed_module, "linprog",
        lambda *args, **kwargs: relaxed_module.HighsResult(None, 2, "Infeasible", 0),
    )
    with pytest.raises(RuntimeError, match="status 2: Infeasible"):
        solve_relaxed(build_relaxed(s1_jobs, s1_resources))


# --- oracles ----------------------------------------------------------------


def test_brute_force_matches_on_s1(s1_jobs, s1_resources):
    model = build_relaxed(s1_jobs, s1_resources)
    alloc = brute_force_relaxed(model)
    assert dict(alloc.entries) == S1_OPTIMAL_ALLOC
    assert relaxed_objective(model, alloc) == S1_OPTIMAL_COST


def test_brute_force_guard():
    jobs = [JobRequest("U", f"J{i}", 1e6, 1e6, (100.0,) * 6, 6) for i in range(4)]
    res = [ResourceInfo(f"R{i}", 30, 1.0, 100.0) for i in range(2)]
    model = build_relaxed(jobs, res)
    with pytest.raises(TooLargeError):
        brute_force_relaxed(model)  # 24 PEs > 20


def test_oracle_equivalence_over_random_instances():
    """solve_relaxed and the exhaustive enumerator agree on the objective
    for every in-guard instance (the allocations may differ on ties)."""
    checked = 0
    for seed in range(120):
        jobs, resources = tiny_instance(seed)
        model, alloc = build_and_solve(jobs, resources)
        reference = brute_force_relaxed(model)
        assert relaxed_objective(model, alloc) == pytest.approx(
            relaxed_objective(model, reference), abs=1e-9
        ), f"instance seed {seed}"
        assert validate(alloc, jobs, model.resources, JobKind.MGN) == []
        checked += 1
    assert checked == 120


def test_relaxed_is_lower_bound_for_whole_job_schedules():
    for seed in range(60):
        jobs, resources = tiny_instance(seed)
        model, alloc = build_and_solve(jobs, resources)
        sgn = brute_force_sgn(jobs, resources)
        if sgn is None:
            continue
        # compare on instances the relaxation also served fully for real
        if any(rid == model.dummy_id for (rid, _), _pes in alloc.items()):
            continue
        relaxed_cost = relaxed_objective(model, alloc)
        sgn_cost = schedule_cost(sgn, jobs, resources)
        assert relaxed_cost <= sgn_cost + 1e-9, f"instance seed {seed}"


def test_adding_a_resource_never_hurts():
    # only meaningful while no job is parked: the parking deterrent is
    # scaled from the real resource mix, so it shifts when the mix grows
    extra = ResourceInfo("Rx", 6, 2.5, 300.0)
    compared = 0
    for seed in range(120):
        jobs, resources = tiny_instance(seed)
        model, alloc = build_and_solve(jobs, resources)
        bigger_model, bigger = build_and_solve(jobs, resources + [extra])

        def parked(m, a):
            return any(rid == m.dummy_id for rid, _ in a.entries)

        if parked(model, alloc) or parked(bigger_model, bigger):
            continue
        assert (
            relaxed_objective(bigger_model, bigger)
            <= relaxed_objective(model, alloc) + 1e-9
        ), f"instance seed {seed}"
        compared += 1
    assert compared > 25


def test_brute_force_sgn_s1(s1_jobs, s1_resources):
    alloc = brute_force_sgn(s1_jobs, s1_resources)
    assert dict(alloc.entries) == S1_OPTIMAL_ALLOC


def test_brute_force_sgn_none_when_impossible(s1_resources):
    job = JobRequest("U", "J", 1e6, 100.0, (1000.0,) * 5, 5)  # 5 > any n_i
    assert brute_force_sgn([job], s1_resources) is None
