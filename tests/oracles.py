"""Test-only oracles: the whole-job rule one pair at a time, the
id-keyed schedule builder and the record it returns, greedy and the GA's
decode on that scalar rule, exhaustive searches for small instances, the
money an allocation spends, the converters between id-keyed allocations
and PE arrays over a ``PairTable`` and its dummy's id, gene maps (job id
-> resource id) and the GA's gene rows, the penalised fitness of one gene
map, the relaxation's canonical objective, the per-pair dict views of a
built relaxation that the oracles walk, and the GA's scalar breeding
loop."""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping, Sequence
from itertools import accumulate
from math import inf
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from metagrid.model import (
    AllocationMatrix,
    JobRequest,
    PairTable,
    ResourceInfo,
    UnknownIdError,
    budget_limit,
    ensure_dummy,
    exec_time,
    meets_deadline,
    pair_charge,
    pair_table,
)
from metagrid.ga import FitnessTables
from metagrid.relaxed import RelaxedModel


# --- the whole-job rule, one pair at a time ----------------------------------
# References for ``PairTable``: ``cost`` is ``placement_cost``, ``breaches``
# ``breach_count`` and ``feasible`` ``placement_feasible``, bit for bit.


def placement_cost(job: JobRequest, resource: ResourceInfo) -> float:
    """Money spent placing the whole job (all PEs) on one resource."""
    return resource.cost_per_pe_second * job.pe_count * exec_time(job, resource)


def breach_count(job: JobRequest, resource: ResourceInfo) -> int:
    """Deadline plus budget breaches (0-2) of the whole job on one real
    resource.  Capacity is the caller's concern."""
    late = not meets_deadline(job, resource)
    return late + (pair_charge(job, resource, job.pe_count) > budget_limit(job.budget_gd))


def qos_index(job: JobRequest) -> float:
    """Reference for ``PairTable.rank``: budget per deadline-second per PE
    (higher = richer and more urgent per unit of work, scheduled first)."""
    return job.budget_gd / (job.deadline_s * job.pe_count)


def placement_feasible(job: JobRequest, resource: ResourceInfo) -> bool:
    """Whole-job single-resource eligibility: deadline and budget only.

    Dummy resources are always eligible (parking defers the job instead of
    running it).  Capacity is the caller's concern.
    """
    return resource.is_dummy or breach_count(job, resource) == 0


class IdSchedule(NamedTuple):
    """A schedule as the oracles build it, by ids: the three derived
    fields of ``Schedule`` that ``conftest.same_schedule`` compares."""

    assignments: AllocationMatrix
    dummy_jobs: frozenset[str] = frozenset()
    total_cost_gd: float = 0.0


def schedule_by_id(
    alloc: AllocationMatrix,
    jobs: Sequence[JobRequest],
    resources: Sequence[ResourceInfo],
) -> IdSchedule:
    """Reference for ``build_schedule``, keyed by ids: any job touching a
    dummy resource is parked whole on the dummy of least id; every other
    job keeps its fragments, each costing rate x PEs x ``exec_time``,
    summed per job in resource-id order, and the total adds the placed
    jobs' costs left to right in job-id order."""
    jobs_by_id = {j.job_id: j for j in jobs}
    res_by_id = {r.resource_id: r for r in resources}
    dummy_ids = {r.resource_id for r in resources if r.is_dummy}
    by_job = alloc.by_job()
    parked = {jid for jid, allocs in by_job.items() if any(rid in dummy_ids for rid in allocs)}

    dummy_home = min(dummy_ids, default=None)
    entries: dict[tuple[str, str], int] = {}
    total = 0.0
    for jid in sorted(by_job):
        job = jobs_by_id[jid]
        if jid in parked:
            entries[(dummy_home, jid)] = job.pe_count
            continue
        cost = 0.0
        for rid in sorted(by_job[jid]):
            pes = by_job[jid][rid]
            res = res_by_id[rid]
            entries[(rid, jid)] = pes
            cost += res.cost_per_pe_second * pes * exec_time(job, res)
        total += cost
    return IdSchedule(AllocationMatrix(entries), frozenset(parked), total)


def parking_id(table: PairTable) -> str:
    """The resource id of ``table``'s dummy column, ``parking``."""
    return table.resources[table.parking].resource_id


def pe_array(alloc: AllocationMatrix, table: PairTable) -> np.ndarray:
    """The jobs x resources int array of PE counts over ``table`` that
    holds the id-keyed ``alloc``."""
    rows = {j.job_id: i for i, j in enumerate(table.jobs)}
    columns = {r.resource_id: k for k, r in enumerate(table.resources)}
    placed = np.zeros(table.cost.shape, dtype=int)
    for (rid, jid), pes in alloc.entries.items():
        placed[rows[jid], columns[rid]] = pes
    return placed


def allocation(placed: np.ndarray, table: PairTable) -> AllocationMatrix:
    """The id-keyed allocation of a PE array over ``table``."""
    ji, ki = np.nonzero(placed)
    return AllocationMatrix({
        (table.resources[k].resource_id, table.jobs[j].job_id): pes
        for j, k, pes in zip(ji.tolist(), ki.tolist(), placed[ji, ki].tolist())
    })


def scalar_greedy(jobs: Sequence[JobRequest], resources: Sequence[ResourceInfo]) -> IdSchedule:
    """Reference for ``greedy_schedule``: lowest-rate feasible resource
    first, one whole job at a time, each pair checked by
    ``placement_feasible``."""
    if not jobs:
        return IdSchedule(AllocationMatrix({}))
    pool, dummy_id = ensure_dummy(jobs, resources)
    real = [r for r in pool if not r.is_dummy]
    available = {r.resource_id: r.free_pes for r in real}
    ranked = sorted(real, key=lambda r: (r.cost_per_pe_second, r.resource_id))

    entries: dict[tuple[str, str], int] = {}
    order = sorted(jobs, key=lambda j: (-qos_index(j), j.job_id))
    for job in order:
        placed = None
        for res in ranked:
            if available[res.resource_id] < job.pe_count:
                continue
            if not placement_feasible(job, res):
                continue
            placed = res.resource_id
            break
        if placed is None:
            entries[(dummy_id, job.job_id)] = job.pe_count
        else:
            available[placed] -= job.pe_count
            entries[(placed, job.job_id)] = job.pe_count

    return schedule_by_id(AllocationMatrix(entries), jobs, pool)


def scalar_decode(
    genes: Mapping[str, str],
    jobs: Sequence[JobRequest],
    resources: Sequence[ResourceInfo],
) -> IdSchedule:
    """Reference for ``decode_schedule``: park each gene on a dummy or on a
    resource that ``placement_feasible`` rejects, then shed each
    overloaded resource's largest jobs until its PE capacity holds."""
    pool, dummy_id = ensure_dummy(jobs, resources)
    res_by_id = {r.resource_id: r for r in pool}
    dummy_ids = {r.resource_id for r in pool if r.is_dummy}
    jobs_by_id = {j.job_id: j for j in jobs}

    assign: dict[str, str] = {}
    for jid in sorted(jobs_by_id):
        rid = genes[jid]
        if rid in dummy_ids or not placement_feasible(jobs_by_id[jid], res_by_id[rid]):
            rid = dummy_id
        assign[jid] = rid

    holders: dict[str, list[str]] = {}
    for jid, rid in assign.items():
        if rid != dummy_id:
            holders.setdefault(rid, []).append(jid)
    for rid in sorted(holders):
        cap = res_by_id[rid].free_pes
        queue = holders[rid]
        used = sum(jobs_by_id[j].pe_count for j in queue)
        while used > cap:
            shed = min(queue, key=lambda j: (-jobs_by_id[j].pe_count, j))
            queue.remove(shed)
            used -= jobs_by_id[shed].pe_count
            assign[shed] = dummy_id

    entries = {
        (rid, jid): jobs_by_id[jid].pe_count for jid, rid in assign.items()
    }
    return schedule_by_id(AllocationMatrix(entries), jobs, pool)


class TooLargeError(ValueError):
    """Instance exceeds the brute-force enumeration guard."""


class InfeasibleModelError(ValueError):
    """No integer allocation of the model meets every demand and budget.
    A model from ``build_relaxed`` holds the dummy and never raises it."""


def views(model: RelaxedModel) -> SimpleNamespace:
    """Per-pair views of a model's arrays, keyed by (resource id, job id):

    * ``pair_order``: the admissible pairs, job-major
    * ``feasible_pairs``: the same pairs as a set
    * ``cost_coeff``: each admissible pair's objective coefficient
    * ``budget_weight``: each admissible pair's nonzero budget weight
    * ``lp_columns``: the pairs the solver sees, in ``pair_order`` order
    """
    pairs = model.pair_order
    ji, ri = np.nonzero(model.table.admissible)
    weights = model.table.weight[ji, ri].tolist()
    keep = model.columns[ji, ri].tolist()
    return SimpleNamespace(
        pair_order=pairs,
        feasible_pairs=frozenset(pairs),
        cost_coeff=dict(zip(pairs, model.objective[ji, ri].tolist())),
        budget_weight={p: w for p, w in zip(pairs, weights) if w > 0.0},
        lp_columns=tuple(p for p, k in zip(pairs, keep) if k),
    )


def job_side_columns(model: RelaxedModel) -> np.ndarray:
    """The columns the job-side prefix keeps, less those on resources
    without a free PE, plus every dummy pair (``relaxed`` module
    docstring), walked one job at a time: the columns before the
    resource-side prefix cuts any."""
    table = model.table
    demand = sum(job.pe_count for job in table.jobs)
    columns = np.zeros_like(model.columns)
    for j in range(len(table.jobs)):
        ranked = sorted(
            (table.coeff[j, r], r) for r in range(len(table.resources))
            if table.admissible[j, r] and not table.dummy[r]
        )
        covered = 0
        for _, r in ranked:
            if covered >= demand:
                break
            columns[j, r] = table.free[r] > 0
            covered += table.free[r]
        columns[j] |= table.dummy
    return columns


def schedule_cost(
    alloc: AllocationMatrix,
    jobs: Sequence[JobRequest],
    resources: Sequence[ResourceInfo],
) -> float:
    """Total money the allocation spends on real (non-dummy) resources.

    Each entry contributes rate x PEs x execution time.  Raises
    UnknownIdError if an entry references an unknown job or resource.
    """
    jobs_by_id = {j.job_id: j for j in jobs}
    res_by_id = {r.resource_id: r for r in resources}
    total = 0.0
    for (rid, jid), pes in alloc.items():
        if rid not in res_by_id:
            raise UnknownIdError(f"allocation references unknown resource {rid}")
        if jid not in jobs_by_id:
            raise UnknownIdError(f"allocation references unknown job {jid}")
        res = res_by_id[rid]
        if res.is_dummy:
            continue
        job = jobs_by_id[jid]
        total += res.cost_per_pe_second * pes * exec_time(job, res)
    return total


def gene_row(genes: Mapping[str, str], table: PairTable) -> tuple[int, ...]:
    """The GA's gene row of a gene map: each job's resource as a column
    index into ``table.resources``, in ``table.jobs`` order."""
    columns = {r.resource_id: k for k, r in enumerate(table.resources)}
    return tuple(columns[genes[job.job_id]] for job in table.jobs)


def gene_map(row: Sequence[int], table: PairTable) -> dict[str, str]:
    """The gene map of a gene row over ``table``."""
    return {job.job_id: table.resources[k].resource_id for job, k in zip(table.jobs, row)}


def fitness(
    genes: Mapping[str, str],
    jobs: Sequence[JobRequest],
    resources: Sequence[ResourceInfo],
    penalty_weight: float | None = None,
) -> float:
    """Penalised cost of one gene map (lower is better); 0.0 for no jobs."""
    if not jobs:
        return 0.0
    table = pair_table(jobs, resources)
    tables = FitnessTables(table)
    if penalty_weight is not None:
        tables.weight = penalty_weight
    return float(tables.score(np.array([gene_row(genes, table)]))[0])


def relaxed_objective(model: RelaxedModel, alloc: AllocationMatrix) -> float:
    """Canonical objective: coefficient-weighted PE counts summed in the
    model's fixed pair order (so equal allocations give identical floats).
    Includes dummy pairs at their deterrent price."""
    view = views(model)
    total = 0.0
    for key in view.pair_order:
        pes = alloc.pes(*key)
        if pes:
            total += view.cost_coeff[key] * pes
    return total


def brute_force_relaxed(model: RelaxedModel) -> AllocationMatrix:
    """Reference oracle: exhaustive search over all integer allocations.

    Guarded to small instances (total PEs <= 20, at most 4 resources).
    Enumerates jobs in id order and, per job, PE splits over its admissible
    resources in id order with counts ascending, keeping the first optimum
    found -- i.e. the lexicographically smallest optimal vector in
    job-major order.

    A branch is cut when no completion can beat the best found: when the
    unplaced PEs cost too much even at the cheapest rate each resource's
    free PEs allow, when they exceed those free PEs, or when the current
    job's PEs left overrun its budget at its lightest weight.  Each of
    these holds for every feasible completion, so the cuts never change
    the answer; the bounds carry a 1e-9 relative slack against rounding.
    """
    total_pes = sum(j.pe_count for j in model.table.jobs)
    if total_pes > 20 or len(model.table.resources) > 4:
        raise TooLargeError(
            f"brute force limited to 20 total PEs / 4 resources, "
            f"got {total_pes} PEs / {len(model.table.resources)} resources"
        )
    view = views(model)
    jobs = model.table.jobs  # sorted by id
    limit = dict(zip((j.job_id for j in jobs), model.table.limit.tolist()))

    # admissible resources, cheapest per-PE coefficient, and the least
    # budget weight on each suffix of the admissible resources, per job
    arcs: dict[str, list[str]] = {}
    cheapest: dict[str, float] = {}
    lightest: dict[str, list[float]] = {}
    for job in jobs:
        rids = sorted(rid for (rid, jid) in view.feasible_pairs if jid == job.job_id)
        if not rids:
            raise InfeasibleModelError(f"job {job.job_id} has no admissible pair")
        arcs[job.job_id] = rids
        cheapest[job.job_id] = min(view.cost_coeff[(rid, job.job_id)] for rid in rids)
        weights = [view.budget_weight.get((rid, job.job_id), 0.0) for rid in rids]
        lightest[job.job_id] = [min(weights[ai:], default=inf) for ai in range(len(rids) + 1)]
        if job.pe_count * lightest[job.job_id][0] * (1 - 1e-9) > limit[job.job_id]:
            raise InfeasibleModelError(f"job {job.job_id} cannot meet its budget")

    remaining_lb = [0.0] * (len(jobs) + 1)
    remaining_pes = [0] * (len(jobs) + 1)
    for i in range(len(jobs) - 1, -1, -1):
        remaining_lb[i] = remaining_lb[i + 1] + cheapest[jobs[i].job_id] * jobs[i].pe_count
        remaining_pes[i] = remaining_pes[i + 1] + jobs[i].pe_count

    # rates[ji][ai]: (rate, resource) in ascending order, where a rate is
    # the cheapest coefficient of any PE still to place there once job ji
    # is split up to its resource ai: its own on rids[ai:], every later
    # job's on its admissible resources
    rates: list[list[list[tuple[float, str]]]] = []
    later: dict[str, float] = {}
    for job in reversed(jobs):
        rids = arcs[job.job_id]
        per_split = []
        for ai in range(len(rids) + 1):
            best_rate = dict(later)
            for rid in rids[ai:]:
                rate = view.cost_coeff[(rid, job.job_id)]
                best_rate[rid] = min(rate, best_rate.get(rid, rate))
            per_split.append(sorted((rate, rid) for rid, rate in best_rate.items()))
        rates.append(per_split)
        later = {rid: rate for rate, rid in per_split[0]}
    rates.reverse()

    best_obj = float("inf")
    best: dict[tuple[str, str], int] | None = None
    capacity = {r.resource_id: r.free_pes for r in model.table.resources}
    current: dict[tuple[str, str], int] = {}

    def fill_cost(demand: int, order: list[tuple[float, str]]) -> float:
        """Least cost of ``demand`` PEs at ``order``'s rates within the
        free capacity left; inf when they do not fit."""
        cost = 0.0
        for rate, rid in order:
            if demand <= 0:
                break
            take = min(capacity[rid], demand)
            cost += rate * take
            demand -= take
        return cost if demand <= 0 else inf

    def place_job(ji: int, partial_cost: float) -> None:
        nonlocal best_obj, best
        if partial_cost + remaining_lb[ji] > best_obj + 1e-12:
            return
        if ji == len(jobs):
            if partial_cost < best_obj - 1e-12:
                best_obj = partial_cost
                best = dict(current)
            return
        job = jobs[ji]
        rids = arcs[job.job_id]

        def split(ai: int, left: int, cost_so_far: float, spent: float) -> None:
            # optimistic completion: rest of this job at its cheapest rate,
            # every later job at its own cheapest rate
            if cost_so_far + cheapest[job.job_id] * left + remaining_lb[ji + 1] > best_obj + 1e-12:
                return
            # the same with each resource's free PEs counted: no completion
            # when the PEs left exceed them
            rest = fill_cost(left + remaining_pes[ji + 1], rates[ji][ai])
            if rest == inf or cost_so_far + rest * (1 - 1e-9) > best_obj + 1e-12:
                return
            # nor when the PEs left of this job overrun its budget
            if left and (spent + left * lightest[job.job_id][ai]) * (1 - 1e-9) > limit[job.job_id]:
                return
            if ai == len(rids):
                if left == 0:
                    place_job(ji + 1, cost_so_far)
                return
            rid = rids[ai]
            key = (rid, job.job_id)
            cap = min(capacity[rid], left)
            w = view.budget_weight.get(key, 0.0)
            for take in range(0, cap + 1):
                new_spent = spent + w * take
                if new_spent > limit[job.job_id]:
                    break
                if take:
                    current[key] = take
                    capacity[rid] -= take
                split(ai + 1, left - take,
                      cost_so_far + view.cost_coeff[key] * take, new_spent)
                if take:
                    del current[key]
                    capacity[rid] += take

        split(0, job.pe_count, partial_cost, 0.0)

    place_job(0, 0.0)
    if best is None:
        raise InfeasibleModelError("no integer allocation satisfies the demands")
    return AllocationMatrix(best)


def brute_force_sgn(
    jobs: Sequence[JobRequest],
    resources: Sequence[ResourceInfo],
) -> AllocationMatrix | None:
    """Optimal whole-job-per-resource assignment by exhaustive search.

    Real resources only (no parking): returns None when some job cannot be
    placed in any arrangement.  Same size guard as brute_force_relaxed.
    """
    total_pes = sum(j.pe_count for j in jobs)
    real = sorted((r for r in resources if not r.is_dummy), key=lambda r: r.resource_id)
    if total_pes > 20 or len(real) > 4:
        raise TooLargeError("SGN brute force limited to 20 total PEs / 4 resources")
    job_list = sorted(jobs, key=lambda j: j.job_id)

    options: list[list[tuple[str, float]]] = []
    for job in job_list:
        opts = [(res.resource_id, placement_cost(job, res))
                for res in real if placement_feasible(job, res)]
        if not opts:
            return None
        options.append(opts)

    capacity = {r.resource_id: r.free_pes for r in real}
    best_obj = float("inf")
    best: dict[tuple[str, str], int] | None = None
    current: dict[tuple[str, str], int] = {}

    def assign(ji: int, cost: float) -> None:
        nonlocal best_obj, best
        if cost > best_obj + 1e-12:
            return
        if ji == len(job_list):
            if cost < best_obj - 1e-12:
                best_obj = cost
                best = dict(current)
            return
        job = job_list[ji]
        for rid, pair_cost in options[ji]:
            if capacity[rid] < job.pe_count:
                continue
            capacity[rid] -= job.pe_count
            current[(rid, job.job_id)] = job.pe_count
            assign(ji + 1, cost + pair_cost)
            del current[(rid, job.job_id)]
            capacity[rid] += job.pe_count

    assign(0, 0.0)
    if best is None:
        return None
    return AllocationMatrix(best)


def scalar_generation(
    rows: list[list[int]], fits: list[float], params, draws, cuts, genes, values
) -> list[list[int]]:
    """Reference for ``_breed`` on ``mutate``'s four arrays, pair by pair in
    Python lists: the ``elitism`` fittest rows (ties in row order), then
    each pair's two roulette picks (the first member whose running weight
    total reaches the draw) crossed at its cut, then each reset at its flat
    position."""
    n_genes = len(rows[0])
    ranked = sorted(range(len(rows)), key=fits.__getitem__)
    next_rows = [list(rows[i]) for i in ranked[: params.elitism]]
    f_max = max(fits)
    floor = 1e-6 * f_max if f_max > 0 else 1.0
    weights = [(f_max - f) + floor for f in fits]
    prefix = list(accumulate(weights))
    total = prefix[-1]
    picks = [min(bisect_left(prefix, u * total), len(rows) - 1) for u in draws.tolist()]
    for pair, cut in enumerate(cuts.tolist()):
        a, b = rows[picks[2 * pair]], rows[picks[2 * pair + 1]]
        next_rows += [a[:cut] + b[cut:], b[:cut] + a[cut:]]
    del next_rows[params.population_size :]
    for gene, value in zip(genes.tolist(), values.tolist()):
        next_rows[gene // n_genes][gene % n_genes] = value
    return next_rows
