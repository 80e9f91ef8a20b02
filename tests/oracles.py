"""Test-only oracles: exhaustive searches for small instances, the
relaxation's canonical objective, and the per-pair dict views of a built
relaxation that the oracles walk."""

from __future__ import annotations

from collections.abc import Sequence
from types import SimpleNamespace

import numpy as np

from metagrid.model import (
    AllocationMatrix,
    DEFAULT_CONFIG,
    JobRequest,
    ResourceInfo,
    SchedulerConfig,
    placement_cost,
    placement_feasible,
)
from metagrid.relaxed import InfeasibleError, RelaxedModel


class TooLargeError(ValueError):
    """Instance exceeds the brute-force enumeration guard."""


def views(model: RelaxedModel) -> SimpleNamespace:
    """Per-pair views of a model's arrays, keyed by (resource id, job id):

    * ``pair_order``: the admissible pairs, job-major
    * ``feasible_pairs``: the same pairs as a set
    * ``cost_coeff``: each admissible pair's objective coefficient
    * ``budget_weight``: each admissible pair's nonzero budget weight
    * ``lp_columns``: the pairs the solver sees, in ``pair_order`` order
    """
    pairs = model.pair_order
    ji, ri = np.nonzero(model.admissible)
    weights = model.table.weight[ji, ri].tolist()
    keep = model.columns[ji, ri].tolist()
    return SimpleNamespace(
        pair_order=pairs,
        feasible_pairs=frozenset(pairs),
        cost_coeff=dict(zip(pairs, model.objective[ji, ri].tolist())),
        budget_weight={p: w for p, w in zip(pairs, weights) if w > 0.0},
        lp_columns=tuple(p for p, k in zip(pairs, keep) if k),
    )


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
    """
    total_pes = sum(j.pe_count for j in model.jobs)
    if total_pes > 20 or len(model.resources) > 4:
        raise TooLargeError(
            f"brute force limited to 20 total PEs / 4 resources, "
            f"got {total_pes} PEs / {len(model.resources)} resources"
        )
    view = views(model)
    jobs = model.jobs  # sorted by id
    limit = dict(zip((j.job_id for j in jobs), model.table.limit.tolist()))

    # admissible resources and cheapest per-PE coefficient per job
    arcs: dict[str, list[str]] = {}
    cheapest: dict[str, float] = {}
    for job in jobs:
        rids = sorted(rid for (rid, jid) in view.feasible_pairs if jid == job.job_id)
        if not rids:
            raise InfeasibleError(f"job {job.job_id} has no admissible pair")
        arcs[job.job_id] = rids
        cheapest[job.job_id] = min(view.cost_coeff[(rid, job.job_id)] for rid in rids)

    remaining_lb = [0.0] * (len(jobs) + 1)
    for i in range(len(jobs) - 1, -1, -1):
        remaining_lb[i] = remaining_lb[i + 1] + cheapest[jobs[i].job_id] * jobs[i].pe_count

    best_obj = float("inf")
    best: dict[tuple[str, str], int] | None = None
    capacity = {r.resource_id: r.free_pes for r in model.resources}
    current: dict[tuple[str, str], int] = {}

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
        raise InfeasibleError("no integer allocation satisfies the demands")
    return AllocationMatrix(best)


def brute_force_sgn(
    jobs: Sequence[JobRequest],
    resources: Sequence[ResourceInfo],
    config: SchedulerConfig = DEFAULT_CONFIG,
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
                for res in real if placement_feasible(job, res, config)]
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
