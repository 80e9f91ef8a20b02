"""Greedy whole-job scheduler used as the comparison baseline.

Jobs are taken most-urgent-first (``qos_index`` descending — high budget
per unit of deadline-time and PE demand goes first) and each is placed
whole on the cheapest-rate real resource that has enough free PEs and
meets the job's deadline and budget.  Jobs with no such resource are
parked on the dummy.
"""

from __future__ import annotations

from collections.abc import Sequence

from .model import (
    AllocationMatrix,
    JobRequest,
    ResourceInfo,
    Schedule,
    build_schedule,
    ensure_dummy,
    placement_feasible,
    qos_index,
)


def greedy_schedule(jobs: Sequence[JobRequest], resources: Sequence[ResourceInfo]) -> Schedule:
    """Lowest-rate feasible resource first, one whole job at a time."""
    if not jobs:
        return Schedule.empty()
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

    return build_schedule(AllocationMatrix(entries), jobs, pool)
