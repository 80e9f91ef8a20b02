"""Consolidation of a split-allowed relaxation solution into whole-job
placements.

The relaxation may scatter a job's PEs over several providers; SGN jobs
need all PEs on one resource.  ``modified_min_cost`` fixes that in the
minimum-cost-method spirit:

* jobs already on a single provider are frozen there, consuming capacity;
* each multi-provider job is re-placed whole on one of *its own* relaxed
  providers — tried in order of how many PEs the relaxation put there
  (most first; ties prefer the cheaper placement, then the resource id);
* consuming a provider evicts the tentative holds other (still unplaced)
  jobs had on it: ``interchange_capacity`` re-homes each evictee whole on
  one of the consuming job's other relaxed providers if capacity, deadline
  and budget allow, otherwise parks it on the dummy;
* jobs with no viable provider are parked, and a final greedy pass
  (``schedule_dummy_jobs``) rescues parked jobs onto the cheapest real
  resource with room.

"Cheaper" always means the money the whole placement costs
(``placement_cost``: rate x PEs x execution time), not the bare rate: a
faster resource at a higher rate can be the cheaper home for a job.

Worst case the interchange scans every job against every resource for each
consolidated job, so the step count grows no faster than
(resources x jobs^2).  ``MmcStats`` exposes an instrumented step counter so
tests can check that bound empirically.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from .model import (
    AllocationMatrix,
    JobRequest,
    ResourceInfo,
    Schedule,
    build_schedule,
    ensure_dummy,
    pair_table,
    placement_cost,
    placement_feasible,
    qos_index,
)


@dataclass(frozen=True)
class JobMapping:
    """Where the relaxation put one job: (resource_id, PE count) pairs."""

    job_id: str
    provider_allocations: tuple[tuple[str, int], ...]

    @property
    def provider_count(self) -> int:
        return len(self.provider_allocations)

    def providers(self) -> list[str]:
        return [rid for rid, _ in self.provider_allocations]


@dataclass
class MmcStats:
    """Instrumentation: elementary comparisons/moves performed."""

    steps: int = 0
    displacements: int = 0
    parked: int = 0


@dataclass
class InterchangeContext:
    """Mutable working state shared with ``interchange_capacity``."""

    jobs_by_id: Mapping[str, JobRequest]
    resources_by_id: Mapping[str, ResourceInfo]
    available: dict[str, int]
    alternates: tuple[str, ...]  # the consuming job's other relaxed providers
    stats: MmcStats = field(default_factory=MmcStats)


def mappings_from_allocation(alloc: AllocationMatrix) -> list[JobMapping]:
    """Group an allocation into per-job mappings, ids sorted."""
    by_job = alloc.by_job()
    out = []
    for jid in sorted(by_job):
        allocs = tuple(sorted((rid, p) for rid, p in by_job[jid].items() if p > 0))
        out.append(JobMapping(job_id=jid, provider_allocations=allocs))
    return out


def interchange_capacity(
    provider_id: str,
    displaced: Sequence[JobMapping],
    context: InterchangeContext,
) -> list[tuple[str, str | None]]:
    """Re-home jobs whose tentative PEs on ``provider_id`` were consumed.

    Visits evictees smallest-PE-requirement first (easiest to rehouse).
    Each is placed whole on the first alternate provider (cheapest
    placement first) satisfying capacity, deadline and budget; failing
    all, it is parked (target ``None``).  Mutates ``context.available`` for the moves
    it commits and returns the (job_id, target) report.
    """
    report: list[tuple[str, str | None]] = []
    order = sorted(
        displaced,
        key=lambda jm: (context.jobs_by_id[jm.job_id].pe_count, jm.job_id),
    )
    for jm in order:
        job = context.jobs_by_id[jm.job_id]
        target: str | None = None
        ranked = sorted(
            (rid for rid in context.alternates
             if rid != provider_id and not context.resources_by_id[rid].is_dummy),
            key=lambda rid: (placement_cost(job, context.resources_by_id[rid]), rid),
        )
        for rid in ranked:
            context.stats.steps += 1
            res = context.resources_by_id[rid]
            if context.available[rid] < job.pe_count:
                continue
            if not placement_feasible(job, res):
                continue
            target = rid
            break
        if target is not None:
            context.available[target] -= job.pe_count
        report.append((jm.job_id, target))
        context.stats.displacements += 1
    return report


def schedule_dummy_jobs(
    schedule: Schedule,
    jobs: Sequence[JobRequest],
    resources: Sequence[ResourceInfo],
    stats: MmcStats | None = None,
) -> Schedule:
    """Greedy second chance for parked jobs.

    In priority order (qos_index descending) each parked job is placed
    whole on the cheapest-placement real resource with enough remaining
    PEs that meets its deadline and budget; jobs with no such resource
    stay parked on the dummy of ``ensure_dummy``.  The ranking and the
    eligibility come from the batch's ``pair_table``.
    """
    if not schedule.dummy_jobs:
        return schedule
    stats = stats if stats is not None else MmcStats()
    pool, dummy_id = ensure_dummy(jobs, resources)
    table = pair_table(jobs, pool)
    row = {j.job_id: i for i, j in enumerate(table.jobs)}
    rids = [r.resource_id for r in table.resources]

    available = {r.resource_id: r.free_pes for r in pool if not r.is_dummy}
    entries = {}
    for (rid, jid), pes in schedule.assignments.items():
        if jid not in schedule.dummy_jobs:
            entries[(rid, jid)] = pes
            if rid in available:
                available[rid] -= pes

    order = sorted(schedule.dummy_jobs, key=lambda jid: (-qos_index(table.jobs[row[jid]]), jid))
    largest = max(available.values(), default=0)
    for jid in order:
        job = table.jobs[row[jid]]
        placed = dummy_id
        if job.pe_count > largest:
            # no block has room: the scan below would reject every resource
            stats.steps += len(available)
        else:
            feasible = table.feasible[row[jid]].tolist()
            for k in table.order[row[jid]].tolist():
                stats.steps += 1
                if available[rids[k]] >= job.pe_count and feasible[k]:
                    placed = rids[k]
                    available[placed] -= job.pe_count
                    largest = max(available.values())
                    break
        entries[(placed, jid)] = job.pe_count
    return build_schedule(AllocationMatrix(entries), jobs, pool)


def modified_min_cost(
    relaxed: Sequence[JobMapping],
    jobs: Sequence[JobRequest],
    resources: Sequence[ResourceInfo],
    stats: MmcStats | None = None,
) -> Schedule:
    """Turn relaxed per-job mappings into a whole-job-per-resource schedule.

    Never raises for unplaceable jobs: the dummy resource absorbs them and
    the caller sees them in ``Schedule.dummy_jobs``.  Capacity bookkeeping
    counts committed placements only; the relaxation's tentative holds are
    just hints that guide provider choice and eviction.
    """
    stats = stats if stats is not None else MmcStats()
    pool, dummy_id = ensure_dummy(jobs, resources)
    jobs_by_id = {j.job_id: j for j in jobs}
    res_by_id = {r.resource_id: r for r in pool}
    dummy_ids = {r.resource_id for r in pool if r.is_dummy}

    available = {r.resource_id: r.free_pes for r in pool if not r.is_dummy}
    committed: dict[str, str] = {}  # job_id -> resource_id (real)
    parked: set[str] = set()
    resolved: set[str] = set()

    # tentative holders per resource, from the relaxed solution
    holders: dict[str, set[str]] = {}
    mapping_by_job: dict[str, JobMapping] = {}
    for jm in relaxed:
        mapping_by_job[jm.job_id] = jm
        for rid, _ in jm.provider_allocations:
            holders.setdefault(rid, set()).add(jm.job_id)

    def settle(jid: str) -> None:
        resolved.add(jid)
        for held in holders.values():
            held.discard(jid)

    def commit(jid: str, rid: str) -> None:
        available[rid] -= jobs_by_id[jid].pe_count
        assert available[rid] >= 0, f"overcommitted {rid}"
        committed[jid] = rid
        settle(jid)

    def park(jid: str) -> None:
        parked.add(jid)
        stats.parked += 1
        settle(jid)

    order = sorted(relaxed, key=lambda jm: (jm.provider_count, jm.job_id))
    for jm in order:
        if jm.job_id in resolved:
            continue  # already re-homed or parked by an earlier interchange
        job = jobs_by_id[jm.job_id]
        stats.steps += 1

        if jm.provider_count == 1:
            rid = jm.provider_allocations[0][0]
            if rid in dummy_ids:
                park(jm.job_id)
            else:
                commit(jm.job_id, rid)
            continue

        # candidate providers: the job's own relaxed providers, most
        # relaxed PEs first, then cheaper placement, then id
        candidates = sorted(
            jm.provider_allocations,
            key=lambda alloc: (
                -alloc[1],
                placement_cost(job, res_by_id[alloc[0]])
                if alloc[0] not in dummy_ids else float("inf"),
                alloc[0],
            ),
        )
        target: str | None = None
        for rid, _ in candidates:
            stats.steps += 1
            if rid in dummy_ids:
                break  # reaching the relaxation's dummy share parks the job
            if available[rid] < job.pe_count:
                continue
            if not placement_feasible(job, res_by_id[rid]):
                continue
            target = rid
            break

        if target is None:
            park(jm.job_id)
            continue

        displaced_ids = sorted(holders.get(target, set()) - {jm.job_id})
        commit(jm.job_id, target)
        if displaced_ids:
            ctx = InterchangeContext(
                jobs_by_id=jobs_by_id,
                resources_by_id=res_by_id,
                available=available,
                alternates=tuple(rid for rid in jm.providers() if rid != target),
                stats=stats,
            )
            report = interchange_capacity(
                target, [mapping_by_job[jid] for jid in displaced_ids], ctx
            )
            for jid, new_rid in report:
                if new_rid is None:
                    park(jid)
                else:
                    committed[jid] = new_rid
                    settle(jid)

    entries = {(rid, jid): jobs_by_id[jid].pe_count for jid, rid in committed.items()}
    for jid in parked:
        entries[(dummy_id, jid)] = jobs_by_id[jid].pe_count
    interim = build_schedule(AllocationMatrix(entries), jobs, pool)
    return schedule_dummy_jobs(interim, jobs, pool, stats=stats)
