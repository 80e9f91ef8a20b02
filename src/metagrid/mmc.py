"""Consolidation of a split-allowed relaxation solution into whole-job
placements.

The relaxation may scatter a job's PEs over several providers; SGN jobs
need all PEs on one resource.  ``modified_min_cost(table, alloc)`` fixes
that in the minimum-cost-method spirit, in three phases over the
relaxation's own ``PairTable`` (``RelaxedModel.table``, all it reads of
the relaxation), starting from the relaxation's answer ``alloc``,
``solve_relaxed``'s array of PE counts over that table.  Its nonzero
entries are the jobs' tentative holds, one bool mask whose row is cleared
once the job is settled:

* freeze: jobs with one hold, on a provider the table marks
  ``feasible``, stay there, consuming capacity (a job whose one provider
  is the dummy is parked); the relaxation's budget re-check, (rate x
  runtime) x PEs, can pass a whole job that the table's (rate x PEs) x
  runtime rejects by one ulp, and such a job is consolidated like the rest;
* consolidate with interchange: each multi-provider job, fewest providers
  first, is re-placed whole on one of *its own* relaxed providers, tried
  in order of how many PEs the relaxation put there (most first; ties
  prefer the cheaper placement, then the resource id).  Reaching its
  dummy share, or running out of providers, parks it.  Consuming a
  provider evicts the jobs the mask's column still shows holding there:
  each evictee, smallest first, is re-homed whole on the cheapest of
  the consuming job's other real providers with room that meets its
  deadline and budget, or else parked;
* rescue: parked jobs, in priority order (the table's ``rank``), go
  whole onto the cheapest real resource with room that meets their
  deadline and budget; the rest stay parked on the table's dummy.

"Cheaper" always means the money the whole placement costs (the table's
``cost``: rate x PEs x execution time), not the bare rate: a faster
resource at a higher rate can be the cheaper home for a job.

Worst case the interchange scans every job against every resource for each
consolidated job, so the step count grows no faster than
(resources x jobs^2).  ``MmcStats`` exposes an instrumented step counter so
tests can check that bound empirically.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

import numpy as np

from .model import PairTable, Schedule, build_schedule, whole_jobs


@dataclass
class MmcStats:
    """Instrumentation: elementary comparisons/moves performed."""

    steps: int = 0
    displacements: int = 0
    parked: int = 0


def cost_order(table: PairTable) -> np.ndarray:
    """Row j lists job j's real columns by (whole-job ``cost``, resource
    id): a stable sort, as the columns run in id order."""
    real = np.flatnonzero(~table.dummy)
    return real[np.argsort(table.cost[:, real], axis=1, kind="stable")]


def modified_min_cost(
    table: PairTable,
    alloc: np.ndarray,
    stats: MmcStats | None = None,
) -> Schedule:
    """Turn the relaxation's answer ``alloc``, ``solve_relaxed``'s jobs x
    resources array of PE counts over the relaxation's ``table``, into a
    whole-job-per-resource schedule.

    Never raises for unplaceable jobs: the dummy absorbs them and the
    caller sees them in ``Schedule.dummy_jobs``.  Capacity bookkeeping
    counts committed placements only; the relaxation's tentative holds are
    just hints that guide provider choice and eviction.
    """
    stats = stats if stats is not None else MmcStats()
    parking = table.parking
    order = cost_order(table)
    pes = table.pes.tolist()
    available = table.free.tolist()  # the dummy's entry is never read
    held = alloc > 0  # the relaxation's holds of the jobs not yet settled
    count = held.sum(axis=1)
    home: list[int | None] = [None] * len(table.jobs)  # parked: the dummy's column

    def settle(j: int, k: int) -> None:
        if k == parking:
            stats.parked += 1
        else:
            available[k] -= pes[j]
            assert available[k] >= 0, f"overcommitted {table.resources[k].resource_id}"
        home[j] = k
        held[j] = False

    # freeze
    single = np.flatnonzero(count == 1)
    only = held[single].argmax(axis=1)
    kept = table.feasible[single, only]
    for j, k in zip(single[kept].tolist(), only[kept].tolist()):
        stats.steps += 1
        settle(j, k)

    # consolidate with interchange
    for j in np.argsort(count, kind="stable").tolist():
        if home[j] is not None:
            continue  # frozen, or re-homed or parked by an earlier interchange
        stats.steps += 1
        share, cost, feasible = alloc[j], table.cost[j], table.feasible[j]
        target = parking
        mine = share.nonzero()[0].tolist()
        ranked = sorted(mine, key=lambda k: (-share[k], inf if k == parking else cost[k], k))
        for k in ranked:
            stats.steps += 1
            if k == parking:
                break  # reaching the relaxation's dummy share parks the job
            if available[k] >= pes[j] and feasible[k]:
                target = k
                break
        settle(j, target)
        if target == parking:
            continue
        alternate = share > 0
        alternate[target] = False
        for e in sorted(held[:, target].nonzero()[0].tolist(), key=pes.__getitem__):
            stats.displacements += 1
            rehome = parking
            tries = order[e][alternate[order[e]]]
            for k, ok in zip(tries.tolist(), table.feasible[e, tries].tolist()):
                stats.steps += 1
                if available[k] >= pes[e] and ok:
                    rehome = k
                    break
            settle(e, rehome)

    # rescue
    real = np.flatnonzero(~table.dummy).tolist()
    largest = max(map(available.__getitem__, real), default=0)
    parked = [j for j in table.rank.tolist() if home[j] == parking]
    for j in parked:
        need = pes[j]
        if need > largest:
            # no block has room: the scan below would reject every resource
            stats.steps += len(real)
            continue
        feasible = table.feasible[j].tolist()
        for k in order[j].tolist():
            stats.steps += 1
            if available[k] >= need and feasible[k]:
                home[j] = k
                available[k] -= need
                largest = max(map(available.__getitem__, real))
                break

    return build_schedule(table, whole_jobs(table, home))
