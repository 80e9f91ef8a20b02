"""Consolidation of a split-allowed relaxation solution into whole-job
placements.

The relaxation may scatter a job's PEs over several providers; SGN jobs
need all PEs on one resource.  ``modified_min_cost`` fixes that in the
minimum-cost-method spirit, in three phases over the relaxation's own
``PairTable``, starting from the relaxation's answer, ``solve_relaxed``'s
array of PE counts over that table:

* freeze: jobs already on a single provider stay there, consuming
  capacity (a job whose one provider is the dummy is parked);
* consolidate with interchange: each multi-provider job, fewest providers
  first, is re-placed whole on one of *its own* relaxed providers, tried
  in order of how many PEs the relaxation put there (most first; ties
  prefer the cheaper placement, then the resource id).  Reaching its
  dummy share, or running out of providers, parks it.  Consuming a
  provider evicts the tentative holds other (still unplaced) jobs had on
  it: each evictee, smallest first, is re-homed whole on the cheapest of
  the consuming job's other real providers with room that meets its
  deadline and budget, or else parked;
* rescue: parked jobs, in priority order (``qos_index`` descending), go
  whole onto the cheapest real resource with room that meets their
  deadline and budget; the rest stay parked on the model's dummy.

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

from .model import PairTable, Schedule, build_schedule, qos_index, whole_jobs
from .relaxed import RelaxedModel


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
    model: RelaxedModel,
    alloc: np.ndarray,
    stats: MmcStats | None = None,
) -> Schedule:
    """Turn the relaxation's answer ``alloc``, ``solve_relaxed``'s jobs x
    resources array of PE counts over ``model.table``, into a
    whole-job-per-resource schedule.

    Never raises for unplaceable jobs: the dummy absorbs them and the
    caller sees them in ``Schedule.dummy_jobs``.  Capacity bookkeeping
    counts committed placements only; the relaxation's tentative holds are
    just hints that guide provider choice and eviction.
    """
    stats = stats if stats is not None else MmcStats()
    table = model.table
    jobs, resources = model.jobs, model.resources
    parking = table.parking
    order = cost_order(table)
    available = {k: r.free_pes for k, r in enumerate(resources) if k != parking}

    shares: dict[int, list[tuple[int, int]]] = {}  # job -> (column, relaxed PEs)
    holders: dict[int, set[int]] = {}  # column -> unsettled jobs holding PEs there
    ji, ki = np.nonzero(alloc > 0)  # row-major: job-major, resource-minor
    for j, k, pes in zip(ji.tolist(), ki.tolist(), alloc[ji, ki].tolist()):
        shares.setdefault(j, []).append((k, pes))
        holders.setdefault(k, set()).add(j)

    home: dict[int, int] = {}  # settled job -> its column (parked: the dummy's)

    def settle(j: int, k: int) -> None:
        if k == parking:
            stats.parked += 1
        else:
            available[k] -= jobs[j].pe_count
            assert available[k] >= 0, f"overcommitted {resources[k].resource_id}"
        home[j] = k
        for held, _ in shares[j]:
            holders[held].discard(j)

    # freeze
    for j, share in shares.items():
        if len(share) == 1:
            stats.steps += 1
            settle(j, share[0][0])

    # consolidate with interchange
    for j in sorted(shares, key=lambda j: (len(shares[j]), j)):
        if j in home:
            continue  # frozen, or re-homed or parked by an earlier interchange
        stats.steps += 1
        cost, feasible = table.cost[j], table.feasible[j]
        target = parking
        ranked = sorted(
            shares[j], key=lambda s: (-s[1], inf if s[0] == parking else cost[s[0]], s[0])
        )
        for k, _ in ranked:
            stats.steps += 1
            if k == parking:
                break  # reaching the relaxation's dummy share parks the job
            if available[k] >= jobs[j].pe_count and feasible[k]:
                target = k
                break
        settle(j, target)
        if target == parking:
            continue
        alternates = {k for k, _ in shares[j] if k != target}
        for e in sorted(holders[target], key=lambda e: (jobs[e].pe_count, e)):
            stats.displacements += 1
            rehome = parking
            for k in order[e].tolist():
                if k in alternates:
                    stats.steps += 1
                    if available[k] >= jobs[e].pe_count and table.feasible[e, k]:
                        rehome = k
                        break
            settle(e, rehome)

    # rescue
    largest = max(available.values(), default=0)
    parked = [j for j, k in home.items() if k == parking]
    for j in sorted(parked, key=lambda j: (-qos_index(jobs[j]), j)):
        pes = jobs[j].pe_count
        if pes > largest:
            # no block has room: the scan below would reject every resource
            stats.steps += len(available)
            continue
        feasible = table.feasible[j].tolist()
        for k in order[j].tolist():
            stats.steps += 1
            if available[k] >= pes and feasible[k]:
                home[j] = k
                available[k] -= pes
                largest = max(available.values())
                break

    return build_schedule(table, whole_jobs(table, [home[j] for j in range(len(jobs))]))
