"""Greedy whole-job scheduler used as the comparison baseline.

Jobs are taken most-urgent-first (``qos_index`` descending — high budget
per unit of deadline-time and PE demand goes first) and each is placed
whole on the cheapest-rate real resource that has enough free PEs and
meets the job's deadline and budget, as the batch's ``PairTable`` marks
them in ``feasible``.  Jobs with no such resource are parked on the dummy.
"""

from __future__ import annotations

import numpy as np

from .model import PairTable, Schedule, build_schedule, qos_index, whole_jobs


def greedy_schedule(table: PairTable) -> Schedule:
    """Lowest-rate feasible resource first, one whole job at a time."""
    jobs = table.jobs
    real = np.flatnonzero(~table.dummy)
    # columns run in id order, so a stable sort ranks by (rate, id)
    ranked = real[np.argsort(table.rate[real], kind="stable")]
    candidates = table.feasible[:, ranked]
    available = table.free.tolist()

    homes = [table.parking] * len(jobs)
    for j in sorted(range(len(jobs)), key=lambda j: (-qos_index(jobs[j]), jobs[j].job_id)):
        pes = jobs[j].pe_count
        for k in ranked[candidates[j]].tolist():
            if available[k] >= pes:
                available[k] -= pes
                homes[j] = k
                break

    return build_schedule(table, whole_jobs(table, homes))
