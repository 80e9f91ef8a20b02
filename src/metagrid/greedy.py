"""Greedy whole-job scheduler used as the comparison baseline.

Jobs are taken most-urgent-first (the table's ``rank``: high budget per
unit of deadline-time and PE demand goes first) and each is placed whole
on the cheapest-rate real resource that has enough free PEs and meets the
job's deadline and budget, as the batch's ``PairTable`` marks them in
``fits``.  Jobs with no such resource are parked on the dummy; a job that
fits on no real resource at the start is never walked.
"""

from __future__ import annotations

import numpy as np

from .model import PairTable, Schedule, build_schedule, whole_jobs


def greedy_schedule(table: PairTable) -> Schedule:
    """Lowest-rate feasible resource first, one whole job at a time."""
    real = np.flatnonzero(~table.dummy)
    # columns run in id order, so a stable sort ranks by (rate, id)
    ranked = real[np.argsort(table.rate[real], kind="stable")]
    candidates = table.fits[:, ranked]
    pes, available = table.pes.tolist(), table.free.tolist()

    homes = [table.parking] * len(table.jobs)
    # free PEs only shrink, so a job that fits on no real column now never
    # will: the walk skips it and it stays parked
    for j in table.rank[candidates.any(axis=1)[table.rank]].tolist():
        need = pes[j]
        for k in ranked[candidates[j]].tolist():
            if available[k] >= need:
                available[k] -= need
                homes[j] = k
                break

    return build_schedule(table, whole_jobs(table, homes))
