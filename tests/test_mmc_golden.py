"""Golden consolidations: sha256 digests of what ``modified_min_cost`` makes
of the relaxation's own answer on 920 batches.

Per batch the digest covers the sorted assignment entries,
``repr(total_cost_gd)``, the sorted parked job ids and the three
``MmcStats`` counters (steps, displacements, parked).  The corpus is
``tiny_instance`` 0-599, ``fuzz_instance`` 0-299 and generated batches for
seeds 0-3 at five (resources x jobs, deadline mode) shapes.  The batches
are solved with ``solve_relaxed``, so a change there moves these digests
too; ``_mmc`` is the file's one call into MMC.  Over the whole corpus
the counters sum to 45,174 steps, 232 displacements and 2,490 parked.
Each corpus also runs under CPython 3.12's compensated ``sum()``
(``conftest.sum_312``): the costs are added in one stated order, so the
digests hold on either interpreter.
"""

from __future__ import annotations

import hashlib

import metagrid.mmc as mmc
import pytest
from conftest import fuzz_instance, tiny_instance, under_both_sum_rules
from metagrid.model import pair_table
from metagrid.relaxed import build_relaxed, solve_relaxed
from metagrid.workload import ScenarioConfig, generate_grid, generate_jobs

SHAPES = {
    "25x50-tight": (25, 50, "tight"),
    "50x50-medium": (50, 50, "medium"),
    "200x50-medium": (200, 50, "medium"),
    "50x200-medium": (50, 200, "medium"),
    "25x50-relaxed": (25, 50, "relaxed"),
}
GENERATED_SEEDS = (0, 1, 2, 3)

GOLDEN_SHA256 = {
    "tiny": "73fff667788fd9d411a22f55acc5b46ed3da5814ba47b67dc74a4909183cc622",
    "fuzz": "d94517b2d472b4de339557a55edf4d2e3693e7d49996fb64c713ad45d88b9a73",
    "25x50-tight": "874f58e05bc416e46a8e40f40637af2a461a2bef1b9eac0e1054999785555b3e",
    "50x50-medium": "03d7fd1673f46756064bbc8d691fac2b0d27d55511e561ea983d6e374af2d77b",
    "200x50-medium": "c9616466a3150a20c73479b0327f619d2fa5bce2d9fbd49b073e76532785cc50",
    "50x200-medium": "42881a1b4ece3e42af8b5339b98453e1bbd2975134cd0c1bf112d7d341dd3d16",
    "25x50-relaxed": "527ebf475285e1fc1137ffc96d99709e32361896bd4be16d5b9c8aeb2b80a3c3",
}


def _mmc(model, alloc, stats):
    return mmc.modified_min_cost(model.table, alloc, stats)


def _generated(shape):
    resources, jobs, mode = SHAPES[shape]
    for seed in GENERATED_SEEDS:
        config = ScenarioConfig(
            resource_count=resources, job_count=jobs, deadline_mode=mode, rng_seed=seed
        )
        yield generate_jobs(config), generate_grid(config)


CORPORA = {
    "tiny": lambda: (tiny_instance(seed) for seed in range(600)),
    "fuzz": lambda: (fuzz_instance(seed) for seed in range(300)),
    **{shape: (lambda shape=shape: _generated(shape)) for shape in SHAPES},
}


def _record(jobs, resources):
    model = build_relaxed(pair_table(jobs, resources))
    stats = mmc.MmcStats()
    schedule = _mmc(model, solve_relaxed(model), stats)
    return (
        sorted(schedule.assignments.entries.items()),
        repr(schedule.total_cost_gd),
        sorted(schedule.dummy_jobs),
        stats.steps,
        stats.displacements,
        stats.parked,
    )


@pytest.mark.parametrize(
    "corpus, sum_rule", under_both_sum_rules(CORPORA), indirect=["sum_rule"]
)
def test_consolidation_matches_golden(corpus, sum_rule):
    records = [_record(jobs, resources) for jobs, resources in CORPORA[corpus]()]
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == GOLDEN_SHA256[corpus]
