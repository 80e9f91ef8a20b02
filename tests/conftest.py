"""Shared fixtures: the hand-checked reference instance, random-instance
generators sized for the exhaustive oracles, a field-by-field record
comparison and a schedule comparison."""

from __future__ import annotations

import dataclasses
import random

import pytest

from metagrid.model import JobRequest, ResourceInfo


@pytest.fixture
def s1_resources() -> list[ResourceInfo]:
    """Two-resource reference grid: R1 slow and cheap, R2 fast and pricey."""
    return [
        ResourceInfo("R1", 4, 1.0, 100.0),
        ResourceInfo("R2", 4, 3.0, 200.0),
    ]


@pytest.fixture
def s1_jobs() -> list[JobRequest]:
    """Two jobs whose unique whole-job optimum is A->R1, B->R2 at 110 G$.

    B cannot run on R1 (20 s exec > 15 s deadline) and A+B exceed R2's four
    PEs together, which forces the split and makes the optimum unique.
    """
    return [
        JobRequest("U1", "A", 100.0, 20.0, (1000.0, 1000.0), 2),
        JobRequest("U2", "B", 200.0, 15.0, (2000.0, 2000.0, 2000.0), 3),
    ]


def assert_same_record(copy, expected) -> None:
    """``copy`` equals ``expected`` in type, in every field's value and
    type, in ``==`` and in ``hash``, and is still frozen."""
    assert type(copy) is type(expected)
    assert vars(copy) == vars(expected)
    assert [type(v) for v in vars(copy).values()] == [type(v) for v in vars(expected).values()]
    assert copy == expected and hash(copy) == hash(expected)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(copy, dataclasses.fields(copy)[0].name, None)


def same_schedule(got, want) -> bool:
    """Two schedules with the same entries, parked jobs and total cost, to
    the last bit."""
    return (
        got.assignments.entries == want.assignments.entries
        and repr(got.total_cost_gd) == repr(want.total_cost_gd)
        and got.dummy_jobs == want.dummy_jobs
    )


S1_OPTIMAL_COST = 110.0
S1_OPTIMAL_ALLOC = {("R1", "A"): 2, ("R2", "B"): 3}


def tiny_instance(seed: int) -> tuple[list[JobRequest], list[ResourceInfo]]:
    """Random instance inside the brute-force guard: <=5 jobs, <=3 resources,
    <=20 total PEs.  Speeds stay within a 4x band; parking stays a last
    resort at any spread because the relaxation prices it
    lexicographically (``relaxed`` module docstring), and the band is
    kept so the acceptance corpus stays fixed."""
    rng = random.Random(seed)
    resources = [
        ResourceInfo(
            f"R{i + 1}",
            rng.randint(1, 6),
            float(rng.randint(1, 5)),
            float(rng.choice([100.0, 200.0, 400.0])),
        )
        for i in range(rng.randint(1, 3))
    ]
    jobs = []
    total_pes = 0
    for j in range(rng.randint(1, 5)):
        m = rng.randint(1, 4)
        if total_pes + m > 20:
            break
        total_pes += m
        sizes = tuple(float(rng.choice([400, 800, 1200, 2000])) for _ in range(m))
        jobs.append(
            JobRequest(
                user_id=f"U{j + 1}",
                job_id=f"J{j + 1}",
                budget_gd=float(rng.randint(20, 500)),
                deadline_s=float(rng.randint(4, 40)),
                task_sizes_mi=sizes,
                pe_count=m,
            )
        )
    return jobs, resources


def fuzz_instance(seed: int) -> tuple[list[JobRequest], list[ResourceInfo]]:
    """Mid-size random instance for feasibility fuzzing: mixes comfortable
    and hopeless jobs so dummy parking paths are exercised."""
    rng = random.Random(seed)
    resources = [
        ResourceInfo(
            f"R{i + 1}",
            rng.randint(2, 12),
            rng.uniform(1.0, 6.0),
            rng.uniform(100.0, 900.0),
        )
        for i in range(rng.randint(1, 4))
    ]
    jobs = []
    for j in range(rng.randint(1, 8)):
        m = rng.randint(1, 6)
        sizes = tuple(rng.uniform(200.0, 4000.0) for _ in range(m))
        jobs.append(
            JobRequest(
                user_id=f"U{j + 1}",
                job_id=f"J{j + 1}",
                budget_gd=rng.uniform(5.0, 400.0),
                deadline_s=rng.uniform(1.0, 30.0),
                task_sizes_mi=sizes,
                pe_count=m,
            )
        )
    return jobs, resources
