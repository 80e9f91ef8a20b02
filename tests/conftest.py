"""Shared fixtures: the hand-checked reference instance, random-instance
generators sized for the exhaustive oracles and free-PE cuts of them, a
field-by-field record comparison, a schedule comparison, and a port of
CPython 3.12's ``sum()`` that the goldens also run under."""

from __future__ import annotations

import builtins
import dataclasses
import math
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


def sum_312(iterable, /, start=0):
    """CPython 3.12's ``sum()``: exact while the total is an int; once it
    is an exact float, each float item adds with Neumaier's compensation and
    each int item that fits a C long adds as a float, and the compensation
    joins the total at the end, or before any other item, when it is finite
    and nonzero.  Every other total adds item by item."""
    total, items = start, iter(iterable)
    if type(total) is int:
        for item in items:
            total = total + item
            if type(total) is not int:
                break
    if type(total) is float:
        c = 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                c += (total - t) + item if abs(total) >= abs(item) else (item - t) + total
                total = t
            elif isinstance(item, int) and -(2**63) <= item < 2**63:
                total += float(item)
            else:
                total = (total + c if c and math.isfinite(c) else total) + item
                break
        else:
            return total + c if c and math.isfinite(c) else total
    for item in items:
        total = total + item
    return total


@pytest.fixture
def sum_rule(request, monkeypatch):
    """Parametrized indirectly: ``"3.12"`` runs the test with
    ``builtins.sum`` patched to ``sum_312``, ``"builtin"`` with this
    interpreter's own."""
    if request.param == "3.12":
        monkeypatch.setattr(builtins, "sum", sum_312)
    return request.param


def under_both_sum_rules(cases, ids=str):
    """Parameters for a test taking ``case`` and ``sum_rule`` (indirect):
    each case under the builtin ``sum()`` with its own id, then each under
    3.12's with ``-sum312`` appended."""
    return [
        pytest.param(case, rule, id=ids(case) + suffix)
        for rule, suffix in (("builtin", ""), ("3.12", "-sum312"))
        for case in cases
    ]


def cut(resources, rng, share=1):
    """Each resource with its free PEs cut to a random count from 0 to
    ``1 / share`` of its own."""
    return [r.with_free_pes(rng.randint(0, r.free_pes // share)) for r in resources]


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
