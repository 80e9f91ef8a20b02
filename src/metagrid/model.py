"""Core domain model for deadline- and budget-constrained grid meta-scheduling.

Value types for resources, jobs, allocations and schedules; ``pair_table``,
which evaluates the deadline and budget rule once per batch for every
scheduler in this package to read; and ``validate``, which checks a
finished allocation pair by pair on its own.  A job asks for a fixed
number of processing elements (PEs); a resource offers PEs at a money
rate per PE-second and a speed in MIPS.
The execution time of a job on a resource is driven by its largest task,
so cost
 = rate x allocated PEs x (largest task MI / resource MIPS).

Grid conventions used throughout the package:

* SGN jobs need all their PEs on a single resource; MGN jobs may split
  across resources.
* A "dummy" resource is an infinite parking lot for jobs that cannot be
  placed this scheduling round.  Parked jobs pay nothing and are rolled
  over, so budget/deadline checks do not apply to dummy placements, and
  reported totals never include them.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

DUMMY_ID = "DUMMY"
DUMMY_RATE_FACTOR = 10.0


class UnknownIdError(KeyError):
    """A resource id or job id does not resolve to a known record."""


class JobKind(str, enum.Enum):
    """The placement mode ``validate`` checks an allocation against."""

    MGN = "mgn"  # job tasks may be split across resources
    SGN = "sgn"  # all PEs of the job must sit on one resource


# absolute tolerance of every deadline and budget comparison
EPSILON = 1e-9


def budget_limit(budget_gd):
    """Largest charge a budget admits: the budget plus ``EPSILON``.  Every
    budget check in the package compares against this, for scalars and
    numpy arrays alike."""
    return budget_gd + EPSILON


def _finite(value) -> bool:
    """A finite int or float; bools and every other type are rejected."""
    return type(value) is not bool and isinstance(value, (int, float)) and math.isfinite(value)


def _positive(value) -> bool:
    return _finite(value) and value > 0


def _check_free_pes(free_pes) -> None:
    if type(free_pes) is not int or free_pes < 0:
        raise ValueError(f"free_pes must be a nonnegative int, got {free_pes!r}")


def _check_deadline(job_id: str, deadline_s) -> None:
    if not _positive(deadline_s):
        raise ValueError(f"job {job_id}: deadline_s must be finite and positive")


def _copy_with(record, **changes):
    """``record`` with ``changes`` applied, without re-running ``__post_init__``."""
    copy = object.__new__(type(record))
    copy.__dict__.update(record.__dict__, **changes)
    return copy


@dataclass(frozen=True)
class ResourceInfo:
    """One grid resource (provider site).

    A resource posts one rate, ``cost_per_pe_second`` (G$ per PE per
    second), that every job pays.  Rate and speed must be finite, strictly
    positive numbers.
    """

    resource_id: str
    free_pes: int
    cost_per_pe_second: float
    pe_speed_mips: float
    is_dummy: bool = False

    def __post_init__(self) -> None:
        if type(self.resource_id) is not str or not self.resource_id:
            raise ValueError(f"resource_id must be a non-empty string, got {self.resource_id!r}")
        _check_free_pes(self.free_pes)
        if type(self.is_dummy) is not bool:
            raise ValueError(f"is_dummy must be a bool, got {self.is_dummy!r}")
        for name in ("cost_per_pe_second", "pe_speed_mips"):
            value = getattr(self, name)
            if not _positive(value):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")

    def with_free_pes(self, free_pes: int) -> ResourceInfo:
        """This resource with new ``free_pes``; only the new value is checked."""
        _check_free_pes(free_pes)
        return _copy_with(self, free_pes=free_pes)


@dataclass(frozen=True)
class JobRequest:
    """A user job: fixed PE count, one task per PE, deadline and budget.

    ``task_sizes_mi`` holds one entry per required PE (millions of
    instructions); the largest entry drives the execution time.
    """

    user_id: str
    job_id: str
    budget_gd: float
    deadline_s: float
    task_sizes_mi: tuple[float, ...]
    pe_count: int
    submit_time_s: float = 0.0

    def __post_init__(self) -> None:
        if type(self.job_id) is not str or not self.job_id:
            raise ValueError(f"job_id must be a non-empty string, got {self.job_id!r}")
        if type(self.user_id) is not str:
            raise ValueError(f"job {self.job_id}: user_id must be a string, got {self.user_id!r}")
        if not isinstance(self.task_sizes_mi, (list, tuple)):
            raise ValueError(
                f"job {self.job_id}: task_sizes_mi must be a list, got {self.task_sizes_mi!r}"
            )
        object.__setattr__(self, "task_sizes_mi", tuple(self.task_sizes_mi))
        if type(self.pe_count) is not int or self.pe_count < 1:
            raise ValueError(
                f"job {self.job_id}: pe_count must be an int >= 1, got {self.pe_count!r}"
            )
        if len(self.task_sizes_mi) != self.pe_count:
            raise ValueError(
                f"job {self.job_id}: pe_count {self.pe_count} != "
                f"{len(self.task_sizes_mi)} task sizes"
            )
        if not all(_positive(m) for m in self.task_sizes_mi):
            raise ValueError(f"job {self.job_id}: task_sizes_mi must be finite and positive")
        if not _positive(self.budget_gd):
            raise ValueError(f"job {self.job_id}: budget_gd must be finite and positive")
        _check_deadline(self.job_id, self.deadline_s)
        if not (_finite(self.submit_time_s) and self.submit_time_s >= 0):
            raise ValueError(f"job {self.job_id}: submit_time_s must be finite and >= 0")

    def with_deadline(self, deadline_s: float) -> JobRequest:
        """This job with a new ``deadline_s``; only the new value is checked."""
        _check_deadline(self.job_id, deadline_s)
        return _copy_with(self, deadline_s=deadline_s)


@dataclass(frozen=True)
class AllocationMatrix:
    """Sparse PE-count matrix: (resource_id, job_id) -> allocated PEs.

    Zero entries are dropped at construction; an absent key means no PEs.
    A resource is considered assigned to a job exactly when its entry is
    positive.  Negative entries are representable so that ``validate`` can
    report them, but no scheduler in this package produces them.
    """

    entries: Mapping[tuple[str, str], int]

    def __post_init__(self) -> None:
        cleaned = {k: int(v) for k, v in self.entries.items() if int(v) != 0}
        object.__setattr__(self, "entries", cleaned)

    @classmethod
    def empty(cls) -> AllocationMatrix:
        return cls({})

    def pes(self, resource_id: str, job_id: str) -> int:
        return self.entries.get((resource_id, job_id), 0)

    def items(self) -> list[tuple[tuple[str, str], int]]:
        """Entries sorted by (job_id, resource_id) for deterministic walks."""
        return sorted(self.entries.items(), key=lambda kv: (kv[0][1], kv[0][0]))

    def by_job(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        for (rid, jid), pes in self.entries.items():
            out.setdefault(jid, {})[rid] = pes
        return out

    def by_resource(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        for (rid, jid), pes in self.entries.items():
            out.setdefault(rid, {})[jid] = pes
        return out

    def job_ids(self) -> set[str]:
        return {jid for (_, jid) in self.entries}


class ViolationKind(enum.Enum):
    CAPACITY = "capacity"                    # resource allocated beyond its free PEs
    PE_REQUIREMENT = "pe_requirement"        # job's total allocated PEs != its PE count
    SPLIT_SGN_JOB = "split_sgn_job"          # SGN job holds a partial PE block somewhere
    MULTIPLE_RESOURCES = "multiple_resources"  # SGN job spans more than one resource
    BUDGET = "budget"                        # job spend exceeds its budget
    DEADLINE = "deadline"                    # job runtime exceeds its deadline somewhere
    NEGATIVE = "negative"                    # negative PE count in the matrix


@dataclass(frozen=True)
class Violation:
    """One constraint breach found by ``validate``."""

    kind: ViolationKind
    resource_id: str | None
    job_id: str | None
    detail: str


@dataclass(frozen=True)
class Schedule:
    """A finished scheduling decision for one batch of jobs.

    ``dummy_jobs`` lists jobs parked for rollover; they never appear among
    the real assignments and contribute nothing to ``total_cost_gd``.
    """

    assignments: AllocationMatrix
    dummy_jobs: frozenset[str] = field(default_factory=frozenset)
    total_cost_gd: float = 0.0

    @classmethod
    def empty(cls) -> Schedule:
        return cls(AllocationMatrix.empty(), frozenset(), 0.0)


def exec_time(job: JobRequest, resource: ResourceInfo) -> float:
    """Seconds the job occupies the resource: largest task MI / PE speed."""
    return max(job.task_sizes_mi) / resource.pe_speed_mips


# --- the whole-job rule ------------------------------------------------------
# ``pair_table`` evaluates the deadline and budget rule for a whole batch,
# and every scheduler reads it from there.  ``validate`` checks a finished
# allocation independently, one pair at a time, with the helpers below.


def meets_deadline(job: JobRequest, resource: ResourceInfo) -> bool:
    """The job finishes within its deadline (plus tolerance) on the resource."""
    return exec_time(job, resource) <= job.deadline_s + EPSILON


def pair_charge(job: JobRequest, resource: ResourceInfo, pes: int) -> float:
    """What ``pes`` PEs of the job on one real resource count against its
    budget: what they cost, rate x PEs x runtime."""
    return resource.cost_per_pe_second * pes * exec_time(job, resource)


def budget_charge(
    job: JobRequest,
    real_allocations: Mapping[str, int],
    resources_by_id: Mapping[str, ResourceInfo],
) -> float:
    """The quantity capped by the job's budget, for its non-dummy PEs."""
    total = 0.0
    for rid in sorted(real_allocations):
        total += pair_charge(job, resources_by_id[rid], real_allocations[rid])
    return total


@dataclass(frozen=True, eq=False)
class PairTable:
    """The whole-job rule for every job x resource pair of one batch.

    Rows are the jobs, columns the resources, each sorted by id; a batch
    with jobs always has one dummy column, ``parking``, and ``dummy_id`` is
    its resource's id (both None only for an empty batch).  ``rate``
    is each resource's ``cost_per_pe_second``, ``exec_s`` ``exec_time``,
    ``coeff`` the cost of one PE (``pair_charge`` for one PE), ``cost``
    that of all the job's PEs, ``on_time`` ``meets_deadline``, and
    ``breaches`` counts the deadline and budget breaches (0-2) of the
    whole job.  ``feasible`` marks the whole-job placements a scheduler may
    make, capacity aside: every dummy pair and each real pair without a
    breach.  ``weight`` is what one PE counts against the budget:
    ``coeff``, and 0.0 on a dummy, which is budget-exempt.  ``pes`` holds
    each job's PE count, ``limit`` its ``budget_limit`` and ``free`` each
    resource's free PEs.  A dummy column follows the same formulas.
    """

    jobs: tuple[JobRequest, ...]
    resources: tuple[ResourceInfo, ...]
    dummy_id: str | None
    parking: int | None
    pes: np.ndarray
    limit: np.ndarray
    free: np.ndarray
    rate: np.ndarray
    exec_s: np.ndarray
    coeff: np.ndarray
    cost: np.ndarray
    weight: np.ndarray
    on_time: np.ndarray
    breaches: np.ndarray
    feasible: np.ndarray
    dummy: np.ndarray


def pair_table(jobs: Sequence[JobRequest], resources: Sequence[ResourceInfo]) -> PairTable:
    """Evaluate the whole-job rule over the batch, with each scalar
    operation in the order the helpers above perform it.  A batch with
    jobs gets ``ensure_dummy``'s dummy when ``resources`` holds none; one
    dummy, whatever its id, is taken as is.  Two dummies, or two jobs or
    two resources with one id, are a ``ValueError``."""
    if jobs:
        resources, _ = ensure_dummy(jobs, resources)
    jobs = tuple(sorted(jobs, key=lambda j: j.job_id))
    resources = tuple(sorted(resources, key=lambda r: r.resource_id))
    _index(jobs, "job_id")
    _index(resources, "resource_id")
    longest = np.array([max(j.task_sizes_mi) for j in jobs], dtype=float)
    pes = np.array([j.pe_count for j in jobs], dtype=float)
    deadline = np.array([j.deadline_s for j in jobs], dtype=float)
    limit = budget_limit(np.array([j.budget_gd for j in jobs], dtype=float))
    free = np.array([r.free_pes for r in resources], dtype=int)
    speed = np.array([r.pe_speed_mips for r in resources], dtype=float)
    rate = np.array([r.cost_per_pe_second for r in resources], dtype=float)
    dummy = np.array([r.is_dummy for r in resources], dtype=bool)
    if dummy.sum() > 1:
        raise ValueError("a resource list holds at most one dummy resource")
    parking = int(dummy.argmax()) if dummy.any() else None
    dummy_id = None if parking is None else resources[parking].resource_id

    exec_s = longest[:, None] / speed
    coeff = rate * exec_s
    cost = rate * pes[:, None] * exec_s
    on_time = exec_s <= (deadline + EPSILON)[:, None]
    breaches = (~on_time).astype(int) + (cost > limit[:, None])
    weight = np.where(dummy, 0.0, coeff)
    return PairTable(
        jobs, resources, dummy_id, parking, pes, limit, free, rate, exec_s, coeff, cost,
        weight, on_time, breaches, dummy | (breaches == 0), dummy,
    )


def qos_index(job: JobRequest) -> float:
    """Priority score: budget per deadline-second per PE (higher = richer
    and more urgent per unit of work, scheduled first)."""
    return job.budget_gd / (job.deadline_s * job.pe_count)


def _index(records: Sequence, key: str) -> dict:
    """Records by their id attribute ``key``; two records with one id are
    a ``ValueError``."""
    out = {}
    for record in records:
        value = getattr(record, key)
        if value in out:
            raise ValueError(f"duplicate {key} {value}")
        out[value] = record
    return out


def validate(
    alloc: AllocationMatrix,
    jobs: Sequence[JobRequest],
    resources: Sequence[ResourceInfo],
    mode: JobKind,
) -> list[Violation]:
    """Check an allocation against the scheduling constraints.

    Returns the empty list iff, within tolerance: no resource is over its
    free PEs, every job's PE requirement is met exactly, no job overspends
    its budget or overruns its deadline on a real resource, no entry is
    negative, and -- in SGN mode -- every job sits whole on exactly one
    resource.  Dummy placements count toward the PE requirement (a parked
    job is accounted for) but are exempt from budget and deadline, which
    only constrain actual execution.
    """
    jobs_by_id = _index(jobs, "job_id")
    res_by_id = _index(resources, "resource_id")
    for (rid, jid) in alloc.entries:
        if rid not in res_by_id:
            raise UnknownIdError(f"allocation references unknown resource {rid}")
        if jid not in jobs_by_id:
            raise UnknownIdError(f"allocation references unknown job {jid}")

    violations: list[Violation] = []
    by_res = alloc.by_resource()
    by_job = alloc.by_job()

    for rid in sorted(by_res):
        load = sum(max(p, 0) for p in by_res[rid].values())
        cap = res_by_id[rid].free_pes
        if load > cap:
            violations.append(
                Violation(ViolationKind.CAPACITY, rid, None,
                          f"allocated {load} PEs on {rid} with only {cap} free")
            )

    for jid in sorted(jobs_by_id):
        job = jobs_by_id[jid]
        got = sum(by_job.get(jid, {}).values())
        if got != job.pe_count:
            violations.append(
                Violation(ViolationKind.PE_REQUIREMENT, None, jid,
                          f"job {jid} holds {got} PEs, requires {job.pe_count}")
            )

    if mode is JobKind.SGN:
        for jid in sorted(by_job):
            job = jobs_by_id[jid]
            positive = {rid: p for rid, p in by_job[jid].items() if p > 0}
            for rid in sorted(positive):
                if positive[rid] != job.pe_count:
                    violations.append(
                        Violation(ViolationKind.SPLIT_SGN_JOB, rid, jid,
                                  f"SGN job {jid} holds partial block of "
                                  f"{positive[rid]}/{job.pe_count} PEs on {rid}")
                    )
            if len(positive) > 1:
                violations.append(
                    Violation(ViolationKind.MULTIPLE_RESOURCES, None, jid,
                              f"SGN job {jid} spans {len(positive)} resources")
                )

    for jid in sorted(by_job):
        job = jobs_by_id[jid]
        real = {rid: p for rid, p in by_job[jid].items()
                if p > 0 and not res_by_id[rid].is_dummy}
        if not real:
            continue
        charge = budget_charge(job, real, res_by_id)
        if charge > budget_limit(job.budget_gd):
            violations.append(
                Violation(ViolationKind.BUDGET, None, jid,
                          f"job {jid} spends {charge:.6g} over budget {job.budget_gd:.6g}")
            )

    for (rid, jid), pes in alloc.items():
        if pes <= 0:
            continue
        res = res_by_id[rid]
        if res.is_dummy:
            continue
        job = jobs_by_id[jid]
        if not meets_deadline(job, res):
            t = exec_time(job, res)
            violations.append(
                Violation(ViolationKind.DEADLINE, rid, jid,
                          f"job {jid} needs {t:.6g}s on {rid}, deadline {job.deadline_s:.6g}s")
            )

    for (rid, jid), pes in alloc.items():
        if pes < 0:
            violations.append(
                Violation(ViolationKind.NEGATIVE, rid, jid,
                          f"negative allocation {pes} for ({rid}, {jid})")
            )

    order = {k: i for i, k in enumerate(ViolationKind)}
    violations.sort(key=lambda v: (order[v.kind], v.resource_id or "", v.job_id or ""))
    return violations


def make_dummy_resource(
    jobs: Sequence[JobRequest], resources: Sequence[ResourceInfo]
) -> ResourceInfo:
    """Build the parking-lot resource for a batch: capacity for every PE of
    every job, at the fastest real speed, priced above every real
    placement.

    The rate is ``DUMMY_RATE_FACTOR`` x the dearest real price per
    instruction, taken at the dummy's own speed:
    ``10 * max_k(rate_k * max_speed / speed_k)`` (floored at 10 G$).  A
    PE's coefficient is rate x longest task / speed, so parking one PE of a
    job costs at least 10x that job's dearest real coefficient at any
    speed spread.  The relaxation adds a batch-wide surcharge per parked
    PE (``relaxed`` module docstring), so this price only weighs in among
    allocations that park equally few PEs.
    """
    real = [r for r in resources if not r.is_dummy]
    max_speed = max([1.0] + [r.pe_speed_mips for r in real])
    rate = max([1.0] + [r.cost_per_pe_second * max_speed / r.pe_speed_mips for r in real])
    capacity = sum(j.pe_count for j in jobs)
    return ResourceInfo(
        resource_id=DUMMY_ID,
        free_pes=capacity,
        cost_per_pe_second=rate * DUMMY_RATE_FACTOR,
        pe_speed_mips=max_speed,
        is_dummy=True,
    )


def ensure_dummy(
    jobs: Sequence[JobRequest], resources: Sequence[ResourceInfo]
) -> tuple[list[ResourceInfo], str]:
    """Return a resource list that contains a dummy, plus the dummy's id."""
    dummies = sorted((r for r in resources if r.is_dummy), key=lambda r: r.resource_id)
    if dummies:
        return list(resources), dummies[0].resource_id
    dummy = make_dummy_resource(jobs, resources)
    if any(r.resource_id == dummy.resource_id for r in resources):
        raise ValueError(f"non-dummy resource already uses reserved id {dummy.resource_id}")
    return list(resources) + [dummy], dummy.resource_id


def whole_jobs(table: PairTable, homes: Sequence[int]) -> np.ndarray:
    """The PE array over ``table`` placing each row j whole on ``homes[j]``."""
    placed = np.zeros(table.cost.shape, dtype=int)
    placed[np.arange(len(table.jobs)), homes] = table.pes
    return placed


def build_schedule(table: PairTable, placed: np.ndarray) -> Schedule:
    """Turn ``placed``, a jobs x resources array of PE counts over
    ``table``, into a Schedule.

    Any job with PEs on the dummy column is parked whole: its real fragments
    (possible in split-mode solutions when capacity ran short) are dropped
    because a partially-placed job cannot run, and its PEs are re-parked on
    the table's dummy.  The cost covers really-placed jobs only: each
    fragment costs rate x PEs x runtime, summed per job in column order.
    """
    jobs, resources = table.jobs, table.resources
    parked = (placed[:, table.parking] > 0).tolist()
    ji, ki = np.nonzero(placed)  # row-major: job-major, resource-minor
    pes = placed[ji, ki]
    fragments = table.rate[ki] * pes * table.exec_s[ji, ki]
    entries: dict[tuple[str, str], int] = {}
    job_costs: dict[int, float] = {}  # per placed job, in row order
    for j, k, n, cost in zip(ji.tolist(), ki.tolist(), pes.tolist(), fragments.tolist()):
        if parked[j]:
            entries[(table.dummy_id, jobs[j].job_id)] = jobs[j].pe_count
        else:
            entries[(resources[k].resource_id, jobs[j].job_id)] = n
            job_costs[j] = job_costs.get(j, 0.0) + cost
    dummy_jobs = frozenset(job.job_id for job, p in zip(jobs, parked) if p)
    # not a running +=: Python >= 3.12 compensates sum()
    return Schedule(AllocationMatrix(entries), dummy_jobs, sum(job_costs.values()))
