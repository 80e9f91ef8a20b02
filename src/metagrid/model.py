"""Core domain model for deadline- and budget-constrained grid meta-scheduling.

Value types for resources, jobs, allocations and schedules, plus the cost,
timing and feasibility primitives that every scheduler in this package
shares.  A job asks for a fixed number of processing elements (PEs); a
resource offers PEs at a money rate per PE-second and a speed in MIPS.
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

DUMMY_ID = "DUMMY"
DUMMY_RATE_FACTOR = 10.0


class UnknownIdError(KeyError):
    """A resource id or job id does not resolve to a known record."""


class BudgetSemantics(str, enum.Enum):
    """How the per-job budget cap is interpreted.

    LITERAL caps the raw rate-weighted PE sum (rate x PEs); TIME_INCLUSIVE
    caps what the job actually pays (rate x PEs x runtime).  TIME_INCLUSIVE
    is the default because generated budgets are sized against spending.
    """

    LITERAL = "literal"
    TIME_INCLUSIVE = "time_inclusive"


class JobKind(str, enum.Enum):
    """The placement mode ``validate`` checks an allocation against."""

    MGN = "mgn"  # job tasks may be split across resources
    SGN = "sgn"  # all PEs of the job must sit on one resource


@dataclass(frozen=True)
class SchedulerConfig:
    """Knobs shared by every scheduler.

    ``epsilon`` is the global absolute tolerance for constraint
    comparisons (see ``budget_limit``); ``allow_dummy`` controls whether
    unplaceable jobs may be parked on a dummy resource instead of raising.
    """

    budget_semantics: BudgetSemantics = BudgetSemantics.TIME_INCLUSIVE
    allow_dummy: bool = True
    epsilon: float = 1e-9


DEFAULT_CONFIG = SchedulerConfig()


def budget_limit(budget_gd, epsilon: float):
    """Largest charge a budget admits: the budget plus the absolute
    tolerance.  Every budget check in the package compares against this,
    for scalars and numpy arrays alike."""
    return budget_gd + epsilon


def _finite(value) -> bool:
    """A finite int or float; bools and every other type are rejected."""
    return type(value) is not bool and isinstance(value, (int, float)) and math.isfinite(value)


def _positive(value) -> bool:
    return _finite(value) and value > 0


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
        if type(self.free_pes) is not int or self.free_pes < 0:
            raise ValueError(f"free_pes must be a nonnegative int, got {self.free_pes!r}")
        if type(self.is_dummy) is not bool:
            raise ValueError(f"is_dummy must be a bool, got {self.is_dummy!r}")
        for name in ("cost_per_pe_second", "pe_speed_mips"):
            value = getattr(self, name)
            if not _positive(value):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")


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
        if not _positive(self.deadline_s):
            raise ValueError(f"job {self.job_id}: deadline_s must be finite and positive")
        if not (_finite(self.submit_time_s) and self.submit_time_s >= 0):
            raise ValueError(f"job {self.job_id}: submit_time_s must be finite and >= 0")


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

    def resource_ids(self) -> set[str]:
        return {rid for (rid, _) in self.entries}


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
    ``per_job_time_s`` is the completion time (max over the job's
    resources) for really-placed jobs only.
    """

    assignments: AllocationMatrix
    per_job_cost_gd: Mapping[str, float]
    per_job_time_s: Mapping[str, float]
    dummy_jobs: frozenset[str] = field(default_factory=frozenset)
    total_cost_gd: float = 0.0

    @classmethod
    def empty(cls) -> Schedule:
        return cls(AllocationMatrix.empty(), {}, {}, frozenset(), 0.0)


def exec_time(job: JobRequest, resource: ResourceInfo) -> float:
    """Seconds the job occupies the resource: largest task MI / PE speed."""
    return max(job.task_sizes_mi) / resource.pe_speed_mips


def placement_cost(job: JobRequest, resource: ResourceInfo) -> float:
    """Money spent placing the whole job (all PEs) on one resource."""
    return resource.cost_per_pe_second * job.pe_count * exec_time(job, resource)


# --- the whole-job rule ------------------------------------------------------
# Every deadline and budget check in the package goes through these three
# helpers (``relaxed`` and ``ga`` evaluate the same rule over numpy tables).


def meets_deadline(job: JobRequest, resource: ResourceInfo, epsilon: float) -> bool:
    """The job finishes within its deadline (plus tolerance) on the resource."""
    return exec_time(job, resource) <= job.deadline_s + epsilon


def pair_charge(
    job: JobRequest, resource: ResourceInfo, pes: int, semantics: BudgetSemantics
) -> float:
    """What ``pes`` PEs of the job on one real resource count against its
    budget: rate x PEs (LITERAL) or rate x PEs x runtime (TIME_INCLUSIVE,
    which is also what they cost)."""
    if semantics is BudgetSemantics.LITERAL:
        return resource.cost_per_pe_second * pes
    return resource.cost_per_pe_second * pes * exec_time(job, resource)


def breach_count(
    job: JobRequest, resource: ResourceInfo, config: SchedulerConfig = DEFAULT_CONFIG
) -> int:
    """Deadline plus budget breaches (0-2) of the whole job on one real
    resource.  Capacity is the caller's concern."""
    eps = config.epsilon
    late = not meets_deadline(job, resource, eps)
    charge = pair_charge(job, resource, job.pe_count, config.budget_semantics)
    return late + (charge > budget_limit(job.budget_gd, eps))


def budget_charge(
    job: JobRequest,
    real_allocations: Mapping[str, int],
    resources_by_id: Mapping[str, ResourceInfo],
    semantics: BudgetSemantics,
) -> float:
    """The quantity capped by the job's budget, for its non-dummy PEs."""
    total = 0.0
    for rid in sorted(real_allocations):
        total += pair_charge(job, resources_by_id[rid], real_allocations[rid], semantics)
    return total


def placement_feasible(
    job: JobRequest, resource: ResourceInfo, config: SchedulerConfig = DEFAULT_CONFIG
) -> bool:
    """Whole-job single-resource eligibility: deadline and budget only.

    Dummy resources are always eligible (parking defers the job instead of
    running it).  Capacity is the caller's concern.
    """
    return resource.is_dummy or breach_count(job, resource, config) == 0


def qos_index(job: JobRequest) -> float:
    """Priority score: budget per deadline-second per PE (higher = richer
    and more urgent per unit of work, scheduled first)."""
    return job.budget_gd / (job.deadline_s * job.pe_count)


def _index_resources(resources: Sequence[ResourceInfo]) -> dict[str, ResourceInfo]:
    out = {}
    for r in resources:
        if r.resource_id in out:
            raise ValueError(f"duplicate resource_id {r.resource_id}")
        out[r.resource_id] = r
    return out


def _index_jobs(jobs: Sequence[JobRequest]) -> dict[str, JobRequest]:
    out = {}
    for j in jobs:
        if j.job_id in out:
            raise ValueError(f"duplicate job_id {j.job_id}")
        out[j.job_id] = j
    return out


def schedule_cost(
    alloc: AllocationMatrix,
    jobs: Sequence[JobRequest],
    resources: Sequence[ResourceInfo],
) -> float:
    """Total money the allocation spends on real (non-dummy) resources.

    Each entry contributes rate x PEs x execution time.  Raises
    UnknownIdError if an entry references an unknown job or resource.
    """
    jobs_by_id = _index_jobs(jobs)
    res_by_id = _index_resources(resources)
    total = 0.0
    for (rid, jid), pes in alloc.items():
        if rid not in res_by_id:
            raise UnknownIdError(f"allocation references unknown resource {rid}")
        if jid not in jobs_by_id:
            raise UnknownIdError(f"allocation references unknown job {jid}")
        res = res_by_id[rid]
        if res.is_dummy:
            continue
        job = jobs_by_id[jid]
        total += res.cost_per_pe_second * pes * exec_time(job, res)
    return total


def validate(
    alloc: AllocationMatrix,
    jobs: Sequence[JobRequest],
    resources: Sequence[ResourceInfo],
    mode: JobKind,
    config: SchedulerConfig = DEFAULT_CONFIG,
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
    jobs_by_id = _index_jobs(jobs)
    res_by_id = _index_resources(resources)
    eps = config.epsilon
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
        charge = budget_charge(job, real, res_by_id, config.budget_semantics)
        if charge > budget_limit(job.budget_gd, eps):
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
        if not meets_deadline(job, res, eps):
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


def build_schedule(
    alloc: AllocationMatrix,
    jobs: Sequence[JobRequest],
    resources: Sequence[ResourceInfo],
    config: SchedulerConfig = DEFAULT_CONFIG,
) -> Schedule:
    """Normalize an allocation into a Schedule.

    Any job touching a dummy resource is parked whole: its real fragments
    (possible in split-mode solutions when capacity ran short) are dropped
    because a partially-placed job cannot run, and its PEs are re-parked on
    the dummy.  Costs and times cover really-placed jobs only.
    """
    jobs_by_id = _index_jobs(jobs)
    res_by_id = _index_resources(resources)
    dummy_ids = {r.resource_id for r in resources if r.is_dummy}
    by_job = alloc.by_job()

    parked: set[str] = set()
    for jid, allocs in by_job.items():
        if any(rid in dummy_ids for rid in allocs):
            parked.add(jid)

    dummy_home = sorted(dummy_ids)[0] if dummy_ids else None
    entries: dict[tuple[str, str], int] = {}
    per_cost: dict[str, float] = {}
    per_time: dict[str, float] = {}
    for jid in sorted(by_job):
        job = jobs_by_id[jid]
        if jid in parked:
            if dummy_home is not None:
                entries[(dummy_home, jid)] = job.pe_count
            continue
        cost = 0.0
        finish = 0.0
        for rid in sorted(by_job[jid]):
            pes = by_job[jid][rid]
            res = res_by_id[rid]
            entries[(rid, jid)] = pes
            t = exec_time(job, res)
            cost += res.cost_per_pe_second * pes * t
            finish = max(finish, t)
        per_cost[jid] = cost
        per_time[jid] = finish

    return Schedule(
        assignments=AllocationMatrix(entries),
        per_job_cost_gd=per_cost,
        per_job_time_s=per_time,
        dummy_jobs=frozenset(parked),
        total_cost_gd=sum(per_cost[j] for j in sorted(per_cost)),
    )
