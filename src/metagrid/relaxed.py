"""Exact solver for the split-allowed (MGN) scheduling relaxation.

The relaxation treats every job as splittable: choose nonnegative integer
PE counts r[i, j] minimizing total money subject to resource capacities,
exact per-job PE demands, and per-job budget caps.  Pairs whose execution
time misses the job's deadline are excluded up front.  Whenever parking
is allowed, the model carries a dummy parking resource (always
pair-eligible, budget-exempt) that absorbs demand the real grid cannot
host, so the model is always feasible.  Parking is priced
lexicographically, not by a guess about the batch: besides the dummy's
own price, each parked PE pays M = sum over jobs of pe_count x dearest
admissible coefficient, which no allocation's unsurcharged cost exceeds.
So parking fewer PEs always costs less, and the optimum parks the fewest
PEs that capacities, deadlines and budgets allow: no PE parks while its
job can afford a free real PE, and no job parks to free a cheaper
machine for another.

``build_relaxed`` keeps every admissible pair in the model, but the
integer program handed to the solver gets only the columns that can
matter (``RelaxedModel.lp_columns``): per job, its admissible real pairs
in ascending (cost coefficient, resource id) order, stopping once their
summed free PEs reach the batch's total PE demand, plus the dummy pair.
This loses no optimum.  Any PE placed outside its job's prefix leaves
some prefix resource with a spare PE (the prefix alone can hold the whole
batch); moving the PE there costs no more, and under ``TIME_INCLUSIVE``
budgets (budget weight == cost coefficient) spends no more either, so the
per-pair bounds still hold.  Under ``LITERAL`` budgets the weight is the
bare rate, a cheaper placement can charge more, and every admissible pair
stays a column.  The move never touches a parked PE, so the pruned
program keeps the fewest parked PEs too.

``solve_relaxed`` hands the integer program to the HiGHS branch-and-cut
engine (via scipy) at zero optimality gap and re-checks the rounded
answer exactly in pure Python.  ``brute_force_relaxed`` is an independent
pure-Python enumerator used as a cross-check oracle on small instances.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .model import (
    AllocationMatrix,
    BudgetSemantics,
    DEFAULT_CONFIG,
    JobRequest,
    ResourceInfo,
    SchedulerConfig,
    budget_limit,
    make_dummy_resource,
    placement_cost,
    placement_feasible,
)


class EmptyGridError(ValueError):
    """No resources were given and dummy insertion is not permitted."""


class InfeasibleError(RuntimeError):
    """The PE demands cannot all be met, even using every admissible pair."""


class TooLargeError(ValueError):
    """Instance exceeds the brute-force enumeration guard."""


@dataclass(frozen=True)
class RelaxedModel:
    """The built relaxation: admissible pairs and their cost coefficients.

    ``cost_coeff[(rid, jid)]`` is the money per PE of placing one PE of job
    jid on resource rid (rate x execution time; dummy pairs add the
    parking surcharge of the module docstring).  ``budget_weight`` is the
    per-PE amount counted against the job's budget (zero-weight dummy pairs
    are omitted).  ``pair_order`` fixes the deterministic variable order:
    job-major, resource-minor.  ``lp_columns`` is the subset of
    ``pair_order`` (same order) that the solver sees; see the module
    docstring for why dropping the rest is exact.  ``epsilon`` is the
    budget tolerance of the config the model was built with.
    """

    jobs: tuple[JobRequest, ...]
    resources: tuple[ResourceInfo, ...]
    feasible_pairs: frozenset[tuple[str, str]]
    cost_coeff: Mapping[tuple[str, str], float]
    budget_weight: Mapping[tuple[str, str], float]
    pair_order: tuple[tuple[str, str], ...]
    dummy_id: str | None
    lp_columns: tuple[tuple[str, str], ...]
    epsilon: float


def _pair_table(jobs, resources, config):
    """Job x resource arrays: cost coefficient, budget weight, admissible.

    The whole-job rule of ``model`` (``meets_deadline``, and
    ``pair_charge`` for one PE), evaluated for every pair at once: a real
    pair is admissible iff the job meets its deadline there and one PE is
    affordable; dummy pairs always are, at zero budget weight.
    """
    eps = config.epsilon
    longest = np.array([max(j.task_sizes_mi) for j in jobs], dtype=float)
    speed = np.array([r.pe_speed_mips for r in resources], dtype=float)
    deadline = np.array([j.deadline_s for j in jobs], dtype=float)
    budget = np.array([j.budget_gd for j in jobs], dtype=float)
    rate = np.array([r.cost_per_pe_second for r in resources], dtype=float)
    dummy = np.array([r.is_dummy for r in resources], dtype=bool)
    exec_s = longest[:, None] / speed[None, :]
    on_time = dummy | (exec_s <= (deadline + eps)[:, None])
    coeff = rate * exec_s
    literal = config.budget_semantics is BudgetSemantics.LITERAL
    weight = np.where(dummy, 0.0, np.broadcast_to(rate, exec_s.shape) if literal else coeff)
    admissible = dummy | (on_time & (weight <= budget_limit(budget, eps)[:, None]))
    return coeff, weight, admissible


def build_relaxed(
    jobs: Sequence[JobRequest],
    resources: Sequence[ResourceInfo],
    config: SchedulerConfig = DEFAULT_CONFIG,
) -> RelaxedModel:
    """Assemble the relaxation for one batch.

    Keeps a (resource, job) pair iff the job finishes within its deadline
    there and a single PE is affordable; dummy pairs are always kept.
    When ``config.allow_dummy`` is set and the batch has jobs, a dummy
    resource is appended unless one is given, so the model is feasible
    whatever the grid; its pairs carry the parking surcharge that makes
    parking a last resort (module docstring).  Without it, an uncoverable
    batch makes ``solve_relaxed`` raise ``InfeasibleError``.
    """
    jobs = tuple(sorted(jobs, key=lambda j: j.job_id))
    res_list = sorted(resources, key=lambda r: r.resource_id)
    if not res_list and not config.allow_dummy:
        raise EmptyGridError("no resources and dummy parking disabled")
    if config.allow_dummy and jobs and not any(r.is_dummy for r in res_list):
        res_list.append(make_dummy_resource(jobs, res_list))
        res_list.sort(key=lambda r: r.resource_id)

    coeff, weight, admissible = _pair_table(jobs, res_list, config)
    dummy = np.array([r.is_dummy for r in res_list], dtype=bool)
    if dummy.any():
        # lexicographic parking: a parked PE also pays a bound on the batch's
        # unsurcharged cost, so an optimum parks the fewest PEs possible
        pes = np.array([j.pe_count for j in jobs], dtype=float)
        coeff[:, dummy] += pes @ np.where(admissible, coeff, 0.0).max(axis=1)
    columns = admissible
    if config.budget_semantics is not BudgetSemantics.LITERAL and jobs:
        # per job, the cheapest admissible real pairs (stable sort: ties by
        # resource id) until the capacity before a pair covers the demand
        real = admissible & ~dummy
        order = np.argsort(np.where(real, coeff, np.inf), axis=1, kind="stable")
        free = np.array([r.free_pes for r in res_list], dtype=int)
        cap = np.where(np.take_along_axis(real, order, axis=1), free[order], 0)
        before = np.cumsum(cap, axis=1) - cap
        prefix = np.zeros_like(real)
        np.put_along_axis(prefix, order, before < sum(j.pe_count for j in jobs), axis=1)
        columns = (real & prefix) | (admissible & dummy)

    rids = [r.resource_id for r in res_list]
    jids = [j.job_id for j in jobs]
    ji, ri = np.nonzero(admissible)  # row-major: job-major, resource-minor
    pairs = tuple((rids[r], jids[j]) for j, r in zip(ji.tolist(), ri.tolist()))
    dummies = sorted(rid for rid, d in zip(rids, dummy.tolist()) if d)
    return RelaxedModel(
        jobs=jobs,
        resources=tuple(res_list),
        feasible_pairs=frozenset(pairs),
        cost_coeff=dict(zip(pairs, coeff[ji, ri].tolist())),
        budget_weight={p: w for p, w in zip(pairs, weight[ji, ri].tolist()) if w > 0.0},
        pair_order=pairs,
        dummy_id=dummies[0] if dummies else None,
        lp_columns=tuple(p for p, keep in zip(pairs, columns[ji, ri].tolist()) if keep),
        epsilon=config.epsilon,
    )


def relaxed_objective(model: RelaxedModel, alloc: AllocationMatrix) -> float:
    """Canonical objective: coefficient-weighted PE counts summed in the
    model's fixed pair order (so equal allocations give identical floats).
    Includes dummy pairs at their deterrent price."""
    total = 0.0
    for key in model.pair_order:
        pes = alloc.pes(*key)
        if pes:
            total += model.cost_coeff[key] * pes
    return total


def _model_arrays(model: RelaxedModel):
    """LP ingredients over ``model.lp_columns``: objective, capacity rows
    then the budget rows that can bind, demand rows, per-column bounds."""
    cols = model.lp_columns
    n = len(cols)
    job_row = {j.job_id: i for i, j in enumerate(model.jobs)}
    res_row = {r.resource_id: i for i, r in enumerate(model.resources)}
    ji = np.fromiter((job_row[j] for _, j in cols), dtype=int, count=n)
    ri = np.fromiter((res_row[r] for r, _ in cols), dtype=int, count=n)
    c = np.fromiter((model.cost_coeff[p] for p in cols), dtype=float, count=n)
    w = np.fromiter((model.budget_weight.get(p, 0.0) for p in cols), dtype=float, count=n)
    free = np.array([r.free_pes for r in model.resources], dtype=float)
    pes = np.array([j.pe_count for j in model.jobs], dtype=float)
    budget = np.array([j.budget_gd for j in model.jobs], dtype=float)
    k = np.arange(n)

    # largest PE count a single pair could ever carry: no feasible solution
    # puts more than budget/weight PEs on a weighted pair
    ub = np.minimum(free[ri], pes[ji])
    weighted = w > 0.0
    limit = budget_limit(budget, model.epsilon)
    ub[weighted] = np.minimum(ub[weighted], np.floor(limit[ji[weighted]] / w[weighted]))
    ub = np.maximum(ub, 0.0)

    # demand rows: one per job, sum of its pairs == pe_count
    a_eq = sparse.csr_matrix((np.ones(n), (ji, k)), shape=(len(model.jobs), n))

    # inequality rows: capacity per used resource, then each budget row
    # that could bind given the bounds
    used = np.unique(ri)
    cap_row = np.searchsorted(used, ri)
    reach = np.bincount(ji[weighted], weights=(w * ub)[weighted], minlength=len(model.jobs))
    binds = np.bincount(ji[weighted], minlength=len(model.jobs)) > 0
    binds &= ~(reach <= limit)
    bud_row = len(used) + np.cumsum(binds) - 1
    terms = weighted & binds[ji]
    n_ub = len(used) + int(binds.sum())
    a_ub = sparse.csr_matrix(
        (np.concatenate([np.ones(n), w[terms]]),
         (np.concatenate([cap_row, bud_row[ji[terms]]]), np.concatenate([k, k[terms]]))),
        shape=(n_ub, n),
    ) if n_ub else None
    b_ub = np.concatenate([free[used], budget[binds]]) if n_ub else None
    return c, a_ub, b_ub, a_eq, pes, ub


def _check_integer_solution(model: RelaxedModel, counts: dict) -> bool:
    """Exact feasibility re-check of a rounded candidate."""
    res_by_id = {r.resource_id: r for r in model.resources}
    load: dict[str, int] = {}
    demand: dict[str, int] = {}
    spend: dict[str, float] = {}
    for (rid, jid), v in counts.items():
        if v < 0:
            return False
        load[rid] = load.get(rid, 0) + v
        demand[jid] = demand.get(jid, 0) + v
        w = model.budget_weight.get((rid, jid), 0.0)
        if w:
            spend[jid] = spend.get(jid, 0.0) + w * v
    for rid, used in load.items():
        if used > res_by_id[rid].free_pes:
            return False
    for job in model.jobs:
        if demand.get(job.job_id, 0) != job.pe_count:
            return False
        if spend.get(job.job_id, 0.0) > budget_limit(job.budget_gd, model.epsilon):
            return False
    return True


def solve_relaxed(model: RelaxedModel) -> AllocationMatrix:
    """Optimal integer solution of the relaxation.

    The integer program goes straight to the HiGHS branch-and-cut engine
    at zero optimality gap, and the rounded answer is re-checked exactly
    in pure Python before we trust it (once more with tightened solver
    tolerances if the first pass is numerically off).  Deterministic for
    a fixed environment; ties between equal-cost optima resolve by the
    engine's fixed search order.  Raises InfeasibleError when the demands
    cannot be met, which needs a model built with ``allow_dummy=False``.
    """
    if not model.jobs:
        return AllocationMatrix.empty()
    placeable = {jid for _, jid in model.lp_columns}
    for job in model.jobs:
        if job.job_id not in placeable:
            raise InfeasibleError(f"job {job.job_id} has no admissible pair")

    c, a_ub, b_ub, a_eq, b_eq, base_ub = _model_arrays(model)
    n = len(model.lp_columns)
    bounds = np.column_stack([np.zeros(n), base_ub])
    exact = {"mip_rel_gap": 0.0}
    tightened = {
        **exact,
        "primal_feasibility_tolerance": 1e-10,
        "dual_feasibility_tolerance": 1e-10,
    }
    for options in (exact, tightened):
        res = linprog(
            c,
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=bounds,
            method="highs",
            integrality=np.ones(n),
            options=options,
        )
        if res.status == 2:  # infeasible
            raise InfeasibleError("no integer allocation satisfies the demands")
        if res.status != 0:
            raise RuntimeError(
                f"MILP solve failed with status {res.status}: {res.message}"
            )
        x = np.rint(res.x).astype(int)
        counts = {model.lp_columns[k]: int(x[k]) for k in np.flatnonzero(x)}
        if _check_integer_solution(model, counts):
            return AllocationMatrix(counts)
    raise RuntimeError("MILP optimum failed the exact feasibility recheck")


def brute_force_relaxed(model: RelaxedModel) -> AllocationMatrix:
    """Reference oracle: exhaustive search over all integer allocations.

    Guarded to small instances (total PEs <= 20, at most 4 resources).
    Enumerates jobs in id order and, per job, PE splits over its admissible
    resources in id order with counts ascending, keeping the first optimum
    found -- i.e. the lexicographically smallest optimal vector in
    job-major order.
    """
    total_pes = sum(j.pe_count for j in model.jobs)
    if total_pes > 20 or len(model.resources) > 4:
        raise TooLargeError(
            f"brute force limited to 20 total PEs / 4 resources, "
            f"got {total_pes} PEs / {len(model.resources)} resources"
        )
    jobs = sorted(model.jobs, key=lambda j: j.job_id)
    res_by_id = {r.resource_id: r for r in model.resources}

    # admissible resources and cheapest per-PE coefficient per job
    arcs: dict[str, list[str]] = {}
    cheapest: dict[str, float] = {}
    for job in jobs:
        rids = sorted(rid for (rid, jid) in model.feasible_pairs if jid == job.job_id)
        if not rids:
            raise InfeasibleError(f"job {job.job_id} has no admissible pair")
        arcs[job.job_id] = rids
        cheapest[job.job_id] = min(model.cost_coeff[(rid, job.job_id)] for rid in rids)

    remaining_lb = [0.0] * (len(jobs) + 1)
    for i in range(len(jobs) - 1, -1, -1):
        remaining_lb[i] = remaining_lb[i + 1] + cheapest[jobs[i].job_id] * jobs[i].pe_count

    best_obj = float("inf")
    best: dict[tuple[str, str], int] | None = None
    capacity = {r.resource_id: r.free_pes for r in model.resources}
    current: dict[tuple[str, str], int] = {}

    def place_job(ji: int, partial_cost: float) -> None:
        nonlocal best_obj, best
        if partial_cost + remaining_lb[ji] > best_obj + 1e-12:
            return
        if ji == len(jobs):
            if partial_cost < best_obj - 1e-12:
                best_obj = partial_cost
                best = dict(current)
            return
        job = jobs[ji]
        rids = arcs[job.job_id]

        def split(ai: int, left: int, cost_so_far: float, spent: float) -> None:
            # optimistic completion: rest of this job at its cheapest rate,
            # every later job at its own cheapest rate
            if cost_so_far + cheapest[job.job_id] * left + remaining_lb[ji + 1] > best_obj + 1e-12:
                return
            if ai == len(rids):
                if left == 0:
                    place_job(ji + 1, cost_so_far)
                return
            rid = rids[ai]
            key = (rid, job.job_id)
            cap = min(capacity[rid], left)
            w = model.budget_weight.get(key, 0.0)
            for take in range(0, cap + 1):
                new_spent = spent + w * take
                if new_spent > budget_limit(job.budget_gd, model.epsilon):
                    break
                if take:
                    current[key] = take
                    capacity[rid] -= take
                split(ai + 1, left - take,
                      cost_so_far + model.cost_coeff[key] * take, new_spent)
                if take:
                    del current[key]
                    capacity[rid] += take

        split(0, job.pe_count, partial_cost, 0.0)

    place_job(0, 0.0)
    if best is None:
        raise InfeasibleError("no integer allocation satisfies the demands")
    return AllocationMatrix(best)


def brute_force_sgn(
    jobs: Sequence[JobRequest],
    resources: Sequence[ResourceInfo],
    config: SchedulerConfig = DEFAULT_CONFIG,
) -> AllocationMatrix | None:
    """Optimal whole-job-per-resource assignment by exhaustive search.

    Real resources only (no parking): returns None when some job cannot be
    placed in any arrangement.  Same size guard as brute_force_relaxed.
    """
    total_pes = sum(j.pe_count for j in jobs)
    real = sorted((r for r in resources if not r.is_dummy), key=lambda r: r.resource_id)
    if total_pes > 20 or len(real) > 4:
        raise TooLargeError("SGN brute force limited to 20 total PEs / 4 resources")
    job_list = sorted(jobs, key=lambda j: j.job_id)

    options: list[list[tuple[str, float]]] = []
    for job in job_list:
        opts = [(res.resource_id, placement_cost(job, res))
                for res in real if placement_feasible(job, res, config)]
        if not opts:
            return None
        options.append(opts)

    capacity = {r.resource_id: r.free_pes for r in real}
    best_obj = float("inf")
    best: dict[tuple[str, str], int] | None = None
    current: dict[tuple[str, str], int] = {}

    def assign(ji: int, cost: float) -> None:
        nonlocal best_obj, best
        if cost > best_obj + 1e-12:
            return
        if ji == len(job_list):
            if cost < best_obj - 1e-12:
                best_obj = cost
                best = dict(current)
            return
        job = job_list[ji]
        for rid, pair_cost in options[ji]:
            if capacity[rid] < job.pe_count:
                continue
            capacity[rid] -= job.pe_count
            current[(rid, job.job_id)] = job.pe_count
            assign(ji + 1, cost + pair_cost)
            del current[(rid, job.job_id)]
            capacity[rid] += job.pe_count

    assign(0, 0.0)
    if best is None:
        return None
    return AllocationMatrix(best)


def dump_lp(model: RelaxedModel) -> str:
    """Debug dump of the model as one LP-ish text line per row."""
    def var(rid: str, jid: str) -> str:
        return f"x[{rid},{jid}]"

    terms = " + ".join(
        f"{model.cost_coeff[p]:.6g} {var(*p)}" for p in model.pair_order
    )
    rows: list[str] = []
    by_res: dict[str, list[tuple[str, str]]] = {}
    for p in model.pair_order:
        by_res.setdefault(p[0], []).append(p)
    for res in model.resources:
        rid = res.resource_id
        if rid not in by_res:
            continue
        lhs = " + ".join(var(*p) for p in sorted(by_res[rid], key=lambda p: p[1]))
        rows.append(f"cap[{rid}]: {lhs} <= {res.free_pes}")
    for job in model.jobs:
        mine = [p for p in model.pair_order if p[1] == job.job_id]
        lhs = " + ".join(var(*p) for p in mine)
        rows.append(f"dem[{job.job_id}]: {lhs} = {job.pe_count}")
    for job in model.jobs:
        mine = [p for p in model.pair_order if p[1] == job.job_id and p in model.budget_weight]
        if not mine:
            continue
        lhs = " + ".join(f"{model.budget_weight[p]:.6g} {var(*p)}" for p in mine)
        rows.append(f"bud[{job.job_id}]: {lhs} <= {job.budget_gd:.6g}")
    return f"min: {terms}; st: " + "; ".join(rows) + ";"
