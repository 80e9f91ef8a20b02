"""Exact solver for the split-allowed (MGN) scheduling relaxation.

The relaxation treats every job as splittable: choose nonnegative integer
PE counts r[i, j] minimizing total money subject to resource capacities,
exact per-job PE demands, and per-job budget caps.  Pairs whose execution
time misses the job's deadline are excluded up front.  The model carries
a dummy parking resource (always pair-eligible, budget-exempt) that
absorbs demand the real grid cannot host, so it is always feasible.
Parking is priced lexicographically, not by a guess about the batch:
besides the dummy's own price, each parked PE pays M = sum over jobs of
pe_count x dearest admissible coefficient, which no allocation's
unsurcharged cost exceeds.  So parking fewer PEs always costs less, and
the optimum parks the fewest PEs that capacities, deadlines and budgets
allow: no PE parks while its job can afford a free real PE, and no job
parks to free a cheaper machine for another.

The model is a set of job x resource arrays over the batch's
``PairTable``, which the caller builds.  It keeps every pair the table
marks ``admissible``, but the program handed to the solver gets only the
columns that can matter (``RelaxedModel.columns``): every job's dummy
pair and the real pairs that survive the rules below, none of which
loses the optimum.

Job-side prefix: per job, its admissible real pairs in ascending (cost
coefficient, resource id) order, stopping once their summed free PEs
reach the batch's total PE demand.  Any PE placed outside its job's
prefix leaves some prefix resource with a spare PE (the prefix alone
can hold the whole batch); moving the PE there costs no more, and as a
pair's budget weight is its cost coefficient, spends no more either, so
the per-pair bounds still hold.  The move never touches a parked PE, so
the pruned program keeps the fewest parked PEs too.

(a) No column on a resource without a free PE: its bound is 0 anyway.

(b) The spend bound (``_spend_bound``): no allocation makes a job spend
more than its pe_count PEs filled into its weighted columns dearest
weight first, each up to its column bound (a fractional knapsack).  A
budget row can bind only when that bound exceeds the job's limit, and
``_model_arrays`` keeps only those rows.

(c) Resource-side prefix, for a batch that overflows the grid.  For
each real resource r, rank the jobs whose (j, r) column survived the
rules above by parking gain g_jr = objective[j, dummy] -
objective[j, r], highest first (a stable sort: ties by job id), and
keep them until the PE counts of the jobs before each one reach the
grid's total free real PEs F.  Suppose a job j outside r's prefix holds
a PE on r.  The prefix asks for at least F PEs and, as j holds one real
PE, holds at most F - 1 of them, so some prefix job k has a parked PE.
Swapping the two (j's PE to the dummy, k's onto r) changes the cost by
g_jr - g_kr <= 0 and keeps r's load and the parked count.  It lowers
j's spend and raises k's, so (c) applies only when every job passes (b)
with the uncapped column bounds min(free, pe_count): then no allocation
of k's PEs over its columns, the swapped one included, overspends.
The budget-capped bounds floor(limit / weight) would not do, because
the swap can push k past its cap.  The swap target (k, r) is a column
because only the surviving columns are ranked, so the swap stays inside
the job-side prefix; each one takes a PE off a column that (c) cuts,
and repeating it turns an optimum over the job-side prefix into one
over both prefixes.  A batch whose demand fits in F closes no
resource-side prefix, so (c) is tried only on a batch that overflows.

``solve_relaxed`` hands these arrays to HiGHS as a plain LP first.
Without budget rows the constraints are one demand equality per
job and one capacity inequality per resource over job x resource
columns: a transportation matrix, which is totally unimodular.  Every
right-hand side and every column bound is an integer (PE counts, free
PEs, and bounds floored in ``_model_arrays``), so every vertex of the LP
is integral and the vertex HiGHS returns is an optimum of the integer
program.  Only a budget row can break this, and ``_model_arrays`` keeps
only the budget rows that can bind.  When one makes the vertex
fractional, the same arrays go to the branch-and-cut engine at zero
optimality gap.  Either answer is re-checked exactly before it is
trusted.

HiGHS (Huangfu & Hall, Math. Prog. Comp. 2018) is called directly
through scipy's binding ``scipy.optimize._highspy._core``, not through
``scipy.optimize.linprog``, whose wrapper (input checks, a result
re-check, per-column bound marginals nobody reads) costs more than many
of these small solves.  ``linprog`` here fills a ``HighsLp`` from
Python lists (the binding reads a numpy array one scalar at a time) with
the rows in the order scipy's wrapper stacks them (inequality rows, then
the demand rows as lower = upper = PE count), the matrix as the CSC
arrays scipy's stacking produces (built in numpy by ``_model_arrays``
and ``_stack``), and column bounds [0, ub], and sets exactly the options the
wrapper sets: presolve on, dual simplex, debug and console output off,
``mip_rel_gap`` 0.  So HiGHS sees the same model and returns the same
``x``, bit for bit; with presolve off it would pick other tied optima.
The function keeps the name ``linprog`` and its one call site because
the benchmark's tracer rebinds ``relaxed.linprog`` and reads ``.x`` and
``mip_node_count`` off its result.

The binding is loaded from its file (``_load_highs``), because importing
it the regular way imports all of ``scipy.optimize`` first, which with
``scipy.sparse`` took about 0.6 s of a 0.8 s start-up against 0.01 s for
the binding alone.  It is registered under its own name before it runs,
so a later ``import scipy.optimize`` reuses it (pybind11 refuses to
register its types twice), and a module scipy has already loaded is
taken as is.  ``_core`` is private to scipy: where the file load fails,
the regular import is tried, and where that fails too, importing this
module raises ``ImportError`` naming the scipy release it needs.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import PairTable


@dataclass(frozen=True, eq=False)
class RelaxedModel:
    """The built relaxation: job x resource arrays over the batch's
    ``table``, which holds its jobs, resources and dummy.

    The model keeps the pairs ``table.admissible`` marks, and ``columns``
    the subset the solver sees (module docstring); both are walked
    row-major, so variables run job-major, resource-minor.  ``objective``
    is the money per PE of each pair: the table's ``coeff``, plus the
    parking surcharge of the module docstring on dummy columns.  A pair's budget weight is
    ``table.weight``, and the job's budget with its tolerance
    ``table.limit``.
    """

    table: PairTable
    objective: np.ndarray
    columns: np.ndarray

    @property
    def pair_order(self) -> tuple[tuple[str, str], ...]:
        """Every admissible (resource id, job id) pair, job-major; built on
        each call."""
        ji, ri = np.nonzero(self.table.admissible)
        rids = [r.resource_id for r in self.table.resources]
        jids = [j.job_id for j in self.table.jobs]
        return tuple(zip(map(rids.__getitem__, ri.tolist()), map(jids.__getitem__, ji.tolist())))


def build_relaxed(table: PairTable) -> RelaxedModel:
    """Assemble the relaxation over the batch's ``table``.

    Keeps the pairs ``table.admissible`` marks: those where the job
    finishes within its deadline and a single PE is affordable, and every
    dummy pair.  Every table has its dummy column, so the model is
    feasible whatever the grid; its pairs carry the parking surcharge that
    makes parking a last resort (module docstring).
    """
    dummy, admissible = table.dummy, table.admissible
    # lexicographic parking: a parked PE also pays a bound on the batch's
    # unsurcharged cost, so an optimum parks the fewest PEs possible
    objective = table.coeff.copy()
    objective[:, dummy] += table.pes @ np.where(admissible, table.coeff, 0.0).max(
        axis=1, initial=0.0
    )
    # per job, the cheapest admissible real pairs (stable sort: ties by
    # resource id) until the capacity before a pair covers the demand,
    # less the pairs on resources without a free PE
    real = admissible & ~dummy
    demand = table.pes.sum()
    order = np.argsort(np.where(real, table.coeff, np.inf), axis=1, kind="stable")
    cap = np.where(np.take_along_axis(real, order, axis=1), table.free[order], 0)
    before = np.cumsum(cap, axis=1) - cap
    prefix = np.zeros_like(real)
    np.put_along_axis(prefix, order, before < demand, axis=1)
    columns = real & prefix & (table.free > 0)
    # per resource, the jobs of highest parking gain until the PEs before
    # a job cover the grid, when no job can overspend (module docstring)
    grid = table.free[~dummy].sum()
    weight = np.where(columns, table.weight, 0.0)
    uncapped = np.where(columns, np.minimum(table.free, table.pes[:, None]), 0.0)
    if demand > grid and (_spend_bound(weight, uncapped, table.pes) <= table.limit).all():
        gain = objective[:, dummy] - objective
        order = np.argsort(np.where(columns, -gain, np.inf), axis=0, kind="stable")
        pes = np.where(np.take_along_axis(columns, order, axis=0), table.pes[order], 0)
        before = np.cumsum(pes, axis=0) - pes
        prefix = np.zeros_like(columns)
        np.put_along_axis(prefix, order, before < grid, axis=0)
        columns &= prefix
    columns |= dummy
    return RelaxedModel(table, objective, columns)


def _spend_bound(weight, ub, pes) -> np.ndarray:
    """Most each job can spend: its ``pes`` PEs filled into its columns
    dearest ``weight`` first, each up to its bound ``ub`` (a fractional
    knapsack).  ``weight`` and ``ub`` are job x resource arrays, zero off
    the job's columns."""
    order = np.argsort(-weight, axis=1)
    weight = np.take_along_axis(weight, order, axis=1)
    ub = np.take_along_axis(ub, order, axis=1)
    before = np.cumsum(ub, axis=1) - ub
    return (weight * np.clip(pes[:, None] - before, 0, ub)).sum(axis=1)


class Csc(NamedTuple):
    """A sparse matrix in compressed sparse column form, as HiGHS and
    scipy take it: column k holds ``data[indptr[k]:indptr[k + 1]]`` in
    the rows ``indices[indptr[k]:indptr[k + 1]]``, ascending, with int32
    indices as scipy's."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]


def _model_arrays(model: RelaxedModel):
    """LP ingredients over ``model.columns``: objective, capacity rows
    then the budget rows that can bind, demand rows, per-column bounds.
    A column has one capacity entry, then a budget entry when its job's
    row is kept and the pair is weighted, and one demand entry."""
    ji, ri = np.nonzero(model.columns)  # row-major: job-major, resource-minor
    n = len(ji)
    c = model.objective[ji, ri]
    w = model.table.weight[ji, ri]
    free = model.table.free.astype(float)
    pes, limit = model.table.pes, model.table.limit
    budget = np.array([j.budget_gd for j in model.table.jobs], dtype=float)
    ones = np.ones(n)

    # largest PE count a single pair could ever carry: no feasible solution
    # puts more than budget/weight PEs on a weighted pair
    ub = np.minimum(free[ri], pes[ji])
    weighted = w > 0.0
    ub[weighted] = np.minimum(ub[weighted], np.floor(limit[ji[weighted]] / w[weighted]))
    ub = np.maximum(ub, 0.0)

    # demand rows: one per job, sum of its pairs == pe_count
    a_eq = Csc(np.arange(n + 1, dtype=np.int32), ji.astype(np.int32), ones, (len(pes), n))

    # inequality rows: capacity per used resource (every job's dummy column
    # uses one), then each budget row that can bind given the bounds
    used = np.unique(ri)
    cap_row = np.searchsorted(used, ri)
    weight, bound = np.zeros((2, len(pes), len(used)))  # over the used resources
    weight[ji, cap_row], bound[ji, cap_row] = w, ub
    binds = _spend_bound(weight, bound, pes) > limit
    bud_row = len(used) + np.cumsum(binds) - 1
    terms = weighted & binds[ji]
    entries = np.column_stack([np.ones(n, dtype=bool), terms])
    a_ub = Csc(
        np.concatenate([[0], np.cumsum(1 + terms)]).astype(np.int32),
        np.column_stack([cap_row, bud_row[ji]])[entries].astype(np.int32),
        np.column_stack([ones, w])[entries],
        (len(used) + int(binds.sum()), n),
    )
    b_ub = np.concatenate([free[used], budget[binds]])
    return c, a_ub, b_ub, a_eq, pes, ub


def _stack(a_ub: Csc, a_eq: Csc) -> Csc:
    """``a_eq``'s rows under ``a_ub``'s, as scipy stacks them; ``a_eq``
    holds one entry per column, which goes after that column's ``a_ub``
    entries."""
    end = a_ub.indptr[1:]
    return Csc(
        a_ub.indptr + a_eq.indptr,
        np.insert(a_ub.indices, end, a_ub.shape[0] + a_eq.indices),
        np.insert(a_ub.data, end, a_eq.data),
        (a_ub.shape[0] + a_eq.shape[0], a_ub.shape[1]),
    )


def _load_highs():
    """scipy's HiGHS binding, loaded from its file without importing
    ``scipy.optimize`` (module docstring): scipy's own module when it is
    already loaded, and the regular import when the file load fails."""
    name = "scipy.optimize._highspy._core"
    if name not in sys.modules:
        try:
            folders = importlib.util.find_spec("scipy").submodule_search_locations
            spec = importlib.machinery.PathFinder.find_spec(
                name, [os.path.join(folder, "optimize", "_highspy") for folder in folders]
            )
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module  # before it runs, so scipy.optimize reuses it
            spec.loader.exec_module(module)
            return module
        except (AttributeError, ImportError):  # no scipy or file (a None spec), or a failed load
            sys.modules.pop(name, None)
    elif sys.modules[name] is not None:  # None blocks the import: the regular one raises
        return sys.modules[name]
    try:  # private to scipy: an older release does not ship it, a newer may move it
        from scipy.optimize._highspy import _core
    except ImportError as exc:
        raise ImportError(
            "metagrid needs scipy>=1.15, whose HiGHS binding "
            "scipy.optimize._highspy._core it calls"
        ) from exc
    return _core


_core = _load_highs()


@dataclass(frozen=True)
class HighsResult:
    """One HiGHS solve: ``x`` (None unless HiGHS reports an optimum),
    HiGHS's model status as ``message``, and the branch-and-cut node count
    (0 for an LP)."""

    x: np.ndarray | None
    message: str
    mip_node_count: int


def linprog(c, a_ub, b_ub, a_eq, b_eq, ub, integer: bool = False):
    """Minimize ``c @ x`` subject to ``a_ub @ x <= b_ub``, ``a_eq @ x ==
    b_eq`` and ``0 <= x <= ub`` (``_model_arrays``'s tuple, its matrices
    ``Csc`` records), every column integer when ``integer``, with HiGHS
    called directly (module docstring)."""
    n = len(c)
    a = _stack(a_ub, a_eq)
    lp = _core.HighsLp()  # filled from lists (module docstring)
    lp.num_row_ = lp.a_matrix_.num_row_ = a.shape[0]
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.a_matrix_.format_ = _core.MatrixFormat.kColwise
    lp.a_matrix_.start_ = a.indptr.tolist()
    lp.a_matrix_.index_, lp.a_matrix_.value_ = a.indices.tolist(), a.data.tolist()
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = c.tolist(), [0.0] * n, ub.tolist()
    b_eq = b_eq.tolist()
    lp.row_lower_ = [-_core.kHighsInf] * len(b_ub) + b_eq
    lp.row_upper_ = b_ub.tolist() + b_eq
    if integer:
        lp.integrality_ = [_core.HighsVarType.kInteger] * n
    options = _core.HighsOptions()  # the options linprog sets; the rest default
    options.presolve = "on"
    options.simplex_strategy = _core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.highs_debug_level = _core.HighsDebugLevel.kHighsDebugLevelNone
    options.output_flag = options.log_to_console = False
    options.mip_rel_gap = 0.0
    highs = _core._Highs()
    highs.passOptions(options)
    status = _core.HighsModelStatus.kModelError
    if highs.passModel(lp) != _core.HighsStatus.kError:
        highs.run()
        status = highs.getModelStatus()
    optimal = status == _core.HighsModelStatus.kOptimal
    return HighsResult(
        x=np.array(highs.getSolution().col_value) if optimal else None,
        message=highs.modelStatusToString(status),
        mip_node_count=highs.getInfo().mip_node_count if integer and optimal else 0,
    )


def _check_integer_solution(model: RelaxedModel, ji, ri, x) -> bool:
    """Exact feasibility re-check of a rounded candidate ``x`` over the
    columns (``ji``, ``ri``): no negative count, no resource above its free
    PEs, every demand met exactly and no budget overspent."""
    table = model.table
    load = np.bincount(ri, weights=x, minlength=len(table.free))
    demand = np.bincount(ji, weights=x, minlength=len(table.pes))
    # bincount adds one column at a time, in column order
    spend = np.bincount(ji, weights=table.weight[ji, ri] * x, minlength=len(table.pes))
    return bool(
        (x >= 0).all() and (load <= table.free).all() and (demand == table.pes).all()
        and (spend <= table.limit).all()
    )


def solve_relaxed(model: RelaxedModel) -> np.ndarray:
    """Optimal integer solution of the relaxation: the jobs x resources
    int array of PE counts over ``model.table``, zero off the columns.

    A model without a job is answered without HiGHS, which reports a
    program without a column as empty, not optimal.  Otherwise the arrays
    go to HiGHS (``linprog``, module docstring) first as a plain LP.  When
    no budget row binds, its vertex is already an integer optimum (module
    docstring), and it is taken if every entry lies within 1e-9 of an
    integer and the rounded answer passes the exact feasibility re-check
    (``_check_integer_solution``).
    Otherwise the same arrays go to the branch-and-cut engine as an integer
    program at zero optimality gap, and its rounded answer must pass the
    same re-check.  A fractional vertex is never rounded and taken:
    feasible is not optimal.  Deterministic for a fixed environment; ties
    between equal-cost optima resolve by the engine's fixed pivoting and
    search order.  The dummy makes every model feasible, so any HiGHS
    model status other than optimal raises ``RuntimeError``.
    """
    placed = np.zeros(model.columns.shape, dtype=int)
    if not model.table.jobs:
        return placed
    ji, ri = np.nonzero(model.columns)
    arrays = _model_arrays(model)
    for integer in (False, True):  # the LP, then the integer program
        res = linprog(*arrays, integer=integer)
        if res.x is None:
            raise RuntimeError(f"HiGHS solve failed with model status {res.message}")
        x = np.rint(res.x)
        if not integer and np.abs(res.x - x).max() > 1e-9:
            continue  # never round a fractional vertex: solve the integer program
        x = x.astype(int)
        if _check_integer_solution(model, ji, ri, x):
            placed[ji, ri] = x
            return placed
    raise RuntimeError("MILP optimum failed the exact feasibility recheck")
