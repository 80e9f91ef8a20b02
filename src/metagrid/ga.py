"""Genetic-algorithm refinement stage and the two seeded meta-schedulers.

A chromosome gives every job the resource it runs on (possibly the dummy,
meaning the job is deferred).  Inside the GA it is a row of ints, one
gene per job in sorted job-id order, each an index into the sorted pool
ids; gene maps (job id -> resource id) appear only at the boundary.
Fitness is the real scheduling cost plus a large penalty per constraint
violation, so the search orders candidates feasibility-first,
cost-second, and a feasible fully-placed chromosome's fitness is exactly
its schedule cost.  One ``random.Random`` stream, drawn in a fixed order,
determines the whole run.

``lpga`` seeds the population with the consolidated relaxation solution;
``hga`` seeds it with the greedy baseline.  Everything downstream of the
seed is identical, which is what makes the two directly comparable.
"""

from __future__ import annotations

import logging
import random
from bisect import bisect_left
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from itertools import accumulate
from math import inf

import numpy as np

from .greedy import greedy_schedule
from .mmc import MmcStats, mappings_from_allocation, modified_min_cost
from .model import (
    AllocationMatrix,
    DEFAULT_CONFIG,
    JobRequest,
    ResourceInfo,
    Schedule,
    SchedulerConfig,
    build_schedule,
    ensure_dummy,
    pair_table,
    placement_feasible,
)
from .relaxed import build_relaxed, solve_relaxed

logger = logging.getLogger(__name__)


@dataclass
class Chromosome:
    """A gene map at the GA boundary: each job id maps to the id of the
    resource it runs on."""

    genes: dict[str, str]


@dataclass(frozen=True)
class GaParams:
    population_size: int = 50
    crossover_rate: float = 0.8
    mutation_rate: float = 0.02
    convergence_window: int = 50
    max_iterations: int = 1000
    elitism: int = 1
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must be in [0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")
        if self.convergence_window < 1 or self.max_iterations < 1:
            raise ValueError("window and iteration budget must be >= 1")
        if not 0 <= self.elitism <= self.population_size:
            raise ValueError("elitism must fit inside the population")


@dataclass(frozen=True)
class GaResult:
    best: Chromosome
    iterations_used: int
    best_fitness_trace: tuple[float, ...]
    converged: bool
    seed_fitness: float

    @property
    def best_fitness(self) -> float:
        return self.best_fitness_trace[-1]


def default_penalty_weight(
    jobs: Sequence[JobRequest], resources: Sequence[ResourceInfo]
) -> float:
    """Penalty unit that dominates any attainable real scheduling cost."""
    real = [r for r in resources if not r.is_dummy]
    max_rate = max((r.cost_per_pe_second for r in real), default=0.0)
    # exec_time's largest value over every pair: the longest task on the
    # slowest PE, as rounded division is monotone in both operands
    max_exec = max((max(j.task_sizes_mi) for j in jobs), default=0.0) / min(
        (r.pe_speed_mips for r in real), default=inf
    )
    max_pes = max((j.pe_count for j in jobs), default=0)
    return 10.0 * max(max_rate, 1.0) * max(max_exec, 1.0) * max(max_pes, 1)


class FitnessTables:
    """Per-run fitness tables over the batch's ``pair_table`` (jobs as
    rows, resources as columns, both sorted by id): placement cost and
    breach count of each pair, where a dummy column costs 0.0 and counts
    one breach, plus each resource's PE capacity (inf on a dummy) and each
    job's PE count."""

    def __init__(
        self,
        jobs: Sequence[JobRequest],
        resources: Sequence[ResourceInfo],
        config: SchedulerConfig = DEFAULT_CONFIG,
        penalty_weight: float | None = None,
    ) -> None:
        self.weight = (
            penalty_weight
            if penalty_weight is not None
            else default_penalty_weight(jobs, resources)
        )
        table = pair_table(jobs, resources, config)
        self.job_ids = [j.job_id for j in table.jobs]
        self.resource_ids = [r.resource_id for r in table.resources]
        self._column = {rid: k for k, rid in enumerate(self.resource_ids)}
        self._jobs = np.arange(len(table.jobs))
        self.pes = table.pes
        self.capacity = np.where(table.dummy, inf, table.free)
        self.cost = np.where(table.dummy, 0.0, table.cost)
        self.breaches = np.where(table.dummy, 1, table.breaches)

    def encode(self, genes: Mapping[str, str]) -> list[int]:
        """Gene row of a gene map; ``ValueError`` names a job without a
        gene or a gene outside the pool."""
        for jid in self.job_ids:
            if genes.get(jid) not in self._column:
                what = "no gene" if jid not in genes else f"resource {genes[jid]!r} outside the pool"
                raise ValueError(f"gene map gives job {jid} {what}")
        return [self._column[genes[jid]] for jid in self.job_ids]

    def gene_map(self, row: Sequence[int]) -> dict[str, str]:
        return {jid: self.resource_ids[g] for jid, g in zip(self.job_ids, row)}

    def score(self, population: np.ndarray) -> np.ndarray:
        """Fitness of every row of a chromosomes x jobs gene array."""
        rows, n = len(population), len(self.resource_ids)
        # cumsum adds the costs one job at a time, as a scalar loop would;
        # np.sum's pairwise summation would change the last bits
        base = np.cumsum(self.cost[self._jobs, population], axis=1)[:, -1]
        breaches = self.breaches[self._jobs, population].sum(axis=1)
        slots = population + n * np.arange(rows)[:, None]
        load = np.bincount(
            slots.ravel(), weights=np.tile(self.pes, rows), minlength=rows * n
        ).reshape(rows, n)
        overload = np.maximum(load - self.capacity, 0.0).sum(axis=1)
        return base + self.weight * (breaches + overload)


def fitness(
    chromosome: Chromosome | Mapping[str, str],
    jobs: Sequence[JobRequest],
    resources: Sequence[ResourceInfo],
    penalty_weight: float | None = None,
    config: SchedulerConfig = DEFAULT_CONFIG,
) -> float:
    """Penalised cost of one chromosome (lower is better); 0.0 for no jobs."""
    if not jobs:
        return 0.0
    genes = (
        chromosome.genes if isinstance(chromosome, Chromosome) else chromosome
    )
    tables = FitnessTables(jobs, resources, config, penalty_weight)
    return float(tables.score(np.array([tables.encode(genes)]))[0])


def roulette_wheel(
    fits: Sequence[float], floor: float | None = None
) -> Callable[[random.Random], int]:
    """Fitness-proportionate picker of population indexes for a
    minimisation problem; each call of the returned function draws once.

    Selection weight is the gap to the worst member plus a small positive
    floor (by default one millionth of the worst fitness, or 1 when that is
    zero), so the worst member keeps a nonzero chance and a uniform
    population degrades to a uniform pick.  A pick lands on the first
    member whose running weight total reaches it.
    """
    if not fits:
        raise ValueError("population must be non-empty")
    f_max = max(fits)
    if floor is None:
        floor = 1e-6 * f_max if f_max > 0 else 1.0
    weights = [(f_max - f) + floor for f in fits]
    prefix = list(accumulate(weights))
    total = sum(weights)  # not prefix[-1]: Python >= 3.12 compensates sum()
    last = len(fits) - 1

    def spin(rng: random.Random) -> int:
        return min(bisect_left(prefix, rng.random() * total), last)

    return spin


def crossover(
    a: list[int], b: list[int], rng: random.Random
) -> tuple[list[int], list[int]]:
    """Single-point crossover of two gene rows."""
    cut = rng.randint(0, len(a))
    return a[:cut] + b[cut:], b[:cut] + a[cut:]


def mutate(
    genes: list[int], rng: random.Random, mutation_rate: float, n_choices: int
) -> list[int]:
    """Uniform per-gene reset mutation: each gene is redrawn with
    probability ``mutation_rate`` from all ``n_choices`` resources, dummy
    included.  Returns a new row."""
    choices = range(n_choices)
    draw, pick = rng.random, rng.choice
    return [pick(choices) if draw() < mutation_rate else g for g in genes]


def decode_schedule(
    chromosome: Chromosome | Mapping[str, str],
    jobs: Sequence[JobRequest],
    resources: Sequence[ResourceInfo],
    config: SchedulerConfig = DEFAULT_CONFIG,
) -> Schedule:
    """Deterministic repair of a chromosome into a valid schedule.

    Genes that point at a resource the job cannot use (deadline or budget)
    are parked; then any overloaded resource sheds its largest jobs until
    its PE capacity holds.
    """
    genes = (
        chromosome.genes if isinstance(chromosome, Chromosome) else chromosome
    )
    pool, dummy_id = ensure_dummy(jobs, resources)
    res_by_id = {r.resource_id: r for r in pool}
    dummy_ids = {r.resource_id for r in pool if r.is_dummy}
    jobs_by_id = {j.job_id: j for j in jobs}

    assign: dict[str, str] = {}
    for jid in sorted(jobs_by_id):
        rid = genes[jid]
        if rid in dummy_ids or not placement_feasible(jobs_by_id[jid], res_by_id[rid], config):
            rid = dummy_id
        assign[jid] = rid

    holders: dict[str, list[str]] = {}
    for jid, rid in assign.items():
        if rid != dummy_id:
            holders.setdefault(rid, []).append(jid)
    for rid in sorted(holders):
        cap = res_by_id[rid].free_pes
        queue = holders[rid]
        used = sum(jobs_by_id[j].pe_count for j in queue)
        while used > cap:
            shed = min(queue, key=lambda j: (-jobs_by_id[j].pe_count, j))
            queue.remove(shed)
            used -= jobs_by_id[shed].pe_count
            assign[shed] = dummy_id

    entries = {
        (rid, jid): jobs_by_id[jid].pe_count for jid, rid in assign.items()
    }
    return build_schedule(AllocationMatrix(entries), jobs, pool, config)


def chromosome_from_schedule(
    schedule: Schedule,
    jobs: Sequence[JobRequest],
    resources: Sequence[ResourceInfo],
) -> Chromosome:
    """Gene map for a whole-job schedule; deferred jobs map to the dummy."""
    _, dummy_id = ensure_dummy(jobs, resources)
    by_job = schedule.assignments.by_job()
    genes: dict[str, str] = {}
    for job in jobs:
        jid = job.job_id
        if jid in schedule.dummy_jobs or jid not in by_job:
            genes[jid] = dummy_id
            continue
        placements = by_job[jid]
        if len(placements) != 1:
            raise ValueError(f"job {jid} is not placed whole: {placements}")
        genes[jid] = next(iter(placements))
    return Chromosome(genes)


def _empty_result() -> GaResult:
    return GaResult(
        best=Chromosome({}),
        iterations_used=0,
        best_fitness_trace=(0.0,),
        converged=True,
        seed_fitness=0.0,
    )


def run_ga(
    seed_chromosomes: Sequence[Chromosome],
    jobs: Sequence[JobRequest],
    resources: Sequence[ResourceInfo],
    params: GaParams = GaParams(),
    config: SchedulerConfig = DEFAULT_CONFIG,
) -> GaResult:
    """Elitist generational GA.  One iteration = one population evaluation,
    so ``max_iterations=1`` returns the best of the initial population with
    no evolution at all.

    Stops when the best fitness has not improved for
    ``convergence_window`` consecutive evaluations or the iteration budget
    is spent.  Fully deterministic given (inputs, params).
    """
    if len(seed_chromosomes) > params.population_size:
        raise ValueError("more seed chromosomes than population slots")
    if not jobs:
        return _empty_result()
    pool, _ = ensure_dummy(jobs, resources)
    rng = random.Random(params.rng_seed)
    tables = FitnessTables(jobs, pool, config)
    n_choices = len(tables.resource_ids)
    choices = range(n_choices)

    rows = [tables.encode(c.genes) for c in seed_chromosomes]
    while len(rows) < params.population_size:
        rows.append([rng.choice(choices) for _ in tables.job_ids])
    fits = tables.score(np.array(rows)).tolist()
    iterations = 1
    seed_fitness = min(fits[: len(seed_chromosomes)], default=inf)
    best_fit = min(fits)
    best_row = rows[fits.index(best_fit)]
    trace = [best_fit]
    stale = 0

    while iterations < params.max_iterations and stale < params.convergence_window:
        ranked = sorted(range(len(rows)), key=fits.__getitem__)
        next_rows = [rows[i] for i in ranked[: params.elitism]]
        spin = roulette_wheel(fits)
        while len(next_rows) < params.population_size:
            c1, c2 = rows[spin(rng)], rows[spin(rng)]
            if rng.random() < params.crossover_rate:
                c1, c2 = crossover(c1, c2, rng)
            next_rows.append(mutate(c1, rng, params.mutation_rate, n_choices))
            if len(next_rows) < params.population_size:
                next_rows.append(mutate(c2, rng, params.mutation_rate, n_choices))
        rows = next_rows
        fits = tables.score(np.array(rows)).tolist()
        iterations += 1
        gen_best = min(fits)
        if gen_best < best_fit - 1e-12:
            best_fit = gen_best
            best_row = rows[fits.index(gen_best)]
            stale = 0
        else:
            stale += 1
        trace.append(best_fit)

    return GaResult(
        best=Chromosome(tables.gene_map(best_row)),
        iterations_used=iterations,
        best_fitness_trace=tuple(trace),
        converged=stale >= params.convergence_window,
        seed_fitness=seed_fitness,
    )


def _log_placements(tag: str, schedule: Schedule) -> None:
    if not logger.isEnabledFor(logging.DEBUG):
        return
    for jid, rids in sorted(schedule.assignments.by_job().items()):
        if jid in schedule.dummy_jobs:
            logger.debug("%s: job %s deferred to the next period", tag, jid)
        else:
            logger.debug("%s: job %s placed on %s", tag, jid, ",".join(sorted(rids)))


def lpga(
    jobs: Sequence[JobRequest],
    resources: Sequence[ResourceInfo],
    params: GaParams = GaParams(),
    config: SchedulerConfig = DEFAULT_CONFIG,
    mmc_stats: MmcStats | None = None,
) -> tuple[Schedule, GaResult]:
    """Relaxation-seeded meta-scheduler.

    Pipeline: solve the split-allowed relaxation exactly (parking on the
    dummy as a last resort), consolidate whole-job placements, then refine
    with the GA seeded by that consolidated schedule.  No stage depends on
    the order of ``jobs`` or ``resources``: each works over id-sorted
    tables and ranks by cost or priority itself.
    """
    if not jobs:
        return Schedule.empty(), _empty_result()
    model = build_relaxed(jobs, resources, config)
    alloc = solve_relaxed(model)
    pool, _ = ensure_dummy(jobs, model.resources)
    seed_schedule = modified_min_cost(
        mappings_from_allocation(alloc), jobs, pool, config, stats=mmc_stats
    )
    seed = chromosome_from_schedule(seed_schedule, jobs, pool)
    result = run_ga([seed], jobs, pool, params, config)
    schedule = decode_schedule(result.best, jobs, pool, config)
    logger.debug(
        "lpga: seed fitness %.6g -> best %.6g in %d iterations",
        result.seed_fitness, result.best_fitness, result.iterations_used,
    )
    _log_placements("lpga", schedule)
    return schedule, result


def hga(
    jobs: Sequence[JobRequest],
    resources: Sequence[ResourceInfo],
    params: GaParams = GaParams(),
    config: SchedulerConfig = DEFAULT_CONFIG,
) -> tuple[Schedule, GaResult]:
    """Greedy-seeded meta-scheduler: identical GA, cheaper seed."""
    if not jobs:
        return Schedule.empty(), _empty_result()
    pool, _ = ensure_dummy(jobs, resources)
    seed_schedule = greedy_schedule(jobs, pool, config)
    seed = chromosome_from_schedule(seed_schedule, jobs, pool)
    result = run_ga([seed], jobs, pool, params, config)
    schedule = decode_schedule(result.best, jobs, pool, config)
    logger.debug(
        "hga: seed fitness %.6g -> best %.6g in %d iterations",
        result.seed_fitness, result.best_fitness, result.iterations_used,
    )
    _log_placements("hga", schedule)
    return schedule, result
