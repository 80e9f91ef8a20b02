"""Genetic-algorithm refinement stage and the two seeded meta-schedulers.

A chromosome maps every job id to the id of the resource it runs on
(possibly the dummy, meaning the job is deferred).  Fitness is the real
scheduling cost plus a large penalty per constraint violation, so the
search orders candidates feasibility-first, cost-second, and a feasible
fully-placed chromosome's fitness is exactly its schedule cost.

``lpga`` seeds the population with the consolidated relaxation solution;
``hga`` seeds it with the greedy baseline.  Everything downstream of the
seed is identical, which is what makes the two directly comparable.
"""

from __future__ import annotations

import logging
import random
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .greedy import greedy_schedule
from .mmc import MmcStats, mappings_from_allocation, modified_min_cost
from .model import (
    AllocationMatrix,
    DEFAULT_CONFIG,
    JobRequest,
    ResourceInfo,
    Schedule,
    SchedulerConfig,
    breach_count,
    build_schedule,
    ensure_dummy,
    exec_time,
    placement_cost,
    placement_feasible,
    qos_index,
)
from .relaxed import build_relaxed, solve_relaxed

logger = logging.getLogger(__name__)


@dataclass
class Chromosome:
    """One candidate solution: each job's gene is the resource it runs on."""

    genes: dict[str, str]
    cached_fitness: float | None = None

    def copy(self) -> Chromosome:
        return Chromosome(dict(self.genes), self.cached_fitness)


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
    max_exec = max((exec_time(j, r) for j in jobs for r in real), default=0.0)
    max_pes = max((j.pe_count for j in jobs), default=0)
    return 10.0 * max(max_rate, 1.0) * max(max_exec, 1.0) * max(max_pes, 1)


class _Evaluator:
    """Per-run fitness tables: pair costs and feasibility flags."""

    def __init__(
        self,
        jobs: Sequence[JobRequest],
        resources: Sequence[ResourceInfo],
        config: SchedulerConfig = DEFAULT_CONFIG,
        penalty_weight: float | None = None,
    ) -> None:
        self.config = config
        self.weight = (
            penalty_weight
            if penalty_weight is not None
            else default_penalty_weight(jobs, resources)
        )
        self.job_ids = tuple(sorted(j.job_id for j in jobs))
        self.pe_count = {j.job_id: j.pe_count for j in jobs}
        self.dummy_ids = frozenset(r.resource_id for r in resources if r.is_dummy)
        self.capacity = {
            r.resource_id: r.free_pes for r in resources if not r.is_dummy
        }
        self.cost: dict[tuple[str, str], float] = {}
        self.breaches: dict[tuple[str, str], int] = {}
        for job in jobs:
            for res in resources:
                if not res.is_dummy:
                    key = (job.job_id, res.resource_id)
                    self.cost[key] = placement_cost(job, res)
                    self.breaches[key] = breach_count(job, res, config)

    def fitness_of(self, genes: Mapping[str, str]) -> float:
        base = 0.0
        violations = 0.0
        load = dict.fromkeys(self.capacity, 0)
        for jid in self.job_ids:
            rid = genes[jid]
            if rid in self.dummy_ids:
                violations += 1
                continue
            key = (jid, rid)
            base += self.cost[key]
            violations += self.breaches[key]
            load[rid] += self.pe_count[jid]
        for rid in self.capacity:
            over = load[rid] - self.capacity[rid]
            if over > 0:
                violations += over
        return base + self.weight * violations

    def evaluate(self, chromosome: Chromosome) -> float:
        if chromosome.cached_fitness is None:
            chromosome.cached_fitness = self.fitness_of(chromosome.genes)
        return chromosome.cached_fitness


def fitness(
    chromosome: Chromosome | Mapping[str, str],
    jobs: Sequence[JobRequest],
    resources: Sequence[ResourceInfo],
    penalty_weight: float | None = None,
    config: SchedulerConfig = DEFAULT_CONFIG,
) -> float:
    """Penalised cost of one chromosome (lower is better)."""
    genes = (
        chromosome.genes if isinstance(chromosome, Chromosome) else chromosome
    )
    return _Evaluator(jobs, resources, config, penalty_weight).fitness_of(genes)


def roulette_select(
    population: Sequence[Chromosome],
    rng: random.Random,
    floor: float | None = None,
) -> tuple[Chromosome, Chromosome]:
    """Fitness-proportionate pick of two parents for a minimisation problem.

    Selection weight is the gap to the worst member plus a small positive
    floor (by default one millionth of the worst fitness, or 1 when that is
    zero), so the worst member keeps a nonzero chance and a uniform
    population degrades to a uniform pick.  Requires evaluated chromosomes.
    """
    fits = [c.cached_fitness for c in population]
    if not fits or any(f is None for f in fits):
        raise ValueError("population must be non-empty and evaluated")
    f_max = max(fits)
    if floor is None:
        floor = 1e-6 * f_max if f_max > 0 else 1.0
    weights = [(f_max - f) + floor for f in fits]
    total = sum(weights)

    def draw() -> Chromosome:
        pick = rng.random() * total
        acc = 0.0
        for chromosome, w in zip(population, weights):
            acc += w
            if pick <= acc:
                return chromosome
        return population[-1]

    return draw(), draw()


def crossover(
    a: Chromosome, b: Chromosome, rng: random.Random
) -> tuple[Chromosome, Chromosome]:
    """Single-point crossover over the sorted job ids."""
    ids = sorted(a.genes)
    cut = rng.randint(0, len(ids))
    g1: dict[str, str] = {}
    g2: dict[str, str] = {}
    for i, jid in enumerate(ids):
        if i < cut:
            g1[jid] = a.genes[jid]
            g2[jid] = b.genes[jid]
        else:
            g1[jid] = b.genes[jid]
            g2[jid] = a.genes[jid]
    return Chromosome(g1), Chromosome(g2)


def mutate(
    chromosome: Chromosome,
    rng: random.Random,
    mutation_rate: float,
    resources: Sequence[ResourceInfo],
) -> Chromosome:
    """Uniform per-gene reset mutation: each gene is redrawn with
    probability ``mutation_rate`` from all resources, dummy included."""
    choices = sorted(r.resource_id for r in resources)
    genes = dict(chromosome.genes)
    changed = False
    for jid in sorted(genes):
        if rng.random() < mutation_rate:
            genes[jid] = rng.choice(choices)
            changed = True
    return Chromosome(genes, None if changed else chromosome.cached_fitness)


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
        best=Chromosome({}, 0.0),
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
    evaluator = _Evaluator(jobs, pool, config)
    gene_choices = sorted(r.resource_id for r in pool)

    population = [c.copy() for c in seed_chromosomes]
    while len(population) < params.population_size:
        population.append(
            Chromosome({jid: rng.choice(gene_choices) for jid in evaluator.job_ids})
        )
    for chromosome in population:
        evaluator.evaluate(chromosome)
    iterations = 1
    seed_fitness = min(
        (c.cached_fitness for c in population[: len(seed_chromosomes)]),
        default=float("inf"),
    )

    def argbest(pop: Sequence[Chromosome]) -> Chromosome:
        return min(pop, key=lambda c: c.cached_fitness)

    best = argbest(population).copy()
    trace = [best.cached_fitness]
    stale = 0

    while iterations < params.max_iterations and stale < params.convergence_window:
        ranked = sorted(
            range(len(population)), key=lambda i: population[i].cached_fitness
        )
        next_pop = [population[i].copy() for i in ranked[: params.elitism]]
        while len(next_pop) < params.population_size:
            p1, p2 = roulette_select(population, rng)
            if rng.random() < params.crossover_rate:
                c1, c2 = crossover(p1, p2, rng)
            else:
                c1, c2 = p1.copy(), p2.copy()
            next_pop.append(mutate(c1, rng, params.mutation_rate, pool))
            if len(next_pop) < params.population_size:
                next_pop.append(mutate(c2, rng, params.mutation_rate, pool))
        population = next_pop
        for chromosome in population:
            evaluator.evaluate(chromosome)
        iterations += 1
        gen_best = argbest(population)
        if gen_best.cached_fitness < best.cached_fitness - 1e-12:
            best = gen_best.copy()
            stale = 0
        else:
            stale += 1
        trace.append(best.cached_fitness)

    return GaResult(
        best=best,
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

    Pipeline: sort resources by cost and jobs by priority, solve the
    split-allowed relaxation exactly (parking on the dummy as a last
    resort), consolidate whole-job placements, then refine with the GA
    seeded by that consolidated schedule.
    """
    if not jobs:
        return Schedule.empty(), _empty_result()
    by_cost = sorted(resources, key=lambda r: (r.cost_per_pe_second, r.resource_id))
    by_priority = sorted(jobs, key=lambda j: (-qos_index(j), j.job_id))
    model = build_relaxed(by_priority, by_cost, config)
    alloc = solve_relaxed(model)
    pool, _ = ensure_dummy(jobs, model.resources)
    seed_schedule = modified_min_cost(
        mappings_from_allocation(alloc), by_priority, pool, config, stats=mmc_stats
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
