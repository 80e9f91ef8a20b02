"""Genetic-algorithm refinement stage and the two seeded meta-schedulers.

A chromosome gives every job the resource it runs on (possibly the dummy,
meaning the job is deferred).  It is a gene row: one int per row of the
batch's ``PairTable`` (jobs sorted by id), each a column index into
``table.resources``.  Rows are the one representation from the seed to
``GaResult.best`` to ``decode_schedule``.
Fitness is the real scheduling cost plus a large penalty per constraint
violation, so the search orders candidates feasibility-first,
cost-second, and a feasible fully-placed chromosome's fitness is exactly
its schedule cost.  The raw 64-bit words of ``numpy.random.PCG64(rng_seed)``,
a stream NEP 19 keeps stable across numpy releases, determine the run: a
word ``w`` is a uniform ``(w >> 11) * 2**-53`` or an int below ``n`` by
multiply-shift, ``((w >> 32) * n) >> 32``; a rate test needs no uniform:
``uniforms(w) < rate`` exactly when ``w <= (ceil(rate * 2**53) << 11) - 1``.
The initial genes come first, then each generation's words in ``mutate``'s
order, a few array calls.  A row's costs are added job by job, so a row
scores the same alone as in any population.

Every stage here takes the batch's ``PairTable``, which the caller
builds: the fitness tables, the loop, ``decode_schedule``,
``relax_and_consolidate`` and both pipelines.  So a gene is judged by the
same deadline and budget rule as every other scheduler applies.  ``lpga``
seeds the population with the consolidated relaxation solution and
``hga`` with the greedy baseline, both over that one table.  Both then
run the one shared tail, ``_refine``, which reads the seed's table and
gene row off its ``Schedule`` (each row's one column with PEs, the
dummy's for a parked job); that is what makes the two directly comparable.
"""

from __future__ import annotations

import logging
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from math import ceil, inf

import numpy as np

from .greedy import greedy_schedule
from .mmc import modified_min_cost
from .model import PairTable, Schedule, build_schedule, whole_jobs
from .relaxed import build_relaxed, solve_relaxed

logger = logging.getLogger(__name__)


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
        if self.rng_seed < 0:
            raise ValueError("rng_seed must not be negative")


@dataclass(frozen=True)
class GaResult:
    best: tuple[int, ...]  # the best gene row
    iterations_used: int
    best_fitness_trace: tuple[float, ...]
    converged: bool
    seed_fitness: float

    @property
    def best_fitness(self) -> float:
        return self.best_fitness_trace[-1]


class FitnessTables:
    """Per-run fitness tables over the batch's ``PairTable`` (jobs as rows,
    resources as columns, both sorted by id): placement cost and breach
    count of each pair, where a dummy column costs 0.0 and counts one
    breach, plus each resource's PE capacity (inf on a dummy) and each
    job's PE count.  ``weight`` is the penalty unit, which dominates any
    attainable real scheduling cost."""

    def __init__(self, table: PairTable) -> None:
        # the largest rate and runtime (longest task / slowest speed, bit for
        # bit) over the real columns, 0.0 with none, and the largest PE count
        real = ~table.dummy
        max_rate = table.rate[real].max(initial=0.0)
        max_exec = table.exec_s[:, real].max(initial=0.0)
        self.weight = float(10.0 * max(max_rate, 1.0) * max(max_exec, 1.0) * table.pes.max())
        self._columns = len(table.resources)
        self.pes = table.pes
        self.capacity = np.where(table.dummy, inf, table.free)
        # flat views, indexed by job row offset plus gene
        self._cost = np.where(table.dummy, 0.0, table.cost).ravel()
        self._breaches = np.where(table.dummy, 1, table.breaches).ravel()
        self._job_rows = self._columns * np.arange(len(table.jobs))
        self._layout_rows = -1

    def _layout(self, rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each row's slot offset in the load count, the PE weights of all
        its genes and the capacity of every slot, for a population of
        ``rows`` chromosomes."""
        if rows != self._layout_rows:
            self._layout_rows = rows
            self._slots = self._columns * np.arange(rows)[:, None]
            self._weights = np.tile(self.pes, rows)
            self._capacities = np.tile(self.capacity, rows)
        return self._slots, self._weights, self._capacities

    def score(self, population: np.ndarray) -> np.ndarray:
        """Fitness of every row of a chromosomes x jobs gene array."""
        rows, n = len(population), self._columns
        slots, weights, capacities = self._layout(rows)
        pairs = population + self._job_rows
        # cumsum adds the costs one job at a time, as a scalar loop would;
        # np.sum's pairwise summation would change the last bits
        base = self._cost.take(pairs).cumsum(axis=1)[:, -1]
        breaches = self._breaches.take(pairs).sum(axis=1)
        over = np.bincount((population + slots).ravel(), weights, rows * n) - capacities
        overload = np.maximum(over, 0.0, out=over).reshape(rows, n).sum(axis=1)
        return base + self.weight * (breaches + overload)


def roulette_wheel(fits: Sequence[float]) -> Callable[[np.ndarray], np.ndarray]:
    """Fitness-proportionate picker of population indexes for a
    minimisation problem: the returned function maps an array of uniform
    draws in [0, 1) to one pick each.

    Selection weight is the gap to the worst member plus a small positive
    floor (one millionth of the worst fitness, or 1 when that is zero), so
    the worst member keeps a nonzero chance and a uniform population
    degrades to a uniform pick.  A pick lands on the first
    member whose running weight total reaches it, and on the last member
    when none does.
    """
    if not len(fits):
        raise ValueError("population must be non-empty")
    fits = np.asarray(fits, dtype=float)
    f_max = fits.max()
    weights = (f_max - fits) + (1e-6 * f_max if f_max > 0 else 1.0)
    running = weights.cumsum()  # left to right on any Python; >= 3.12 compensates sum()
    prefix, total = running[:-1], running[-1]

    def pick(draws: np.ndarray) -> np.ndarray:
        return prefix.searchsorted(draws * total)

    return pick


def uniforms(words: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1): each raw word's top 53 bits over 2**53."""
    return (words >> 11) * 2.0**-53


def _threshold(rate: float) -> int:
    """The largest word ``w`` with ``uniforms(w) < rate``, -1 when there is
    none: a word's top 53 bits ``u`` give ``u * 2**-53 < rate`` exactly
    when ``u < ceil(rate * 2**53)``."""
    return (ceil(rate * 2.0**53) << 11) - 1


def belows(words: np.ndarray, n: int) -> np.ndarray:
    """Ints in [0, n), 0 < n < 2**32, by multiply-shift of each raw word's
    top 32 bits, with no rejection: bias at most n / 2**32."""
    return (((words >> 32) * n) >> 32).astype(np.intp)


def crossover(population: np.ndarray, parents: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Single-point crossover of parent pairs.

    ``parents`` lists pairs of ``population`` rows end to end (a, b, a,
    b, ...), and each pair has one cut.  The first child takes the genes
    before the cut from a and the rest from b, the second child the
    reverse.  Returns the children, two rows per pair.
    """
    n_genes = population.shape[1]
    pairs = population.take(parents.reshape(-1, 2), 0)
    before = np.arange(n_genes) < cuts[:, None, None]
    return np.where(before, pairs, pairs[:, ::-1]).reshape(-1, n_genes)


def mutate(
    bits: np.random.PCG64, params: GaParams, n_genes: int, n_choices: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One bred generation's draws from ``bits``.  Children fill rows
    ``elitism`` onward of a ``population_size`` x ``n_genes`` array, two
    per pair (the last pair keeps only its first when they do not fit).
    The words come in this order: two roulette uniforms per pair, one
    crossover uniform per pair, one cut below ``n_genes + 1`` per pair
    (kept when its crossover uniform is below ``crossover_rate``, else the
    cut is ``n_genes``), one mutation uniform per child gene, then one
    value below ``n_choices`` (dummy included) for each gene whose uniform
    is below ``mutation_rate``.  Returns the roulette draws, the cuts, and
    the flat positions and values of the resets in gene order."""
    size, elitism = params.population_size, params.elitism
    pairs = (size - elitism + 1) // 2
    words = bits.random_raw(4 * pairs + (size - elitism) * n_genes)
    draws = uniforms(words[: 2 * pairs])
    crossed = words[2 * pairs : 3 * pairs] <= _threshold(params.crossover_rate)
    cuts = np.where(crossed, belows(words[3 * pairs : 4 * pairs], n_genes + 1), n_genes)
    resets = words[4 * pairs :] <= _threshold(params.mutation_rate)
    genes = elitism * n_genes + np.flatnonzero(resets)
    return draws, cuts, genes, belows(bits.random_raw(len(genes)), n_choices)


def decode_schedule(row: Sequence[int], table: PairTable) -> Schedule:
    """Deterministic repair of a gene row into a valid schedule.

    Genes that point at a resource the job cannot use (deadline or budget,
    as ``table.feasible`` marks it) are parked, and so are genes on the
    dummy column, ``table.parking``; then any overloaded resource
    sheds its largest jobs until its PE capacity holds.
    """
    wanted = np.asarray(row, dtype=np.intp)
    usable = table.feasible[np.arange(len(table.jobs)), wanted]
    pes = [job.pe_count for job in table.jobs]
    parking = table.parking

    assign = np.where(usable, wanted, parking).tolist()
    holders: dict[int, list[int]] = {}
    for j, k in enumerate(assign):
        if k != parking:
            holders.setdefault(k, []).append(j)
    free = table.free.tolist()
    for k in sorted(holders):
        queue = holders[k]
        used = sum(pes[j] for j in queue)
        while used > free[k]:
            shed = min(queue, key=lambda j: (-pes[j], j))
            queue.remove(shed)
            used -= pes[shed]
            assign[shed] = parking

    return build_schedule(table, whole_jobs(table, assign))


def _breed(
    population: np.ndarray,
    fits: np.ndarray,
    bits: np.random.PCG64,
    params: GaParams,
    n_choices: int,
) -> np.ndarray:
    """The next generation: the ``elitism`` fittest rows (ties in row
    order), then the children whose draws ``mutate`` takes.  No draw
    depends on a gene, so the draws are taken first and the rows built
    after: one crossover over the roulette picks, then one scatter of the
    resets."""
    size, n_genes = population.shape
    draws, cuts, genes, values = mutate(bits, params, n_genes, n_choices)
    parents = roulette_wheel(fits)(draws)
    children = crossover(population, parents, cuts)
    # argmin is the first fittest row, as the stable sort ranks it
    best = fits.argmin(keepdims=True) if params.elitism == 1 else fits.argsort(kind="stable")
    elites = population.take(best[: params.elitism], 0)
    bred = np.concatenate([elites, children[: size - params.elitism]])
    bred.put(genes, values)
    return bred


def run_ga(
    seed_rows: Sequence[Sequence[int]],
    table: PairTable,
    params: GaParams = GaParams(),
) -> GaResult:
    """Elitist generational GA.  One iteration = one population evaluation,
    so ``max_iterations=1`` returns the best of the initial population with
    no evolution at all.

    Each seed row holds one gene per job, each a column of
    ``table.resources``; ``ValueError`` rejects any other.

    Stops when the best fitness has not improved for
    ``convergence_window`` consecutive evaluations or the iteration budget
    is spent.  Fully deterministic given (inputs, params).

    Every fitness is ``base + W * (breaches + overload)`` with ``base`` at
    least 0 and ``breaches + overload`` at least the number of jobs that
    fit whole on no real resource (``PairTable.fits``): such a job scores a
    breach on the dummy or on a pair with a breach, and m of them on one
    resource where they breach nothing each need more PEs than it has
    free, so they overload it by at least m PEs.  So no fitness is below
    ``W`` times that number, and as rounding is monotone, no computed
    fitness is either.  On a batch where no job fits whole on a real
    resource, a seed that parks every job scores exactly ``W`` times the
    job count, no generation beats it by the loop's 1e-12, and the run
    returns what the loop would (the first seed of that score, a flat
    trace, ``min(max_iterations, 1 + convergence_window)`` iterations)
    without drawing a population.
    """
    if len(seed_rows) > params.population_size:
        raise ValueError("more seed rows than population slots")
    if not table.jobs:  # FitnessTables cannot score zero genes
        return GaResult(
            best=(), iterations_used=0, best_fitness_trace=(0.0,), converged=True, seed_fitness=0.0
        )
    size, n_genes, n_choices = params.population_size, len(table.jobs), len(table.resources)
    if any(len(row) != n_genes for row in seed_rows):
        raise ValueError(f"a seed row needs one gene for each of the {n_genes} jobs")
    seeds = np.array(seed_rows, dtype=np.intp).reshape(-1, n_genes)
    if ((seeds < 0) | (seeds >= n_choices)).any():
        raise ValueError(f"a seed gene lies outside the {n_choices} resource columns")
    tables = FitnessTables(table)
    fits = tables.score(seeds)
    seed_fitness = float(fits.min(initial=inf))
    # no job fits and a seed parks them all: the loop's answer, without the loop
    if not table.fits[:, ~table.dummy].any() and (seeds == table.parking).all(axis=1).any():
        iterations = min(params.max_iterations, 1 + params.convergence_window)
        return GaResult(
            best=tuple(seeds[fits.argmin()].tolist()),
            iterations_used=iterations,
            best_fitness_trace=(seed_fitness,) * iterations,
            converged=iterations - 1 >= params.convergence_window,
            seed_fitness=seed_fitness,
        )

    bits = np.random.PCG64(params.rng_seed)
    drawn = belows(bits.random_raw((size - len(seeds)) * n_genes), n_choices)
    population = np.concatenate([seeds, drawn.reshape(-1, n_genes)])
    fits = tables.score(population)
    iterations = 1
    best = int(fits.argmin())
    best_fit, best_row = float(fits[best]), population[best]
    trace = [best_fit]
    stale = 0

    while iterations < params.max_iterations and stale < params.convergence_window:
        population = _breed(population, fits, bits, params, n_choices)
        fits = tables.score(population)
        iterations += 1
        best = int(fits.argmin())
        if fits[best] < best_fit - 1e-12:
            best_fit, best_row = float(fits[best]), population[best]
            stale = 0
        else:
            stale += 1
        trace.append(best_fit)

    return GaResult(
        best=tuple(best_row.tolist()),
        iterations_used=iterations,
        best_fitness_trace=tuple(trace),
        converged=stale >= params.convergence_window,
        seed_fitness=seed_fitness,
    )


def _refine(tag: str, seed: Schedule, params: GaParams) -> tuple[Schedule, GaResult]:
    """The tail both pipelines share: seed the GA with the row of ``seed``,
    a whole-job schedule (each row's one column with PEs), and decode the
    best row it finds over ``seed``'s table."""
    table = seed.table
    result = run_ga([seed.placed.argmax(axis=1)], table, params)
    schedule = decode_schedule(result.best, table)
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(
            "%s: seed fitness %.6g -> best %.6g in %d iterations",
            tag, result.seed_fitness, result.best_fitness, result.iterations_used,
        )
        for job, k in zip(table.jobs, schedule.placed.argmax(axis=1).tolist()):
            if k == table.parking:
                logger.debug("%s: job %s deferred to the next period", tag, job.job_id)
            else:
                rid = table.resources[k].resource_id
                logger.debug("%s: job %s placed on %s", tag, job.job_id, rid)
    return schedule, result


def relax_and_consolidate(table: PairTable) -> Schedule:
    """The batch's relaxation consolidated by ``modified_min_cost``: the
    mmc scheduler and ``lpga``'s seed.  MMC puts a job on a real resource
    only where the pair is feasible and has room for the whole job, a pair
    that ``PairTable.fits``.  So where no job fits on a real resource,
    every job is parked whatever the relaxation answers, and that schedule
    is read off the table, with no relaxation built or solved and no MMC
    call."""
    if not table.fits[:, ~table.dummy].any():
        logger.debug("no job fits whole on a real resource: %d job(s) parked", len(table.jobs))
        return build_schedule(table, whole_jobs(table, [table.parking] * len(table.jobs)))
    return modified_min_cost(table, solve_relaxed(build_relaxed(table)))


def lpga(table: PairTable, params: GaParams = GaParams()) -> tuple[Schedule, GaResult]:
    """Relaxation-seeded meta-scheduler over the batch's ``table``.

    Pipeline: solve the split-allowed relaxation exactly (parking on the
    dummy as a last resort), consolidate whole-job placements, then refine
    with the GA seeded by that consolidated schedule.  Every stage works
    over the table's id-sorted rows and columns and ranks by cost or
    priority itself, so none depends on the order the batch came in.
    """
    return _refine("lpga", relax_and_consolidate(table), params)


def hga(table: PairTable, params: GaParams = GaParams()) -> tuple[Schedule, GaResult]:
    """Greedy-seeded meta-scheduler: identical GA, cheaper seed."""
    return _refine("hga", greedy_schedule(table), params)
