"""Genetic-algorithm refinement stage and the two seeded meta-schedulers.

A chromosome gives every job the resource it runs on (possibly the dummy,
meaning the job is deferred).  It is a gene row: one int per row of the
batch's ``PairTable`` (jobs sorted by id), each a column index into
``table.resources``.  Rows are the one representation from the seed to
``GaResult.best`` to ``decode_schedule``.
Fitness is the real scheduling cost plus a large penalty per constraint
violation, so the search orders candidates feasibility-first,
cost-second, and a feasible fully-placed chromosome's fitness is exactly
its schedule cost.  One ``random.Random(rng_seed)`` stream, drawn in a
fixed order, determines the whole run.  Its MT19937 words are drawn in
blocks through numpy and decoded exactly as ``random.Random`` decodes
them, so a generation costs no Python call per gene: its draws are
decoded pair by pair, mutation resets are found by a scan of each block,
and the rows are then built in one array step.

The fitness tables, the loop, ``decode_schedule`` and
``chromosome_from_schedule`` all read the batch's ``PairTable``, so a
gene is judged by the same deadline and budget rule as every other
scheduler applies.  ``lpga`` seeds the population with the consolidated
relaxation solution and hands on the relaxation's table; ``hga`` seeds it
with the greedy baseline, which reads the table ``hga`` builds for the
GA.  Both then run the one shared tail, ``_refine``, which is what makes
the two directly comparable.
"""

from __future__ import annotations

import logging
import random
from bisect import bisect_left
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import chain
from math import ceil, inf

import numpy as np

from .greedy import greedy_schedule
from .mmc import modified_min_cost
from .model import (
    JobRequest,
    PairTable,
    ResourceInfo,
    Schedule,
    build_schedule,
    pair_table,
    whole_jobs,
)
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
        breaches = np.where(table.dummy, 1, table.breaches)
        self._breaches = breaches.ravel()
        self._least_breaches = int(breaches.min(axis=1).sum())
        self._job_rows = self._columns * np.arange(len(table.jobs))
        self._layout_rows = -1

    def _layout(self, rows: int) -> tuple[np.ndarray, np.ndarray]:
        """Each row's slot offset in the load count and the PE weights of
        all its genes, for a population of ``rows`` chromosomes."""
        if rows != self._layout_rows:
            self._layout_rows = rows
            self._slots = self._columns * np.arange(rows)[:, None]
            self._weights = np.tile(self.pes, rows)
        return self._slots, self._weights

    def score(self, population: np.ndarray) -> np.ndarray:
        """Fitness of every row of a chromosomes x jobs gene array."""
        rows, n = len(population), self._columns
        slots, weights = self._layout(rows)
        pairs = population + self._job_rows
        # cumsum adds the costs one job at a time, as a scalar loop would;
        # np.sum's pairwise summation would change the last bits
        base = np.cumsum(self._cost[pairs], axis=1)[:, -1]
        breaches = self._breaches[pairs].sum(axis=1)
        load = np.bincount(
            (population + slots).ravel(), weights=weights, minlength=rows * n
        ).reshape(rows, n)
        overload = np.maximum(load - self.capacity, 0.0).sum(axis=1)
        return base + self.weight * (breaches + overload)

    def floor(self) -> float:
        """Lowest fitness ``score`` can return: the penalty for each job's
        fewest breaches over its pairs, as ``score`` computes it."""
        return self.weight * float(self._least_breaches)


def roulette_wheel(
    fits: Sequence[float], floor: float | None = None
) -> Callable[[np.ndarray], np.ndarray]:
    """Fitness-proportionate picker of population indexes for a
    minimisation problem: the returned function maps an array of
    ``random()`` draws to one pick each.

    Selection weight is the gap to the worst member plus a small positive
    floor (by default one millionth of the worst fitness, or 1 when that is
    zero), so the worst member keeps a nonzero chance and a uniform
    population degrades to a uniform pick.  A pick lands on the first
    member whose running weight total reaches it, and on the last member
    when none does.
    """
    if not len(fits):
        raise ValueError("population must be non-empty")
    fits = np.asarray(fits, dtype=float)
    f_max = fits.max()
    if floor is None:
        floor = 1e-6 * f_max if f_max > 0 else 1.0
    weights = (f_max - fits) + floor
    prefix = np.cumsum(weights)[:-1]  # running totals, added left to right
    total = sum(weights.tolist())  # not a cumsum: Python >= 3.12 compensates sum()

    def pick(draws: np.ndarray) -> np.ndarray:
        return np.searchsorted(prefix, draws * total)

    return pick


class _Stream:
    """The draws of ``random.Random(seed)``, decoded from the same MT19937
    words, which numpy draws in blocks of ``block`` words.

    ``random()`` is CPython's ``random()``, made from two words.
    ``below(n)`` is its ``_randbelow(n)``: the top ``n.bit_length()`` bits
    of one word, drawn again while they are ``>= n``.  It is also
    ``randint(0, n - 1)`` and ``choice(range(n))``.  ``next_hit`` skips to
    the next ``random()`` below ``rate``: each block lists the positions
    whose two words make one, so a mutation scan decodes no draw that
    resets nothing.
    """

    def __init__(self, seed: int, rate: float = 0.0, block: int = 1 << 16) -> None:
        state = random.Random(seed).getstate()[1]
        self._bits = np.random.MT19937()
        self._bits.state = {
            "bit_generator": "MT19937",
            "state": {"key": np.array(state[:-1], dtype=np.uint32), "pos": state[-1]},
        }
        self._rate = rate
        self._bound = ceil(rate * 4294967296) + 32
        self._block = block
        self._words, self._pos = np.empty(0, dtype=np.uint64), 0
        self._refill(0)

    def _refill(self, count: int) -> None:
        """Start a block at the current position, with at least ``count``
        words in it."""
        fresh = self._bits.random_raw(max(self._block, count))
        words = np.concatenate([self._words[self._pos :], fresh])
        self._words, self._word, self._pos, self._end = words, memoryview(words), 0, len(words)
        # random() < rate needs its first word below rate * 2**32 + 32;
        # decode exact doubles only for the words that pass that test
        first = np.flatnonzero(words[:-1] < self._bound)
        ints = (words[first] >> 5) * 67108864 + (words[first + 1] >> 6)
        hits = first[ints * (1.0 / 9007199254740992.0) < self._rate]
        # split by parity, each ending in a sentinel past the block
        self._hits = [hits[hits % 2 == odd].tolist() + [len(words)] for odd in (0, 1)]

    def random(self) -> float:
        pos = self._pos
        if pos + 2 > self._end:
            self._refill(2)
            pos = 0
        word = self._word
        self._pos = pos + 2
        return ((word[pos] >> 5) * 67108864.0 + (word[pos + 1] >> 6)) * (
            1.0 / 9007199254740992.0
        )

    def below(self, n: int) -> int:
        shift = 32 - n.bit_length()
        while True:
            if self._pos == self._end:
                self._refill(1)
            value = self._word[self._pos] >> shift
            self._pos += 1
            if value < n:
                return value

    def belows(self, n: int, count: int) -> np.ndarray:
        """``count`` successive ``below(n)`` draws, as one array."""
        shift = 32 - n.bit_length()
        parts = [np.empty(0, dtype=np.intp)]
        while count:
            if self._pos + count > self._end:
                self._refill(count)
            # each word is kept with probability n / 2**bit_length > 1/2
            window = self._words[self._pos : self._pos + 2 * count + 64] >> shift
            kept = np.flatnonzero(window < n)[:count]
            self._pos += int(kept[-1]) + 1 if len(kept) == count else len(window)
            parts.append(window[kept].astype(np.intp))
            count -= len(kept)
        return np.concatenate(parts)

    def next_hit(self, draws: int) -> int:
        """How many of the next ``draws`` ``random()`` draws come before the
        first one below ``rate``, consuming them and that one; ``draws``,
        consuming them all, when none is below."""
        start, end = self._pos, self._pos + 2 * draws
        if end > self._end:
            self._refill(2 * draws)
            start, end = 0, 2 * draws
        hits = self._hits[start & 1]
        hit = hits[bisect_left(hits, start)]
        if hit >= end:
            self._pos = end
            return draws
        self._pos = hit + 2
        return (hit - start) >> 1


def crossover(parents: np.ndarray, cuts: np.ndarray, n_genes: int) -> np.ndarray:
    """Single-point crossover of parent pairs, as gene sources.

    ``parents`` is a pairs x 2 array of population rows (a, b), and each
    pair has one cut.  The first child takes the genes before the cut
    from a and the rest from b, the second child the reverse.  Returns a
    (2 * pairs) x ``n_genes`` array: the row each child's gene comes from.
    """
    before = np.arange(n_genes) < cuts[:, None, None]
    return np.where(before, parents[:, :, None], parents[:, ::-1, None]).reshape(-1, n_genes)


def mutate(stream: _Stream, genes: range, n_choices: int) -> list[tuple[int, int]]:
    """Uniform per-gene reset mutation: each gene of ``genes`` whose
    ``random()`` draw falls below the stream's rate is reset to a
    ``below(n_choices)`` draw over all resources, dummy included.  Genes
    are flat positions in a population array, so the two children of a
    pair, which lie end to end, mutate in one call.  Returns the (gene,
    resource index) resets in gene order."""
    resets = []
    gene = genes.start + stream.next_hit(len(genes))
    while gene < genes.stop:
        resets.append((gene, stream.below(n_choices)))
        gene += 1 + stream.next_hit(genes.stop - gene - 1)
    return resets


def decode_schedule(row: Sequence[int], table: PairTable) -> Schedule:
    """Deterministic repair of a gene row into a valid schedule.

    Genes that point at a resource the job cannot use (deadline or budget,
    as ``table.feasible`` marks it) are parked, and so are genes on a
    dummy, which ``build_schedule`` parks; then any overloaded resource
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


def chromosome_from_schedule(schedule: Schedule, table: PairTable) -> tuple[int, ...]:
    """Gene row of a whole-job schedule; deferred jobs get the dummy's
    column."""
    columns = {r.resource_id: k for k, r in enumerate(table.resources)}
    by_job = schedule.assignments.by_job()
    row = []
    for job in table.jobs:
        placements = by_job.get(job.job_id, {})
        if job.job_id in schedule.dummy_jobs or not placements:
            row.append(table.parking)
        elif len(placements) != 1:
            raise ValueError(f"job {job.job_id} is not placed whole: {placements}")
        else:
            row.append(columns[next(iter(placements))])
    return tuple(row)


def _empty_result() -> GaResult:
    return GaResult(
        best=(),
        iterations_used=0,
        best_fitness_trace=(0.0,),
        converged=True,
        seed_fitness=0.0,
    )


def _breed(
    population: np.ndarray,
    fits: np.ndarray,
    stream: _Stream,
    params: GaParams,
    n_choices: int,
) -> np.ndarray:
    """The next generation: the ``elitism`` fittest rows (ties in row
    order), then children bred pair by pair.  Each pair draws two roulette
    picks and a crossover draw, then a cut when that draw is below
    ``crossover_rate`` (no crossover is the cut ``n_genes``), then the
    mutation draws of its first child and of its second.  No draw depends
    on a gene, so the draws are decoded first and the rows built after:
    one gather of each gene's source row, then one scatter of the resets."""
    size, n_genes = population.shape
    elites = np.argsort(fits, kind="stable")[: params.elitism]
    draw, below = stream.random, stream.below
    draws, cuts, resets = [], [], []
    for first in range(params.elitism, size, 2):
        draws += (draw(), draw())
        cuts.append(below(n_genes + 1) if draw() < params.crossover_rate else n_genes)
        children = range(first * n_genes, min(first + 2, size) * n_genes)
        resets += mutate(stream, children, n_choices)
    parents = roulette_wheel(fits)(np.array(draws)).reshape(-1, 2)
    sources = np.empty((size, n_genes), dtype=np.intp)
    sources[: params.elitism] = elites[:, None]
    sources[params.elitism :] = crossover(parents, np.array(cuts), n_genes)[: size - params.elitism]
    bred = np.take(population, sources * n_genes + np.arange(n_genes))
    if resets:
        flat = np.fromiter(chain.from_iterable(resets), np.intp, 2 * len(resets))
        genes, values = flat.reshape(-1, 2).T
        bred.ravel()[genes] = values
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

    Every fitness is ``base + W * (breaches + overload)`` with ``base`` and
    ``overload`` at least 0, so none is below ``W`` times each job's fewest
    breaches over its pairs (``FitnessTables.floor``).  Rounding is
    monotone, so no computed fitness is below that product either.  When
    the best seed scores exactly the floor, no generation beats it by the
    loop's 1e-12, and the run returns what the loop would (that seed, a
    flat trace, ``min(max_iterations, 1 + convergence_window)``
    iterations) without drawing a population: this happens on a batch
    where no job has a breach-free real pair and the seed parks them all.
    """
    if len(seed_rows) > params.population_size:
        raise ValueError("more seed rows than population slots")
    if not table.jobs:
        return _empty_result()
    size, n_genes, n_choices = params.population_size, len(table.jobs), len(table.resources)
    if any(len(row) != n_genes for row in seed_rows):
        raise ValueError(f"a seed row needs one gene for each of the {n_genes} jobs")
    seeds = np.array(seed_rows, dtype=np.intp).reshape(-1, n_genes)
    if ((seeds < 0) | (seeds >= n_choices)).any():
        raise ValueError(f"a seed gene lies outside the {n_choices} resource columns")
    tables = FitnessTables(table)
    fits = tables.score(seeds)
    seed_fitness = float(fits.min(initial=inf))
    if seed_fitness == tables.floor():  # the loop's answer, without the loop
        iterations = min(params.max_iterations, 1 + params.convergence_window)
        return GaResult(
            best=tuple(seeds[fits.argmin()].tolist()),
            iterations_used=iterations,
            best_fitness_trace=(seed_fitness,) * iterations,
            converged=iterations - 1 >= params.convergence_window,
            seed_fitness=seed_fitness,
        )

    # a block holds about two generations' words: one draw of two words
    # per gene, plus a few per pair
    stream = _Stream(
        params.rng_seed, params.mutation_rate, min(1 << 16, 4 * size * n_genes)
    )
    drawn = stream.belows(n_choices, (size - len(seeds)) * n_genes)
    population = np.concatenate([seeds, drawn.reshape(-1, n_genes)])
    fits = tables.score(population)
    iterations = 1
    best = int(fits.argmin())
    best_fit, best_row = float(fits[best]), population[best]
    trace = [best_fit]
    stale = 0

    while iterations < params.max_iterations and stale < params.convergence_window:
        population = _breed(population, fits, stream, params, n_choices)
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


def _refine(
    tag: str, seed_schedule: Schedule, table: PairTable, params: GaParams
) -> tuple[Schedule, GaResult]:
    """The tail both pipelines share: seed the GA with ``seed_schedule``'s
    row and decode the best row it finds."""
    result = run_ga([chromosome_from_schedule(seed_schedule, table)], table, params)
    schedule = decode_schedule(result.best, table)
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(
            "%s: seed fitness %.6g -> best %.6g in %d iterations",
            tag, result.seed_fitness, result.best_fitness, result.iterations_used,
        )
        for jid, rids in sorted(schedule.assignments.by_job().items()):
            if jid in schedule.dummy_jobs:
                logger.debug("%s: job %s deferred to the next period", tag, jid)
            else:
                logger.debug("%s: job %s placed on %s", tag, jid, ",".join(sorted(rids)))
    return schedule, result


def lpga(
    jobs: Sequence[JobRequest],
    resources: Sequence[ResourceInfo],
    params: GaParams = GaParams(),
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
    model = build_relaxed(jobs, resources)
    seed_schedule = modified_min_cost(model, solve_relaxed(model))
    return _refine("lpga", seed_schedule, model.table, params)


def hga(
    jobs: Sequence[JobRequest],
    resources: Sequence[ResourceInfo],
    params: GaParams = GaParams(),
) -> tuple[Schedule, GaResult]:
    """Greedy-seeded meta-scheduler: identical GA, cheaper seed."""
    if not jobs:
        return Schedule.empty(), _empty_result()
    table = pair_table(jobs, resources)
    return _refine("hga", greedy_schedule(table), table, params)
