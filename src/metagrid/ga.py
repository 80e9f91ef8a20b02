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
64k-word blocks through numpy and decoded exactly as ``random.Random``
decodes them, so a generation costs no Python call per gene: one walk
(``mutate``) decodes every pair's draws, finding the mutation resets in
the hit lists that each block's scan makes, and a few array calls then
build the rows and score them.

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
    prefix = weights.cumsum()[:-1]  # running totals, added left to right
    total = sum(weights.tolist())  # not a cumsum: Python >= 3.12 compensates sum()

    def pick(draws: np.ndarray) -> np.ndarray:
        return prefix.searchsorted(draws * total)

    return pick


_UNIT = 1.0 / 9007199254740992.0  # 2**-53, the step of random()


class _Stream:
    """The draws of ``random.Random(seed)``, decoded from the same MT19937
    words, which numpy draws in blocks of ``block`` words.

    CPython's ``random()`` is made from two words, ``(a >> 5) * 2**26 +
    (b >> 6)`` over ``2**53``.  Its ``_randbelow(n)`` (also ``randint(0,
    n - 1)`` and ``choice(range(n))``) is the top ``n.bit_length()`` bits
    of one word, drawn again while they are ``>= n``; ``belows`` decodes
    many at once.  Each block also lists, per parity, the positions whose
    two words make a ``random()`` below ``rate``, so ``mutate`` finds a
    generation's mutation resets by bisecting those lists, decoding no
    draw that resets nothing.  A 64k-word block lasts a 30 x 50 population
    about eleven generations."""

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
        self._words, self._pos = np.empty(0, dtype=np.uint32), 0
        self._refill(0, 0)

    def _refill(self, pos: int, count: int) -> tuple[memoryview, list[list[int]], int]:
        """Start a block at word ``pos`` of this one, with at least
        ``count`` words in it; returns its words, its hit lists and its
        length, and the new block starts at position 0."""
        fresh = self._bits.random_raw(max(self._block, count))
        words = np.concatenate([self._words[pos:], fresh], dtype=np.uint32, casting="unsafe")
        self._words, self._word, self._pos, self._end = words, memoryview(words), 0, len(words)
        # random() < rate needs its first word below rate * 2**32 + 32;
        # decode exact doubles only for the words that pass that test
        first = (words[:-1] < self._bound).nonzero()[0]
        doubles = (words.take(first) >> 5) * 67108864.0 + (words.take(first + 1) >> 6)
        hits = first[doubles * _UNIT < self._rate]
        # split by parity, each ending in a sentinel past the block
        odd = hits & 1
        self._hits = [hits[odd == 0].tolist() + [self._end], hits[odd == 1].tolist() + [self._end]]
        return self._word, self._hits, self._end

    def belows(self, n: int, count: int) -> np.ndarray:
        """``count`` successive ``_randbelow(n)`` draws, as one array."""
        shift = 32 - n.bit_length()
        parts = [np.empty(0, dtype=np.intp)]
        while count:
            if self._pos + count > self._end:
                self._refill(self._pos, count)
            # each word is kept with probability n / 2**bit_length > 1/2
            window = self._words[self._pos : self._pos + 2 * count + 64] >> shift
            kept = np.flatnonzero(window < n)[:count]
            self._pos += int(kept[-1]) + 1 if len(kept) == count else len(window)
            parts.append(window[kept].astype(np.intp))
            count -= len(kept)
        return np.concatenate(parts)


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
    stream: _Stream, params: GaParams, n_genes: int, n_choices: int
) -> tuple[list[float], list[int], list[int], list[int]]:
    """Decode one bred generation's draws, pair by pair in stream order.

    Children fill rows ``elitism`` onward of a ``population_size`` x
    ``n_genes`` array, two per pair (the last pair keeps only its first
    when they do not fit).  Each pair draws two ``random()`` roulette
    draws and a crossover draw, then a ``_randbelow(n_genes + 1)`` cut
    when that draw is below ``crossover_rate`` (no crossover is the cut
    ``n_genes``), then one ``random()`` per gene of its children: a gene
    whose draw falls below the stream's rate is reset to a
    ``_randbelow(n_choices)`` resource, dummy included.  Returns the
    roulette draws, the cuts, and the flat array positions and values of
    the resets in gene order.
    """
    size, rate = params.population_size, params.crossover_rate
    cut_n, cut_shift = n_genes + 1, 32 - (n_genes + 1).bit_length()
    reset_shift = 32 - n_choices.bit_length()
    refill = stream._refill
    word, hits, pos, end = stream._word, stream._hits, stream._pos, stream._end
    draws, cuts, genes, values = [], [], [], []
    for first in range(params.elitism, size, 2):
        if pos + 6 > end:
            word, hits, end = refill(pos, 6)
            pos = 0
        draws += (
            ((word[pos] >> 5) * 67108864.0 + (word[pos + 1] >> 6)) * _UNIT,
            ((word[pos + 2] >> 5) * 67108864.0 + (word[pos + 3] >> 6)) * _UNIT,
        )
        crossed = ((word[pos + 4] >> 5) * 67108864.0 + (word[pos + 5] >> 6)) * _UNIT < rate
        pos += 6
        cut = n_genes
        while crossed:
            if pos == end:
                word, hits, end = refill(pos, 1)
                pos = 0
            cut = word[pos] >> cut_shift
            pos += 1
            crossed = cut >= cut_n
        cuts.append(cut)
        # the children's genes lie end to end, one two-word draw each:
        # a hit is the first hit of pos's parity at or after pos, and
        # it lies before last, the end of the draws still to come
        stop = min(first + 2, size) * n_genes
        last = pos + 2 * (stop - first * n_genes)
        while True:
            if last > end:
                word, hits, end = refill(pos, last - pos)
                last -= pos
                pos = 0
            side = hits[pos & 1]
            hit = side[bisect_left(side, pos)]
            if hit >= last:
                break
            genes.append(stop - ((last - hit) >> 1))
            rest = last - hit - 2
            pos = hit + 2
            value = n_choices
            while value >= n_choices:
                if pos == end:
                    word, hits, end = refill(pos, 1)
                    pos = 0
                value = word[pos] >> reset_shift
                pos += 1
            values.append(value)
            last = pos + rest
        pos = last
    stream._pos = pos
    return draws, cuts, genes, values


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
    order), then the children whose draws ``mutate`` decodes.  No draw
    depends on a gene, so the draws are decoded first and the rows built
    after: one crossover over the roulette picks, then one scatter of the
    resets."""
    size, n_genes = population.shape
    draws, cuts, genes, values = mutate(stream, params, n_genes, n_choices)
    parents = roulette_wheel(fits)(np.array(draws))
    children = crossover(population, parents, np.array(cuts))
    elites = population.take(fits.argsort(kind="stable")[: params.elitism], 0)
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

    stream = _Stream(params.rng_seed, params.mutation_rate)
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
