"""GA operators, penalty fitness, and the two seeded meta-schedulers."""

from __future__ import annotations

import builtins
import dataclasses
import itertools
import math
import random
from collections.abc import Mapping
from fractions import Fraction

import numpy as np
import pytest
from conftest import (
    S1_OPTIMAL_COST, cut, fuzz_instance, same_schedule, sum_312, tiny_instance,
)
from hypothesis import example, given, settings, strategies as st
import metagrid.ga as ga_module
from metagrid.greedy import greedy_schedule
from metagrid.ga import (
    FitnessTables,
    GaParams,
    crossover,
    decode_schedule,
    hga,
    lpga,
    mutate,
    roulette_wheel,
    run_ga,
    _breed,
    belows,
    uniforms,
)
from metagrid.model import (
    JobKind,
    JobRequest,
    ResourceInfo,
    ensure_dummy,
    exec_time,
    pair_charge,
    pair_table,
    validate,
)
from metagrid.workload import ScenarioConfig, generate_grid, generate_jobs
from oracles import (
    breach_count,
    brute_force_sgn,
    fitness,
    gene_map,
    gene_row,
    parking_id,
    placement_cost,
    placement_feasible,
    scalar_decode,
    scalar_generation,
    scalar_greedy,
    schedule_cost,
)


def default_weight(jobs, resources) -> float:
    """The penalty unit ``FitnessTables`` sets for the batch."""
    return FitnessTables(pair_table(jobs, resources)).weight


def decode(genes, jobs, resources):
    """``decode_schedule`` of a gene map, as the GA's gene row."""
    table = pair_table(jobs, resources)
    return decode_schedule(gene_row(genes, table), table)


class DictWalkFitness:
    """Scalar reference for ``FitnessTables.score``: walks one gene map job
    by job in sorted order, adding each placement's cost and breaches, then
    adds each real resource's PE overload."""

    def __init__(self, jobs, resources, weight):
        self.weight = weight
        self.job_ids = tuple(sorted(j.job_id for j in jobs))
        self.pe_count = {j.job_id: j.pe_count for j in jobs}
        self.dummy_ids = frozenset(r.resource_id for r in resources if r.is_dummy)
        self.capacity = {r.resource_id: r.free_pes for r in resources if not r.is_dummy}
        self.cost: dict[tuple[str, str], float] = {}
        self.breaches: dict[tuple[str, str], int] = {}
        for job in jobs:
            for res in resources:
                if not res.is_dummy:
                    key = (job.job_id, res.resource_id)
                    self.cost[key] = placement_cost(job, res)
                    self.breaches[key] = breach_count(job, res)

    def __call__(self, genes: Mapping[str, str]) -> float:
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


# ---------------------------------------------------------------- fitness


def test_default_penalty_weight_s1(s1_jobs, s1_resources):
    # 10 * max rate 3 * max exec time 20 s * max PE request 3
    assert default_weight(s1_jobs, s1_resources) == 1800.0


def test_fitness_of_feasible_genes_is_plain_cost(s1_jobs, s1_resources):
    assert fitness({"A": "R1", "B": "R2"}, s1_jobs, s1_resources) == 110.0


def test_fitness_charges_capacity_overflow(s1_jobs, s1_resources):
    # both jobs on R2: base 30 + 90, one PE over the 4 available
    got = fitness({"A": "R2", "B": "R2"}, s1_jobs, s1_resources)
    assert got == 120.0 + 1800.0


def test_fitness_charges_each_deferred_job(s1_jobs, s1_resources):
    pool, dummy_id = ensure_dummy(s1_jobs, s1_resources)
    got = fitness({"A": dummy_id, "B": dummy_id}, s1_jobs, pool)
    assert got == 2 * 1800.0


def test_fitness_counts_deadline_and_budget_breaches(s1_jobs, s1_resources):
    # B on R1 runs 20 s against a 15 s deadline: one breach
    got = fitness({"A": "R2", "B": "R1"}, s1_jobs, s1_resources)
    assert got == (30.0 + 60.0) + 1800.0


def test_fitness_of_an_empty_batch_is_zero(s1_resources):
    assert fitness({}, [], s1_resources) == 0.0


def test_fitness_takes_a_custom_weight(s1_jobs, s1_resources):
    assert fitness({"A": "R2", "B": "R2"}, s1_jobs, s1_resources, penalty_weight=7.0) == 127.0


def test_fitness_and_decode_share_the_budget_tolerance():
    # the job costs 2000 on a budget 5e-8 short of it, beyond the absolute
    # tolerance: a budget breach for fitness as well as for decoding
    res = ResourceInfo("R1", 4, 1.0, 1.0)
    job = JobRequest("U", "A", 2000.0 - 5e-8, 1e6, (1000.0, 1000.0), 2)
    weight = default_weight([job], [res])
    assert fitness({"A": "R1"}, [job], [res]) == 2000.0 + weight
    assert decode({"A": "R1"}, [job], [res]).dummy_jobs == {"A"}


@st.composite
def placements(draw):
    """One job and one to three resources that each have room for it.  Its
    budget and deadline are multiples of its charge and runtime on the
    first resource; a multiple of 1.0 puts them exactly on the limit."""
    pes = draw(st.integers(1, 4))
    sizes = tuple(draw(st.lists(st.floats(100.0, 4000.0), min_size=pes, max_size=pes)))
    resources = [
        ResourceInfo(f"R{i + 1}", draw(st.integers(pes, 8)), draw(st.floats(1.0, 6.0)),
                     draw(st.floats(100.0, 900.0)))
        for i in range(draw(st.integers(1, 3)))
    ]
    factor = st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.1, 10.0)
    probe = JobRequest("U", "J", 1.0, 1.0, sizes, pes)
    budget = pair_charge(probe, resources[0], pes) * draw(factor)
    deadline = exec_time(probe, resources[0]) * draw(factor)
    return JobRequest("U", "J", budget, deadline, sizes, pes), resources


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data())
def test_fitness_decode_and_the_oracle_follow_the_whole_job_rule(data):
    """On a resource with room, a gene's fitness is its cost plus one
    penalty per breach, decoding parks it exactly when the placement is
    infeasible, and the whole-job oracle chooses among the feasible
    resources only."""
    job, resources = data.draw(placements())
    weight = default_weight([job], resources)
    for res in resources:
        genes = {job.job_id: res.resource_id}
        breaches = breach_count(job, res)
        feasible = placement_feasible(job, res)
        assert feasible is (breaches == 0)
        got = fitness(genes, [job], resources)
        assert got == placement_cost(job, res) + weight * breaches
        parked = decode(genes, [job], resources).dummy_jobs
        assert (job.job_id in parked) is not feasible
    options = [placement_cost(job, r) for r in resources if placement_feasible(job, r)]
    whole = brute_force_sgn([job], resources)
    if not options:
        assert whole is None
    else:
        assert whole is not None
        assert schedule_cost(whole, [job], resources) == min(options)


@st.composite
def scored_batches(draw):
    """A batch, a pool with its dummy, and gene rows over the pool.  Every
    batch gets an all-parked row and, for each real resource, a row that
    puts every job there, so dummy genes and overloads always occur; the
    remaining rows are drawn freely.  A resource has 0-8 free PEs and a
    job 1-6 PEs, so many jobs have no room on some resource."""
    resources = [
        ResourceInfo(f"R{i + 1}", draw(st.integers(0, 8)), draw(st.floats(0.5, 9.0)),
                     draw(st.floats(100.0, 900.0)))
        for i in range(draw(st.integers(1, 4)))
    ]
    jobs = []
    for j in range(draw(st.integers(1, 20))):
        pes = draw(st.integers(1, 6))
        sizes = tuple(draw(st.lists(st.floats(100.0, 4000.0), min_size=pes, max_size=pes)))
        jobs.append(JobRequest(f"U{j}", f"J{j:02d}", draw(st.floats(1.0, 2000.0)),
                               draw(st.floats(0.5, 40.0)), sizes, pes))
    pool, _ = ensure_dummy(jobs, resources)
    n = len(pool)
    fixed = [[k] * len(jobs) for k in range(n)]
    free = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=len(jobs),
                                  max_size=len(jobs)), max_size=6))
    return jobs, pool, fixed + free


@settings(max_examples=200, derandomize=True, deadline=None)
@given(batch=scored_batches())
def test_batch_scores_equal_the_dict_walk_bit_for_bit(batch):
    jobs, pool, rows = batch
    table = pair_table(jobs, pool)
    tables = FitnessTables(table)
    oracle = DictWalkFitness(jobs, pool, tables.weight)
    got = tables.score(np.array(rows)).tolist()
    assert got == [oracle(gene_map(row, table)) for row in rows]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(batch=scored_batches())
def test_a_row_scores_alone_what_it_scores_in_the_population(batch):
    """``run_ga`` scores its seed rows alone and every generation as a
    whole population; each row's score is the same either way, bit for
    bit, so the costs are added in one order whatever the row count."""
    jobs, pool, rows = batch
    tables = FitnessTables(pair_table(jobs, pool))
    population = np.array(rows)
    alone = [tables.score(population[i : i + 1]).tolist() for i in range(len(rows))]
    assert alone == [[fit] for fit in tables.score(population).tolist()]


def test_a_row_scores_alone_what_it_scores_in_a_generated_population():
    """The same on generated batches of 200 resources x 50 jobs and 50 x
    200, greedy's row and 29 random rows each: with this many jobs and
    costs, a pairwise sum of one row's costs would differ in the last bits."""
    rng = np.random.default_rng(0)
    for seed in range(3):
        for resources, jobs in ((200, 50), (50, 200)):
            config = ScenarioConfig(resource_count=resources, job_count=jobs, rng_seed=seed)
            table = pair_table(generate_jobs(config), generate_grid(config))
            tables = FitnessTables(table)
            seed_row = greedy_schedule(table).placed.argmax(axis=1)
            drawn = rng.integers(0, len(table.resources), (29, jobs))
            population = np.concatenate([[seed_row], drawn])
            alone = [tables.score(row[None]).tolist()[0] for row in population]
            assert alone == tables.score(population).tolist(), config


@settings(max_examples=200, derandomize=True, deadline=None)
@given(batch=scored_batches())
def test_no_score_is_below_the_floor(batch):
    """The floor is the penalty for each job that has no real resource
    without a breach and with a free PE for each of its PEs, and every row
    scores at least that much."""
    jobs, pool, rows = batch
    tables = FitnessTables(pair_table(jobs, pool))
    real = [r for r in pool if not r.is_dummy]
    unfit = sum(
        min([1] + [breach_count(j, r) + (j.pe_count > r.free_pes) for r in real]) for j in jobs
    )
    assert (tables.score(np.array(rows)) >= tables.weight * unfit).all()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(batch=scored_batches())
def test_default_penalty_weight_is_the_max_over_every_pair(batch):
    jobs, pool, _ = batch
    real = [r for r in pool if not r.is_dummy]
    max_exec = max(exec_time(j, r) for j in jobs for r in real)
    max_rate = max(r.cost_per_pe_second for r in real)
    max_pes = max(j.pe_count for j in jobs)
    expected = 10.0 * max(max_rate, 1.0) * max(max_exec, 1.0) * max(max_pes, 1)
    assert default_weight(jobs, pool) == expected


# ------------------------------------------------------------- selection


def test_roulette_singleton_population_returns_it_twice():
    pick = roulette_wheel([5.0])
    rng = random.Random(0)
    assert pick(np.array([rng.random(), rng.random()])).tolist() == [0, 0]


def test_roulette_requires_a_nonempty_population():
    with pytest.raises(ValueError):
        roulette_wheel([])


def _draws(seed: int, count: int) -> np.ndarray:
    rng = random.Random(seed)
    return np.array([rng.random() for _ in range(count)])


def test_roulette_equal_fitness_degrades_to_uniform():
    picks = roulette_wheel([10.0, 10.0])(_draws(42, 20_000))
    assert abs((picks == 0).mean() - 0.5) < 0.02


def test_roulette_weights_follow_fitness_gap():
    # the floor is 1e-6 x 1e6 = 1, so the weights are (1e6 - 999,980) + 1 :
    # (1e6 - 1e6) + 1 and the better one wins 21/22 of picks
    picks = roulette_wheel([999_980.0, 1e6])(_draws(7, 200_000))
    assert abs((picks == 0).mean() - 21 / 22) < 0.01


def test_roulette_pick_on_a_running_total_takes_that_member():
    # the floor is 1e-6 x 2e6 = 2, so the weights are 4 : 2 : 2 of total
    # 8; draws landing exactly on the running totals 4 and 6 pick the
    # member whose total they reach
    pick = roulette_wheel([1_999_998.0, 2e6, 2e6])
    assert pick(np.array([0.0, 0.5, 0.75, 0.99])).tolist() == [0, 0, 1, 2]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(fits=st.lists(st.floats(0.0, 1e7) | st.sampled_from([0.0, 5.0]), min_size=1,
                     max_size=12), seed=st.integers(0, 2**32))
def test_roulette_picks_the_first_member_whose_running_total_reaches_the_draw(fits, seed):
    f_max = max(fits)
    floor = 1e-6 * f_max if f_max > 0 else 1.0
    weights = [(f_max - f) + floor for f in fits]
    total = list(itertools.accumulate(weights))[-1]
    draws = _draws(seed, 20)
    expected = []
    for u in draws.tolist():
        pick = u * total
        acc, first = 0.0, len(fits) - 1
        for i, w in enumerate(weights):
            acc += w
            if pick <= acc:
                first = i
                break
        expected.append(first)
    assert roulette_wheel(fits)(draws).tolist() == expected


def test_roulette_picks_on_the_running_totals_hold_under_3_12_sum(monkeypatch):
    """The wheel's total is its last running total, not ``sum()``, which
    Python >= 3.12 compensates: draws on every running total and on its
    neighbouring doubles pick the same members under ``conftest.sum_312``,
    on populations whose compensated weight sum differs from the
    left-to-right one."""
    rng = np.random.default_rng(0)
    populations = rng.uniform(0.0, 1e6, (40, 30))
    boundaries, differ = [], 0
    for fits in populations:
        weights = (fits.max() - fits) + 1e-6 * fits.max()
        running = weights.cumsum()
        differ += sum_312(weights.tolist()) != running[-1]
        on = running / running[-1]
        # draws lie in [0, 1): the last total's draw, 1.0, wraps to 0.0
        boundaries.append(np.concatenate([np.nextafter(on, 0), on, np.nextafter(on, 1)]) % 1.0)
    picks = [roulette_wheel(fits)(draws) for fits, draws in zip(populations, boundaries)]
    monkeypatch.setattr(builtins, "sum", sum_312)
    for fits, draws, want in zip(populations, boundaries, picks):
        assert roulette_wheel(fits)(draws).tolist() == want.tolist()
    assert differ > 20


# ------------------------------------------------------------- crossover


def _crossed(a: list[int], b: list[int], cut: int) -> tuple[list[int], list[int]]:
    """The two children of parents ``a`` and ``b`` at ``cut``."""
    c1, c2 = crossover(np.array([a, b]), np.array([0, 1]), np.array([cut])).tolist()
    return c1, c2


def test_crossover_cut_zero_swaps_parents_whole():
    c1, c2 = _crossed([0, 0], [1, 1], 0)
    assert c1 == [1, 1]
    assert c2 == [0, 0]


def test_crossover_cut_one_splits_on_sorted_job_ids():
    c1, c2 = _crossed([0, 0], [1, 1], 1)
    assert c1 == [0, 1]
    assert c2 == [1, 0]


def test_crossover_of_identical_parents_is_identity():
    a = [0, 1]
    for cut in range(3):
        c1, c2 = _crossed(a, list(a), cut)
        assert c1 == a
        assert c2 == a


def test_crossover_leaves_the_parents_untouched():
    population = np.array([[0, 0, 0], [1, 1, 1]])
    parents = np.array([0, 1, 1, 0])
    for cut in range(4):
        children = crossover(population, parents, np.array([cut, cut]))
        a_first, b_first = [0] * cut + [1] * (3 - cut), [1] * cut + [0] * (3 - cut)
        assert children.tolist() == [a_first, b_first, b_first, a_first]
        assert not np.shares_memory(children, population)
    assert population.tolist() == [[0, 0, 0], [1, 1, 1]]
    assert parents.tolist() == [0, 1, 1, 0]


# -------------------------------------------------------------- mutation


def test_mutate_rate_zero_is_identity():
    params = GaParams(population_size=4, elitism=0, mutation_rate=0.0)
    _, _, genes, values = mutate(np.random.PCG64(0), params, 2, 9)
    assert genes.tolist() == values.tolist() == []


def test_mutate_rate_one_redraws_every_gene():
    # the elite row 0 keeps its genes; every child gene is reset
    params = GaParams(population_size=3, elitism=1, mutation_rate=1.0)
    _, _, genes, values = mutate(np.random.PCG64(0), params, 2, 1)
    assert genes.tolist() == [2, 3, 4, 5]
    assert values.tolist() == [0, 0, 0, 0]


def test_mutate_is_seed_deterministic():
    params = GaParams(population_size=9, mutation_rate=0.5)
    a = mutate(np.random.PCG64(9), params, 12, 4)
    b = mutate(np.random.PCG64(9), params, 12, 4)
    assert [x.tolist() for x in a] == [x.tolist() for x in b]


def test_mutate_does_not_touch_the_input():
    # a generation bred at rate 1 resets every child's genes in a new array
    population = np.zeros((4, 3), dtype=np.intp)
    fits = np.array([1.0, 2.0, 3.0, 4.0])
    params = GaParams(population_size=4, mutation_rate=1.0)
    bred = _breed(population, fits, np.random.PCG64(0), params, 5)
    assert not np.shares_memory(bred, population)
    assert population.tolist() == [[0, 0, 0]] * 4


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**128 - 1),
    n_choices=st.sampled_from([1, 2, 9, 257, 2**32 - 1]) | st.integers(1, 400),
    n_genes=st.integers(1, 40),
    size=st.integers(2, 12),
    elitism=st.integers(0, 3),
    rate=st.sampled_from([0.0, 0.02, 1.0]) | st.floats(0.0, 1.0),
    crossover_rate=st.sampled_from([0.0, 0.8, 1.0]),
)
def test_mutate_draws_stay_in_range(seed, n_choices, n_genes, size, elitism, rate, crossover_rate):
    """Every draw lies where ``_breed`` can use it, rates 0 and 1 reset no
    gene and every child gene, and a seed repeats its arrays exactly."""
    params = GaParams(population_size=size, elitism=min(elitism, size),
                      mutation_rate=rate, crossover_rate=crossover_rate)
    pairs, first = (size - params.elitism + 1) // 2, params.elitism * n_genes
    draws, cuts, genes, values = mutate(np.random.PCG64(seed), params, n_genes, n_choices)
    assert len(draws) == 2 * pairs and ((0.0 <= draws) & (draws < 1.0)).all()
    assert len(cuts) == pairs and ((0 <= cuts) & (cuts <= n_genes)).all()
    if crossover_rate == 0.0:
        assert (cuts == n_genes).all()
    assert (np.diff(genes) > 0).all()
    assert ((first <= genes) & (genes < size * n_genes)).all()
    assert len(values) == len(genes) and ((0 <= values) & (values < n_choices)).all()
    if rate == 0.0:
        assert len(genes) == 0
    if rate == 1.0:
        assert genes.tolist() == list(range(first, size * n_genes))
    again = mutate(np.random.PCG64(seed), params, n_genes, n_choices)
    for a, b in zip((draws, cuts, genes, values), again):
        assert a.dtype == b.dtype and a.tolist() == b.tolist()


class PlannedWords:
    """A bit source that hands out ``words`` in order, then zeros."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)

    def random_raw(self, count):
        out = np.zeros(count, dtype=np.uint64)
        taken, self.words = self.words[:count], self.words[count:]
        out[: len(taken)] = taken
        return out


FIXED_RATES = (0.0, 2.0**-60, 0.02, 0.5, 0.8, 1.0)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(rate=st.floats(0.0, 1.0))
@example(rate=0.0)
@example(rate=2.0**-60)
@example(rate=0.02)
@example(rate=0.5)
@example(rate=0.8)
@example(rate=1.0)
def test_mutate_decides_each_rate_on_the_raw_words(rate):
    """``mutate`` crosses a pair and resets a gene exactly where the raw
    word's uniform is below the rate, ``uniforms(w) < rate``.  The words
    probed are 0, 2**64 - 1 and, for this rate and each of ``FIXED_RATES``,
    the largest word whose uniform is below it (``T``) and ``T +- 1``;
    0.5 * 2**53 is an integer, 0.02 * 2**53 is not.  Each probe word is one
    pair's crossover word and two child genes' mutation words, over one
    gene and no elite, and every cut word is 0, so a crossed pair cuts at
    0 and a kept one at 1."""
    probes = {0, 2**64 - 1}
    for r in (rate, *FIXED_RATES):
        # the largest top-53-bit value below r * 2**53, -1 at rate 0, and
        # T, the last word that carries it
        top = math.ceil(Fraction(r) * 2**53) - 1
        threshold = (top << 11) | 2047
        probes |= {w for w in (threshold - 1, threshold, threshold + 1) if 0 <= w < 2**64}
    words = np.array(sorted(probes), dtype=np.uint64)
    m = len(words)
    params = GaParams(population_size=2 * m, elitism=0, crossover_rate=rate, mutation_rate=rate)
    zeros = np.zeros(m, dtype=np.uint64)
    planned = PlannedWords(np.concatenate([zeros, zeros, words, zeros, words, words]))
    _, cuts, genes, _ = mutate(planned, params, 1, 5)
    below = uniforms(words) < rate
    assert (cuts == 0).tolist() == below.tolist()
    assert genes.tolist() == np.flatnonzero(np.concatenate([below, below])).tolist()


def test_the_stream_and_its_decoders_are_pinned():
    """The first raw words of ``PCG64(0)``, which NEP 19 keeps stable
    across numpy releases, and what the two decoders make of them: a numpy
    that changed the stream fails here before it moves any GA golden."""
    words = np.random.PCG64(0).random_raw(4)
    assert words.tolist() == [
        11749869230777074271, 4976686463289251617, 755828109848996024, 304881062738325533,
    ]
    assert uniforms(words).tolist() == [
        0.6369616873214543, 0.2697867137638703, 0.04097352393619469, 0.016527635528529094,
    ]
    # below 2**32 - 1, multiply-shift gives each word's top 32 bits less one
    assert belows(words, 7).tolist() == [4, 1, 0, 0]
    assert belows(words, 1).tolist() == [0, 0, 0, 0]
    assert belows(words, 2**32 - 1).tolist() == [
        2735729614, 1158725111, 175979944, 70985653,
    ]


@pytest.mark.parametrize("seed", [-1, -12345])
def test_a_negative_seed_is_rejected(seed):
    with pytest.raises(ValueError, match="rng_seed"):
        GaParams(rng_seed=seed)


def test_the_initial_population_is_drawn_with_the_int_decoder(s1_jobs, s1_resources):
    # with no seed rows and one iteration, the best row is the fittest of
    # the population decoded from the first words of the seed's stream
    table = pair_table(s1_jobs, s1_resources)
    params = GaParams(population_size=9, max_iterations=1, rng_seed=3)
    words = np.random.PCG64(3).random_raw(9 * len(table.jobs))
    population = belows(words, len(table.resources)).reshape(9, -1)
    best = population[FitnessTables(table).score(population).argmin()]
    assert run_ga([], table, params).best == tuple(best.tolist())


def bred_twice(population, fits, bits, twin, params, n_choices):
    """``_breed``'s generation from ``bits`` and the scalar loop's on the
    draws ``mutate`` takes from ``twin``, a copy of ``bits``."""
    bred = _breed(np.array(population), np.array(fits), bits, params, n_choices)
    draws = mutate(twin, params, len(population[0]), n_choices)
    return bred, scalar_generation([list(r) for r in population], list(fits), params, *draws)


@pytest.mark.parametrize("rate", [0.0, 0.02, 1.0])
@pytest.mark.parametrize("crossover_rate", [0.0, 0.8, 1.0])
def test_a_generation_equals_the_scalar_loop(rate, crossover_rate):
    """``_breed`` builds the same next population from ``mutate``'s draws
    as the scalar per-pair loop, and draws nothing else."""
    for seed in range(12):
        jobs, resources = fuzz_instance(seed)
        pool, _ = ensure_dummy(jobs, resources)
        tables = FitnessTables(pair_table(jobs, pool))
        n_choices = len(pool)
        size = 4 + seed % 5
        params = GaParams(population_size=size, crossover_rate=crossover_rate,
                          mutation_rate=rate, elitism=seed % 3)
        rng = random.Random(seed + 100)
        rows = [[rng.randrange(n_choices) for _ in jobs] for _ in range(size)]
        rows[-1] = list(rows[0])  # a fitness tie
        bits, twin = np.random.PCG64(seed), np.random.PCG64(seed)
        for _ in range(3):
            fits = tables.score(np.array(rows))
            bred, rows = bred_twice(rows, fits.tolist(), bits, twin, params, n_choices)
            assert bred.tolist() == rows
            assert bits.random_raw() == twin.random_raw()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    n_choices=st.sampled_from([1, 2, 9, 129, 257]),
    n_genes=st.integers(1, 12),
    size=st.integers(2, 9),
    elitism=st.integers(0, 2),
    rate=st.sampled_from([0.0, 0.02, 0.3, 1.0]),
    crossover_rate=st.sampled_from([0.0, 0.8, 1.0]),
    data=st.data(),
)
def test_a_generation_on_any_shape_equals_the_scalar_loop(
    seed, n_choices, n_genes, size, elitism, rate, crossover_rate, data
):
    """``_breed`` equals the scalar loop on any population shape, odd child
    counts and an all-elite population included, and on any fitnesses."""
    params = GaParams(population_size=size, crossover_rate=crossover_rate,
                      mutation_rate=rate, elitism=min(elitism, size))
    genes = st.lists(st.integers(0, n_choices - 1), min_size=n_genes, max_size=n_genes)
    rows = data.draw(st.lists(genes, min_size=size, max_size=size))
    bits, twin = np.random.PCG64(seed), np.random.PCG64(seed)
    for _ in range(3):
        fits = data.draw(st.lists(st.sampled_from([0.0, 1.0, 2.5]) | st.floats(0.0, 1e9),
                                  min_size=size, max_size=size))
        bred, rows = bred_twice(rows, fits, bits, twin, params, n_choices)
        assert bred.tolist() == rows
        assert bits.random_raw() == twin.random_raw()


# ------------------------------------------------- decode / seed rows


def test_decode_parks_infeasible_gene(s1_jobs, s1_resources):
    # B on R1 misses its deadline, so decoding defers it
    schedule = decode({"A": "R1", "B": "R1"}, s1_jobs, s1_resources)
    assert schedule.dummy_jobs == {"B"}
    assert schedule.assignments.pes("R1", "A") == 2
    assert schedule.total_cost_gd == 20.0


def test_decode_sheds_largest_job_first_on_overflow():
    jobs = [
        JobRequest("U", "J1", 1000.0, 50.0, (1000.0,) * 3, 3),
        JobRequest("U", "J2", 1000.0, 50.0, (1000.0,) * 2, 2),
    ]
    res = [ResourceInfo("R", 4, 1.0, 100.0)]
    schedule = decode({"J1": "R", "J2": "R"}, jobs, res)
    assert schedule.dummy_jobs == {"J1"}
    assert schedule.assignments.pes("R", "J2") == 2


def test_decode_output_is_always_sgn_feasible():
    for seed in range(80):
        jobs, resources = fuzz_instance(seed)
        pool, dummy_id = ensure_dummy(jobs, resources)
        rng = random.Random(seed)
        rids = sorted(r.resource_id for r in pool)
        genes = {j.job_id: rng.choice(rids) for j in jobs}
        schedule = decode(genes, jobs, resources)
        violations = validate(schedule.assignments, jobs, pool, JobKind.SGN)
        assert violations == [], f"instance seed {seed}: {violations}"


def reference_batches():
    """``tiny_instance`` and ``fuzz_instance`` 0-249, then generated
    batches of 200 resources x 50 jobs and 50 resources x 200 jobs; each
    one also with random free-PE cuts, the generated ones twice: cut to
    at most half, where greedy fills up (about one job in eight fits
    nowhere), and to at most a third, where most jobs fit nowhere."""
    for seed in range(250):
        for name, (jobs, resources) in (("tiny", tiny_instance(seed)),
                                        ("fuzz", fuzz_instance(seed))):
            yield f"{name} {seed}", (jobs, resources)
            yield f"{name} {seed} cut", (jobs, cut(resources, random.Random(seed)))
    for seed in range(3):
        for n_resources, n_jobs in ((200, 50), (50, 200)):
            config = ScenarioConfig(resource_count=n_resources, job_count=n_jobs, rng_seed=seed)
            jobs, resources = generate_jobs(config), generate_grid(config)
            name = f"{n_resources}x{n_jobs} {seed}"
            yield name, (jobs, resources)
            for share in (2, 3):
                yield f"{name} cut 1/{share}", (jobs, cut(resources, random.Random(seed), share))


def test_greedy_and_decode_equal_their_scalar_references():
    """``greedy_schedule`` and ``decode_schedule`` read the batch's pair
    table; they give the schedules of the scalar loops of ``oracles``,
    which check each pair with ``placement_feasible``, and so does
    ``build_schedule``, which makes both.  Decode runs on greedy's genes,
    on seeded random gene rows over the pool and on a row that crowds
    every job onto one resource.  On the cut batches most jobs are parked,
    and greedy walks only the jobs that fit on some real resource."""
    for name, (jobs, resources) in reference_batches():
        table = pair_table(jobs, resources)
        greedy = greedy_schedule(table)
        assert same_schedule(greedy, scalar_greedy(jobs, resources)), name
        rng = random.Random(name)
        rids = [r.resource_id for r in table.resources]
        maps = [gene_map(greedy.placed.argmax(axis=1).tolist(), table)]
        maps += [{j.job_id: rng.choice(rids) for j in jobs} for _ in range(3)]
        maps.append(dict.fromkeys((j.job_id for j in jobs), rng.choice(rids)))
        for genes in maps:
            assert same_schedule(decode_schedule(gene_row(genes, table), table),
                                 scalar_decode(genes, jobs, resources)), name


# ---------------------------------------------------------------- run_ga


def test_run_ga_rejects_oversized_seed_list(s1_jobs, s1_resources):
    table = pair_table(s1_jobs, s1_resources)
    seeds = [gene_row({"A": "R1", "B": "R2"}, table)] * 3
    with pytest.raises(ValueError):
        run_ga(seeds, table, GaParams(population_size=2))


@pytest.mark.parametrize(
    "row, named",
    [((0,), "one gene for each"), ((0, 3), "outside"), ((-1, 0), "outside")],
    ids=["missing-job", "unknown-resource", "negative-gene"],
)
def test_run_ga_rejects_a_seed_that_does_not_fit_the_batch(s1_jobs, s1_resources, row, named):
    # two jobs over R1, R2 and the dummy: column 3 lies past the pool, and
    # numpy would silently read column -1 as the last column
    table = pair_table(s1_jobs, s1_resources)
    assert len(table.resources) == 3
    with pytest.raises(ValueError, match=named):
        run_ga([row], table, GaParams(population_size=4))


def test_run_ga_empty_jobs_short_circuits(s1_resources):
    result = run_ga([], pair_table([], s1_resources))
    assert result.iterations_used == 0
    assert result.best_fitness_trace == (0.0,)
    assert result.converged


def test_run_ga_single_iteration_reports_initial_best(s1_jobs, s1_resources):
    params = GaParams(population_size=30, max_iterations=1, rng_seed=2)
    result = run_ga([], pair_table(s1_jobs, s1_resources), params)
    assert result.iterations_used == 1
    assert len(result.best_fitness_trace) == 1
    assert not result.converged


def test_run_ga_seeded_with_optimum_stays_there(s1_jobs, s1_resources):
    params = GaParams(
        population_size=20, convergence_window=10, max_iterations=500, rng_seed=5
    )
    table = pair_table(s1_jobs, s1_resources)
    result = run_ga([gene_row({"A": "R1", "B": "R2"}, table)], table, params)
    assert result.seed_fitness == S1_OPTIMAL_COST
    assert result.best_fitness == S1_OPTIMAL_COST
    assert set(result.best_fitness_trace) == {S1_OPTIMAL_COST}
    assert result.converged
    assert result.iterations_used == params.convergence_window + 1


def test_run_ga_finds_s1_optimum_from_random_start(s1_jobs, s1_resources):
    params = GaParams(
        population_size=40, convergence_window=15, max_iterations=300, rng_seed=11
    )
    table = pair_table(s1_jobs, s1_resources)
    result = run_ga([], table, params)
    assert result.best_fitness == S1_OPTIMAL_COST
    assert result.best == gene_row({"A": "R1", "B": "R2"}, table)


def test_run_ga_trace_never_worsens():
    for seed in range(25):
        jobs, resources = tiny_instance(seed)
        params = GaParams(
            population_size=12,
            convergence_window=8,
            max_iterations=40,
            rng_seed=seed,
        )
        result = run_ga([], pair_table(jobs, resources), params)
        trace = result.best_fitness_trace
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
        assert len(trace) == result.iterations_used


def test_run_ga_calls_mutate_through_the_module_global(monkeypatch, s1_jobs, s1_resources):
    """The benchmark's tracer times each generation's draw decode by
    rebinding ``mutate`` in this module, so ``run_ga`` must look it up
    there, once per bred generation."""
    calls = []
    original = ga_module.mutate

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(ga_module, "mutate", counted)
    params = GaParams(population_size=7, convergence_window=50, max_iterations=6, rng_seed=1)
    result = run_ga([], pair_table(s1_jobs, s1_resources), params)
    # one call per bred generation: 5 after the initial population
    assert len(calls) == 5
    assert result.iterations_used == 6
    monkeypatch.undo()
    assert run_ga([], pair_table(s1_jobs, s1_resources), params) == result


def test_run_ga_is_deterministic(s1_jobs, s1_resources):
    params = GaParams(population_size=16, max_iterations=30, rng_seed=77)
    a = run_ga([], pair_table(s1_jobs, s1_resources), params)
    b = run_ga([], pair_table(s1_jobs, s1_resources), params)
    assert a == b


def hopeless_instance(seed: int) -> tuple[list[JobRequest], list[ResourceInfo]]:
    """``tiny_instance`` with each deadline cut to half the job's fastest
    execution time, so no job has a breach-free real pair."""
    jobs, resources = tiny_instance(seed)
    return [
        dataclasses.replace(j, deadline_s=min(exec_time(j, r) for r in resources) / 2)
        for j in jobs
    ], resources


def cramped_instance(seed: int) -> tuple[list[JobRequest], list[ResourceInfo]]:
    """``tiny_instance`` with every deadline and budget ample, so no pair
    breaches, and each resource's free PEs cut below every job's PE count,
    so no job fits whole on a real resource."""
    jobs, resources = tiny_instance(seed)
    rng = random.Random(seed)
    room = min(j.pe_count for j in jobs) - 1
    return [
        dataclasses.replace(j, deadline_s=1e9, budget_gd=1e12) for j in jobs
    ], [r.with_free_pes(rng.randint(0, room)) for r in resources]


def full_loop(seeds, jobs, resources, params):
    """``run_ga``'s answer over a copy of the batch's table in which every
    pair fits, so the loop runs."""
    table = pair_table(jobs, resources)
    return run_ga(seeds, dataclasses.replace(table, fits=np.ones_like(table.fits)), params)


def floor_of(jobs, resources):
    """The penalty weight times the number of jobs with no fitting real
    column, a fitness no row scores below."""
    table = pair_table(jobs, resources)
    unfit = (~table.fits[:, ~table.dummy].any(axis=1)).sum()
    return FitnessTables(table).weight * float(unfit)


def no_generation(*args):
    raise AssertionError("a generation was bred")


def parked(jobs, resources):
    table = pair_table(jobs, resources)
    return gene_row(dict.fromkeys((j.job_id for j in jobs), parking_id(table)), table)


def on_first(jobs, resources):
    """Every job on ``resources[0]``."""
    table = pair_table(jobs, resources)
    return gene_row(dict.fromkeys((j.job_id for j in jobs), resources[0].resource_id), table)


@pytest.mark.parametrize("max_iterations", [1, 5, 25, 26, 300])
@pytest.mark.parametrize("elitism", [0, 1])
@pytest.mark.parametrize("seed_count", [1, 2])
def test_a_seed_on_the_fitness_floor_returns_the_loops_answer_without_breeding(
    monkeypatch, max_iterations, elitism, seed_count
):
    """On batches where no job fits whole on a real resource, by deadline
    (``hopeless_instance``) or by free PEs (``cramped_instance``), a seed
    that parks every job scores the floor, and ``run_ga`` returns the
    loop's answer without breeding a generation."""
    for instance, seed in itertools.product((hopeless_instance, cramped_instance), range(10)):
        jobs, resources = instance(seed)
        params = GaParams(
            population_size=10, convergence_window=25, max_iterations=max_iterations,
            elitism=elitism, rng_seed=seed,
        )
        # with two seeds, a real placement that breaches or overloads comes
        # before the floor
        seeds = [on_first(jobs, resources), parked(jobs, resources)][-seed_count:]
        expected = full_loop(seeds, jobs, resources, params)
        with monkeypatch.context() as patch:
            patch.setattr(ga_module, "_breed", no_generation)
            result = run_ga(seeds, pair_table(jobs, resources), params)
        assert result.seed_fitness == floor_of(jobs, resources)
        assert result.best == expected.best == parked(jobs, resources)
        assert result.iterations_used == expected.iterations_used
        assert result.best_fitness_trace == expected.best_fitness_trace
        assert result.converged == expected.converged
        assert result.seed_fitness == expected.seed_fitness
        assert result == expected


def test_a_hopeless_batch_with_a_seed_off_the_floor_runs_the_loop(monkeypatch):
    jobs, resources = hopeless_instance(3)
    real = on_first(jobs, resources)
    params = GaParams(population_size=10, convergence_window=25, max_iterations=300)
    generations = []
    original = ga_module._breed

    def counted(*args):
        generations.append(args)
        return original(*args)

    monkeypatch.setattr(ga_module, "_breed", counted)
    result = run_ga([real], pair_table(jobs, resources), params)
    assert result.seed_fitness > floor_of(jobs, resources)
    assert len(generations) == result.iterations_used - 1 > 0
    assert result == full_loop([real], jobs, resources, params)


# ------------------------------------------------------ seeded pipelines


def test_lpga_s1(s1_jobs, s1_resources):
    params = GaParams(
        population_size=16, convergence_window=5, max_iterations=100, rng_seed=3
    )
    schedule, result = lpga(pair_table(s1_jobs, s1_resources), params)
    assert schedule.total_cost_gd == S1_OPTIMAL_COST
    assert schedule.dummy_jobs == frozenset()
    assert result.seed_fitness == S1_OPTIMAL_COST
    assert result.best_fitness == S1_OPTIMAL_COST
    assert result.converged
    assert result.iterations_used == params.convergence_window + 1


def test_hga_s1(s1_jobs, s1_resources):
    params = GaParams(
        population_size=16, convergence_window=5, max_iterations=100, rng_seed=3
    )
    schedule, result = hga(pair_table(s1_jobs, s1_resources), params)
    assert schedule.total_cost_gd == S1_OPTIMAL_COST
    assert result.seed_fitness == S1_OPTIMAL_COST


def test_lpga_empty_jobs(s1_resources):
    schedule, result = lpga(pair_table([], s1_resources))
    assert schedule.assignments.entries == {}
    assert result.iterations_used == 0


def test_hga_repeat_runs_match_exactly(s1_jobs, s1_resources):
    params = GaParams(population_size=12, max_iterations=25, rng_seed=9)
    s_a, r_a = hga(pair_table(s1_jobs, s1_resources), params)
    s_b, r_b = hga(pair_table(s1_jobs, s1_resources), params)
    assert r_a == r_b
    assert s_a.assignments.entries == s_b.assignments.entries


def test_refinement_never_loses_to_its_seed():
    params = GaParams(
        population_size=14, convergence_window=6, max_iterations=60, rng_seed=1
    )
    for seed in range(15):
        jobs, resources = fuzz_instance(seed)
        for pipeline in (lpga, hga):
            _, result = pipeline(pair_table(jobs, resources), params)
            assert result.best_fitness <= result.seed_fitness + 1e-9
