"""GA operators, penalty fitness, and the two seeded meta-schedulers."""

from __future__ import annotations

import random
from collections.abc import Mapping

import numpy as np
import pytest
from conftest import S1_OPTIMAL_COST, fuzz_instance, tiny_instance
from hypothesis import given, settings, strategies as st
from metagrid.ga import (
    Chromosome,
    FitnessTables,
    GaParams,
    chromosome_from_schedule,
    crossover,
    decode_schedule,
    default_penalty_weight,
    fitness,
    hga,
    lpga,
    mutate,
    roulette_wheel,
    run_ga,
)
from metagrid.model import (
    AllocationMatrix,
    BudgetSemantics,
    JobKind,
    JobRequest,
    ResourceInfo,
    DEFAULT_CONFIG,
    SchedulerConfig,
    breach_count,
    build_schedule,
    ensure_dummy,
    exec_time,
    pair_charge,
    placement_cost,
    placement_feasible,
    schedule_cost,
    validate,
)
from metagrid.relaxed import brute_force_sgn


class _FixedCut:
    """rng stand-in whose randint always lands on one crossover point."""

    def __init__(self, cut: int) -> None:
        self.cut = cut

    def randint(self, lo: int, hi: int) -> int:
        assert lo <= self.cut <= hi
        return self.cut


class _FixedDraws:
    """rng stand-in whose random() returns the given values in turn."""

    def __init__(self, values) -> None:
        self.values = iter(values)

    def random(self) -> float:
        return next(self.values)


class DictWalkFitness:
    """Scalar reference for ``FitnessTables.score``: walks one gene map job
    by job in sorted order, adding each placement's cost and breaches, then
    adds each real resource's PE overload."""

    def __init__(self, jobs, resources, config=DEFAULT_CONFIG, penalty_weight=None):
        self.weight = (
            penalty_weight
            if penalty_weight is not None
            else default_penalty_weight(jobs, resources)
        )
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
                    self.breaches[key] = breach_count(job, res, config)

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
    assert default_penalty_weight(s1_jobs, s1_resources) == 1800.0


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


def test_fitness_accepts_chromosome_and_custom_weight(s1_jobs, s1_resources):
    chrom = Chromosome({"A": "R2", "B": "R2"})
    assert fitness(chrom, s1_jobs, s1_resources, penalty_weight=7.0) == 127.0


def test_fitness_and_decode_share_the_budget_tolerance():
    # the job costs 2000 on a budget 5e-8 short of it, beyond the absolute
    # tolerance: a budget breach for fitness as well as for decoding
    res = ResourceInfo("R1", 4, 1.0, 1.0)
    job = JobRequest("U", "A", 2000.0 - 5e-8, 1e6, (1000.0, 1000.0), 2)
    weight = default_penalty_weight([job], [res])
    assert fitness({"A": "R1"}, [job], [res]) == 2000.0 + weight
    assert decode_schedule({"A": "R1"}, [job], [res]).dummy_jobs == {"A"}


@st.composite
def placements(draw, semantics):
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
    budget = pair_charge(probe, resources[0], pes, semantics) * draw(factor)
    deadline = exec_time(probe, resources[0]) * draw(factor)
    return JobRequest("U", "J", budget, deadline, sizes, pes), resources


@pytest.mark.parametrize("semantics", list(BudgetSemantics))
@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data())
def test_fitness_decode_and_the_oracle_follow_the_whole_job_rule(semantics, data):
    """On a resource with room, a gene's fitness is its cost plus one
    penalty per breach, decoding parks it exactly when the placement is
    infeasible, and the whole-job oracle chooses among the feasible
    resources only."""
    job, resources = data.draw(placements(semantics))
    config = SchedulerConfig(budget_semantics=semantics)
    weight = default_penalty_weight([job], resources)
    for res in resources:
        genes = {job.job_id: res.resource_id}
        breaches = breach_count(job, res, config)
        feasible = placement_feasible(job, res, config)
        assert feasible is (breaches == 0)
        got = fitness(genes, [job], resources, config=config)
        assert got == placement_cost(job, res) + weight * breaches
        parked = decode_schedule(genes, [job], resources, config).dummy_jobs
        assert (job.job_id in parked) is not feasible
    options = [placement_cost(job, r) for r in resources if placement_feasible(job, r, config)]
    whole = brute_force_sgn([job], resources, config)
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
    remaining rows are drawn freely."""
    resources = [
        ResourceInfo(f"R{i + 1}", draw(st.integers(1, 8)), draw(st.floats(0.5, 9.0)),
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


@pytest.mark.parametrize("semantics", list(BudgetSemantics))
@settings(max_examples=200, derandomize=True, deadline=None)
@given(batch=scored_batches())
def test_batch_scores_equal_the_dict_walk_bit_for_bit(semantics, batch):
    jobs, pool, rows = batch
    config = SchedulerConfig(budget_semantics=semantics)
    tables = FitnessTables(jobs, pool, config)
    oracle = DictWalkFitness(jobs, pool, config)
    got = tables.score(np.array(rows)).tolist()
    assert got == [oracle(tables.gene_map(row)) for row in rows]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(batch=scored_batches())
def test_default_penalty_weight_is_the_max_over_every_pair(batch):
    jobs, pool, _ = batch
    real = [r for r in pool if not r.is_dummy]
    max_exec = max(exec_time(j, r) for j in jobs for r in real)
    max_rate = max(r.cost_per_pe_second for r in real)
    max_pes = max(j.pe_count for j in jobs)
    expected = 10.0 * max(max_rate, 1.0) * max(max_exec, 1.0) * max(max_pes, 1)
    assert default_penalty_weight(jobs, pool) == expected


# ------------------------------------------------------------- selection


def test_roulette_singleton_population_returns_it_twice():
    spin = roulette_wheel([5.0])
    rng = random.Random(0)
    assert (spin(rng), spin(rng)) == (0, 0)


def test_roulette_requires_a_nonempty_population():
    with pytest.raises(ValueError):
        roulette_wheel([])


def test_roulette_equal_fitness_degrades_to_uniform():
    spin = roulette_wheel([10.0, 10.0])
    rng = random.Random(42)
    draws = 20_000
    freq = sum(spin(rng) == 0 for _ in range(draws)) / draws
    assert abs(freq - 0.5) < 0.02


def test_roulette_weights_follow_fitness_gap():
    # weights (30-10)+1 : (30-30)+1, so the better one wins 21/22 of picks
    spin = roulette_wheel([10.0, 30.0], floor=1.0)
    rng = random.Random(7)
    draws = 200_000
    freq = sum(spin(rng) == 0 for _ in range(draws)) / draws
    assert abs(freq - 21 / 22) < 0.01


def test_roulette_pick_on_a_running_total_takes_that_member():
    # weights 4 : 2 : 2 of total 8; draws landing exactly on the running
    # totals 4 and 6 pick the member whose total they reach
    spin = roulette_wheel([0.0, 2.0, 2.0], floor=2.0)
    rng = _FixedDraws([0.0, 0.5, 0.75, 0.99])
    assert [spin(rng) for _ in range(4)] == [0, 0, 1, 2]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(fits=st.lists(st.floats(0.0, 1e7) | st.sampled_from([0.0, 5.0]), min_size=1,
                     max_size=12), seed=st.integers(0, 2**32))
def test_roulette_picks_the_first_member_whose_running_total_reaches_the_draw(fits, seed):
    f_max = max(fits)
    floor = 1e-6 * f_max if f_max > 0 else 1.0
    weights = [(f_max - f) + floor for f in fits]
    total = sum(weights)
    spin, rng, ref_rng = roulette_wheel(fits), random.Random(seed), random.Random(seed)
    for _ in range(20):
        pick = ref_rng.random() * total
        acc, expected = 0.0, len(fits) - 1
        for i, w in enumerate(weights):
            acc += w
            if pick <= acc:
                expected = i
                break
        assert spin(rng) == expected


# ------------------------------------------------------------- crossover


def test_crossover_cut_zero_swaps_parents_whole():
    c1, c2 = crossover([0, 0], [1, 1], _FixedCut(0))
    assert c1 == [1, 1]
    assert c2 == [0, 0]


def test_crossover_cut_one_splits_on_sorted_job_ids():
    c1, c2 = crossover([0, 0], [1, 1], _FixedCut(1))
    assert c1 == [0, 1]
    assert c2 == [1, 0]


def test_crossover_of_identical_parents_is_identity():
    a = [0, 1]
    for seed in range(5):
        c1, c2 = crossover(a, list(a), random.Random(seed))
        assert c1 == a
        assert c2 == a


def test_crossover_leaves_the_parents_untouched():
    a, b = [0, 0, 0], [1, 1, 1]
    for seed in range(5):
        c1, c2 = crossover(a, b, random.Random(seed))
        assert c1 is not a and c2 is not b
    assert (a, b) == ([0, 0, 0], [1, 1, 1])


# -------------------------------------------------------------- mutation


def test_mutate_rate_zero_is_identity():
    assert mutate([0, 1], random.Random(0), 0.0, 9) == [0, 1]


def test_mutate_rate_one_redraws_every_gene():
    assert mutate([3, 3], random.Random(0), 1.0, 1) == [0, 0]


def test_mutate_is_seed_deterministic():
    row = [0] * 12
    a = mutate(row, random.Random(9), 0.5, 4)
    b = mutate(row, random.Random(9), 0.5, 4)
    assert a == b


def test_mutate_does_not_touch_the_input():
    row = [0]
    mutate(row, random.Random(0), 1.0, 5)
    assert row == [0]


# ------------------------------------------------------ decode / encode


def test_decode_parks_infeasible_gene(s1_jobs, s1_resources):
    # B on R1 misses its deadline, so decoding defers it
    schedule = decode_schedule({"A": "R1", "B": "R1"}, s1_jobs, s1_resources)
    assert schedule.dummy_jobs == {"B"}
    assert schedule.assignments.pes("R1", "A") == 2
    assert schedule.total_cost_gd == 20.0


def test_decode_sheds_largest_job_first_on_overflow():
    jobs = [
        JobRequest("U", "J1", 1000.0, 50.0, (1000.0,) * 3, 3),
        JobRequest("U", "J2", 1000.0, 50.0, (1000.0,) * 2, 2),
    ]
    res = [ResourceInfo("R", 4, 1.0, 100.0)]
    schedule = decode_schedule({"J1": "R", "J2": "R"}, jobs, res)
    assert schedule.dummy_jobs == {"J1"}
    assert schedule.assignments.pes("R", "J2") == 2


def test_decode_output_is_always_sgn_feasible():
    for seed in range(80):
        jobs, resources = fuzz_instance(seed)
        pool, dummy_id = ensure_dummy(jobs, resources)
        rng = random.Random(seed)
        rids = sorted(r.resource_id for r in pool)
        genes = {j.job_id: rng.choice(rids) for j in jobs}
        schedule = decode_schedule(genes, jobs, resources)
        violations = validate(schedule.assignments, jobs, pool, JobKind.SGN)
        assert violations == [], f"instance seed {seed}: {violations}"


def test_chromosome_from_schedule_roundtrip(s1_jobs, s1_resources):
    schedule = decode_schedule({"A": "R1", "B": "R2"}, s1_jobs, s1_resources)
    chrom = chromosome_from_schedule(schedule, s1_jobs, s1_resources)
    assert chrom.genes == {"A": "R1", "B": "R2"}


def test_chromosome_from_schedule_rejects_split_jobs(s1_jobs, s1_resources):
    pool, _ = ensure_dummy(s1_jobs, s1_resources)
    alloc = AllocationMatrix({("R1", "A"): 1, ("R2", "A"): 1, ("R2", "B"): 3})
    schedule = build_schedule(alloc, s1_jobs, pool)
    with pytest.raises(ValueError, match="not placed whole"):
        chromosome_from_schedule(schedule, s1_jobs, s1_resources)


# ---------------------------------------------------------------- run_ga


def test_run_ga_rejects_oversized_seed_list(s1_jobs, s1_resources):
    seeds = [Chromosome({"A": "R1", "B": "R2"}) for _ in range(3)]
    with pytest.raises(ValueError):
        run_ga(seeds, s1_jobs, s1_resources, GaParams(population_size=2))


@pytest.mark.parametrize(
    "genes, named",
    [({"A": "R1"}, "job B"), ({"A": "R1", "B": "R7"}, "'R7'")],
    ids=["missing-job", "unknown-resource"],
)
def test_run_ga_rejects_a_seed_that_does_not_fit_the_batch(s1_jobs, s1_resources, genes, named):
    with pytest.raises(ValueError, match=named):
        run_ga([Chromosome(genes)], s1_jobs, s1_resources, GaParams(population_size=4))


def test_run_ga_empty_jobs_short_circuits(s1_resources):
    result = run_ga([], [], s1_resources)
    assert result.iterations_used == 0
    assert result.best_fitness_trace == (0.0,)
    assert result.converged


def test_run_ga_single_iteration_reports_initial_best(s1_jobs, s1_resources):
    params = GaParams(population_size=30, max_iterations=1, rng_seed=2)
    result = run_ga([], s1_jobs, s1_resources, params)
    assert result.iterations_used == 1
    assert len(result.best_fitness_trace) == 1
    assert not result.converged


def test_run_ga_seeded_with_optimum_stays_there(s1_jobs, s1_resources):
    params = GaParams(
        population_size=20, convergence_window=10, max_iterations=500, rng_seed=5
    )
    seed = Chromosome({"A": "R1", "B": "R2"})
    result = run_ga([seed], s1_jobs, s1_resources, params)
    assert result.seed_fitness == S1_OPTIMAL_COST
    assert result.best_fitness == S1_OPTIMAL_COST
    assert set(result.best_fitness_trace) == {S1_OPTIMAL_COST}
    assert result.converged
    assert result.iterations_used == params.convergence_window + 1


def test_run_ga_finds_s1_optimum_from_random_start(s1_jobs, s1_resources):
    params = GaParams(
        population_size=40, convergence_window=15, max_iterations=300, rng_seed=11
    )
    result = run_ga([], s1_jobs, s1_resources, params)
    assert result.best_fitness == S1_OPTIMAL_COST
    assert result.best.genes == {"A": "R1", "B": "R2"}


def test_run_ga_trace_never_worsens():
    for seed in range(25):
        jobs, resources = tiny_instance(seed)
        params = GaParams(
            population_size=12,
            convergence_window=8,
            max_iterations=40,
            rng_seed=seed,
        )
        result = run_ga([], jobs, resources, params)
        trace = result.best_fitness_trace
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
        assert len(trace) == result.iterations_used


def test_run_ga_is_deterministic(s1_jobs, s1_resources):
    params = GaParams(population_size=16, max_iterations=30, rng_seed=77)
    a = run_ga([], s1_jobs, s1_resources, params)
    b = run_ga([], s1_jobs, s1_resources, params)
    assert a == b


# ------------------------------------------------------ seeded pipelines


def test_lpga_s1(s1_jobs, s1_resources):
    params = GaParams(
        population_size=16, convergence_window=5, max_iterations=100, rng_seed=3
    )
    schedule, result = lpga(s1_jobs, s1_resources, params)
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
    schedule, result = hga(s1_jobs, s1_resources, params)
    assert schedule.total_cost_gd == S1_OPTIMAL_COST
    assert result.seed_fitness == S1_OPTIMAL_COST


def test_lpga_empty_jobs(s1_resources):
    schedule, result = lpga([], s1_resources)
    assert schedule.assignments.entries == {}
    assert result.iterations_used == 0


def test_hga_repeat_runs_match_exactly(s1_jobs, s1_resources):
    params = GaParams(population_size=12, max_iterations=25, rng_seed=9)
    s_a, r_a = hga(s1_jobs, s1_resources, params)
    s_b, r_b = hga(s1_jobs, s1_resources, params)
    assert r_a == r_b
    assert s_a.assignments.entries == s_b.assignments.entries


def test_refinement_never_loses_to_its_seed():
    params = GaParams(
        population_size=14, convergence_window=6, max_iterations=60, rng_seed=1
    )
    for seed in range(15):
        jobs, resources = fuzz_instance(seed)
        for pipeline in (lpga, hga):
            _, result = pipeline(jobs, resources, params)
            assert result.best_fitness <= result.seed_fitness + 1e-9
