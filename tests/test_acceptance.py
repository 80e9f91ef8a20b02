"""Acceptance gates for the whole workbench, one test per gate.

Each test prints exactly one scorecard line::

    ACCEPTANCE <n> (<name>): PASS|FAIL — <detail>

before asserting, so a red gate still reports its measurement.  Run with
``-s`` to see the lines for passing gates too.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import replace

import pytest
from conftest import fuzz_instance, tiny_instance
from metagrid.ga import GaParams, hga, lpga
from metagrid.greedy import greedy_schedule
from metagrid.mmc import MmcStats, modified_min_cost
from metagrid.model import (
    AllocationMatrix,
    JobKind,
    JobRequest,
    ResourceInfo,
    ensure_dummy,
    pair_table,
    validate,
)
from metagrid.relaxed import build_relaxed, solve_relaxed
from metagrid.simulator import run_scenario
from metagrid.workload import ScenarioConfig, generate_grid, generate_jobs
from oracles import (
    allocation,
    brute_force_relaxed,
    brute_force_sgn,
    parking_id,
    pe_array,
    relaxed_objective,
    schedule_cost,
)

SWEEP_COUNTS = (25, 50, 100, 150, 200)
SWEEP_SEEDS = tuple(range(10))
CORPUS_GA = GaParams(population_size=30, convergence_window=25, max_iterations=300)
FUZZ_GA = GaParams(population_size=10, convergence_window=6, max_iterations=25)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} ({name}): {verdict} — {detail}", flush=True)


def _solve_batch(jobs, resources):
    model = build_relaxed(pair_table(jobs, resources))
    return model, allocation(solve_relaxed(model), model.table)


@pytest.fixture(scope="module")
def sweep_corpus():
    """Direct-batch runs of all four schedulers on the full-size sweep:
    50 jobs, 25-200 resources, ten workload seeds per size."""
    cells = {}
    for count in SWEEP_COUNTS:
        for seed in SWEEP_SEEDS:
            cfg = ScenarioConfig(resource_count=count, job_count=50, rng_seed=seed)
            grid, jobs = generate_grid(cfg), generate_jobs(cfg)
            params = replace(CORPUS_GA, rng_seed=97 * count + seed)
            table = pair_table(jobs, grid)
            greedy_s = greedy_schedule(table)
            mmc_s = modified_min_cost(table, solve_relaxed(build_relaxed(table)))
            lp_s, lp_r = lpga(table, params)
            hg_s, hg_r = hga(table, params)
            cells[(count, seed)] = {
                "greedy_cost": greedy_s.total_cost_gd,
                "mmc_cost": mmc_s.total_cost_gd,
                "lpga_cost": lp_s.total_cost_gd,
                "hga_cost": hg_s.total_cost_gd,
                "lpga_fit": lp_r.best_fitness,
                "hga_fit": hg_r.best_fitness,
                "lpga_seed_fit": lp_r.seed_fitness,
                "hga_seed_fit": hg_r.seed_fitness,
                "lpga_iters": lp_r.iterations_used,
                "hga_iters": hg_r.iterations_used,
            }
    return cells


def test_acceptance_1_oracle_equivalence():
    """The relaxation matches brute force, and on every instance where all
    three schedules place everything the guaranteed chain holds:
    relaxation <= whole-job optimum <= consolidation, optimum <= greedy.

    Consolidation is a heuristic, not per-instance dominant over greedy
    (frozen single-provider jobs never give back a PE, and it never swaps
    two jobs), so the MMC-vs-greedy link is asserted in the form MMC
    promises: summed over the compared instances.
    """
    t0 = time.monotonic()
    problems: list[str] = []
    matched = 0
    chain = 0
    mmc_total = greedy_total = 0.0
    mmc_better = mmc_worse = 0
    for seed in range(200):
        jobs, resources = tiny_instance(seed)
        model, alloc = _solve_batch(jobs, resources)
        exact = brute_force_relaxed(model)
        got = relaxed_objective(model, alloc)
        want = relaxed_objective(model, exact)
        if abs(got - want) > 1e-9:
            problems.append(f"seed {seed}: solver {got!r} != exhaustive {want!r}")
        else:
            matched += 1

        whole_opt = brute_force_sgn(jobs, resources)
        if whole_opt is None:
            continue
        mmc_s = modified_min_cost(model.table, pe_array(alloc, model.table))
        greedy_s = greedy_schedule(pair_table(jobs, resources))
        if mmc_s.dummy_jobs or greedy_s.dummy_jobs:
            continue
        if any(rid == parking_id(model.table) for rid, _ in alloc.entries):
            continue
        lower = relaxed_objective(model, alloc)
        opt_cost = schedule_cost(whole_opt, jobs, resources)
        if lower > opt_cost + 1e-9:
            problems.append(f"seed {seed}: relaxation {lower} above optimum {opt_cost}")
        if opt_cost > mmc_s.total_cost_gd + 1e-9:
            problems.append(
                f"seed {seed}: optimum {opt_cost} above consolidation {mmc_s.total_cost_gd}"
            )
        if opt_cost > greedy_s.total_cost_gd + 1e-9:
            problems.append(
                f"seed {seed}: optimum {opt_cost} above greedy {greedy_s.total_cost_gd}"
            )
        mmc_total += mmc_s.total_cost_gd
        greedy_total += greedy_s.total_cost_gd
        mmc_better += mmc_s.total_cost_gd < greedy_s.total_cost_gd - 1e-9
        mmc_worse += mmc_s.total_cost_gd > greedy_s.total_cost_gd + 1e-9
        chain += 1
    if mmc_total > greedy_total + 1e-9:
        problems.append(
            f"summed consolidation {mmc_total} above summed greedy {greedy_total}"
        )
    elapsed = time.monotonic() - t0
    ok = not problems and matched == 200 and chain >= 30 and elapsed < 60.0
    _report(
        1,
        "oracle equivalence",
        ok,
        f"objective matched exhaustive search on {matched}/200 instances; "
        f"bound chain compared on {chain}, {len(problems)} violation(s)"
        f"{': ' + '; '.join(problems[:3]) if problems else ''}; "
        f"summed consolidation {mmc_total:.1f} vs greedy {greedy_total:.1f}, "
        f"consolidation cheaper on {mmc_better} and dearer on {mmc_worse}; "
        f"{elapsed:.1f}s",
    )
    assert matched == 200
    assert chain >= 30
    assert not problems, problems[:5]
    assert elapsed < 60.0


def test_acceptance_2_feasibility_fuzz():
    t0 = time.monotonic()
    problems: list[str] = []
    per_scheduler = dict.fromkeys(
        ("greedy", "mmc", "relaxed-mgn", "lpga", "hga"), 0
    )
    for seed in range(1000):
        jobs, resources = fuzz_instance(seed)
        pool, _ = ensure_dummy(jobs, resources)
        params = replace(FUZZ_GA, rng_seed=seed)
        model, alloc = _solve_batch(jobs, resources)
        outputs = {
            "greedy": (greedy_schedule(pair_table(jobs, resources)).assignments, JobKind.SGN),
            "mmc": (modified_min_cost(model.table, pe_array(alloc, model.table)).assignments,
                    JobKind.SGN),
            "relaxed-mgn": (alloc, JobKind.MGN),
            "lpga": (lpga(model.table, params)[0].assignments, JobKind.SGN),
            "hga": (hga(model.table, params)[0].assignments, JobKind.SGN),
        }
        for name, (assignments, mode) in outputs.items():
            violations = validate(assignments, jobs, pool, mode)
            if violations:
                problems.append(f"{name} seed {seed}: {violations[:2]}")
            else:
                per_scheduler[name] += 1

    sim_runs = 0
    for seed in range(4):
        for mode in ("tight", "medium"):
            cfg = ScenarioConfig(
                resource_count=5, job_count=10, rng_seed=seed, deadline_mode=mode
            )
            for scheduler in sorted(per_scheduler):
                try:
                    m = run_scenario(cfg, scheduler, ga_params=FUZZ_GA)
                except AssertionError as exc:  # an internal invariant fired
                    problems.append(f"simulator {scheduler}/{mode}/{seed}: {exc}")
                    continue
                if m.jobs_completed + m.jobs_missed != m.jobs_submitted:
                    problems.append(f"job leak {scheduler}/{mode}/{seed}")
                if m.tasks_completed + m.tasks_missed != m.tasks_submitted:
                    problems.append(f"task leak {scheduler}/{mode}/{seed}")
                sim_runs += 1
    elapsed = time.monotonic() - t0
    clean = min(per_scheduler.values())
    ok = not problems and clean == 1000 and elapsed < 300.0
    _report(
        2,
        "feasibility fuzz",
        ok,
        f"5x1000 batch schedules valid ({clean}/1000 per scheduler); "
        f"{sim_runs} simulator runs conserved jobs and tasks; "
        f"{len(problems)} problem(s); {elapsed:.1f}s",
    )
    assert not problems, problems[:5]
    assert elapsed < 300.0


def test_acceptance_3_seeding_dominance(sweep_corpus):
    bad_lp = [
        key for key, c in sweep_corpus.items()
        if c["lpga_fit"] > c["lpga_seed_fit"] + 1e-9
    ]
    bad_hg = [
        key for key, c in sweep_corpus.items()
        if c["hga_fit"] > c["hga_seed_fit"] + 1e-9
    ]
    n = len(sweep_corpus)
    ok = not bad_lp and not bad_hg
    _report(
        3,
        "seeding dominance",
        ok,
        f"relaxation-seeded GA ended at or below its seed on {n - len(bad_lp)}/{n} "
        f"runs, greedy-seeded on {n - len(bad_hg)}/{n}",
    )
    assert not bad_lp, bad_lp[:5]
    assert not bad_hg, bad_hg[:5]


def test_acceptance_4_deadline_mode_trend():
    t0 = time.monotonic()
    cost: dict[tuple, float] = {}
    done: dict[tuple, int] = {}
    for count in SWEEP_COUNTS:
        for mode in ("tight", "medium", "relaxed"):
            for seed in SWEEP_SEEDS:
                cfg = ScenarioConfig(
                    resource_count=count,
                    deadline_mode=mode,
                    job_count=50,
                    rng_seed=seed,
                )
                m = run_scenario(cfg, "relaxed-mgn")
                cost[(count, mode, seed)] = m.total_cost_gd
                done[(count, mode, seed)] = m.jobs_completed
    elapsed = time.monotonic() - t0

    cost_tally = {
        count: sum(
            cost[(count, "relaxed", s)] < cost[(count, "medium", s)]
            for s in SWEEP_SEEDS
        )
        for count in SWEEP_COUNTS
    }
    done_tally = {
        count: sum(
            done[(count, "tight", s)] < done[(count, "relaxed", s)]
            for s in SWEEP_SEEDS
        )
        for count in SWEEP_COUNTS
    }
    cost_ok = all(t >= 8 for t in cost_tally.values())
    done_ok = all(t >= 8 for t in done_tally.values())
    fmt = lambda tally: " ".join(f"{c}:{t}/10" for c, t in sorted(tally.items()))
    _report(
        4,
        "deadline-mode trend",
        cost_ok and done_ok and elapsed < 600.0,
        f"cost(relaxed)<cost(medium) per size [{fmt(cost_tally)}]; "
        f"completions tight<relaxed per size [{fmt(done_tally)}]; {elapsed:.1f}s",
    )
    assert elapsed < 600.0
    assert done_ok, done_tally
    assert cost_ok, cost_tally


def test_acceptance_5_consolidation_vs_greedy(sweep_corpus):
    means = {}
    for count in SWEEP_COUNTS:
        mmc_mean = statistics.fmean(
            sweep_corpus[(count, s)]["mmc_cost"] for s in SWEEP_SEEDS
        )
        greedy_mean = statistics.fmean(
            sweep_corpus[(count, s)]["greedy_cost"] for s in SWEEP_SEEDS
        )
        means[count] = (mmc_mean, greedy_mean)
    bad = [c for c, (m, g) in means.items() if m > g + 1e-9]
    savings = {
        c: 100.0 * (g - m) / g if g > 0 else 0.0 for c, (m, g) in means.items()
    }
    detail = " ".join(f"{c}:{savings[c]:.1f}%" for c in SWEEP_COUNTS)
    _report(
        5,
        "consolidation vs greedy",
        not bad,
        f"mean consolidated cost ≤ mean greedy cost at every size; "
        f"savings by size [{detail}]",
    )
    assert not bad, {c: means[c] for c in bad}


def test_acceptance_6_seeded_ga_cost(sweep_corpus):
    tally = {
        count: sum(
            sweep_corpus[(count, s)]["lpga_cost"]
            <= sweep_corpus[(count, s)]["hga_cost"] + 1e-9
            for s in SWEEP_SEEDS
        )
        for count in SWEEP_COUNTS
    }
    mean_gap = {}
    for count in SWEEP_COUNTS:
        lp = statistics.fmean(sweep_corpus[(count, s)]["lpga_cost"] for s in SWEEP_SEEDS)
        hg = statistics.fmean(sweep_corpus[(count, s)]["hga_cost"] for s in SWEEP_SEEDS)
        mean_gap[count] = 100.0 * (hg - lp) / hg if hg > 0 else 0.0
    means_ok = all(gap >= -1e-9 for gap in mean_gap.values())
    tally_ok = all(t >= 8 for t in tally.values())
    fmt = lambda t: " ".join(f"{c}:{v}/10" for c, v in sorted(t.items()))
    gaps = " ".join(f"{c}:{mean_gap[c]:+.1f}%" for c in SWEEP_COUNTS)
    _report(
        6,
        "seeded-GA cost",
        means_ok and tally_ok,
        f"relaxation-seeded mean cost below greedy-seeded by [{gaps}]; "
        f"per-seed wins [{fmt(tally)}] against the 8/10 floor",
    )
    assert means_ok, mean_gap
    assert tally_ok, tally


def test_acceptance_7_iteration_reduction(sweep_corpus):
    lp_iters = [c["lpga_iters"] for c in sweep_corpus.values()]
    hg_iters = [c["hga_iters"] for c in sweep_corpus.values()]
    med_lp = statistics.median(lp_iters)
    med_hg = statistics.median(hg_iters)
    reduction = 100.0 * (med_hg - med_lp) / med_hg if med_hg else 0.0
    ok = med_lp < med_hg
    _report(
        7,
        "iteration reduction",
        ok,
        f"median iterations {med_lp} (relaxation-seeded) vs {med_hg} "
        f"(greedy-seeded): {reduction:.1f}% reduction, reported against the "
        f"7-25% reference band without hard assertion",
    )
    assert ok, (med_lp, med_hg)


def test_acceptance_8_consolidation_work_bound():
    sizes_m = (8, 16, 32)
    sizes_n = (4, 8, 16, 32)
    steps: dict[tuple[int, int], int] = {}
    for m in sizes_m:
        for n in sizes_n:
            # every job's relaxed mapping spreads one PE on every resource,
            # so the first consolidation displaces the whole field
            jobs = [
                JobRequest("U", f"J{k:02d}", 1e9, 1e6, (100.0,) * n, n)
                for k in range(m)
            ]
            resources = [
                ResourceInfo(f"R{i:02d}", n, 1.0 + 0.01 * i, 100.0)
                for i in range(n)
            ]
            alloc = AllocationMatrix(
                {(f"R{i:02d}", f"J{k:02d}"): 1 for k in range(m) for i in range(n)}
            )
            stats = MmcStats()
            model = build_relaxed(pair_table(jobs, resources))
            modified_min_cost(model.table, pe_array(alloc, model.table), stats=stats)
            assert stats.steps > 0
            steps[(m, n)] = stats.steps

    bound_const = max(s / (m * n * n) for (m, n), s in steps.items())
    slopes = {}
    for m in sizes_m:
        logx = [math.log(n) for n in sizes_n]
        logy = [math.log(steps[(m, n)]) for n in sizes_n]
        slope, _ = statistics.linear_regression(logx, logy)
        slopes[m] = slope
    worst_slope = max(slopes.values())
    ok = worst_slope < 2.2 and bound_const < 10.0
    _report(
        8,
        "consolidation work bound",
        ok,
        f"steps ≤ {bound_const:.2f}·(jobs·resources²) over the grid; "
        f"growth exponent in resource count ≤ {worst_slope:.2f} (quadratic "
        f"budget allows 2)",
    )
    assert worst_slope < 2.2, slopes
    assert bound_const < 10.0
