"""Golden end-to-end runs: ``run_scenario`` for every scheduler on a small
generated grid, pinned to the exact metrics it produced.

The corpus is 25 resources x 30 jobs, tight and medium deadlines, scenario
seeds 0 and 1, at the benchmark's GA settings.  It parks jobs, rolls them
over for several periods and has GA runs that improve their seed, so a
change anywhere in the pipeline (the relaxation, its consolidation, the
greedy baseline, the GA or the simulator's period loop) that moves an
answer shows up here as a different cost, count or rollover trace.
"""

from __future__ import annotations

import pytest
from metagrid.ga import GaParams
from metagrid.simulator import run_scenario
from metagrid.workload import DeadlineMode, ScenarioConfig

PARAMS = GaParams(population_size=30, convergence_window=25, max_iterations=300)

# (deadline mode, scenario seed, scheduler) -> (repr of total cost, jobs
# completed, tasks completed, GA iterations, periods, rollovers per period)
GOLDEN = {
    ("tight", 0, "greedy"): (
        "150837.6943735207", 19, 92, 0, 11, (0, 11, 11, 11, 11, 11, 11, 11, 11, 5, 0),
    ),
    ("tight", 0, "hga"): (
        "150837.6943735207", 19, 92, 234, 11, (0, 11, 11, 11, 11, 11, 11, 11, 11, 5, 0),
    ),
    ("tight", 0, "lpga"): (
        "139160.38595481566", 18, 86, 243, 11, (0, 12, 12, 12, 12, 12, 12, 12, 12, 4, 0),
    ),
    ("tight", 0, "mmc"): (
        "140422.18264117473", 18, 86, 0, 11, (0, 12, 12, 12, 12, 12, 12, 12, 12, 4, 0),
    ),
    ("tight", 0, "relaxed-mgn"): (
        "186268.48404157336", 23, 113, 0, 10, (0, 7, 7, 7, 7, 7, 7, 7, 7, 0),
    ),
    ("tight", 1, "greedy"): (
        "121380.57483907614", 15, 74, 0, 12, (0, 15, 15, 15, 15, 15, 15, 15, 15, 11, 1, 0),
    ),
    ("tight", 1, "hga"): (
        "121380.57483907614", 15, 74, 260, 12, (0, 15, 15, 15, 15, 15, 15, 15, 15, 11, 1, 0),
    ),
    ("tight", 1, "lpga"): (
        "128455.7891468781", 15, 75, 260, 12, (0, 15, 15, 15, 15, 15, 15, 15, 15, 5, 1, 0),
    ),
    ("tight", 1, "mmc"): (
        "128455.7891468781", 15, 75, 0, 12, (0, 15, 15, 15, 15, 15, 15, 15, 15, 5, 1, 0),
    ),
    ("tight", 1, "relaxed-mgn"): (
        "165436.40512368554", 19, 96, 0, 10, (0, 11, 11, 11, 11, 11, 11, 11, 11, 0),
    ),
    ("medium", 0, "greedy"): (
        "255894.8057134715", 29, 142, 0, 14, (0, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 0),
    ),
    ("medium", 0, "hga"): (
        "255894.8057134715", 29, 142, 312, 14, (0, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 0),
    ),
    ("medium", 0, "lpga"): (
        "252100.52859320553", 29, 142, 340, 14, (0, 3, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 0),
    ),
    ("medium", 0, "mmc"): (
        "243510.7521899885", 28, 137, 0, 14, (0, 3, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 0),
    ),
    ("medium", 0, "relaxed-mgn"): (
        "248479.2142787851", 30, 147, 0, 2, (0, 0),
    ),
    ("medium", 1, "greedy"): (
        "302040.9795882827", 30, 153, 0, 2, (0, 0),
    ),
    ("medium", 1, "hga"): (
        "299281.1892350533", 30, 153, 39, 2, (0, 0),
    ),
    ("medium", 1, "lpga"): (
        "290846.60259947553", 30, 153, 26, 2, (0, 0),
    ),
    ("medium", 1, "mmc"): (
        "290846.60259947553", 30, 153, 0, 2, (0, 0),
    ),
    ("medium", 1, "relaxed-mgn"): (
        "272177.14212550153", 30, 153, 0, 2, (0, 0),
    ),
}


@pytest.mark.parametrize("mode, seed, scheduler", sorted(GOLDEN))
def test_scenario_matches_golden(mode, seed, scheduler):
    config = ScenarioConfig(
        resource_count=25, job_count=30, deadline_mode=DeadlineMode(mode), rng_seed=seed
    )
    m = run_scenario(config, scheduler, ga_params=PARAMS)
    got = (
        repr(m.total_cost_gd), m.jobs_completed, m.tasks_completed, m.ga_iterations,
        m.periods, m.rollovers_per_period,
    )
    assert got == GOLDEN[(mode, seed, scheduler)]
