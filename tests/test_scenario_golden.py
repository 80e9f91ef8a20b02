"""Golden end-to-end runs: ``run_scenario`` for every scheduler on a small
generated grid, pinned to the exact metrics it produced.

The corpus is 25 resources x 30 jobs, tight and medium deadlines, scenario
seeds 0 and 1, at the benchmark's GA settings.  It parks jobs, rolls them
over for several periods and has GA runs that improve their seed, so a
change anywhere in the pipeline (the relaxation, its consolidation, the
greedy baseline, the GA or the simulator's period loop) that moves an
answer shows up here as a different cost, count or rollover trace.  The
event stream of each run is pinned too, so a reordered or re-split
``schedule`` event shows up even where the metrics hold.  Every run is also
made under CPython 3.12's compensated ``sum()`` (``conftest.sum_312``).
"""

from __future__ import annotations

import hashlib
import io

import pytest
from conftest import under_both_sum_rules
from metagrid.ga import GaParams
from metagrid.simulator import jsonl_sink, run_scenario
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

# (deadline mode, scenario seed, scheduler) -> sha256 of the run's
# ``jsonl_sink`` output: every release, miss, schedule and completion,
# in the order emitted
EVENTS_SHA256 = {
    ("medium", 0, "greedy"): (
        "6da3018f0b870461248c1614723a8f8eafbc26bff362499b37cdc145ac5bc169"
    ),
    ("medium", 0, "hga"): (
        "6da3018f0b870461248c1614723a8f8eafbc26bff362499b37cdc145ac5bc169"
    ),
    ("medium", 0, "lpga"): (
        "eb363aad0acba5a0632d0e2f7b1ed86440df0a4d31e2ae9b32d2701608f6326b"
    ),
    ("medium", 0, "mmc"): (
        "d5f81ebf7ec7d47df4acbf62776766b9988df917c21f07e79f7fb574946431cc"
    ),
    ("medium", 0, "relaxed-mgn"): (
        "20fc402f63d64073cac088323756fd98bcdbe538df1596025f790dbb9ff486f3"
    ),
    ("medium", 1, "greedy"): (
        "9fd94ff1a6e87dd7422ed5fc132637ae02c48470d319e24cc2a3a1519232ccc4"
    ),
    ("medium", 1, "hga"): (
        "4e271901076e10aa9c6dccf09af47a20c14ea2f2e89739f591d491347916eb9b"
    ),
    ("medium", 1, "lpga"): (
        "a437125098d06b5719015142770efe86024c8bf42c8f1ef9ed100f63b9f15bdc"
    ),
    ("medium", 1, "mmc"): (
        "a437125098d06b5719015142770efe86024c8bf42c8f1ef9ed100f63b9f15bdc"
    ),
    ("medium", 1, "relaxed-mgn"): (
        "0f6854ec18cae0a89a0e482e567e2af7ba7f52e2eddc43e2be3286b4eea0d8c8"
    ),
    ("tight", 0, "greedy"): (
        "736ccc299d9f37e50db1e3b56cea3c2a284cb1871f29f801836955b9c241b99b"
    ),
    ("tight", 0, "hga"): (
        "736ccc299d9f37e50db1e3b56cea3c2a284cb1871f29f801836955b9c241b99b"
    ),
    ("tight", 0, "lpga"): (
        "223a768b4c4004a4ee99621bff14ccc4afac87c5eae23fe0b6094fef5bd6b996"
    ),
    ("tight", 0, "mmc"): (
        "ed71b87cb9ce1c9120bf8a2a290408a7344f073a09b9fc72a46f8733a713c467"
    ),
    ("tight", 0, "relaxed-mgn"): (
        "2f2138d8c37fc33892251bc691e020a4fadfb3e5118336b19b161d4fe248771e"
    ),
    ("tight", 1, "greedy"): (
        "508ac982e28ff269ef3c1cda564bce5d50cf9c76e8884eebbf03dc83ae7574bc"
    ),
    ("tight", 1, "hga"): (
        "508ac982e28ff269ef3c1cda564bce5d50cf9c76e8884eebbf03dc83ae7574bc"
    ),
    ("tight", 1, "lpga"): (
        "04e4f064bec8f477a1b8719995b05a4f0dd2a7c9c346c6843ab1290cefea08b9"
    ),
    ("tight", 1, "mmc"): (
        "04e4f064bec8f477a1b8719995b05a4f0dd2a7c9c346c6843ab1290cefea08b9"
    ),
    ("tight", 1, "relaxed-mgn"): (
        "c8ed305ea4dca117665f61b5f855ccceb8761217f765a2efd1f9e1273e738000"
    ),
}


@pytest.mark.parametrize(
    "case, sum_rule",
    under_both_sum_rules(sorted(GOLDEN), ids=lambda case: "-".join(map(str, case))),
    indirect=["sum_rule"],
)
def test_scenario_matches_golden(case, sum_rule):
    mode, seed, scheduler = case
    config = ScenarioConfig(
        resource_count=25, job_count=30, deadline_mode=DeadlineMode(mode), rng_seed=seed
    )
    events = io.StringIO()
    m = run_scenario(config, scheduler, ga_params=PARAMS, event_sink=jsonl_sink(events))
    got = (
        repr(m.total_cost_gd), m.jobs_completed, m.tasks_completed, m.ga_iterations,
        m.periods, m.rollovers_per_period,
    )
    assert got == GOLDEN[case]
    assert hashlib.sha256(events.getvalue().encode()).hexdigest() == EVENTS_SHA256[case]
