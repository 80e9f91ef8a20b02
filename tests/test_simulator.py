"""Periodic simulator: placement honesty, rollover, expiry, conservation."""

from __future__ import annotations

import io
import json
import random
import sys
from collections import Counter
from dataclasses import replace

import pytest
from conftest import assert_same_record, fuzz_instance, same_schedule, tiny_instance
from metagrid import ga, model, relaxed, simulator
from metagrid.ga import GaParams
from metagrid.greedy import greedy_schedule
from metagrid.mmc import modified_min_cost
from metagrid.model import (
    DUMMY_ID, AllocationMatrix, JobKind, JobRequest, ResourceInfo, Schedule, budget_limit,
    build_schedule, ensure_dummy, meets_deadline, pair_charge, pair_table, validate, whole_jobs,
)
from metagrid.relaxed import build_relaxed, solve_relaxed
from metagrid.simulator import (
    GA_PERIOD_SEED_STRIDE,
    SCHEDULERS,
    ScenarioMetrics,
    SimEvent,
    UnknownSchedulerError,
    jsonl_sink,
    list_schedulers,
    run_scenario,
)
from metagrid.workload import ScenarioConfig, generate_grid, generate_jobs

SMALL_GA = GaParams(population_size=10, convergence_window=5, max_iterations=40)

ALL_SCHEDULERS = ("greedy", "mmc", "relaxed-mgn", "lpga", "hga")


def test_list_schedulers():
    assert list_schedulers() == sorted(ALL_SCHEDULERS)


def test_unknown_scheduler_is_rejected():
    cfg = ScenarioConfig(resource_count=1, job_count=1)
    with pytest.raises(UnknownSchedulerError):
        run_scenario(cfg, "annealing")


# ------------------------------------------------------------ pinned job


def _run_pinned(scheduler: str, **kwargs) -> ScenarioMetrics:
    """One 12-PE machine at 4.5 G$/PE-s and 500 MIPS, and one 5-task job of
    400 s on it, submitted at 10 s: the job costs exactly 4.5 x 5 x 400 = 9000."""
    grid = [ResourceInfo("R0001", 12, 4.5, 500.0)]
    jobs = [JobRequest("U0001", "J0001", 18000.0, 650.0, (400.0 * 500.0,) * 5, 5, 10.0)]
    return run_scenario(
        ScenarioConfig(resource_count=1, job_count=1), scheduler, grid=grid, jobs=jobs,
        **kwargs,
    )


def test_pinned_job_completes_identically_under_every_scheduler():
    for scheduler in ALL_SCHEDULERS:
        metrics = _run_pinned(scheduler, ga_params=SMALL_GA)
        assert metrics.scheduler == scheduler
        assert metrics.jobs_submitted == 1
        assert metrics.jobs_completed == 1
        assert metrics.jobs_missed == 0
        assert metrics.tasks_completed == 5
        assert metrics.total_cost_gd == 9000.0
        assert metrics.periods == len(metrics.rollovers_per_period)
        assert metrics.wall_time_s >= 0.0


# ------------------------------------------------------ fixture replay


def test_replayed_batch_schedules_at_time_zero(s1_jobs, s1_resources):
    events: list[SimEvent] = []
    metrics = run_scenario(
        ScenarioConfig(resource_count=1),
        "lpga",
        ga_params=SMALL_GA,
        event_sink=events.append,
        grid=s1_resources,
        jobs=s1_jobs,
    )
    assert metrics.jobs_completed == 2
    assert metrics.total_cost_gd == 110.0
    assert metrics.periods == 1
    assert metrics.rollovers_per_period == (0,)
    assert metrics.ga_iterations >= 1
    scheduled = {e.job_id: e.resource_id for e in events if e.kind == "schedule"}
    assert scheduled == {"A": "R1", "B": "R2"}
    completes = {e.job_id: e.time_ms for e in events if e.kind == "complete"}
    assert completes == {"A": 10_000, "B": 10_000}


def _rollover_fixture(j2_deadline_s: float):
    grid = [ResourceInfo("R", 4, 1.0, 100.0)]
    jobs = [
        JobRequest("U", "J1", 100.0, 20.0, (1000.0,) * 4, 4),
        JobRequest("U", "J2", 100.0, j2_deadline_s, (1000.0,) * 4, 4),
    ]
    return grid, jobs


def test_parked_job_rolls_over_and_runs_next_period():
    grid, jobs = _rollover_fixture(j2_deadline_s=70.0)
    events: list[SimEvent] = []
    metrics = run_scenario(
        ScenarioConfig(resource_count=1, interval_s=50.0),
        "greedy",
        event_sink=events.append,
        grid=grid,
        jobs=jobs,
    )
    # J1 fills the machine at t=0; J2 waits one period and runs at t=50s
    assert metrics.rollovers_per_period == (1, 0)
    assert metrics.jobs_completed == 2
    assert metrics.jobs_missed == 0
    assert metrics.total_cost_gd == 80.0
    schedules = [(e.time_ms, e.job_id) for e in events if e.kind == "schedule"]
    assert schedules == [(0, "J1"), (50_000, "J2")]
    completes = {e.job_id: e.time_ms for e in events if e.kind == "complete"}
    assert completes == {"J1": 10_000, "J2": 60_000}


def test_queued_job_whose_deadline_erodes_away_is_missed():
    grid, jobs = _rollover_fixture(j2_deadline_s=30.0)
    events: list[SimEvent] = []
    metrics = run_scenario(
        ScenarioConfig(resource_count=1, interval_s=50.0),
        "greedy",
        event_sink=events.append,
        grid=grid,
        jobs=jobs,
    )
    assert metrics.jobs_completed == 1
    assert metrics.jobs_missed == 1
    assert metrics.tasks_missed == 4
    assert metrics.total_cost_gd == 40.0
    misses = [(e.time_ms, e.job_id) for e in events if e.kind == "miss"]
    assert misses == [(50_000, "J2")]


def test_submit_times_delay_release():
    grid = [ResourceInfo("R", 4, 1.0, 100.0)]
    jobs = [
        JobRequest("U", "J1", 100.0, 200.0, (1000.0,), 1, submit_time_s=0.0),
        JobRequest("U", "J2", 100.0, 200.0, (1000.0,), 1, submit_time_s=60.0),
    ]
    events: list[SimEvent] = []
    metrics = run_scenario(
        ScenarioConfig(resource_count=1, interval_s=50.0),
        "greedy",
        event_sink=events.append,
        grid=grid,
        jobs=jobs,
    )
    schedules = [(e.time_ms, e.job_id) for e in events if e.kind == "schedule"]
    assert schedules == [(0, "J1"), (100_000, "J2")]
    assert metrics.jobs_completed == 2


# ----------------------------------------------------------- invariants


def test_conservation_across_schedulers_and_modes():
    for seed in range(4):
        for mode in ("tight", "medium"):
            cfg = ScenarioConfig(
                resource_count=4, job_count=8, rng_seed=seed, deadline_mode=mode
            )
            for scheduler in ALL_SCHEDULERS:
                m = run_scenario(cfg, scheduler, ga_params=SMALL_GA)
                assert m.jobs_completed + m.jobs_missed == m.jobs_submitted
                assert m.tasks_completed + m.tasks_missed == m.tasks_submitted
                assert len(m.rollovers_per_period) == m.periods
                assert m.total_cost_gd >= 0.0


def test_rerun_is_deterministic_up_to_wall_time():
    cfg = ScenarioConfig(resource_count=5, job_count=10, rng_seed=21)
    a = run_scenario(cfg, "hga", ga_params=SMALL_GA)
    b = run_scenario(cfg, "hga", ga_params=SMALL_GA)
    assert replace(a, wall_time_s=0.0) == replace(b, wall_time_s=0.0)


@pytest.mark.parametrize("scheduler", ALL_SCHEDULERS)
def test_each_adapter_builds_one_pair_table_per_call(monkeypatch, scheduler):
    """The adapter builds the batch's one ``PairTable`` and every stage of
    its scheduler reads it: outside ``model`` only the simulator holds
    ``pair_table``, and each adapter call makes exactly one."""
    holders = {
        name for name, module in sys.modules.items()
        if name.startswith("metagrid.") and getattr(module, "pair_table", None) is model.pair_table
    }
    assert holders == {"metagrid.model", "metagrid.simulator"}
    assert not hasattr(ga, "pair_table") and not hasattr(relaxed, "pair_table")
    calls = []

    def counted(*args):
        calls.append(args)
        return model.pair_table(*args)

    monkeypatch.setattr(simulator, "pair_table", counted)
    for seed in range(5):
        for jobs, resources in (tiny_instance(seed), fuzz_instance(seed)):
            calls.clear()
            SCHEDULERS[scheduler](jobs, resources, SMALL_GA, seed)
            assert len(calls) == 1, f"seed {seed}"


def test_every_adapter_answers_an_empty_batch_alike():
    """An empty batch's table has its dummy column, and every adapter
    answers the batch with no entry, no parked job, zero cost and no GA
    iteration: one schedule, whatever the scheduler."""
    grid = generate_grid(ScenarioConfig(resource_count=5))
    table = pair_table([], grid)
    assert table.resources[table.parking].is_dummy
    assert table.resources[table.parking].resource_id == DUMMY_ID
    answers = {name: adapter([], grid, GaParams(), 0) for name, adapter in SCHEDULERS.items()}
    for name, (schedule, iterations) in answers.items():
        assert isinstance(schedule, Schedule), name
        assert schedule.assignments.entries == {} and schedule.dummy_jobs == frozenset(), name
        assert schedule.total_cost_gd == 0 and iterations == 0, name
    assert len({repr(schedule) for schedule, _ in answers.values()}) == 1, answers


# ----------------------------------------------------- presented batches

# 4 resources x 30 medium jobs: 15 periods and 290 rollovers under greedy.
BACKLOG = ScenarioConfig(resource_count=4, job_count=30, rng_seed=1)


@pytest.mark.parametrize("scheduler", ("greedy", "mmc"))
def test_presented_batches_equal_the_dataclasses_replace_copies(monkeypatch, scheduler):
    """Every period's queued jobs and free-PE snapshot are the records
    ``dataclasses.replace`` builds, with the remaining deadline
    ``(submit_ms + deadline_ms - now) / 1000``."""
    grid, jobs = generate_grid(BACKLOG), generate_jobs(BACKLOG)
    adapter = SCHEDULERS[scheduler]
    batches = []

    def capturing(batch, resources, params, seed):
        batches.append((seed, batch, resources))
        return adapter(batch, resources, params, seed)

    def replay():
        batches.clear()
        metrics = run_scenario(BACKLOG, scheduler, grid=grid, jobs=jobs)
        return metrics, list(batches)

    monkeypatch.setitem(SCHEDULERS, scheduler, capturing)
    metrics, presented = replay()
    with monkeypatch.context() as m:
        m.setattr(JobRequest, "with_deadline", lambda j, s: replace(j, deadline_s=s))
        m.setattr(ResourceInfo, "with_free_pes", lambda r, n: replace(r, free_pes=n))
        replaced_metrics, replaced = replay()

    assert metrics == replace(replaced_metrics, wall_time_s=metrics.wall_time_s)
    assert sum(metrics.rollovers_per_period) > 0
    assert len(presented) == len(replaced) > 1
    by_id = {j.job_id: j for j in jobs}
    copied_resources = 0
    for (seed, batch, snapshot), (replaced_seed, replaced_batch, replaced_snapshot) in zip(
        presented, replaced
    ):
        assert seed == replaced_seed
        now = (seed - BACKLOG.rng_seed * GA_PERIOD_SEED_STRIDE) * round(BACKLOG.interval_s * 1000)
        assert len(batch) == len(replaced_batch) and len(snapshot) == len(replaced_snapshot)
        for job, expected in zip(batch, replaced_batch):
            assert_same_record(job, expected)
            source = by_id[job.job_id]
            remaining = round(source.submit_time_s * 1000) + round(source.deadline_s * 1000) - now
            assert job.deadline_s == remaining / 1000.0
        for res, expected in zip(snapshot, replaced_snapshot):
            assert_same_record(res, expected)
        copied_resources += sum(a != b for a, b in zip(snapshot, grid))
    assert copied_resources > 0


@pytest.mark.parametrize("scheduler", ALL_SCHEDULERS)
def test_replayed_jobs_are_not_revalidated(monkeypatch, scheduler):
    """With ``jobs=`` given, ``run_scenario`` builds no ``JobRequest``
    through its constructor: a presented job checks only its new deadline."""
    grid, jobs = generate_grid(BACKLOG), generate_jobs(BACKLOG)
    checks = []
    original = JobRequest.__post_init__

    def counted(self):
        checks.append(self.job_id)
        original(self)

    monkeypatch.setattr(JobRequest, "__post_init__", counted)
    replace(jobs[0], deadline_s=1.0)
    assert checks == [jobs[0].job_id]  # the counter sees a constructor run
    checks.clear()
    metrics = run_scenario(BACKLOG, scheduler, ga_params=SMALL_GA, grid=grid, jobs=jobs)
    assert sum(metrics.rollovers_per_period) > 0
    assert checks == []


# -------------------------------------------------------------- helpers


def test_a_job_the_schedule_leaves_out_rolls_over(s1_jobs, s1_resources, monkeypatch):
    """A queued job the schedule does not mention is carried, counted as a
    rollover, and presented again in the next period, where it runs."""
    queues = []

    def first_job_only(jobs, resources, params, seed):
        queues.append([j.job_id for j in jobs])
        return greedy_schedule(pair_table(jobs[:1], resources)), 0

    monkeypatch.setitem(SCHEDULERS, "greedy", first_job_only)
    events: list[SimEvent] = []
    metrics = run_scenario(
        ScenarioConfig(resource_count=1, interval_s=5.0), "greedy",
        event_sink=events.append, grid=s1_resources, jobs=s1_jobs,
    )
    assert queues == [["A", "B"], ["B"]]
    assert metrics.rollovers_per_period == (1, 0)
    assert [(e.time_ms, e.job_id) for e in events if e.kind == "schedule"] == [
        (0, "A"), (5_000, "B"),
    ]
    assert metrics.jobs_completed == 2


@pytest.mark.parametrize("parked", [False, True], ids=["placed", "parked"])
def test_a_schedule_naming_a_job_outside_the_queue_fails(
    s1_jobs, s1_resources, monkeypatch, parked
):
    """A schedule over a table that also holds a job Z, which is not
    queued, is an error, whether it places Z or parks it."""
    z = JobRequest("UZ", "Z", 100.0, 100.0, (1000.0,), 1)

    def names_z(jobs, resources, params, seed):
        table = pair_table([*jobs, z], resources)
        homes = [table.parking] * len(table.jobs)
        if not parked:  # Z, last by id, on R1
            homes[-1] = [r.resource_id for r in table.resources].index("R1")
        schedule = build_schedule(table, whole_jobs(table, homes))
        assert schedule.assignments.pes("R1", "Z") == (0 if parked else 1)
        return schedule, 0

    monkeypatch.setitem(SCHEDULERS, "greedy", names_z)
    with pytest.raises(AssertionError, match="schedule mentions unknown jobs"):
        run_scenario(
            ScenarioConfig(resource_count=1), "greedy", grid=s1_resources, jobs=s1_jobs
        )


@pytest.mark.parametrize("outside, period", [("B", 0), ("A", 1), ("A", 2)],
                         ids=["unreleased", "running", "completed"])
def test_a_schedule_naming_a_scenario_job_that_is_not_queued_fails(
    s1_jobs, s1_resources, monkeypatch, outside, period
):
    """A job of the scenario that is not queued is unknown to a period's
    schedule: B, submitted at 100 s, named at 0 s; or A, placed at 0 s for
    10 s, named at 5 s while it runs or at 10 s once it has completed."""
    a, b = s1_jobs
    if outside == "B":
        b = replace(b, submit_time_s=100.0)
    periods = []

    def names_a_and_b(jobs, resources, params, seed):
        periods.append(seed)  # the period, at seed 0
        table = pair_table([a, b] if seed == period else jobs, resources)
        homes = [table.parking] * len(table.jobs)
        if seed == 0 and len(jobs) == 2:  # both queued at 0 s: A runs on R1 and B waits
            homes[0] = [r.resource_id for r in table.resources].index("R1")
        return build_schedule(table, whole_jobs(table, homes)), 0

    monkeypatch.setitem(SCHEDULERS, "greedy", names_a_and_b)
    with pytest.raises(AssertionError, match=f"schedule mentions unknown jobs: .*{outside}"):
        run_scenario(
            ScenarioConfig(resource_count=1, interval_s=5.0), "greedy",
            grid=s1_resources, jobs=[a, b],
        )
    assert periods == list(range(period + 1))


@pytest.mark.parametrize("homes, message", [
    ({"A": "R2", "B": "R2"}, "greedy overcommitted R2"),  # 2 + 3 PEs on R2's 4
    ({"A": DUMMY_ID, "B": "R1"}, "greedy placed B on R1 past its deadline"),  # 20 s > 15 s
], ids=["overcommitted", "past-deadline"])
def test_a_placement_that_cannot_run_fails(s1_jobs, s1_resources, monkeypatch, homes, message):
    """The simulator checks each placement it runs: a schedule that puts
    more PEs on a resource than it has free, or a job where it ends past
    its deadline, is an error."""

    def places_at_homes(jobs, resources, params, seed):
        table = pair_table(jobs, resources)
        ids = [r.resource_id for r in table.resources]
        columns = [ids.index(homes[j.job_id]) for j in table.jobs]
        return build_schedule(table, whole_jobs(table, columns)), 0

    monkeypatch.setitem(SCHEDULERS, "greedy", places_at_homes)
    with pytest.raises(AssertionError, match=message):
        run_scenario(
            ScenarioConfig(resource_count=1), "greedy", grid=s1_resources, jobs=s1_jobs
        )


@pytest.mark.parametrize("scheduler", ALL_SCHEDULERS)
def test_the_order_of_the_jobs_and_the_grid_does_not_matter(scheduler):
    """Jobs are taken in id order, and jobs released at one time are
    released in id order: given in reverse, the jobs and the grid give
    the same events and metrics."""
    grid = generate_grid(BACKLOG)
    jobs = sorted(generate_jobs(BACKLOG), key=lambda j: j.job_id)
    tied = (jobs[3].job_id, jobs[7].job_id)
    jobs[7] = replace(jobs[7], submit_time_s=jobs[3].submit_time_s)
    runs = []
    for given_grid, given_jobs in ((grid, jobs), (grid[::-1], jobs[::-1])):
        events: list[SimEvent] = []
        metrics = run_scenario(
            BACKLOG, scheduler, ga_params=SMALL_GA, event_sink=events.append,
            grid=given_grid, jobs=given_jobs,
        )
        runs.append((replace(metrics, wall_time_s=0.0), events))
    assert runs[0] == runs[1]
    releases = [e for e in runs[0][1] if e.kind == "release" and e.job_id in tied]
    assert [e.job_id for e in releases] == list(tied)
    assert releases[0].time_ms == releases[1].time_ms
    assert sum(runs[0][0].rollovers_per_period) > 0


@pytest.mark.parametrize("twice", ["job_id A", "resource_id R1"])
def test_a_duplicate_id_is_rejected(s1_jobs, s1_resources, twice):
    """Two jobs, or two resources, with one id are a ``ValueError`` naming
    the id, even when the two jobs are never queued together."""
    jobs, grid = list(s1_jobs), list(s1_resources)
    if twice.startswith("job"):
        jobs.append(replace(jobs[0], submit_time_s=500.0))
    else:
        grid.append(replace(grid[0], free_pes=1))
    with pytest.raises(ValueError, match=f"duplicate {twice}"):
        run_scenario(ScenarioConfig(resource_count=1), "greedy", grid=grid, jobs=jobs)


def test_no_scheduler_builds_an_id_keyed_allocation(monkeypatch, caplog):
    """From the solver to the simulator a schedule stays its table and
    placement array: ``run_scenario`` constructs no ``AllocationMatrix``
    under any scheduler, at DEBUG level too, on a scenario that parks jobs
    and rolls them over.  Reading ``assignments`` builds one."""
    built = []
    post_init = AllocationMatrix.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(AllocationMatrix, "__post_init__", counted)
    caplog.set_level("DEBUG", logger="metagrid")
    config = ScenarioConfig(resource_count=25, job_count=30, deadline_mode="tight")
    for scheduler in ALL_SCHEDULERS:
        m = run_scenario(config, scheduler, ga_params=SMALL_GA)
        assert m.jobs_missed and max(m.rollovers_per_period), scheduler
        assert built == [], scheduler
    schedule = greedy_schedule(pair_table(generate_jobs(config), generate_grid(config)))
    assert built == []
    assignments = schedule.assignments
    assert built == [assignments]


def test_jsonl_sink_emits_one_parseable_object_per_event(s1_jobs, s1_resources):
    buf = io.StringIO()
    run_scenario(
        ScenarioConfig(resource_count=1),
        "greedy",
        event_sink=jsonl_sink(buf),
        grid=s1_resources,
        jobs=s1_jobs,
    )
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) >= 4  # two releases, two schedules, two completions
    for line in lines:
        record = json.loads(line)
        assert set(record) == {"time_ms", "kind", "job_id", "resource_id", "detail"}
    kinds = [json.loads(line)["kind"] for line in lines]
    assert kinds.count("release") == 2
    assert kinds.count("schedule") == 2
    assert kinds.count("complete") == 2


def test_metrics_shape():
    m = _run_pinned("greedy")
    assert isinstance(m, ScenarioMetrics)
    assert m.tasks_submitted == 5
    assert m.ga_iterations == 0  # greedy never touches the GA


# ------------------------------------------- batches in which no job fits


def test_a_whole_job_one_ulp_over_budget_is_parked():
    """J1's 6 PEs on R1 cost 415.8767347995672 against a limit of
    415.87673479956715, as the table and ``validate`` compute it, (rate x
    PEs) x runtime; the relaxation's re-check, (rate x runtime) x PEs,
    finds it one ulp cheaper and places J1 on R1.  MMC's freeze reads the
    table, so every whole-job scheduler parks J1."""
    job = JobRequest("U1", "J1", 415.87673479856716, 1e9, (7806.581888501443,) * 6, 6)
    grid = [ResourceInfo("R1", 6, 4.950654670401068, 557.5838394249836)]
    relaxation = build_relaxed(pair_table([job], grid))
    assert relaxation.table.dummy.tolist() == [True, False]  # columns DUMMY, R1
    assert relaxation.table.feasible.tolist() == [[True, False]]
    assert solve_relaxed(relaxation).tolist() == [[0, 6]]
    assert modified_min_cost(relaxation.table, solve_relaxed(relaxation)).dummy_jobs == {"J1"}
    pool, _ = ensure_dummy([job], grid)
    for scheduler in ("greedy", "mmc", "lpga", "hga"):
        schedule, _ = SCHEDULERS[scheduler]([job], grid, SMALL_GA, 0)
        assert schedule.assignments.entries == {(DUMMY_ID, "J1"): 6}, scheduler
        assert schedule.dummy_jobs == {"J1"}, scheduler
        assert validate(schedule.assignments, [job], pool, JobKind.SGN) == [], scheduler


def cut_instance(seed: int) -> tuple[list[JobRequest], list[ResourceInfo]]:
    """``tiny_instance`` with each resource's free PEs cut to a random
    count from 0 to its own."""
    jobs, resources = tiny_instance(seed)
    rng = random.Random(seed)
    return jobs, [r.with_free_pes(rng.randint(0, r.free_pes)) for r in resources]


def fitting_jobs(jobs, resources) -> int:
    """How many jobs of the batch fit whole on some real resource."""
    table = pair_table(jobs, resources)
    return int(table.fits[:, ~table.dummy].any(axis=1).sum())


def covering_jobs(jobs, resources) -> int:
    """How many jobs of the batch have real resources, each on time with a
    single PE affordable, whose free PEs add up to the job's PE count."""
    return sum(
        sum(
            r.free_pes for r in resources
            if meets_deadline(j, r) and pair_charge(j, r, 1) <= budget_limit(j.budget_gd)
        ) >= j.pe_count
        for j in jobs
    )


@pytest.fixture
def solves(monkeypatch):
    """Every relaxation build, ``solve_relaxed``, HiGHS and MMC call from
    here on, by name."""
    calls = []
    for module, name in (
        (ga, "build_relaxed"), (ga, "solve_relaxed"), (ga, "modified_min_cost"),
        (simulator, "build_relaxed"), (simulator, "solve_relaxed"), (relaxed, "linprog"),
    ):
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_a_batch_in_which_no_job_fits_is_answered_without_a_solve(solves):
    """On ``tiny_instance`` 0-599 with random free-PE cuts, the mmc and
    lpga adapters answer each batch in which no job fits whole on a real
    resource without building the relaxation, ``solve_relaxed``, HiGHS or
    MMC, and both answer it with the schedule MMC makes of the relaxation's
    answer, every job parked.  Every other batch, one in which a single job
    fits too, is built, solved and consolidated once by each, and mmc still
    answers it with that schedule.  The relaxed-mgn adapter answers every
    batch with ``build_schedule`` of the relaxation's answer, and one in
    which no job's admissible real free PEs cover it without a build,
    solve or HiGHS call."""
    fitting, covered = Counter(), Counter()
    for seed in range(600):
        jobs, resources = cut_instance(seed)
        table = pair_table(jobs, resources)
        placed = solve_relaxed(build_relaxed(table))
        want, want_mgn = modified_min_cost(table, placed), build_schedule(table, placed)
        solves.clear()
        mmc_schedule, _ = SCHEDULERS["mmc"](jobs, resources, SMALL_GA, seed)
        lpga_schedule, _ = SCHEDULERS["lpga"](jobs, resources, SMALL_GA, seed)
        assert same_schedule(mmc_schedule, want), seed
        fits = fitting_jobs(jobs, resources)
        fitting[min(fits, 2)] += 1
        if fits:
            assert solves.count("build_relaxed") == solves.count("solve_relaxed") == 2, seed
            assert solves.count("modified_min_cost") == 2, seed
            assert "linprog" in solves, seed
        else:
            assert solves == [], seed
            assert same_schedule(lpga_schedule, want), seed
            assert want.dummy_jobs == {j.job_id for j in jobs}, seed
        solves.clear()
        mgn_schedule, _ = SCHEDULERS["relaxed-mgn"](jobs, resources, SMALL_GA, seed)
        assert same_schedule(mgn_schedule, want_mgn), seed
        cover = covering_jobs(jobs, resources)
        covered[min(cover, 2)] += 1
        if cover:
            assert solves.count("build_relaxed") == solves.count("solve_relaxed") == 1, seed
        else:
            assert solves == [], seed
            assert want_mgn.dummy_jobs == {j.job_id for j in jobs}, seed
    assert fitting == {0: 257, 1: 135, 2: 208}  # batches by fitting jobs, 2 for 2 or more
    assert covered == {0: 233, 1: 131, 2: 236}  # batches by covered jobs, likewise


@pytest.mark.parametrize("scheduler", ("lpga", "hga"))
def test_no_period_without_a_fitting_job_breeds_or_solves(monkeypatch, solves, scheduler):
    """On one generated 50 x 200 medium scenario, at the benchmark's GA
    settings, no period whose batch has no job that fits whole on a real
    resource breeds a GA generation or calls HiGHS; the other periods
    breed and (lpga) solve."""
    config = ScenarioConfig(resource_count=50, job_count=200, rng_seed=0)
    params = GaParams(population_size=30, convergence_window=25, max_iterations=300)
    adapter = SCHEDULERS[scheduler]
    generations = []
    original_breed = ga._breed
    monkeypatch.setattr(ga, "_breed", lambda *args: generations.append(1) or original_breed(*args))
    periods = {True: [], False: []}  # no job fits -> (generations, HiGHS calls) per period

    def counting(batch, resources, params, seed):
        hopeless = not fitting_jobs(batch, resources)
        generations.clear()
        solves.clear()
        answer = adapter(batch, resources, params, seed)
        periods[hopeless].append((len(generations), solves.count("linprog")))
        return answer

    monkeypatch.setitem(SCHEDULERS, scheduler, counting)
    run_scenario(config, scheduler, ga_params=params)
    assert len(periods[True]) > len(periods[False]) > 0
    assert set(periods[True]) == {(0, 0)}
    assert sum(bred for bred, _ in periods[False]) > 0
    if scheduler == "lpga":
        assert sum(highs for _, highs in periods[False]) > 0
