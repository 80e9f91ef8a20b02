"""Scenario generator: determinism, distribution clamps, config checks;
and the type rules a record read from outside data meets when it is built."""

from __future__ import annotations

from statistics import fmean

import pytest
from metagrid.model import JobRequest, ResourceInfo
from metagrid.workload import (
    BadConfigError,
    DeadlineMode,
    ScenarioConfig,
    generate_grid,
    generate_jobs,
)


# ---------------------------------------------------------------- config


def test_rejects_negative_counts():
    with pytest.raises(BadConfigError):
        ScenarioConfig(resource_count=-1)
    with pytest.raises(BadConfigError):
        ScenarioConfig(resource_count=5, job_count=-2)


@pytest.mark.parametrize("seed", [-1, -12345])
def test_rejects_a_negative_seed(seed):
    # the GA's bit generator takes no negative seed; -n is not read as n
    with pytest.raises(BadConfigError, match="rng_seed"):
        ScenarioConfig(resource_count=5, rng_seed=seed)


def test_rejects_bad_bounds():
    with pytest.raises(BadConfigError, match="interval_s"):
        ScenarioConfig(resource_count=5, interval_s=0.0)
    with pytest.raises(BadConfigError, match="interval_s"):
        ScenarioConfig(resource_count=5, interval_s=-50.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("field", ["interval_s"])
def test_rejects_non_finite_floats(field, bad):
    with pytest.raises(BadConfigError, match=field):
        ScenarioConfig(resource_count=5, **{field: bad})


def test_mode_accepts_strings_and_rejects_junk():
    cfg = ScenarioConfig(resource_count=1, deadline_mode="tight")
    assert cfg.deadline_mode is DeadlineMode.TIGHT
    assert cfg.slack_mean_s == 50.0
    with pytest.raises(ValueError):
        ScenarioConfig(resource_count=1, deadline_mode="loose")


# ------------------------------------------------------------ generators


def test_same_seed_reproduces_everything():
    cfg = ScenarioConfig(resource_count=30, job_count=40, rng_seed=123)
    assert generate_grid(cfg) == generate_grid(cfg)
    assert generate_jobs(cfg) == generate_jobs(cfg)


def test_different_seeds_differ():
    a = ScenarioConfig(resource_count=30, job_count=40, rng_seed=1)
    b = ScenarioConfig(resource_count=30, job_count=40, rng_seed=2)
    assert generate_grid(a) != generate_grid(b)
    assert generate_jobs(a) != generate_jobs(b)


def test_grid_stream_is_independent_of_job_count():
    a = ScenarioConfig(resource_count=25, job_count=5, rng_seed=9)
    b = ScenarioConfig(resource_count=25, job_count=500, rng_seed=9)
    assert generate_grid(a) == generate_grid(b)


def test_zero_resources_warns_and_returns_empty():
    cfg = ScenarioConfig(resource_count=0, job_count=3)
    with pytest.warns(UserWarning):
        assert generate_grid(cfg) == []


def test_resource_draws_respect_clamps_and_moments():
    cfg = ScenarioConfig(resource_count=10_000, rng_seed=4)
    grid = generate_grid(cfg)
    assert [r.resource_id for r in grid[:2]] == ["R0001", "R0002"]
    assert all(isinstance(r.free_pes, int) for r in grid)
    assert all(4 <= r.free_pes <= 12 for r in grid)
    assert all(4.0 <= r.cost_per_pe_second <= 5.0 for r in grid)
    assert all(200.0 <= r.pe_speed_mips <= 800.0 for r in grid)
    assert abs(fmean(r.cost_per_pe_second for r in grid) - 4.5) < 0.05
    assert abs(fmean(r.pe_speed_mips for r in grid) - 500.0) < 5.0
    assert abs(fmean(r.free_pes for r in grid) - 8.0) < 0.1


def test_job_draws_respect_clamps():
    cfg = ScenarioConfig(resource_count=1, job_count=10_000, rng_seed=5)
    jobs = generate_jobs(cfg)
    assert [j.job_id for j in jobs[:2]] == ["J0001", "J0002"]
    for job in jobs:
        assert 1 <= job.pe_count <= 8  # 5 * (1 + 0.5), rounded
        assert len(job.task_sizes_mi) == job.pe_count
        runtime = job.task_sizes_mi[0] / 500.0
        assert 320.0 <= runtime <= 480.0
        slack = job.deadline_s - runtime
        assert 200.0 - 1e-9 <= slack <= 300.0 + 1e-9
        assert 0.0 <= job.submit_time_s <= 20.0


def test_budget_and_task_sizes_follow_the_runtime_estimate():
    cfg = ScenarioConfig(resource_count=1, job_count=200, rng_seed=6)
    for job in generate_jobs(cfg):
        # every task is runtime x 500 MIPS, and the budget is
        # 2 x 4.5 G$/PE-s x tasks x runtime (3600 G$ per task at 400 s)
        assert job.task_sizes_mi == (job.task_sizes_mi[0],) * job.pe_count
        runtime = job.task_sizes_mi[0] / 500.0
        assert job.budget_gd == pytest.approx(9.0 * job.pe_count * runtime, rel=1e-12)


def test_tight_mode_deadline_band():
    cfg = ScenarioConfig(
        resource_count=1,
        job_count=2_000,
        rng_seed=7,
        deadline_mode=DeadlineMode.TIGHT,
    )
    slack = [j.deadline_s - j.task_sizes_mi[0] / 500.0 for j in generate_jobs(cfg)]
    assert all(40.0 - 1e-9 <= s <= 60.0 + 1e-9 for s in slack)
    assert abs(fmean(slack) - 50.0) < 0.5


def test_task_count_stays_in_its_variation_band():
    cfg = ScenarioConfig(resource_count=1, job_count=2_000, rng_seed=8)
    counts = [j.pe_count for j in generate_jobs(cfg)]
    # 5 x (1 +/- v) with v <= 0.5, rounded half to even: 2.5 -> 2, 7.5 -> 8
    assert all(2 <= c <= 8 for c in counts)
    assert abs(fmean(counts) - 5.0) < 0.1


# --------------------------------------------------------------- records


_RESOURCE = {"resource_id": "R", "free_pes": 1, "cost_per_pe_second": 1.0,
             "pe_speed_mips": 100.0}
_JOB = {"user_id": "U", "job_id": "J", "budget_gd": 10.0, "deadline_s": 10.0,
        "task_sizes_mi": (100.0,), "pe_count": 1}


@pytest.mark.parametrize("record, field, value", [
    pytest.param(ResourceInfo, "pe_speed_mips", "fast", id="speed-str"),
    pytest.param(ResourceInfo, "cost_per_pe_second", None, id="rate-null"),
    pytest.param(ResourceInfo, "cost_per_pe_second", True, id="rate-bool"),
    pytest.param(ResourceInfo, "cost_per_pe_second", {"J": 1.0}, id="rate-map"),
    pytest.param(ResourceInfo, "free_pes", True, id="free_pes-bool"),
    pytest.param(ResourceInfo, "is_dummy", "no", id="is_dummy-str"),
    pytest.param(ResourceInfo, "resource_id", 3, id="resource_id-number"),
    pytest.param(JobRequest, "budget_gd", "10", id="budget-str"),
    pytest.param(JobRequest, "pe_count", "1", id="pe_count-str"),
    pytest.param(JobRequest, "pe_count", 1.0, id="pe_count-float"),
    pytest.param(JobRequest, "task_sizes_mi", 5, id="task_sizes-number"),
    pytest.param(JobRequest, "job_id", 8, id="job_id-number"),
    pytest.param(JobRequest, "user_id", 7, id="user_id-number"),
])
def test_mistyped_records_are_rejected_at_load(record, field, value):
    """A record read from outside data is refused when it is built."""
    base = _RESOURCE if record is ResourceInfo else _JOB
    with pytest.raises(ValueError, match=field):
        record(**{**base, field: value})
