"""Scenario generator: determinism, distribution clamps, serialization."""

from __future__ import annotations

import json
import math
from statistics import fmean

import pytest
from metagrid.model import JobRequest, ResourceInfo
from metagrid.workload import (
    BadConfigError,
    DeadlineMode,
    ScenarioConfig,
    generate_grid,
    generate_jobs,
    generate_scenario,
    grid_from_json,
    grid_from_lines,
    grid_to_json,
    grid_to_lines,
    jobs_from_json,
    jobs_from_lines,
    jobs_to_json,
    jobs_to_lines,
)


# ---------------------------------------------------------------- config


def test_rejects_negative_counts():
    with pytest.raises(BadConfigError):
        ScenarioConfig(resource_count=-1)
    with pytest.raises(BadConfigError):
        ScenarioConfig(resource_count=5, job_count=-2)


def test_rejects_bad_bounds():
    with pytest.raises(BadConfigError):
        ScenarioConfig(resource_count=5, pe_min=0)
    with pytest.raises(BadConfigError):
        ScenarioConfig(resource_count=5, rate_min_gd=5.0, rate_max_gd=4.0)
    with pytest.raises(BadConfigError):
        ScenarioConfig(resource_count=5, task_variation_min=0.4, task_variation_max=0.2)
    with pytest.raises(BadConfigError):
        ScenarioConfig(resource_count=5, runtime_spread=1.0)
    with pytest.raises(BadConfigError):
        ScenarioConfig(resource_count=5, budget_factor=0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("field", ["interval_s", "rate_mean_gd", "mips_max", "budget_factor"])
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
        runtime = job.task_sizes_mi[0] / cfg.mips_mean
        assert 320.0 <= runtime <= 480.0
        slack = job.deadline_s - runtime
        assert 200.0 - 1e-9 <= slack <= 300.0 + 1e-9
        assert 0.0 <= job.submit_time_s <= 20.0


def test_budget_is_exact_when_runtime_is_pinned():
    cfg = ScenarioConfig(
        resource_count=1, job_count=200, rng_seed=6, runtime_spread=0.0
    )
    for job in generate_jobs(cfg):
        assert job.task_sizes_mi == (400.0 * 500.0,) * job.pe_count
        assert job.budget_gd == 3600.0 * job.pe_count


def test_tight_mode_deadline_band():
    cfg = ScenarioConfig(
        resource_count=1,
        job_count=2_000,
        rng_seed=7,
        deadline_mode=DeadlineMode.TIGHT,
        runtime_spread=0.0,
    )
    jobs = generate_jobs(cfg)
    assert all(440.0 <= j.deadline_s <= 460.0 for j in jobs)
    assert abs(fmean(j.deadline_s for j in jobs) - 450.0) < 1.5


def test_pinned_task_count():
    cfg = ScenarioConfig(
        resource_count=1,
        job_count=50,
        rng_seed=8,
        task_variation_min=0.0,
        task_variation_max=0.0,
    )
    assert all(j.pe_count == 5 for j in generate_jobs(cfg))


def test_generate_scenario_bundles_both():
    cfg = ScenarioConfig(resource_count=6, job_count=4, rng_seed=11)
    grid, jobs = generate_scenario(cfg)
    assert grid == generate_grid(cfg)
    assert jobs == generate_jobs(cfg)


# --------------------------------------------------------- serialization


def _sample_grid() -> list[ResourceInfo]:
    grid = generate_grid(ScenarioConfig(resource_count=5, rng_seed=13))
    grid.append(ResourceInfo("RUX", 6, 1.5, 350.0))
    return grid


def _sample_jobs() -> list[JobRequest]:
    return generate_jobs(ScenarioConfig(resource_count=1, job_count=5, rng_seed=13))


def test_grid_json_roundtrip():
    grid = _sample_grid()
    assert grid_from_json(grid_to_json(grid)) == grid


def test_grid_lines_roundtrip():
    grid = _sample_grid()
    assert grid_from_lines(grid_to_lines(grid)) == grid


def test_jobs_json_roundtrip():
    jobs = _sample_jobs()
    assert jobs_from_json(jobs_to_json(jobs)) == jobs


def test_jobs_lines_roundtrip():
    jobs = _sample_jobs()
    assert jobs_from_lines(jobs_to_lines(jobs)) == jobs


def test_lines_skip_blanks_and_comments():
    jobs = _sample_jobs()
    text = "# fixture header\n\n" + jobs_to_lines(jobs) + "\n\n# trailing note\n"
    assert jobs_from_lines(text) == jobs


def test_unknown_fields_are_rejected():
    with pytest.raises(BadConfigError, match="unknown resource fields"):
        grid_from_json(
            '[{"resource_id": "R", "free_pes": 1, "cost_per_pe_second": 1.0,'
            ' "pe_speed_mips": 100.0, "colour": "red"}]'
        )
    with pytest.raises(BadConfigError, match="unknown job fields"):
        jobs_from_json('[{"job_id": "J", "speed": 9}]')


def test_missing_fields_are_rejected():
    with pytest.raises(BadConfigError, match="missing field"):
        grid_from_json('[{"resource_id": "R"}]')


def test_non_finite_values_are_rejected_at_load():
    with pytest.raises(BadConfigError, match="cost_per_pe_second"):
        grid_from_json(
            '[{"resource_id": "R", "free_pes": 1, "cost_per_pe_second": NaN,'
            ' "pe_speed_mips": 100.0}]'
        )
    with pytest.raises(BadConfigError, match="pe_speed_mips"):
        grid_from_lines(
            '{"resource_id": "R", "free_pes": 1, "cost_per_pe_second": 1.0,'
            ' "pe_speed_mips": Infinity}'
        )
    record = json.loads(jobs_to_lines(_sample_jobs()[:1]))
    record["budget_gd"] = float("nan")
    with pytest.raises(BadConfigError, match="budget_gd"):
        jobs_from_lines(json.dumps(record))
    record["budget_gd"], record["deadline_s"] = 10.0, float("inf")
    with pytest.raises(BadConfigError, match="deadline_s"):
        jobs_from_json(json.dumps([record]))


_RESOURCE = {"resource_id": "R", "free_pes": 1, "cost_per_pe_second": 1.0,
             "pe_speed_mips": 100.0}
_JOB = {"user_id": "U", "job_id": "J", "budget_gd": 10.0, "deadline_s": 10.0,
        "task_sizes_mi": [100.0], "pe_count": 1}


def _with(record: dict, field: str, value) -> str:
    return json.dumps([{**record, field: value}])


@pytest.mark.parametrize("load, text, match", [
    pytest.param(grid_from_json, _with(_RESOURCE, "pe_speed_mips", "fast"), "pe_speed_mips",
                 id="speed-str"),
    pytest.param(grid_from_json, _with(_RESOURCE, "cost_per_pe_second", None),
                 "cost_per_pe_second", id="rate-null"),
    pytest.param(grid_from_json, _with(_RESOURCE, "cost_per_pe_second", True),
                 "cost_per_pe_second", id="rate-bool"),
    pytest.param(grid_from_json, _with(_RESOURCE, "cost_per_pe_second", {"J": 1.0}),
                 "cost_per_pe_second", id="rate-map"),
    pytest.param(grid_from_json, _with(_RESOURCE, "free_pes", True), "free_pes",
                 id="free_pes-bool"),
    pytest.param(grid_from_json, _with(_RESOURCE, "is_dummy", "no"), "is_dummy",
                 id="is_dummy-str"),
    pytest.param(grid_from_json, "[1]", "JSON object", id="resource-not-object"),
    pytest.param(jobs_from_json, _with(_JOB, "budget_gd", "10"), "budget_gd", id="budget-str"),
    pytest.param(jobs_from_json, _with(_JOB, "pe_count", "1"), "pe_count", id="pe_count-str"),
    pytest.param(jobs_from_json, _with(_JOB, "pe_count", 1.0), "pe_count", id="pe_count-float"),
    pytest.param(jobs_from_json, _with(_JOB, "kind", "sgn"), "kind", id="kind"),
    pytest.param(jobs_from_lines, "[1]", "JSON object", id="job-not-object"),
    pytest.param(jobs_from_json, "5", "JSON array", id="jobs-not-array"),
    pytest.param(grid_from_json, "5", "JSON array", id="grid-not-array"),
    pytest.param(grid_from_json, "{not json", "not valid JSON", id="grid-not-json"),
    pytest.param(jobs_from_json, _with(_JOB, "task_sizes_mi", 5), "task_sizes_mi",
                 id="task_sizes-number"),
    pytest.param(jobs_from_json, _with(_JOB, "job_id", 8), "job_id", id="job_id-number"),
    pytest.param(jobs_from_json, _with(_JOB, "user_id", 7), "user_id", id="user_id-number"),
    pytest.param(grid_from_json, _with(_RESOURCE, "resource_id", 3), "resource_id",
                 id="resource_id-number"),
    pytest.param(grid_from_json, json.dumps([_RESOURCE, _RESOURCE]), "duplicate resource_id R",
                 id="resource_id-duplicate"),
    pytest.param(grid_from_lines, "\n".join([json.dumps(_RESOURCE)] * 2),
                 "duplicate resource_id R", id="resource_id-duplicate-lines"),
    pytest.param(jobs_from_json, json.dumps([_JOB, _JOB]), "duplicate job_id J",
                 id="job_id-duplicate"),
    pytest.param(jobs_from_lines, "\n".join([json.dumps(_JOB)] * 2), "duplicate job_id J",
                 id="job_id-duplicate-lines"),
    pytest.param(grid_from_json, _with(_RESOURCE, "resource_id", "DUMMY"), "reserved id DUMMY",
                 id="resource_id-reserved"),
])
def test_mistyped_records_are_rejected_at_load(load, text, match):
    with pytest.raises(BadConfigError, match=match):
        load(text)


def test_malformed_line_is_rejected_with_its_number():
    good = jobs_to_lines(_sample_jobs()[:1])
    with pytest.raises(BadConfigError, match="line 2"):
        jobs_from_lines(good + "\n{not json}")


def test_float_values_roundtrip_exactly():
    jobs = _sample_jobs()
    back = jobs_from_lines(jobs_to_lines(jobs))
    for a, b in zip(jobs, back):
        assert math.isclose(a.budget_gd, b.budget_gd, rel_tol=0.0, abs_tol=0.0)
        assert a.deadline_s == b.deadline_s
