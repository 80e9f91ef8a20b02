"""Synthetic grid and job-stream generator.

Every draw is clamped Gaussian or uniform with the moments below, and the
per-entity draw order is fixed, so one seed always reproduces the same
scenario byte for byte:

* resource PEs      ~ N(8, (12-4)/6)      clamped to [4, 12], integer
* resource rate     ~ N(4.5, (5-4)/6)     clamped to [4, 5]   G$/PE-s
* resource speed    ~ N(500, (800-200)/6) clamped to [200, 800] MIPS
* tasks per job     ~ N(5, 5v/3), v ~ U[0.10, 0.50], clamped to 5(1 +/- v)
* runtime estimate  ~ N(400, 400*0.2/3)   clamped to [320, 480] s
* deadline slack    ~ N(S, S*0.2/3)       clamped to S*(1 +/- 0.2), where
  S is 50 / 250 / 500 s for tight / medium / relaxed deadlines
* submission time   ~ U[0, 20] s

Each task's size is ``runtime_estimate x mean_speed`` instructions, so the
runtime estimate holds exactly on an average-speed machine.  A job's
budget is ``2 x mean_rate x tasks x runtime_estimate`` (18 000 G$ for the
all-means job).
"""

from __future__ import annotations

import json
import math
import random
import warnings
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, fields
from enum import Enum

from .model import DUMMY_ID, JobRequest, ResourceInfo


class BadConfigError(ValueError):
    """A scenario parameter is outside its meaningful range."""


class DeadlineMode(str, Enum):
    TIGHT = "tight"
    MEDIUM = "medium"
    RELAXED = "relaxed"


SLACK_MEAN_S = {
    DeadlineMode.TIGHT: 50.0,
    DeadlineMode.MEDIUM: 250.0,
    DeadlineMode.RELAXED: 500.0,
}

SLACK_SPREAD = 0.2


@dataclass(frozen=True)
class ScenarioConfig:
    resource_count: int
    deadline_mode: DeadlineMode = DeadlineMode.MEDIUM
    job_count: int = 50
    rng_seed: int = 0
    interval_s: float = 50.0
    submit_window_s: float = 20.0
    # resource mix
    pe_min: int = 4
    pe_max: int = 12
    pe_mean: float = 8.0
    rate_min_gd: float = 4.0
    rate_max_gd: float = 5.0
    rate_mean_gd: float = 4.5
    mips_min: float = 200.0
    mips_max: float = 800.0
    mips_mean: float = 500.0
    # job mix
    task_count_mean: float = 5.0
    task_variation_min: float = 0.10
    task_variation_max: float = 0.50
    runtime_mean_s: float = 400.0
    runtime_spread: float = 0.2
    budget_factor: float = 2.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise BadConfigError(f"{f.name} must be finite, got {value!r}")
        if self.resource_count < 0:
            raise BadConfigError("resource_count must not be negative")
        if self.job_count < 0:
            raise BadConfigError("job_count must not be negative")
        object.__setattr__(
            self, "deadline_mode", DeadlineMode(self.deadline_mode)
        )
        if self.pe_min < 1 or self.pe_max < self.pe_min:
            raise BadConfigError("PE bounds must satisfy 1 <= pe_min <= pe_max")
        for lo, hi, what in (
            (self.rate_min_gd, self.rate_max_gd, "rate"),
            (self.mips_min, self.mips_max, "mips"),
        ):
            if lo <= 0 or hi < lo:
                raise BadConfigError(f"{what} bounds must satisfy 0 < min <= max")
        if self.task_count_mean < 1:
            raise BadConfigError("task_count_mean must be >= 1")
        if not 0.0 <= self.task_variation_min <= self.task_variation_max < 1.0:
            raise BadConfigError("task variation must satisfy 0 <= min <= max < 1")
        if self.runtime_mean_s <= 0 or not 0.0 <= self.runtime_spread < 1.0:
            raise BadConfigError("runtime moments out of range")
        if self.budget_factor <= 0 or self.interval_s <= 0:
            raise BadConfigError("budget_factor and interval_s must be positive")
        if self.submit_window_s < 0:
            raise BadConfigError("submit_window_s must not be negative")

    @property
    def slack_mean_s(self) -> float:
        return SLACK_MEAN_S[self.deadline_mode]


def _gauss_clamped(
    rng: random.Random, mean: float, sigma: float, lo: float, hi: float
) -> float:
    return min(hi, max(lo, rng.gauss(mean, sigma)))


def generate_grid(config: ScenarioConfig) -> list[ResourceInfo]:
    """Deterministic resource pool for ``config`` (dummy not included).

    The draw stream is derived from ``config.rng_seed`` and independent of
    the job stream.
    """
    if config.resource_count == 0:
        warnings.warn("scenario has no resources; every job will be deferred")
        return []
    rng = random.Random(f"{config.rng_seed}:grid")
    pe_sigma = (config.pe_max - config.pe_min) / 6.0
    rate_sigma = (config.rate_max_gd - config.rate_min_gd) / 6.0
    mips_sigma = (config.mips_max - config.mips_min) / 6.0
    out = []
    for i in range(config.resource_count):
        pes = round(
            _gauss_clamped(rng, config.pe_mean, pe_sigma, config.pe_min, config.pe_max)
        )
        rate = _gauss_clamped(
            rng, config.rate_mean_gd, rate_sigma, config.rate_min_gd, config.rate_max_gd
        )
        mips = _gauss_clamped(
            rng, config.mips_mean, mips_sigma, config.mips_min, config.mips_max
        )
        out.append(
            ResourceInfo(
                resource_id=f"R{i + 1:04d}",
                free_pes=pes,
                cost_per_pe_second=rate,
                pe_speed_mips=mips,
            )
        )
    return out


def generate_jobs(config: ScenarioConfig) -> list[JobRequest]:
    """Deterministic job stream for ``config``, ordered by submission id.

    Per-job draw order is fixed (task variation, task count, runtime
    estimate, deadline slack, submission time), so adding fields later
    cannot silently reshuffle existing scenarios.
    """
    rng = random.Random(f"{config.rng_seed}:jobs")
    runtime_sigma = config.runtime_mean_s * config.runtime_spread / 3.0
    runtime_lo = config.runtime_mean_s * (1.0 - config.runtime_spread)
    runtime_hi = config.runtime_mean_s * (1.0 + config.runtime_spread)
    slack_mean = config.slack_mean_s
    slack_sigma = slack_mean * SLACK_SPREAD / 3.0
    slack_lo = slack_mean * (1.0 - SLACK_SPREAD)
    slack_hi = slack_mean * (1.0 + SLACK_SPREAD)

    jobs = []
    for i in range(config.job_count):
        variation = rng.uniform(config.task_variation_min, config.task_variation_max)
        count_sigma = config.task_count_mean * variation / 3.0
        count = max(
            1,
            round(
                _gauss_clamped(
                    rng,
                    config.task_count_mean,
                    count_sigma,
                    config.task_count_mean * (1.0 - variation),
                    config.task_count_mean * (1.0 + variation),
                )
            ),
        )
        runtime_est = _gauss_clamped(
            rng, config.runtime_mean_s, runtime_sigma, runtime_lo, runtime_hi
        )
        slack = _gauss_clamped(rng, slack_mean, slack_sigma, slack_lo, slack_hi)
        submit = rng.uniform(0.0, config.submit_window_s)

        task_mi = runtime_est * config.mips_mean
        jobs.append(
            JobRequest(
                user_id=f"U{i + 1:04d}",
                job_id=f"J{i + 1:04d}",
                budget_gd=config.budget_factor
                * config.rate_mean_gd
                * count
                * runtime_est,
                deadline_s=runtime_est + slack,
                task_sizes_mi=(task_mi,) * count,
                pe_count=count,
                submit_time_s=submit,
            )
        )
    return jobs


def generate_scenario(
    config: ScenarioConfig,
) -> tuple[list[ResourceInfo], list[JobRequest]]:
    return generate_grid(config), generate_jobs(config)


# --- fixture serialization -------------------------------------------------
# Grids and job batches round-trip through JSON (one array) and a
# line-oriented format (one JSON record per line; blank and # lines are
# ignored).  Floats survive exactly because json uses repr.

_RESOURCE_KEYS = {
    "resource_id", "free_pes", "cost_per_pe_second", "pe_speed_mips", "is_dummy",
}
_JOB_KEYS = {
    "user_id", "job_id", "budget_gd", "deadline_s", "task_sizes_mi",
    "pe_count", "submit_time_s",
}


def _resource_to_dict(res: ResourceInfo) -> dict:
    return {
        "resource_id": res.resource_id,
        "free_pes": res.free_pes,
        "cost_per_pe_second": res.cost_per_pe_second,
        "pe_speed_mips": res.pe_speed_mips,
        "is_dummy": res.is_dummy,
    }


def _resource_from_dict(data: dict) -> ResourceInfo:
    if not isinstance(data, dict):
        raise BadConfigError(f"resource record must be a JSON object, got {data!r}")
    unknown = sorted(set(data) - _RESOURCE_KEYS)
    if unknown:
        raise BadConfigError(f"unknown resource fields: {', '.join(unknown)}")
    try:
        return ResourceInfo(
            resource_id=data["resource_id"],
            free_pes=data["free_pes"],
            cost_per_pe_second=data["cost_per_pe_second"],
            pe_speed_mips=data["pe_speed_mips"],
            is_dummy=data.get("is_dummy", False),
        )
    except KeyError as exc:
        raise BadConfigError(f"resource record missing field {exc}") from exc
    except ValueError as exc:
        raise BadConfigError(f"bad resource record: {exc}") from exc


def _job_to_dict(job: JobRequest) -> dict:
    return {
        "user_id": job.user_id,
        "job_id": job.job_id,
        "budget_gd": job.budget_gd,
        "deadline_s": job.deadline_s,
        "task_sizes_mi": list(job.task_sizes_mi),
        "pe_count": job.pe_count,
        "submit_time_s": job.submit_time_s,
    }


def _job_from_dict(data: dict) -> JobRequest:
    if not isinstance(data, dict):
        raise BadConfigError(f"job record must be a JSON object, got {data!r}")
    unknown = sorted(set(data) - _JOB_KEYS)
    if unknown:
        raise BadConfigError(f"unknown job fields: {', '.join(unknown)}")
    try:
        return JobRequest(
            user_id=data["user_id"],
            job_id=data["job_id"],
            budget_gd=data["budget_gd"],
            deadline_s=data["deadline_s"],
            task_sizes_mi=data["task_sizes_mi"],
            pe_count=data["pe_count"],
            submit_time_s=data.get("submit_time_s", 0.0),
        )
    except KeyError as exc:
        raise BadConfigError(f"job record missing field {exc}") from exc
    except ValueError as exc:
        raise BadConfigError(f"bad job record: {exc}") from exc


def _records_from_json(text: str) -> list:
    try:
        records = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadConfigError(f"not valid JSON: {exc}") from exc
    if not isinstance(records, list):
        raise BadConfigError(f"expected a JSON array of records, got {type(records).__name__}")
    return records


def _records_from_lines(text: str) -> list[dict]:
    records = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise BadConfigError(f"line {lineno}: not a valid record") from exc
    return records


def _unique(records: list, key: str) -> list:
    """The records, unless two share the id ``key``."""
    twice = [value for value, n in Counter(getattr(r, key) for r in records).items() if n > 1]
    if twice:
        raise BadConfigError(f"duplicate {key} {twice[0]}")
    return records


def _grid(records: list) -> list[ResourceInfo]:
    grid = [_resource_from_dict(d) for d in records]
    if any(r.resource_id == DUMMY_ID and not r.is_dummy for r in grid):
        raise BadConfigError(f"non-dummy resource uses reserved id {DUMMY_ID}")
    return _unique(grid, "resource_id")


def grid_to_json(resources: Sequence[ResourceInfo]) -> str:
    return json.dumps([_resource_to_dict(r) for r in resources], indent=2)


def grid_from_json(text: str) -> list[ResourceInfo]:
    return _grid(_records_from_json(text))


def grid_to_lines(resources: Sequence[ResourceInfo]) -> str:
    return "\n".join(json.dumps(_resource_to_dict(r)) for r in resources)


def grid_from_lines(text: str) -> list[ResourceInfo]:
    return _grid(_records_from_lines(text))


def jobs_to_json(jobs: Sequence[JobRequest]) -> str:
    return json.dumps([_job_to_dict(j) for j in jobs], indent=2)


def jobs_from_json(text: str) -> list[JobRequest]:
    return _unique([_job_from_dict(d) for d in _records_from_json(text)], "job_id")


def jobs_to_lines(jobs: Sequence[JobRequest]) -> str:
    return "\n".join(json.dumps(_job_to_dict(j)) for j in jobs)


def jobs_from_lines(text: str) -> list[JobRequest]:
    return _unique([_job_from_dict(d) for d in _records_from_lines(text)], "job_id")
