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

These moments are module constants (``PE_*``, ``RATE_*_GD``, ``MIPS_*``,
``TASK_COUNT_MEAN``, ``TASK_VARIATION_*``, ``RUNTIME_*``, ``SLACK_*``,
``SUBMIT_WINDOW_S`` and ``BUDGET_FACTOR``).  A ``ScenarioConfig`` sets
only the counts, the deadline mode, the seed and the period length.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass, fields
from enum import Enum

from .model import JobRequest, ResourceInfo


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
SUBMIT_WINDOW_S = 20.0

# resource mix
PE_MIN = 4
PE_MAX = 12
PE_MEAN = 8.0
RATE_MIN_GD = 4.0
RATE_MAX_GD = 5.0
RATE_MEAN_GD = 4.5
MIPS_MIN = 200.0
MIPS_MAX = 800.0
MIPS_MEAN = 500.0

# job mix
TASK_COUNT_MEAN = 5.0
TASK_VARIATION_MIN = 0.10
TASK_VARIATION_MAX = 0.50
RUNTIME_MEAN_S = 400.0
RUNTIME_SPREAD = 0.2
BUDGET_FACTOR = 2.0


@dataclass(frozen=True)
class ScenarioConfig:
    resource_count: int
    deadline_mode: DeadlineMode = DeadlineMode.MEDIUM
    job_count: int = 50
    rng_seed: int = 0
    interval_s: float = 50.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise BadConfigError(f"{f.name} must be finite, got {value!r}")
        if self.resource_count < 0:
            raise BadConfigError("resource_count must not be negative")
        if self.job_count < 0:
            raise BadConfigError("job_count must not be negative")
        if self.rng_seed < 0:
            raise BadConfigError("rng_seed must not be negative")
        object.__setattr__(
            self, "deadline_mode", DeadlineMode(self.deadline_mode)
        )
        if self.interval_s <= 0:
            raise BadConfigError("interval_s must be positive")

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
    pe_sigma = (PE_MAX - PE_MIN) / 6.0
    rate_sigma = (RATE_MAX_GD - RATE_MIN_GD) / 6.0
    mips_sigma = (MIPS_MAX - MIPS_MIN) / 6.0
    out = []
    for i in range(config.resource_count):
        pes = round(_gauss_clamped(rng, PE_MEAN, pe_sigma, PE_MIN, PE_MAX))
        rate = _gauss_clamped(rng, RATE_MEAN_GD, rate_sigma, RATE_MIN_GD, RATE_MAX_GD)
        mips = _gauss_clamped(rng, MIPS_MEAN, mips_sigma, MIPS_MIN, MIPS_MAX)
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
    runtime_sigma = RUNTIME_MEAN_S * RUNTIME_SPREAD / 3.0
    runtime_lo = RUNTIME_MEAN_S * (1.0 - RUNTIME_SPREAD)
    runtime_hi = RUNTIME_MEAN_S * (1.0 + RUNTIME_SPREAD)
    slack_mean = config.slack_mean_s
    slack_sigma = slack_mean * SLACK_SPREAD / 3.0
    slack_lo = slack_mean * (1.0 - SLACK_SPREAD)
    slack_hi = slack_mean * (1.0 + SLACK_SPREAD)

    jobs = []
    for i in range(config.job_count):
        variation = rng.uniform(TASK_VARIATION_MIN, TASK_VARIATION_MAX)
        count_sigma = TASK_COUNT_MEAN * variation / 3.0
        count = max(
            1,
            round(
                _gauss_clamped(
                    rng,
                    TASK_COUNT_MEAN,
                    count_sigma,
                    TASK_COUNT_MEAN * (1.0 - variation),
                    TASK_COUNT_MEAN * (1.0 + variation),
                )
            ),
        )
        runtime_est = _gauss_clamped(
            rng, RUNTIME_MEAN_S, runtime_sigma, runtime_lo, runtime_hi
        )
        slack = _gauss_clamped(rng, slack_mean, slack_sigma, slack_lo, slack_hi)
        submit = rng.uniform(0.0, SUBMIT_WINDOW_S)

        task_mi = runtime_est * MIPS_MEAN
        jobs.append(
            JobRequest(
                user_id=f"U{i + 1:04d}",
                job_id=f"J{i + 1:04d}",
                budget_gd=BUDGET_FACTOR * RATE_MEAN_GD * count * runtime_est,
                deadline_s=runtime_est + slack,
                task_sizes_mi=(task_mi,) * count,
                pe_count=count,
                submit_time_s=submit,
            )
        )
    return jobs
