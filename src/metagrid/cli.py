"""Command-line workbench: sweep scenarios, collect results, summarise.

``metagrid run`` simulates every (resource count, deadline mode,
scheduler, seed) combination of the sweep and writes one results.csv with
the exact column set::

    seed,resource_count,deadline_mode,scheduler,total_cost_gd,
    jobs_completed,tasks_completed,ga_iterations,wall_time_s

Rows are buffered and written sorted by (resource_count, deadline_mode,
scheduler, seed), so reruns with the same inputs differ only in the
wall_time_s column.

``metagrid report`` turns a results.csv into per-deadline-mode summary
tables, a GA-iterations table, and a tidy plot_data.csv.

Exit codes: 0 success, 1 bad input or config, 2 internal solver failure.
(argparse itself exits 2 on malformed command lines.)
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import logging
import statistics
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from pathlib import Path

from .ga import GaParams
from .simulator import (
    SCHEDULERS,
    ScenarioMetrics,
    UnknownSchedulerError,
    jsonl_sink,
    list_schedulers,
    run_scenario,
)
from .workload import BadConfigError, DeadlineMode, ScenarioConfig

logger = logging.getLogger(__name__)

RESULT_COLUMNS = (
    "seed",
    "resource_count",
    "deadline_mode",
    "scheduler",
    "total_cost_gd",
    "jobs_completed",
    "tasks_completed",
    "ga_iterations",
    "wall_time_s",
)

QUICK_RESOURCE_COUNTS = (25,)
QUICK_MODES = ("medium",)
QUICK_JOB_COUNT = 12
QUICK_GA = GaParams(
    population_size=24, convergence_window=20, max_iterations=120
)

# the [ga] keys: every GaParams field but the seed, which the sweep sets per run
GA_CASTS = {f.name: type(f.default) for f in fields(GaParams) if f.name != "rng_seed"}


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(part) for part in text.replace(",", " ").split()]
    except ValueError as exc:
        raise BadConfigError(f"bad {what} list: {text!r}") from exc


def _parse_name_list(text: str) -> list[str]:
    return [part for part in text.replace(",", " ").split() if part]


@dataclass
class Sweep:
    """Everything one ``run`` invocation will simulate."""

    resource_counts: list[int] = field(default_factory=lambda: [25, 50, 100, 150, 200])
    deadline_modes: list[str] = field(default_factory=lambda: list(DeadlineMode))
    schedulers: list[str] = field(default_factory=lambda: list(SCHEDULERS))
    seeds: list[int] = field(default_factory=lambda: [0])
    job_count: int = ScenarioConfig.job_count
    interval_s: float = ScenarioConfig.interval_s
    ga: GaParams = GaParams()


def _read_section(parser: configparser.ConfigParser, name: str, casts: dict) -> dict:
    """The ``[name]`` section's values, each through its key's cast; {} when
    the section is absent."""
    if not parser.has_section(name):
        return {}
    values = {}
    for key, value in parser[name].items():
        if key not in casts:
            raise BadConfigError(f"unknown [{name}] key: {key}")
        try:
            values[key] = casts[key](value)
        except ValueError as exc:
            raise BadConfigError(f"bad [{name}] value for {key}: {value!r}") from exc
    return values


def _load_ini(path: Path, sweep: Sweep) -> None:
    parser = configparser.ConfigParser()
    try:
        if not parser.read(str(path)):  # its errors would name a Path as PosixPath(...)
            raise BadConfigError(f"cannot read config file {path}")
        unknown = set(parser.sections()) - {"sweep", "ga"}
        if parser.defaults():  # configparser would copy its keys into every section
            unknown.add(parser.default_section)
        if unknown:
            raise BadConfigError(f"unknown config sections: {', '.join(sorted(unknown))}")

        for key, value in _read_section(parser, "sweep", {
            "resource_counts": lambda v: _parse_int_list(v, "resource_counts"),
            "deadline_modes": _parse_name_list,
            "schedulers": _parse_name_list,
            "seeds": lambda v: _parse_int_list(v, "seeds"),
            "job_count": int,
            "interval_s": float,
        }).items():
            setattr(sweep, key, value)
        ga = _read_section(parser, "ga", GA_CASTS)
    except configparser.Error as exc:  # no section header, a key given twice, a stray %
        raise BadConfigError(str(exc)) from exc
    try:
        sweep.ga = GaParams(**ga)  # no [ga] section: the defaults
    except ValueError as exc:
        raise BadConfigError(str(exc)) from exc


def _format_row(seed: int, config: ScenarioConfig, metrics: ScenarioMetrics) -> dict:
    return {
        "seed": seed,
        "resource_count": config.resource_count,
        "deadline_mode": config.deadline_mode.value,
        "scheduler": metrics.scheduler,
        "total_cost_gd": repr(metrics.total_cost_gd),
        "jobs_completed": metrics.jobs_completed,
        "tasks_completed": metrics.tasks_completed,
        "ga_iterations": metrics.ga_iterations,
        "wall_time_s": f"{metrics.wall_time_s:.6f}",
    }


def cmd_run(args: argparse.Namespace) -> int:
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    sweep = Sweep()
    if args.config is not None:
        _load_ini(Path(args.config), sweep)
    if args.quick:
        sweep.resource_counts = list(QUICK_RESOURCE_COUNTS)
        sweep.deadline_modes = list(QUICK_MODES)
        sweep.job_count = min(sweep.job_count, QUICK_JOB_COUNT)
        sweep.ga = QUICK_GA
    if args.schedulers is not None:
        sweep.schedulers = _parse_name_list(args.schedulers)
    if args.seeds is not None:  # the flag beats the config file
        sweep.seeds = _parse_int_list(args.seeds, "seeds")
    seeds = sweep.seeds[:1] if args.quick else sweep.seeds

    for what, values in (
        ("seeds", seeds), ("schedulers", sweep.schedulers),
        ("resource_counts", sweep.resource_counts), ("deadline_modes", sweep.deadline_modes),
    ):
        if not values:
            raise BadConfigError(f"empty {what} list: the sweep would run nothing")
    bad = [s for s in sweep.schedulers if s not in SCHEDULERS]
    if bad:
        raise UnknownSchedulerError(
            f"unknown scheduler(s) {', '.join(bad)}; choose from {', '.join(list_schedulers())}"
        )
    # every config is checked (bad mode name, non-finite interval) before
    # anything is written
    combos = [
        (scheduler, ScenarioConfig(
            resource_count=count,
            deadline_mode=mode,
            job_count=sweep.job_count,
            rng_seed=seed,
            interval_s=sweep.interval_s,
        ))
        for count in sweep.resource_counts
        for mode in sweep.deadline_modes
        for scheduler in sweep.schedulers
        for seed in seeds
    ]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    events_fh = None
    if args.verbose:
        events_fh = (out_dir / "events.jsonl").open("w")
    try:
        for i, (scheduler, config) in enumerate(combos, start=1):
            count, mode, seed = config.resource_count, config.deadline_mode.value, config.rng_seed
            logger.info(
                "[%d/%d] %s on %d resources, %s deadlines, seed %d",
                i, len(combos), scheduler, count, mode, seed,
            )
            sink = None
            if events_fh is not None:
                events_fh.write(
                    json.dumps(
                        {
                            "kind": "run-start",
                            "resource_count": count,
                            "deadline_mode": mode,
                            "scheduler": scheduler,
                            "seed": seed,
                        }
                    )
                    + "\n"
                )
                sink = jsonl_sink(events_fh)
            metrics = run_scenario(
                config, scheduler, ga_params=sweep.ga, event_sink=sink
            )
            rows.append(_format_row(seed, config, metrics))
    finally:
        if events_fh is not None:
            events_fh.close()

    rows.sort(
        key=lambda r: (
            r["resource_count"], r["deadline_mode"], r["scheduler"], r["seed"]
        )
    )
    out_path = out_dir / "results.csv"
    with out_path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {out_path}")
    return 0


def _read_results(path: Path) -> list[dict]:
    if not path.exists():
        raise BadConfigError(f"no such results file: {path}")
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        fieldnames = reader.fieldnames or []
        missing = [c for c in RESULT_COLUMNS if c not in fieldnames]
        if missing:
            raise ValueError(
                f"{path} lacks column(s): {', '.join(missing)}"
            )
        return list(reader)


def cmd_report(args: argparse.Namespace) -> int:
    in_path = Path(args.results)
    rows = _read_results(in_path)
    out_dir = Path(args.out) if args.out is not None else in_path.parent
    out_dir.mkdir(parents=True, exist_ok=True)

    # the rows of each (mode, scheduler, resource count) cell, in file order
    groups: dict[tuple[str, str, int], list[dict]] = {}
    for r in rows:
        key = (r["deadline_mode"], r["scheduler"], int(r["resource_count"]))
        groups.setdefault(key, []).append(r)
    modes = sorted({mode for mode, _, _ in groups})
    schedulers = sorted({scheduler for _, scheduler, _ in groups})
    counts = sorted({count for _, _, count in groups})

    def mean_of(sub: list[dict], column: str) -> float:
        return statistics.fmean(float(r[column]) for r in sub)

    def stdev_of(sub: list[dict], column: str) -> float:
        values = [float(r[column]) for r in sub]
        return statistics.stdev(values) if len(values) > 1 else 0.0

    def write(name: str, header: list[str], table: list[list]) -> None:
        path = out_dir / name
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(table)
        print(f"wrote {path}")

    for mode in modes:
        header = ["resource_count"]
        for s in schedulers:
            header += [f"{s}_mean_cost_gd", f"{s}_stdev_cost_gd"]
        table = []
        for count in counts:
            row: list = [count]
            for scheduler in schedulers:
                sub = groups.get((mode, scheduler, count))
                if sub:
                    row += [
                        repr(mean_of(sub, "total_cost_gd")),
                        repr(stdev_of(sub, "total_cost_gd")),
                    ]
                else:
                    row += ["", ""]
            table.append(row)
        write(f"summary_{mode}.csv", header, table)

    table = []
    for scheduler in schedulers:
        for count in counts:
            # median and fmean do not depend on the order of the values
            values = [
                int(r["ga_iterations"])
                for mode in modes
                for r in groups.get((mode, scheduler, count), ())
            ]
            if values:
                table.append(
                    [scheduler, count, statistics.median(values), statistics.fmean(values)]
                )
    write(
        "iterations.csv",
        ["scheduler", "resource_count", "median_ga_iterations", "mean_ga_iterations"],
        table,
    )

    table = []
    for mode in modes:
        for count in counts:
            for scheduler in schedulers:
                sub = groups.get((mode, scheduler, count))
                if sub:
                    table.append([
                        mode, count, scheduler,
                        repr(mean_of(sub, "total_cost_gd")),
                        statistics.fmean(int(r["jobs_completed"]) for r in sub),
                        statistics.fmean(int(r["tasks_completed"]) for r in sub),
                    ])
    write(
        "plot_data.csv",
        [
            "deadline_mode", "resource_count", "scheduler",
            "mean_total_cost_gd", "mean_jobs_completed", "mean_tasks_completed",
        ],
        table,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metagrid",
        description="Deadline/budget-constrained meta-scheduling workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate a sweep and write results.csv")
    run_p.add_argument("--config", help="INI file with [sweep] and [ga] sections")
    run_p.add_argument(
        "--quick", action="store_true",
        help="small smoke sweep (25 resources, medium deadlines, 1 seed)",
    )
    run_p.add_argument(
        "--seeds", help="comma-separated seeds (default: the config file's, or 0)"
    )
    run_p.add_argument(
        "--schedulers",
        help=f"comma-separated subset of: {', '.join(list_schedulers())}",
    )
    run_p.add_argument("--out", default="results", help="output directory")
    run_p.add_argument("--verbose", action="store_true", help="progress logging")
    run_p.set_defaults(func=cmd_run)

    report_p = sub.add_parser("report", help="summarise a results.csv")
    report_p.add_argument("results", help="path to a results.csv from `metagrid run`")
    report_p.add_argument(
        "--out", help="directory for summary tables (default: alongside the input)"
    )
    report_p.set_defaults(func=cmd_report)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        # internal solver failure (node-limit blowup, LP backend error)
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
