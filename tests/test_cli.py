"""End-to-end CLI: sweeps, config files, seed precedence, reports."""

from __future__ import annotations

import csv
import json
from dataclasses import fields
from pathlib import Path

import pytest
from metagrid.cli import RESULT_COLUMNS, Sweep, _load_ini, main
from metagrid.ga import GaParams

FAST_INI = """\
[sweep]
resource_counts = 4
deadline_modes = medium
schedulers = greedy
job_count = 4

[ga]
population_size = 8
convergence_window = 5
max_iterations = 20
"""


def _read_rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _write_fast_ini(tmp_path: Path, extra: str = "") -> Path:
    path = tmp_path / "sweep.ini"
    path.write_text(FAST_INI + extra)
    return path


# -------------------------------------------------------------------- run


def test_quick_run_writes_expected_csv(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--quick", "--out", str(out)]) == 0
    results = out / "results.csv"
    header = results.read_text().splitlines()[0]
    assert header == ",".join(RESULT_COLUMNS)
    rows = _read_rows(results)
    assert len(rows) == 5  # one count x one mode x five schedulers x one seed
    assert [r["scheduler"] for r in rows] == [
        "greedy", "hga", "lpga", "mmc", "relaxed-mgn",
    ]
    assert all(r["seed"] == "0" for r in rows)
    assert all(r["resource_count"] == "25" for r in rows)
    assert all(r["deadline_mode"] == "medium" for r in rows)
    for row in rows:
        float(row["total_cost_gd"])
        int(row["jobs_completed"])


def test_rerun_matches_except_wall_time(tmp_path):
    ini = _write_fast_ini(tmp_path)
    for name in ("a", "b"):
        code = main(
            ["run", "--config", str(ini), "--out", str(tmp_path / name)]
        )
        assert code == 0
    rows_a = _read_rows(tmp_path / "a" / "results.csv")
    rows_b = _read_rows(tmp_path / "b" / "results.csv")
    strip = lambda rows: [
        {k: v for k, v in r.items() if k != "wall_time_s"} for r in rows
    ]
    assert strip(rows_a) == strip(rows_b)


def test_config_file_shapes_the_sweep(tmp_path):
    ini = tmp_path / "sweep.ini"
    ini.write_text(
        "[sweep]\n"
        "resource_counts = 4\n"
        "deadline_modes = tight\n"
        "schedulers = greedy, mmc\n"
        "seeds = 3, 4\n"
        "job_count = 5\n"
        "interval_s = 25\n"
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(ini), "--out", str(out)]) == 0
    rows = _read_rows(out / "results.csv")
    assert [(r["scheduler"], r["seed"]) for r in rows] == [
        ("greedy", "3"), ("greedy", "4"), ("mmc", "3"), ("mmc", "4"),
    ]
    assert all(r["deadline_mode"] == "tight" for r in rows)


def test_verbose_run_streams_events(tmp_path):
    ini = _write_fast_ini(tmp_path)
    out = tmp_path / "out"
    code = main(
        ["run", "--config", str(ini), "--out", str(out), "--verbose"]
    )
    assert code == 0
    lines = (out / "events.jsonl").read_text().strip().splitlines()
    records = [json.loads(line) for line in lines]
    assert records[0]["kind"] == "run-start"
    kinds = {r["kind"] for r in records}
    assert {"run-start", "release", "schedule"} <= kinds


@pytest.mark.parametrize(
    "ini_text, complaint",
    [
        ("[extra]\nx = 1\n", "unknown config sections"),
        ("[DEFAULT]\nseeds = 7\n[ga]\npopulation_size = 4\n", "unknown config sections: DEFAULT"),
        ("[DEFAULT]\nseeds = 7\n", "unknown config sections: DEFAULT"),
        ("[sweep]\ncolour = red\n", "unknown"),
        ("[sweep]\nresource_counts = abc\n", "bad"),
        ("[sweep]\ndeadline_modes = loose\n", "loose"),
        ("[ga]\npopulation_size = 1\n", "population_size"),
        ("[ga]\ncolour = red\n", "unknown"),
        ("[ga]\npopulation_size = abc\n", "bad"),
        ("[sweep]\ninterval_s = nan\n", "interval_s"),
        ("[sweep]\nschedulers =\n", "empty schedulers list"),
        ("[sweep]\nseeds = ,\n", "empty seeds list"),
        ("[sweep]\nresource_counts =\n", "empty resource_counts list"),
        ("[sweep]\ndeadline_modes =\n", "empty deadline_modes list"),
        ("seeds = 1\n", "no section headers"),
        ("[sweep]\nseeds = 1\nseeds = 2\n", "option 'seeds' in section 'sweep' already exists"),
        ("[sweep]\nschedulers = greedy%\n", "'%' must be followed by '%' or '('"),
        ("[ga]\nrng_seed = 3\n", "unknown [ga] key: rng_seed"),
    ],
)
def test_bad_config_exits_one(tmp_path, capsys, ini_text, complaint):
    ini = tmp_path / "bad.ini"
    ini.write_text(ini_text)
    code = main(["run", "--config", str(ini), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert complaint in err
    # configparser's reading errors name the file as given, not as a Path's repr
    reading_error = "section headers" in complaint or "already exists" in complaint
    assert (repr(str(ini)) in err) == reading_error
    assert "PosixPath(" not in err
    assert not (tmp_path / "o").exists()


def test_empty_seed_flag_exits_one(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["run", "--quick", "--seeds", "", "--out", str(out)]) == 1
    assert "empty seeds list" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_flag_exits_one_before_any_run(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["run", "--quick", "--seeds=-3", "--out", str(out)]) == 1
    assert "rng_seed must not be negative" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_file_exits_one(tmp_path):
    code = main(
        ["run", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path)]
    )
    assert code == 1


def test_unknown_scheduler_flag_exits_one(tmp_path, capsys):
    code = main(
        ["run", "--quick", "--schedulers", "annealing", "--out", str(tmp_path)]
    )
    assert code == 1
    assert "annealing" in capsys.readouterr().err


def test_internal_failure_exits_two(tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("node limit exceeded")

    monkeypatch.setattr("metagrid.cli.run_scenario", boom)
    code = main(["run", "--quick", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "internal error" in capsys.readouterr().err


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# -------------------------------------------------------- seed precedence


def _seed_column(tmp_path: Path, name: str, argv_extra: list[str]) -> set[str]:
    ini = tmp_path / f"{name}.ini"
    ini.write_text(FAST_INI.replace("job_count = 4\n", "job_count = 4\nseeds = 7\n"))
    out = tmp_path / name
    code = main(["run", "--config", str(ini), "--out", str(out)] + argv_extra)
    assert code == 0
    return {r["seed"] for r in _read_rows(out / "results.csv")}


def test_seed_flag_beats_everything(tmp_path):
    assert _seed_column(tmp_path, "flag", ["--seeds", "11"]) == {"11"}


def test_seed_config_beats_default(tmp_path):
    assert _seed_column(tmp_path, "cfg", []) == {"7"}


def test_seed_defaults_to_zero(tmp_path):
    ini = _write_fast_ini(tmp_path)
    out = tmp_path / "dflt"
    assert main(["run", "--config", str(ini), "--out", str(out)]) == 0
    assert {r["seed"] for r in _read_rows(out / "results.csv")} == {"0"}


# ------------------------------------------------------- sweep and config


def test_sweep_defaults():
    assert vars(Sweep()) == {
        "resource_counts": [25, 50, 100, 150, 200],
        "deadline_modes": ["tight", "medium", "relaxed"],
        "schedulers": ["greedy", "mmc", "relaxed-mgn", "hga", "lpga"],
        "seeds": [0],
        "job_count": 50,
        "interval_s": 50.0,
        "ga": GaParams(),
    }


def test_ga_section_takes_every_ga_param_but_the_seed(tmp_path):
    values = {
        "population_size": 30, "crossover_rate": 0.5, "mutation_rate": 0.05,
        "convergence_window": 25, "max_iterations": 300, "elitism": 2,
    }
    assert {f.name for f in fields(GaParams)} - set(values) == {"rng_seed"}
    ini = tmp_path / "ga.ini"
    ini.write_text("[ga]\n" + "".join(f"{k} = {v}\n" for k, v in values.items()))
    sweep = Sweep()
    _load_ini(ini, sweep)
    assert sweep.ga == GaParams(**values)


def test_the_readme_config_example_loads(tmp_path):
    """The INI block under README's ``## CLI`` heading loads into the
    values it shows."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1]
    ini = tmp_path / "readme.ini"
    ini.write_text(section.split("```ini\n", 1)[1].split("```", 1)[0])
    sweep = Sweep()
    _load_ini(ini, sweep)
    assert vars(sweep) == {
        "resource_counts": [25, 50, 100, 150, 200],
        "deadline_modes": ["tight", "medium", "relaxed"],
        "schedulers": ["greedy", "mmc", "relaxed-mgn", "lpga", "hga"],
        "seeds": [0, 1, 2],
        "job_count": 50,
        "interval_s": 50.0,
        "ga": GaParams(
            population_size=30, crossover_rate=0.8, mutation_rate=0.05,
            convergence_window=25, max_iterations=300, elitism=2,
        ),
    }


# ----------------------------------------------------------------- report


FIXTURE_ROWS = [
    ("0", "25", "medium", "greedy", "100.0", "5", "25", "0", "0.100000"),
    ("1", "25", "medium", "greedy", "110.0", "6", "30", "0", "0.100000"),
    ("0", "25", "medium", "hga", "90.0", "5", "25", "12", "0.500000"),
    ("1", "25", "medium", "hga", "95.0", "6", "30", "14", "0.500000"),
    ("0", "50", "medium", "greedy", "200.0", "7", "35", "0", "0.200000"),
]


def _write_fixture_csv(path: Path, rows=FIXTURE_ROWS, columns=RESULT_COLUMNS):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def test_report_summary_statistics(tmp_path):
    results = tmp_path / "results.csv"
    _write_fixture_csv(results)
    assert main(["report", str(results), "--out", str(tmp_path)]) == 0

    with (tmp_path / "summary_medium.csv").open(newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0] == [
        "resource_count",
        "greedy_mean_cost_gd", "greedy_stdev_cost_gd",
        "hga_mean_cost_gd", "hga_stdev_cost_gd",
    ]
    assert table[1] == [
        "25", "105.0", "7.0710678118654755", "92.5", "3.5355339059327378",
    ]
    # only greedy ran at 50 resources; the hga cells stay blank
    assert table[2] == ["50", "200.0", "0.0", "", ""]

    with (tmp_path / "iterations.csv").open(newline="") as fh:
        iters = list(csv.reader(fh))
    assert iters[0] == [
        "scheduler", "resource_count", "median_ga_iterations", "mean_ga_iterations"
    ]
    assert ["hga", "25", "13.0", "13.0"] in iters

    with (tmp_path / "plot_data.csv").open(newline="") as fh:
        plot = list(csv.reader(fh))
    assert ["medium", "25", "greedy", "105.0", "5.5", "27.5"] in plot


# two deadline modes, two schedulers; tight/hga has no 50-resource row
REPORT_ROWS = FIXTURE_ROWS + [
    ("0", "50", "medium", "hga", "180.5", "7", "35", "21", "0.600000"),
    ("0", "25", "tight", "greedy", "120.0", "4", "20", "0", "0.100000"),
    ("1", "25", "tight", "greedy", "125.0", "4", "21", "0", "0.100000"),
    ("0", "25", "tight", "hga", "118.25", "4", "20", "9", "0.400000"),
    ("1", "25", "tight", "hga", "119.0", "5", "24", "10", "0.400000"),
    ("0", "50", "tight", "greedy", "240.0", "6", "30", "0", "0.200000"),
]

REPORT_FILES = {
    "summary_medium.csv": [
        "resource_count,greedy_mean_cost_gd,greedy_stdev_cost_gd,hga_mean_cost_gd,hga_stdev_cost_gd",
        "25,105.0,7.0710678118654755,92.5,3.5355339059327378",
        "50,200.0,0.0,180.5,0.0",
    ],
    "summary_tight.csv": [
        "resource_count,greedy_mean_cost_gd,greedy_stdev_cost_gd,hga_mean_cost_gd,hga_stdev_cost_gd",
        "25,122.5,3.5355339059327378,118.625,0.5303300858899106",
        "50,240.0,0.0,,",
    ],
    "iterations.csv": [
        "scheduler,resource_count,median_ga_iterations,mean_ga_iterations",
        "greedy,25,0.0,0.0",
        "greedy,50,0.0,0.0",
        "hga,25,11.0,11.25",
        "hga,50,21,21.0",
    ],
    "plot_data.csv": [
        "deadline_mode,resource_count,scheduler,mean_total_cost_gd,mean_jobs_completed,mean_tasks_completed",
        "medium,25,greedy,105.0,5.5,27.5",
        "medium,25,hga,92.5,5.5,27.5",
        "medium,50,greedy,200.0,7.0,35.0",
        "medium,50,hga,180.5,7.0,35.0",
        "tight,25,greedy,122.5,4.0,20.5",
        "tight,25,hga,118.625,4.5,22.0",
        "tight,50,greedy,240.0,6.0,30.0",
    ],
}


def test_report_output_is_pinned_byte_for_byte(tmp_path, capsys):
    results = tmp_path / "results.csv"
    _write_fixture_csv(results, rows=REPORT_ROWS)
    out = tmp_path / "out"
    assert main(["report", str(results), "--out", str(out)]) == 0
    assert capsys.readouterr().out == "".join(
        f"wrote {out / name}\n"
        for name in ("summary_medium.csv", "summary_tight.csv", "iterations.csv", "plot_data.csv")
    )
    assert sorted(p.name for p in out.iterdir()) == sorted(REPORT_FILES)
    for name, lines in REPORT_FILES.items():
        # csv.writer ends each row with \r\n
        assert (out / name).read_bytes() == "".join(f"{line}\r\n" for line in lines).encode(), name


def test_report_on_header_only_csv(tmp_path):
    results = tmp_path / "results.csv"
    _write_fixture_csv(results, rows=[])
    assert main(["report", str(results), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "iterations.csv").exists()
    assert (tmp_path / "plot_data.csv").exists()


def test_report_missing_column_exits_one(tmp_path, capsys):
    results = tmp_path / "results.csv"
    columns = [c for c in RESULT_COLUMNS if c != "wall_time_s"]
    rows = [r[:-1] for r in FIXTURE_ROWS]
    _write_fixture_csv(results, rows=rows, columns=columns)
    assert main(["report", str(results)]) == 1
    assert "wall_time_s" in capsys.readouterr().err


def test_report_missing_file_exits_one(tmp_path):
    assert main(["report", str(tmp_path / "absent.csv")]) == 1


def test_report_writes_next_to_input_by_default(tmp_path):
    results = tmp_path / "results.csv"
    _write_fixture_csv(results)
    assert main(["report", str(results)]) == 0
    assert (tmp_path / "summary_medium.csv").exists()
