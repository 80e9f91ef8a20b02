"""Golden GA runs: the exact iteration counts, best-fitness traces, seed
fitness, convergence flags and best gene maps that the GA produced on six
fixed instances.

The GA consumes one ``random.Random`` stream in a fixed order (initial
genes, two roulette draws per pair, the crossover draw and cut, one draw
per gene in mutation and one more for each mutated gene), and its fitness
sums each chromosome's costs in sorted job order.  Any change to that
order or to the summation shows up here as a different trace or gene map.
"""

from __future__ import annotations

import hashlib

import pytest
from conftest import fuzz_instance, tiny_instance
from metagrid.ga import GaParams, hga, lpga, run_ga
from metagrid.workload import ScenarioConfig, generate_scenario


def _batch(resources: int, jobs: int, seed: int):
    grid, batch_jobs = generate_scenario(
        ScenarioConfig(resource_count=resources, job_count=jobs, rng_seed=seed)
    )
    return batch_jobs, grid


def _unseeded(jobs, resources, params):
    return run_ga([], jobs, resources, params)


def _pipeline(scheduler):
    def run(jobs, resources, params):
        return scheduler(jobs, resources, params)[1]

    return run


# name -> (instance builder, GA entry point, params)
CASES = {
    "tiny-10-unseeded": (
        lambda: tiny_instance(10),
        _unseeded,
        GaParams(population_size=12, convergence_window=8, max_iterations=40, rng_seed=10),
    ),
    "fuzz-7-lpga": (
        lambda: fuzz_instance(7),
        _pipeline(lpga),
        GaParams(population_size=14, convergence_window=6, max_iterations=60, rng_seed=1),
    ),
    "200x50-hga": (
        lambda: _batch(200, 50, 1),
        _pipeline(hga),
        GaParams(max_iterations=20, rng_seed=4),
    ),
    "200x50-lpga": (
        lambda: _batch(200, 50, 2),
        _pipeline(lpga),
        GaParams(max_iterations=20, rng_seed=5),
    ),
    "50x200-hga": (
        lambda: _batch(50, 200, 3),
        _pipeline(hga),
        GaParams(max_iterations=12, rng_seed=6),
    ),
    "50x200-unseeded": (
        lambda: _batch(50, 200, 4),
        _unseeded,
        GaParams(max_iterations=12, rng_seed=7),
    ),
}


def _genes_digest(genes: dict[str, str]) -> str:
    text = ",".join(f"{jid}={rid}" for jid, rid in sorted(genes.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _summary(name: str) -> dict:
    build, run, params = CASES[name]
    jobs, resources = build()
    result = run(jobs, resources, params)
    return {
        "iterations_used": result.iterations_used,
        "trace": [repr(f) for f in result.best_fitness_trace],
        "seed_fitness": repr(result.seed_fitness),
        "converged": result.converged,
        "best": _genes_digest(result.best.genes),
    }


GOLDEN = {
    "200x50-hga": {
        "iterations_used": 20,
        "trace": [
            "451422.23563026387", "450611.4584568178", "450611.4584568178",
            "450611.4584568178", "450611.4584568178", "444766.49642298627",
            "444766.49642298627", "440317.80911152955", "440317.80911152955",
            "440317.80911152955", "437788.2650481511", "437788.2650481511",
            "437788.2650481511", "437788.2650481511", "437788.2650481511",
            "434198.4829574923", "434198.4829574923", "433522.5583001214",
            "433522.5583001214", "433522.5583001214",
        ],
        "seed_fitness": "451422.23563026387",
        "converged": False,
        "best": "647f872ff0f5d2fe",
    },
    "200x50-lpga": {
        "iterations_used": 20,
        "trace": [
            "347956.167967493", "347956.167967493", "347956.167967493",
            "347956.167967493", "347956.167967493", "347956.167967493",
            "347956.167967493", "347956.167967493", "347956.167967493",
            "347956.167967493", "347956.167967493", "347956.167967493",
            "347956.167967493", "347956.167967493", "347956.167967493",
            "347956.167967493", "347956.167967493", "347956.167967493",
            "347956.167967493", "347956.167967493",
        ],
        "seed_fitness": "347956.167967493",
        "converged": False,
        "best": "af954cb2ce91941e",
    },
    "50x200-hga": {
        "iterations_used": 12,
        "trace": [
            "31562133.300200984", "31562133.300200984", "31562133.300200984",
            "31562133.300200984", "31562133.300200984", "31562133.300200984",
            "31562133.300200984", "31562133.300200984", "31562133.300200984",
            "31562133.300200984", "31562133.300200984", "31562133.300200984",
        ],
        "seed_fitness": "31562133.300200984",
        "converged": False,
        "best": "92f6687bc55644f0",
    },
    "50x200-unseeded": {
        "iterations_used": 12,
        "trace": [
            "124653188.56191318", "123340207.35614301", "123340207.35614301",
            "121391579.06736584", "121390046.7117084", "121184006.85948136",
            "121184006.85948136", "121184006.85948136", "120099192.90980358",
            "120099192.90980358", "120099192.90980358", "120099192.90980358",
        ],
        "seed_fitness": "inf",
        "converged": False,
        "best": "ef19ea8f19f40b72",
    },
    "fuzz-7-lpga": {
        "iterations_used": 15,
        "trace": [
            "16932.801648927267", "16932.801648927267", "16932.801648927267",
            "16932.801648927267", "16932.801648927267", "16932.801648927267",
            "16898.04159634091", "16898.04159634091", "16889.450332605396",
            "16889.450332605396", "16889.450332605396", "16889.450332605396",
            "16889.450332605396", "16889.450332605396", "16889.450332605396",
        ],
        "seed_fitness": "16932.801648927267",
        "converged": True,
        "best": "ec0a74f738431bc5",
    },
    "tiny-10-unseeded": {
        "iterations_used": 11,
        "trace": [
            "1648.0", "1648.0", "1624.0", "1624.0", "1624.0", "1624.0", "1624.0",
            "1624.0", "1624.0", "1624.0", "1624.0",
        ],
        "seed_fitness": "inf",
        "converged": True,
        "best": "6f6d7f4932cf4baf",
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_ga_run_matches_golden(name):
    assert _summary(name) == GOLDEN[name]
