"""Golden GA runs: the exact iteration counts, best-fitness traces, seed
fitness, convergence flags and best gene maps that the GA produced on eight
fixed instances, two of them at the benchmark's GA settings.

The GA draws from the raw 64-bit words of ``numpy.random.PCG64(rng_seed)``,
a stream NEP 19 keeps stable across numpy releases (``numpy.random.Generator``
methods carry no such promise, and the GA calls none).  A word ``w`` is a
uniform ``(w >> 11) * 2**-53`` or an int below ``n`` by multiply-shift,
``((w >> 32) * n) >> 32``.  The draws come in a fixed order: the initial
genes, then per generation two roulette uniforms per pair, a crossover
uniform per pair, a cut per pair, a mutation uniform per child gene and a
value per reset gene.  The fitness sums each chromosome's costs in sorted
job order.  Any change to that order, to the decoding or to the summation
shows up here as a different trace or gene map, and every run is also made
under CPython 3.12's compensated ``sum()`` (``conftest.sum_312``);
``test_ga.py::test_the_stream_and_its_decoders_are_pinned`` tells a change
of numpy's stream apart from one of these.
"""

from __future__ import annotations

import hashlib

import pytest
from conftest import fuzz_instance, tiny_instance, under_both_sum_rules
from metagrid.ga import GaParams, hga, lpga, run_ga
from metagrid.model import pair_table
from metagrid.workload import ScenarioConfig, generate_grid, generate_jobs
from oracles import gene_map


def _batch(resources: int, jobs: int, seed: int):
    config = ScenarioConfig(resource_count=resources, job_count=jobs, rng_seed=seed)
    return generate_jobs(config), generate_grid(config)


def _unseeded(jobs, resources, params):
    return run_ga([], pair_table(jobs, resources), params)


def _pipeline(scheduler):
    def run(jobs, resources, params):
        return scheduler(pair_table(jobs, resources), params)[1]

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
    # the benchmark's GA settings: runs long enough to breed many
    # generations
    "200x50-hga-bench": (
        lambda: _batch(200, 50, 11),
        _pipeline(hga),
        GaParams(population_size=30, convergence_window=25, max_iterations=300, rng_seed=11),
    ),
    "50x200-lpga-bench": (
        lambda: _batch(50, 200, 8),
        _pipeline(lpga),
        GaParams(population_size=30, convergence_window=25, max_iterations=300, rng_seed=8),
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
        "best": _genes_digest(gene_map(result.best, pair_table(jobs, resources))),
    }


GOLDEN = {
    "200x50-hga": {
        "iterations_used": 20,
        "trace": [
            "451422.23563026387", "447406.36218922946", "447406.36218922946",
            "447406.36218922946", "447284.40848093445", "447284.40848093445",
            "445122.45924269396", "445122.45924269396", "445122.45924269396",
            "445122.45924269396", "442207.83557635284", "442207.83557635284",
            "442207.83557635284", "442207.83557635284", "437855.5371297482",
            "437855.5371297482", "431133.65919158305", "431133.65919158305",
            "431133.65919158305", "431133.65919158305",
        ],
        "seed_fitness": "451422.23563026387",
        "converged": False,
        "best": "1f23420852340e36",
    },
    "200x50-hga-bench": {
        "iterations_used": 133,
        "trace": [
            "448702.80191582296", "448702.80191582296", "448702.80191582296",
            "448702.80191582296", "448702.80191582296", "448702.80191582296",
            "448702.80191582296", "448702.80191582296", "448702.80191582296",
            "441689.20630014775", "441689.20630014775", "441689.20630014775",
            "441689.20630014775", "441689.20630014775", "441689.20630014775",
            "438342.00770262553", "438342.00770262553", "438342.00770262553",
            "437896.89945687895", "437896.89945687895", "437896.89945687895",
            "437896.89945687895", "437896.89945687895", "437896.89945687895",
            "436325.5098478305", "436325.5098478305", "436325.5098478305",
            "436325.5098478305", "436325.5098478305", "435591.0367727318",
            "435591.0367727318", "435591.0367727318", "435591.0367727318",
            "431645.7121076417", "430908.21841191186", "430908.21841191186",
            "430908.21841191186", "430908.21841191186", "430908.21841191186",
            "430908.21841191186", "428642.55471456726", "428642.55471456726",
            "428642.55471456726", "428642.55471456726", "428642.55471456726",
            "428642.55471456726", "428642.55471456726", "426910.5794891917",
            "426459.38003188197", "426459.38003188197", "426459.38003188197",
            "426459.38003188197", "426459.38003188197", "424881.79408621014",
            "424881.79408621014", "421476.01328679675", "421476.01328679675",
            "421476.01328679675", "421476.01328679675", "421286.2032460554",
            "421286.2032460554", "420970.1312408309", "417998.78682312137",
            "417998.78682312137", "416892.10260672437", "416114.64287889504",
            "416114.64287889504", "415956.2052872522", "415956.2052872522",
            "415956.2052872522", "415956.2052872522", "413564.18382503267",
            "413564.18382503267", "413564.18382503267", "413564.18382503267",
            "411957.8196374009", "411957.8196374009", "411957.8196374009",
            "411957.8196374009", "411957.8196374009", "411957.8196374009",
            "411957.8196374009", "411957.8196374009", "411957.8196374009",
            "411957.8196374009", "410561.65656793356", "410561.65656793356",
            "403983.4061342464", "403983.4061342464", "403983.4061342464",
            "403983.4061342464", "403874.6253149075", "403874.6253149075",
            "403874.6253149075", "403874.6253149075", "403874.6253149075",
            "403874.6253149075", "403874.6253149075", "403874.6253149075",
            "402740.0076089049", "401105.12255811715", "401105.12255811715",
            "401105.12255811715", "401105.12255811715", "401056.53017301793",
            "400353.6977070478", "400353.6977070478", "400283.0805754961",
            "400283.0805754961", "400283.0805754961", "400283.0805754961",
            "400283.0805754961", "400283.0805754961", "400283.0805754961",
            "400283.0805754961", "400283.0805754961", "400283.0805754961",
            "400283.0805754961", "400283.0805754961", "400283.0805754961",
            "400283.0805754961", "400283.0805754961", "400283.0805754961",
            "400283.0805754961", "400283.0805754961", "400283.0805754961",
            "400283.0805754961", "400283.0805754961", "400283.0805754961",
            "400283.0805754961", "400283.0805754961", "400283.0805754961",
            "400283.0805754961",
        ],
        "seed_fitness": "448702.80191582296",
        "converged": True,
        "best": "7d3b018926fee196",
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
    "50x200-lpga-bench": {
        "iterations_used": 26,
        "trace": [
            "38418813.47948589", "38418813.47948589", "38418813.47948589",
            "38418813.47948589", "38418813.47948589", "38418813.47948589",
            "38418813.47948589", "38418813.47948589", "38418813.47948589",
            "38418813.47948589", "38418813.47948589", "38418813.47948589",
            "38418813.47948589", "38418813.47948589", "38418813.47948589",
            "38418813.47948589", "38418813.47948589", "38418813.47948589",
            "38418813.47948589", "38418813.47948589", "38418813.47948589",
            "38418813.47948589", "38418813.47948589", "38418813.47948589",
            "38418813.47948589", "38418813.47948589",
        ],
        "seed_fitness": "38418813.47948589",
        "converged": True,
        "best": "1f9b3b7e825f9536",
    },
    "50x200-unseeded": {
        "iterations_used": 12,
        "trace": [
            "125728295.14084962", "125471680.26218165", "125053407.65284784",
            "123769211.63533886", "123769211.63533886", "123581909.00355196",
            "123129802.31701009", "123120392.7959421", "121627873.82790788",
            "121622464.98410167", "121404653.3684977", "120759793.82126547",
        ],
        "seed_fitness": "inf",
        "converged": False,
        "best": "fb7c4eeaec206419",
    },
    "fuzz-7-lpga": {
        "iterations_used": 7,
        "trace": [
            "16932.801648927267", "16932.801648927267", "16932.801648927267",
            "16932.801648927267", "16932.801648927267", "16932.801648927267",
            "16932.801648927267",
        ],
        "seed_fitness": "16932.801648927267",
        "converged": True,
        "best": "ffcce1674a16f6e1",
    },
    "tiny-10-unseeded": {
        "iterations_used": 9,
        "trace": [
            "1624.0", "1624.0", "1624.0", "1624.0", "1624.0", "1624.0", "1624.0",
            "1624.0", "1624.0",
        ],
        "seed_fitness": "inf",
        "converged": True,
        "best": "6f6d7f4932cf4baf",
    },
}


@pytest.mark.parametrize(
    "name, sum_rule", under_both_sum_rules(sorted(CASES)), indirect=["sum_rule"]
)
def test_ga_run_matches_golden(name, sum_rule):
    assert _summary(name) == GOLDEN[name]
