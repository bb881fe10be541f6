"""Golden hashes of per-seed results: the integrator's numerics are frozen.

Each case hashes every run's (seed, final spins, final H) in order. Running
singly, batched, packed with other problems, or across a process pool must
not change a single bit. A change that alters the numerics on purpose
updates these hashes and says so in CHANGES.md.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from oimsim import (BenchmarkSpec, Complete, DynamicsParams, IsingProblem,
                    KsSchedule, Torus, ablation_compare, random_ising,
                    run_benchmark, run_seeds, simulate)

# 300 steps span more than one noise block at every block size the integrator picks
PARAMS = DynamicsParams(cycles=6.0, steps_per_cycle=50,
                        ks_schedule=KsSchedule.ramp(0.0, 3.0, 1.0))

GOLDEN = {
    "simulate": "3e0f498debc856a057415051421a171a84425b292459c3c3908ab1fc70a5135b",
    "run_seeds": "afd6bece186015de7d14c0b98a68e2704e32e0085dbcf09b19bb542ad01a8398",
    # every problem of mixed_spec("variability") run alone, problem-major
    "mixed_run_seeds": "a244044a39d40cab9857e157471f2ca6359605f2fd6460451c2807cd34397432",
    "bench_standard": "26706235591a8edff3495f6a0d71a4a90bde81bb05268bcff8ca8e993d3ccc7f",
    "bench_no_sync": "eb6739d4fe5de1bc310d360993791f1872fb6ba1a2ee1c418d84cd7972335d5f",
    "bench_variability": "f83a62ff6c02787c3c3024661e159d9aa4d7a86da23f72569f93d2d5417b5214",
    # every variant of ablation_compare, in variant order
    "ablation": "9cd9e0d6ef435851d3eea4ef9f81af7785600208b3065e1495665df9fad4e431",
}


def digest(rows):
    h = hashlib.sha256()
    for seed, spins, H in rows:
        h.update(repr((int(seed), float(H))).encode())
        h.update(np.asarray(spins, dtype=np.int8).tobytes())
    return h.hexdigest()


def with_fields(n, seed):
    base = random_ising(n, Complete(), seed=seed)
    h = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    return IsingProblem(n, base.couplings, fields=h, name=f"fields-{n}-{seed}")


def mixed_spec(mode):
    """Small problems around one with fields and one above the packing limit."""
    problems = [random_ising(10, Complete(), seed=k) for k in range(6)]
    problems.append(with_fields(10, 6))
    problems.append(random_ising(300, Torus(15, 20), seed=7))
    problems += [random_ising(10, Complete(), seed=k) for k in range(8, 11)]
    entries = tuple((f"p{k}", p) for k, p in enumerate(problems))
    params = replace(PARAMS, normalize_by_degree=True)
    params = {"standard": params, "no_sync": params.without_sync(),
              "variability": replace(params, variability_pct=0.05)}[mode]
    return BenchmarkSpec(problems=entries, params=params, runs=12, seed_base=5)


def test_simulate_golden():
    p = with_fields(12, 1)
    prm = replace(PARAMS, variability_pct=0.02)
    rows = []
    for seed in range(4):
        r = simulate(p, prm, seed=seed)
        rows.append((r.seed, r.final_spins, r.final_H))
    assert digest(rows) == GOLDEN["simulate"]


def test_run_seeds_golden():
    p = random_ising(36, Torus(6, 6), seed=2)
    rows = [(r.seed, r.final_spins, r.final_H)
            for r in run_seeds(p, PARAMS, list(range(10)))]
    assert digest(rows) == GOLDEN["run_seeds"]


def test_packed_run_seeds_golden():
    spec = mixed_spec("variability")
    group = [problem for _, problem, _ in spec.problems]
    rows = [(r.seed, r.final_spins, r.final_H)
            for r in run_seeds(group, spec.params, spec.seeds())]
    assert digest(rows) == GOLDEN["mixed_run_seeds"]


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("mode", ["standard", "no_sync", "variability"])
def test_run_benchmark_golden(mode, parallelism):
    summary = run_benchmark(mixed_spec(mode), parallelism=parallelism)
    # records carry no spins; each problem's best run contributes them
    rows = [(r.seed, stats.best_spins if r.H == stats.best_H else (), r.H)
            for stats in summary.problems for r in stats.records]
    assert digest(rows) == GOLDEN[f"bench_{mode}"]


@pytest.mark.parametrize("parallelism", [1, 2])
def test_ablation_golden(parallelism):
    # 12 runs: one full 10-seed chunk and one partial chunk per variant
    params = replace(PARAMS, normalize_by_degree=True)
    result = ablation_compare(with_fields(20, 3), params, runs=12, seed_base=3,
                              total_weight=40.0, variability_pcts=(0.01, 0.05),
                              parallelism=parallelism)
    assert list(result.variants) == ["standard", "no_sync", "variability_0.01",
                                     "variability_0.05"]
    rows = [(r.seed, stats.best_spins if r.H == stats.best_H else (), r.H)
            for stats in result.variants.values() for r in stats.records]
    assert digest(rows) == GOLDEN["ablation"]
