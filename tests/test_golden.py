"""Golden hashes of per-seed results: the integrator's numerics are frozen.

Each case hashes every run's (seed, final spins, final H) in order. Running
singly, batched, packed with other problems, or on several unit threads must
not change a single bit. A change that alters the numerics on purpose
updates these hashes and says so in CHANGES.md.

The module-level tests run the default integrator: the compiled step
kernel wherever it loads, on as many threads as the process has CPUs.
TestNumpyPath runs each of them again on the numpy reference loop, and
TestThreadBudgets on both paths at one and at two threads per integration.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

import oimsim.dynamics as dyn
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
    "mixed_run_seeds": "db2a5406635a8436a03f572e7f82d92705356185b3eadb03476c249d1f3e9413",
    "bench_standard": "fa8aad54461268c05ffa5b29ecc190bd41de7c77e1ffedc275dbf58d213323f3",
    "bench_no_sync": "cb1327a088cd80c5a8890aa21df7cd9f3b07a4ffcd15bb40406b6e6e2e94509d",
    "bench_variability": "e1f09b5522fae41107b4b8a8f57b9fee48836a069ebdd3bfada3ce3cb1ea3e50",
    # every variant of ablation_compare, in variant order
    "ablation": "fbedd698da8dc9bad4ed500cb818d38235aa9abe4d9524bd2113f621ba8dcda6",
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
    params = replace(PARAMS, K=0.25)
    params = {"standard": params, "no_sync": params.without_sync(),
              "variability": replace(params, variability_pct=0.05)}[mode]
    return BenchmarkSpec(problems=entries, params=params, runs=12, seed_base=5)


def test_simulate_golden():
    p = with_fields(12, 1)
    prm = replace(PARAMS, variability_pct=0.02)
    rows = []
    for seed in range(4):
        r = simulate(p, prm, seed=seed)
        rows.append((r.seed, r.spins, r.H))
    assert digest(rows) == GOLDEN["simulate"]


def test_run_seeds_golden():
    p = random_ising(36, Torus(6, 6), seed=2)
    rows = [(r.seed, r.spins, r.H)
            for r in run_seeds(p, PARAMS, list(range(10)))]
    assert digest(rows) == GOLDEN["run_seeds"]


def test_packed_run_seeds_golden():
    spec = mixed_spec("variability")
    group = [problem for _, problem, _ in spec.problems]
    rows = [(r.seed, r.spins, r.H)
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
    params = replace(PARAMS, K=0.25)
    result = ablation_compare(with_fields(20, 3), params, runs=12, seed_base=3,
                              total_weight=40.0, variability_pcts=(0.01, 0.05),
                              parallelism=parallelism)
    assert list(result.variants) == ["standard", "no_sync", "variability_0.01",
                                     "variability_0.05"]
    rows = [(r.seed, stats.best_spins if r.H == stats.best_H else (), r.H)
            for stats in result.variants.values() for r in stats.records]
    assert digest(rows) == GOLDEN["ablation"]


class TestNumpyPath:
    @pytest.fixture(autouse=True)
    def numpy_integrator(self, monkeypatch):
        # run_benchmark's unit threads integrate through this module too
        monkeypatch.setattr(dyn, "_load_kernel", lambda: None)

    test_simulate_golden = staticmethod(test_simulate_golden)
    test_run_seeds_golden = staticmethod(test_run_seeds_golden)
    test_packed_run_seeds_golden = staticmethod(test_packed_run_seeds_golden)
    test_run_benchmark_golden = staticmethod(test_run_benchmark_golden)
    test_ablation_golden = staticmethod(test_ablation_golden)


class TestThreadBudgets:
    @pytest.fixture(autouse=True, params=[(1, "kernel"), (2, "kernel"), (1, "numpy"),
                                          (2, "numpy")], ids=lambda p: f"{p[1]}-{p[0]}")
    def budget(self, request, monkeypatch):
        # integrations on this thread (run_benchmark's too, at parallelism 1)
        # split their seeds over this many threads, however few phases each
        # slice gets; at parallelism 2 the unit threads keep their share of
        # the real CPUs
        threads, path = request.param
        monkeypatch.setattr(dyn, "_usable_cpus", lambda: threads)
        monkeypatch.setattr(dyn, "_MIN_SLICE", 1)
        if path == "numpy":
            monkeypatch.setattr(dyn, "_load_kernel", lambda: None)

    test_simulate_golden = staticmethod(test_simulate_golden)
    test_run_seeds_golden = staticmethod(test_run_seeds_golden)
    test_packed_run_seeds_golden = staticmethod(test_packed_run_seeds_golden)
    test_run_benchmark_golden = staticmethod(test_run_benchmark_golden)
    test_ablation_golden = staticmethod(test_ablation_golden)
