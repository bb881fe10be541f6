"""Acceptance suite: one test per criterion, at the stated tolerances.

Criteria tied to the published G1/G11 instance files skip when those files
are absent (see README for how to fetch them) and are accompanied by
same-family surrogate twins on generated instances that always run. The
surrogate reference cuts were produced by the long-anneal oracle
(SaParams.long_run, 1e7 flips, best of 2 seeds) on the fixed generated
instances; regenerate them with tests/surrogates.py.
"""

import functools
import itertools
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from oimsim import (BenchmarkSpec, Complete, DynamicsParams, IsingProblem,
                    KsSchedule, PhaseState, SaParams, ablation_compare, drift, hamiltonian,
                    load_gset, lyapunov, maxcut_to_ising, parse_gset,
                    random_ising, random_spins, run_benchmark, simulate,
                    simulated_annealing, step, write_gset)
from conftest import gset_dir, require_gset
from surrogates import er_800_graph, torus_800_graph, SURROGATE_REFS

WORKERS = 2


def batched_cuts(graph, params, seeds):
    """Cut values for the given seeds, fanned out over the harness pool."""
    problem = maxcut_to_ising(graph)
    spec = BenchmarkSpec(problems=((graph.name or "g", problem, graph.total_weight),),
                         params=params, runs=len(seeds), seed_base=seeds[0])
    stats = run_benchmark(spec, parallelism=WORKERS).problems[0]
    assert [r.seed for r in stats.records] == list(seeds)
    return [r.cut for r in stats.records]


@functools.cache
def paired_cuts(source):
    """Cuts of seeds 0-19 with shipped defaults, without SYNC and at 5%
    frequency spread, on the torus_800 surrogate or a G-set file: one
    ablation_compare per graph, shared by c05, c06 and c07. Its variants
    share one integration, and each result equals a separate run."""
    graph = torus_800_graph() if source == "torus_800" else load_gset(source)
    result = ablation_compare(maxcut_to_ising(graph), DynamicsParams(), runs=20, seed_base=0,
                              total_weight=graph.total_weight, variability_pcts=(0.05,),
                              parallelism=WORKERS)
    cuts = {}
    for label in ("standard", "no_sync", "variability_0.05"):
        assert [r.seed for r in result[label].records] == list(range(20))
        cuts[label] = [r.cut for r in result[label].records]
    return cuts


def edge_lyapunov_cols(problem, Phi, K, ks):
    """Independent edge-list evaluation of the energy, column-wise."""
    ei, ej, jv = problem.edge_arrays
    pair = jv @ np.cos(Phi[ei] - Phi[ej]) if len(jv) else 0.0
    e = -K * (pair + problem.h @ np.cos(Phi))
    return e - 0.5 * ks * np.sum(np.cos(2.0 * Phi), axis=0)


# -- 1 -------------------------------------------------------------------------

def test_c01_gradient_consistency():
    """drift == -grad(lyapunov) via central finite differences, rel < 1e-6."""
    t_start = time.perf_counter()
    fd = 1e-5
    worst = 0.0
    for pseed in range(20):
        rng = np.random.default_rng(pseed)
        n = 50
        edges = [(i, j, float(rng.choice([-1.0, 1.0])))
                 for i in range(n) for j in range(i + 1, n)]
        problem = IsingProblem(n, edges, fields=rng.uniform(-1, 1, n))
        params = DynamicsParams(K=1.0, ks_schedule=KsSchedule.constant(1.0))
        ks = 1.0

        # tie the independent edge-list oracle to the implementation once
        phi0 = rng.uniform(0, 2 * np.pi, n)
        assert edge_lyapunov_cols(problem, phi0[:, None], 1.0, ks)[0] == \
            pytest.approx(lyapunov(problem, PhaseState(phi0), params), rel=1e-12)

        for _ in range(100):
            phi = rng.uniform(0, 2 * np.pi, n)
            d = drift(problem, PhaseState(phi), params)
            pert = np.tile(phi[:, None], (1, 2 * n))
            idx = np.arange(n)
            pert[idx, 2 * idx] += fd
            pert[idx, 2 * idx + 1] -= fd
            cols = edge_lyapunov_cols(problem, pert, 1.0, ks)
            grad = (cols[0::2] - cols[1::2]) / (2 * fd)
            rel = np.max(np.abs(d + grad) / np.maximum(np.abs(d), 1e-3))
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t_start
    assert worst < 1e-6, f"worst relative error {worst:g}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s (budget 10s)"


# -- 2 -------------------------------------------------------------------------

def test_c02_binary_phase_identity():
    """E(binary phases) == K*H(s) - n*Ks/2 exactly (1e-12), exhaustively."""
    for n in range(1, 11):
        rng = np.random.default_rng(n)
        edges = [(i, j, float(rng.integers(-2, 3)) or 1.0)
                 for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6]
        problem = IsingProblem(n, edges, fields=rng.uniform(-1, 1, n))
        K, ks = 1.25, 0.75
        params = DynamicsParams(K=K, ks_schedule=KsSchedule.constant(ks))
        for bits in itertools.product([0.0, np.pi], repeat=n):
            phi = np.array(bits)
            s = np.cos(phi).astype(np.int8)
            e = lyapunov(problem, PhaseState(phi), params)
            expect = K * hamiltonian(problem, s) - n * ks / 2
            assert abs(e - expect) <= 1e-12 * max(1.0, abs(expect)), \
                f"n={n} bits={bits}: {e} vs {expect}"


# -- 3 -------------------------------------------------------------------------

def test_c03_lyapunov_descent():
    """Noiseless trajectories never raise E by more than 1e-8*(1+|E|) per step."""
    for pseed in range(10):
        problem = random_ising(100, Complete(), seed=pseed)
        params = DynamicsParams(noise_amp=0.0, steps_per_cycle=200, cycles=100.0,
                                ks_schedule=KsSchedule.constant(1.0))
        rng = np.random.default_rng(1000 + pseed)
        st = PhaseState(rng.uniform(0, 2 * np.pi, 100))
        e = lyapunov(problem, st, params)
        for _ in range(params.total_steps):
            st = step(st, problem, params)
            e_next = lyapunov(problem, st, params)
            assert e_next <= e + 1e-8 * (1 + abs(e)), \
                f"ascent at t={st.time:g} on problem {pseed}"
            e = e_next


# -- 4 -------------------------------------------------------------------------

def test_c04_small_instance_optimality():
    """Best-of-10 default runs match brute force on >= 90% of 50 problems."""
    t_start = time.perf_counter()
    problems = tuple((f"p{k}", random_ising(10, Complete(), seed=k))
                     for k in range(50))
    spec = BenchmarkSpec(problems=problems, params=DynamicsParams(),
                         runs=10, seed_base=0, oracle="brute")
    summary = run_benchmark(spec, parallelism=WORKERS)
    hits = sum(1 for s in summary.problems if s.success >= 1)
    elapsed = time.perf_counter() - t_start
    assert hits >= 45, f"only {hits}/50 reached the exact optimum"
    assert elapsed < 120.0, f"took {elapsed:.0f}s (budget 2 min)"


# -- 5 -------------------------------------------------------------------------

def test_c05_g11_target(g11_path):
    """Best-of-20 with shipped defaults reaches cut >= 552 on G11."""
    graph = load_gset(g11_path)
    # single-threaded per-run wall time, measured on one plain run
    t0 = time.perf_counter()
    simulate(maxcut_to_ising(graph), DynamicsParams(), seed=0)
    per_run = time.perf_counter() - t0
    cuts = paired_cuts(str(g11_path))["standard"]
    assert max(cuts) >= 552, f"best cut {max(cuts)} < 552"
    assert per_run < 60.0, f"{per_run:.1f}s per run (budget 60s)"


def test_c05_g1_target(g1_path):
    """Best-of-20 with shipped defaults reaches cut >= 11500 on G1."""
    graph = load_gset(g1_path)
    cuts = batched_cuts(graph, DynamicsParams(), list(range(20)))
    assert max(cuts) >= 11500, f"best cut {max(cuts)} < 11500"


def test_c05_surrogate_torus_target():
    """Same-family stand-in: best-of-20 >= 98% of the long-anneal reference."""
    ref = SURROGATE_REFS["torus_800"]
    cuts = paired_cuts("torus_800")["standard"]
    assert max(cuts) >= math.ceil(0.98 * ref), \
        f"best cut {max(cuts)} < 98% of reference {ref}"


def test_c05_surrogate_er_target():
    """Same-family stand-in: best-of-20 >= 98.9% of the long-anneal reference."""
    graph = er_800_graph()
    ref = SURROGATE_REFS["er_800"]
    cuts = batched_cuts(graph, DynamicsParams(), list(range(20)))
    assert max(cuts) >= math.ceil(0.989 * ref), \
        f"best cut {max(cuts)} < 98.9% of reference {ref}"


@pytest.mark.skipif("not config.getoption('--stretch')",
                    reason="stretch target (non-blocking): run with --stretch")
def test_c05_stretch_best_of_100(g11_path, g1_path):
    """Non-blocking stretch: best-of-100 hits the published 564 / 11624."""
    for path, target in ((g11_path, 564), (g1_path, 11624)):
        graph = load_gset(path)
        cuts = batched_cuts(graph, DynamicsParams(), list(range(100)))
        print(f"{graph.name}: best of 100 = {max(cuts)} (target {target})")
        assert max(cuts) >= target


# -- 6 -------------------------------------------------------------------------

def _no_sync_gap(cuts):
    gap = np.array(cuts["standard"], dtype=float) - np.array(cuts["no_sync"], dtype=float)
    se = np.std(gap, ddof=1) / np.sqrt(len(gap))
    return float(np.mean(gap)), float(se)


def test_c06_no_sync_ablation(g11_path):
    """Mean cut without SYNC is lower by more than 5 paired standard errors."""
    mean_gap, se = _no_sync_gap(paired_cuts(str(g11_path)))
    assert mean_gap > 0, f"no-SYNC gap {mean_gap:g} not positive"
    assert mean_gap > 5 * se, f"gap {mean_gap:g} <= 5*SE ({se:g})"


def test_c06_surrogate_no_sync_ablation():
    mean_gap, se = _no_sync_gap(paired_cuts("torus_800"))
    assert mean_gap > 0
    assert mean_gap > 5 * se, f"gap {mean_gap:g} <= 5*SE ({se:g})"


# -- 7 -------------------------------------------------------------------------

def _variability_ratio(cuts):
    return float(np.mean(cuts["variability_0.05"])) / float(np.mean(cuts["standard"]))


def test_c07_variability_robustness(g11_path):
    """Mean cut of 20 runs at 5% frequency spread >= 98% of nominal."""
    ratio = _variability_ratio(paired_cuts(str(g11_path)))
    assert ratio >= 0.98, f"5% variability retains only {ratio:.3f} of nominal"


def test_c07_surrogate_variability_robustness():
    ratio = _variability_ratio(paired_cuts("torus_800"))
    assert ratio >= 0.98, f"5% variability retains only {ratio:.3f} of nominal"


# -- 8 -------------------------------------------------------------------------

def test_c08_random_solution_baseline():
    """Mean H of 1000 random assignments on a 240-spin instance is ~0."""
    problem = random_ising(240, Complete(), seed=0)
    rng = np.random.default_rng(1)
    vals = np.array([hamiltonian(problem, random_spins(240, rng))
                     for _ in range(1000)])
    assert abs(vals.mean()) <= 3 * vals.std(ddof=1) / np.sqrt(1000)


# -- 9 -------------------------------------------------------------------------

def test_c09_sa_oracle_on_g11(g11_path):
    """SA with 1e7 flips reaches cut >= 553 on G11 (within 2% of 564)."""
    graph = load_gset(g11_path)
    problem = maxcut_to_ising(graph)
    _, best_H = simulated_annealing(problem, SaParams.long_run(10_000_000, seed=0))
    cut = (graph.total_weight - best_H) / 2
    assert cut >= 553, f"SA cut {cut} < 553"


def test_c09_surrogate_sa_oracle():
    """SA with 1e7 flips lands within 2% of the long-anneal reference."""
    graph = torus_800_graph()
    problem = maxcut_to_ising(graph)
    _, best_H = simulated_annealing(problem, SaParams.long_run(10_000_000, seed=5))
    cut = (graph.total_weight - best_H) / 2
    assert cut >= 0.98 * SURROGATE_REFS["torus_800"]


# -- 10 ------------------------------------------------------------------------

def test_c10_gset_round_trip():
    """parse -> write -> parse is exact on all available G-set files."""
    directory = gset_dir()
    files = sorted(p for p in directory.glob("G*") if p.is_file()) \
        if directory.is_dir() else []
    if not files:
        pytest.skip(f"no G-set files available in {directory}")
    for path in files:
        g = load_gset(path)
        text = write_gset(g)
        again = parse_gset(text, name=g.name)
        assert again == g, f"round trip changed {path.name}"
        assert write_gset(again) == text


def test_c10_g1_dimensions(g1_path):
    """G1 parses to 800 vertices and 19176 edges."""
    g = load_gset(g1_path)
    assert g.n_vertices == 800
    assert g.num_edges == 19176


def test_c10_surrogate_round_trip():
    """Round-trip exactness on a generated graph of G1's dimensions."""
    g = er_800_graph()
    text = write_gset(g)
    again = parse_gset(text)
    assert again == g
    assert write_gset(again) == text


# -- 11 ------------------------------------------------------------------------

def test_c11_cli_determinism(tmp_path):
    """Repeated CLI invocations give byte-identical results, timing aside."""
    from oimsim import write_ising_json
    inp = tmp_path / "problem.json"
    inp.write_text(write_ising_json(random_ising(12, Complete(), seed=4)))
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.json"
        cmd = [sys.executable, "-m", "oimsim.cli", "solve",
               "--input", str(inp), "--runs", "5", "--cycles", "50",
               "--seed", "3", "--threads", "2", "--out", str(out)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    a = json.loads(outs[0].read_text())
    b = json.loads(outs[1].read_text())
    a.pop("timing")
    b.pop("timing")
    # flags differ only in --out; normalize argv before comparing bytes
    a["meta"]["argv"] = b["meta"]["argv"] = None
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    # gen and convert are deterministic end to end
    g1 = subprocess.run([sys.executable, "-m", "oimsim.cli", "gen", "--spins",
                         "16", "--topology", "complete", "--seed", "2"],
                        capture_output=True, text=True)
    g2 = subprocess.run([sys.executable, "-m", "oimsim.cli", "gen", "--spins",
                         "16", "--topology", "complete", "--seed", "2"],
                        capture_output=True, text=True)
    assert g1.returncode == g2.returncode == 0
    assert g1.stdout == g2.stdout
