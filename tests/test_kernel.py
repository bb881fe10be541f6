"""The compiled step kernel against its numpy reference, and the fallbacks.

The kernel advances a phase matrix by many steps per call; the numpy loop
over _advance is the reference. Every test here asks for equal bits.
"""

import dataclasses
import os
import shutil
import sys
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import oimsim.bench as bench
import oimsim.dynamics as dyn
from oimsim import (BenchmarkSpec, Complete, DynamicsParams, IsingProblem, KsSchedule, Torus,
                    NumericalDivergenceError, random_ising, run_benchmark)

TWO_PI = 2.0 * np.pi


def kernel_or_skip():
    kernel = dyn._load_kernel()
    if kernel is None:
        pytest.skip("the compiled step kernel is not available here")
    return kernel


@pytest.fixture
def fresh_loader():
    """Forget the loaded kernel before and after the test."""
    dyn._load_kernel.cache_clear()
    yield
    dyn._load_kernel.cache_clear()


def group():
    h = np.random.default_rng(3).uniform(-1.0, 1.0, 8)
    return [random_ising(8, Complete(), seed=1),
            IsingProblem(8, random_ising(8, Complete(), seed=2).couplings, fields=h)]


VARIANTS = (DynamicsParams(cycles=4.0, steps_per_cycle=30, noise_amp=0.2,
                           ks_schedule=KsSchedule.ramp(0.0, 2.0, 1.0)),)
VARIANTS += (VARIANTS[0].without_sync(),
             dataclasses.replace(VARIANTS[0], variability_pct=0.05))


@pytest.fixture(scope="module")
def reference():
    kernel_or_skip()
    Phi, _ = dyn._integrate_batch(group(), VARIANTS, [4, 5, 6])
    return Phi


def fallback_phases():
    assert dyn._load_kernel() is None
    Phi, _ = dyn._integrate_batch(group(), VARIANTS, [4, 5, 6])
    return Phi


class TestFallback:
    def test_no_compiler_is_silent(self, reference, fresh_loader, monkeypatch, tmp_path):
        monkeypatch.setenv("PATH", str(tmp_path))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Phi = fallback_phases()
        assert Phi.tobytes() == reference.tobytes()

    def test_unwritable_cache(self, reference, fresh_loader, monkeypatch, tmp_path):
        # a regular file where the cache directory should be: unwritable
        # even for root, and no compiler starts
        (tmp_path / "file").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
        monkeypatch.setattr(dyn.subprocess, "run", None)
        assert fallback_phases().tobytes() == reference.tobytes()

    def test_self_check_mismatch_warns_once(self, reference, fresh_loader, monkeypatch):
        real = dyn._steps

        def off_by_a_bit(Phi, *args):
            real(Phi, *args)
            Phi += 1e-9

        with monkeypatch.context() as m:
            m.setattr(dyn, "_steps", off_by_a_bit)
            with pytest.warns(RuntimeWarning) as record:
                assert dyn._load_kernel() is None
        assert len(record) == 1
        assert fallback_phases().tobytes() == reference.tobytes()

    def test_cold_build_then_warm_load(self, fresh_loader, monkeypatch, tmp_path):
        kernel_or_skip()
        dyn._load_kernel.cache_clear()
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        # another checkout's build, of another source: a build leaves it alone
        (tmp_path / "oimsim").mkdir()
        (tmp_path / "oimsim" / "_step-0123456789abcdef.so").write_text("other")
        assert dyn._load_kernel() is not None
        before = sorted(os.listdir(tmp_path / "oimsim"))
        assert len(before) == 2 and "_step-0123456789abcdef.so" in before
        assert all(f.startswith("_step-") and f.endswith(".so") for f in before)
        # a warm cache loads without a compiler
        dyn._load_kernel.cache_clear()
        monkeypatch.setattr(dyn.subprocess, "run", None)
        assert dyn._load_kernel() is not None
        assert sorted(os.listdir(tmp_path / "oimsim")) == before

    def test_pool_builds_once(self, fresh_loader, monkeypatch, tmp_path):
        # a cold cache and two unit threads: the compiler starts once, before
        # the threads; a shim logs each start and waits, so threads that built
        # on their own would overlap and both build
        kernel_or_skip()
        dyn._load_kernel.cache_clear()
        log, shim = tmp_path / "cc.log", tmp_path / "bin" / "cc"
        shim.parent.mkdir()
        shim.write_text(f'#!/bin/sh\necho start >> "{log}"\nsleep 0.5\n'
                        f'exec "{shutil.which("cc")}" "$@"\n')
        shim.chmod(0o755)
        monkeypatch.setenv("PATH", f"{shim.parent}{os.pathsep}{os.environ['PATH']}")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        spec = BenchmarkSpec(problems=(("a", group()[0]),), params=VARIANTS[0], runs=20)
        run_benchmark(spec, parallelism=2)  # two 10-seed units
        assert log.read_text().splitlines() == ["start"]


def test_trace_same_on_both_paths(monkeypatch):
    # 120 steps in one noise block: the kernel is called between samples
    runs = [dyn.simulate(group()[1], VARIANTS[0], seed=3, trace_points=7)]
    monkeypatch.setattr(dyn, "_load_kernel", lambda: None)
    runs.append(dyn.simulate(group()[1], VARIANTS[0], seed=3, trace_points=7))
    (a, b) = (r.trajectory_energy for r in runs)
    assert len(a.times) == 7
    for x, y in ((a.times, b.times), (a.lyapunov, b.lyapunov), (a.rounded_H, b.rounded_H),
                 (runs[0].final_spins, runs[1].final_spins)):
        assert np.asarray(x).tobytes() == np.asarray(y).tobytes()


@pytest.mark.parametrize("fused", [True, False])
def test_tracing_does_not_change_phases(fused, monkeypatch):
    # 301 steps at stride ceil(301 / 49) = 7 and 3-step noise blocks: the
    # trace cuts blocks short, and the last sample is not on the stride
    if fused:
        kernel_or_skip()
    else:
        monkeypatch.setattr(dyn, "_load_kernel", lambda: None)
    monkeypatch.setattr(dyn, "_MAX_NOISE_DOUBLES", 24)  # 24 // 8 spins
    prm = dataclasses.replace(VARIANTS[0], cycles=301 / 30, variability_pct=0.05)
    assert prm.total_steps == 301
    plain, none = dyn._integrate_batch(group()[1], prm, [3])
    traced, trace = dyn._integrate_batch(group()[1], prm, [3], trace_points=50)
    assert none is None and len(trace[0]) == 44
    assert plain.tobytes() == traced.tobytes()


@pytest.fixture
def split_small(monkeypatch):
    """Split even these few-spin integrations into one slice per thread."""
    monkeypatch.setattr(dyn, "_MIN_SLICE", 1)


@pytest.fixture
def slices(monkeypatch):
    """(pid, threads) of every integration, in the order they start."""
    log, real = [], dyn.ThreadPoolExecutor

    def logged(threads):
        log.append((os.getpid(), threads))
        return real(threads)

    monkeypatch.setattr(dyn, "ThreadPoolExecutor", logged)
    return log


@pytest.mark.usefixtures("split_small")
class TestDivergence:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("fused", [False, True])
    def test_same_error_on_both_paths(self, fused, monkeypatch):
        ok = IsingProblem(5, [(i, j, 1e-9) for i in range(5) for j in range(i + 1, 5)],
                          name="ok")
        bad = IsingProblem(4, [(0, 1, 0.91), (1, 2, -0.91), (2, 3, 0.91)], name="bad")
        # K*dt*|coupling term| overflows once the drift of 'bad' exceeds 1.797
        base = DynamicsParams(K=1e308, noise_amp=0.5, cycles=60.0, steps_per_cycle=1,
                              ks_schedule=KsSchedule.constant(0.5))
        params = (base, base.without_sync(),
                  dataclasses.replace(base, variability_pct=0.05)) if fused else base
        monkeypatch.setattr(dyn, "_MAX_NOISE_DOUBLES", 150)  # 4-step noise blocks
        found = []
        for load in (dyn._load_kernel, lambda: None):
            monkeypatch.setattr(dyn, "_load_kernel", load)
            for threads in (1, 2, 3):  # seed slices 3-6; 3-4, 5-6; 3, 4, 5-6
                monkeypatch.setattr(dyn, "_usable_cpus", lambda: threads)
                with pytest.raises(NumericalDivergenceError) as ei:
                    dyn._integrate_batch([ok, bad], params, [3, 4, 5, 6])
                found.append((ei.value.step, ei.value.seed, ei.value.problem))
        assert found == [(12, 3, "bad")] * 6

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("fused", [False, True])
    def test_earliest_block_wins_across_slices(self, fused, monkeypatch):
        # noiseless, SYNC-driven overflow of 'bad': seed 3 diverges at step 3,
        # seeds 4 and 5 at step 2, so at 2 and 3 threads a later slice names it
        if fused:
            kernel_or_skip()
        else:
            monkeypatch.setattr(dyn, "_load_kernel", lambda: None)
        ok = IsingProblem(2, [(0, 1, 1.0)], name="ok")
        bad = IsingProblem(2, [(0, 1, 1.5e308)], name="bad")
        prm = DynamicsParams(K=1.0, noise_amp=0.0, cycles=4.0, steps_per_cycle=1,
                             ks_schedule=KsSchedule.constant(5e307))
        init = np.zeros((4, 3))
        init[3] = [np.pi / 6, np.pi / 4, np.pi / 4]
        monkeypatch.setattr(dyn, "_MAX_NOISE_DOUBLES", 12)  # one-step blocks
        found = []
        for threads in (1, 2, 3):
            monkeypatch.setattr(dyn, "_usable_cpus", lambda: threads)
            with pytest.raises(NumericalDivergenceError) as ei:
                dyn._integrate_batch([ok, bad], prm, [3, 4, 5], initial_phases=init)
            found.append((ei.value.step, ei.value.seed, ei.value.problem))
        assert found == [(2, 4, "bad")] * 3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_stops_every_slice(self, monkeypatch):
        # one-step blocks over 4,000 steps: 'bad' diverges at step 2 in the
        # second slice, and the first stops soon after instead of at the end
        monkeypatch.setattr(dyn, "_load_kernel", lambda: None)
        calls, real = [], dyn._steps
        monkeypatch.setattr(dyn, "_steps", lambda *a: calls.append(1) or real(*a))
        monkeypatch.setattr(dyn, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(dyn, "_MAX_NOISE_DOUBLES", 8)
        bad = IsingProblem(2, [(0, 1, 1.5e308)], name="bad")
        prm = DynamicsParams(K=1.0, noise_amp=0.0, cycles=4000.0, steps_per_cycle=1,
                             ks_schedule=KsSchedule.constant(5e307))
        init = np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, np.pi / 4, 0.0]])
        with pytest.raises(NumericalDivergenceError) as ei:
            dyn._integrate_batch(bad, prm, [3, 4, 5, 6], initial_phases=init)
        assert (ei.value.step, ei.value.seed) == (2, 5)
        assert len(calls) < 2000  # 4,000 per slice if the first ran to the end

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_many_slices_switching_often(self, monkeypatch):
        # 12 one-seed slices on fewer cores, the interpreter switching threads
        # every microsecond: seed 9 (step 2) still wins over seed 4 (step 3)
        monkeypatch.setattr(dyn, "_usable_cpus", lambda: 12)
        monkeypatch.setattr(dyn, "_MAX_NOISE_DOUBLES", 24)  # one-step blocks
        bad = IsingProblem(2, [(0, 1, 1.5e308)], name="bad")
        prm = DynamicsParams(K=1.0, noise_amp=0.0, cycles=200.0, steps_per_cycle=1,
                             ks_schedule=KsSchedule.constant(5e307))
        init = np.zeros((2, 12))
        init[1, [4, 9]] = [np.pi / 6, np.pi / 4]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                with pytest.raises(NumericalDivergenceError) as ei:
                    dyn._integrate_batch(bad, prm, list(range(12)), initial_phases=init)
                assert (ei.value.step, ei.value.seed) == (2, 9)
        finally:
            sys.setswitchinterval(interval)


class TestSeedSlices:
    """An integration splits its seeds into one slice per thread; the bits
    must not depend on the split."""

    @pytest.mark.usefixtures("split_small")
    @pytest.mark.parametrize("fused", [True, False])
    @pytest.mark.parametrize("B", [1, 2, 3, 10])
    def test_same_bits_at_any_budget(self, B, fused, monkeypatch, slices):
        if fused:
            kernel_or_skip()
        else:
            monkeypatch.setattr(dyn, "_load_kernel", lambda: None)
        h = np.random.default_rng(4).uniform(-1.0, 1.0, 5)
        mixed = [random_ising(3, Complete(), seed=7), group()[1],
                 IsingProblem(5, random_ising(5, Complete(), seed=8).couplings, fields=h)]
        seeds = list(range(11, 11 + B))
        runs = []
        for threads in (1, 2, 3):
            monkeypatch.setattr(dyn, "_usable_cpus", lambda: threads)
            runs.append(dyn._integrate_batch(mixed, VARIANTS, seeds)[0].tobytes())
        assert runs[1:] == runs[:1] * 2
        assert [t for _, t in slices] == [1, min(2, B), min(3, B)]

    @pytest.mark.usefixtures("split_small")
    def test_pool_worker_gets_its_share(self, monkeypatch, slices):
        # 6 CPUs over 2 unit threads, in this process: 3 slices for each
        # unit's 10 seeds
        monkeypatch.setattr(bench, "_usable_cpus", lambda: 6)
        spec = BenchmarkSpec(problems=(("a", group()[0]),), params=VARIANTS[0], runs=20)
        run_benchmark(spec, parallelism=2)
        assert slices == [(os.getpid(), 3)] * 2

    @pytest.mark.usefixtures("split_small")
    def test_share_stays_in_the_unit_threads(self, monkeypatch, slices):
        # after a pooled run, this thread's integrations split over every
        # usable CPU again, not over a unit thread's share
        monkeypatch.setattr(bench, "_usable_cpus", lambda: 6)
        monkeypatch.setattr(dyn, "_usable_cpus", lambda: 4)
        spec = BenchmarkSpec(problems=(("a", group()[0]),), params=VARIANTS[0], runs=20)
        run_benchmark(spec, parallelism=2)
        dyn._integrate_batch(group()[1], VARIANTS[0], [1, 2, 3, 4])
        assert [t for _, t in slices] == [3, 3, 4]

    @pytest.mark.usefixtures("split_small")
    def test_traced_run_uses_one_slice(self, monkeypatch, slices):
        monkeypatch.setattr(dyn, "_usable_cpus", lambda: 4)
        dyn._integrate_batch(group()[1], VARIANTS[0], [1, 2, 3], trace_points=5)
        dyn._integrate_batch(group()[1], VARIANTS[0], [1, 2, 3])
        assert [t for _, t in slices] == [1, 3]

    def test_small_integrations_keep_one_thread(self, monkeypatch, slices):
        # each thread needs _MIN_SLICE = 256 phases: 100 spins x 2 seeds
        # stay on one, x 6 seeds (600 phases) split in two, x 3 variants of
        # 2 seeds too, and 800 spins x 10 seeds take all 4 threads
        assert dyn._MIN_SLICE == 256
        monkeypatch.setattr(dyn, "_usable_cpus", lambda: 4)
        prm = dataclasses.replace(VARIANTS[0], cycles=0.1)
        torus = random_ising(100, Torus(10, 10), seed=1)
        dyn._integrate_batch(torus, prm, [1, 2])
        dyn._integrate_batch(torus, prm, list(range(6)))
        dyn._integrate_batch(torus, (prm, prm.without_sync(), prm), [1, 2])
        dyn._integrate_batch(random_ising(800, Torus(20, 40), seed=1), prm, list(range(10)))
        assert [t for _, t in slices] == [1, 2, 2, 4]


@st.composite
def probes(draw):
    """A phase matrix and one noise block's stepping arguments, for a packed
    group of 1-3 problems of different sizes, C up to 20 columns, and draws
    that may start at a step offset into a longer block (the integrator
    always reads from offset 0; the kernel takes any base)."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3, unique=True))
    n = sum(sizes)
    B = draw(st.integers(1, 5))
    C = B * draw(st.integers(1, 4))
    L = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    adj = sp.csr_matrix(rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.5))
    h_col = rng.normal(size=(n, 1)) if draw(st.booleans()) else None
    Kdt = rng.uniform(0.0, 0.2, (n, 1))
    ks_cols = rng.uniform(0.0, 0.2, (L, C))
    ks_cols[:, rng.integers(C)] = 0.0  # a column without SYNC
    ks_on = rng.random(L) < 0.7
    dt_dw = rng.normal(0.0, 0.1, (n, C)) if draw(st.booleans()) else None
    noise = None
    if draw(st.booleans()):
        skip = draw(st.integers(0, 2))
        base, stride = dyn._noise_rows(sizes, L + skip)
        noise = (rng.normal(size=(B, (L + skip) * n)), base + skip * stride, stride,
                 draw(st.sampled_from([0.1, 10.0])))
    Phi = rng.uniform(-draw(st.sampled_from([TWO_PI, 100.0])), 2 * TWO_PI, (n, C))
    return Phi, (adj, h_col, Kdt, dt_dw, noise), (ks_cols, ks_on)


@given(probes())
@settings(max_examples=60, deadline=None)
def test_kernel_equals_numpy_steps(probe):
    kernel = kernel_or_skip()
    Phi, args, block = probe
    ref, out = Phi.copy(), Phi.copy()
    dyn._steps(ref, *args, *block)
    kernel(out, *args)(*block)
    assert ref.tobytes() == out.tobytes()
