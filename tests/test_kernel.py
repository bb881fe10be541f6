"""The compiled step kernel against its numpy reference, and the fallbacks.

The kernel advances a phase matrix by many steps per call; the numpy loop
over _advance is the reference. Every test here asks for equal bits.
"""

import dataclasses
import os
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import oimsim.dynamics as dyn
from oimsim import (Complete, DynamicsParams, IsingProblem, KsSchedule,
                    NumericalDivergenceError, random_ising)

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
        assert dyn._load_kernel() is not None
        built = os.listdir(tmp_path / "oimsim")
        assert len(built) == 1 and built[0].startswith("_step-") and built[0].endswith(".so")
        # a warm cache loads without a compiler
        dyn._load_kernel.cache_clear()
        monkeypatch.setattr(dyn.subprocess, "run", None)
        assert dyn._load_kernel() is not None
        assert os.listdir(tmp_path / "oimsim") == built


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
            with pytest.raises(NumericalDivergenceError) as ei:
                dyn._integrate_batch([ok, bad], params, [3, 4, 5, 6])
            found.append((ei.value.step, ei.value.seed, ei.value.problem))
        assert found == [(12, 3, "bad")] * 2


@st.composite
def probes(draw):
    """A phase matrix and one noise block's stepping arguments."""
    n = draw(st.integers(1, 9))
    B = draw(st.integers(1, 4))
    C = B * draw(st.integers(1, 3))
    L = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    adj = sp.csr_matrix(rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.5))
    h_col = rng.normal(size=(n, 1)) if draw(st.booleans()) else None
    Kdt = rng.uniform(0.0, 0.2, (n, 1))
    ks_cols = rng.uniform(0.0, 0.2, (L, C))
    ks_cols[:, rng.integers(C)] = 0.0  # a column without SYNC
    ks_on = rng.random(L) < 0.7
    dt_dw = rng.normal(0.0, 0.1, (n, C)) if draw(st.booleans()) else None
    noise = rng.normal(0.0, draw(st.sampled_from([0.1, 10.0])), (L, n, B)) \
        if draw(st.booleans()) else None
    Phi = rng.uniform(-draw(st.sampled_from([TWO_PI, 100.0])), 2 * TWO_PI, (n, C))
    return Phi, (adj, h_col, Kdt, ks_cols, ks_on, dt_dw, noise)


@given(probes())
@settings(max_examples=60, deadline=None)
def test_kernel_equals_numpy_steps(probe):
    kernel = kernel_or_skip()
    Phi, args = probe
    ref, out = Phi.copy(), Phi.copy()
    dyn._steps(ref, *args, dyn._workspace(Phi.shape))
    kernel(out, *args, dyn._workspace(Phi.shape))
    assert ref.tobytes() == out.tobytes()
