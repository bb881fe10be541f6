"""Tests for the oscillator phase dynamics and its Lyapunov function."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oimsim import (Complete, DynamicsParams, IsingProblem, KsSchedule,
                    NumericalDivergenceError, PhaseState, Torus, drift,
                    hamiltonian, ks_value, lyapunov, random_ising,
                    round_phases, run_seeds, sample_detuning, simulate, step)
from oimsim.dynamics import _STREAM_INIT, _STREAM_NOISE, _substream


def params_with(ks_level=1.0, **kw):
    kw.setdefault("ks_schedule", KsSchedule.constant(ks_level))
    return DynamicsParams(**kw)


def random_problem(n, seed, with_fields=False):
    rng = np.random.default_rng(seed)
    edges = [(i, j, float(rng.choice([-1.0, 1.0])))
             for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    h = rng.uniform(-1, 1, n) if with_fields else None
    return IsingProblem(n, edges, fields=h)


class TestKsSchedule:
    def test_constant(self):
        s = KsSchedule.constant(1.0)
        for t in (0.0, 123.4, 1000.0):
            assert ks_value(s, t) == 1.0

    def test_ramp_interpolates(self):
        s = KsSchedule.ramp(0, 250, 1.0)
        assert ks_value(s, 125) == 0.5
        assert ks_value(s, 0) == 0.0
        assert ks_value(s, 1000) == 1.0

    def test_ramp_before_start(self):
        s = KsSchedule.ramp(100, 200, 2.0)
        assert ks_value(s, 50) == 0.0
        assert ks_value(s, 150) == 1.0
        assert ks_value(s, 300) == 2.0

    def test_vectorized(self):
        s = KsSchedule.ramp(0, 10, 1.0)
        out = ks_value(s, np.array([0.0, 5.0, 20.0]))
        assert np.allclose(out, [0.0, 0.5, 1.0])


class TestDrift:
    def test_antiphase_is_equilibrium(self):
        p = IsingProblem(2, [(0, 1, 1.0)])
        st = PhaseState(np.array([0.0, np.pi]))
        d = drift(p, st, params_with(ks_level=0.0))
        assert np.allclose(d, [0.0, 0.0], atol=1e-12)

    def test_ferromagnetic_attraction(self):
        p = IsingProblem(2, [(0, 1, 1.0)])
        st = PhaseState(np.array([0.0, np.pi / 2]))
        d = drift(p, st, params_with(ks_level=0.0))
        assert np.allclose(d, [1.0, -1.0])

    def test_shil_pulls_to_lock(self):
        p = IsingProblem(1, [])
        st = PhaseState(np.array([np.pi / 4]))
        d = drift(p, st, params_with(ks_level=1.0))
        assert np.allclose(d, [-1.0])

    def test_no_sync_equals_zero_ks(self):
        p = random_problem(8, 3)
        st = PhaseState(np.random.default_rng(0).uniform(0, 2 * np.pi, 8))
        off = drift(p, st, DynamicsParams(sync_enabled=False))
        zero = drift(p, st, params_with(ks_level=0.0))
        assert np.array_equal(off, zero)

    def test_detuning_adds(self):
        p = IsingProblem(2, [(0, 1, 1.0)])
        st = PhaseState(np.array([0.0, np.pi]))
        dw = np.array([0.3, -0.2])
        d = drift(p, st, params_with(ks_level=0.0), detuning=dw)
        assert np.allclose(d, dw, atol=1e-12)


class TestLyapunov:
    def test_shil_well_maximum(self):
        p = IsingProblem(1, [])
        st = PhaseState(np.array([np.pi / 2]))
        e = lyapunov(p, st, params_with(ks_level=1.0))
        assert e == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_binary_phase_identity(self, seed):
        # E at phases in {0, pi} equals K*H(s) - n*Ks/2 with s = cos(phi)
        n = 7
        p = random_problem(n, seed, with_fields=(seed % 2 == 0))
        K, ks = 1.3, 0.7
        prm = params_with(ks_level=ks, K=K)
        for bits in itertools.product([0.0, np.pi], repeat=n):
            phi = np.array(bits)
            s = np.cos(phi).astype(np.int8)
            e = lyapunov(p, PhaseState(phi), prm)
            assert e == pytest.approx(K * hamiltonian(p, s) - n * ks / 2,
                                      abs=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_drift_is_negative_gradient(self, seed):
        n = 12
        p = random_problem(n, seed, with_fields=True)
        prm = params_with(ks_level=0.8, K=1.1)
        rng = np.random.default_rng(seed + 100)
        h = 1e-5
        for _ in range(10):
            phi = rng.uniform(0, 2 * np.pi, n)
            d = drift(p, PhaseState(phi), prm)
            grad = np.empty(n)
            for k in range(n):
                up, dn = phi.copy(), phi.copy()
                up[k] += h
                dn[k] -= h
                grad[k] = (lyapunov(p, PhaseState(up), prm)
                           - lyapunov(p, PhaseState(dn), prm)) / (2 * h)
            ref = np.maximum(np.abs(d), 1e-3)
            assert np.max(np.abs(d + grad) / ref) < 1e-6


class TestSampleDetuning:
    def test_zero_pct(self):
        assert np.array_equal(sample_detuning(10, 0.0, seed=4), np.zeros(10))

    def test_distribution(self):
        dw = sample_detuning(10_000, 0.05, seed=1)
        delta = dw / (2 * np.pi)
        assert abs(np.std(delta) - 0.05) < 0.05 * 0.03

    def test_determinism(self):
        a = sample_detuning(100, 0.01, seed=9)
        b = sample_detuning(100, 0.01, seed=9)
        assert np.array_equal(a, b)


class TestStep:
    def test_fixed_point_unchanged(self):
        p = IsingProblem(2, [(0, 1, 1.0)])
        st = PhaseState(np.array([0.0, np.pi]))
        prm = params_with(ks_level=1.0, noise_amp=0.0)
        nxt = step(st, p, prm)
        assert np.allclose(nxt.phases, st.phases, atol=1e-12)
        assert nxt.time == pytest.approx(prm.dt)

    def test_one_step_hand_value(self):
        p = IsingProblem(1, [])
        st = PhaseState(np.array([np.pi / 4]))
        prm = params_with(ks_level=1.0, noise_amp=0.0, steps_per_cycle=100)
        nxt = step(st, p, prm)
        assert nxt.phases[0] == pytest.approx(np.pi / 4 - 0.01, abs=1e-12)

    def test_pure_noise_diffusion(self):
        # no couplings, no fields, Ks=0: variance grows like noise^2 * t
        n = 400
        p = IsingProblem(n, [])
        prm = params_with(ks_level=0.0, noise_amp=0.2, steps_per_cycle=100)
        st = PhaseState(np.full(n, np.pi))
        rng = np.random.default_rng(5)
        for _ in range(100):  # t = 1 cycle
            st = step(st, p, prm, rng=rng)
        var = np.var(st.phases - np.pi)
        assert var == pytest.approx(0.2 ** 2, rel=0.25)

    def test_wraps_into_range(self):
        p = IsingProblem(1, [])
        st = PhaseState(np.array([2 * np.pi - 1e-4]))
        prm = params_with(ks_level=0.0, noise_amp=0.5)
        nxt = step(st, p, prm, rng=np.random.default_rng(0))
        assert 0 <= nxt.phases[0] < 2 * np.pi


class TestRoundPhases:
    def test_values(self):
        st = PhaseState(np.array([0.1, np.pi - 0.1, 2 * np.pi + 0.2]))
        assert list(round_phases(st)) == [1, -1, 1]

    def test_tie_at_quarter(self):
        assert round_phases(np.array([np.pi / 2]))[0] in (-1, 1)
        # cos slightly positive/negative around the boundary
        assert round_phases(np.array([np.pi / 2 - 1e-6]))[0] == 1
        assert round_phases(np.array([np.pi / 2 + 1e-6]))[0] == -1


class TestSimulate:
    def test_determinism(self):
        p = random_problem(6, 2)
        prm = params_with(cycles=20.0)
        a = simulate(p, prm, seed=7)
        b = simulate(p, prm, seed=7)
        assert np.array_equal(a.final_spins, b.final_spins)
        assert a.final_H == b.final_H
        assert a.final_H == hamiltonian(p, a.final_spins)

    def test_two_spin_ground_state(self):
        p = IsingProblem(2, [(0, 1, 1.0)])
        prm = params_with(cycles=100.0)
        hits = sum(simulate(p, prm, seed=s).final_H == -1.0 for s in range(10))
        assert hits >= 9

    def test_matches_manual_stepping(self):
        # chunked noise and the batched kernel reproduce plain step() calls
        p = random_problem(5, 8)
        prm = params_with(ks_level=0.9, cycles=3.0, steps_per_cycle=50,
                          noise_amp=0.15)
        seed = 13
        res = simulate(p, prm, seed=seed)
        phi = _substream(seed, _STREAM_INIT).random(5) * 2 * np.pi
        st = PhaseState(phi)
        rng = _substream(seed, _STREAM_NOISE)
        for _ in range(prm.total_steps):
            st = step(st, p, prm, rng=rng)
        assert np.array_equal(round_phases(st), res.final_spins)

    def test_batch_equals_single_runs(self):
        p = random_problem(9, 1)
        prm = params_with(cycles=5.0, noise_amp=0.1)
        batch = run_seeds(p, prm, seeds=list(range(6)))
        for seed, r in zip(range(6), batch):
            single = simulate(p, prm, seed=seed)
            assert np.array_equal(r.final_spins, single.final_spins)
            assert r.final_H == single.final_H

    def test_global_flip_symmetry(self):
        p = random_problem(10, 4)  # h = 0
        prm = params_with(cycles=10.0)
        phi0 = np.random.default_rng(3).uniform(0, 2 * np.pi, 10)
        a = simulate(p, prm, seed=5, initial_phases=phi0)
        b = simulate(p, prm, seed=5, initial_phases=phi0 + np.pi)
        assert a.final_H == b.final_H
        assert np.array_equal(a.final_spins, -b.final_spins)

    def test_variability_changes_nothing_at_zero(self):
        import dataclasses
        p = random_problem(6, 6)
        prm = params_with(cycles=5.0)
        a = simulate(p, prm, seed=2)
        b = simulate(p, dataclasses.replace(prm, variability_pct=0.0), seed=2)
        assert np.array_equal(a.final_spins, b.final_spins)

    def test_trace(self):
        p = random_problem(6, 9)
        prm = params_with(cycles=4.0, steps_per_cycle=50)
        res = simulate(p, prm, seed=0, trace_points=50)
        tr = res.trajectory_energy
        assert tr is not None
        assert len(tr.times) <= 50
        assert tr.times[0] == 0.0
        assert tr.times[-1] == pytest.approx(4.0)
        assert np.all(np.diff(tr.times) > 0)
        assert np.all(np.isfinite(tr.lyapunov))
        assert tr.rounded_H[-1] == res.final_H

    def test_total_weight_reports_cut(self):
        from oimsim import WeightedGraph, cut_value, maxcut_to_ising
        g = WeightedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
        p = maxcut_to_ising(g)
        res = simulate(p, params_with(cycles=50.0), seed=1,
                       total_weight=g.total_weight)
        assert res.final_cut == cut_value(g, res.final_spins)

    def test_degree_normalization_flag(self):
        import dataclasses
        p = random_problem(12, 11)
        deg = p.max_degree
        assert deg >= 2
        base = params_with(ks_level=0.7, cycles=2.0, noise_amp=0.1)
        normalized = dataclasses.replace(base, normalize_by_degree=True)
        manual = dataclasses.replace(base, K=base.K / deg)
        a = simulate(p, normalized, seed=3)
        b = simulate(p, manual, seed=3)
        assert np.array_equal(a.final_spins, b.final_spins)
        st = PhaseState(np.random.default_rng(0).uniform(0, 2 * np.pi, 12))
        assert np.allclose(drift(p, st, normalized), drift(p, st, manual))
        assert lyapunov(p, st, normalized) == pytest.approx(
            lyapunov(p, st, manual), rel=1e-12)

    def test_polish_flag_descends(self):
        from oimsim import hamiltonian as ham
        p = random_problem(20, 12)
        prm = params_with(cycles=5.0)  # too short to converge on its own
        raw = simulate(p, prm, seed=0)
        polished = simulate(p, prm, seed=0, polish=True)
        assert polished.final_H <= raw.final_H
        assert polished.final_H == ham(p, polished.final_spins)
        for i in range(p.n):
            flipped = polished.final_spins.copy()
            flipped[i] = -flipped[i]
            assert ham(p, flipped) >= polished.final_H

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_detected(self):
        p = IsingProblem(3, [(0, 1, 1e308), (0, 2, 1e308)])
        prm = params_with(ks_level=0.0, noise_amp=0.0, cycles=1.0,
                          steps_per_cycle=1)
        with pytest.raises(NumericalDivergenceError) as ei:
            simulate(p, prm, seed=0, initial_phases=np.zeros(3))
        assert ei.value.step is not None


class TestPackedGroups:
    def test_noise_block_size_does_not_change_results(self, monkeypatch):
        import oimsim.dynamics as dyn
        p = random_problem(12, 2, with_fields=True)
        prm = params_with(cycles=3.01, noise_amp=0.2, variability_pct=0.03)
        seeds = [4, 5, 6]
        ref, _ = dyn._integrate_batch(p, prm, seeds)
        # 113 // (12 * 3) = 3 steps per block; 301 steps leave a short last block
        monkeypatch.setattr(dyn, "_MAX_NOISE_DOUBLES", 113)
        small, _ = dyn._integrate_batch(p, prm, seeds)
        assert np.array_equal(ref, small)
        assert np.array_equal(dyn._round_cols(ref), dyn._round_cols(small))

    def test_group_returns_problem_major_results(self):
        group = [random_problem(4, 1), random_problem(7, 2, with_fields=True)]
        prm = params_with(cycles=3.0)
        packed = run_seeds(group, prm, [8, 9], total_weight=(None, 3))
        assert [(len(r.final_spins), r.seed) for r in packed] == \
            [(4, 8), (4, 9), (7, 8), (7, 9)]
        for problem, rs in ((group[0], packed[:2]), (group[1], packed[2:])):
            for r in rs:
                single = simulate(problem, prm, seed=r.seed)
                assert np.array_equal(r.final_spins, single.final_spins)
                assert r.final_H == single.final_H
        assert packed[0].final_cut is None
        assert packed[2].final_cut == (3 - packed[2].final_H) / 2

    def test_trace_needs_one_problem(self):
        from oimsim import SpecificationError
        from oimsim.dynamics import _integrate_batch
        group = [random_problem(4, 1), random_problem(4, 2)]
        with pytest.raises(SpecificationError):
            _integrate_batch(group, params_with(cycles=1.0), [0], trace_steps=[0])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_seed_and_problem(self):
        from oimsim.dynamics import _integrate_batch
        ok = IsingProblem(2, [(0, 1, 1.0)], name="ok")
        bad = IsingProblem(3, [(0, 1, 1e308), (0, 2, 1e308)], name="bad")
        prm = params_with(ks_level=0.0, noise_amp=0.0, cycles=1.0,
                          steps_per_cycle=1)
        with pytest.raises(NumericalDivergenceError) as ei:
            _integrate_batch([ok, bad], prm, [3, 4], initial_phases=np.zeros(5))
        assert (ei.value.seed, ei.value.problem) == (3, "bad")
        assert "'bad'" in str(ei.value)


class TestLyapunovDescent:
    @pytest.mark.parametrize("seed", range(3))
    def test_noiseless_descent(self, seed):
        n = 30
        p = random_problem(n, seed + 20)
        prm = params_with(ks_level=1.0, noise_amp=0.0, steps_per_cycle=200,
                          cycles=20.0)
        rng = np.random.default_rng(seed)
        st = PhaseState(rng.uniform(0, 2 * np.pi, n))
        e = lyapunov(p, st, prm)
        for _ in range(prm.total_steps):
            st = step(st, p, prm)
            e_next = lyapunov(p, st, prm)
            assert e_next <= e + 1e-8 * (1 + abs(e))
            e = e_next


class TestAblationNonBinary:
    def test_no_sync_leaves_phases_spread(self):
        torus = random_ising(100, Torus(10, 10), seed=0)
        prm = DynamicsParams(cycles=50.0, sync_enabled=False)
        from oimsim.dynamics import _integrate_batch
        Phi, _ = _integrate_batch(torus, prm, [0, 1, 2])
        frac = np.mean(np.abs(np.cos(Phi)) < 0.9)
        assert frac > 0.10
        spins = round_phases(Phi[:, 0])
        assert set(np.unique(spins)) <= {-1, 1}

    def test_sync_binarizes(self):
        torus = random_ising(100, Torus(10, 10), seed=0)
        prm = DynamicsParams(cycles=50.0, ks_schedule=KsSchedule.constant(1.0))
        from oimsim.dynamics import _integrate_batch
        Phi, _ = _integrate_batch(torus, prm, [0, 1, 2])
        frac = np.mean(np.abs(np.cos(Phi)) > 0.9)
        assert frac > 0.8


TWO_PI = 2.0 * np.pi
WRAP_EDGES = [-0.0, 0.0, -5e-324, -1e-17, TWO_PI, -TWO_PI,
              np.nextafter(TWO_PI, 0), np.nextafter(2 * TWO_PI, 0)]


def wrapped(values):
    from oimsim.dynamics import _wrap
    x = np.array(values, dtype=np.float64)
    _wrap(x)
    return x


class TestExactWrap:
    @given(st.lists(st.floats(min_value=-TWO_PI, max_value=2 * TWO_PI,
                              exclude_max=True), max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_equals_mod_bit_for_bit(self, values):
        x = np.array(values + WRAP_EDGES)
        # int64 views compare bits, so -0.0 and +0.0 differ
        assert np.array_equal(wrapped(x).view(np.int64),
                              np.mod(x, TWO_PI).view(np.int64))

    def test_edge_values(self):
        out = wrapped(WRAP_EDGES)
        assert list(out.view(np.int64)) == \
            list(np.mod(WRAP_EDGES, TWO_PI).view(np.int64))
        assert np.signbit(out[0]) == False  # noqa: E712 (-0 becomes +0)
        assert out[2] == TWO_PI  # a tiny negative rounds up to 2*pi, as np.mod

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("values", [
        [np.nan, 5 * np.pi], [np.inf, 1.0], [-np.inf, 1.0], [5 * np.pi, 1.0],
        [-3 * np.pi, 1.0], [2 * TWO_PI, 1.0], [np.nextafter(-TWO_PI, -7.0)]])
    def test_out_of_range_falls_back_to_mod(self, values):
        # one subtraction or addition of 2*pi would leave these out of
        # [0, 2*pi) (or turn inf into inf), so equality shows np.mod ran
        expected = np.mod(values, TWO_PI)
        assert np.array_equal(wrapped(values), expected, equal_nan=True)

    def test_matrix_with_work_arrays(self):
        from oimsim.dynamics import _wrap
        x = np.random.default_rng(0).uniform(-TWO_PI, 2 * TWO_PI, (50, 6))
        expected = np.mod(x, TWO_PI)
        lo, hi = np.empty(x.shape, bool), np.empty(x.shape, bool)
        _wrap(x, lo, hi)
        assert np.array_equal(x.view(np.int64), expected.view(np.int64))


class TestVariantBatches:
    def variants(self):
        base = params_with(cycles=4.0, noise_amp=0.3, steps_per_cycle=50,
                           normalize_by_degree=True,
                           ks_schedule=KsSchedule.ramp(0.5, 2.0, 1.0))
        return (base, base.without_sync(),
                dataclasses.replace(base, variability_pct=0.04),
                dataclasses.replace(base, ks_schedule=KsSchedule.constant(0.7)))

    def test_run_seeds_variants_equal_one_run_per_variant(self):
        group = [random_problem(6, 1, with_fields=True), random_problem(9, 2),
                 random_problem(5, 3)]
        seeds = [11, 12, 13]
        variants = self.variants()
        fused = run_seeds(group, variants, seeds, total_weight=(None, 7, None))
        expected = [r for prm in variants
                    for r in run_seeds(group, prm, seeds, total_weight=(None, 7, None))]
        assert len(fused) == len(variants) * len(group) * len(seeds)
        for a, b in zip(fused, expected, strict=True):
            assert a.seed == b.seed
            assert np.array_equal(a.final_spins, b.final_spins)
            assert (a.final_H, a.final_cut) == (b.final_H, b.final_cut)

    def test_phase_blocks_are_bit_identical(self):
        from oimsim.dynamics import _integrate_batch
        group = [random_problem(6, 4, with_fields=True), random_problem(8, 5)]
        seeds = [0, 1]
        variants = self.variants()
        Phi, _ = _integrate_batch(group, variants, seeds)
        for v, prm in enumerate(variants):
            alone, _ = _integrate_batch(group, prm, seeds)
            block = Phi[:, v * len(seeds):(v + 1) * len(seeds)]
            assert np.array_equal(block.view(np.int64), alone.view(np.int64))

    @pytest.mark.parametrize("field", ["K", "noise_amp", "cycles",
                                       "steps_per_cycle", "normalize_by_degree"])
    def test_incompatible_variants_rejected(self, field):
        from oimsim import SpecificationError
        base = params_with(cycles=1.0)
        other = dataclasses.replace(base, **{field: {
            "K": 2.0, "noise_amp": 0.5, "cycles": 2.0, "steps_per_cycle": 7,
            "normalize_by_degree": not base.normalize_by_degree}[field]})
        with pytest.raises(SpecificationError):
            run_seeds(random_problem(4, 0), (base, other), [0])
        with pytest.raises(SpecificationError):
            run_seeds(random_problem(4, 0), (), [0])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_seed_of_column_and_problem(self):
        from oimsim.dynamics import _integrate_batch
        ok = IsingProblem(2, [(0, 1, 1.0)], name="ok")
        bad = IsingProblem(2, [(0, 1, 1.5e308)], name="bad")
        base = DynamicsParams(K=1.0, noise_amp=0.0, cycles=1.0, steps_per_cycle=1,
                              ks_schedule=KsSchedule.constant(5e307))
        # SYNC pushes |drift| of 'bad' past the float range only at the
        # phases (pi/4, -pi/4), given to seed 3 alone: the only non-finite
        # column is variant 1, seed 3 (column 2 of 4)
        init = np.zeros((4, 2))
        init[2:, 0] = [np.pi / 4, -np.pi / 4]
        with pytest.raises(NumericalDivergenceError) as ei:
            _integrate_batch([ok, bad], (base.without_sync(), base), [3, 4],
                             initial_phases=init)
        assert (ei.value.seed, ei.value.problem) == (3, "bad")
        # without SYNC nothing diverges
        Phi, _ = _integrate_batch([ok, bad], base.without_sync(), [3, 4],
                                  initial_phases=init)
        assert np.all(np.isfinite(Phi))
