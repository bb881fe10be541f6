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
                    hamiltonian, lyapunov, random_ising, round_phases,
                    run_seeds, sample_detuning, simulate, step)
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
            assert float(s.value(t)) == 1.0

    def test_ramp_interpolates(self):
        s = KsSchedule.ramp(0, 250, 1.0)
        assert float(s.value(125)) == 0.5
        assert float(s.value(0)) == 0.0
        assert float(s.value(1000)) == 1.0

    def test_ramp_before_start(self):
        s = KsSchedule.ramp(100, 200, 2.0)
        assert float(s.value(50)) == 0.0
        assert float(s.value(150)) == 1.0
        assert float(s.value(300)) == 2.0

    def test_vectorized(self):
        s = KsSchedule.ramp(0, 10, 1.0)
        out = s.value(np.array([0.0, 5.0, 20.0]))
        assert np.allclose(out, [0.0, 0.5, 1.0])

    @pytest.mark.parametrize("t0, t1", [(-1.0, 2.0), (3.0, 2.0), (math.nan, 2.0),
                                        (0.0, math.inf), (math.inf, math.inf),
                                        pytest.param(0, 10**400, id="beyond_float")])
    def test_ramp_times_are_checked(self, t0, t1):
        from oimsim import SpecificationError
        with pytest.raises(SpecificationError, match="ramp"):
            KsSchedule.ramp(t0, t1, 1.0)

    def test_constant_is_the_step_at_zero(self):
        assert KsSchedule.constant(2.0) == KsSchedule.ramp(0, 0, 2.0)
        assert KsSchedule.constant(2.0).to_config() == {"t0": 0.0, "t1": 0.0, "level": 2.0}

    # params as result files of defaults version 2 recorded them
    V2_CONFIG = {"K": 1.0, "ks": {"kind": "ramp", "t0": 0.0, "t1": 2.0, "level": 1.5},
                 "noise_amp": 0.1, "variability_pct": 0.0, "cycles": 1000.0,
                 "steps_per_cycle": 100, "sync_enabled": True, "normalize_by_degree": False}

    def test_version_2_constant_config(self):
        cfg = dict(self.V2_CONFIG, ks={"kind": "constant", "level": 2.0})
        s = DynamicsParams.from_config(cfg).ks_schedule
        assert s == KsSchedule.constant(2.0)
        assert float(s.value(0.0)) == float(s.value(5.0)) == 2.0

    def test_version_2_ramp_config(self):
        prm = DynamicsParams.from_config(self.V2_CONFIG)
        assert prm.ks_schedule == KsSchedule.ramp(0.0, 2.0, 1.5)
        assert "sync_enabled" not in prm.to_config() and "kind" not in prm.to_config()["ks"]

    def test_version_2_sync_off_is_level_zero(self):
        prm = DynamicsParams.from_config(dict(self.V2_CONFIG, sync_enabled=False))
        assert prm.ks_schedule.level == 0.0
        assert prm == DynamicsParams.from_config(self.V2_CONFIG).without_sync()


class TestParamsChecks:
    def test_defaults_file_is_the_params_defaults(self):
        from oimsim import DEFAULTS
        assert DynamicsParams.from_config(DEFAULTS) == DynamicsParams()
        assert set(DynamicsParams().to_config()) == set(DEFAULTS) - {"version"}

    def test_version_3_config_reads_unless_normalized(self):
        from oimsim import SpecificationError
        v3 = dict(DynamicsParams(K=0.5).to_config(), normalize_by_degree=False)
        assert DynamicsParams.from_config(v3) == DynamicsParams(K=0.5)
        with pytest.raises(SpecificationError, match="normalize_by_degree"):
            DynamicsParams.from_config(dict(v3, normalize_by_degree=True))

    # an integer beyond the float range, NaN or inf: never a bare OverflowError
    # or ValueError (ramp times, detuning and time: in their own tests)
    @pytest.mark.parametrize("make, message", [
        (lambda: DynamicsParams(K=10**400), "K must be finite"),
        (lambda: DynamicsParams(cycles=10**400), "cycles must be finite"),
        (lambda: DynamicsParams(variability_pct=10**400), "variability_pct must be finite"),
        (lambda: KsSchedule.constant(10**400), "Ks level must be finite"),
        (lambda: DynamicsParams(steps_per_cycle=math.nan), "steps_per_cycle"),
        (lambda: DynamicsParams(steps_per_cycle=math.inf), "steps_per_cycle"),
    ], ids=["K", "cycles", "variability_pct", "ks_level", "steps_nan", "steps_inf"])
    def test_numbers_beyond_the_float_range_are_rejected(self, make, message):
        from oimsim import SpecificationError
        with pytest.raises(SpecificationError, match=message):
            make()

    @pytest.mark.parametrize("kw", [dict(cycles=1e300, steps_per_cycle=10**10),
                                    dict(steps_per_cycle=10**400),
                                    dict(cycles=2.0**62, steps_per_cycle=2)])
    def test_step_count_beyond_int64_is_rejected(self, kw):
        from oimsim import SpecificationError
        with pytest.raises(SpecificationError, match="must be below 2\\*\\*63"):
            DynamicsParams(**kw)
        assert DynamicsParams(cycles=2.0**61, steps_per_cycle=2).total_steps == 2**62

    def test_checked_numbers_keep_their_type(self):
        # an integer K exports as it was given
        assert DynamicsParams(K=2).to_config()["K"] == 2
        assert isinstance(DynamicsParams(K=2).K, int)


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
        # SYNC off is Ks level 0: the same params, not a second setting
        assert DynamicsParams().without_sync() == params_with(ks_level=0.0)

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

    @pytest.mark.parametrize("pct", [-0.01, math.nan, math.inf,
                                     pytest.param(10**400, id="beyond_float")])
    def test_pct_must_be_finite_and_non_negative(self, pct):
        from oimsim import SpecificationError
        with pytest.raises(SpecificationError, match="variability_pct"):
            sample_detuning(3, pct, 0)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0,
                                     pytest.param(10**400, id="beyond_float")])
    def test_time_must_be_finite_and_not_negative(self, bad):
        from oimsim import SpecificationError
        with pytest.raises(SpecificationError, match="time"):
            PhaseState(np.zeros(2), bad)


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
        assert np.array_equal(a.spins, b.spins)
        assert a.H == b.H
        assert a.H == hamiltonian(p, a.spins)

    def test_two_spin_ground_state(self):
        p = IsingProblem(2, [(0, 1, 1.0)])
        prm = params_with(cycles=100.0)
        hits = sum(simulate(p, prm, seed=s).H == -1.0 for s in range(10))
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
        assert np.array_equal(round_phases(st), res.spins)

    def test_batch_equals_single_runs(self):
        p = random_problem(9, 1)
        prm = params_with(cycles=5.0, noise_amp=0.1)
        batch = run_seeds(p, prm, seeds=list(range(6)))
        for seed, r in zip(range(6), batch):
            single = simulate(p, prm, seed=seed)
            assert np.array_equal(r.spins, single.spins)
            assert r.H == single.H

    def test_global_flip_symmetry(self):
        from oimsim.dynamics import _integrate_batch
        p = random_problem(10, 4)  # h = 0
        prm = params_with(cycles=10.0)
        phi0 = np.random.default_rng(3).uniform(0, 2 * np.pi, 10)
        a, b = (round_phases(_integrate_batch(p, prm, [5], initial_phases=phi)[0][:, 0])
                for phi in (phi0, phi0 + np.pi))
        assert hamiltonian(p, a) == hamiltonian(p, b)
        assert np.array_equal(a, -b)

    def test_variability_changes_nothing_at_zero(self):
        import dataclasses
        p = random_problem(6, 6)
        prm = params_with(cycles=5.0)
        a = simulate(p, prm, seed=2)
        b = simulate(p, dataclasses.replace(prm, variability_pct=0.0), seed=2)
        assert np.array_equal(a.spins, b.spins)

    def test_trace(self):
        p = random_problem(6, 9)
        prm = params_with(cycles=4.0, steps_per_cycle=50)
        res = simulate(p, prm, seed=0, trace_points=50)
        tr = res.trace
        assert tr is not None
        assert len(tr.times) <= 50
        assert tr.times[0] == 0.0
        assert tr.times[-1] == pytest.approx(4.0)
        assert np.all(np.diff(tr.times) > 0)
        assert np.all(np.isfinite(tr.lyapunov))
        assert tr.rounded_H[-1] == res.H

    def test_total_weight_reports_cut(self):
        from oimsim import WeightedGraph, cut_value, maxcut_to_ising
        g = WeightedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
        p = maxcut_to_ising(g)
        res = simulate(p, params_with(cycles=50.0), seed=1,
                       total_weight=g.total_weight)
        assert res.cut == cut_value(g, res.spins)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_detected(self):
        p = IsingProblem(3, [(0, 1, 1e308), (0, 2, 1e308)])
        prm = params_with(ks_level=0.0, noise_amp=0.0, cycles=1.0,
                          steps_per_cycle=1)
        from oimsim.dynamics import _integrate_batch
        with pytest.raises(NumericalDivergenceError) as ei:
            _integrate_batch(p, prm, [0], initial_phases=np.zeros(3))
        assert ei.value.step is not None


class TestTraceSampler:
    # (total_steps, trace_points, samples): every s = ceil(T / (points - 1))
    # steps from 0, plus the final step when s does not divide T
    @pytest.mark.parametrize("total, points, count", [
        (5, 1, 1), (5, 2, 2), (7, 3, 3), (10, 4, 4), (120, 7, 7), (301, 50, 44),
        (5, 10, 6), (7, 8, 8)])
    @pytest.mark.parametrize("block_doubles", [None, 24])
    def test_sample_steps(self, total, points, count, block_doubles, monkeypatch):
        import oimsim.dynamics as dyn
        if block_doubles is not None:  # 24 // 6 spins: 4-step noise blocks
            monkeypatch.setattr(dyn, "_MAX_NOISE_DOUBLES", block_doubles)
        p = random_problem(6, 9)
        prm = params_with(cycles=total / 4, steps_per_cycle=4, noise_amp=0.2)
        res = simulate(p, prm, seed=1, trace_points=points)
        tr = res.trace
        steps = tr.times * 4  # dt = 1/4: exact
        assert len(steps) == count <= points
        assert steps[-1] == total
        if points >= 2:
            assert steps[0] == 0
            gaps = np.diff(steps[:-1])
            assert np.all(gaps == -(-total // (points - 1)))
            assert 0 < steps[-1] - steps[-2] <= -(-total // (points - 1))
        assert tr.rounded_H[-1] == res.H
        assert len(tr.lyapunov) == len(tr.rounded_H) == count

    def test_first_sample_is_lyapunov_at_the_initial_phases(self):
        p = random_problem(6, 9, with_fields=True)
        prm = params_with(ks_level=0.7, K=1.3, cycles=2.0, steps_per_cycle=4, noise_amp=0.2)
        phi = np.random.default_rng(5).uniform(0.0, 2 * np.pi, 6)
        from oimsim.dynamics import _integrate_batch
        _, (times, E, _) = _integrate_batch(p, prm, [1], initial_phases=phi, trace_points=3)
        assert times[0] == 0.0
        assert E[0] == lyapunov(p, PhaseState(phi), prm)

    @pytest.mark.parametrize("bad", [-5, 2.5, "3", None])
    def test_trace_points_must_be_an_integer(self, bad):
        from oimsim import SpecificationError
        with pytest.raises(SpecificationError, match="trace_points"):
            simulate(random_problem(4, 1), params_with(cycles=1.0), seed=0,
                     trace_points=bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_initial_phases_rejected(self, bad):
        from oimsim import SpecificationError
        from oimsim.dynamics import _integrate_batch
        p = random_problem(4, 1)
        phi = np.array([0.1, bad, 0.3, 0.4])
        with pytest.raises(SpecificationError, match="finite"):
            _integrate_batch(p, params_with(cycles=1.0), [0], initial_phases=phi)
        with pytest.raises(SpecificationError, match="finite"):
            _integrate_batch(p, params_with(cycles=1.0), [0, 1],
                             initial_phases=np.column_stack([np.zeros(4), phi]))


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
        assert np.array_equal(dyn.round_phases(ref), dyn.round_phases(small))

    def test_group_returns_problem_major_results(self):
        group = [random_problem(4, 1), random_problem(7, 2, with_fields=True)]
        prm = params_with(cycles=3.0)
        packed = run_seeds(group, prm, [8, 9], total_weight=(None, 3))
        assert [(len(r.spins), r.seed) for r in packed] == \
            [(4, 8), (4, 9), (7, 8), (7, 9)]
        for problem, rs in ((group[0], packed[:2]), (group[1], packed[2:])):
            for r in rs:
                single = simulate(problem, prm, seed=r.seed)
                assert np.array_equal(r.spins, single.spins)
                assert r.H == single.H
        assert packed[0].cut is None
        assert packed[2].cut == (3 - packed[2].H) / 2

    def test_empty_group_rejected(self):
        from oimsim import SpecificationError
        with pytest.raises(SpecificationError, match="IsingProblem"):
            run_seeds([], params_with(cycles=1.0), [1])
        with pytest.raises(SpecificationError, match="IsingProblem"):
            simulate([], params_with(cycles=1.0))

    @pytest.mark.parametrize("what", ["group", "one_problem_group", "variants",
                                      "one_variant_tuple"])
    def test_simulate_runs_exactly_one_run(self, what):
        # simulate returns one run, so it takes exactly one problem and one variant
        from oimsim import SpecificationError
        p, prm = random_problem(4, 1), params_with(cycles=1.0)
        args = {"group": ([p, p], prm), "one_problem_group": ((p,), prm),
                "variants": (p, (prm, prm.without_sync())),
                "one_variant_tuple": (p, (prm,))}[what]
        with pytest.raises(SpecificationError, match="run_seeds"):
            simulate(*args, seed=0)

    def test_run_seeds_takes_any_iterable(self):
        p, prm = random_problem(5, 2), params_with(cycles=2.0, noise_amp=0.1)
        ref = run_seeds(p, prm, [0, 1, 2])
        got = run_seeds(p, prm, (s for s in range(3)))
        assert [(r.seed, r.H) for r in got] == [(r.seed, r.H) for r in ref]
        assert all(np.array_equal(a.spins, b.spins) for a, b in zip(got, ref))
        assert run_seeds(p, prm, iter(())) == []

    @pytest.mark.parametrize("problems, total_weight", [
        (1, (3, 4)), (1, (3,)), (1, "3"), (1, math.nan), (1, math.inf), (1, 10 ** 400),
        (2, (3,)), (2, (3, 4, 5)), (2, 3), (2, (3, "4")), (2, (None, math.nan)),
    ], ids=["pair", "one_tuple", "text", "nan", "inf", "beyond_float", "group_short",
            "group_long", "group_scalar", "group_text", "group_nan"])
    def test_bad_total_weight_rejected_before_integrating(self, monkeypatch, problems,
                                                          total_weight):
        import oimsim.dynamics as dyn
        from oimsim import SpecificationError
        monkeypatch.setattr(dyn, "_integrate_batch", None)  # reaching it fails otherwise
        p = random_problem(4, 1)
        with pytest.raises(SpecificationError, match="total_weight"):
            run_seeds(p if problems == 1 else [p] * problems, params_with(cycles=1.0), [1],
                      total_weight=total_weight)

    def test_total_weight_accepts_finite_reals(self):
        group = [random_problem(4, 1), random_problem(4, 2)]
        prm = params_with(cycles=1.0)
        for tw in ([np.int64(3), 2.5], np.array([3.0, 2.5]), (None, 2 ** 60)):
            cuts = [r.cut for r in run_seeds(group, prm, [1], total_weight=tw)]
            assert [c is None for c in cuts] == [w is None for w in tw]
        assert run_seeds(group[0], prm, [1], total_weight=np.float64(3))[0].cut is not None

    def test_trace_needs_one_problem(self):
        # a trace covers one run: two problems, several seeds or several
        # variants are each rejected
        from oimsim import SpecificationError
        from oimsim.dynamics import _integrate_batch
        group = [random_problem(4, 1), random_problem(4, 2)]
        prm = params_with(cycles=1.0)
        for problem, params, seeds in ((group, prm, [0]), (group[0], prm, [0, 1, 2]),
                                       (group[0], (prm, prm.without_sync()), [0])):
            with pytest.raises(SpecificationError, match="single run"):
                _integrate_batch(problem, params, seeds, trace_points=2)

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
        prm = DynamicsParams(cycles=50.0).without_sync()
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
    """values after one _steps step with every term zero, which leaves a
    nonzero phase as it is and then wraps it; the compiled kernel, where
    there is one, must give the same bits with its own copy of the wrap."""
    import scipy.sparse as sp
    from oimsim.dynamics import _load_kernel, _noise_rows, _steps
    x = np.array(values, dtype=np.float64)
    Phi = x.reshape(len(x), -1)  # a vector is one column
    n, C = Phi.shape
    args = (sp.csr_matrix((n, n)), np.zeros((n, 1)), 0.0, np.zeros((n, C)),
            (np.zeros((1, n)), *_noise_rows([n], 1), 0.0))
    ref = Phi.copy()
    _steps(ref, *args, np.zeros((1, C)))
    kernel = _load_kernel()
    if kernel is not None:
        out = Phi.copy()
        kernel(out, *args)(np.zeros((1, C)))
        assert out.tobytes() == ref.tobytes()
    return ref.reshape(x.shape)


class TestExactWrap:
    """The step's wrap is np.mod(., 2*pi) bit for bit on both integrator
    paths; the kernel takes one subtraction or addition of 2*pi on
    [-2*pi, 4*pi) and fmod elsewhere."""

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
        # [0, 2*pi) (or turn inf into inf), so equality shows fmod ran
        expected = np.mod(values, TWO_PI)
        assert np.array_equal(wrapped(values), expected, equal_nan=True)

    def test_matrix(self):
        x = np.random.default_rng(0).uniform(-TWO_PI, 2 * TWO_PI, (50, 6))
        assert np.array_equal(wrapped(x).view(np.int64), np.mod(x, TWO_PI).view(np.int64))


class TestStepOrder:
    """Euler's step is first order: without noise or detuning, halving dt
    halves the phases' error after a fixed time, once dt is small enough.
    The instances are problem seed 1 and run seed 0; on others a 2-cycle
    trajectory can pass close enough to a saddle that 50 steps per cycle is
    not yet in that regime (on complete graphs, 15 of problem seeds 0-5 x
    run seeds 0-2 pass; on 20x40 tori, 12 of seeds 0-3 x 0-2)."""

    @pytest.mark.parametrize("problem", [random_ising(50, Complete(), seed=1),
                                         random_ising(800, Torus(20, 40), seed=1)],
                             ids=["complete50", "torus20x40"])
    def test_error_halves_with_dt(self, problem):
        from oimsim.dynamics import _integrate_batch

        def final(steps_per_cycle):  # the seed draws the same initial phases at every dt
            prm = DynamicsParams(noise_amp=0.0, variability_pct=0.0, cycles=2.0,
                                 ks_schedule=KsSchedule.constant(1.0),
                                 steps_per_cycle=steps_per_cycle)
            return _integrate_batch(problem, prm, [0])[0][:, 0]

        ref = final(3200)
        # the largest circular phase difference to the fine run
        errors = [np.max(np.abs((final(spc) - ref + np.pi) % TWO_PI - np.pi))
                  for spc in (50, 100, 200, 400)]
        ratios = [a / b for a, b in itertools.pairwise(errors)]
        assert all(1.7 <= r <= 2.4 for r in ratios), ratios


class TestVariantBatches:
    def variants(self):
        base = params_with(cycles=4.0, noise_amp=0.3, steps_per_cycle=50,
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
            assert np.array_equal(a.spins, b.spins)
            assert (a.H, a.cut) == (b.H, b.cut)

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

    @pytest.mark.parametrize("field", ["K", "noise_amp", "cycles", "steps_per_cycle"])
    def test_incompatible_variants_rejected(self, field):
        from oimsim import SpecificationError
        base = params_with(cycles=1.0)
        other = dataclasses.replace(base, **{field: {
            "K": 2.0, "noise_amp": 0.5, "cycles": 2.0, "steps_per_cycle": 7}[field]})
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
