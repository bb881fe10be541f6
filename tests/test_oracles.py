"""Tests for brute-force enumeration and simulated annealing."""

import numpy as np
import pytest

from oimsim import (CapacityError, Complete, IsingProblem, SaParams,
                    brute_force, hamiltonian, random_ising, random_spins,
                    simulated_annealing)


class TestBruteForce:
    def test_two_spin_ferromagnet(self):
        p = IsingProblem(2, [(0, 1, 1.0)])
        res = brute_force(p)
        assert res.min_H == -1
        assert [list(s) for s in res.minimizers] == [[-1, -1], [1, 1]]
        assert not res.truncated

    def test_antiferromagnetic_triangle(self):
        p = IsingProblem(3, [(0, 1, -1.0), (0, 2, -1.0), (1, 2, -1.0)])
        res = brute_force(p)
        assert res.min_H == -1
        assert len(res.minimizers) == 6

    def test_single_spin_field(self):
        p = IsingProblem(1, [], fields=[1.0])
        res = brute_force(p)
        assert res.min_H == -1
        assert list(res.minimizers[0]) == [1]

    def test_capacity_guard(self):
        p = IsingProblem(25, [(0, 1, 1.0)])
        with pytest.raises(CapacityError):
            brute_force(p)

    def test_minimizers_lexicographic(self):
        p = random_ising(8, Complete(), seed=2)
        res = brute_force(p)
        keys = [tuple(s) for s in res.minimizers]
        assert keys == sorted(keys)

    def test_truncation_flag(self):
        # couplings-free problem: every configuration is optimal
        p = IsingProblem(8, [])
        res = brute_force(p)
        assert res.min_H == 0
        assert res.truncated
        assert len(res.minimizers) == 64

    @pytest.mark.parametrize("seed", range(4))
    def test_minimum_bounds_random_samples(self, seed):
        p = random_ising(10, Complete(), seed=seed)
        res = brute_force(p)
        rng = np.random.default_rng(seed)
        for _ in range(250):
            assert res.min_H <= hamiltonian(p, random_spins(10, rng)) + 1e-12

    def test_fields_break_symmetry(self):
        # h != 0 disables the flip-symmetry shortcut; check against h = 0 logic
        p = IsingProblem(3, [(0, 1, 1.0)], fields=[0.0, 0.0, 0.5])
        res = brute_force(p)
        assert res.min_H == -1.5
        for s in res.minimizers:
            assert hamiltonian(p, s) == res.min_H


class TestSimulatedAnnealing:
    def test_triangle_reaches_optimum(self):
        p = IsingProblem(3, [(0, 1, -1.0), (0, 2, -1.0), (1, 2, -1.0)])
        hits = 0
        for seed in range(30):
            _, best_H = simulated_annealing(p, SaParams(iterations=10_000, seed=seed))
            hits += best_H == -1
        assert hits == 30

    def test_determinism(self):
        p = random_ising(12, Complete(), seed=0)
        sa = SaParams(iterations=20_000, seed=3)
        s1, h1 = simulated_annealing(p, sa)
        s2, h2 = simulated_annealing(p, sa)
        assert h1 == h2
        assert np.array_equal(s1, s2)

    def test_best_consistent_with_spins(self):
        p = random_ising(15, Complete(), seed=1)
        spins, best_H = simulated_annealing(p, SaParams(iterations=30_000, seed=0))
        assert best_H == hamiltonian(p, spins)

    def test_best_no_worse_than_start(self):
        p = random_ising(12, Complete(), seed=5)
        for seed in range(5):
            # the initial configuration is drawn from default_rng(seed)
            rng = np.random.default_rng(seed)
            start = (rng.integers(0, 2, size=12, dtype=np.int8) * 2 - 1)
            _, best_H = simulated_annealing(p, SaParams(iterations=5_000, seed=seed))
            assert best_H <= hamiltonian(p, start)

    def test_greedy_limit_never_climbs(self):
        # T_initial = T_final ~ 0 degenerates to pure descent
        p = random_ising(10, Complete(), seed=7)
        rng = np.random.default_rng(7)
        start = (rng.integers(0, 2, size=10, dtype=np.int8) * 2 - 1)
        _, best_H = simulated_annealing(
            p, SaParams(iterations=50_000, T_initial=1e-12, T_final=1e-12, seed=7))
        assert best_H <= hamiltonian(p, start)

    def test_matches_brute_force_on_small_instances(self):
        # 50 random 10-spin problems, 1e5 flips each
        agree = 0
        for seed in range(50):
            p = random_ising(10, Complete(), seed=seed)
            exact = brute_force(p).min_H
            _, best_H = simulated_annealing(p, SaParams(iterations=100_000, seed=seed))
            agree += best_H == exact
        assert agree >= 48  # >= 95%

    def test_param_validation(self):
        from oimsim import SpecificationError
        with pytest.raises(SpecificationError):
            SaParams(iterations=0)
        with pytest.raises(SpecificationError):
            SaParams(iterations=10, T_final=0.0)
        with pytest.raises(SpecificationError):
            SaParams(iterations=10, T_initial=1e-4, T_final=1e-3)

    @pytest.mark.parametrize("kw", [
        {"T_final": float("nan")}, {"T_final": float("inf")},
        {"T_initial": float("nan")}, {"T_initial": float("inf")},
        {"iterations": 2.5}, {"iterations": "10"}, {"moves_per_temp": 2.5},
        {"moves_per_temp": 0},
    ], ids=str)
    def test_param_checks(self, kw):
        from oimsim import SpecificationError
        with pytest.raises(SpecificationError):
            SaParams(**{"iterations": 10, **kw})

    @pytest.mark.parametrize("name", ["T_final", "T_initial"])
    def test_temperature_beyond_the_float_range(self, name):
        # an integer that no float holds: SpecificationError, not OverflowError
        from oimsim import SpecificationError
        with pytest.raises(SpecificationError, match=name):
            SaParams(iterations=10, **{name: 10**400})

    def test_long_run_preset(self):
        sa = SaParams.long_run(flips=12345, seed=9)
        assert sa.iterations == 12345 and sa.seed == 9
