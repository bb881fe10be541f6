"""Tests for problem types, energies, and the MAX-CUT mapping."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oimsim
from oimsim import (DimensionError, IsingProblem, SpecificationError,
                    WeightedGraph, cut_from_hamiltonian, cut_value,
                    hamiltonian, maxcut_to_ising, random_spins)


def brute_min(problem):
    """Independent oracle: enumerate every configuration directly."""
    best = np.inf
    for bits in itertools.product([-1, 1], repeat=problem.n):
        best = min(best, hamiltonian(problem, np.array(bits, dtype=np.int8)))
    return best


class TestIsingProblem:
    def test_basic_construction(self):
        p = IsingProblem(3, [(0, 1, 1.0), (1, 2, -2.0)], fields=[0.5, 0, 0])
        assert p.n == 3
        assert p.num_couplings == 2
        assert p.couplings == ((0, 1, 1.0), (1, 2, -2.0))
        assert p.h[0] == 0.5

    def test_edges_normalized_and_sorted(self):
        p = IsingProblem(3, [(2, 1, -1.0), (1, 0, 2.0)])
        assert p.couplings == ((0, 1, 2.0), (1, 2, -1.0))

    def test_self_coupling_rejected(self):
        with pytest.raises(SpecificationError):
            IsingProblem(2, [(0, 0, 1.0)])

    def test_duplicate_pair_rejected(self):
        with pytest.raises(SpecificationError):
            IsingProblem(3, [(0, 1, 1.0), (1, 0, 2.0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(SpecificationError):
            IsingProblem(2, [(0, 2, 1.0)])

    def test_zero_coupling_rejected(self):
        with pytest.raises(SpecificationError):
            IsingProblem(2, [(0, 1, 0.0)])

    def test_nonfinite_rejected(self):
        with pytest.raises(SpecificationError):
            IsingProblem(2, [(0, 1, np.inf)])
        with pytest.raises(SpecificationError):
            IsingProblem(2, [(0, 1, 1.0)], fields=[np.nan, 0])

    def test_field_length_checked(self):
        with pytest.raises(DimensionError):
            IsingProblem(3, [], fields=[1.0, 2.0])

    def test_adjacency_symmetric(self):
        p = IsingProblem(4, [(0, 1, 1.0), (1, 3, -2.0)])
        a = p.adjacency.toarray()
        assert np.array_equal(a, a.T)
        assert a[0, 1] == 1.0 and a[3, 1] == -2.0

    def test_equality(self):
        a = IsingProblem(2, [(0, 1, 1.0)])
        b = IsingProblem(2, [(0, 1, 1.0)], name="other")
        c = IsingProblem(2, [(0, 1, 2.0)])
        assert a == b  # name does not affect identity
        assert a != c


class TestHamiltonian:
    def test_ferromagnetic_pair(self):
        p = IsingProblem(2, [(0, 1, 1.0)])
        assert hamiltonian(p, [1, 1]) == -1
        assert hamiltonian(p, [1, -1]) == 1

    def test_field_only(self):
        p = IsingProblem(1, [], fields=[2.0])
        assert hamiltonian(p, [1]) == -2

    def test_antiferromagnetic_triangle(self):
        p = IsingProblem(3, [(0, 1, -1.0), (0, 2, -1.0), (1, 2, -1.0)])
        assert hamiltonian(p, [1, 1, -1]) == -1
        assert brute_min(p) == -1

    def test_dimension_mismatch(self):
        p = IsingProblem(2, [(0, 1, 1.0)])
        with pytest.raises(DimensionError):
            hamiltonian(p, [1, 1, 1])

    def test_bad_spin_values(self):
        p = IsingProblem(2, [(0, 1, 1.0)])
        with pytest.raises(SpecificationError):
            hamiltonian(p, [1, 0])

    def test_flip_symmetry_when_no_fields(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = 8
            pairs = [(i, j, rng.choice([-1.0, 1.0])) for i in range(n)
                     for j in range(i + 1, n) if rng.random() < 0.5]
            p = IsingProblem(n, pairs)
            s = random_spins(n, rng)
            assert hamiltonian(p, s) == hamiltonian(p, -s)

    def test_same_bits_for_any_blas_thread_count(self):
        # er800_batch's shape with non-integer couplings: a BLAS dot product
        # of 19,176 terms rounds differently when split over threads
        script = "\n".join([
            "import numpy as np",
            "from oimsim import IsingProblem, hamiltonian",
            "rng = np.random.default_rng(0)",
            "iu, ju = np.triu_indices(800, 1)",
            "pick = np.sort(rng.choice(len(iu), 19176, replace=False))",
            "J = rng.uniform(-1.0, 1.0, len(pick))",
            "p = IsingProblem(800, np.column_stack([iu[pick], ju[pick], J]))",
            "print(float.hex(hamiltonian(p, rng.choice([-1, 1], 800))))",
        ])
        src = str(Path(oimsim.__file__).resolve().parent.parent)
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]


class TestWeightedGraph:
    def test_construction(self):
        g = WeightedGraph(3, [(0, 1, 1), (1, 2, 2)])
        assert g.total_weight == 3
        assert g.num_edges == 2

    def test_non_integer_weight_rejected(self):
        with pytest.raises(SpecificationError):
            WeightedGraph(2, [(0, 1, 0.5)])

    def test_cut_basic(self):
        g = WeightedGraph(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
        assert cut_value(g, [1, 1, -1]) == 2
        assert cut_value(g, [1, 1, 1]) == 0

    def test_cut_path(self):
        g = WeightedGraph(3, [(0, 1, 1), (1, 2, 2)])
        assert cut_value(g, [1, -1, 1]) == 3


class TestMaxcutMapping:
    def test_single_edge(self):
        g = WeightedGraph(2, [(0, 1, 1)])
        p = maxcut_to_ising(g)
        assert hamiltonian(p, [1, -1]) == -1
        assert cut_from_hamiltonian(-1, g.total_weight) == 1
        assert hamiltonian(p, [1, 1]) == 1
        assert cut_from_hamiltonian(1, g.total_weight) == 0

    def test_triangle_identity_all_configs(self):
        g = WeightedGraph(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
        p = maxcut_to_ising(g)
        for bits in itertools.product([-1, 1], repeat=3):
            s = np.array(bits, dtype=np.int8)
            H = hamiltonian(p, s)
            assert cut_value(g, s) == cut_from_hamiltonian(H, g.total_weight)

    @pytest.mark.parametrize("seed", range(5))
    def test_identity_on_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(4, 11)
        edges = [(i, j, int(rng.integers(-3, 4)) or 1) for i in range(n)
                 for j in range(i + 1, n) if rng.random() < 0.6]
        if not edges:
            edges = [(0, 1, 1)]
        g = WeightedGraph(int(n), edges)
        p = maxcut_to_ising(g)
        W = g.total_weight
        for bits in itertools.product([-1, 1], repeat=int(n)):
            s = np.array(bits, dtype=np.int8)
            assert cut_value(g, s) == cut_from_hamiltonian(hamiltonian(p, s), W)

    def test_cut_from_hamiltonian_values(self):
        assert cut_from_hamiltonian(-1, 1) == 1
        assert cut_from_hamiltonian(3, 3) == 0
        assert cut_from_hamiltonian(-1, 3) == 2
