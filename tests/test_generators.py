"""Tests for the random instance generators."""

import numpy as np
import pytest

from oimsim import Complete, SpecificationError, Torus, random_ising


class TestTorus:
    def test_8x8_has_128_couplings(self):
        p = random_ising(64, Torus(8, 8), seed=0)
        # 2D torus: every vertex has degree 4, so 64*4/2 edges
        assert p.n == 64
        assert p.num_couplings == 128

    def test_degrees_are_four(self):
        p = random_ising(64, Torus(8, 8), seed=1)
        deg = np.zeros(64, dtype=int)
        for i, j, _ in p.couplings:
            deg[i] += 1
            deg[j] += 1
        assert np.all(deg == 4)

    def test_diagonal_flag_gives_degree_six(self):
        p = random_ising(64, Torus(8, 8, diagonals=True), seed=0)
        assert p.num_couplings == 192
        deg = np.zeros(64, dtype=int)
        for i, j, _ in p.couplings:
            deg[i] += 1
            deg[j] += 1
        assert np.all(deg == 6)

    def test_values_are_plus_minus_one(self):
        p = random_ising(30, Torus(5, 6), seed=3)
        vals = {v for _, _, v in p.couplings}
        assert vals <= {-1.0, 1.0}

    def test_size_mismatch_rejected(self):
        with pytest.raises(SpecificationError):
            random_ising(60, Torus(8, 8), seed=0)

    def test_tiny_grid_rejected(self):
        with pytest.raises(SpecificationError):
            random_ising(8, Torus(2, 4), seed=0)

    def test_boolean_size_rejected(self):
        with pytest.raises(SpecificationError):
            Torus(True, 2)


def test_boolean_n_rejected():
    with pytest.raises(SpecificationError):
        random_ising(True, Complete(), seed=0)


@pytest.mark.parametrize("n", [None, "3"])
def test_n_is_checked_before_drawing(n):
    with pytest.raises(SpecificationError, match="n must be an integer"):
        random_ising(n, Complete(), seed=0)


def test_n_beyond_int32_rejected_before_allocating(capped_python):
    proc = capped_python("-c", "import oimsim; oimsim.random_ising(2**31, oimsim.Complete(), 0)")
    assert proc.returncode == 1
    assert proc.stderr.strip().endswith(
        "SpecificationError: n must be an integer from 1 to 2**31 - 1"), proc.stderr


class TestComplete:
    def test_zero_draws_not_stored(self):
        p = random_ising(30, Complete(), seed=0)
        assert all(v != 0 for _, _, v in p.couplings)

    def test_zero_fraction_near_third(self):
        # law of large numbers over the uniform {0, -1, +1} draw
        total = 0
        stored = 0
        for seed in range(40):
            p = random_ising(60, Complete(), seed=seed)
            total += 60 * 59 // 2
            stored += p.num_couplings
        zero_frac = 1 - stored / total
        assert abs(zero_frac - 1 / 3) < 0.05

    def test_determinism(self):
        a = random_ising(25, Complete(), seed=11)
        b = random_ising(25, Complete(), seed=11)
        assert a == b
        c = random_ising(25, Complete(), seed=12)
        assert a != c
