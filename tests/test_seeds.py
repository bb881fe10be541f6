"""Run seeds: every entry point rejects a seed that is not an integer >= 0.

numpy's SeedSequence takes only non-negative integers, and a float seed
was silently truncated while the records reported it unchanged.
"""

import numpy as np
import pytest

from oimsim import (BenchmarkSpec, Complete, DynamicsParams, IsingProblem,
                    SaParams, SpecificationError, random_ising, run_seeds,
                    simulate)
from oimsim.cli import main

FERRO = IsingProblem(2, [(0, 1, 1.0)])
SHORT = DynamicsParams(cycles=1.0, steps_per_cycle=10)


@pytest.mark.parametrize("seed", [-1, 2.5, "3", None])
class TestRejected:
    def test_benchmark_spec(self, seed):
        with pytest.raises(SpecificationError, match="seed_base"):
            BenchmarkSpec(problems=(("x", FERRO),), runs=1, seed_base=seed)

    def test_simulate(self, seed):
        with pytest.raises(SpecificationError, match="seed"):
            simulate(FERRO, SHORT, seed=seed)

    def test_run_seeds(self, seed):
        with pytest.raises(SpecificationError, match="seed"):
            run_seeds(FERRO, SHORT, [0, seed])

    def test_random_ising(self, seed):
        with pytest.raises(SpecificationError, match="seed"):
            random_ising(4, Complete(), seed=seed)

    def test_sa_params(self, seed):
        with pytest.raises(SpecificationError, match="seed"):
            SaParams(iterations=10, seed=seed)


def test_numpy_integers_are_seeds():
    a, b = simulate(FERRO, SHORT, seed=3), simulate(FERRO, SHORT, seed=np.int64(3))
    assert a.spins.tobytes() == b.spins.tobytes() and a.H == b.H
    assert random_ising(5, Complete(), seed=np.uint8(2)).couplings == \
        random_ising(5, Complete(), seed=2).couplings
    assert BenchmarkSpec(problems=(("x", FERRO),), runs=2, seed_base=np.int32(4)).seeds() == [4, 5]


@pytest.mark.parametrize("argv", [
    ["solve", "--input", "{gset}", "--cycles", "5", "--threads", "1"],
    ["gen", "--spins", "4", "--topology", "complete"],
    ["oracle", "sa", "--input", "{gset}", "--iters", "10"],
])
def test_cli_negative_seed_exits_2(argv, tmp_path, capsys):
    gset = tmp_path / "tri.gset"
    gset.write_text("3 3\n1 2 1\n1 3 1\n2 3 1\n")
    assert main([a.format(gset=gset) for a in argv] + ["--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err
