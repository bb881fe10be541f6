"""Shared draws: in a packed group, each seed draws once per problem size.

A seed's substreams depend only on the seed and on how many values are
drawn from them, so problems of equal size in one group read the same
initial phases, detuning and noise. The integrator draws them once per
(seed, size) and every problem of that size reads them; each run must
still be bit-identical to its problem run alone.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

import oimsim.dynamics as dyn
from oimsim import Complete, DynamicsParams, IsingProblem, KsSchedule, random_ising, run_seeds

PARAMS = DynamicsParams(cycles=4.0, steps_per_cycle=30, noise_amp=0.2,
                        ks_schedule=KsSchedule.ramp(0.0, 2.0, 1.0))
VARIANTS = (PARAMS, dataclasses.replace(PARAMS, variability_pct=0.05))
SEEDS = [4, 5, 6]


def sizes_group():
    """Sizes 3, 5, 3, 7, 5, 3; the second 5-spin problem has fields."""
    group = [random_ising(m, Complete(), seed=k) for k, m in enumerate([3, 5, 3, 7, 5, 3])]
    h = np.random.default_rng(9).uniform(-1.0, 1.0, 5)
    group[4] = IsingProblem(5, group[4].couplings, fields=h)
    return group


@pytest.fixture(params=[(1, "kernel"), (2, "kernel"), (1, "numpy"), (2, "numpy")],
                ids=lambda p: f"{p[1]}-{p[0]}")
def budget(request, monkeypatch):
    """Split each integration over this many seed slices, on this path."""
    threads, path = request.param
    monkeypatch.setattr(dyn, "_usable_cpus", lambda: threads)
    monkeypatch.setattr(dyn, "_MIN_SLICE", 1)
    if path == "numpy":
        monkeypatch.setattr(dyn, "_load_kernel", lambda: None)
    elif dyn._load_kernel() is None:
        pytest.skip("the compiled step kernel is not available here")


@pytest.mark.usefixtures("budget")
def test_packed_equal_sizes_match_runs_alone(monkeypatch):
    # 120 steps in several noise blocks, packed and alone
    monkeypatch.setattr(dyn, "_MAX_NOISE_DOUBLES", 500)
    group = sizes_group()
    packed = run_seeds(group, VARIANTS, SEEDS)
    alone = [run_seeds(p, v, SEEDS) for v in VARIANTS for p in group]
    alone = [r for runs in alone for r in runs]  # variant-major, then problem-major
    assert len(packed) == len(alone) == 2 * 6 * 3
    for a, b in zip(packed, alone):
        assert a.seed == b.seed
        assert a.spins.tobytes() == b.spins.tobytes()
        assert np.float64(a.H).tobytes() == np.float64(b.H).tobytes()
    # the phases too, row by row
    Phi, _ = dyn._integrate_batch(group, VARIANTS, SEEDS)
    rows = np.cumsum([0] + [p.n for p in group])
    for p, r0, r1 in zip(group, rows, rows[1:]):
        assert Phi[r0:r1].tobytes() == dyn._integrate_batch(p, VARIANTS, SEEDS)[0].tobytes()


def test_substreams_once_per_seed_and_size(monkeypatch):
    # 25 problems of 10 spins x 10 seeds: one init and one noise stream per
    # seed (no detuning stream without variability), not one per problem
    made, real = [], dyn._substream
    monkeypatch.setattr(dyn, "_substream", lambda seed, stream: made.append(stream)
                        or real(seed, stream))
    group = [random_ising(10, Complete(), seed=k) for k in range(25)]
    dyn._integrate_batch(group, dataclasses.replace(PARAMS, cycles=0.1), list(range(10)))
    assert Counter(made) == {dyn._STREAM_INIT: 10, dyn._STREAM_NOISE: 10}
