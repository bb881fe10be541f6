"""Property tests: file round trips, rejected rows, batch == single runs, SA determinism."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oimsim import (DynamicsParams, IsingProblem, KsSchedule, ParseError,
                    SaParams, WeightedGraph, parse_gset, read_ising_json,
                    run_seeds, simulate, simulated_annealing, write_gset,
                    write_ising_json)

FEW = settings(max_examples=25, deadline=None,
               suppress_health_check=[HealthCheck.too_slow])


@st.composite
def edge_lists(draw, min_edges=0, value=None):
    """(n, [(i, j, value), ...]) with distinct pairs in random order and
    orientation."""
    n = draw(st.integers(max(2, min_edges + 1), 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=min(min_edges, len(pairs)),
                           max_size=len(pairs), unique=True))
    edges = []
    for i, j in chosen:
        if draw(st.booleans()):
            i, j = j, i
        edges.append((i, j, draw(value)))
    return n, edges


INT_WEIGHTS = st.integers(-(2 ** 53) + 1, 2 ** 53 - 1).filter(bool)
REAL_COUPLINGS = st.one_of(
    st.integers(-1000, 1000).filter(bool).map(float),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False).filter(bool))


@FEW
@given(edge_lists(value=INT_WEIGHTS))
def test_gset_round_trip(case):
    n, edges = case
    g = WeightedGraph(n, edges)
    text = write_gset(g)
    again = parse_gset(text)
    assert again == g
    assert again.edges == g.edges
    assert write_gset(again) == text


@FEW
@given(edge_lists(value=REAL_COUPLINGS), st.booleans(), st.one_of(st.none(), st.text()))
def test_ising_json_round_trip(case, with_fields, name):
    n, edges = case
    fields = np.linspace(-1.5, 2.0, n) if with_fields else None
    p = IsingProblem(n, edges, fields=fields, name=name)
    text = write_ising_json(p)
    again = read_ising_json(text)
    assert again == p
    assert again.couplings == p.couplings and again.name == p.name
    assert write_ising_json(again) == text


# (G-set line, Ising-JSON entry) corruptions of edge k, given the graph's
# n and the pair of an earlier edge; each makes only that edge invalid
CORRUPTIONS = {
    "out_of_range": (lambda n, u, v, w, prev: f"{u} {n + 1} {w}",
                     lambda n, u, v, w, prev: [u - 1, n, w]),
    "self_loop": (lambda n, u, v, w, prev: f"{u} {u} {w}",
                  lambda n, u, v, w, prev: [u - 1, u - 1, w]),
    "zero_weight": (lambda n, u, v, w, prev: f"{u} {v} 0",
                    lambda n, u, v, w, prev: [u - 1, v - 1, 0]),
    "duplicate": (lambda n, u, v, w, prev: f"{prev[1]} {prev[0]} {w}",
                  lambda n, u, v, w, prev: [prev[1] - 1, prev[0] - 1, w]),
    "non_integer": (lambda n, u, v, w, prev: f"{u} {v}.5 {w}",
                    lambda n, u, v, w, prev: [u - 1, v - 0.5, w]),
    "int64_overflow": (lambda n, u, v, w, prev: f"{u} {v} 99999999999999999999",
                       lambda n, u, v, w, prev: [u - 1, 2 ** 64, w]),
    "token_count": (lambda n, u, v, w, prev: f"{u} {v}",
                    lambda n, u, v, w, prev: [u - 1, v - 1]),
}


@FEW
@given(edge_lists(min_edges=2, value=st.integers(-9, 9).filter(bool)),
       st.sampled_from(sorted(CORRUPTIONS)), st.data())
def test_corrupted_row_is_reported_where_it_is(case, kind, data):
    n, edges = case
    k = data.draw(st.integers(1, len(edges) - 1), label="corrupted edge")
    u, v, w = edges[k]
    u, v = u + 1, v + 1
    prev = tuple(x + 1 for x in edges[data.draw(st.integers(0, k - 1), label="earlier")][:2])
    gset_line, json_entry = CORRUPTIONS[kind]

    lines = [f"{n} {len(edges)}"] + [f"{a + 1} {b + 1} {c}" for a, b, c in edges]
    lines[k + 1] = gset_line(n, u, v, w, prev)
    with pytest.raises(ParseError) as ei:
        parse_gset("\n".join(lines) + "\n")
    assert ei.value.line == k + 2

    entries = [list(e) for e in edges]
    entries[k] = json_entry(n, u, v, w, prev)
    with pytest.raises(ParseError) as ei:
        read_ising_json(json.dumps({"n": n, "edges": entries}))
    assert f"$.edges[{k}]" in str(ei.value)


@settings(max_examples=8, deadline=None)
@given(edge_lists(value=st.sampled_from([-1.0, 1.0, 0.5])),
       st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=4, unique=True),
       st.booleans())
def test_run_seeds_equals_simulate_per_seed(case, seeds, with_fields):
    n, edges = case
    fields = np.linspace(-0.5, 0.5, n) if with_fields else None
    p = IsingProblem(n, edges, fields=fields)
    prm = DynamicsParams(cycles=2.0, steps_per_cycle=20, noise_amp=0.2,
                         variability_pct=0.02, ks_schedule=KsSchedule.ramp(0.0, 1.0, 1.0))
    batch = run_seeds(p, prm, seeds, total_weight=3.0)
    assert [r.seed for r in batch] == seeds
    for r in batch:
        single = simulate(p, prm, seed=r.seed, total_weight=3.0)
        assert np.array_equal(r.spins, single.spins)
        assert r.H == single.H
        assert r.cut == single.cut


@FEW
@given(edge_lists(min_edges=1, value=REAL_COUPLINGS), st.booleans(),
       st.integers(0, 2 ** 63), st.integers(1, 400), st.sampled_from([None, 1, 3]))
def test_sa_same_params_same_bits(problem, with_fields, seed, iterations, moves):
    n, edges = problem
    h = np.random.default_rng(seed).uniform(-2.0, 2.0, n) if with_fields else None
    p = IsingProblem(n, edges, fields=h)
    runs = [simulated_annealing(p, SaParams(iterations=iterations, moves_per_temp=moves,
                                            seed=seed)) for _ in range(2)]
    (spins_a, H_a), (spins_b, H_b) = runs
    assert np.asarray(spins_a).tobytes() == np.asarray(spins_b).tobytes()
    assert float(H_a).hex() == float(H_b).hex()
