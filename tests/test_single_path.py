"""One implementation per decision: shared kernels, edge arrays, edge checks.

The coupling kernel is shared by drift and the integrator, couplings and
edges are views of the stored arrays, and every edge list is validated by
one function whose rejected row maps back to a G-set line or JSON path.
"""

import pickle
import warnings

import numpy as np
import pytest

from oimsim import (DynamicsParams, IsingProblem, KsSchedule, ParseError,
                    PhaseState, SpecificationError, WeightedGraph, drift,
                    maxcut_to_ising, parse_gset, read_ising_json, simulate)
from oimsim.cli import main
from oimsim.dynamics import _steps

G1_SHAPE = (800, 19176)  # vertices and unit edges of er800_batch


def er_graph(n, m, seed):
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, 1)
    pick = np.sort(rng.choice(len(iu), m, replace=False))
    return WeightedGraph(n, np.column_stack([iu[pick], ju[pick], np.ones(m, dtype=np.int64)]))


class TestEdgeViews:
    def test_views_are_not_stored(self):
        g = WeightedGraph(3, [(2, 1, 4), (0, 1, -1)])
        p = IsingProblem(3, [(2, 1, 0.5), (0, 1, -1.0)], fields=[0.0, 1.0, 0.0])
        assert "edges" not in vars(g)
        assert "couplings" not in vars(p)
        assert "fields" not in vars(p)
        assert g.edges == ((0, 1, -1), (1, 2, 4))
        assert p.couplings == ((0, 1, -1.0), (1, 2, 0.5))
        assert all(type(x) is int for e in g.edges for x in e)
        assert [tuple(map(type, c)) for c in p.couplings] == [(int, int, float)] * 2

    def test_constructor_arguments_by_position_and_keyword(self):
        a = IsingProblem(2, [(0, 1, 1.0)], [0.5, 0.0], "p")
        b = IsingProblem(n=2, couplings=[(0, 1, 1.0)], fields=[0.5, 0.0], name="p")
        assert a == b and a.name == b.name == "p"
        assert WeightedGraph(2, [(0, 1, 3)], "g") == \
            WeightedGraph(n_vertices=2, edges=[(0, 1, 3)], name="g")

    def test_g1_sized_problem_pickle(self):
        problem = maxcut_to_ising(er_graph(*G1_SHAPE, seed=0))
        assert problem.num_couplings == G1_SHAPE[1]
        assert len(pickle.dumps(problem)) <= 800_000
        assert pickle.loads(pickle.dumps(problem)) == problem


class TestSharedCouplingKernel:
    @pytest.mark.parametrize("seed", range(3))
    def test_drift_is_the_integrator_increment(self, seed):
        rng = np.random.default_rng(seed)
        n = 20
        edges = [(i, j, float(rng.uniform(-1, 1)))
                 for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        p = IsingProblem(n, edges, fields=rng.uniform(-1, 1, n))
        prm = DynamicsParams(K=0.7, ks_schedule=KsSchedule.constant(0.9),
                             noise_amp=0.0, steps_per_cycle=100)
        dt = prm.dt
        # phases well inside (0, 2*pi) so the step never wraps
        phi = rng.uniform(1.0, 5.0, n)
        Phi = phi.reshape(-1, 1).copy()
        _steps(Phi, p.adjacency, p.h.reshape(-1, 1), prm.K * dt, 0.0, ([[]], [n], 0.0),
               [2.0 * dt * 0.9])
        d = drift(p, PhaseState(phi), prm)
        np.testing.assert_allclose(d, (Phi[:, 0] - phi) / dt, rtol=0, atol=1e-12)

    def test_trace_scores_with_hamiltonian(self):
        p = IsingProblem(4, [(0, 1, 0.3), (1, 2, -1.1), (2, 3, 0.7)],
                         fields=[0.1, 0.0, -0.2, 0.0])
        prm = DynamicsParams(cycles=3.0, steps_per_cycle=40)
        res = simulate(p, prm, seed=2, trace_points=7)
        assert res.trace.rounded_H[-1] == res.H


class TestEdgeValidation:
    @pytest.mark.parametrize("edges, row", [
        ([(0, 1, 1.0), (1, 1, 1.0)], 1),
        ([(0, 1, 1.0), (0, 2, 1.0), (0, 5, 1.0)], 2),
        ([(0, 1, 1.0), (1, 2, 0.0)], 1),
        ([(0, 1, 1.0), (1, 2, np.nan)], 1),
        ([(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0), (1, 0, 1.0)], 2),
        ([(0, 1, 1.0), (0.5, 2, 1.0)], 1),
    ])
    def test_rejected_row_is_reported(self, edges, row):
        with pytest.raises(SpecificationError) as ei:
            IsingProblem(3, edges)
        assert ei.value.row == row
        assert f"row {row}" in str(ei.value)

    def test_weights_beyond_float64_integers_rejected(self):
        top = 2 ** 53 - 1
        assert WeightedGraph(2, [(0, 1, top)]).total_weight == top
        assert WeightedGraph(2, [(0, 1, -top)]).total_weight == -top
        for w in (2 ** 53, -(2 ** 53), 2 ** 53 + 1, 2 ** 62):
            with pytest.raises(SpecificationError):
                WeightedGraph(2, [(0, 1, w)])
        with pytest.raises(SpecificationError):
            WeightedGraph(2, [(0, 1, 1.5)])


class TestGsetWeights:
    @pytest.mark.parametrize("weight", ["99999999999999999999", "9223372036854775808",
                                        "-99999999999999999999", "9007199254740993",
                                        "9007199254740992", "-9007199254740992"])
    def test_huge_weight_is_a_parse_error_at_its_line(self, weight):
        text = f"3 2\n1 2 1\n\n2 3 {weight}\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError) as ei:
                parse_gset(text, name="big.gset")
        assert ei.value.line == 4
        assert ei.value.path == "big.gset"

    def test_largest_exact_weight_survives(self):
        g = parse_gset("2 1\n1 2 -9007199254740991\n")
        assert g.edges == ((0, 1, -9007199254740991),)
        assert g.total_weight == -9007199254740991

    def test_range_error_keeps_one_based_wording(self):
        with pytest.raises(ParseError) as ei:
            parse_gset("3 1\n0 2 1\n")
        assert "out of range 1..3" in str(ei.value)
        assert ei.value.line == 2

    def test_cli_convert_exits_3(self, tmp_path):
        src = tmp_path / "big.gset"
        src.write_text("2 1\n1 2 99999999999999999999\n")
        out = tmp_path / "out.json"
        assert main(["convert", "--input", str(src), "--from", "gset",
                     "--to", "ising-json", "--out", str(out)]) == 3
        src.write_text("2 1\n1 2 9007199254740993\n")
        assert main(["convert", "--input", str(src), "--from", "gset",
                     "--to", "gset", "--out", str(out)]) == 3
        assert not out.exists()

    def test_cli_convert_json_with_fractional_coupling_exits_3(self, tmp_path):
        src = tmp_path / "frac.json"
        src.write_text('{"n": 2, "edges": [[0, 1, 1.5]]}')
        assert main(["convert", "--input", str(src), "--to", "gset",
                     "--out", str(tmp_path / "x.gset")]) == 3


class TestJsonEdges:
    @pytest.mark.parametrize("entry", ["[false, 1, 1]", "[true, 2, 1]", "[0, true, 1]",
                                       "[0, 1, true]"])
    def test_booleans_are_not_indices(self, entry):
        with pytest.raises(ParseError) as ei:
            read_ising_json(f'{{"n": 3, "edges": [[0, 2, 1], {entry}]}}')
        assert "$.edges[1]" in str(ei.value)

    @pytest.mark.parametrize("entry", ["[0, 1%s, 1]" % ("0" * 400), "[0, 1, 1%s]" % ("0" * 400)])
    def test_ints_beyond_float64_map_to_their_path(self, entry):
        with pytest.raises(ParseError) as ei:
            read_ising_json(f'{{"n": 3, "edges": [[0, 2, 1], {entry}]}}')
        assert "$.edges[1]" in str(ei.value)

    def test_rejected_row_maps_to_its_path(self):
        with pytest.raises(ParseError) as ei:
            read_ising_json('{"n": 3, "edges": [[0, 1, 1], [1, 2, 1], [1, 0, 2]]}')
        assert "$.edges[2]" in str(ei.value)
        assert "duplicate" in str(ei.value)
