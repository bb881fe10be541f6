"""Each kind of input has one check: malformed values raise SpecificationError
or DimensionError (never a bare numpy error or warning), and every real
dtype builds bit-identical problems, phases and energies."""

import json

import numpy as np
import pytest

from oimsim import (BenchmarkSpec, DimensionError, DynamicsParams, IsingProblem, KsSchedule,
                    PhaseState, SaParams, SpecificationError, WeightedGraph, cut_value, drift,
                    export, hamiltonian, histogram, lyapunov, run_benchmark, run_seeds, step)
from oimsim.dynamics import _integrate_batch

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

P = IsingProblem(2, [(0, 1, -1.0)], fields=[0.5, 0.0])
G = WeightedGraph(2, [(0, 1, 3)])
PRM = DynamicsParams(cycles=1.0, steps_per_cycle=4)
STATE = PhaseState([0.1, 0.2])
SPEC = BenchmarkSpec(problems=(("p", P),), params=PRM, runs=1)

# length-2 inputs whose first entry is valid everywhere and second is not
MALFORMED = {
    "true": [1, True], "false": [1, False], "numeric_string": [1, "1"], "string": [1, "x"],
    "none": [1, None], "complex": [1, 1j], "huge_int": [1, 10**400], "nan": [1, np.nan],
    "inf": [1, np.inf], "minus_inf": [1, -np.inf], "ragged": [[1], [1, 1]],
    "bool_array": np.array([True, False]), "complex_array": np.array([1, 1j]),
    "string_array": np.array(["1", "1"]), "object_array": np.array([1, None], dtype=object),
    "nan_array": np.array([1.0, np.nan]), "inf_float32_array": np.array([1, np.inf], np.float32),
}

# each entry point as a call around one length-2 input v
ENTRY_POINTS = {
    "couplings": lambda v: IsingProblem(3, list(zip([0, 1], [1, 2], v))),
    "coupling_indices": lambda v: IsingProblem(3, list(zip(v, [2, 2], [1, 1]))),
    "fields": lambda v: IsingProblem(2, [], fields=v),
    "graph_edges": lambda v: WeightedGraph(3, list(zip([0, 1], [1, 2], v))),
    "phases": lambda v: PhaseState(v),
    "drift_detuning": lambda v: drift(P, STATE, PRM, detuning=v),
    "step_detuning": lambda v: step(STATE, P, PRM, detuning=v, rng=np.random.default_rng(0)),
    "initial_phases": lambda v: _integrate_batch(P, PRM, [0], initial_phases=v),
    "hamiltonian_spins": lambda v: hamiltonian(P, v),
    "cut_value_spins": lambda v: cut_value(G, v),
    "histogram_values": lambda v: histogram(v),
    "histogram_reference": lambda v: histogram([1.0, 2.0], reference=v[1]),
    "run_seeds_group": lambda v: run_seeds([P, v[1]], PRM, [0]),
    "run_seeds_variants": lambda v: run_seeds(P, (PRM, v[1]), [0]),
    "run_seeds_seeds": lambda v: run_seeds(P, PRM, v),
    "run_benchmark_specs": lambda v: run_benchmark([SPEC, v[1]]),
}

# 10**400 is an integer seed >= 0, and a None reference means none
VALID = {("run_seeds_seeds", "huge_int"), ("histogram_reference", "none"),
         ("histogram_reference", "object_array")}
CASES = [(entry, value) for entry in ENTRY_POINTS for value in MALFORMED
         if (entry, value) not in VALID]


@pytest.mark.parametrize("entry, value", CASES, ids=[f"{e}-{v}" for e, v in CASES])
def test_malformed_input_is_a_specification_error(entry, value):
    with pytest.raises((SpecificationError, DimensionError)):
        ENTRY_POINTS[entry](MALFORMED[value])


@pytest.mark.parametrize("spins", [
    [1.5, -1.2], np.array([255, 1], dtype=np.uint8), [255, 1], [257, -1], [0, 1],
    [True, True], ["1", "-1"], [np.nan, 1], np.array([np.nan, 1.0]), np.array([1, -1j]),
], ids=["fraction", "uint8_255", "int_255", "int_257", "zero", "booleans", "strings", "nan",
        "nan_array", "complex_array"])
@pytest.mark.parametrize("score", [lambda s: hamiltonian(P, s), lambda s: cut_value(G, s)],
                         ids=["hamiltonian", "cut_value"])
def test_spins_are_checked_before_the_cast(score, spins):
    with pytest.raises(SpecificationError, match="spins"):
        score(spins)


@pytest.mark.parametrize("call", [
    lambda: IsingProblem(2, [], fields=[0.5]),
    lambda: PhaseState([[0.1, 0.2]]),
    lambda: drift(P, STATE, PRM, detuning=[0.0]),
    lambda: step(STATE, P, PRM, detuning=[0.0, 0.0, 0.0], rng=np.random.default_rng(0)),
    lambda: lyapunov(P, PhaseState([0.1, 0.2, 0.3]), PRM),
    lambda: _integrate_batch(P, PRM, [0], initial_phases=[0.1, 0.2, 0.3]),
    lambda: hamiltonian(P, [1]),
    lambda: cut_value(G, [1, -1, 1]),
], ids=["fields", "phases", "drift_detuning", "step_detuning", "lyapunov_state",
        "initial_phases", "hamiltonian_spins", "cut_value_spins"])
def test_wrong_length_is_a_dimension_error(call):
    with pytest.raises(DimensionError):
        call()


@pytest.mark.parametrize("call", [
    lambda: run_seeds([P, 3], PRM, [0]),
    lambda: run_seeds(P, (PRM, "x"), [0]),
    lambda: run_benchmark([SPEC, "x"]),
    lambda: run_seeds(P, None, [0]),
    lambda: run_seeds(3, PRM, [0]),
    lambda: run_seeds(P, PRM, 5),
    lambda: run_seeds((), PRM, [0]),
    lambda: run_seeds(P, [], [0]),
    lambda: run_benchmark([]),
    lambda: run_benchmark(None),
], ids=["group_with_int", "variants_with_string", "specs_with_string", "no_params",
        "int_problem", "int_seeds", "empty_group", "empty_variants", "empty_specs", "no_spec"])
def test_one_or_many_items_of_one_type(call):
    with pytest.raises(SpecificationError):
        call()


@pytest.mark.parametrize("array", [np.array([[0, 1, 1]], dtype=bool), np.array([[0, 1, 1j]]),
                                   np.array([["0", "1", "1"]]), np.array([[0, 1, np.nan]])],
                         ids=["bool", "complex", "string", "nan"])
def test_coupling_arrays_are_judged_by_dtype(array):
    with pytest.raises(SpecificationError, match=r"row 0"):
        IsingProblem(2, array)


def as_kind(values, kind):
    """values as a Python int or float list, or as an array of a numpy dtype."""
    a = np.array(values)
    return a.astype(kind[:-5]).tolist() if kind.endswith("_list") else a.astype(kind)


@pytest.mark.parametrize("kind", ["int_list", "float_list", "int8", "int64", "uint16",
                                  "float32", "float64"])
def test_every_real_dtype_is_bit_identical(kind):
    spins = [1] * 5 if kind == "uint16" else [1, -1, -1, 1, -1]

    def outputs(convert):
        problem = IsingProblem(5, convert([(0, 1, 2), (1, 2, 3), (0, 3, 1), (2, 4, 5)]),
                               fields=convert([0, 1, 2, 3, 1]))
        graph = WeightedGraph(5, convert([(0, 1, 2), (3, 4, 1)]))
        state = PhaseState(convert([0, 1, 2, 3, 1]))
        phi, _ = _integrate_batch(problem, PRM, [0], initial_phases=convert([3, 2, 1, 0, 1]))
        arrays = (*problem.edge_arrays, problem.h, *graph.edge_arrays, state.phases, phi,
                  drift(problem, state, PRM, detuning=convert([1, 0, 0, 2, 0])))
        return ([a.dtype.str for a in arrays], [a.tobytes() for a in arrays],
                float.hex(hamiltonian(problem, convert(spins))), cut_value(graph, convert(spins)))

    assert outputs(lambda v: as_kind(v, kind)) == outputs(lambda v: np.array(v, np.float64))


# the module's filterwarnings turns the "overflow encountered in cast" of a
# float32 or float16 compared with the float range into an error
@pytest.mark.parametrize("make", [
    lambda: DynamicsParams(K=np.float32(1)),
    lambda: KsSchedule(1.0, np.float32(0), np.float32(1)),
    lambda: KsSchedule(1.0, np.float16(0), 1e300),
    lambda: BenchmarkSpec(problems=(("p", P, np.float32(3)),)),
    lambda: PhaseState(np.zeros(2), time=np.float16(1)),
    lambda: SaParams(iterations=10, T_initial=1e300, T_final=np.float16(1)),
], ids=["K", "ramp", "ramp_mixed", "total_weight", "time", "temperatures"])
def test_numpy_scalars_are_checked_without_a_cast(make):
    make()


@pytest.mark.parametrize("T_initial", ["5", True], ids=["string", "true"])
def test_start_temperature_is_a_finite_number(T_initial):
    with pytest.raises(SpecificationError, match="T_initial"):
        SaParams(iterations=10, T_initial=T_initial)


def untimed_export(K, noise_amp, variability_pct, cycles, steps_per_cycle, total_weight):
    """The JSON export of one run of P, without the timing that no two runs share."""
    prm = DynamicsParams(K=K, noise_amp=noise_amp, variability_pct=variability_pct,
                         cycles=cycles, steps_per_cycle=steps_per_cycle)
    obj = json.loads(export(run_benchmark(
        BenchmarkSpec(problems=(("p", P, total_weight),), params=prm, runs=1))))
    del obj["timing"]
    return json.dumps(obj, sort_keys=True)


def test_numpy_typed_params_export_as_python_numbers():
    # params store Python numbers (steps_per_cycle an int, a total weight a
    # float), so numpy scalars export what Python numbers of their kind do
    assert (untimed_export(np.float32(1), np.int64(0), np.float16(0), np.float32(1), 4.0,
                           np.float32(3))
            == untimed_export(1.0, 0, 0.0, 1.0, 4, 3.0))
    assert json.dumps(DynamicsParams(steps_per_cycle=100.0).to_config()) == json.dumps(
        DynamicsParams().to_config())
