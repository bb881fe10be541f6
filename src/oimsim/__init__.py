"""oimsim: simulator for oscillator-based Ising machines.

Networks of coupled self-sustaining oscillators, phase-binarized by a
double-frequency SYNC signal, settle into binary phase patterns that
minimize an Ising Hamiltonian. This package integrates those stochastic
phase dynamics, maps MAX-CUT benchmarks onto Ising problems, and provides
reference solvers plus a reproducible benchmark harness.
"""

__version__ = "0.1.0"

from .errors import (OimError, DimensionError, SpecificationError, ParseError,
                     CapacityError, NumericalDivergenceError)
from .problems import (IsingProblem, WeightedGraph, as_spins, random_spins,
                       hamiltonian, cut_value, maxcut_to_ising,
                       cut_from_hamiltonian)
from .generators import Complete, Torus, random_ising
from .io import (parse_gset, write_gset, load_gset, read_ising_json,
                 write_ising_json, load_ising_json, BestKnownCatalog,
                 load_catalog, default_catalog)
from .dynamics import (DEFAULTS, KsSchedule, DynamicsParams, PhaseState,
                       RunResult, EnergyTrace, sample_detuning, drift,
                       lyapunov, step, round_phases, simulate, run_seeds)
from .oracles import BruteForceResult, brute_force, SaParams, simulated_annealing
from .bench import (BenchmarkSpec, ProblemStats, RunSummary,
                    EnergyHistogram, run_benchmark, histogram,
                    ablation_compare, AblationResult, export, write_export)

__all__ = [
    "__version__",
    "OimError", "DimensionError", "SpecificationError", "ParseError",
    "CapacityError", "NumericalDivergenceError",
    "IsingProblem", "WeightedGraph", "as_spins", "random_spins",
    "hamiltonian", "cut_value", "maxcut_to_ising", "cut_from_hamiltonian",
    "Complete", "Torus", "random_ising",
    "parse_gset", "write_gset", "load_gset", "read_ising_json",
    "write_ising_json", "load_ising_json", "BestKnownCatalog",
    "load_catalog", "default_catalog",
    "DEFAULTS", "KsSchedule", "DynamicsParams", "PhaseState", "RunResult",
    "EnergyTrace", "sample_detuning", "drift", "lyapunov",
    "step", "round_phases", "simulate", "run_seeds",
    "BruteForceResult", "brute_force", "SaParams", "simulated_annealing",
    "BenchmarkSpec", "ProblemStats", "RunSummary",
    "EnergyHistogram", "run_benchmark", "histogram", "ablation_compare",
    "AblationResult", "export", "write_export",
]
