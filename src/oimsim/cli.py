"""Command-line entry point: solve, gen, oracle, bench, convert.

Exit codes: 0 success; 2 usage or flag error, or an unwritable output path;
3 input parse error, or an unreadable input path; 4 numerical divergence;
5 capacity refusal (exact enumeration too large).
Every result file carries the full parameter set and seeds needed to
reproduce it; timing lives in a separate section so reruns are
byte-identical apart from it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .bench import BenchmarkSpec, export, export_paths, run_benchmark, write_export
from .dynamics import DEFAULTS, DynamicsParams, KsSchedule, _usable_cpus, simulate
from .errors import (CapacityError, NumericalDivergenceError, OimError,
                     ParseError, SpecificationError, _integer)
from .generators import Complete, Torus, random_ising
from .io import (default_catalog, load_catalog, load_gset, load_ising_json, write_gset,
                 write_ising_json)
from .oracles import SaParams, brute_force, simulated_annealing
from .problems import WeightedGraph, cut_from_hamiltonian, maxcut_to_ising

TRACE_MAX_POINTS = 10_000


def _err(msg):
    print(f"oimsim: {msg}", file=sys.stderr)


def _add_dynamics_flags(p):
    p.add_argument("--cycles", type=float, default=DEFAULTS["cycles"],
                   help="simulated duration in oscillation cycles")
    p.add_argument("--steps-per-cycle", type=int, default=DEFAULTS["steps_per_cycle"],
                   help="integrator steps per cycle (dt = 1/steps)")
    p.add_argument("--k", type=float, default=DEFAULTS["K"],
                   help="global coupling gain K")
    p.add_argument("--ks", type=float, default=DEFAULTS["ks"]["level"],
                   help="SYNC strength level Ks")
    p.add_argument("--ks-ramp", default=_default_ramp_flag(),
                   help="'none' or 'linear:T0:T1' (ramp 0 -> Ks between T0 and T1)")
    p.add_argument("--noise", type=float, default=DEFAULTS["noise_amp"],
                   help="phase noise amplitude, rad per sqrt(cycle)")
    p.add_argument("--variability", type=float, default=DEFAULTS["variability_pct"],
                   help="natural-frequency spread (std of fractional detuning)")
    p.add_argument("--no-sync", action="store_true",
                   help="disable the SYNC/SHIL injection (ablation): Ks level 0, as --ks 0")


def _add_run_flags(p, runs):
    p.add_argument("--runs", type=int, default=runs, help="runs per problem")
    _add_dynamics_flags(p)
    p.add_argument("--seed", type=int, default=0, help="seed of the first run")
    p.add_argument("--threads", type=int, default=None,
                   help="work-unit threads (default: OIM_THREADS or all cores)")
    p.add_argument("--out", default=None, help="result file (default: stdout)")
    p.add_argument("--out-format", choices=["csv", "json"], default="json")


def _default_ramp_flag():
    ks = DEFAULTS["ks"]
    return f"linear:{ks['t0']:g}:{ks['t1']:g}"


def _params_from_args(args):
    ramp = args.ks_ramp
    t0 = t1 = 0.0  # 'none': a constant Ks, the step at 0
    if ramp != "none":
        parts = ramp.split(":")
        if len(parts) != 3 or parts[0] != "linear":
            raise SpecificationError(f"--ks-ramp must be 'none' or 'linear:T0:T1', got {ramp!r}")
        try:
            t0, t1 = float(parts[1]), float(parts[2])
        except ValueError:
            raise SpecificationError(f"bad ramp times in {ramp!r}") from None
    return DynamicsParams(
        K=args.k,
        ks_schedule=KsSchedule.ramp(t0, t1, 0.0 if args.no_sync else args.ks),
        noise_amp=args.noise,
        variability_pct=args.variability,
        cycles=args.cycles,
        steps_per_cycle=args.steps_per_cycle,
    )


def _threads(args):
    if args.threads is not None:
        return _integer(args.threads, "--threads", 1)
    env = os.environ.get("OIM_THREADS")
    try:
        return _integer(int(env), "OIM_THREADS", 1) if env else _usable_cpus()
    except ValueError:
        raise SpecificationError(f"OIM_THREADS must be an integer >= 1, got {env!r}") from None


def _infer_format(path, fmt):
    if fmt is not None:
        return fmt
    return "ising-json" if str(path).endswith(".json") else "gset"


def _load_problem(path, fmt=None):
    """Returns (name, problem, total_weight or None)."""
    fmt = _infer_format(path, fmt)
    base = os.path.basename(str(path))
    if fmt == "gset":
        graph = load_gset(path)
        return base, maxcut_to_ising(graph), graph.total_weight
    problem = load_ising_json(path)
    return problem.name or base, problem, None


def _output_paths(args):
    """Every file the command writes: --out, a CSV export's sidecar, --trace."""
    out, trace = getattr(args, "out", None), getattr(args, "trace", None)
    paths = [] if out is None else export_paths(out, getattr(args, "out_format", None))
    return paths + ([] if trace is None else [trace])


def _emit(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _run(args, problems, meta, catalog=None):
    """Run the problems with the run flags, write the export to --out
    (default: stdout) and print one stderr line per problem; returns the
    params. The output paths are checked first, and no file changes."""
    params = _params_from_args(args)
    for path in _output_paths(args):  # raise what writing would
        if os.path.exists(path):
            open(path, "r+").close()  # neither truncates nor creates
        else:
            open(path, "x").close()
            os.remove(path)
    spec = BenchmarkSpec(problems=tuple(problems), params=params, runs=args.runs,
                         seed_base=args.seed, oracle=catalog)
    summary = run_benchmark(spec, parallelism=_threads(args))
    extra = {"command": args.command, "argv": args._argv, **meta}
    if args.out is None:
        sys.stdout.write(export(summary, args.out_format, extra_meta=extra))
    else:
        write_export(summary, args.out_format, args.out, extra_meta=extra)
    for s in summary.problems:
        ref = catalog.best_cut(s.name) if catalog else None
        gap = f" ({100.0 * s.best_cut / ref:.2f}% of best known {ref})" if ref else ""
        _err(f"{s.name}: best H {s.best_H:g}"
             + (f", best cut {s.best_cut:g}{gap}" if s.best_cut is not None else "")
             + f" over {s.runs} run(s)")
    return params


# --- subcommands ---------------------------------------------------------------

def _cmd_solve(args):
    name, problem, total_weight = _load_problem(args.input, args.format)
    params = _run(args, [(name, problem, total_weight)],
                  {"input": os.path.basename(str(args.input))})
    if args.trace is not None:
        run = simulate(problem, params, seed=args.seed, trace_points=TRACE_MAX_POINTS)
        tr = run.trace
        lines = ["time,lyapunov,rounded_H"]
        lines += [f"{t!r},{e!r},{h!r}" for t, e, h in
                  zip(tr.times.tolist(), tr.lyapunov.tolist(), tr.rounded_H.tolist())]
        with open(args.trace, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


def _cmd_gen(args):
    spec = args.topology.split(":")
    if spec[0] == "complete" and len(spec) == 1:
        topo = Complete()
    elif spec[0] == "torus" and len(spec) in (3, 4):
        if len(spec) == 4 and spec[3] != "diag":
            raise SpecificationError(f"bad topology {args.topology!r}")
        try:
            rows, cols = int(spec[1]), int(spec[2])
        except ValueError:
            raise SpecificationError(f"bad torus dimensions in {args.topology!r}") from None
        topo = Torus(rows, cols, diagonals=len(spec) == 4)
    else:
        raise SpecificationError(
            f"--topology must be 'complete' or 'torus:R:C[:diag]', got {args.topology!r}")
    problem = random_ising(args.spins, topo, args.seed)
    _emit(write_ising_json(problem), args.out)
    return 0


def _cmd_oracle(args):
    name, problem, total_weight = _load_problem(args.input, args.format)
    if args.solver == "brute":
        res = brute_force(problem)
        obj = {"solver": "brute", "problem": name, "min_H": res.min_H,
               "num_minimizers": len(res.minimizers), "truncated": res.truncated,
               "minimizers": [[int(v) for v in s] for s in res.minimizers[:4]]}
        if total_weight is not None:
            obj["max_cut"] = cut_from_hamiltonian(res.min_H, total_weight)
    else:
        sa = SaParams(iterations=args.iters, T_initial=args.t0, T_final=args.t1,
                      moves_per_temp=args.moves_per_temp, seed=args.seed)
        spins, best_H = simulated_annealing(problem, sa)
        obj = {"solver": "sa", "problem": name, "best_H": best_H,
               "spins": [int(v) for v in spins]}
        if total_weight is not None:
            obj["cut"] = cut_from_hamiltonian(best_H, total_weight)
    _emit(json.dumps(obj, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_bench(args):
    names = sorted(os.listdir(args.suite))
    problems = []
    for fname in names:
        path = os.path.join(args.suite, fname)
        if fname.startswith(".") or fname.endswith(".md") or not os.path.isfile(path):
            continue
        problems.append(_load_problem(path))
    if not problems:
        raise ParseError(f"no instance files found in {args.suite}")
    if args.catalog:
        with open(args.catalog) as fh:
            catalog = load_catalog(fh.read())
    else:
        catalog = default_catalog()
    _run(args, problems, {"suite": os.path.basename(os.path.normpath(args.suite))}, catalog)
    return 0


def _cmd_convert(args):
    """Write the problem solve would load; G-set needs no fields and integer w = -J."""
    _, problem, _ = _load_problem(args.input, args.from_format)
    if args.to == "ising-json":
        _emit(write_ising_json(problem), args.out)
        return 0
    if problem.has_fields:
        raise ParseError("cannot convert to gset: problem has nonzero fields h")
    ei, ej, jv = problem.edge_arrays
    try:
        graph = WeightedGraph(problem.n, np.column_stack((ei, ej, -jv)), name=problem.name)
    except SpecificationError as e:
        raise ParseError(f"cannot convert to gset: {e}") from None
    _emit(write_gset(graph), args.out)
    return 0


# --- parser ----------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="oimsim",
        description="Oscillator-based Ising machine simulator and MAX-CUT benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="simulate the oscillator dynamics on a problem")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=["gset", "ising-json"], default=None,
                   help="input format (default: inferred from extension)")
    _add_run_flags(p, runs=1)
    p.add_argument("--trace", default=None,
                   help="write a CSV energy trace of the seed run (<= 1e4 points)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("gen", help="generate a random Ising instance")
    p.add_argument("--spins", type=int, required=True)
    p.add_argument("--topology", required=True,
                   help="'complete' or 'torus:R:C[:diag]'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("oracle", help="reference solvers (exact or annealing)")
    p.add_argument("solver", choices=["brute", "sa"])
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=["gset", "ising-json"], default=None)
    p.add_argument("--iters", type=int, default=1_000_000)
    p.add_argument("--t0", type=float, default=None)
    p.add_argument("--t1", type=float, default=1e-3)
    p.add_argument("--moves-per-temp", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("bench", help="run a suite of instances against the catalog")
    p.add_argument("--suite", required=True,
                   help="directory of instance files; *.md files and dotfiles "
                        "are skipped, every other file must be an instance")
    p.add_argument("--catalog", default=None,
                   help="best-known CSV (default: shipped catalog)")
    _add_run_flags(p, runs=100)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("convert", help="convert between instance formats")
    p.add_argument("--input", required=True)
    p.add_argument("--from", dest="from_format", choices=["gset", "ising-json"],
                   default=None)
    p.add_argument("--to", required=True, choices=["gset", "ising-json"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_convert)
    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    args._argv = list(argv)
    try:
        return args.func(args)
    except ParseError as e:
        _err(str(e))
        return 3
    except NumericalDivergenceError as e:
        _err(str(e))
        return 4
    except CapacityError as e:
        _err(str(e))
        return 5
    except (SpecificationError,) as e:
        _err(str(e))
        return 2
    except OSError as e:  # a path that cannot be written (exit 2) or read (exit 3)
        writing = e.filename is not None and e.filename in _output_paths(args)
        _err(f"cannot {'write' if writing else 'read'} {e.filename or 'input'}: "
             f"{e.strerror or e}")
        return 2 if writing else 3
    except OimError as e:
        _err(str(e))
        return 1


if __name__ == "__main__":
    sys.exit(main())
