"""oimsim benchmark: runs/s, set-up time, memory and solution quality.

Run from the repository root:

    python3 perfbench/run.py --workload er800_batch --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all          # every workload, plain and traced

It imports oimsim from ``src/`` next to this directory (never an installed
copy), generates the workload's inputs from ``--seed``, repeats the
workload until ``--seconds`` are used up, checks every output against the
benchmark's own recomputation, and prints a report. The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` (simulation runs) and ``metrics``, which holds the end-to-end
metrics with ``--trace 0`` and the per-layer metrics of a traced run with
``--trace 1``. See README.md in this directory for what each workload and
metric is for.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import pickle
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import hostspeed
import tracer
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1
DEFAULT_SECONDS = 36
# Each repetition of a plain run repeats set-up until this much time is
# spent and keeps the mean as one sample: a single set-up of the two small
# workloads takes ~10 ms, too short to time steadily on a shared host.
SETUP_SAMPLE_S = 0.25

END_TO_END = {
    "runs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "mean_satisfied_share": "share",
    "best_satisfied_share": "share",
}

PER_LAYER = {
    "io.parse_s": "s",
    "io.self_s": "s",
    "io.input_bytes": "bytes",
    "problems.construct_s": "s",
    "problems.self_s": "s",
    "problems.pickle_bytes": "bytes",
    "problems.hamiltonian_calls": "count",
    "problems.hamiltonian_s": "s",
    "dynamics.run_seeds_calls": "count",
    "dynamics.run_seeds_s": "s",
    "dynamics.self_s": "s",
    "dynamics.steps": "count",
    "dynamics.us_per_step": "us",
    "dynamics.spin_steps_per_s": "1/s",
    "dynamics.coupling_nnz": "count",
    "dynamics.csr_bytes": "bytes",
    "dynamics.state_bytes": "bytes",
    "oracles.brute_force_calls": "count",
    "oracles.brute_force_s": "s",
    "oracles.self_s": "s",
    "bench.run_benchmark_s": "s",
    "bench.self_s": "s",
    "bench.tasks": "count",
    "bench.busy_s": "s",
    "bench.parallel_efficiency": "share",
    "bench.task_pickle_bytes": "bytes",
    "bench.export_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.worker_spans": "count",
}

REPORT_UNITS = {
    "runs_per_wall_s": "1/s",
    "setup_wall_s": "s",
    "host_factor": "ratio",
    "mean_satisfied_share": "share",
    "best_satisfied_share": "share",
    "mean_H_per_spin": "H/spin",
    "best_H_per_spin": "H/spin",
    "optimum_hit_rate": "share",
    "sync_gap_se": "SE",
    "variability_retention": "ratio",
    "failed_run_share": "share",
}


def import_oimsim():
    """oimsim from this checkout's src/, or None when it is not there."""
    src = ROOT / "src"
    if not (src / "oimsim" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import oimsim
    import oimsim.bench
    import oimsim.dynamics
    import oimsim.io
    import oimsim.problems
    if Path(oimsim.__file__).resolve().parent != src / "oimsim":
        return None
    return oimsim


def environment():
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "start_method": multiprocessing.get_start_method(),
        "loadavg_start": _loadavg(),
    }


def _loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def _peak_rss_mb():
    # ru_maxrss is in KiB on Linux; children are the pool workers
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


@dataclass
class Rep:
    """Timings and verdict of one repetition; outputs are not kept."""

    setup_s: float
    timed_s: float
    wall_s: float
    failed: int          # runs failing the checks; all of them if it diverged
    digest: str | None   # results_digest, None if it diverged
    host_factor: float | None = None


def repetition(oim, workload, inputs, setup_min_s=0.0, probe=None):
    """Set up from text, then the timed phase: the run and its export.

    Set-up repeats until setup_min_s is spent (at least once); setup_s is
    the mean, and the run uses the problems of the last set-up. A probe,
    when given, is timed before and after (see hostspeed.py). Returns the
    Rep, the problems and the RunOutput (None if the integration diverged).
    """
    start = time.perf_counter()
    probe_s = probe() if probe else 0.0
    start_setup = time.perf_counter()
    count = 0
    while count == 0 or time.perf_counter() - start_setup < setup_min_s:
        problems = workload.setup(oim, inputs)
        count += 1
    t1 = time.perf_counter()
    try:
        output = workload.run(oim, inputs, problems)
    except oim.NumericalDivergenceError as exc:
        print(f"# diverged: {exc}", file=sys.stderr)
        output = None
    t2 = time.perf_counter()
    if output is None:
        failed, digest = inputs.planned_runs, None
    else:
        failed, digest = wl.check_output(output, inputs), wl.results_digest(output)
    host_factor = None
    if probe:
        probe_s += probe()
        host_factor = probe_s / (2 * inputs.probe_ref_s)
    rep = Rep((t1 - start_setup) / count, t2 - t1, time.perf_counter() - start,
              failed, digest, host_factor)
    return rep, problems, output


def judge(reps, inputs):
    """(failed runs, digest): every repetition must match the first digest."""
    digests = [r.digest for r in reps if r.digest is not None]
    digest = digests[0] if digests else None
    failed = sum(inputs.planned_runs if r.digest not in (None, digest) else r.failed
                 for r in reps)
    return failed, digest


def measure_plain(oim, workload, inputs, seconds):
    """Times in reference seconds: wall time over the host factor."""
    adj = hostspeed.coupling_matrix(inputs.refs[0])

    def probe():
        return hostspeed.probe(adj, inputs.probe_steps)

    start = time.perf_counter()
    reps, report = [], None
    while len(reps) < 2 or time.perf_counter() - start + reps[-1].wall_s <= seconds:
        rep, problems, output = repetition(oim, workload, inputs, SETUP_SAMPLE_S, probe)
        reps.append(rep)
        if report is None and output is not None:
            report = wl.quality(output, inputs)
        del problems, output  # keep one repetition's objects alive, not all
    good = [r for r in reps if r.digest is not None]
    rates = [inputs.planned_runs / r.timed_s * r.host_factor for r in good]
    setups = [r.setup_s / r.host_factor for r in reps]
    metrics = {
        "runs_per_s": statistics.median(rates) if rates else None,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": _peak_rss_mb(),
    }
    report = report or {}
    for key in ("mean_satisfied_share", "best_satisfied_share"):
        metrics[key] = report.pop(key, None)
    report["runs_per_wall_s"] = (statistics.median(inputs.planned_runs / r.timed_s
                                                   for r in good) if good else None)
    report["setup_wall_s"] = statistics.median(r.setup_s for r in reps)
    report["host_factor"] = statistics.median(r.host_factor for r in reps)
    notes = {"repetitions": len(reps), "runs_per_s_quartiles": _quartiles(rates),
             "setup_s_quartiles": _quartiles(setups)}
    return metrics, report, reps, notes


def _quartiles(values):
    if len(values) < 2:
        return values
    return [round(q, 6) for q in statistics.quantiles(values, n=4)]


def measure_traced(oim, workload, inputs, seconds):
    """Alternate plain and traced repetitions; per-layer medians of traced."""
    spool = tempfile.mkdtemp(prefix=".perfbench-spool-", dir=ROOT)
    plain, traced, per_rep, report = [], [], [], None
    try:
        spans_tracer = tracer.Tracer(spool)
        start = time.perf_counter()
        while not plain or (time.perf_counter() - start
                            + plain[-1].wall_s + traced[-1].wall_s <= seconds):
            plain.append(repetition(oim, workload, inputs)[0])
            spans_tracer.install(tracer.targets(oim))
            try:
                rep, problems, output = repetition(oim, workload, inputs)
            finally:
                spans_tracer.uninstall()
            spans = spans_tracer.collect()
            traced.append(rep)
            if output is not None:
                per_rep.append(layer_metrics(spans, problems, output, inputs,
                                             spans_tracer.main_pid))
                report = report or wl.quality(output, inputs)
            del problems, output
    finally:
        shutil.rmtree(spool, ignore_errors=True)
    plain_ok = [r.timed_s for r in plain if r.digest is not None]
    traced_ok = [r.timed_s for r in traced if r.digest is not None]
    metrics = {}
    for name in PER_LAYER:
        if name == "trace.overhead_ratio":
            metrics[name] = (statistics.median(traced_ok) / statistics.median(plain_ok)
                             if traced_ok and plain_ok else None)
        else:
            metrics[name] = statistics.median(m[name] for m in per_rep) if per_rep else None
    notes = {"repetitions": len(plain) + len(traced), "traced_repetitions": len(traced)}
    return metrics, report or {}, plain + traced, notes


def layer_metrics(spans, problems, output, inputs, main_pid):
    calls, secs, self_s = tracer.summarize(spans)
    total_steps = inputs.params.total_steps
    run_seeds_calls = calls["dynamics.run_seeds"]
    run_seeds_s = secs["dynamics.run_seeds"]
    steps = total_steps * run_seeds_calls
    spin_steps = total_steps * inputs.runs * inputs.variants * sum(p.n for p in problems)
    run_benchmark_s = secs["bench.run_benchmark"]
    adjs = [p.adjacency for p in problems]
    # one work unit of the harness: a problem with a chunk of up to 10 seeds
    chunk = list(range(inputs.seed_base, inputs.seed_base + min(inputs.runs, 10)))
    task = (problems[0], inputs.params, chunk, inputs.refs[0].total_weight)
    return {
        "io.parse_s": secs["io.parse_gset"] + secs["io.read_ising_json"],
        "io.self_s": self_s["io"],
        "io.input_bytes": sum(len(text) for _, text in inputs.texts),
        "problems.construct_s": (secs["problems.maxcut_to_ising"]
                                 + secs["problems.IsingProblem"]),
        "problems.self_s": self_s["problems"],
        "problems.pickle_bytes": len(pickle.dumps(problems[0])),
        "problems.hamiltonian_calls": calls["problems.hamiltonian"],
        "problems.hamiltonian_s": secs["problems.hamiltonian"],
        "dynamics.run_seeds_calls": run_seeds_calls,
        "dynamics.run_seeds_s": run_seeds_s,
        "dynamics.self_s": self_s["dynamics"],
        "dynamics.steps": steps,
        "dynamics.us_per_step": 1e6 * run_seeds_s / steps if steps else 0.0,
        "dynamics.spin_steps_per_s": spin_steps / run_seeds_s if run_seeds_s else 0.0,
        "dynamics.coupling_nnz": sum(a.nnz for a in adjs),
        "dynamics.csr_bytes": sum(a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
                                  for a in adjs),
        "dynamics.state_bytes": 8 * inputs.runs * inputs.variants * sum(p.n for p in problems),
        "oracles.brute_force_calls": calls["oracles.brute_force"],
        "oracles.brute_force_s": secs["oracles.brute_force"],
        "oracles.self_s": self_s["oracles"],
        "bench.run_benchmark_s": run_benchmark_s,
        "bench.self_s": self_s["bench"],
        "bench.tasks": run_seeds_calls,
        "bench.busy_s": output.busy_s,
        "bench.parallel_efficiency": output.busy_s / (run_benchmark_s * inputs.parallelism),
        "bench.task_pickle_bytes": len(pickle.dumps(task)),
        "bench.export_s": secs["bench.export"],
        "trace.worker_spans": sum(1 for s in spans if s.pid != main_pid),
    }


def run_workload(oim, name, seed, seconds, trace, tiny):
    workload = wl.WORKLOADS[name]
    inputs = workload.make_inputs(oim, seed, tiny)
    if trace:
        metrics, report, reps, notes = measure_traced(oim, workload, inputs, seconds)
        units = PER_LAYER
    else:
        metrics, report, reps, notes = measure_plain(oim, workload, inputs, seconds)
        units = END_TO_END
    failed, digest = judge(reps, inputs)
    attempted = inputs.planned_runs * len(reps)
    report["failed_run_share"] = failed / attempted
    print(f"# {name} seed={seed} trace={trace} size={'tiny' if tiny else 'full'} "
          f"{json.dumps(notes)}")
    for key, value in metrics.items():
        print(f"{name} {key} {_fmt(value)} {units[key]}")
    for key, value in report.items():
        print(f"{name} {key} {_fmt(value)} {REPORT_UNITS[key]}")
    print(f"{name} results_digest {digest}")
    result_metrics = {key: {"value": value, "unit": units[key]}
                      for key, value in metrics.items()}
    return attempted, failed, result_metrics


def _fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(wl.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measuring time per workload (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small instances for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    oim = import_oimsim()
    if oim is None:
        print(f"perfbench: oimsim sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    env = environment()
    if args.workload == "all":
        jobs = [(name, trace) for name in wl.WORKLOADS for trace in (0, 1)]
    else:
        jobs = [(args.workload, args.trace)]
    attempted = failed = 0
    metrics = {}
    for name, trace in jobs:
        a, f, m = run_workload(oim, name, args.seed, args.seconds, trace,
                               args.size == "tiny")
        attempted += a
        failed += f
        if args.workload == "all":
            m = {f"{name}.{key}": value for key, value in m.items()}
        metrics.update(m)
    env["loadavg_end"] = _loadavg()
    print(f"# env {json.dumps(env)}")
    complete = all(entry["value"] is not None for entry in metrics.values())
    print(json.dumps({"correct": failed == 0 and complete, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
