"""Multi-run experiment harness: seeded sweeps, ablations, histograms, export.

A planner splits a spec into work units: a group of consecutive problems
of at most 256 spins in total (a larger problem alone), with a chunk of up
to 10 seeds. A group is integrated as one block-diagonal system, and the
units run on a pool of at most one thread per unit, in this process.
Specs that differ only in params, their DynamicsParams (an ablation's
variants), share the plan: each unit integrates every variant as column
blocks of one phase matrix, drawing each seed's initial phases and noise
once; a unit thread splits its unit's seeds over up to cpus // threads
threads of its own. Units and seeding depend only on the spec, and every
(problem, seed) run is bit-identical whether it executes singly, batched,
packed, beside other variants or on any thread, so results are identical
for any parallelism degree and rerunning a spec reproduces every per-run
record. A record is the dynamics.RunResult that run_seeds returns, named
for its spec's problem; summaries and exports read it, and keep no copy.
A run's secs is its unit's wall time split evenly among all the unit's
runs, of every variant.
"""

from __future__ import annotations

import json
import statistics
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__ as _version
from .dynamics import (DynamicsParams, _as_variants, _share_cpus, _usable_cpus, _weights,
                       run_seeds)
from .errors import CapacityError, SpecificationError, _integer
from .io import BestKnownCatalog
from .oracles import BRUTE_FORCE_MAX_N, brute_force
from .problems import IsingProblem

__all__ = [
    "BenchmarkSpec", "ProblemStats", "RunSummary",
    "EnergyHistogram", "run_benchmark", "histogram", "ablation_compare",
    "AblationResult", "export", "export_paths", "write_export",
]

_SEED_CHUNK = 10  # runs per vectorized batch; fixed so batching never depends
                  # on the parallelism degree
_PACK_SPINS = 256  # consecutive problems share one block-diagonal integration
                   # up to this many spins; small enough that a sweep of
                   # small problems still spreads over several workers


@dataclass(frozen=True)
class BenchmarkSpec:
    """What to run: problems, dynamics parameters, seeds, reference.

    problems entries are (name, IsingProblem) or (name, IsingProblem,
    total_weight); a total_weight, None or a finite real number, enables
    cut reporting. oracle is None, "brute" (exact minimum; every problem
    needs n <= BRUTE_FORCE_MAX_N, else CapacityError), or a BestKnownCatalog
    keyed by problem name.
    """

    problems: tuple
    params: DynamicsParams = field(default_factory=DynamicsParams)
    runs: int = 100
    seed_base: int = 0
    oracle: object = None

    def __post_init__(self):
        if not isinstance(self.params, DynamicsParams):
            raise SpecificationError("params must be a DynamicsParams")
        _integer(self.runs, "runs", 1)
        _integer(self.seed_base, "seed_base", 0)
        norm = {}  # results, catalog lookups and stats() are keyed by name
        for entry in self.problems:
            if not (isinstance(entry, (tuple, list)) and len(entry) in (2, 3)):
                raise SpecificationError(
                    "each problem entry is (name, IsingProblem[, total_weight])")
            name, problem, *tw = entry
            if not isinstance(problem, IsingProblem):
                raise SpecificationError(f"problem {name!r} is not an IsingProblem")
            if str(name) in norm:
                raise SpecificationError(f"problem name {str(name)!r} appears more than once")
            norm[str(name)] = (str(name), problem, *_weights(tw or None, 1))
        object.__setattr__(self, "problems", tuple(norm.values()))
        brute = isinstance(self.oracle, str) and self.oracle == "brute"
        if not (brute or self.oracle is None or isinstance(self.oracle, BestKnownCatalog)):
            raise SpecificationError(f"unknown oracle {self.oracle!r}")
        big = [name for name, problem, _ in self.problems
               if brute and problem.n > BRUTE_FORCE_MAX_N]
        if big:
            raise CapacityError(f"oracle 'brute' refuses n > {BRUTE_FORCE_MAX_N}: {big}")

    def seeds(self):
        return [self.seed_base + k for k in range(self.runs)]


def _over_records(fn, attr):
    """Read-only fn of one RunResult attribute; None when a record lacks it."""
    def get(self):
        values = [getattr(r, attr) for r in self.records]
        return None if None in values else fn(values)
    return property(get)


@dataclass(frozen=True)
class ProblemStats:
    """One problem's runs, as dynamics.RunResults named for the spec's
    problem; every aggregate is computed from these records."""

    name: str
    success: int | None
    best_spins: np.ndarray
    records: tuple

    runs = property(lambda self: len(self.records))
    best_H = _over_records(min, "H")
    mean_H = _over_records(statistics.fmean, "H")
    median_H = _over_records(statistics.median, "H")
    worst_H = _over_records(max, "H")
    best_cut = _over_records(max, "cut")
    mean_cut = _over_records(statistics.fmean, "cut")
    median_cut = _over_records(statistics.median, "cut")
    worst_cut = _over_records(min, "cut")
    secs_per_run = _over_records(statistics.fmean, "secs")


@dataclass(frozen=True)
class RunSummary:
    """Per-problem statistics of one spec.

    total_secs is the summed per-run time of its records; wall_secs is the
    wall time of the run_benchmark call that produced it (shared by every
    variant it ran).
    """

    problems: tuple
    runs: int
    seed_base: int
    params_config: dict
    wall_secs: float

    @property
    def total_secs(self):
        return sum(r.secs for p in self.problems for r in p.records)

    def stats(self, name):
        for p in self.problems:
            if p.name == name:
                return p
        raise KeyError(name)


def _plan(spec):
    """Work units (problem indices, seed chunk), from the spec alone.

    Consecutive problems are grouped while their spins total at most
    _PACK_SPINS; a larger problem is a group of its own. Each group runs
    every _SEED_CHUNK-seed chunk as one unit.
    """
    seeds = spec.seeds()
    chunks = [seeds[k:k + _SEED_CHUNK] for k in range(0, len(seeds), _SEED_CHUNK)]
    groups, spins = [], 0
    for k, (_, problem, _) in enumerate(spec.problems):
        if groups and spins + problem.n <= _PACK_SPINS:
            groups[-1].append(k)
            spins += problem.n
        else:
            groups.append([k])
            spins = problem.n
    return [(tuple(group), chunk) for group in groups for chunk in chunks]


def _success_count(spec, name, problem, records):
    oracle = spec.oracle
    if oracle is None:
        return None
    if isinstance(oracle, BestKnownCatalog):
        ref = oracle.best_cut(name)
        if ref is None:
            return None
        return sum(1 for r in records if r.cut is not None and r.cut >= ref)
    min_H = brute_force(problem).min_H  # oracle "brute": BenchmarkSpec checked the size
    return sum(1 for r in records if r.H <= min_H + 1e-9)


def _aggregate(spec, name, problem, results):
    records = tuple(replace(r, problem=name) for r in results)
    return ProblemStats(
        name=name,
        success=_success_count(spec, name, problem, records),
        best_spins=records[int(np.argmin([r.H for r in records]))].spins,
        records=records,
    )


def _as_specs(spec):
    """(specs, their params): one spec, or specs that differ only in params,
    within what dynamics._as_variants lets batched variants differ in."""
    specs = (spec,) if isinstance(spec, BenchmarkSpec) else tuple(spec)
    shared = [(s.problems, s.runs, s.seed_base, s.oracle) for s in specs]
    if any(key != shared[0] for key in shared[1:]):
        raise SpecificationError("specs run together may differ only in params")
    return specs, _as_variants([s.params for s in specs])


def run_benchmark(spec, parallelism=1):
    """Execute a BenchmarkSpec; results do not depend on parallelism.

    `spec` may also be a sequence of specs that differ only in params
    (ablation variants); they run as one plan, each unit integrating every
    variant, and one RunSummary per spec is returned, in order. Each
    result equals that of running its spec alone.
    """
    specs, variants = _as_specs(spec)
    _integer(parallelism, "parallelism", 1)
    cpus = _usable_cpus()
    if parallelism > cpus:
        warnings.warn(f"parallelism {parallelism} exceeds the {cpus} CPUs",
                      RuntimeWarning, stacklevel=2)
    t0 = time.perf_counter()
    base = specs[0]
    units = _plan(base)

    def run_unit(unit):
        group, chunk = unit
        return run_seeds(tuple(base.problems[k][1] for k in group), variants, chunk,
                         total_weight=tuple(base.problems[k][2] for k in group))

    workers = max(1, min(parallelism, len(units)))
    with ThreadPoolExecutor(workers, initializer=_share_cpus,
                            initargs=(max(1, cpus // workers),)) as pool:
        outputs = list((pool.map if workers > 1 else map)(run_unit, units))

    # units run a group's chunks in seed order; each output is variant-major,
    # then problem-major, then by seed
    results = [[[] for _ in base.problems] for _ in specs]
    for (group, chunk), out in zip(units, outputs):
        B = len(chunk)
        for v in range(len(specs)):
            for j, k in enumerate(group):
                start = (v * len(group) + j) * B
                results[v][k].extend(out[start:start + B])
    stats = [[_aggregate(s, name, problem, res)
              for (name, problem, _), res in zip(s.problems, results[v])]
             for v, s in enumerate(specs)]
    wall = time.perf_counter() - t0
    summaries = [RunSummary(problems=tuple(st), runs=s.runs,
                            seed_base=s.seed_base,
                            params_config=prm.to_config(), wall_secs=wall)
                 for s, prm, st in zip(specs, variants, stats)]
    return summaries[0] if isinstance(spec, BenchmarkSpec) else summaries


# --- histograms ---------------------------------------------------------------

@dataclass(frozen=True)
class EnergyHistogram:
    """Equal-width binned energies (or distances to a reference)."""

    edges: np.ndarray
    counts: np.ndarray
    reference: float | None = None


def histogram(values, reference=None, bins=10):
    """Bin values (minus the reference, when given) into equal-width bins."""
    try:
        vals = np.asarray(list(values), dtype=np.float64)
        if reference is not None:
            vals, reference = vals - reference, float(reference)
    except (TypeError, ValueError, OverflowError):  # not numbers, not iterable, too big
        raise SpecificationError("histogram values and reference must be real numbers") from None
    if vals.size == 0:
        raise SpecificationError("histogram needs at least one value")
    _integer(bins, "bins", 1)
    if not np.all(np.isfinite(vals)):
        raise SpecificationError("histogram values, minus the reference, must be finite")
    counts, edges = np.histogram(vals, bins=bins)
    return EnergyHistogram(edges=edges, counts=counts, reference=reference)


# --- ablations ---------------------------------------------------------------

@dataclass(frozen=True)
class AblationResult:
    """Per-variant summaries from identical seeds (paired comparison)."""

    variants: dict

    def __getitem__(self, key):
        return self.variants[key]


def ablation_compare(problem, params, runs, seed_base, *, total_weight=None,
                     variability_pcts=(0.01, 0.05), parallelism=1, name="problem"):
    """Run SYNC vs no-SYNC and nominal vs frequency-variability variants.

    Every variant uses the same seed list, so differences are paired. The
    variants are specs that differ only in params; they go to one
    run_benchmark call and share its work units, each seed's initial
    phases and noise. Results equal separate runs.
    """
    variants = {"standard": params, "no_sync": params.without_sync()}
    variants.update((f"variability_{pct:g}", replace(params, variability_pct=pct))
                    for pct in variability_pcts)
    specs = [BenchmarkSpec(problems=((name, problem, total_weight),), params=prm,
                           runs=runs, seed_base=seed_base)
             for prm in variants.values()]
    summaries = run_benchmark(specs, parallelism=parallelism)
    return AblationResult({label: summary.stats(name)
                           for label, summary in zip(variants, summaries)})


# --- export --------------------------------------------------------------------

SUMMARY_CSV_HEADER = "name,runs,best_H,mean_H,median_H,worst_H,best_cut,success,secs_per_run"
HISTOGRAM_CSV_HEADER = "bin_lo,bin_hi,count"


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, float) and x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x) if isinstance(x, float) else str(x)


def summary_metadata(summary):
    return {
        "oimsim_version": _version,
        "params": summary.params_config,
        "runs": summary.runs,
        "seed_base": summary.seed_base,
        "seeds": [summary.seed_base + k for k in range(summary.runs)],
    }


def _summary_csv(summary):
    lines = [SUMMARY_CSV_HEADER]
    for s in summary.problems:
        lines.append(",".join(_fmt(v) for v in (
            s.name, s.runs, s.best_H, s.mean_H, s.median_H, s.worst_H,
            s.best_cut, s.success, s.secs_per_run)))
    return "\n".join(lines) + "\n"


def _summary_json(summary, extra_meta=None):
    meta = summary_metadata(summary)
    if extra_meta:
        meta.update(extra_meta)
    obj = {
        "meta": meta,
        "problems": [{
            "name": s.name,
            "runs": s.runs,
            "best_H": s.best_H,
            "mean_H": s.mean_H,
            "median_H": s.median_H,
            "worst_H": s.worst_H,
            "best_cut": s.best_cut,
            "mean_cut": s.mean_cut,
            "median_cut": s.median_cut,
            "worst_cut": s.worst_cut,
            "success": s.success,
            "best_spins": [int(v) for v in s.best_spins],
            "per_run": [{"seed": r.seed, "H": r.H, "cut": r.cut}
                        for r in s.records],
        } for s in summary.problems],
        "timing": {
            "total_secs": summary.total_secs,
            "wall_secs": summary.wall_secs,
            "per_problem_secs_per_run": {s.name: s.secs_per_run
                                         for s in summary.problems},
        },
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _histogram_csv(hist):
    lines = [HISTOGRAM_CSV_HEADER]
    for k in range(len(hist.counts)):
        lines.append(",".join(_fmt(v) for v in
                              (float(hist.edges[k]), float(hist.edges[k + 1]),
                               int(hist.counts[k]))))
    return "\n".join(lines) + "\n"


def _histogram_json(hist):
    obj = {
        "meta": {"oimsim_version": _version, "reference": hist.reference},
        "edges": [float(e) for e in hist.edges],
        "counts": [int(c) for c in hist.counts],
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def export(obj, format="json", extra_meta=None):
    """Serialize a RunSummary or EnergyHistogram to 'csv' or 'json' text."""
    if format not in ("csv", "json"):
        raise SpecificationError("format must be 'csv' or 'json'")
    if isinstance(obj, RunSummary):
        return _summary_csv(obj) if format == "csv" else _summary_json(obj, extra_meta)
    if isinstance(obj, EnergyHistogram):
        return _histogram_csv(obj) if format == "csv" else _histogram_json(obj)
    raise SpecificationError(f"cannot export {type(obj).__name__}")


def export_paths(path, format):
    """The files write_export writes for a RunSummary: the export at path
    and, for CSV, its JSON metadata sidecar at <path>.meta.json."""
    return [path] + ([f"{path}.meta.json"] if format == "csv" else [])


def write_export(obj, format, path, extra_meta=None):
    """Write an export; a RunSummary's CSV gets a JSON metadata sidecar
    (see export_paths)."""
    text = export(obj, format, extra_meta)
    with open(path, "w") as fh:
        fh.write(text)
    if format == "csv" and isinstance(obj, RunSummary):
        meta = dict(summary_metadata(obj))
        if extra_meta:
            meta.update(extra_meta)
        meta["per_run"] = [{"problem": r.problem, "seed": r.seed, "H": r.H,
                            "cut": r.cut}
                           for s in obj.problems for r in s.records]
        _, sidecar = export_paths(path, format)
        with open(sidecar, "w") as fh:
            fh.write(json.dumps(meta, indent=2, sort_keys=True) + "\n")
