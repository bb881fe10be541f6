"""The benchmark's three workloads: input generation, set-up, run, checks.

Inputs are generated here from the workload seed and handed to oimsim as
text, in the formats users feed it (G-set for the two 800-spin MAX-CUT
surrogates, Ising-JSON for the small sweep). Every call into oimsim goes
through a module attribute (``oim.bench.run_benchmark``, not a name bound
at import), so the traced run's wrappers see it.

The checks never call oimsim's energy code: each problem keeps its own
edge list, and H, the cut identity and, for n = 10, the exact minimum are
recomputed from it.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass, field

import numpy as np

# Schedule: the shipped ramp shape (Ks 0 -> 1 over the first half of the
# run) at 100 steps/cycle, scaled from 1000 cycles down to 10 so that one
# repetition of each workload takes a few seconds.
CYCLES = 10
TINY_CYCLES = 2
SEED_STRIDE = 1000  # simulation seeds of workload seed s start at s * 1000


@dataclass(frozen=True)
class Ref:
    """The benchmark's own copy of one problem, for independent checks."""

    name: str
    n: int
    ei: np.ndarray
    ej: np.ndarray
    J: np.ndarray
    total_weight: int  # passed to oimsim; cut == (total_weight - H) / 2
    exact_min: float | None = None

    @property
    def abs_weight(self):
        return float(np.abs(self.J).sum())

    def energy(self, spins):
        s = np.asarray(spins, dtype=np.int64)
        return float(-np.sum(self.J * s[self.ei] * s[self.ej]))


@dataclass
class Inputs:
    texts: list          # [(name, text)] in the workload's input format
    refs: list           # [Ref], same order
    params: object       # oimsim DynamicsParams
    seed_base: int
    runs: int
    parallelism: int
    probe_steps: int     # host-speed probe length (see hostspeed.py) ...
    probe_ref_s: float   # ... and its time on the reference host, fast state
    variants: int = 1    # ablation variants run on the same seeds

    @property
    def planned_runs(self):
        return self.runs * len(self.refs) * self.variants


@dataclass
class RunOutput:
    variants: dict       # label -> [ProblemStats]
    exports: list = field(default_factory=list)  # (RunSummary, exported text)
    busy_s: float = 0.0  # summed per-run seconds reported by the program


def _rng(seed, tag):
    return np.random.default_rng([int(seed), tag])


def _gset_text(n, lo, hi, w):
    lines = [f"{n} {len(w)}\n"]
    lines.extend(f"{u + 1} {v + 1} {x}\n" for u, v, x in zip(lo, hi, w))
    return "".join(lines)


def _maxcut_ref(name, n, lo, hi, w):
    # MAX-CUT maps to Ising with J = -w
    return Ref(name, n, lo, hi, -w.astype(np.float64), int(w.sum()))


def _exact_min(n, ei, ej, J):
    states = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1) * 2 - 1
    return float((-(states[:, ei] * states[:, ej]) @ J).min())


def er_inputs(oim, seed, tiny):
    """G1-shaped Erdos-Renyi graph: 800 vertices, 19,176 unit edges."""
    n, m = (60, 400) if tiny else (800, 19176)
    iu, ju = np.triu_indices(n, k=1)
    pick = np.sort(_rng(seed, 1).choice(len(iu), size=m, replace=False))
    lo, hi, w = iu[pick], ju[pick], np.ones(m, dtype=np.int64)
    name = f"er{n}-{m}-s{seed}"
    return Inputs([(name, _gset_text(n, lo, hi, w))],
                  [_maxcut_ref(name, n, lo, hi, w)],
                  _params(oim, tiny), SEED_STRIDE * seed, runs=20, parallelism=1,
                  probe_steps=_probe_steps(120, tiny), probe_ref_s=0.16)


def torus_inputs(oim, seed, tiny):
    """G11-shaped toroidal grid: 20 x 40, +-1 weights, degree 4."""
    rows, cols = (4, 10) if tiny else (20, 40)
    n = rows * cols
    idx = np.arange(n).reshape(rows, cols)
    u = np.concatenate([idx.ravel(), idx.ravel()])
    v = np.concatenate([np.roll(idx, -1, axis=1).ravel(),
                        np.roll(idx, -1, axis=0).ravel()])
    key = np.unique(np.minimum(u, v) * n + np.maximum(u, v))
    lo, hi = key // n, key % n
    w = _rng(seed, 2).integers(0, 2, size=len(key)) * 2 - 1
    name = f"torus{rows}x{cols}-s{seed}"
    return Inputs([(name, _gset_text(n, lo, hi, w))],
                  [_maxcut_ref(name, n, lo, hi, w)],
                  _params(oim, tiny), SEED_STRIDE * seed, runs=10, parallelism=1,
                  probe_steps=_probe_steps(250, tiny), probe_ref_s=0.18, variants=3)


def sweep_inputs(oim, seed, tiny):
    """50 complete n = 10 Ising problems, J_ij uniform in {-1, 0, +1}."""
    n, count = 10, (4 if tiny else 50)
    rng = _rng(seed, 3)
    iu, ju = np.triu_indices(n, k=1)
    texts, refs = [], []
    for k in range(count):
        J = rng.integers(-1, 2, size=len(iu))
        keep = J != 0
        ei, ej, Jk = iu[keep], ju[keep], J[keep].astype(np.float64)
        name = f"k10-s{seed}-{k}"
        obj = {"n": n, "name": name,
               "edges": [[int(i), int(j), int(x)] for i, j, x in zip(ei, ej, Jk)]}
        texts.append((name, json.dumps(obj)))
        # sum|J| as total weight makes the reported "cut" the satisfied
        # coupling weight, so (W - H) / 2 cross-checks every run's H here too
        refs.append(Ref(name, n, ei, ej, Jk, int(np.abs(Jk).sum()),
                        exact_min=_exact_min(n, ei, ej, Jk)))
    return Inputs(texts, refs, _params(oim, tiny), SEED_STRIDE * seed,
                  runs=10, parallelism=2,
                  probe_steps=_probe_steps(4500, tiny), probe_ref_s=0.135)


def _probe_steps(steps, tiny):
    return 20 if tiny else steps


def _params(oim, tiny):
    cycles = TINY_CYCLES if tiny else CYCLES
    return oim.dynamics.DynamicsParams(
        cycles=cycles, steps_per_cycle=100,
        ks_schedule=oim.dynamics.KsSchedule.ramp(0.0, cycles / 2, 1.0))


# --- set-up: input text -> ready IsingProblems --------------------------------

def setup_gset(oim, inputs):
    return [oim.problems.maxcut_to_ising(oim.io.parse_gset(text, name=name))
            for name, text in inputs.texts]


def setup_ising_json(oim, inputs):
    return [oim.io.read_ising_json(text) for _, text in inputs.texts]


# --- timed phase ----------------------------------------------------------------

def _spec(oim, inputs, problems, **extra):
    entries = tuple((ref.name, p, ref.total_weight)
                    for ref, p in zip(inputs.refs, problems))
    return oim.bench.BenchmarkSpec(problems=entries, params=inputs.params,
                                   runs=inputs.runs, seed_base=inputs.seed_base,
                                   **extra)


def run_batch(oim, inputs, problems, **spec_extra):
    """One run_benchmark call over every problem, then a JSON export."""
    summary = oim.bench.run_benchmark(_spec(oim, inputs, problems, **spec_extra),
                                      parallelism=inputs.parallelism)
    text = oim.bench.export(summary, "json")
    return RunOutput({"standard": list(summary.problems)}, [(summary, text)],
                     busy_s=summary.total_secs)


def run_sweep(oim, inputs, problems):
    return run_batch(oim, inputs, problems, oracle="brute")


def run_ablation(oim, inputs, problems):
    """Standard, no-SYNC and 5% frequency variability on the same seeds."""
    ref, problem = inputs.refs[0], problems[0]
    result = oim.bench.ablation_compare(
        problem, inputs.params, inputs.runs, inputs.seed_base,
        total_weight=ref.total_weight, variability_pcts=(0.05,),
        parallelism=inputs.parallelism, name=ref.name)
    variants = {label: [stats] for label, stats in result.variants.items()}
    busy = sum(r.secs for stats in result.variants.values() for r in stats.records)
    return RunOutput(variants, busy_s=busy)


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: object
    setup: object
    run: object


# why each workload exists: BENCHMARK.json and README.md in this directory
WORKLOADS = {w.name: w for w in (
    Workload("er800_batch", er_inputs, setup_gset, run_batch),
    Workload("torus800_ablation", torus_inputs, setup_gset, run_ablation),
    Workload("small_sweep", sweep_inputs, setup_ising_json, run_sweep),
)}


# --- independent checks ----------------------------------------------------------

def check_stats(stats, ref, seeds):
    """Number of runs in one ProblemStats that fail the benchmark's checks."""
    records = stats.records
    if [r.seed for r in records] != list(seeds):
        return len(seeds)
    bad = set()
    bound = ref.abs_weight
    for k, r in enumerate(records):
        ok = (math.isfinite(r.H) and r.H == round(r.H) and abs(r.H) <= bound
              and r.cut is not None and r.cut == (ref.total_weight - r.H) / 2)
        if ref.exact_min is not None:
            ok = ok and r.H >= ref.exact_min
        if not ok:
            bad.add(k)
    best = int(np.argmin([r.H for r in records]))
    spins = np.asarray(stats.best_spins)
    best_ok = (spins.shape == (ref.n,) and bool(np.all(np.abs(spins) == 1))
               and ref.energy(spins) == stats.best_H == records[best].H)
    if ref.exact_min is not None:
        hits = sum(1 for r in records if r.H == ref.exact_min)
        best_ok = best_ok and stats.success == hits
    if not best_ok and not bad:
        # the problem's aggregates disagree with runs that each passed
        bad.add(best)
    return len(bad)


def check_export(text, summary):
    """Number of runs whose exported (seed, H, cut) or best spins disagree."""
    problems = json.loads(text)["problems"]
    failed = 0
    for stats, exported in zip(summary.problems, problems):
        runs = [(r.seed, r.H, r.cut) for r in stats.records]
        out = [(e["seed"], e["H"], e["cut"]) for e in exported["per_run"]]
        if len(out) != len(runs):
            failed += len(runs)
            continue
        failed += sum(1 for a, b in zip(runs, out) if a != b)
        if exported["best_spins"] != [int(s) for s in stats.best_spins]:
            failed += 1
    return failed


def check_output(output, inputs):
    """Failed-run count of one repetition's output (0 when all checks hold)."""
    seeds = [inputs.seed_base + k for k in range(inputs.runs)]
    failed = sum(check_stats(stats, ref, seeds)
                 for stats_list in output.variants.values()
                 for stats, ref in zip(stats_list, inputs.refs))
    failed += sum(check_export(text, summary) for summary, text in output.exports)
    return min(failed, inputs.planned_runs)


def results_digest(output):
    """sha256 of the sorted per-seed (variant, problem, seed, H, cut) rows."""
    rows = sorted((label, r.problem, r.seed, repr(r.H), repr(r.cut))
                  for label, stats_list in output.variants.items()
                  for stats in stats_list for r in stats.records)
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def quality(output, inputs):
    """Solution-quality figures of the standard variant plus the ablations."""
    std = output.variants["standard"]
    refs = inputs.refs
    q = {
        "mean_satisfied_share": statistics.fmean(
            (ref.abs_weight - s.mean_H) / (2 * ref.abs_weight) for s, ref in zip(std, refs)),
        "best_satisfied_share": statistics.fmean(
            (ref.abs_weight - s.best_H) / (2 * ref.abs_weight) for s, ref in zip(std, refs)),
        "mean_H_per_spin": statistics.fmean(s.mean_H / ref.n for s, ref in zip(std, refs)),
        "best_H_per_spin": statistics.fmean(s.best_H / ref.n for s, ref in zip(std, refs)),
    }
    if refs[0].exact_min is not None:
        q["optimum_hit_rate"] = statistics.fmean(
            1.0 if s.best_H == ref.exact_min else 0.0 for s, ref in zip(std, refs))
    if "no_sync" in output.variants:
        on = np.array([r.cut for r in std[0].records])
        off = np.array([r.cut for r in output.variants["no_sync"][0].records])
        gap = on - off
        se = float(np.std(gap, ddof=1)) / math.sqrt(len(gap))
        q["sync_gap_se"] = float(np.mean(gap)) / se if se > 0 else math.inf
        spread = np.array([r.cut for r in output.variants["variability_0.05"][0].records])
        q["variability_retention"] = float(spread.mean() / on.mean())
    return q
