"""Tests for the benchmark harness, histograms, and exports."""

import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import oimsim.bench as bench
from oimsim import (BenchmarkSpec, CapacityError, Complete, DynamicsParams, IsingProblem,
                    KsSchedule, SpecificationError, WeightedGraph,
                    ablation_compare, brute_force, cut_from_hamiltonian, cut_value,
                    default_catalog, export, hamiltonian, histogram, load_ising_json,
                    maxcut_to_ising, random_ising, random_spins, run_benchmark,
                    write_export)
from oimsim.dynamics import RunResult


FERRO2 = IsingProblem(2, [(0, 1, 1.0)])


def quick_params(cycles=20.0):
    return DynamicsParams(cycles=cycles)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Stand in for the unit pool: run units inline, record each pool's size."""
    sizes = []

    class Recorder:
        def __init__(self, max_workers, **pool_args):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(bench, "ThreadPoolExecutor", Recorder)
    return sizes


@pytest.fixture(scope="module")
def ferro_summary():
    p = IsingProblem(2, [(0, 1, 1.0)])
    spec = BenchmarkSpec(problems=(("ferro2", p, 1),), params=quick_params(300.0),
                         runs=20, seed_base=0, oracle="brute")
    return run_benchmark(spec)


class TestRunBenchmark:
    def test_success_vs_brute(self, ferro_summary):
        stats = ferro_summary.stats("ferro2")
        assert stats.runs == 20
        assert stats.success >= 19
        assert stats.best_H == -1

    def test_ordering_invariants(self, ferro_summary):
        s = ferro_summary.stats("ferro2")
        assert s.best_H <= s.median_H <= s.worst_H
        assert len(s.records) == s.runs
        assert [r.seed for r in s.records] == list(range(20))
        # records compare and hash by their scalars, as dicts and sets need
        r = s.records[0]
        assert dataclasses.replace(r, spins=r.spins.copy()) == r
        assert len(set(s.records)) == s.runs

    def test_parallelism_does_not_change_records(self):
        p = random_ising(12, Complete(), seed=0)
        spec = BenchmarkSpec(problems=(("r12", p),), params=quick_params(5.0),
                             runs=24, seed_base=100)
        a = run_benchmark(spec, parallelism=1)
        b = run_benchmark(spec, parallelism=2)
        ra = [(r.seed, r.H) for r in a.stats("r12").records]
        rb = [(r.seed, r.H) for r in b.stats("r12").records]
        assert ra == rb

    def test_rerun_reproduces_records(self):
        p = random_ising(10, Complete(), seed=3)
        spec = BenchmarkSpec(problems=(("q", p),), params=quick_params(5.0),
                             runs=7, seed_base=42)
        a = run_benchmark(spec)
        b = run_benchmark(spec)
        assert [(r.seed, r.H) for r in a.stats("q").records] == \
               [(r.seed, r.H) for r in b.stats("q").records]

    def test_brute_success_needs_the_optimum_at_tiny_couplings(self):
        # H of J = +-1e-12 couplings spans less than 1e-9: an absolute
        # tolerance counted every one of these runs as optimal
        p = random_ising(10, Complete(), seed=0)
        tiny = IsingProblem(10, [(i, j, 1e-12 * v) for i, j, v in p.couplings])
        spec = BenchmarkSpec(problems=(("tiny", tiny),), runs=20, oracle="brute",
                             params=DynamicsParams(cycles=1.0, noise_amp=5.0))
        stats = run_benchmark(spec).stats("tiny")
        minimizers = brute_force(tiny).minimizers
        optimal = sum(any(np.array_equal(r.spins, m) for m in minimizers)
                      for r in stats.records)
        assert len({r.H for r in stats.records}) > 2
        assert stats.success == optimal < 20

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_brute_success_counts_every_float_minimizer(self, scale):
        # hamiltonian and brute_force sum in different orders, so a
        # minimizer's H may differ from min_H in its last bits
        for k in range(10):
            rng = np.random.default_rng(k)
            p = IsingProblem(10, [(i, j, scale * rng.normal()) for i in range(10)
                                  for j in range(i + 1, 10)],
                             fields=scale * rng.normal(size=10) if k % 2 else None)
            spec = BenchmarkSpec(problems=(("p", p),), runs=1, oracle="brute")
            best = brute_force(p).minimizers
            near = best[0].copy()
            near[0] = -near[0]
            runs = [RunResult("p", 0, s, hamiltonian(p, s), None, 0.0) for s in best]
            assert bench._success_count(spec, "p", p, runs) == len(best)
            assert bench._success_count(
                spec, "p", p, [RunResult("p", 0, near, hamiltonian(p, near), None, 0.0)]) == 0

    def test_total_weight_reports_cut(self):
        g = WeightedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
        spec = BenchmarkSpec(problems=(("c4", maxcut_to_ising(g), g.total_weight),),
                             params=quick_params(50.0), runs=3, seed_base=1)
        for r in run_benchmark(spec).stats("c4").records:
            assert r.cut == cut_value(g, r.spins)

    def test_total_weight_accepts_finite_reals(self):
        weights = (3, 2.5, np.float64(3), np.int64(-4), 2 ** 60, None)
        spec = BenchmarkSpec(problems=tuple((f"p{k}", FERRO2, w) for k, w in enumerate(weights)),
                             params=quick_params(1.0), runs=1)
        summary = run_benchmark(spec)
        for k, w in enumerate(weights):
            (r,) = summary.stats(f"p{k}").records
            assert r.cut == (None if w is None else (w - r.H) / 2)

    def test_cuts_priced_per_entry_across_packed_variants(self):
        problems = (("a", random_ising(6, Complete(), seed=1)),
                    ("b", random_ising(9, Complete(), seed=2), 7),
                    ("c", random_ising(5, Complete(), seed=3)))
        summaries = run_benchmark(variant_specs(problems, runs=3)[:2])
        weights = {"a": None, "b": 7, "c": None}
        for summary in summaries:
            for s in summary.problems:
                for r in s.records:
                    W = weights[s.name]
                    assert r.cut == (None if W is None else cut_from_hamiltonian(r.H, W))
            assert summary.stats("b").best_cut == cut_from_hamiltonian(
                summary.stats("b").best_H, 7)

    def test_catalog_oracle(self):
        g = WeightedGraph(2, [(0, 1, 1)], name="tiny")
        cat_text = "name,best_cut,source\ntiny,1,exact\n"
        from oimsim import load_catalog
        spec = BenchmarkSpec(problems=(("tiny", maxcut_to_ising(g), 1),),
                             params=quick_params(), runs=5,
                             oracle=load_catalog(cat_text))
        summary = run_benchmark(spec)
        stats = summary.stats("tiny")
        assert stats.success == sum(1 for r in stats.records if r.cut >= 1)

    @pytest.mark.parametrize("oracle, n, error", [
        ("Brute", 2, SpecificationError), ({"tiny": 1}, 2, SpecificationError),
        ("brute", 30, CapacityError)], ids=["misspelt", "dict", "brute_too_large"])
    def test_oracle_checked_when_built(self, oracle, n, error):
        # before any integration: the spec cannot be built
        entries = (("ferro", IsingProblem(n, [(0, 1, 1.0)])),)
        with pytest.raises(error):
            BenchmarkSpec(problems=entries, params=quick_params(), runs=2, oracle=oracle)

    def test_mode_validation(self):
        p = IsingProblem(2, [(0, 1, 1.0)])
        with pytest.raises(SpecificationError):
            BenchmarkSpec(problems=(("x", p),), runs=0)

    @pytest.mark.parametrize("parallelism", [0, 1.5, None, "2", True])
    def test_parallelism_must_be_a_positive_integer(self, parallelism):
        spec = BenchmarkSpec(problems=(("x", IsingProblem(2, [(0, 1, 1.0)])),),
                             params=quick_params(), runs=20)  # two units
        with pytest.raises(SpecificationError, match="parallelism"):
            run_benchmark(spec, parallelism=parallelism)

    @pytest.mark.parametrize("bad", [{"params": None}, {"runs": 2.5}, {"runs": "3"},
                                     {"runs": True}, {"seed_base": False}])
    def test_spec_types_rejected(self, bad):
        p = IsingProblem(2, [(0, 1, 1.0)])
        with pytest.raises(SpecificationError):
            BenchmarkSpec(problems=(("x", p),), **{"runs": 1, **bad})

    @pytest.mark.parametrize("entry", [
        ("x",), ("x", FERRO2, 1, 2), ("x", FERRO2, "abc"), ("x", FERRO2, float("nan")),
        ("x", FERRO2, float("inf")), ("x", FERRO2, (3,)), FERRO2, ("x", FERRO2, (3, 4)),
        ("x", FERRO2, 10**400), ("x", FERRO2, -10**400), ("x", FERRO2, True),
    ], ids=["one_item", "four_items", "text_weight", "nan_weight", "inf_weight",
            "tuple_weight", "bare_problem", "pair_weight", "beyond_float_weight",
            "beyond_minus_float_weight", "bool_weight"])
    def test_problem_entries_checked_when_built(self, entry):
        with pytest.raises(SpecificationError):
            BenchmarkSpec(problems=(entry,), params=quick_params(), runs=1)

    @pytest.mark.parametrize("names", [("same", "same"), ("a", "same", 1, "same"), (1, "1")])
    def test_repeated_problem_name_rejected(self, names):
        # results, catalog lookups and stats(name) are keyed by name
        entries = tuple((name, FERRO2) for name in names)
        with pytest.raises(SpecificationError, match="appears more than once"):
            BenchmarkSpec(problems=entries, params=quick_params(), runs=1)


class TestPlanner:
    def test_packs_consecutive_small_problems(self):
        from oimsim.bench import _plan
        sizes = [10] * 30 + [300] + [10] * 2 + [200, 100]
        problems = tuple((f"p{k}", random_ising(n, Complete(), seed=k))
                         for k, n in enumerate(sizes))
        spec = BenchmarkSpec(problems=problems, runs=12)
        groups = [tuple(range(25)), tuple(range(25, 30)), (30,), (31, 32, 33),
                  (34,)]
        chunks = [list(range(10)), [10, 11]]
        assert _plan(spec) == [(g, c) for g in groups for c in chunks]

    def test_pool_is_capped_at_unit_count(self, pool_sizes):
        problems = tuple((f"p{k}", random_ising(n, Complete(), seed=k))
                         for k, n in enumerate([10] * 20 + [250]))
        spec = BenchmarkSpec(problems=problems, params=quick_params(2.0), runs=3)
        serial = run_benchmark(spec)
        pooled = run_benchmark(spec, parallelism=64)
        assert pool_sizes == [1, 2]
        assert [[r.H for r in s.records] for s in serial.problems] == \
               [[r.H for r in s.records] for s in pooled.problems]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_in_pool_names_seed_and_problem(self):
        from oimsim import NumericalDivergenceError
        ok = IsingProblem(2, [(0, 1, 1.0)])
        bad = IsingProblem(3, [(0, 1, 1e308), (0, 2, 1e308)], name="bad")
        spec = BenchmarkSpec(problems=(("ok", ok), ("bad", bad)),
                             params=quick_params(1.0), runs=20, seed_base=7)
        with pytest.raises(NumericalDivergenceError) as ei:
            run_benchmark(spec, parallelism=2)
        assert (ei.value.seed, ei.value.problem) == (7, "bad")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_many_unit_threads_switching_often(self):
        # 12 units on 8 threads, more than the cores, the interpreter
        # switching threads every microsecond: every record and best spin
        # vector equals the serial run's
        problems = tuple((f"p{k}", random_ising(n, Complete(), seed=k))
                         for k, n in enumerate([30, 30, 200, 250, 40]))
        spec = BenchmarkSpec(problems=problems, params=quick_params(2.0), runs=25)
        serial = run_benchmark(spec)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = run_benchmark(spec, parallelism=8)
        finally:
            sys.setswitchinterval(interval)
        assert rows(threaded) == rows(serial)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failing_unit_cancels_queued_units(self, monkeypatch):
        # eight 10-seed units on 2 threads; the first unit raises at once, and
        # each thread starts at most one more before the queued ones are
        # cancelled
        from oimsim import NumericalDivergenceError
        started = []

        def run_seeds(problems, variants, seeds, **kw):
            if seeds[0] == 0:
                raise NumericalDivergenceError("non-finite phases", seed=0)
            started.append(seeds[0])
            time.sleep(0.3)

        monkeypatch.setattr(bench, "run_seeds", run_seeds)
        spec = BenchmarkSpec(problems=(("x", IsingProblem(2, [(0, 1, 1.0)])),),
                             params=quick_params(), runs=80)
        with pytest.raises(NumericalDivergenceError):
            run_benchmark(spec, parallelism=2)
        assert len(started) <= 2


class TestHistogram:
    def test_single_bin(self):
        h = histogram([0, 0, 0], bins=1)
        assert list(h.counts) == [3]

    def test_reference_distances(self):
        h = histogram([-10, 0], reference=-10, bins=2)
        assert list(h.counts) == [1, 1]
        assert list(h.edges) == [0, 5, 10]

    def test_max_in_last_bin(self):
        h = histogram([0, 1, 2, 3, 4], bins=4)
        assert h.counts.sum() == 5
        assert h.counts[-1] >= 1

    def test_empty_rejected(self):
        with pytest.raises(SpecificationError):
            histogram([])

    @pytest.mark.parametrize("bins", [0, 2.5, None, "3", True])
    def test_bins_must_be_a_positive_integer(self, bins):
        with pytest.raises(SpecificationError, match="bins"):
            histogram([1.0, 2.0], bins=bins)

    @pytest.mark.parametrize("values, reference", [
        ([1.0, float("nan")], None), ([float("inf"), 1.0], None), ([1.0, -np.inf], 2.0),
        ([1.0, 2.0], float("nan")), ([1.0, 2.0], float("inf")), ([1e308, 2.0], -1e308),
    ], ids=["nan_value", "inf_value", "minus_inf_value", "nan_reference", "inf_reference",
            "overflowing_distance"])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_rejected(self, values, reference):
        with pytest.raises(SpecificationError, match="finite"):
            histogram(values, reference=reference)

    @pytest.mark.parametrize("values, reference", [
        ([1.0, 2.0], "a"), (["x", 1], None), (5, None), ([1.0, 2.0], "1.5"),
        ([[1.0, 2.0], [3.0]], None), ([10**400], None), ([1.0], 10**400),
        ([1.0, 2.0], np.array([1.0, 2.0])),
    ], ids=["string_reference", "string_value", "not_iterable", "numeric_string_reference",
            "ragged", "huge_int_value", "huge_int_reference", "array_reference"])
    def test_non_numeric_rejected(self, values, reference):
        with pytest.raises(SpecificationError, match="real numbers"):
            histogram(values, reference=reference)

    def test_random_energy_baseline_centered(self):
        # mean H of random spins on a random +-1/0 instance is ~0
        p = random_ising(240, Complete(), seed=0)
        rng = np.random.default_rng(1)
        vals = [hamiltonian(p, random_spins(240, rng)) for _ in range(1000)]
        h = histogram(vals, bins=30)
        assert h.counts.sum() == 1000
        assert abs(np.mean(vals)) <= 3 * np.std(vals) / np.sqrt(1000)


class TestAblationCompare:
    def test_variants_pair_seeds(self):
        p = random_ising(64, o_topology(), seed=0)
        res = ablation_compare(p, quick_params(30.0), runs=4, seed_base=0,
                               variability_pcts=(0.01,))
        assert set(res.variants) == {"standard", "no_sync", "variability_0.01"}
        for stats in res.variants.values():
            assert [r.seed for r in stats.records] == [0, 1, 2, 3]

    def test_zero_variability_equals_standard(self):
        p = random_ising(16, Complete(), seed=1)
        prm = quick_params(10.0)
        std = ablation_compare(p, prm, runs=3, seed_base=5,
                               variability_pcts=())["standard"]
        spec = BenchmarkSpec(problems=(("problem", p),),
                             params=dataclasses.replace(prm, variability_pct=0.0),
                             runs=3, seed_base=5)
        again = run_benchmark(spec).stats("problem")
        assert [r.H for r in std.records] == [r.H for r in again.records]


def o_topology():
    from oimsim import Torus
    return Torus(8, 8)


class TestExport:
    def test_summary_csv_schema(self, ferro_summary):
        text = export(ferro_summary, "csv")
        lines = text.strip().split("\n")
        assert lines[0] == ("name,runs,best_H,mean_H,median_H,worst_H,"
                            "best_cut,success,secs_per_run")
        assert lines[1].startswith("ferro2,20,-1,")

    def test_summary_json_round_trip(self, ferro_summary):
        obj = json.loads(export(ferro_summary, "json"))
        assert obj["meta"]["runs"] == 20
        assert obj["meta"]["params"]["cycles"] == 300.0
        assert obj["meta"]["seeds"] == list(range(20))
        prob = obj["problems"][0]
        assert prob["name"] == "ferro2"
        assert len(prob["per_run"]) == 20
        assert "timing" in obj

    def test_reexport_byte_identical(self, ferro_summary):
        assert export(ferro_summary, "json") == export(ferro_summary, "json")
        assert export(ferro_summary, "csv") == export(ferro_summary, "csv")

    def test_histogram_csv(self):
        h = histogram([-10, 0], reference=-10, bins=2)
        text = export(h, "csv")
        assert text == "bin_lo,bin_hi,count\n0,5,1\n5,10,1\n"

    def test_histogram_json(self):
        h = histogram([1.0, 2.0], bins=2)
        obj = json.loads(export(h, "json"))
        assert obj["counts"] == [1, 1]

    @pytest.mark.parametrize("params", [
        DynamicsParams(cycles=5.0),
        DynamicsParams(cycles=5.0, ks_schedule=KsSchedule.constant(0.7)),
        DynamicsParams(cycles=5.0).without_sync(),
        DynamicsParams(cycles=5.0, variability_pct=0.03),
    ], ids=["default_ramp", "constant_ks", "without_sync", "variability"])
    def test_params_rebuild_from_export(self, params):
        # an export's meta.params is enough to rebuild the run's params
        spec = BenchmarkSpec(problems=(("ferro2", IsingProblem(2, [(0, 1, 1.0)])),),
                             params=params, runs=2)
        meta = json.loads(export(run_benchmark(spec)))["meta"]
        assert DynamicsParams.from_config(meta["params"]) == params

    @pytest.mark.parametrize("name, level", [("v2_no_sync", 0.0), ("v2_constant", 0.8)])
    def test_version_2_export_reproduces_its_runs(self, name, level):
        # tests/data/v2_*.json were written by `oimsim solve` (argv in meta)
        # when params held "sync_enabled" and a Ks "kind"; v2_no_sync ran
        # --no-sync with a ramp to level 1 over cycles 0-2
        data = Path(__file__).parent / "data"
        obj = json.loads((data / f"{name}.json").read_text())
        meta, (recorded,) = obj["meta"], obj["problems"]
        params = DynamicsParams.from_config(meta["params"])
        assert params.ks_schedule.level == level
        spec = BenchmarkSpec(problems=((recorded["name"], load_ising_json(data / meta["input"])),),
                             params=params, runs=meta["runs"], seed_base=meta["seed_base"])
        (rerun,) = run_benchmark(spec).problems
        assert [{"seed": r.seed, "H": r.H, "cut": r.cut} for r in rerun.records] \
            == recorded["per_run"]
        assert [int(v) for v in rerun.best_spins] == recorded["best_spins"]

    def test_write_with_sidecar(self, ferro_summary, tmp_path):
        # the CSV's sidecar is the JSON export, byte for byte
        out = tmp_path / "summary.csv"
        extra = {"command": "bench", "suite": "s"}
        write_export(ferro_summary, "csv", out, extra_meta=extra)
        assert out.read_text() == export(ferro_summary, "csv")
        sidecar = (tmp_path / "summary.csv.meta.json").read_text()
        assert sidecar == export(ferro_summary, "json", extra)
        obj = json.loads(sidecar)
        assert obj["meta"]["seed_base"] == 0
        assert obj["meta"]["suite"] == "s"
        assert len(obj["problems"][0]["per_run"]) == 20
        assert obj["meta"]["params"]["steps_per_cycle"] == 100

    def test_bad_format(self, ferro_summary):
        with pytest.raises(SpecificationError):
            export(ferro_summary, "xml")


def variant_specs(problems, runs=12, **kw):
    prm = DynamicsParams(cycles=3.0, steps_per_cycle=50,
                         ks_schedule=KsSchedule.ramp(0.0, 1.5, 1.0))
    common = dict(problems=problems, runs=runs, seed_base=2, **kw)
    return [BenchmarkSpec(params=variant, **common)
            for variant in (prm, prm.without_sync(),
                            dataclasses.replace(prm, variability_pct=0.03))]


def rows(summary):
    return [(s.name, r.seed, r.H, r.cut, tuple(s.best_spins), s.success)
            for s in summary.problems for r in s.records]


class TestSpecVariants:
    def problems(self):
        small = [(f"s{k}", random_ising(10, Complete(), seed=k), 30)
                 for k in range(4)]
        from oimsim import Torus
        return tuple(small + [("t", random_ising(300, Torus(15, 20), seed=9))])

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_equal_separate_runs(self, parallelism):
        specs = variant_specs(self.problems())
        together = run_benchmark(specs, parallelism=parallelism)
        assert [(s.params_config["ks"]["level"], s.params_config["variability_pct"])
                for s in together] == [(1.0, 0.0), (0.0, 0.0), (1.0, 0.03)]
        for spec, summary in zip(specs, together, strict=True):
            alone = run_benchmark(spec)
            assert rows(summary) == rows(alone)
            assert summary.params_config == alone.params_config

    def test_one_spec_in_a_list_gives_a_list(self):
        spec = variant_specs(self.problems()[:1], runs=2)[0]
        out = run_benchmark([spec])
        assert isinstance(out, list) and len(out) == 1
        assert rows(out[0]) == rows(run_benchmark(spec))

    def test_incompatible_specs_rejected(self):
        problems = self.problems()
        specs = variant_specs(problems)
        for other in (variant_specs(problems, runs=5)[1],
                      variant_specs(problems[:2])[1],
                      variant_specs(problems, oracle=default_catalog())[1],
                      BenchmarkSpec(problems=problems, runs=12, seed_base=2)):
            with pytest.raises(SpecificationError):
                run_benchmark([specs[0], other])
        with pytest.raises(SpecificationError):
            run_benchmark([])

    def test_one_unit_carries_all_variants(self, monkeypatch):
        calls = []
        real = bench.run_seeds

        def counting(problems, variants, seeds, **kw):
            calls.append((len(problems), len(variants), len(seeds)))
            return real(problems, variants, seeds, **kw)

        monkeypatch.setattr(bench, "run_seeds", counting)
        run_benchmark(variant_specs(self.problems()))
        # groups: the four n=10 problems, then the n=300 one; chunks 10 + 2
        assert calls == [(4, 3, 10), (4, 3, 2), (1, 3, 10), (1, 3, 2)]


class TestTiming:
    def test_wall_secs_is_the_call_and_total_secs_the_runs(self):
        specs = variant_specs(TestSpecVariants().problems(), runs=3)
        summaries = run_benchmark(specs)
        walls = {s.wall_secs for s in summaries}
        assert len(walls) == 1
        # at parallelism 1 the runs' shares of unit time fit in the call
        assert 0 < sum(s.total_secs for s in summaries) <= walls.pop()
        timing = json.loads(export(summaries[0], "json"))["timing"]
        assert timing["wall_secs"] == summaries[0].wall_secs
        assert timing["total_secs"] == summaries[0].total_secs

    def test_warns_above_cpu_count(self, monkeypatch, pool_sizes):
        import warnings
        monkeypatch.setattr(bench, "_usable_cpus", lambda: 1)
        problems = tuple((f"p{k}", random_ising(250, Complete(), seed=k))
                         for k in range(2))
        spec = BenchmarkSpec(problems=problems, params=quick_params(1.0), runs=2)
        with pytest.warns(RuntimeWarning, match="parallelism 2 exceeds"):
            run_benchmark(spec, parallelism=2)
        assert pool_sizes == [2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_benchmark(spec, parallelism=1)
