"""Tests of the benchmark itself, on tiny instances.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def oim():
    module = run.import_oimsim()
    assert module is not None
    return module


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_prints_with_its_unit(workload, trace):
    out = _bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", trace, "--size", "tiny")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
        assert any(line.startswith(f"{workload} {m['name']} ")
                   and line.endswith(f" {m['unit']}") for line in lines)
    assert any(line.startswith(f"{workload} results_digest ") for line in lines)


def test_same_seed_same_inputs(oim):
    for workload in wl.WORKLOADS.values():
        a = workload.make_inputs(oim, 5, True)
        b = workload.make_inputs(oim, 5, True)
        c = workload.make_inputs(oim, 6, True)
        assert a.texts == b.texts and a.seed_base == b.seed_base
        assert a.texts != c.texts


def _tamper(output, label, k, dH):
    """Copy of output with record k of the first problem's H moved by dH."""
    stats = output.variants[label][0]
    records = list(stats.records)
    records[k] = dataclasses.replace(records[k], H=records[k].H + dH)
    variants = dict(output.variants)
    variants[label] = [dataclasses.replace(stats, records=tuple(records))] + \
        output.variants[label][1:]
    return dataclasses.replace(output, variants=variants, exports=[])


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_tampered_H_counts_as_failed(oim, workload):
    w = wl.WORKLOADS[workload]
    inputs = w.make_inputs(oim, 2, True)
    output = w.run(oim, inputs, w.setup(oim, inputs))
    assert wl.check_output(output, inputs) == 0
    for label in output.variants:
        for k in (0, inputs.runs - 1):
            assert wl.check_output(_tamper(output, label, k, 2.0), inputs) == 1
            assert wl.check_output(_tamper(output, label, k, -2.0), inputs) == 1


def test_tampered_best_spins_count_as_failed(oim):
    w = wl.WORKLOADS["small_sweep"]
    inputs = w.make_inputs(oim, 2, True)
    output = w.run(oim, inputs, w.setup(oim, inputs))
    stats = output.variants["standard"][0]
    spins = stats.best_spins.copy()
    spins[0] = -spins[0]
    bad = dataclasses.replace(stats, best_spins=spins)
    assert wl.check_stats(bad, inputs.refs[0], [r.seed for r in stats.records]) == 1


def test_digest_mismatch_fails_the_repetition(oim):
    w = wl.WORKLOADS["er800_batch"]
    inputs = w.make_inputs(oim, 2, True)
    (rep0, _, _), (rep1, _, output) = (run.repetition(oim, w, inputs) for _ in range(2))
    assert rep0.digest == rep1.digest
    assert run.judge([rep0, rep1], inputs)[0] == 0
    # a consistent but different result: H and cut moved together
    stats = output.variants["standard"][0]
    r0 = stats.records[0]
    moved = dataclasses.replace(r0, H=r0.H + 2, cut=r0.cut - 1)
    changed = dataclasses.replace(stats, records=(moved,) + stats.records[1:])
    digest = wl.results_digest(dataclasses.replace(output, variants={"standard": [changed]}))
    assert digest != rep0.digest
    rep1 = dataclasses.replace(rep1, digest=digest)
    assert run.judge([rep0, rep1], inputs)[0] == inputs.planned_runs


def test_divergence_counts_runs_as_failed(oim, monkeypatch):
    w = wl.WORKLOADS["er800_batch"]
    inputs = w.make_inputs(oim, 2, True)

    def diverge(*args, **kwargs):
        raise oim.NumericalDivergenceError("non-finite phases", step=1, seed=0)

    monkeypatch.setattr(oim.bench, "run_benchmark", diverge)
    rep, _, output = run.repetition(oim, w, inputs)
    assert output is None and rep.digest is None
    assert run.judge([rep], inputs)[0] == inputs.planned_runs


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench("--workload", "er800_batch", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert "correct" not in out.stdout
