"""Tests for the command-line interface: flags, exit codes, outputs."""

import json

import pytest

from oimsim import IsingProblem, NumericalDivergenceError, write_ising_json
from oimsim.cli import main

TRIANGLE_GSET = "3 3\n1 2 1\n1 3 1\n2 3 1\n"


@pytest.fixture
def ferro_json(tmp_path):
    path = tmp_path / "ferro.json"
    path.write_text(write_ising_json(IsingProblem(2, [(0, 1, 1.0)], name="ferro")))
    return path


@pytest.fixture
def tri_gset(tmp_path):
    path = tmp_path / "tri.gset"
    path.write_text(TRIANGLE_GSET)
    return path


def run(args):
    return main([str(a) for a in args])


class TestSolve:
    def test_solve_json_problem(self, ferro_json, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = run(["solve", "--input", ferro_json, "--runs", "10",
                    "--cycles", "300", "--seed", "1", "--threads", "1",
                    "--out", out])
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["problems"][0]["best_H"] == -1
        assert obj["meta"]["seeds"] == list(range(1, 11))
        assert obj["meta"]["params"]["cycles"] == 300.0

    def test_solve_gset_reports_cut(self, tri_gset, tmp_path):
        out = tmp_path / "result.json"
        code = run(["solve", "--input", tri_gset, "--format", "gset",
                    "--runs", "4", "--cycles", "100", "--threads", "1",
                    "--out", out])
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["problems"][0]["best_cut"] == 2

    def test_deterministic_output(self, ferro_json, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        flags = ["solve", "--input", ferro_json, "--runs", "3",
                 "--cycles", "50", "--seed", "7", "--threads", "1"]
        assert run(flags + ["--out", a]) == 0
        assert run(flags + ["--out", b]) == 0
        oa, ob = json.loads(a.read_text()), json.loads(b.read_text())
        oa.pop("timing")
        ob.pop("timing")
        # identical apart from timing, and identical argv except --out
        oa["meta"]["argv"] = ob["meta"]["argv"] = None
        assert json.dumps(oa, sort_keys=True) == json.dumps(ob, sort_keys=True)

    def test_trace_file(self, ferro_json, tmp_path):
        trace = tmp_path / "trace.csv"
        code = run(["solve", "--input", ferro_json, "--runs", "1",
                    "--cycles", "20", "--threads", "1", "--trace", trace,
                    "--out", tmp_path / "r.json"])
        assert code == 0
        lines = trace.read_text().strip().split("\n")
        assert lines[0] == "time,lyapunov,rounded_H"
        assert 2 <= len(lines) <= 10_001

    def test_trace_rows_are_plain_numbers(self, ferro_json, tmp_path):
        # each row is three float literals, as repr gives them for Python floats
        trace = tmp_path / "trace.csv"
        assert run(["solve", "--input", ferro_json, "--cycles", "2", "--threads", "1",
                    "--trace", trace, "--out", tmp_path / "r.json"]) == 0
        rows = [line.split(",") for line in trace.read_text().splitlines()[1:]]
        assert rows and all(len(r) == 3 and [repr(float(x)) for x in r] == r for r in rows)
        assert rows[0][0] == "0.0"

    def test_variant_is_recorded_once_in_params(self, ferro_json, tmp_path):
        out = tmp_path / "r.json"
        code = run(["solve", "--input", ferro_json, "--runs", "2", "--cycles", "10",
                    "--no-sync", "--variability", "0.05", "--threads", "1",
                    "--out", out])
        assert code == 0
        meta = json.loads(out.read_text())["meta"]
        assert "mode" not in meta
        assert "sync_enabled" not in meta["params"]
        assert meta["params"]["ks"]["level"] == 0.0
        assert meta["params"]["variability_pct"] == 0.05

    def test_ks_ramp_flag(self, ferro_json, tmp_path):
        out = tmp_path / "r.json"
        code = run(["solve", "--input", ferro_json, "--runs", "1",
                    "--cycles", "20", "--ks", "1.5",
                    "--ks-ramp", "linear:0:10", "--threads", "1", "--out", out])
        assert code == 0
        ks = json.loads(out.read_text())["meta"]["params"]["ks"]
        assert ks == {"t0": 0.0, "t1": 10.0, "level": 1.5}

    def test_bad_ramp_is_usage_error(self, ferro_json):
        assert run(["solve", "--input", ferro_json, "--ks-ramp", "exp:1:2"]) == 2

    @pytest.mark.parametrize("flags, env", [(["--threads", "0"], None), ([], "0"),
                                            ([], "-3"), ([], "x")])
    def test_bad_thread_count_is_usage_error(self, ferro_json, monkeypatch, capsys,
                                             flags, env):
        if env is None:
            monkeypatch.delenv("OIM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OIM_THREADS", env)
        assert run(["solve", "--input", ferro_json, "--cycles", "5", *flags]) == 2
        assert ("--threads" if flags else "OIM_THREADS") in capsys.readouterr().err

    def test_unknown_flag_rejected(self, ferro_json):
        assert run(["solve", "--input", ferro_json, "--frobnicate"]) == 2

    def test_missing_input_is_parse_error(self, tmp_path):
        assert run(["solve", "--input", tmp_path / "nope.json"]) == 3

    def test_malformed_input(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["solve", "--input", bad]) == 3


class TestGen:
    def test_gen_torus(self, tmp_path):
        out = tmp_path / "torus.json"
        assert run(["gen", "--spins", "64", "--topology", "torus:8:8",
                    "--seed", "3", "--out", out]) == 0
        obj = json.loads(out.read_text())
        assert obj["n"] == 64
        assert len(obj["edges"]) == 128

    def test_gen_torus_diag(self, tmp_path):
        out = tmp_path / "torusd.json"
        assert run(["gen", "--spins", "64", "--topology", "torus:8:8:diag",
                    "--out", out]) == 0
        assert len(json.loads(out.read_text())["edges"]) == 192

    def test_gen_complete_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["gen", "--spins", "20", "--topology", "complete", "--seed", "5",
             "--out", a])
        run(["gen", "--spins", "20", "--topology", "complete", "--seed", "5",
             "--out", b])
        assert a.read_text() == b.read_text()

    def test_gen_size_mismatch(self, tmp_path):
        assert run(["gen", "--spins", "60", "--topology", "torus:8:8",
                    "--out", tmp_path / "x.json"]) == 2

    def test_gen_bad_topology(self, tmp_path):
        assert run(["gen", "--spins", "4", "--topology", "ring",
                    "--out", tmp_path / "x.json"]) == 2


class TestOracle:
    def test_brute(self, ferro_json, capsys):
        assert run(["oracle", "brute", "--input", ferro_json]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["min_H"] == -1
        assert obj["num_minimizers"] == 2

    def test_brute_capacity_exit(self, tmp_path):
        big = tmp_path / "big.json"
        big.write_text(write_ising_json(IsingProblem(30, [(0, 1, 1.0)])))
        assert run(["oracle", "brute", "--input", big]) == 5

    def test_sa(self, tri_gset, capsys):
        assert run(["oracle", "sa", "--input", tri_gset, "--iters", "20000",
                    "--seed", "1"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["cut"] == 2  # optimal triangle cut

    def test_sa_flags(self, ferro_json, capsys):
        assert run(["oracle", "sa", "--input", ferro_json, "--iters", "5000",
                    "--t0", "2.0", "--t1", "0.01", "--moves-per-temp", "10",
                    "--seed", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["best_H"] == -1

    @pytest.mark.parametrize("flag", ["--t0", "--t1"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_sa_non_finite_temperature_is_usage_error(self, ferro_json, capsys, flag, value):
        assert run(["oracle", "sa", "--input", ferro_json, "--iters", "100",
                    flag, value]) == 2
        assert "must be finite" in capsys.readouterr().err


class TestBench:
    def test_bench_directory(self, tmp_path, capsys):
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "tri.gset").write_text(TRIANGLE_GSET)
        (suite / "ferro.json").write_text(
            write_ising_json(IsingProblem(2, [(0, 1, 1.0)], name="ferro")))
        out = tmp_path / "bench.csv"
        code = run(["bench", "--suite", suite, "--runs", "3", "--cycles", "50",
                    "--threads", "1", "--out", out, "--out-format", "csv"])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 3  # header + 2 problems
        assert (tmp_path / "bench.csv.meta.json").exists()

    def test_bench_skips_readme_and_dotfiles(self, tmp_path):
        suite = tmp_path / "gset"
        suite.mkdir()
        (suite / "README.md").write_text("# G-set instance files\n")
        (suite / ".DS_Store").write_text("not an instance")
        (suite / "G1").write_text(TRIANGLE_GSET)
        (suite / "ferro.json").write_text(
            write_ising_json(IsingProblem(2, [(0, 1, 1.0)], name="ferro")))
        out = tmp_path / "bench.json"
        code = run(["bench", "--suite", suite, "--runs", "2", "--cycles", "20",
                    "--threads", "1", "--out", out])
        assert code == 0
        names = [p["name"] for p in json.loads(out.read_text())["problems"]]
        assert names == ["G1", "ferro"]

    def test_bench_with_catalog(self, tmp_path):
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "tri.gset").write_text(TRIANGLE_GSET)
        cat = tmp_path / "cat.csv"
        cat.write_text("name,best_cut,source\ntri.gset,2,exact\n")
        out = tmp_path / "bench.json"
        code = run(["bench", "--suite", suite, "--catalog", cat, "--runs", "5",
                    "--cycles", "100", "--threads", "1", "--out", out])
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["problems"][0]["success"] is not None

    def test_bench_empty_suite(self, tmp_path):
        suite = tmp_path / "empty"
        suite.mkdir()
        assert run(["bench", "--suite", suite, "--out", tmp_path / "o.json"]) == 3


class TestConvert:
    def test_gset_to_json_round_trip(self, tri_gset, tmp_path):
        mid = tmp_path / "mid.json"
        back = tmp_path / "back.gset"
        assert run(["convert", "--input", tri_gset, "--from", "gset",
                    "--to", "ising-json", "--out", mid]) == 0
        assert run(["convert", "--input", mid, "--from", "ising-json",
                    "--to", "gset", "--out", back]) == 0
        assert back.read_text() == TRIANGLE_GSET

    def test_gset_canonicalize(self, tmp_path, capsys):
        messy = tmp_path / "messy.txt"
        messy.write_text("3 2\n2   3  -1\n1\t2\t4\n")
        assert run(["convert", "--input", messy, "--from", "gset",
                    "--to", "gset"]) == 0
        assert capsys.readouterr().out == "3 2\n1 2 4\n2 3 -1\n"

    def test_fields_block_gset_conversion(self, tmp_path):
        prob = tmp_path / "h.json"
        prob.write_text(write_ising_json(
            IsingProblem(2, [(0, 1, 1.0)], fields=[1.0, 0.0])))
        assert run(["convert", "--input", prob, "--to", "gset",
                    "--out", tmp_path / "x.gset"]) == 3


class TestPaths:
    QUICK = ["--runs", "1", "--cycles", "5", "--threads", "1"]

    @pytest.mark.parametrize("argv, code, verb, path", [
        (["solve", "--input", "{dir}"], 3, "read", "{dir}"),
        (["oracle", "brute", "--input", "{dir}"], 3, "read", "{dir}"),
        (["convert", "--input", "{dir}", "--to", "gset"], 3, "read", "{dir}"),
        (["bench", "--suite", "{file}"], 3, "read", "{file}"),
        (["bench", "--suite", "{suite}", "--catalog", "{dir}"], 3, "read", "{dir}"),
        (["solve", "--input", "{file}", "--out", "{dir}"], 2, "write", "{dir}"),
        (["solve", "--input", "{file}", "--out", "{missing}"], 2, "write", "{missing}"),
        (["solve", "--input", "{file}", "--trace", "{dir}"], 2, "write", "{dir}"),
        (["bench", "--suite", "{suite}", "--out", "{missing}", "--out-format", "csv"],
         2, "write", "{missing}"),
        (["gen", "--spins", "4", "--topology", "complete", "--out", "{dir}"],
         2, "write", "{dir}"),
    ], ids=["solve-input-dir", "oracle-input-dir", "convert-input-dir", "bench-suite-file",
            "bench-catalog-dir", "solve-out-dir", "solve-out-missing-dir",
            "solve-trace-dir", "bench-out-missing-dir", "gen-out-dir"])
    def test_unusable_path_is_one_line(self, ferro_json, tmp_path, capsys,
                                       argv, code, verb, path):
        # a path that cannot be read exits 3, one that cannot be written
        # exits 2, each with one line naming the path and no traceback
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "ferro.json").write_text(ferro_json.read_text())
        (tmp_path / "dir").mkdir()
        paths = {"dir": tmp_path / "dir", "file": ferro_json, "suite": suite,
                 "missing": tmp_path / "missing" / "x.json"}
        argv = [a.format(**paths) for a in argv]
        if argv[0] in ("solve", "bench"):
            argv += self.QUICK
        assert run(argv) == code
        errors = [line for line in capsys.readouterr().err.splitlines() if "cannot" in line]
        assert len(errors) == 1
        assert errors[0].startswith(f"oimsim: cannot {verb} {path.format(**paths)}: ")

    @pytest.fixture
    def no_runs(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("run_benchmark was called")

        monkeypatch.setattr("oimsim.cli.run_benchmark", refuse)

    @pytest.mark.usefixtures("no_runs")
    @pytest.mark.parametrize("flags, unwritable", [
        (["--out", "missing/x.json"], "missing/x.json"),
        (["--trace", "dir"], "dir"),
        (["--out", "r.csv", "--out-format", "csv"], "r.csv.meta.json"),
    ], ids=["--out-missing/x.json", "--trace-dir", "--out-csv-sidecar-dir"])
    def test_output_path_checked_before_the_run(self, ferro_json, tmp_path, capsys,
                                                flags, unwritable):
        (tmp_path / "dir").mkdir()
        (tmp_path / "r.csv.meta.json").mkdir()
        flag, path, *rest = flags
        assert run(["solve", "--input", ferro_json, flag, tmp_path / path, *rest]
                   + self.QUICK) == 2
        errors = capsys.readouterr().err.splitlines()
        target = tmp_path / unwritable
        assert len(errors) == 1 and errors[0].startswith(f"oimsim: cannot write {target}: ")
        assert not (tmp_path / "missing").exists()
        assert not (tmp_path / "r.csv").exists()

    def test_failed_run_keeps_existing_outputs(self, ferro_json, tmp_path, monkeypatch):
        def diverge(*args, **kwargs):
            raise NumericalDivergenceError("non-finite phases", step=1, seed=0, problem="ferro")

        monkeypatch.setattr("oimsim.cli.run_benchmark", diverge)
        out, trace = tmp_path / "out.json", tmp_path / "trace.csv"
        out.write_text("earlier result\n")
        trace.write_text("earlier trace\n")
        assert run(["solve", "--input", ferro_json, "--out", out, "--trace", trace]
                   + self.QUICK) == 4
        assert out.read_text() == "earlier result\n"
        assert trace.read_text() == "earlier trace\n"


class TestUsage:
    def test_no_command(self):
        assert run([]) == 2

    def test_unknown_command(self):
        assert run(["frobnicate"]) == 2

    def test_help_exits_zero(self):
        assert run(["--help"]) == 0
