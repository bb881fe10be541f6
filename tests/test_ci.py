"""The CI workflow runs the commands the project documents.

The workflow only runs on the hosted runner, so these checks are the local
guard against its commands drifting from ROADMAP.md's tier-1 command and
from the demos, which smoke-test the public API.
"""

import ast
import importlib
import re

import pytest

from conftest import REPO_ROOT

WORKFLOW = REPO_ROOT / ".github" / "workflows" / "tests.yml"


def tier1_command():
    text = (REPO_ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    found = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", text)
    assert found, "ROADMAP.md gives no tier-1 command"
    return found.group(1)


def test_workflow_runs_the_tier1_command():
    assert tier1_command() in WORKFLOW.read_text(encoding="utf-8")


def test_workflow_runs_the_benchmark_tests():
    assert "python -m pytest -q perfbench/tests" in WORKFLOW.read_text(encoding="utf-8")


def test_workflow_runs_the_numpy_fallback():
    # a tier-1 step where no compiler is on PATH and the kernel cache is empty
    tier1 = WORKFLOW.read_text(encoding="utf-8").split("tier1:")[1].split("min-versions:")[0]
    step = tier1.split("- name: No-compiler fallback")[1].split("- name:")[0]
    assert ("""XDG_CACHE_HOME="$RUNNER_TEMP/no-cc" """
            """PATH="$(dirname "$(python -c 'import sys; print(sys.executable)')")" """
            "PYTHONPATH=src python -m pytest -q tests/test_golden.py tests/test_shared_draws.py "
            "tests/test_dynamics.py") in " ".join(step.replace("\\\n", " ").split())


def test_workflow_repeats_the_slice_scheduling_tests():
    # five runs in a loop, then one on one CPU: each may pass by luck of the
    # thread scheduler
    tier1 = WORKFLOW.read_text(encoding="utf-8").split("tier1:")[1].split("min-versions:")[0]
    step = tier1.split("- name: Slice scheduling")[1].split("- name:")[0].split("run: |")[1]
    tests = 'tests/test_kernel.py -k "TestSeedSlices or TestDivergence"'
    lines = [" ".join(line.split()) for line in step.strip().splitlines()]
    assert lines == ["for i in 1 2 3 4 5; do",
                     f"PYTHONPATH=src python -m pytest -q {tests} || exit 1",
                     "done",
                     f"PYTHONPATH=src taskset -c 0 python -m pytest -q {tests}"]


def test_workflow_runs_every_demo():
    # 04 needs published G-set files, which the runner cannot download
    demos = WORKFLOW.read_text(encoding="utf-8").split("- name: Demos")[1].split("- name:")[0]
    expected = {p.name for p in (REPO_ROOT / "demos").glob("*.py")} - {"04_gset_benchmark.py"}
    assert expected
    assert set(re.findall(r"python demos/(\S+\.py)", demos)) == expected


def test_workflow_parses():
    yaml = pytest.importorskip("yaml")
    doc = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    runs = [s.get("run", "") for job in doc["jobs"].values() for s in job["steps"]]
    assert any(tier1_command() in r for r in runs)


def test_workflow_builds_the_kernel_with_the_loader_flags():
    # the runner's only -Werror build of the step kernel is the build the
    # loader makes, plus the warning flags
    from oimsim.dynamics import _CFLAGS
    step = WORKFLOW.read_text(encoding="utf-8").split("- name: Kernel warnings")[1]
    lines = step.split("- name:")[0].replace("\\\n", " ").splitlines()
    (build,) = [line.split() for line in lines if line.split()[:1] == ["cc"] and "-lm" in line]
    at = build.index("-o")
    assert [f for f in build[1:at] if f != "-std=c99" and not f.startswith("-W")] == list(_CFLAGS)
    assert build[at + 2:] == ["src/oimsim/_step.c", "-lm"]


def test_min_versions_job_pins_the_lower_bounds():
    # the job installs exactly the oldest numpy and scipy pyproject.toml accepts
    deps = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8").split("dependencies = [")[1]
    bounds = dict(re.findall(r'"(\w+)>=([\d.]+)"', deps.split("]")[0]))
    job = WORKFLOW.read_text(encoding="utf-8").split("min-versions:")[1]
    pins = dict(re.findall(r'"(\w+)==([\d.]+)\.\*"', job))
    assert bounds == pins == {"numpy": "1.24", "scipy": "1.10"}
    assert "python -m pytest -q tests/test_io.py tests/test_problems.py" in job
    # the input rules' list path depends on how numpy builds object arrays
    assert "tests/test_problems.py tests/test_inputs.py" in job
    kernel = job.split("- name: Step kernel and its draws")[1].split("- name:")[0]
    assert ("PYTHONPATH=src python -m pytest -q tests/test_kernel.py tests/test_golden.py "
            "tests/test_shared_draws.py") in " ".join(kernel.replace("\\\n", " ").split())


def unused_imports(path):
    """Names a module imports and never reads; names in a literal __all__
    and __future__ imports count as read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted((REPO_ROOT / "src" / "oimsim").glob("*.py"))
                         + sorted((REPO_ROOT / "demos").glob("*.py")),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", sorted((REPO_ROOT / "src" / "oimsim").glob("*.py")),
                         ids=lambda p: f"oimsim/{p.name}")
def test_every_exported_name_exists(path):
    # a stale __all__ entry fails here, not in a user's `import *`
    name = "oimsim" if path.stem == "__init__" else f"oimsim.{path.stem}"
    module = importlib.import_module(name)
    assert [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)] == []


def test_unused_import_finder(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\n"
                      "import os.path\nimport numpy as np\nimport sys\n"
                      "from json import dumps, loads as _loads\nfrom re import sub\n"
                      "__all__ = ['sub']\nprint(np.pi, os.sep, dumps)\n")
    assert unused_imports(module) == [(4, "sys"), (5, "_loads")]
