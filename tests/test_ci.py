"""The CI workflow runs the commands the project documents.

The workflow only runs on the hosted runner, so these checks are the local
guard against its commands drifting from ROADMAP.md's tier-1 command and
from the demos, which smoke-test the public API.
"""

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
