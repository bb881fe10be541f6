"""Shared fixtures: G-set instance discovery, a memory-capped interpreter and
acceptance reporting."""

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

# published G-set instance files are not redistributed with the package;
# drop them into data/gset/ (or point OIM_GSET_DIR at them) to enable the
# benchmark-target tests. See README for the download source.


def pytest_addoption(parser):
    parser.addoption("--stretch", action="store_true", default=False,
                     help="also run the non-blocking stretch benchmark targets")


def gset_dir():
    env = os.environ.get("OIM_GSET_DIR")
    if env:
        return Path(env)
    return REPO_ROOT / "data" / "gset"


def gset_path(name):
    return gset_dir() / name


def require_gset(name):
    path = gset_path(name)
    if not path.is_file():
        pytest.skip(f"G-set instance {name} not available (looked in {gset_dir()}; "
                    f"set OIM_GSET_DIR or see README to fetch it)")
    return path


@pytest.fixture
def capped_python():
    """run(*args): python with these arguments and the package on its path, in a
    process of at most 2 GiB of address space, so that a size a check lets
    through fails to allocate instead of taking tens of GB."""
    cap = 2 * 1024**3
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"), OPENBLAS_NUM_THREADS="1")

    def run(*args):
        return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                              timeout=120, preexec_fn=lambda: resource.setrlimit(
                                  resource.RLIMIT_AS, (cap, cap)))
    return run


@pytest.fixture
def g11_path():
    return require_gset("G11")


@pytest.fixture
def g1_path():
    return require_gset("G1")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    lines = []
    for outcome in ("passed", "failed", "skipped"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py" not in nodeid:
                continue
            name = nodeid.split("::")[-1]
            label = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}[outcome]
            reason = ""
            if outcome == "skipped" and isinstance(rep.longrepr, tuple):
                reason = f"  ({rep.longrepr[2].split(':', 1)[-1].strip()[:90]})"
            lines.append((name, f"ACCEPTANCE {label:4s} {name}{reason}"))
    if lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for _, line in sorted(lines):
            terminalreporter.write_line(line)
