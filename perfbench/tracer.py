"""Spans around oimsim's public calls, for the benchmark's traced run.

Wrappers are installed on the module attribute each caller looks the name
up in (oimsim modules import functions by name, so wrapping
``oimsim.dynamics.run_seeds`` alone would miss the harness's calls). Pool
workers are forked with the wrappers and the open-span stack in place;
they append their spans to one file per process in a spool directory,
which the parent reads back after each repetition. Span times come from
``time.perf_counter``, a system-wide monotonic clock on Linux, so spans of
different processes share one time base.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict, namedtuple

Span = namedtuple("Span", "name start end sid parent pid")


def targets(oim):
    """(module, attribute, span name) for every call the traced run wraps.

    The span name's prefix is the oimsim module that does the work.
    """
    return [
        (oim.io, "parse_gset", "io.parse_gset"),
        (oim.io, "read_ising_json", "io.read_ising_json"),
        (oim.io, "IsingProblem", "problems.IsingProblem"),
        (oim.problems, "maxcut_to_ising", "problems.maxcut_to_ising"),
        (oim.dynamics, "hamiltonian", "problems.hamiltonian"),
        (oim.bench, "run_seeds", "dynamics.run_seeds"),
        (oim.bench, "brute_force", "oracles.brute_force"),
        (oim.bench, "run_benchmark", "bench.run_benchmark"),
        (oim.bench, "ablation_compare", "bench.ablation_compare"),
        (oim.bench, "export", "bench.export"),
    ]


class Tracer:
    """Records spans while installed; ``collect`` returns and clears them."""

    def __init__(self, spool_dir):
        self.spool_dir = spool_dir
        self.main_pid = os.getpid()
        self._spans = []
        self._stack = []
        self._count = 0
        self._saved = []

    def install(self, wrap_targets):
        for module, attr, name in wrap_targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._count += 1
            pid = os.getpid()
            sid = f"{pid}:{self._count}"
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._record(Span(name, start, end, sid, parent, pid))
        return traced

    def _record(self, span):
        if span.pid == self.main_pid:
            self._spans.append(span)
            return
        path = os.path.join(self.spool_dir, f"{span.pid}.jsonl")
        with open(path, "a") as fh:
            fh.write(json.dumps(span) + "\n")

    def collect(self):
        """Spans recorded since the last call, from this process and workers."""
        spans, self._spans = self._spans, []
        for fname in sorted(os.listdir(self.spool_dir)):
            path = os.path.join(self.spool_dir, fname)
            with open(path) as fh:
                spans.extend(Span(*json.loads(line)) for line in fh)
            os.remove(path)
        return spans


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans):
    """Per span name: call count and total seconds; per module: self seconds.

    A span's self time is its duration minus the part of it covered by its
    child spans, which may run in other processes.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    calls = defaultdict(int)
    secs = defaultdict(float)
    self_s = defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        secs[s.name] += s.end - s.start
        module = s.name.split(".", 1)[0]
        self_s[module] += (s.end - s.start) - _covered(children[s.sid], s.start, s.end)
    return calls, secs, self_s
