"""Stochastic phase dynamics of SHIL-binarized coupled oscillators.

Each Ising spin is an oscillator phase phi_i (radians), simulated in the
rotating frame of the common natural frequency so time is measured in
oscillation cycles. The drift is

    d phi_i / dt = dw_i - K * [ sum_j J_ij sin(phi_i - phi_j)
                                + h_i sin(phi_i) ]
                   - Ks(t) * sin(2 phi_i)

where dw_i are per-oscillator frequency detunings, K is one coupling gain
for every problem of a run and Ks(t) is the strength of the double-frequency
SYNC injection, a KsSchedule ramp from 0 to its level (times t >= 0; SYNC
off is level 0). The sin(2 phi) term creates two stable locks 180 degrees
apart (the physical bit); without detuning and noise the flow descends the
Lyapunov function

    E(phi) = -K * [ sum_{i<j} J_ij cos(phi_i - phi_j)
                    + sum_i h_i cos(phi_i) ]
             - Ks(t)/2 * sum_i cos(2 phi_i)

whose value at binary phases is K * H(s) - n * Ks/2, so phase minima
coincide with Ising minima. Integration is fixed-step Euler-Maruyama:

    phi <- wrap(phi + drift * dt + noise_amp * sqrt(dt) * xi)

where wrap is np.mod(., 2*pi), bit for bit on both paths. One coupling
kernel, _coupling, computes K*dt times the coupling and field terms plus
the SYNC term for drift(), step() and the batch integrator alike, so their
arithmetic is identical; the sin(2 phi) term is computed as
2 sin(phi) cos(phi) everywhere. One numpy step, _steps, serves step(),
the batch integrator and the kernel's self-check; it adds every term, as
zeros where a term is off, which the wrap makes exact. The batch
integrator runs each block of steps through one call of _step.c, which does
_steps's float operations in its order. Its workspace has one row
[cos phi_j | sin phi_j] per oscillator, so each coupling is one
contiguous read that feeds both sums. It fills the rows calling libm's
sincos in the order of the phases' bins of [0, 2*pi), as sincos branches
on range and quadrant; the order of calls changes no bit.
It draws each step's normals itself, from the PCG64 state of each seed's
generator per distinct problem size, by numpy's ziggurat with numpy's
tables (BSD licence, see _step.c): numpy's values. _steps draws them the
same way with Generator.standard_normal, one step at a time. Problems of a
size read its draws; seed slices take turns on threads (see
_integrate_batch).
The kernel is compiled once per machine (cc -O3 -ffp-contract=off) into
$XDG_CACHE_HOME/oimsim or ~/.cache/oimsim (delete it to rebuild) and
loaded with ctypes only if a self-check finds numpy's bits, steps and
draws, on a probe. Else the numpy loop integrates: silently without a
compiler or writable cache, with a RuntimeWarning after a failed
self-check. drift(), lyapunov() and step() always use numpy. Randomness is
split into independent substreams of the run seed,
Generator(PCG64(SeedSequence((seed, stream)))), with stream 0 = initial
phases, 1 = detuning, 2 = integration noise, 3 = random_ising. Runs are
bit-reproducible for a fixed (problem, params, seed) on a given platform.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import json
import math
import os
import subprocess
import tempfile
import threading
import time
import warnings
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache
from importlib import resources
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import (DimensionError, NumericalDivergenceError, SpecificationError, _finite,
                     _finite_real, _integer, _number, _one_or_many, _reals)
from .problems import IsingProblem, hamiltonian

__all__ = [
    "DEFAULTS",
    "KsSchedule",
    "DynamicsParams",
    "PhaseState",
    "RunResult",
    "EnergyTrace",
    "sample_detuning",
    "drift",
    "lyapunov",
    "step",
    "round_phases",
    "simulate",
    "run_seeds",
]

TWO_PI = 2.0 * np.pi

_STREAM_INIT = 0
_STREAM_DETUNE = 1
_STREAM_NOISE = 2
_STREAM_GENERATOR = 3  # generators.random_ising

# steps per block, cut short at trace samples and at the end: block ends are where
# divergence is checked and a trace samples. Each step draws its own normals, so
# the block length never changes results
_BLOCK_STEPS = 256
_MIN_SLICE = 256  # phases (spins x columns) per thread, at least: fewer gain nothing
_CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")  # how _load_kernel builds _step.c
_budget = threading.local()  # .threads: a unit thread's share of the CPUs (else all)
_kernel_lock = threading.Lock()


@lru_cache(maxsize=1)
def load_defaults():
    """The versioned simulation defaults shipped with the package."""
    text = resources.files("oimsim").joinpath("data/defaults.json").read_text()
    return json.loads(text)


DEFAULTS = load_defaults()


def _substream(seed, stream):
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((int(seed), stream))))


@dataclass(frozen=True)
class KsSchedule:
    """SYNC strength Ks(t), a linear ramp 0 -> level, for t >= 0.

    Ks is 0 before t0, `level` from t1 on, and linear in between; when
    t0 == t1 it steps to `level` at t1. constant(level) is the step at 0,
    and level 0 is SYNC off.
    """

    level: float
    t0: float = 0.0
    t1: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "level", float(_finite(self.level, "Ks level")))
        for name in ("t0", "t1"):
            t = getattr(self, name)
            object.__setattr__(self, name, float(t) if _finite_real(t) else math.nan)
        if not 0 <= self.t0 <= self.t1:
            raise SpecificationError("ramp needs finite 0 <= t0 <= t1")

    @classmethod
    def constant(cls, level):
        return cls.ramp(0.0, 0.0, level)

    @classmethod
    def ramp(cls, t0, t1, level):
        return cls(level=level, t0=t0, t1=t1)

    @classmethod
    def from_config(cls, cfg):
        """Inverse of to_config. A version-2 config's "kind" is ignored; a
        constant one has no t0 or t1, which then read as 0."""
        return cls.ramp(cfg.get("t0", 0.0), cfg.get("t1", 0.0), cfg["level"])

    def to_config(self):
        return {"t0": self.t0, "t1": self.t1, "level": self.level}

    def value(self, t):
        """Ks at time t (scalar or array)."""
        t = np.asarray(t, dtype=np.float64)
        width = self.t1 - self.t0
        if width == 0.0:
            frac = (t >= self.t1).astype(np.float64)
        else:
            frac = np.clip((t - self.t0) / width, 0.0, 1.0)
        return self.level * frac


def _default_ks():
    return KsSchedule.from_config(DEFAULTS["ks"])


@dataclass(frozen=True)
class DynamicsParams:
    """All knobs of one simulation; defaults come from data/defaults.json.

    The same parameter set is meant to be used unchanged across problems.
    """

    K: float = DEFAULTS["K"]
    ks_schedule: KsSchedule = field(default_factory=_default_ks)
    noise_amp: float = DEFAULTS["noise_amp"]
    variability_pct: float = DEFAULTS["variability_pct"]
    cycles: float = DEFAULTS["cycles"]
    steps_per_cycle: int = DEFAULTS["steps_per_cycle"]

    def __post_init__(self):
        for name, strict in (("K", True), ("noise_amp", False), ("variability_pct", False),
                             ("cycles", True)):  # stored as Python numbers, as exported
            object.__setattr__(self, name, _finite(getattr(self, name), name, strict=strict))
        spc = self.steps_per_cycle
        if not (_number(spc) and 1 <= spc < math.inf and int(spc) == spc):
            raise SpecificationError("steps_per_cycle must be a positive integer")
        object.__setattr__(self, "steps_per_cycle", spc := int(spc))
        if spc >= 2**63 or self.cycles * spc >= 2**63:  # step counts are int64
            raise SpecificationError("cycles * steps_per_cycle must be below 2**63")

    @property
    def dt(self):
        return 1.0 / self.steps_per_cycle

    @property
    def total_steps(self):
        return int(math.ceil(round(self.cycles * self.steps_per_cycle, 9)))

    def without_sync(self):
        return replace(self, ks_schedule=KsSchedule.constant(0.0))

    def to_config(self):
        return {
            "K": self.K,
            "ks": self.ks_schedule.to_config(),
            "noise_amp": self.noise_amp,
            "variability_pct": self.variability_pct,
            "cycles": self.cycles,
            "steps_per_cycle": self.steps_per_cycle,
        }

    @classmethod
    def from_config(cls, cfg):
        """Inverse of to_config; a version-2 config's "sync_enabled": false
        reads as Ks level 0, and its or a version-3 one's "normalize_by_degree"
        must be false."""
        if cfg.get("normalize_by_degree", False) is not False:
            raise SpecificationError("normalize_by_degree must be false: K is one gain")
        ks = KsSchedule.from_config(cfg["ks"])
        return cls(
            K=cfg["K"],
            ks_schedule=ks if cfg.get("sync_enabled", True) else KsSchedule.constant(0.0),
            noise_amp=cfg["noise_amp"],
            variability_pct=cfg["variability_pct"],
            cycles=cfg["cycles"],
            steps_per_cycle=cfg["steps_per_cycle"],
        )


@dataclass(frozen=True)
class PhaseState:
    """Oscillator phases (radians) at a simulation time (cycles), t >= 0."""

    phases: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "time", _finite(self.time, "time"))
        p = _reals(self.phases, "phases")
        if p.ndim != 1:
            raise DimensionError("phases must be a 1D vector")
        object.__setattr__(self, "phases", p)


@dataclass(frozen=True)
class EnergyTrace:
    """Sampled (time, Lyapunov value, rounded Ising energy) series."""

    times: np.ndarray
    lyapunov: np.ndarray
    rounded_H: np.ndarray


@dataclass(frozen=True)
class RunResult:
    """One run: its problem's name, seed, final spins, their H, its share of
    the integration's wall time in secs, and its energy trace, when one was
    asked for. cut is None as integrated; the benchmark harness, which
    knows each problem's total weight, sets it. Runs compare and hash by
    the scalar fields; the arrays take no part."""

    problem: str | None
    seed: int
    spins: np.ndarray = field(compare=False)
    H: float
    cut: float | None
    secs: float
    trace: EnergyTrace | None = field(default=None, compare=False)


def sample_detuning(n, variability_pct, seed):
    """Per-oscillator frequency offsets, radians per cycle.

    dw_i = 2*pi*delta_i with delta_i ~ Normal(0, variability_pct^2), i.i.d.
    Deterministic in seed; exactly zero when variability_pct == 0.
    """
    if _finite(variability_pct, "variability_pct") == 0:
        return np.zeros(n)
    rng = _substream(seed, _STREAM_DETUNE)
    return TWO_PI * rng.normal(0.0, variability_pct, size=n)


def round_phases(state):
    """Threshold phases (a PhaseState or an array of any shape) to spins:
    +1 where cos(phi) >= 0, else -1."""
    phases = getattr(state, "phases", state)
    return np.where(np.cos(phases) >= 0.0, 1, -1).astype(np.int8)


def _columns(problem, state, detuning=None):
    """The state's phases and the detuning (zeros when not given) as (n, 1)
    columns, checked against n."""
    phi = state.phases
    if phi.shape != (problem.n,):
        raise DimensionError(f"state has {phi.shape[0]} phases, problem has n={problem.n}")
    dw = np.zeros(problem.n) if detuning is None else _reals(detuning, "detuning")
    if dw.shape != (problem.n,):
        raise DimensionError("detuning length must equal n")
    return phi.reshape(-1, 1), dw.reshape(-1, 1)


def _kernel_args(problem, params, t, dt):
    """_coupling's (adj, h_col, Kdt, ks2dt) for one problem at time t."""
    return (problem.adjacency, _field_col((problem,)), params.K * dt,
            2.0 * dt * float(params.ks_schedule.value(t)))


def _field_col(group):
    """The stacked fields as one column (zeros where a problem has none)."""
    return np.concatenate([p.h for p in group]).reshape(-1, 1)


def drift(problem, state, params, detuning=None):
    """Deterministic part of d phi / dt at the state's time."""
    Phi, dw = _columns(problem, state, detuning)
    d = -_coupling(Phi, *_kernel_args(problem, params, state.time, 1.0))
    d += dw
    return d[:, 0]


def lyapunov(problem, state, params):
    """Global energy function E(phi); the noiseless flow descends it."""
    Phi, _ = _columns(problem, state)
    ks = float(params.ks_schedule.value(state.time))
    adj = problem.adjacency
    C = np.cos(Phi)
    S = np.sin(Phi)
    pair = 0.5 * (np.sum(C * (adj @ C), axis=0) + np.sum(S * (adj @ S), axis=0))
    e = -params.K * (pair + problem.h @ C) - 0.5 * ks * np.sum(np.cos(2.0 * Phi), axis=0)
    return float(e[0])


def _coupling(Phi, adj, h_col, Kdt, ks2dt):
    """-dt times the drift without detuning, for an (n, C) phase matrix.

    Kdt = K*dt is a scalar; ks2dt = 2*Ks(t)*dt is a scalar or one value
    per column, 0.0 where SYNC is off. Every term is always added: a term
    of 0.0 can only turn a -0 of g into +0.
    """
    c = np.cos(Phi)
    s = np.sin(Phi)
    g = s * (adj @ c)
    g -= c * (adj @ s)
    g += h_col * s
    g *= Kdt
    g += (s * c) * ks2dt
    return g


def _steps(Phi, adj, h_col, Kdt, dt_dw, noise, ks_cols):
    """One Euler-Maruyama step in place on a C-ordered (n, C) phase matrix
    for each k: _coupling's with ks_cols[k] (2*Ks*dt per column), plus dt_dw
    (dt * detuning), plus the noise (gens, sizes, scale) as oim_steps draws
    it: each step, seed b's generators (one per distinct size, none without
    noise) fill z[b] in turn, and row i of seed b in each B-column variant
    block adds scale * z[b, _rows(sizes)[i]].
    """
    gens, sizes, scale = noise
    offs = np.cumsum([0, *dict.fromkeys(sizes)])
    z = np.zeros((len(gens), offs[-1]))
    rows = _rows(sizes)
    blocks = Phi.reshape(len(Phi), -1, len(gens))
    for k in range(len(ks_cols)):
        for row, seed_gens in zip(z, gens):
            for off, end, gen in zip(offs, offs[1:], seed_gens):
                gen.standard_normal(out=row[off:end])
        Phi -= _coupling(Phi, adj, h_col, Kdt, ks_cols[k])
        Phi += dt_dw
        blocks += (scale * z[:, rows].T)[:, None, :]
        np.mod(Phi, TWO_PI, out=Phi)


def _rows(sizes):
    """Each row's index into a seed's draws of one step: one run of m values
    per distinct size m, in order of first appearance, read by every
    problem of that size."""
    distinct = list(dict.fromkeys(sizes))
    start = dict(zip(distinct, np.cumsum([0] + distinct[:-1])))
    return np.concatenate([start[m] + np.arange(m) for m in sizes])


def _bind_numpy(Phi, adj, h_col, Kdt, dt_dw, noise):
    """advance(ks_cols) on the numpy path, as _load_kernel's kernel binds it."""
    return lambda ks_cols: _steps(Phi, adj, h_col, Kdt, dt_dw, noise, ks_cols)


def _usable_cpus():
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _share_cpus(threads):  # run_benchmark's unit-thread initializer
    _budget.threads = threads


@lru_cache(maxsize=1)
def _load_kernel():
    """_steps compiled from _step.c, or None (see the module docstring); the
    self-check has every term on and phases beyond [-2*pi, 4*pi). A load
    refreshes the build's mtime; a build deletes builds 30 days unloaded."""
    src = resources.files("oimsim").joinpath("_step.c").read_bytes()
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "oimsim"
    lib = cache / f"_step-{hashlib.sha256(src + ' '.join(_CFLAGS).encode()).hexdigest()[:16]}.so"
    try:
        if not lib.exists():  # build aside, then rename: concurrent builds cannot race
            cache.mkdir(parents=True, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=cache) as tmp:
                subprocess.run(["cc", *_CFLAGS, "-x", "c", "-", "-o", f"{tmp}/k.so", "-lm"],
                               input=src, capture_output=True, check=True, timeout=300)
                os.replace(f"{tmp}/k.so", lib)
            for old in cache.glob("_step-*.so"):
                with contextlib.suppress(OSError):  # another process may prune it too
                    if time.time() - old.stat().st_mtime > 30 * 86400:
                        old.unlink()
        with contextlib.suppress(OSError):  # a read-only cache still loads
            os.utime(lib)
        fn = ctypes.CDLL(str(lib)).oim_steps
    except (OSError, subprocess.SubprocessError):  # also: no cc on PATH
        return None
    fn.argtypes = [ctypes.c_int64] * 5 + [ctypes.c_double] * 2 + [ctypes.c_void_p] * 15
    fn.restype = None

    def kernel(Phi, adj, h_col, Kdt, dt_dw, noise):
        """advance(ks_cols): _bind_numpy's, on these arguments cast once; the C
        draws each step's normals from copies of the generators' PCG64 states."""
        n, C = Phi.shape
        gens, sizes, scale = noise
        distinct = list(dict.fromkeys(sizes))
        B = len(gens)
        cast = lambda a, shape, dtype=np.float64: np.ascontiguousarray(  # noqa: E731
            np.broadcast_to(a, shape), dtype=dtype)
        st = np.array([[[v >> k & 2**64 - 1 for v in g.bit_generator.state["state"].values()
                         for k in (0, 64)] for g in row] for row in gens], np.uint64)  # state, inc
        keep = [Phi, cast(adj.indptr, n + 1, np.int64), cast(adj.indices, adj.nnz, np.int64),
                cast(adj.data, adj.nnz), cast(h_col, (n, 1)), cast(dt_dw, (n, C)), st,
                np.array(distinct, np.int64), cast(_rows(sizes), n, np.int64),
                np.zeros((B, sum(distinct))), np.empty((n + 1, 2 * C)), np.empty(n * C),
                np.empty(n * C, np.int64), np.empty(n * C, np.uint8)]  # draws, workspace, sort
        if (Phi.dtype != np.float64 or not Phi.flags.c_contiguous or C % B or sum(sizes) != n
                or st.size and st.shape != (B, len(distinct), 4)):
            raise ValueError("the step kernel needs C-ordered float64 phases, a row per spin")
        ptrs = [a.ctypes.data if a.size else None for a in keep]

        def advance(ks_cols, keep=keep):  # holds the arrays that ptrs point into
            ks = np.ascontiguousarray(ks_cols, float)
            if ks.shape != (len(ks), C):
                raise ValueError("the step kernel needs (L, C) Ks values")
            fn(n, C, B, len(ks), len(distinct), scale, Kdt, *ptrs, ks.ctypes.data)
        return advance

    # 2C = 30 runs the 8-, 4- and 2-wide tiles; rows 0-3, 4-8: two packed problems;
    # Ks is 0 in column 0 and at step 1; seeds 0, 28, 78, 551 and 2707 draw 16 and 20
    # noise values each, among them numpy's ziggurat tail of each sign (one after a
    # rejected try) and its wedges, accepted and rejected
    rng = np.random.default_rng(0)
    args = (sp.csr_matrix(rng.normal(size=(9, 9)) * (rng.random((9, 9)) < 0.4)),
            rng.normal(size=(9, 1)), rng.uniform(0.0, 0.1),
            rng.normal(0.0, 0.1, (9, 15)))
    ks = rng.uniform(0.0, 0.1, (4, 15)) * np.outer(np.arange(4) != 1, np.arange(15) > 0)
    ref = rng.uniform(-50.0, 50.0, (9, 15))
    out = ref.copy()
    for bind, Phi in ((_bind_numpy, ref), (kernel, out)):
        gens = [[_substream(s, _STREAM_NOISE) for _ in "ab"] for s in (0, 28, 78, 551, 2707)]
        bind(Phi, *args, (gens, [4, 5], 10.0))(ks)
    if ref.tobytes() != out.tobytes():
        warnings.warn("the compiled step kernel gives other bits than numpy here; "
                      "integrating with numpy", RuntimeWarning)
        return None
    return kernel


def step(state, problem, params, detuning=None, rng=None):
    """Advance one Euler-Maruyama step of size dt = 1/steps_per_cycle.

    `rng` supplies the noise draws (one standard normal per oscillator);
    when omitted and noise_amp > 0, it is required.
    """
    dt = params.dt
    Phi, dw = _columns(problem, state, detuning)
    if params.noise_amp > 0 and rng is None:
        raise SpecificationError("rng is required when noise_amp > 0")
    adj, h_col, Kdt, ks2dt = _kernel_args(problem, params, state.time, dt)
    Phi = Phi.copy()
    gens = [[rng] if params.noise_amp > 0 else []]
    _steps(Phi, adj, h_col, Kdt, dt * dw, (gens, [problem.n], params.noise_amp * math.sqrt(dt)),
           [ks2dt])
    return PhaseState(Phi[:, 0], state.time + dt)


# what the variants of one batch must share: they differ only in the Ks
# schedule and frequency variability
_SHARED = ("K", "noise_amp", "cycles", "steps_per_cycle")


def _as_variants(params):
    variants = _one_or_many(params, DynamicsParams, "params")
    for v in variants[1:]:
        if any(getattr(v, f) != getattr(variants[0], f) for f in _SHARED):
            raise SpecificationError(
                f"batched variants must agree on {', '.join(_SHARED)}")
    return variants


def _integrate_batch(problem, params, seeds, initial_phases=None, trace_points=0):
    """Integrate several independent runs as columns of one phase matrix.

    `problem` is one IsingProblem or a group (sequence) of them; a group is
    integrated as one block-diagonal system whose rows are the problems'
    spins in order, so each (problem, seed) block is one run. `params` is
    one DynamicsParams or a tuple of V variants (see _SHARED); each variant
    is a block of B = len(seeds) columns, variant-major, and all variants
    share each seed's initial phases and noise draws. A substream's values
    depend only on its seed and on how many are drawn, so each seed draws
    once per distinct problem size, and the problems of that size all read
    the draws they would make alone. Each row of the block-diagonal product
    sums the same entries in the same order as the problem's own matrix, so
    a run's result does not depend on which runs, problems or variants share
    the batch, or on which thread's slice of seeds.
    Returns (Phi, trace) with Phi of shape (sum of n, V*B); trace is None
    when trace_points is 0, else (times, E, H), one value per sample, taken
    as simulate() documents. A trace covers one run: one problem, one
    variant and one seed.
    """
    group = _one_or_many(problem, IsingProblem, "problem")
    variants = _as_variants(params)
    params = variants[0]  # for the fields that every variant shares
    sizes = [p.n for p in group]
    offsets = np.cumsum([0] + sizes)
    n = int(offsets[-1])
    B = len(seeds)
    V = len(variants)
    dt = params.dt
    total_steps = params.total_steps
    if _integer(trace_points, "trace_points", 0) and (len(group), V, B) != (1, 1, 1):
        raise SpecificationError("an energy trace covers a single run (problem, variant, seed)")

    distinct = list(dict.fromkeys(sizes))
    rows = _rows(sizes)  # row i reads value rows[i] of a seed's per-size draws
    per_size = lambda draw: np.concatenate([draw(m) for m in distinct])[rows]  # noqa: E731
    if initial_phases is not None:
        init = _reals(initial_phases, "initial_phases")
        if init.shape not in ((n,), (n, B)):
            raise DimensionError(f"initial_phases must have shape ({n},) or ({n}, {B})")
        init = np.broadcast_to(init.reshape(n, -1), (n, B))

    h_col = _field_col(group)
    adj = sp.block_diag([p.adjacency for p in group], format="csr")
    with _kernel_lock:  # lru_cache is no lock: threads on a cold cache would each build
        bind = _load_kernel() or _bind_numpy

    # an energy trace samples (time, E, rounded H) at block ends: every
    # multiple of `every` steps (from 0 when trace_points > 1) and the end
    every = -(-total_steps // (trace_points - 1)) if trace_points > 1 else total_steps
    Phi = np.empty((n, V, B))
    samples, bad = [], []  # bad: (step, variant, seed index, row) of each divergence

    def integrate(b0, b1):
        """Set up and run seeds b0:b1 to the end or to a block end where any slice
        diverged, yielding the GIL after each block so that the slices interleave."""
        mine = seeds[b0:b1]
        if initial_phases is None:
            phi = np.stack([per_size(lambda m: _substream(s, _STREAM_INIT).random(m) * TWO_PI)
                            for s in mine], axis=1)
        else:
            phi = init[:, b0:b1] % TWO_PI
        phi = np.tile(phi, V)  # every variant's columns
        # columns without variability add +0.0, which is exact: phi is never -0
        dt_dw = dt * np.stack([per_size(lambda m: sample_detuning(m, v.variability_pct, s))
                               for v in variants for s in mine], axis=1)
        gens = [[_substream(s, _STREAM_NOISE) for _ in distinct] if params.noise_amp else []
                for s in mine]
        advance = bind(phi, adj, h_col, params.K * dt, dt_dw,
                       (gens, sizes, params.noise_amp * math.sqrt(dt)))
        done = 0
        while not (bad and done >= min(bad)[0]):
            if trace_points and (done == total_steps or trace_points > 1 and done % every == 0):
                state = PhaseState(phi[:, 0], done * dt)
                samples.append((done * dt, lyapunov(group[0], state, params),
                                hamiltonian(group[0], round_phases(state))))
            if done == total_steps:
                break
            L = min(_BLOCK_STEPS, total_steps - done, every - done % every)
            # 2*Ks*dt per (step, column), 0.0 where SYNC is off
            t = (done + np.arange(L)) * dt
            ks2dt = 2.0 * dt * np.array([v.ks_schedule.value(t) for v in variants])
            advance(np.repeat(ks2dt.T, b1 - b0, axis=1))
            done += L
            finite = np.isfinite(phi).reshape(n, V, -1)
            if not finite.all():  # the first diverged (variant, seed), then its first row
                v, b = np.unravel_index(np.argmin(finite.all(axis=0)), finite.shape[1:])
                bad.append((done, v, b0 + b, int(np.argmin(finite[:, v, b]))))
            time.sleep(0)  # hands the GIL to a waiting slice
        Phi[:, :, b0:b1] = phi.reshape(n, V, -1)

    # free-running slices, so a slow core delays only its own; the earliest
    # block, then the first column of Phi, names a divergence at any split
    threads = getattr(_budget, "threads", None) or _usable_cpus()
    T = max(1, min(threads, B, n * V * B // _MIN_SLICE))
    cuts = [B * t // T for t in range(T + 1)]
    with ThreadPoolExecutor(T) as pool:  # starts no thread when T = 1
        list((pool.map if T > 1 else map)(integrate, cuts, cuts[1:]))
    if bad:
        step, _, b, row = min(bad)
        p = int(np.searchsorted(offsets, row, side="right")) - 1
        raise NumericalDivergenceError(
            "non-finite phases", step=step, seed=seeds[b],
            problem=p if group[p].name is None else group[p].name)
    return Phi.reshape(n, -1), tuple(np.array(x) for x in zip(*samples)) if trace_points else None


def _runs(problem, params, seeds, trace_points=0):
    """Integrate a batch and build one RunResult per (variant, problem, seed).

    Rounds the final phases, scores H, splits the integration's
    wall time evenly over the runs and attaches the energy trace, when
    there is one (a trace covers a single run).
    """
    group = _one_or_many(problem, IsingProblem, "problem")
    variants = _as_variants(params)
    for seed in seeds:
        _integer(seed, "seed", 0)
    B = len(seeds)
    t0 = time.perf_counter()
    Phi, trace = _integrate_batch(group, variants, seeds, trace_points=trace_points)
    spins_mat = round_phases(Phi)
    wall = (time.perf_counter() - t0) / (len(variants) * len(group) * B)
    energy_trace = None if trace is None else EnergyTrace(*trace)
    out = []
    for v in range(len(variants)):
        row = 0
        for p in group:
            for b, seed in enumerate(seeds):
                spins = spins_mat[row:row + p.n, v * B + b]
                out.append(RunResult(p.name, seed, spins, hamiltonian(p, spins), None, wall,
                                     energy_trace))
            row += p.n
    return out


def simulate(problem, params=None, seed=0, *, trace_points=0):
    """Run one IsingProblem under one DynamicsParams and threshold the final
    phases to spins; run_seeds runs several seeds, problems or variants.

    Phases start i.i.d. uniform on [0, 2*pi) from the seed's init stream,
    detuning and noise come from the seed's other substreams, and the state
    advances until time reaches params.cycles. Deterministic given
    (problem, params, seed). The run's cut is None; a MAX-CUT value is
    cut_from_hamiltonian(run.H, total_weight).

    trace_points, an integer >= 0, asks for an energy trace of (time,
    Lyapunov, rounded H) samples: at most trace_points of them, the last at
    the final step. With 2 or more points they are taken every s =
    ceil(total_steps / (trace_points - 1)) steps from t = 0, at the ends of
    blocks of steps cut to that length, plus the final step when s does not
    divide total_steps; with 1 point, only the final step.
    """
    if params is None:
        params = DynamicsParams()
    if not (isinstance(problem, IsingProblem) and isinstance(params, DynamicsParams)):
        raise SpecificationError("simulate runs one IsingProblem under one DynamicsParams; "
                                 "run_seeds takes groups and variants")
    return _runs(problem, params, [seed], trace_points=trace_points)[0]


def run_seeds(problem, params, seeds):
    """Simulate seeds (any iterable) batched as one vectorized integration.

    `problem` is one IsingProblem or a group (sequence) of them, packed
    into one block-diagonal integration. `params` is one DynamicsParams or
    a tuple of variants that agree on K, noise_amp, cycles and
    steps_per_cycle; they share one integration and each seed's draws.
    Returns one RunResult per (variant, problem, seed):
    variant-major, then problem-major, then by seed. Results are identical
    to calling simulate() per variant, problem and seed; batching and
    packing only amortize per-step overhead, and each run's secs is an
    even share of the integration's. Used by the benchmark harness.
    """
    if not isinstance(seeds, Iterable):
        raise SpecificationError("seeds must be an iterable of integers")
    seeds = list(seeds)
    if not seeds:
        return []
    return _runs(problem, params, seeds)
