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
integrator runs each noise block through one call of _step.c, which does
_steps's float operations in its order. Its workspace has one row
[cos phi_j | sin phi_j] per oscillator, so each coupling is one
contiguous read that feeds both sums. It fills the rows calling libm's
sincos in the order of the phases' bins of [0, 2*pi), as sincos branches
on range and quadrant; the order of calls changes no bit.
Each block's draws go, seed by seed, into one reused seed-major buffer
with one (steps, spins) region per distinct problem size, which each
problem of that size reads on both paths; seed slices run side by side on
threads (see _integrate_batch). The kernel is compiled once per machine
(cc -O3 -ffp-contract=off) into $XDG_CACHE_HOME/oimsim or ~/.cache/oimsim
(delete it to rebuild) and loaded with ctypes only if a self-check finds
numpy's bits on a probe. Else the numpy loop integrates: silently without
a compiler or writable cache, with a RuntimeWarning after a failed
self-check. drift(), lyapunov() and step() always use numpy. Randomness is
split into independent substreams of the run seed,
Generator(PCG64(SeedSequence((seed, stream)))), with stream 0 = initial
phases, 1 = detuning, 2 = integration noise. Runs are bit-reproducible for
a fixed (problem, params, seed) on a given platform.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import json
import math
import numbers
import os
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from importlib import resources
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import (DimensionError, NumericalDivergenceError, SpecificationError, _finite,
                     _integer)
from .problems import IsingProblem, hamiltonian, cut_from_hamiltonian

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

# noise is pregenerated in blocks for speed; numpy Generators produce the
# same stream regardless of block shape, so this never changes results
_MAX_NOISE_DOUBLES = 262_144  # 2 MB
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
        _finite(self.level, "Ks level")
        if not (0 <= self.t0 <= self.t1 <= sys.float_info.max):
            raise SpecificationError("ramp needs finite 0 <= t0 <= t1")
        for name in ("level", "t0", "t1"):
            object.__setattr__(self, name, float(getattr(self, name)))

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
        _finite(self.K, "K", strict=True)
        _finite(self.noise_amp, "noise_amp")
        _finite(self.variability_pct, "variability_pct")
        _finite(self.cycles, "cycles", strict=True)
        spc = self.steps_per_cycle
        if not (isinstance(spc, numbers.Real) and 1 <= spc < math.inf and int(spc) == spc):
            raise SpecificationError("steps_per_cycle must be a positive integer")
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
        _finite(self.time, "time")
        p = np.asarray(self.phases, dtype=np.float64)
        if p.ndim != 1:
            raise DimensionError("phases must be a 1D vector")
        if not np.all(np.isfinite(p)):
            raise SpecificationError("phases must be finite")
        object.__setattr__(self, "phases", p)


@dataclass(frozen=True)
class EnergyTrace:
    """Sampled (time, Lyapunov value, rounded Ising energy) series."""

    times: np.ndarray
    lyapunov: np.ndarray
    rounded_H: np.ndarray


@dataclass(frozen=True)
class RunResult:
    """One run: its problem's name, seed, final spins, their H and cut (None
    without a total weight), its share of the integration's wall time in
    secs, and its energy trace, when one was asked for. Runs compare and
    hash by the scalar fields; the arrays take no part."""

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
    dw = np.zeros(problem.n) if detuning is None else np.asarray(detuning, dtype=np.float64)
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
    for each step k of a noise block: _coupling's with ks_cols[k] (2*Ks*dt
    per column), plus dt_dw (dt * detuning), plus the noise (z, base, stride,
    scale) as _step.c reads it: scale * z[b, base[i] + k * stride[i]] for
    row i and seed b of each B-column variant block, z of shape (B, zs).
    """
    z, base, stride, scale = noise
    blocks = Phi.reshape(len(Phi), -1, len(z))
    for k in range(len(ks_cols)):
        Phi -= _coupling(Phi, adj, h_col, Kdt, ks_cols[k])
        Phi += dt_dw
        blocks += (scale * z[:, base + k * stride].T)[:, None, :]
        np.mod(Phi, TWO_PI, out=Phi)


def _noise_rows(sizes, L):
    """Each row's (base, stride) into a seed-major (B, L * sum of distinct
    sizes) draw block that holds one (L, m) region per distinct size m, in
    order of first appearance, read by every problem of that size."""
    distinct = list(dict.fromkeys(sizes))
    start = dict(zip(distinct, L * np.cumsum([0] + distinct[:-1])))
    return (np.concatenate([start[m] + np.arange(m) for m in sizes]),
            np.repeat(sizes, sizes))


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
    fn.argtypes = [ctypes.c_int64] * 5 + [ctypes.c_double] * 2 + [ctypes.c_void_p] * 14
    fn.restype = None

    def kernel(Phi, adj, h_col, Kdt, dt_dw, noise):
        """advance(ks_cols): _steps on these arguments, cast once."""
        n, C = Phi.shape
        z, base, stride, scale = noise
        B, zs = z.shape
        cast = lambda a, shape, dtype=np.float64: np.ascontiguousarray(  # noqa: E731
            np.broadcast_to(a, shape), dtype=dtype)
        keep = [Phi, cast(adj.indptr, n + 1, np.int64), cast(adj.indices, adj.nnz, np.int64),
                cast(adj.data, adj.nnz), cast(h_col, (n, 1)),
                cast(dt_dw, (n, C)), z, cast(base, n, np.int64), cast(stride, n, np.int64),
                np.empty((n + 1, 2 * C)), np.empty(n * C), np.empty(n * C, np.int64),
                np.empty(n * C, np.uint8)]  # workspace, then the sincos order's scratch
        if any(a.dtype != np.float64 or not a.flags.c_contiguous for a in (Phi, z)) or C % B:
            raise ValueError("the step kernel needs C-ordered float64 phases and draws")
        ptrs = [a.ctypes.data for a in keep]  # advance holds keep

        def advance(ks_cols):
            ks = np.ascontiguousarray(ks_cols, float)
            L, (base, stride) = len(ks), keep[7:9]
            if ks.shape != (L, C) or not 0 <= base.min() <= (base + (L - 1) * stride).max() < zs:
                raise ValueError("the step kernel needs (L, C) Ks values, draws in range")
            fn(n, C, B, L, zs, scale, Kdt, *ptrs[:5], ks.ctypes.data, *ptrs[5:])
        return advance

    # 2C = 30 runs the 8-, 4- and 2-wide tiles; rows 0-3, 4-8: two packed problems;
    # Ks is 0 in column 0 and at step 1
    rng = np.random.default_rng(0)
    args = (sp.csr_matrix(rng.normal(size=(9, 9)) * (rng.random((9, 9)) < 0.4)),
            rng.normal(size=(9, 1)), rng.uniform(0.0, 0.1),
            rng.normal(0.0, 0.1, (9, 15)),
            (rng.normal(size=(5, 36)), *_noise_rows([4, 5], 4), 10.0),
            rng.uniform(0.0, 0.1, (4, 15)) * np.outer(np.arange(4) != 1, np.arange(15) > 0))
    ref = rng.uniform(-50.0, 50.0, (9, 15))
    out = ref.copy()
    _steps(ref, *args)
    kernel(out, *args[:5])(*args[5:])
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
    z = np.zeros((1, problem.n))  # one step's draws, as _steps reads them
    if params.noise_amp > 0:
        if rng is None:
            raise SpecificationError("rng is required when noise_amp > 0")
        z[0] = rng.standard_normal(problem.n)
    adj, h_col, Kdt, ks2dt = _kernel_args(problem, params, state.time, dt)
    Phi = Phi.copy()
    _steps(Phi, adj, h_col, Kdt, dt * dw,
           (z, np.arange(problem.n), 0, params.noise_amp * math.sqrt(dt)), [ks2dt])
    return PhaseState(Phi[:, 0], state.time + dt)


def _as_group(problem):
    group = (problem,) if isinstance(problem, IsingProblem) else tuple(problem)
    if not group:
        raise SpecificationError("at least one IsingProblem is needed")
    return group


def _weights(total_weight, count):
    """total_weight as a tuple of count cut weights, each None or a finite
    real number; None gives count Nones. Else SpecificationError."""
    weights = (None,) * count if total_weight is None else (
        tuple(total_weight) if np.iterable(total_weight) else ())
    if not (len(weights) == count and all(
            w is None or isinstance(w, numbers.Real) and abs(w) <= sys.float_info.max
            for w in weights)):
        raise SpecificationError(f"total_weight must give each of {count} problem(s) None "
                                 "or a finite real number")
    return weights


# what the variants of one batch must share: they differ only in the Ks
# schedule and frequency variability
_SHARED = ("K", "noise_amp", "cycles", "steps_per_cycle")


def _as_variants(params):
    variants = (params,) if isinstance(params, DynamicsParams) else tuple(params)
    if not variants:
        raise SpecificationError("at least one DynamicsParams variant is needed")
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
    group = _as_group(problem)
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
    rows = _noise_rows(sizes, 1)[0]  # row i reads value rows[i] of a seed's per-size draws
    per_size = lambda draw: np.concatenate([draw(m) for m in distinct])[rows]  # noqa: E731

    Phi = np.empty((n, V * B))
    first = Phi[:, :B]
    if initial_phases is None:
        for b, seed in enumerate(seeds):
            first[:, b] = per_size(lambda m: _substream(seed, _STREAM_INIT).random(m) * TWO_PI)
    else:
        init = np.asarray(initial_phases, dtype=np.float64)
        if init.shape == (n,):
            first[:] = init[:, None]
        elif init.shape == (n, B):
            first[:] = init
        else:
            raise DimensionError(f"initial_phases must have shape ({n},) or ({n}, {B})")
        if not np.all(np.isfinite(first)):
            raise SpecificationError("initial_phases must be finite")
        first %= TWO_PI
    for v in range(1, V):
        Phi[:, v * B:(v + 1) * B] = first

    # columns without variability add +0.0, which is exact: Phi is never -0
    dw = np.zeros((n, V * B))
    for v, prm in enumerate(variants):
        for b, seed in enumerate(seeds):
            dw[:, v * B + b] = per_size(lambda m: sample_detuning(m, prm.variability_pct, seed))
    dt_dw = dt * dw

    gens = [] if params.noise_amp == 0 else [
        (b, off, m, _substream(seed, _STREAM_NOISE)) for b, seed in enumerate(seeds)
        for off, m in zip(np.cumsum([0] + distinct[:-1]), distinct)]

    h_col = _field_col(group)
    adj = sp.block_diag([p.adjacency for p in group], format="csr")
    with _kernel_lock:  # lru_cache is no lock: threads on a cold cache would each build
        bind = _load_kernel() or (lambda *args: partial(_steps, *args))  # numpy, alike

    nd = sum(distinct)  # draws per seed and step
    chunk = max(1, min(256, _MAX_NOISE_DOUBLES // max(1, nd * B)))
    draws = np.zeros((B, chunk * nd))  # reused by every block; never drawn into without noise
    noise = (*_noise_rows(sizes, chunk), params.noise_amp * math.sqrt(dt))
    # an energy trace samples (time, E, rounded H) at block ends: every
    # multiple of `every` steps (from 0 when trace_points > 1) and the end
    every = -(-total_steps // (trace_points - 1)) if trace_points > 1 else total_steps
    samples, bad = [], []  # bad: (step, variant, seed index, row) of each divergence

    def integrate(b0, b1):
        """Run seeds b0:b1 to the end or to a block end where any slice diverged."""
        start.wait()  # no slice runs ahead while another thread is still starting
        phi, dw = (np.ascontiguousarray(a.reshape(n, V, B)[:, :, b0:b1]).reshape(n, -1)
                   for a in (Phi, dt_dw))  # every variant's columns
        advance = bind(phi, adj, h_col, params.K * dt, dw, (draws[b0:b1], *noise))
        done = 0
        while not (bad and done >= min(bad)[0]):
            if trace_points and (done == total_steps or trace_points > 1 and done % every == 0):
                state = PhaseState(phi[:, 0], done * dt)
                samples.append((done * dt, lyapunov(group[0], state, params),
                                hamiltonian(group[0], round_phases(state))))
            if done == total_steps:
                break
            L = min(chunk, total_steps - done, every - done % every)
            for b, off, m, gen in gens[b0 * len(distinct):b1 * len(distinct)]:
                gen.standard_normal(out=draws[b, chunk * off:chunk * off + L * m])
            # 2*Ks*dt per (step, column), 0.0 where SYNC is off
            t = (done + np.arange(L)) * dt
            ks2dt = 2.0 * dt * np.array([v.ks_schedule.value(t) for v in variants])
            advance(np.repeat(ks2dt.T, b1 - b0, axis=1))
            done += L
            finite = np.isfinite(phi).reshape(n, V, -1)
            if not finite.all():  # the first diverged (variant, seed), then its first row
                v, b = np.unravel_index(np.argmin(finite.all(axis=0)), finite.shape[1:])
                bad.append((done, v, b0 + b, int(np.argmin(finite[:, v, b]))))
        Phi.reshape(n, V, B)[:, :, b0:b1] = phi.reshape(n, V, -1)

    # free-running slices, so a slow core delays only its own; the earliest
    # block, then the first column of Phi, names a divergence at any split
    threads = getattr(_budget, "threads", None) or _usable_cpus()
    T = max(1, min(threads, B, n * V * B // _MIN_SLICE))
    cuts = [B * t // T for t in range(T + 1)]
    start = threading.Barrier(T)
    with ThreadPoolExecutor(T) as pool:  # starts no thread when T = 1
        try:
            list((pool.map if T > 1 else map)(integrate, cuts, cuts[1:]))
        finally:
            start.abort()  # frees the waiting slices if a thread could not start
    if bad:
        step, _, b, row = min(bad)
        p = int(np.searchsorted(offsets, row, side="right")) - 1
        raise NumericalDivergenceError(
            "non-finite phases", step=step, seed=seeds[b],
            problem=p if group[p].name is None else group[p].name)
    return Phi, tuple(np.array(x) for x in zip(*samples)) if trace_points else None


def _runs(problem, params, seeds, total_weight, trace_points=0):
    """Integrate a batch and build one RunResult per (variant, problem, seed).

    Rounds the final phases, scores H and the cut, splits the integration's
    wall time evenly over the runs and attaches the energy trace, when
    there is one (a trace covers a single run).
    """
    group = _as_group(problem)
    variants = _as_variants(params)
    for seed in seeds:
        _integer(seed, "seed", 0)
    weights = _weights((total_weight,) if isinstance(problem, IsingProblem) else total_weight,
                       len(group))
    B = len(seeds)
    t0 = time.perf_counter()
    Phi, trace = _integrate_batch(group, variants, seeds, trace_points=trace_points)
    spins_mat = round_phases(Phi)
    wall = (time.perf_counter() - t0) / (len(variants) * len(group) * B)
    energy_trace = None if trace is None else EnergyTrace(*trace)
    out = []
    for v in range(len(variants)):
        row = 0
        for p, tw in zip(group, weights):
            for b, seed in enumerate(seeds):
                spins = spins_mat[row:row + p.n, v * B + b]
                H = hamiltonian(p, spins)
                cut = cut_from_hamiltonian(H, tw) if tw is not None else None
                out.append(RunResult(p.name, seed, spins, H, cut, wall, energy_trace))
            row += p.n
    return out


def simulate(problem, params=None, seed=0, *, total_weight=None, trace_points=0):
    """Run one IsingProblem under one DynamicsParams and threshold the final
    phases to spins; run_seeds runs several seeds, problems or variants.

    Phases start i.i.d. uniform on [0, 2*pi) from the seed's init stream,
    detuning and noise come from the seed's other substreams, and the state
    advances until time reaches params.cycles. Deterministic given
    (problem, params, seed).

    total_weight, when given, also reports the MAX-CUT value of the final
    spins. trace_points, an integer >= 0, asks for an energy trace of
    (time, Lyapunov, rounded H) samples: at most trace_points of them, the
    last at the final step. With 2 or more points they are taken every s =
    ceil(total_steps / (trace_points - 1)) steps from t = 0, at the ends of
    noise blocks cut to that length, plus the final step when s does not
    divide total_steps; with 1 point, only the final step.
    """
    if params is None:
        params = DynamicsParams()
    if not (isinstance(problem, IsingProblem) and isinstance(params, DynamicsParams)):
        raise SpecificationError("simulate runs one IsingProblem under one DynamicsParams; "
                                 "run_seeds takes groups and variants")
    return _runs(problem, params, [seed], total_weight, trace_points=trace_points)[0]


def run_seeds(problem, params, seeds, *, total_weight=None):
    """Simulate seeds (any iterable) batched as one vectorized integration.

    `problem` is one IsingProblem or a group (sequence) of them, packed
    into one block-diagonal integration; for a group, total_weight is None
    or one weight (None or a finite real number) per problem. `params` is
    one DynamicsParams or a tuple of variants that agree on K, noise_amp,
    cycles and steps_per_cycle; they share one integration and each seed's
    draws. Returns one RunResult per (variant, problem, seed):
    variant-major, then problem-major, then by seed. Results are identical
    to calling simulate() per variant, problem and seed; batching and
    packing only amortize per-step overhead, and each run's secs is an
    even share of the integration's. Used by the benchmark harness.
    """
    seeds = list(seeds)
    if not seeds:
        return []
    return _runs(problem, params, seeds, total_weight)
