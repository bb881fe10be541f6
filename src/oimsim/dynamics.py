"""Stochastic phase dynamics of SHIL-binarized coupled oscillators.

Each Ising spin is an oscillator phase phi_i (radians), simulated in the
rotating frame of the common natural frequency so time is measured in
oscillation cycles. The drift is

    d phi_i / dt = dw_i - K * [ sum_j J_ij sin(phi_i - phi_j)
                                + h_i sin(phi_i) ]
                   - Ks(t) * sin(2 phi_i)

where dw_i are per-oscillator frequency detunings and Ks(t) is the strength
of the double-frequency SYNC injection. The sin(2 phi) term creates two
stable locks 180 degrees apart (the physical bit); without detuning and
noise the flow descends the Lyapunov function

    E(phi) = -K * [ sum_{i<j} J_ij cos(phi_i - phi_j)
                    + sum_i h_i cos(phi_i) ]
             - Ks(t)/2 * sum_i cos(2 phi_i)

whose value at binary phases is K * H(s) - n * Ks/2, so phase minima
coincide with Ising minima. Integration is fixed-step Euler-Maruyama:

    phi <- wrap(phi + drift * dt + noise_amp * sqrt(dt) * xi)

where wrap is exactly np.mod(., 2*pi), bit for bit. One coupling kernel,
_coupling, computes K*dt times the coupling and field terms plus the SYNC
term for drift(), step() and the batch integrator alike, so their
arithmetic is identical; the sin(2 phi) term is computed as
2 sin(phi) cos(phi) everywhere. The batch integrator runs each noise
block through one call of _step.c, which does _advance's float operations
in its order. Its workspace has one row [cos phi_j | sin phi_j] per
oscillator, so each coupling is one contiguous read that feeds both sums.
Each block's draws go, seed by seed, into one reused seed-major buffer
that holds each problem's (steps, spins) draws contiguously, and both
paths read them from there; seed slices run side by side on threads (see
_integrate_batch). The kernel is compiled once per machine (cc -O3
-ffp-contract=off) into $XDG_CACHE_HOME/oimsim or ~/.cache/oimsim (delete
it to rebuild) and loaded with ctypes only if a self-check finds numpy's
bits on a probe. Else the numpy loop integrates: silently without a
compiler or writable cache, with a RuntimeWarning after a failed
self-check. drift(), lyapunov() and step() always use numpy. Randomness
is split into independent substreams of the run seed,
Generator(PCG64(SeedSequence((seed, stream)))), with stream 0 = initial
phases, 1 = detuning, 2 = integration noise. Runs are bit-reproducible for
a fixed (problem, params, seed) on a given platform.
"""

from __future__ import annotations

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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from importlib import resources
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import DimensionError, NumericalDivergenceError, SpecificationError, _integer
from .oracles import greedy_descent
from .problems import IsingProblem, hamiltonian, cut_from_hamiltonian

__all__ = [
    "DEFAULTS",
    "KsSchedule",
    "DynamicsParams",
    "PhaseState",
    "RunResult",
    "EnergyTrace",
    "ks_value",
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
_budget = threading.local()  # .threads: a unit thread's share of the CPUs (else all)


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
    """SYNC strength Ks(t): constant, or a linear ramp 0 -> level.

    The ramp is 0 before t0, `level` after t1, and linear in between.
    """

    level: float
    t0: float = 0.0
    t1: float = 0.0
    kind: str = "constant"

    def __post_init__(self):
        if not (math.isfinite(self.level) and self.level >= 0):
            raise SpecificationError("Ks level must be finite and >= 0")
        if self.kind not in ("constant", "ramp"):
            raise SpecificationError(f"unknown Ks schedule kind {self.kind!r}")
        if self.kind == "ramp" and not (0 <= self.t0 <= self.t1):
            raise SpecificationError("ramp needs 0 <= t0 <= t1")

    @classmethod
    def constant(cls, level):
        return cls(level=float(level))

    @classmethod
    def ramp(cls, t0, t1, level):
        return cls(level=float(level), t0=float(t0), t1=float(t1), kind="ramp")

    @classmethod
    def from_config(cls, cfg):
        if cfg["kind"] == "constant":
            return cls.constant(cfg["level"])
        return cls.ramp(cfg["t0"], cfg["t1"], cfg["level"])

    def to_config(self):
        if self.kind == "constant":
            return {"kind": "constant", "level": self.level}
        return {"kind": "ramp", "t0": self.t0, "t1": self.t1, "level": self.level}

    def value(self, t):
        """Ks at time t (scalar or array)."""
        if self.kind == "constant":
            return self.level * np.ones_like(np.asarray(t, dtype=np.float64))
        t = np.asarray(t, dtype=np.float64)
        width = self.t1 - self.t0
        if width == 0.0:
            frac = (t >= self.t1).astype(np.float64)
        else:
            frac = np.clip((t - self.t0) / width, 0.0, 1.0)
        return self.level * frac


def ks_value(schedule, t):
    """Evaluate a Ks schedule at time t."""
    out = schedule.value(t)
    return float(out) if np.isscalar(t) else out


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
    sync_enabled: bool = DEFAULTS["sync_enabled"]
    normalize_by_degree: bool = DEFAULTS.get("normalize_by_degree", False)

    def __post_init__(self):
        if not (math.isfinite(self.K) and self.K > 0):
            raise SpecificationError("K must be finite and > 0")
        if not (math.isfinite(self.noise_amp) and self.noise_amp >= 0):
            raise SpecificationError("noise_amp must be finite and >= 0")
        if not (math.isfinite(self.variability_pct) and self.variability_pct >= 0):
            raise SpecificationError("variability_pct must be finite and >= 0")
        if not (math.isfinite(self.cycles) and self.cycles > 0):
            raise SpecificationError("cycles must be finite and > 0")
        if int(self.steps_per_cycle) != self.steps_per_cycle or self.steps_per_cycle < 1:
            raise SpecificationError("steps_per_cycle must be a positive integer")

    @property
    def dt(self):
        return 1.0 / self.steps_per_cycle

    @property
    def total_steps(self):
        return int(math.ceil(round(self.cycles * self.steps_per_cycle, 9)))

    def ks_at(self, t):
        if not self.sync_enabled:
            return np.zeros_like(np.asarray(t, dtype=np.float64))
        return self.ks_schedule.value(t)

    def effective_K(self, problem):
        """K as applied to this problem (divided by max degree when the
        normalization flag is on; the default is parameter-free)."""
        return self.K / problem.max_degree if self.normalize_by_degree else self.K

    def without_sync(self):
        return replace(self, sync_enabled=False)

    def to_config(self):
        return {
            "K": self.K,
            "ks": self.ks_schedule.to_config(),
            "noise_amp": self.noise_amp,
            "variability_pct": self.variability_pct,
            "cycles": self.cycles,
            "steps_per_cycle": self.steps_per_cycle,
            "sync_enabled": self.sync_enabled,
            "normalize_by_degree": self.normalize_by_degree,
        }

    @classmethod
    def from_config(cls, cfg):
        return cls(
            K=cfg["K"],
            ks_schedule=KsSchedule.from_config(cfg["ks"]),
            noise_amp=cfg["noise_amp"],
            variability_pct=cfg["variability_pct"],
            cycles=cfg["cycles"],
            steps_per_cycle=cfg["steps_per_cycle"],
            sync_enabled=cfg["sync_enabled"],
            normalize_by_degree=cfg.get("normalize_by_degree", False),
        )


@dataclass(frozen=True)
class PhaseState:
    """Oscillator phases (radians) at a simulation time (cycles)."""

    phases: np.ndarray
    time: float = 0.0

    def __post_init__(self):
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
    """Outcome of one simulation run."""

    final_spins: np.ndarray
    final_H: float
    final_cut: float | None
    seed: int
    wall_time: float
    trajectory_energy: EnergyTrace | None = None


def sample_detuning(n, variability_pct, seed):
    """Per-oscillator frequency offsets, radians per cycle.

    dw_i = 2*pi*delta_i with delta_i ~ Normal(0, variability_pct^2), i.i.d.
    Deterministic in seed; exactly zero when variability_pct == 0.
    """
    if variability_pct < 0:
        raise SpecificationError("variability_pct must be >= 0")
    if variability_pct == 0:
        return np.zeros(n)
    rng = _substream(seed, _STREAM_DETUNE)
    return TWO_PI * rng.normal(0.0, variability_pct, size=n)


def round_phases(state):
    """Threshold phases (a PhaseState or an array of any shape) to spins:
    +1 where cos(phi) >= 0, else -1."""
    phases = getattr(state, "phases", state)
    return np.where(np.cos(phases) >= 0.0, 1, -1).astype(np.int8)


def _columns(problem, state, detuning=None):
    """The state's phases and the detuning (None when not given) as (n, 1)
    columns, checked against n."""
    phi = state.phases
    if phi.shape != (problem.n,):
        raise DimensionError(f"state has {phi.shape[0]} phases, problem has n={problem.n}")
    if detuning is None:
        return phi.reshape(-1, 1), None
    dw = np.asarray(detuning, dtype=np.float64)
    if dw.shape != (problem.n,):
        raise DimensionError("detuning length must equal n")
    return phi.reshape(-1, 1), dw.reshape(-1, 1)


def _kernel_args(problem, params, t, dt):
    """_coupling's (adj, h_col, Kdt, ks2dt) for one problem at time t."""
    ks = float(params.ks_at(t))
    return (problem.adjacency, _field_col((problem,)), params.effective_K(problem) * dt,
            2.0 * dt * ks if ks != 0.0 else None)


def _field_col(group):
    """The stacked fields as one column, None when no problem has any (a
    zero field adds exactly nothing, so fieldless problems may share it)."""
    if not any(p.has_fields for p in group):
        return None
    return np.concatenate([p.h for p in group]).reshape(-1, 1)


def drift(problem, state, params, detuning=None):
    """Deterministic part of d phi / dt at the state's time."""
    Phi, dw = _columns(problem, state, detuning)
    d = -_coupling(Phi, *_kernel_args(problem, params, state.time, 1.0))
    if dw is not None:
        d += dw
    return d[:, 0]


def lyapunov(problem, state, params):
    """Global energy function E(phi); the noiseless flow descends it."""
    Phi, _ = _columns(problem, state)
    ks = float(params.ks_at(state.time))
    return float(_lyapunov_cols(problem, Phi, params.effective_K(problem), ks)[0])


def _lyapunov_cols(problem, Phi, K, ks):
    """E for every column of an (n, C) phase matrix."""
    adj = problem.adjacency
    C = np.cos(Phi)
    S = np.sin(Phi)
    pair = 0.5 * (np.sum(C * (adj @ C), axis=0) + np.sum(S * (adj @ S), axis=0))
    e = -K * (pair + problem.h @ C)
    if ks != 0.0:
        e = e - 0.5 * ks * np.sum(np.cos(2.0 * Phi), axis=0)
    return e


def _wrap(Phi):
    """Phi mod 2*pi in place, bit for bit equal to np.mod(Phi, 2*pi).

    On [-2*pi, 4*pi) one subtraction or addition of 2*pi does it: x - 2*pi
    is exact for x in [2*pi, 4*pi), where np.mod's fmod is exact too, and
    for x in [-2*pi, 0) np.mod also rounds x + 2*pi once (so a tiny
    negative x becomes 2*pi in both). Both masks come from the unwrapped
    values, and adding +0.0 turns -0 into +0 as np.mod does. NaN, inf or
    values out of that range take np.mod itself.
    """
    if not (Phi.min() >= -TWO_PI and Phi.max() < 2.0 * TWO_PI):
        np.mod(Phi, TWO_PI, out=Phi)
        return
    hi = Phi >= TWO_PI
    lo = Phi < 0.0
    np.subtract(Phi, TWO_PI, out=Phi, where=hi)
    np.add(Phi, TWO_PI, out=Phi, where=lo)
    Phi += 0.0


def _coupling(Phi, adj, h_col, Kdt, ks2dt):
    """-dt times the drift without detuning, for an (n, C) phase matrix.

    Kdt = K*dt is a scalar or one value per row (packed problems differ in
    K when it is normalized by degree); ks2dt = 2*Ks(t)*dt is None when the
    SYNC term is off for every column, else a scalar or one value per
    column.
    """
    c = np.cos(Phi)
    s = np.sin(Phi)
    g = s * (adj @ c)
    g -= c * (adj @ s)
    if h_col is not None:
        g += h_col * s
    g *= Kdt
    if ks2dt is not None:
        g += (s * c) * ks2dt
    return g


def _advance(Phi, adj, h_col, Kdt, ks2dt, dt_dw, incr):
    """One Euler-Maruyama step, in place, on an (n, C) phase matrix.

    The deterministic part is _coupling's; dt_dw is the precomputed dt *
    detuning column(s); incr the pre-scaled noise increment, of shape
    (n, B) with C a multiple of B: every B-column variant block gets the
    same draws.
    """
    Phi -= _coupling(Phi, adj, h_col, Kdt, ks2dt)
    if dt_dw is not None:
        Phi += dt_dw
    if incr is not None:
        n, B = incr.shape
        blocks = Phi.reshape(n, -1, B)
        blocks += incr[:, None, :]
    _wrap(Phi)


def _steps(Phi, adj, h_col, Kdt, dt_dw, noise, ks_cols, ks_on):
    """_advance for each step k of a noise block, the numpy reference path;
    noise is None or (z, base, stride, scale), read as _step.c reads it."""
    for k in range(len(ks_on)):
        incr = None if noise is None else noise[3] * noise[0][:, noise[1] + k * noise[2]].T
        _advance(Phi, adj, h_col, Kdt, ks_cols[k] if ks_on[k] else None, dt_dw, incr)


def _noise_rows(sizes, L):
    """Each row's (base, stride) into a seed-major (B, L * n) draw block
    that holds each problem's (L, m) draws contiguously, in group order."""
    first = np.repeat(np.cumsum([0] + sizes[:-1]), sizes)
    return (L - 1) * first + np.arange(len(first)), np.repeat(sizes, sizes)


def _usable_cpus():
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _share_cpus(threads):  # run_benchmark's unit-thread initializer
    _budget.threads = threads


@lru_cache(maxsize=1)
def _load_kernel():
    """_steps compiled from _step.c, or None (see the module docstring); the
    self-check turns every term on and puts phases beyond [-2*pi, 4*pi)."""
    src = resources.files("oimsim").joinpath("_step.c").read_bytes()
    flags = ["-O3", "-ffp-contract=off", "-fPIC", "-shared"]
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "oimsim"
    lib = cache / f"_step-{hashlib.sha256(src + ' '.join(flags).encode()).hexdigest()[:16]}.so"
    try:
        if not lib.exists():  # build aside, then rename: concurrent builds cannot race
            cache.mkdir(parents=True, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=cache) as tmp:
                subprocess.run(["cc", *flags, "-x", "c", "-", "-o", f"{tmp}/k.so", "-lm"],
                               input=src, capture_output=True, check=True, timeout=300)
                os.replace(f"{tmp}/k.so", lib)
        fn = ctypes.CDLL(str(lib)).oim_steps
    except (OSError, subprocess.SubprocessError):  # also: no cc on PATH
        return None
    fn.argtypes = [ctypes.c_int64] * 5 + [ctypes.c_double] + [ctypes.c_void_p] * 13
    fn.restype = None

    def kernel(Phi, adj, h_col, Kdt, dt_dw, noise):
        """advance(ks_cols, ks_on): _steps on these arguments, cast once."""
        n, C = Phi.shape
        z, base, stride, scale = noise or (None, None, None, 0.0)
        B, zs = (C, 0) if z is None else z.shape
        cast = lambda a, shape, dtype=np.float64: None if a is None else (  # noqa: E731
            np.ascontiguousarray(np.broadcast_to(a, shape), dtype=dtype))
        keep = [Phi, cast(adj.indptr, n + 1, np.int64), cast(adj.indices, adj.nnz, np.int64),
                cast(adj.data, adj.nnz), cast(h_col, (n, 1)), cast(Kdt, (n, 1)),
                cast(dt_dw, (n, C)), z, cast(base, n, np.int64), cast(stride, n, np.int64),
                np.empty((n + 1, 2 * C))]
        if any(a is not None and (a.dtype != np.float64 or not a.flags.c_contiguous)
               for a in (Phi, z)) or C % B:
            raise ValueError("the step kernel needs C-ordered float64 phases and draws")
        ptrs = [a if a is None else a.ctypes.data for a in keep]  # advance holds keep

        def advance(ks_cols, ks_on):
            ks, on = np.ascontiguousarray(ks_cols, float), np.ascontiguousarray(ks_on, np.uint8)
            L, (base, stride) = len(on), keep[8:10]
            if ks.shape != (L, C) or z is not None and not (
                    0 <= base.min() <= (base + (L - 1) * stride).max() < zs):
                raise ValueError("the step kernel needs (L, C) Ks values, draws in range")
            fn(n, C, B, L, zs, scale, *ptrs[:6], ks.ctypes.data, on.ctypes.data, *ptrs[6:])
        return advance

    # 2C = 30 runs the 8-, 4- and 2-wide tiles; rows 0-3, 4-8: two packed problems
    rng = np.random.default_rng(0)
    args = (sp.csr_matrix(rng.normal(size=(9, 9)) * (rng.random((9, 9)) < 0.4)),
            rng.normal(size=(9, 1)), rng.uniform(0.0, 0.1, (9, 1)),
            rng.normal(0.0, 0.1, (9, 15)),
            (rng.normal(size=(5, 36)), *_noise_rows([4, 5], 4), 10.0),
            rng.uniform(0.0, 0.1, (4, 15)) * (np.arange(15) > 0), np.arange(4) != 1)
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
    incr = None
    if params.noise_amp > 0:
        if rng is None:
            raise SpecificationError("rng is required when noise_amp > 0")
        incr = (params.noise_amp * math.sqrt(dt)) * rng.standard_normal((problem.n, 1))
    dt_dw = dt * dw if dw is not None and np.any(dw != 0.0) else None
    Phi = Phi.copy()
    _advance(Phi, *_kernel_args(problem, params, state.time, dt), dt_dw, incr)
    return PhaseState(Phi[:, 0], state.time + dt)


def _as_group(problem):
    return (problem,) if isinstance(problem, IsingProblem) else tuple(problem)


# what the variants of one batch must share: they differ only in SYNC, the
# Ks schedule and frequency variability
_SHARED = ("K", "noise_amp", "cycles", "steps_per_cycle", "normalize_by_degree")


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
    share each seed's initial phases and noise draws. Every block draws
    from its own seed substreams, and each row of the block-diagonal
    product sums the same entries in the same order as the problem's own
    matrix, so a run's result does not depend on which runs, problems or
    variants share the batch, or on which thread's slice of seeds.
    Returns (Phi, trace) with Phi of shape (sum of n, V*B); trace is None
    when trace_points is 0, else (times, E, H) with E, H of shape
    (num_samples, B), sampled as simulate() documents; a trace needs a
    group of one problem and one variant.
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
    if _integer(trace_points, "trace_points", 0) and (len(group) != 1 or V != 1):
        raise SpecificationError("an energy trace covers a single problem and variant")

    Phi = np.empty((n, V * B))
    first = Phi[:, :B]
    if initial_phases is None:
        for b, seed in enumerate(seeds):
            for off, m in zip(offsets, sizes):
                first[off:off + m, b] = _substream(seed, _STREAM_INIT).random(m) * TWO_PI
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
    dt_dw = None
    if any(v.variability_pct > 0 for v in variants):
        dw = np.zeros((n, V * B))
        for v, prm in enumerate(variants):
            if prm.variability_pct > 0:
                for b, seed in enumerate(seeds):
                    for off, m in zip(offsets, sizes):
                        dw[off:off + m, v * B + b] = sample_detuning(
                            m, prm.variability_pct, seed)
        dt_dw = dt * dw

    gens = [] if params.noise_amp == 0 else [
        (b, off, m, _substream(seed, _STREAM_NOISE)) for b, seed in enumerate(seeds)
        for off, m in zip(offsets, sizes)]

    h_col = _field_col(group)
    adj = sp.block_diag([p.adjacency for p in group], format="csr")
    K_eff = [params.effective_K(p) for p in group]
    Kdt = np.repeat(np.multiply(K_eff, dt), sizes).reshape(-1, 1)
    bind = _load_kernel() or (lambda *args: partial(_steps, *args))  # numpy, alike

    chunk = max(1, min(256, _MAX_NOISE_DOUBLES // max(1, n * B)))
    draws = np.empty((B, chunk * n)) if gens else None  # reused by every block
    noise = (draws, *_noise_rows(sizes, chunk), params.noise_amp * math.sqrt(dt)) \
        if gens else None
    # an energy trace samples (time, E, rounded H) at block ends: every
    # multiple of `every` steps (from 0 when trace_points > 1) and the end
    every = -(-total_steps // (trace_points - 1)) if trace_points > 1 else total_steps
    samples, bad = [], []  # bad: (step, variant, seed index, row) of each divergence

    def integrate(b0, b1):
        """Run seeds b0:b1 to the end or to a block end where any slice diverged."""
        phi, dw = (None if a is None else np.ascontiguousarray(  # every variant's columns
            a.reshape(n, V, B)[:, :, b0:b1]).reshape(n, -1) for a in (Phi, dt_dw))
        advance = bind(phi, adj, h_col, Kdt, dw, noise and (draws[b0:b1], *noise[1:]))
        done = 0
        while not (bad and done >= min(bad)[0]):
            if trace_points and (done == total_steps or trace_points > 1 and done % every == 0):
                E = _lyapunov_cols(group[0], phi, K_eff[0], float(params.ks_at(done * dt)))
                samples.append((done * dt, E, [hamiltonian(group[0], s)
                                               for s in round_phases(phi).T]))
            if done == total_steps:
                break
            L = min(chunk, total_steps - done, every - done % every)
            for b, off, m, gen in gens[b0 * len(group):b1 * len(group)]:
                gen.standard_normal(out=draws[b, chunk * off:chunk * off + L * m])
            # 2*Ks*dt per (step, column); a step with Ks = 0 everywhere skips it
            t = (done + np.arange(L)) * dt
            ks2dt = 2.0 * dt * np.array([np.asarray(v.ks_at(t), dtype=np.float64)
                                         for v in variants])
            advance(np.repeat(ks2dt.T, b1 - b0, axis=1), ks2dt.any(axis=0))
            done += L
            finite = np.isfinite(phi).reshape(n, V, -1)
            if not finite.all():  # the first diverged (variant, seed), then its first row
                v, b = np.unravel_index(np.argmin(finite.all(axis=0)), finite.shape[1:])
                bad.append((done, v, b0 + b, int(np.argmin(finite[:, v, b]))))
        Phi.reshape(n, V, B)[:, :, b0:b1] = phi.reshape(n, V, -1)

    # free-running slices, so a slow core delays only its own; the earliest
    # block, then the first column of Phi, names a divergence at any split
    threads = getattr(_budget, "threads", None) or _usable_cpus()
    T = 1 if trace_points else max(1, min(threads, B, n * V * B // _MIN_SLICE))
    cuts = [B * t // T for t in range(T + 1)]
    with ThreadPoolExecutor(T) as pool:  # starts no thread when T = 1
        list((pool.map if T > 1 else map)(integrate, cuts, cuts[1:]))
    if bad:
        step, _, b, row = min(bad)
        p = int(np.searchsorted(offsets, row, side="right")) - 1
        raise NumericalDivergenceError(
            "non-finite phases", step=step, seed=seeds[b],
            problem=p if group[p].name is None else group[p].name)
    return Phi, tuple(np.array(x) for x in zip(*samples)) if trace_points else None


def _runs(problem, params, seeds, total_weight, polish,
          initial_phases=None, trace_points=0):
    """Integrate a batch and build one RunResult per (variant, problem, seed).

    Rounds the final phases, applies polish, scores H and the cut, splits
    the integration's wall time evenly over the runs and attaches the
    energy trace, when there is one (a trace covers a single run).
    """
    group = _as_group(problem)
    variants = _as_variants(params)
    for seed in seeds:
        _integer(seed, "seed", 0)
    if isinstance(problem, IsingProblem):
        total_weight = (total_weight,)
    elif total_weight is None:
        total_weight = (None,) * len(group)
    B = len(seeds)
    t0 = time.perf_counter()
    Phi, trace = _integrate_batch(group, variants, seeds, initial_phases=initial_phases,
                                  trace_points=trace_points)
    spins_mat = round_phases(Phi)
    wall = (time.perf_counter() - t0) / (len(variants) * len(group) * B)
    energy_trace = None
    if trace is not None:
        times, E, Hs = trace
        energy_trace = EnergyTrace(times, E[:, 0], Hs[:, 0])
    out = []
    for v in range(len(variants)):
        row = 0
        for p, tw in zip(group, total_weight, strict=True):
            for b, seed in enumerate(seeds):
                spins = spins_mat[row:row + p.n, v * B + b]
                if polish:
                    spins, _ = greedy_descent(p, spins)
                H = hamiltonian(p, spins)
                cut = cut_from_hamiltonian(H, tw) if tw is not None else None
                out.append(RunResult(final_spins=spins, final_H=H, final_cut=cut,
                                     seed=seed, wall_time=wall,
                                     trajectory_energy=energy_trace))
            row += p.n
    return out


def simulate(problem, params=None, seed=0, *, total_weight=None,
             trace_points=0, initial_phases=None, polish=False):
    """Run one full simulation and threshold the final phases to spins.

    Phases start i.i.d. uniform on [0, 2*pi) (from the seed's init stream,
    unless `initial_phases` overrides them), detuning and noise come from
    the seed's other substreams, and the state advances until time reaches
    params.cycles. Deterministic given (problem, params, seed).

    total_weight, when given, also reports the MAX-CUT value of the final
    spins. trace_points, an integer >= 0, asks for an energy trace of
    (time, Lyapunov, rounded H) samples: at most trace_points of them, the
    last at the final step. With 2 or more points they are taken every s =
    ceil(total_steps / (trace_points - 1)) steps from t = 0, at the ends of
    noise blocks cut to that length, plus the final step when s does not
    divide total_steps; with 1 point, only the final step. polish=True
    applies single-flip greedy descent to the rounded spins (off by
    default: raw thresholded dynamics output).
    """
    if params is None:
        params = DynamicsParams()
    return _runs(problem, params, [seed], total_weight, polish,
                 initial_phases=initial_phases, trace_points=trace_points)[0]


def run_seeds(problem, params, seeds, *, total_weight=None, polish=False):
    """Simulate several seeds batched as one vectorized integration.

    `problem` is one IsingProblem or a group (sequence) of them, packed
    into one block-diagonal integration; for a group, total_weight is None
    or one entry (None or a weight) per problem. `params` is one
    DynamicsParams or a tuple of variants that agree on K, noise_amp,
    cycles, steps_per_cycle and normalize_by_degree; they share one
    integration and each seed's draws. Returns one RunResult per
    (variant, problem, seed): variant-major, then problem-major, then by
    seed. Results are identical to calling simulate() per variant, problem
    and seed; batching and packing only amortize per-step overhead, and
    each run's wall_time is an even share of the integration's. Used by
    the benchmark harness.
    """
    if len(seeds) == 0:
        return []
    return _runs(problem, params, list(seeds), total_weight, polish)
