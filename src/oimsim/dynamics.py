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
in its order. It is compiled once per machine (cc -O3 -ffp-contract=off)
into $XDG_CACHE_HOME/oimsim or ~/.cache/oimsim (delete it to rebuild) and
loaded with ctypes only if a self-check finds numpy's bits on a probe.
Else the numpy loop integrates: silently without a compiler or writable
cache, with a RuntimeWarning after a failed self-check. drift(),
lyapunov() and step() always use numpy. Randomness is split
into independent substreams of the run seed,
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
import time
import warnings
from dataclasses import dataclass, field, replace
from functools import lru_cache
from importlib import resources
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import DimensionError, NumericalDivergenceError, SpecificationError
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
    d = -_coupling(Phi, *_kernel_args(problem, params, state.time, 1.0),
                   _workspace(Phi.shape))
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


def _wrap(Phi, lo=None, hi=None):
    """Phi mod 2*pi in place, bit for bit equal to np.mod(Phi, 2*pi).

    On [-2*pi, 4*pi) one subtraction or addition of 2*pi does it: x - 2*pi
    is exact for x in [2*pi, 4*pi), where np.mod's fmod is exact too, and
    for x in [-2*pi, 0) np.mod also rounds x + 2*pi once (so a tiny
    negative x becomes 2*pi in both). Both masks come from the unwrapped
    values, and adding +0.0 turns -0 into +0 as np.mod does. NaN, inf or
    values out of that range take np.mod itself. lo and hi are optional
    boolean work arrays of Phi's shape.
    """
    if not (Phi.min() >= -TWO_PI and Phi.max() < 2.0 * TWO_PI):
        np.mod(Phi, TWO_PI, out=Phi)
        return
    hi = np.greater_equal(Phi, TWO_PI, out=hi)
    lo = np.less(Phi, 0.0, out=lo)
    np.subtract(Phi, TWO_PI, out=Phi, where=hi)
    np.add(Phi, TWO_PI, out=Phi, where=lo)
    Phi += 0.0


def _workspace(shape):
    """Scratch arrays for _coupling and _advance: four float and two boolean."""
    return tuple(np.empty(shape) for _ in range(4)) + \
        tuple(np.empty(shape, dtype=bool) for _ in range(2))


def _coupling(Phi, adj, h_col, Kdt, ks2dt, work):
    """-dt times the drift without detuning, in work's third array.

    Kdt = K*dt is a scalar or one value per row (packed problems differ in
    K when it is normalized by degree); ks2dt = 2*Ks(t)*dt is None when the
    SYNC term is off for every column, else a scalar or one value per
    column. work is _workspace(Phi.shape) for an (n, C) phase matrix.
    """
    c, s, g, t = work[:4]
    np.cos(Phi, out=c)
    np.sin(Phi, out=s)
    np.multiply(s, adj @ c, out=g)
    np.multiply(c, adj @ s, out=t)
    g -= t
    if h_col is not None:
        np.multiply(h_col, s, out=t)
        g += t
    g *= Kdt
    if ks2dt is not None:
        np.multiply(s, c, out=t)
        t *= ks2dt
        g += t
    return g


def _advance(Phi, adj, h_col, Kdt, ks2dt, dt_dw, incr, work):
    """One Euler-Maruyama step, in place, on an (n, C) phase matrix.

    The deterministic part is _coupling's; dt_dw is the precomputed dt *
    detuning column(s); incr the pre-scaled noise increment, of shape
    (n, B) with C a multiple of B: every B-column variant block gets the
    same draws.
    """
    Phi -= _coupling(Phi, adj, h_col, Kdt, ks2dt, work)
    if dt_dw is not None:
        Phi += dt_dw
    if incr is not None:
        n, B = incr.shape
        blocks = Phi.reshape(n, -1, B)
        blocks += incr[:, None, :]
    _wrap(Phi, *work[4:])


def _steps(Phi, adj, h_col, Kdt, ks_cols, ks_on, dt_dw, noise, work):
    """_advance for each step k of a noise block: the numpy reference path."""
    for k in range(len(ks_on)):
        _advance(Phi, adj, h_col, Kdt, ks_cols[k] if ks_on[k] else None, dt_dw,
                 None if noise is None else noise[k], work)


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
    fn.argtypes, fn.restype = [ctypes.c_int64] * 4 + [ctypes.c_void_p] * 14, None

    def kernel(Phi, adj, h_col, Kdt, ks_cols, ks_on, dt_dw, noise, work):
        (n, C), L = Phi.shape, len(ks_on)
        B = C if noise is None else noise.shape[2]
        if Phi.dtype != np.float64 or not Phi.flags.c_contiguous or C % B:
            raise ValueError("the step kernel needs a C-ordered float64 matrix")
        cast = lambda a, shape, dtype=np.float64: None if a is None else (  # noqa: E731
            np.ascontiguousarray(np.broadcast_to(a, shape), dtype=dtype))
        arrays = [cast(adj.indptr, n + 1, np.int64), cast(adj.indices, adj.nnz, np.int64),
                  cast(adj.data, adj.nnz), cast(h_col, (n, 1)), cast(Kdt, (n, 1)),
                  cast(ks_cols, (L, C)), cast(ks_on, L, np.uint8), cast(dt_dw, (n, C)),
                  cast(noise, (L, n, B))] + [cast(w, (n, C)) for w in work[:4]]
        fn(n, C, B, L, Phi.ctypes.data, *(a if a is None else a.ctypes.data for a in arrays))

    rng = np.random.default_rng(0)
    args = (sp.csr_matrix(rng.normal(size=(9, 9)) * (rng.random((9, 9)) < 0.4)),
            rng.normal(size=(9, 1)), rng.uniform(0.0, 0.1, (9, 1)),
            rng.uniform(0.0, 0.1, (4, 6)) * (np.arange(6) > 0), np.arange(4) != 1,
            rng.normal(0.0, 0.1, (9, 6)), rng.normal(0.0, 10.0, (4, 9, 2)))
    ref = rng.uniform(-50.0, 50.0, (9, 6))
    out = ref.copy()
    _steps(ref, *args, _workspace(ref.shape))
    kernel(out, *args, _workspace(out.shape))
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
    _advance(Phi, *_kernel_args(problem, params, state.time, dt), dt_dw, incr,
             _workspace(Phi.shape))
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


def _integrate_batch(problem, params, seeds, initial_phases=None, trace_steps=None):
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
    variants share the batch.
    Returns (Phi, trace) with Phi of shape (sum of n, V*B); trace is None or
    (times, E, H) with E, H of shape (num_samples, B), and needs a group of
    one problem and one variant.
    """
    group = _as_group(problem)
    variants = _as_variants(params)
    params = variants[0]  # for the fields that every variant shares
    sizes = [p.n for p in group]
    offsets = np.cumsum([0] + sizes)
    blocks = [(slice(a, a + m), m) for a, m in zip(offsets, sizes)]
    n = int(offsets[-1])
    B = len(seeds)
    V = len(variants)
    dt = params.dt
    total_steps = params.total_steps
    if trace_steps is not None and (len(group) != 1 or V != 1):
        raise SpecificationError("an energy trace covers a single problem and variant")

    Phi = np.empty((n, V * B))
    first = Phi[:, :B]
    if initial_phases is None:
        for b, seed in enumerate(seeds):
            for rows, m in blocks:
                first[rows, b] = _substream(seed, _STREAM_INIT).random(m) * TWO_PI
    else:
        init = np.asarray(initial_phases, dtype=np.float64)
        if init.shape == (n,):
            first[:] = init[:, None]
        elif init.shape == (n, B):
            first[:] = init
        else:
            raise DimensionError(f"initial_phases must have shape ({n},) or ({n}, {B})")
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
                    for rows, m in blocks:
                        dw[rows, v * B + b] = sample_detuning(
                            m, prm.variability_pct, seed)
        dt_dw = dt * dw

    noise_gens = []
    scale = params.noise_amp * math.sqrt(dt)
    if params.noise_amp > 0:
        noise_gens = [(rows, m, b, _substream(seed, _STREAM_NOISE))
                      for b, seed in enumerate(seeds)
                      for rows, m in blocks]

    h_col = _field_col(group)
    adj = sp.block_diag([p.adjacency for p in group], format="csr")
    K_eff = [params.effective_K(p) for p in group]
    Kdt = np.repeat(np.multiply(K_eff, dt), sizes).reshape(-1, 1)
    work = _workspace(Phi.shape)
    steps = _load_kernel() or _steps

    # energy trace: (time, E, rounded H) at each step in trace_steps
    wanted = set() if trace_steps is None else set(np.asarray(trace_steps).tolist())
    samples = []

    def record(k):
        if k in wanted:
            E = _lyapunov_cols(group[0], Phi, K_eff[0], float(params.ks_at(k * dt)))
            samples.append((k * dt, E, [hamiltonian(group[0], s) for s in round_phases(Phi).T]))

    record(0)

    chunk = max(1, min(256, _MAX_NOISE_DOUBLES // max(1, n * B)))
    done = 0
    while done < total_steps:
        L = min(chunk, total_steps - done)
        buf = None
        if noise_gens:
            buf = np.empty((L, n, B))
            for rows, m, b, gen in noise_gens:
                buf[:, rows, b] = gen.standard_normal((L, m))
            buf *= scale
        # 2*Ks*dt per (step, column); a step with Ks = 0 everywhere skips it
        t = (done + np.arange(L)) * dt
        ks2dt = 2.0 * dt * np.array([np.asarray(v.ks_at(t), dtype=np.float64)
                                     for v in variants])
        ks_on = ks2dt.any(axis=0)
        ks_cols = np.repeat(ks2dt.T, B, axis=1)
        # one call per block, split at the trace's sample steps
        a = 0
        for b in sorted({k - done for k in wanted if done < k < done + L}) + [L]:
            steps(Phi, adj, h_col, Kdt, ks_cols[a:b], ks_on[a:b], dt_dw,
                  None if buf is None else buf[a:b], work)
            record(done + b)
            a = b
        done += L
        if not np.all(np.isfinite(Phi)):
            finite = np.isfinite(Phi)
            col = int(np.argmin(finite.all(axis=0)))
            p = int(np.searchsorted(offsets, np.argmin(finite[:, col]), side="right")) - 1
            raise NumericalDivergenceError(
                "non-finite phases", step=done, seed=seeds[col % B],
                problem=p if group[p].name is None else group[p].name)

    if trace_steps is None:
        return Phi, None
    return Phi, tuple(np.array(x) for x in zip(*samples))


def _trace_indices(total_steps, max_points):
    count = min(int(max_points), total_steps + 1)
    return np.unique(np.round(np.linspace(0, total_steps, count)).astype(np.int64))


def _runs(problem, params, seeds, total_weight, polish,
          initial_phases=None, trace_steps=None):
    """Integrate a batch and build one RunResult per (variant, problem, seed).

    Rounds the final phases, applies polish, scores H and the cut, splits
    the integration's wall time evenly over the runs and attaches the
    energy trace, when there is one (a trace covers a single run).
    """
    group = _as_group(problem)
    variants = _as_variants(params)
    if isinstance(problem, IsingProblem):
        total_weight = (total_weight,)
    elif total_weight is None:
        total_weight = (None,) * len(group)
    B = len(seeds)
    t0 = time.perf_counter()
    Phi, trace = _integrate_batch(group, variants, seeds, initial_phases=initial_phases,
                                  trace_steps=trace_steps)
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
    spins. trace_points > 0 samples (time, Lyapunov, rounded H) at at most
    that many uniformly spaced steps. polish=True applies single-flip
    greedy descent to the rounded spins (off by default: raw thresholded
    dynamics output).
    """
    if params is None:
        params = DynamicsParams()
    trace_steps = _trace_indices(params.total_steps, trace_points) if trace_points else None
    return _runs(problem, params, [seed], total_weight, polish,
                 initial_phases=initial_phases, trace_steps=trace_steps)[0]


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
