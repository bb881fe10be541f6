"""Reference solvers: exact enumeration and simulated annealing.

brute_force ground-truths small instances; simulated_annealing baselines
large ones with single-flip Metropolis moves, geometric cooling, and O(degree)
incremental energy updates.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, SpecificationError, _finite, _integer
from .problems import hamiltonian

__all__ = ["BRUTE_FORCE_MAX_N", "MINIMIZER_CAP", "BruteForceResult",
           "brute_force", "SaParams", "simulated_annealing"]

BRUTE_FORCE_MAX_N = 24
MINIMIZER_CAP = 64
_CHUNK = 1 << 14


@dataclass(frozen=True)
class BruteForceResult:
    """Exact minimum and (capped) list of minimizing configurations."""

    min_H: float
    minimizers: tuple
    truncated: bool


def _spins_from_indices(idx, n):
    """Configurations in lexicographic order (-1 before +1, s_0 most significant)."""
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint32)
    bits = (idx[:, None] >> shifts) & 1
    return (bits.astype(np.int8) * 2 - 1)


def _energies(S, dense_J, h):
    Sf = S.astype(np.float64)
    pair = 0.5 * np.einsum("ij,ij->i", Sf @ dense_J, Sf)
    return -pair - Sf @ h


def brute_force(problem):
    """Exact global minimum of H by enumeration of all 2^n configurations.

    Guarded at n <= 24. When h == 0 only configurations with s_0 = -1 are
    enumerated and the rest recovered by global flip symmetry. Minimizers
    come back in lexicographic order, capped at 64 (truncated flag set when
    the cap was hit).
    """
    n = problem.n
    if n > BRUTE_FORCE_MAX_N:
        raise CapacityError(
            f"brute force enumerates 2^{n} states; refusing n > {BRUTE_FORCE_MAX_N}")
    dense_J = problem.adjacency.toarray()
    h = problem.h
    use_symmetry = not problem.has_fields

    total = 1 << (n - 1) if use_symmetry else 1 << n
    best = math.inf
    found = []  # lexicographic prefix of minimizers, up to cap + 1
    cap = MINIMIZER_CAP + 1
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.uint64)
        S = _spins_from_indices(idx, n)
        E = _energies(S, dense_J, h)
        chunk_min = E.min()
        if chunk_min < best:
            best = chunk_min
            found = []
        if chunk_min == best and len(found) < cap:
            rows = np.flatnonzero(E == best)[:cap - len(found)]
            found.extend(S[r].copy() for r in rows)

    if use_symmetry:
        # mirrors (s_0 = +1) follow all found entries in lex order; flipping
        # reverses lex order, so append them reversed
        mirrors = [-s for s in reversed(found)]
        found = found + mirrors
    truncated = len(found) > MINIMIZER_CAP
    minimizers = tuple(found[:MINIMIZER_CAP])
    return BruteForceResult(float(best), minimizers, truncated)


@dataclass(frozen=True)
class SaParams:
    """Simulated-annealing budget and schedule.

    T_initial=None sets the accept-almost-all start max_i(sum_j |J_ij| + |h_i|);
    moves_per_temp=None means one sweep (n moves) per temperature stage.
    The temperature decays geometrically from T_initial to T_final.
    """

    iterations: int
    T_initial: float | None = None
    T_final: float = 1e-3
    moves_per_temp: int | None = None
    seed: int = 0

    def __post_init__(self):
        _integer(self.iterations, "iterations", 1)
        _finite(self.T_final, "T_final", strict=True)
        if self.T_initial is not None and not (
                self.T_final <= self.T_initial <= sys.float_info.max):
            raise SpecificationError("T_initial must be finite and >= T_final")
        if self.moves_per_temp is not None:
            _integer(self.moves_per_temp, "moves_per_temp", 1)
        _integer(self.seed, "seed", 0)

    @classmethod
    def long_run(cls, flips=10_000_000, seed=0):
        """Generous-budget preset used as the 'long anneal' reference."""
        return cls(iterations=int(flips), seed=seed)


def _auto_t_initial(problem):
    adj = problem.adjacency
    row_abs = np.abs(adj).sum(axis=1)
    bound = np.asarray(row_abs).ravel() + np.abs(problem.h)
    return float(bound.max()) if len(bound) else 1.0


def simulated_annealing(problem, sa):
    """Single-flip Metropolis with geometric cooling.

    Returns (best_spins, best_H), the best configuration ever visited.
    Deterministic in sa.seed. Move proposals pick a uniformly random spin;
    each flip costs O(degree) via cached local fields.
    """
    n = problem.n
    rng = np.random.default_rng(sa.seed)
    s = (rng.integers(0, 2, size=n, dtype=np.int8) * 2 - 1).astype(np.float64)

    adj = problem.adjacency
    indptr, indices, data = adj.indptr, adj.indices, adj.data
    # local field f_i = sum_j J_ij s_j + h_i; flipping i changes H by 2 s_i f_i
    f = adj @ s + problem.h

    H = hamiltonian(problem, s.astype(np.int8))
    best_H = H
    best_s = s.copy()

    T0 = _auto_t_initial(problem) if sa.T_initial is None else float(sa.T_initial)
    T0 = max(T0, sa.T_final)
    moves_per_temp = n if sa.moves_per_temp is None else int(sa.moves_per_temp)
    stages = max(1, -(-sa.iterations // moves_per_temp))
    ratio = 1.0 if stages == 1 else (sa.T_final / T0) ** (1.0 / (stages - 1))

    exp = math.exp
    T = T0
    remaining = sa.iterations
    for _ in range(stages):
        moves = min(moves_per_temp, remaining)
        remaining -= moves
        sites = rng.integers(0, n, size=moves)
        us = rng.random(moves)
        for k in range(moves):
            i = sites[k]
            dH = 2.0 * s[i] * f[i]
            if dH <= 0.0 or us[k] < exp(-dH / T):
                si = -s[i]
                s[i] = si
                H += dH
                lo, hi = indptr[i], indptr[i + 1]
                f[indices[lo:hi]] += (2.0 * si) * data[lo:hi]
                if H < best_H:
                    best_H = H
                    best_s = s.copy()
        T *= ratio
    best_spins = best_s.astype(np.int8)
    # re-evaluate exactly: the incremental H can drift in ulps for float J
    return best_spins, hamiltonian(problem, best_spins)
