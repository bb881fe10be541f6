"""Ising problems, weighted graphs, and their energy functions.

The Ising energy minimized throughout this package is

    H(s) = - sum_{i<j} J_ij s_i s_j - sum_i h_i s_i,    s_i in {-1, +1}.

MAX-CUT instances map onto this form with J = -w and h = 0; the cut value
is then recovered as (total_weight - H) / 2.

Edge lists are validated by _canonical_edges alone and stored once, as
sorted arrays: IsingProblem.couplings and WeightedGraph.edges are views.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DimensionError, SpecificationError

__all__ = [
    "IsingProblem",
    "WeightedGraph",
    "as_spins",
    "random_spins",
    "hamiltonian",
    "cut_value",
    "maxcut_to_ising",
    "cut_from_hamiltonian",
]


class _RowError(SpecificationError):
    """An edge list entry that _canonical_edges rejects: `row` is its
    position in the input, `kind` names the check it failed."""

    def __init__(self, kind, reason, row):
        super().__init__(f"{reason} (edge list row {row})")
        self.kind, self.reason, self.row = kind, reason, row


def _canonical_edges(n, edges, *, what="coupling", integer=False):
    """Validate and sort an (i, j, value) edge list; returns int/float arrays.

    Entries are normalized to i < j and sorted by (i, j). Self-loops,
    out-of-range indices, duplicate pairs, zero or non-finite values are
    rejected, and with integer=True also non-integer values and values of
    magnitude 2**53 or more (which float64 cannot hold exactly). A
    rejection is a _RowError naming the first row that fails the check;
    for a duplicate pair, the first row whose pair already appeared.
    """
    edges = edges if isinstance(edges, np.ndarray) else list(edges)
    if len(edges) == 0:
        return (np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int32),
                np.empty(0, dtype=np.float64))
    try:
        arr = np.asarray(edges, dtype=np.float64)
    except OverflowError:  # a Python int beyond float64
        big = float(np.finfo(np.float64).max)
        row = next(k for k, e in enumerate(edges) if max(map(abs, e)) > big)
        raise _RowError("value", f"{what} entry beyond float64", row) from None
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise SpecificationError(f"{what} list must be (i, j, value) triples")

    def reject(kind, reason, mask):
        if mask.any():
            raise _RowError(kind, reason, int(np.argmax(mask)))

    ii, jj, vv = arr.T
    lo = np.minimum(ii, jj)
    hi = np.maximum(ii, jj)
    reject("index", f"{what} indices must be integers",
           (ii != np.round(ii)) | (jj != np.round(jj)))
    reject("range", f"{what} index out of range [0, {n})", (lo < 0) | (hi >= n))
    reject("self", f"self-{what}", lo == hi)
    reject("value", f"non-finite {what} value", ~np.isfinite(vv))
    reject("value", f"zero {what} values are not stored; drop them", vv == 0)
    if integer:
        reject("value", f"{what} weights must be integers", vv != np.round(vv))
        reject("value", f"{what} weights must be below 2**53 in magnitude",
               np.abs(vv) >= 2.0 ** 53)
    key = lo.astype(np.int64) * n + hi.astype(np.int64)
    order = np.argsort(key, kind="stable")
    dup = np.zeros(len(key), dtype=bool)
    dup[order[1:]] = np.diff(key[order]) == 0
    reject("duplicate", f"duplicate {what} pair", dup)
    return (lo[order].astype(np.int32), hi[order].astype(np.int32), vv[order])


@dataclass(frozen=True, eq=False, init=False)
class IsingProblem:
    """A sparse Ising problem: couplings J_ij (i < j) and local fields h_i.

    Couplings are stored once, as a sorted edge list in three arrays; a
    symmetric CSR adjacency is built once at construction for the dynamics
    and solvers. Instances are immutable and safe to share across workers.
    """

    n: int
    name: str | None = None
    _ei: np.ndarray = field(default=None, repr=False)
    _ej: np.ndarray = field(default=None, repr=False)
    _jv: np.ndarray = field(default=None, repr=False)
    _h: np.ndarray = field(default=None, repr=False)
    _adj: object = field(default=None, repr=False)

    def __init__(self, n, couplings=(), fields=None, name=None):
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise SpecificationError("n must be a positive integer")
        ei, ej, jv = _canonical_edges(n, couplings)
        if fields is None:
            h = np.zeros(n)
        else:
            h = np.asarray(fields, dtype=np.float64).copy()
            if h.shape != (n,):
                raise DimensionError(f"fields must have length {n}")
            if not np.all(np.isfinite(h)):
                raise SpecificationError("non-finite field value")
        adj = sp.csr_matrix(
            (np.concatenate([jv, jv]),
             (np.concatenate([ei, ej]), np.concatenate([ej, ei]))),
            shape=(n, n),
        )
        adj.sort_indices()
        for a in (ei, ej, jv, h):
            a.setflags(write=False)
        for attr, value in (("n", n), ("name", name), ("_ei", ei),
                            ("_ej", ej), ("_jv", jv), ("_h", h), ("_adj", adj)):
            object.__setattr__(self, attr, value)

    # --- views -----------------------------------------------------------
    @property
    def couplings(self):
        """((i, j, J), ...) sorted by (i, j), built from edge_arrays."""
        return tuple(zip(self._ei.tolist(), self._ej.tolist(), self._jv.tolist()))

    @property
    def edge_arrays(self):
        """(i, j, J) as three read-only arrays, sorted by (i, j)."""
        return self._ei, self._ej, self._jv

    @property
    def h(self):
        """Local field vector (read-only, length n)."""
        return self._h

    @property
    def adjacency(self):
        """Symmetric sparse CSR coupling matrix (J_ij = J_ji)."""
        return self._adj

    @property
    def num_couplings(self):
        return len(self._jv)

    @property
    def has_fields(self):
        return bool(np.any(self._h != 0.0))

    def __eq__(self, other):
        if not isinstance(other, IsingProblem):
            return NotImplemented
        return (self.n == other.n
                and np.array_equal(self._ei, other._ei)
                and np.array_equal(self._ej, other._ej)
                and np.array_equal(self._jv, other._jv)
                and np.array_equal(self._h, other._h))


@dataclass(frozen=True, eq=False, init=False)
class WeightedGraph:
    """Undirected weighted graph with integer, nonzero edge weights of
    magnitude below 2**53 (exact in float64)."""

    n_vertices: int
    name: str | None = None
    _eu: np.ndarray = field(default=None, repr=False)
    _ev: np.ndarray = field(default=None, repr=False)
    _ew: np.ndarray = field(default=None, repr=False)

    def __init__(self, n_vertices, edges=(), name=None):
        if not isinstance(n_vertices, (int, np.integer)) or n_vertices < 1:
            raise SpecificationError("n_vertices must be a positive integer")
        eu, ev, ew = _canonical_edges(n_vertices, edges, what="edge", integer=True)
        ew = ew.astype(np.int64)
        ew.setflags(write=False)
        for attr, value in (("n_vertices", n_vertices), ("name", name),
                            ("_eu", eu), ("_ev", ev), ("_ew", ew)):
            object.__setattr__(self, attr, value)

    @property
    def edges(self):
        """((u, v, w), ...) sorted by (u, v), built from edge_arrays."""
        return tuple(zip(self._eu.tolist(), self._ev.tolist(), self._ew.tolist()))

    @property
    def edge_arrays(self):
        return self._eu, self._ev, self._ew

    @property
    def num_edges(self):
        return len(self._ew)

    @property
    def total_weight(self):
        return int(self._ew.sum())

    def __eq__(self, other):
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return (self.n_vertices == other.n_vertices
                and np.array_equal(self._eu, other._eu)
                and np.array_equal(self._ev, other._ev)
                and np.array_equal(self._ew, other._ew))


# --- spin configurations --------------------------------------------------

def as_spins(spins, n):
    """Validate a length-n vector of +/-1 entries; returns an int8 array."""
    s = np.asarray(spins)
    if s.shape != (n,):
        raise DimensionError(f"expected {n} spins, got shape {s.shape}")
    s = s.astype(np.int8, copy=False)
    if not np.all(np.abs(s) == 1):
        raise SpecificationError("spins must be -1 or +1")
    return s


def random_spins(n, rng):
    """Uniform random spin configuration from a numpy Generator."""
    return (rng.integers(0, 2, size=n, dtype=np.int8) * 2 - 1).astype(np.int8)


# --- energies -------------------------------------------------------------

def hamiltonian(problem, spins):
    """Ising energy H(s) = -sum_{i<j} J_ij s_i s_j - sum_i h_i s_i.

    Exact (integer-valued) whenever all J and h are integers.
    """
    s = as_spins(spins, problem.n)
    ei, ej, jv = problem.edge_arrays
    sf = s.astype(np.float64)
    pair = float(np.sum(jv * (sf[ei] * sf[ej])))
    return -pair - float(problem.h @ sf)


def cut_value(graph, spins):
    """Total weight of edges crossing the +/- partition encoded by spins."""
    s = as_spins(spins, graph.n_vertices)
    eu, ev, ew = graph.edge_arrays
    if len(ew) == 0:
        return 0
    crossed = s[eu] != s[ev]
    return int(ew[crossed].sum())


def maxcut_to_ising(graph):
    """Map a MAX-CUT instance to an Ising problem with J = -w, h = 0.

    For every spin configuration s,
        cut_value(graph, s) == (graph.total_weight - H(s)) / 2.
    """
    eu, ev, ew = graph.edge_arrays
    couplings = np.column_stack([eu, ev, -ew.astype(np.float64)]) if len(ew) else []
    return IsingProblem(graph.n_vertices, couplings, name=graph.name)


def cut_from_hamiltonian(H, total_weight):
    """Recover a cut value from the mapped problem's energy: (W - H) / 2."""
    return (total_weight - H) / 2
