"""Ising problems, weighted graphs, and their energy functions.

The Ising energy minimized throughout this package is

    H(s) = - sum_{i<j} J_ij s_i s_j - sum_i h_i s_i,    s_i in {-1, +1}.

MAX-CUT instances map onto this form with J = -w and h = 0; the cut value
is then recovered as (total_weight - H) / 2.

Edge lists are validated by _canonical_edges alone and stored once, as sorted
arrays (couplings and edges are views). Edges and fields must hold finite real
numbers, spins -1 or +1, else SpecificationError; a wrong length, DimensionError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DimensionError, SpecificationError, _reals

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


_MAX_N = 2**31 - 1  # indices are int32


class _RowError(SpecificationError):
    """An edge list entry that _canonical_edges rejects: `row` is its
    position in the input, `kind` names the check it failed."""

    def __init__(self, kind, reason, row):
        super().__init__(f"{reason} (edge list row {row})")
        self.kind, self.reason, self.row = kind, reason, row


def _size(n):
    """SpecificationError unless n is an integer (not a bool) from 1 to _MAX_N."""
    if not (isinstance(n, (int, np.integer)) and not isinstance(n, bool) and 1 <= n <= _MAX_N):
        raise SpecificationError("n must be an integer from 1 to 2**31 - 1")


def _canonical_edges(n, edges, *, what="coupling", integer=False):
    """Validate and sort an (i, j, value) edge list on n nodes, 1 <= n <=
    _MAX_N; returns int32/float64 arrays.

    Entries are normalized to i < j and sorted by (i, j). Entries that are
    not finite real numbers (errors._reals), self-loops, out-of-range
    indices, duplicate pairs and zero values are rejected, and with
    integer=True also non-integer values and values of magnitude 2**53 or
    more (which float64 cannot hold exactly). A rejection is a _RowError
    naming the first row that fails the check; for a duplicate pair, the
    first row whose pair already appeared.
    """
    _size(n)
    try:
        arr = _reals(edges, f"{what} list")
    except SpecificationError as e:
        if e.index is None or np.shape(edges)[1:] != (3,):  # ragged, or rows of another length
            raise SpecificationError(f"{what} list must be (i, j, value) triples") from None
        raise _RowError("value", str(e), e.index // 3) from None
    if len(arr) and (arr.ndim != 2 or arr.shape[1] != 3):  # an empty list is no edges
        raise SpecificationError(f"{what} list must be (i, j, value) triples")

    def reject(kind, reason, mask):
        if mask.any():
            raise _RowError(kind, reason, int(np.argmax(mask)))

    ii, jj, vv = arr.reshape(-1, 3).T
    lo = np.minimum(ii, jj)
    hi = np.maximum(ii, jj)
    reject("index", f"{what} indices must be integers",
           (ii != np.round(ii)) | (jj != np.round(jj)))
    reject("range", f"{what} index out of range [0, {n})", (lo < 0) | (hi >= n))
    reject("self", f"self-{what}", lo == hi)
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


def _check_name(name):
    if not (name is None or isinstance(name, str)):
        raise SpecificationError(f"name must be a string or None, not {type(name).__name__}")
    return name


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
        ei, ej, jv = _canonical_edges(n, couplings)
        h = np.zeros(n) if fields is None else _reals(fields, "fields")
        if h.shape != (n,):
            raise DimensionError(f"fields must have length {n}")
        self._store(n, _check_name(name), ei, ej, jv, h)

    def _store(self, n, name, ei, ej, jv, h):
        """Store checked, sorted edges and fields. CSR row r holds pairs (i, r),
        then (r, j), each by column: the order a sort by (row, position) gives."""
        rows = np.concatenate([ej, ei])  # positions fit in 32 bits below 2**31 edges
        order = np.sort((rows.astype(np.int64) << 32) + np.arange(len(rows))) & 0xFFFFFFFF
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
        adj = sp.csr_matrix((np.concatenate([jv, jv])[order],
                             np.concatenate([ei, ej])[order], indptr), shape=(n, n))
        for a in (ei, ej, jv, h):
            a.setflags(write=False)
        for attr, value in (("n", n), ("name", name), ("_ei", ei),
                            ("_ej", ej), ("_jv", jv), ("_h", h), ("_adj", adj)):
            object.__setattr__(self, attr, value)
        return self

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
        eu, ev, ew = _canonical_edges(n_vertices, edges, what="edge", integer=True)
        ew = ew.astype(np.int64)
        for a in (eu, ev, ew):  # maxcut_to_ising shares eu and ev
            a.setflags(write=False)
        for attr, value in (("n_vertices", n_vertices), ("name", _check_name(name)),
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
    """Validate a length-n vector of +/-1 integers or floats; returns an int8 array."""
    s = spins if isinstance(spins, np.ndarray) else _reals(spins, "spins")
    if s.shape != (n,):
        raise DimensionError(f"expected {n} spins, got shape {s.shape}")
    if s.dtype.kind not in "iuf" or not np.all(np.abs(s) == 1):
        raise SpecificationError("spins must be -1 or +1")
    return s.astype(np.int8, copy=False)


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
    crossed = s[eu] != s[ev]
    return int(ew[crossed].sum())


def maxcut_to_ising(graph):
    """Map a MAX-CUT instance to an Ising problem with J = -w, h = 0.

    For every spin configuration s,
        cut_value(graph, s) == (graph.total_weight - H(s)) / 2.
    """
    eu, ev, ew = graph.edge_arrays  # checked and sorted already
    return object.__new__(IsingProblem)._store(graph.n_vertices, graph.name, eu, ev,
                                               -ew.astype(np.float64), np.zeros(graph.n_vertices))


def cut_from_hamiltonian(H, total_weight):
    """Recover a cut value from the mapped problem's energy: (W - H) / 2."""
    return (total_weight - H) / 2
