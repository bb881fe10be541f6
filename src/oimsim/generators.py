"""Random Ising instance generators over fixed coupling topologies.

Three topologies are supported:

* ``Complete()`` -- every pair drawn uniformly from {0, -1, +1}; zero draws
  store no coupling.
* ``Torus(rows, cols)`` -- 2D toroidal grid (4 neighbors per cell), each grid
  edge drawn from {-1, +1}. With ``diagonals=True`` two wrap-around diagonal
  neighbors per cell are added (degree 6), approximating the 192-coupling
  8x8 hardware grid; which two diagonals that hardware used is not public,
  so this flag is a documented approximation.
* ``FixedEdges(edges)`` -- each listed edge drawn from {-1, +1}.

Generation is a deterministic function of (n, topology, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SpecificationError, _integer
from .problems import IsingProblem

__all__ = ["Complete", "Torus", "FixedEdges", "random_ising"]

_GENERATOR_STREAM = 3  # RNG stream id, see dynamics module for the others


@dataclass(frozen=True)
class Complete:
    pass


@dataclass(frozen=True)
class Torus:
    rows: int
    cols: int
    diagonals: bool = False


@dataclass(frozen=True)
class FixedEdges:
    edges: tuple

    def __init__(self, edges):
        object.__setattr__(self, "edges", tuple((int(u), int(v)) for u, v in edges))


def _generator(seed):
    ss = np.random.SeedSequence((_integer(seed, "seed", 0), _GENERATOR_STREAM))
    return np.random.Generator(np.random.PCG64(ss))


def _torus_edges(rows, cols, diagonals):
    if rows < 3 or cols < 3:
        raise SpecificationError("torus needs rows >= 3 and cols >= 3 "
                                 "(smaller grids create duplicate wrap edges)")
    idx = np.arange(rows * cols).reshape(rows, cols)
    right = np.roll(idx, -1, axis=1)
    down = np.roll(idx, -1, axis=0)
    pairs = [np.column_stack([idx.ravel(), right.ravel()]),
             np.column_stack([idx.ravel(), down.ravel()])]
    if diagonals:
        # one generated edge per cell: each vertex gains the (+1,+1) and
        # (-1,-1) wrap neighbors, degree 4 -> 6 (3n couplings total)
        down_right = np.roll(down, -1, axis=1)
        pairs.append(np.column_stack([idx.ravel(), down_right.ravel()]))
    uv = np.concatenate(pairs, axis=0)
    lo = np.minimum(uv[:, 0], uv[:, 1])
    hi = np.maximum(uv[:, 0], uv[:, 1])
    key = np.unique(lo * (rows * cols) + hi)
    return key // (rows * cols), key % (rows * cols)


def random_ising(n, topology, seed):
    """Draw a random Ising problem on the given topology.

    Deterministic in (n, topology, seed). Fields h are always zero.
    """
    rng = _generator(seed)
    if isinstance(topology, Complete):
        iu, ju = np.triu_indices(n, k=1)
        vals = rng.integers(-1, 2, size=len(iu)).astype(np.float64)
        keep = vals != 0
        couplings = np.column_stack([iu[keep], ju[keep], vals[keep]])
        name = f"complete-{n}-seed{seed}"
    elif isinstance(topology, Torus):
        if topology.rows * topology.cols != n:
            raise SpecificationError(
                f"torus {topology.rows}x{topology.cols} has "
                f"{topology.rows * topology.cols} cells, but n={n}")
        eu, ev = _torus_edges(topology.rows, topology.cols, topology.diagonals)
        vals = (rng.integers(0, 2, size=len(eu)) * 2 - 1).astype(np.float64)
        couplings = np.column_stack([eu, ev, vals])
        tag = "d" if topology.diagonals else ""
        name = f"torus{tag}-{topology.rows}x{topology.cols}-seed{seed}"
    elif isinstance(topology, FixedEdges):
        edges = topology.edges
        vals = (rng.integers(0, 2, size=len(edges)) * 2 - 1).astype(np.float64)
        couplings = [(u, v, w) for (u, v), w in zip(edges, vals)]
        name = f"edges-{n}-seed{seed}"
    else:
        raise SpecificationError(f"unknown topology {topology!r}")
    return IsingProblem(n, couplings, name=name)
