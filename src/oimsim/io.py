"""Problem file formats: G-set graphs, native Ising JSON, best-known catalog.

The G-set layout is the de-facto rudy format: a header line "n m" followed
by m lines "u v w" with 1-based endpoints. Indices are converted to 0-based
at this boundary and nowhere else. The canonical writer emits edges sorted
by (u, v) with single spaces and LF endings, so parse -> write -> parse is
exact and a second write is byte-identical.

A text of only ASCII digits, "+", "-", spaces and LFs (the writer's and the
published files) is read in one np.loadtxt pass; any other, or any that pass
rejects, line by line, so that reader alone names the bad line.

The readers check only tokens and JSON types: edge lists are validated by
problems._canonical_edges alone, and a row it rejects is reported at its
G-set line number or its JSON path $.edges[k].
"""

from __future__ import annotations

import csv
import io as _stdio
import json
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, SpecificationError, _reals
from .problems import _MAX_N, IsingProblem, WeightedGraph, _RowError

__all__ = [
    "parse_gset", "write_gset", "load_gset",
    "read_ising_json", "write_ising_json", "load_ising_json",
    "BestKnownCatalog", "load_catalog", "default_catalog",
]


def _decode(text):
    if isinstance(text, bytes):
        try:
            return text.decode("ascii")
        except UnicodeDecodeError as e:
            raise ParseError(f"input is not ASCII: {e}") from None
    return text


def _int_rows(rows, count, path):
    """(line number, tokens) rows as an int64 array of `count` columns, by
    int()'s rules; a ParseError names the first line that is not that."""
    try:
        return np.array([t for _, t in rows], dtype=np.int64).reshape(len(rows), count)
    except (ValueError, OverflowError):
        for lineno, tokens in rows:
            if len(tokens) != count:
                raise ParseError(f"expected {count} integers, got {len(tokens)} tokens",
                                 line=lineno, path=path) from None
            try:
                np.array(tokens, dtype=np.int64)
            except (ValueError, OverflowError):
                raise ParseError(f"non-integer or beyond-int64 token in {tokens!r}",
                                 line=lineno, path=path) from None
        raise


def parse_gset(text, name=None):
    """Parse G-set/rudy text (str or bytes) into a WeightedGraph."""
    text = _decode(text)
    # bytes that np.loadtxt and int() read alike: one C-level pass, and a text
    # it rejects is read again line by line, which names the line
    if text.isascii() and not text.encode().translate(None, b"0123456789+- \n"):
        head, _, body = text.lstrip(" \n").partition("\n")
        try:
            n, m = map(int, head.split())
            edges = (np.loadtxt(_stdio.StringIO(body), dtype=np.int64, ndmin=2, comments=None)
                     if body.strip() else np.empty((0, 3), dtype=np.int64))
            if edges.shape == (m, 3):
                edges[:, :2] -= 1
                return WeightedGraph(n, edges, name=name)
        except (ValueError, SpecificationError):
            pass
    lines = text.splitlines()
    rows = [(k + 1, tokens) for k, ln in enumerate(lines) if (tokens := ln.split())]
    if not rows:
        raise ParseError("empty input", line=1, path=name)
    (header_line, _), body = rows[0], rows[1:]
    n, m = _int_rows(rows[:1], 2, name)[0].tolist()
    if n < 1:
        raise ParseError("vertex count must be positive", line=header_line, path=name)
    if n > _MAX_N:
        raise ParseError("vertex count must be at most 2**31 - 1", line=header_line, path=name)
    if m < 0:
        raise ParseError("edge count must be nonnegative", line=header_line, path=name)
    if len(body) != m:
        raise ParseError(f"header declares {m} edges but file has {len(body)} edge lines",
                         line=header_line, path=name)
    edges = _int_rows(body, 3, name)
    edges[:, :2] -= 1
    try:
        return WeightedGraph(n, edges, name=name)
    except _RowError as e:
        reason = f"vertex index out of range 1..{n}" if e.kind == "range" else e.reason
        raise ParseError(reason, line=body[e.row][0], path=name) from None


def write_gset(graph):
    """Canonical G-set text for a graph (1-based, sorted, LF endings)."""
    eu, ev, ew = graph.edge_arrays
    out = [f"{graph.n_vertices} {graph.num_edges}\n"]
    out.extend(f"{u + 1} {v + 1} {w}\n" for u, v, w in zip(eu, ev, ew))
    return "".join(out)


def load_gset(path):
    with open(path, "rb") as fh:
        data = fh.read()
    name = str(path).rsplit("/", 1)[-1]
    return parse_gset(data, name=name)


# --- native Ising JSON ------------------------------------------------------

def read_ising_json(text):
    """Parse {"n", "edges", "h"?, "name"?} JSON into an IsingProblem."""
    try:
        obj = json.loads(_decode(text))
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", line=e.lineno) from None
    if not isinstance(obj, dict):
        raise ParseError("top-level JSON value must be an object (at $)")

    def fail(path, msg):
        raise ParseError(f"{msg} (at {path})")

    if "n" not in obj:
        fail("$.n", "missing required key")
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= _MAX_N:
        fail("$.n", "n must be an integer from 1 to 2**31 - 1")
    edges_raw = obj.get("edges", [])
    if not isinstance(edges_raw, list):
        fail("$.edges", "edges must be a list")
    for k, entry in enumerate(edges_raw):
        if (not isinstance(entry, list)) or len(entry) != 3:
            fail(f"$.edges[{k}]", "edge must be [i, j, J]")
        i, j, J = entry
        # bool is a subclass of int, and JSON true/false are no indices
        if type(i) is not int or type(j) is not int or type(J) not in (int, float):
            fail(f"$.edges[{k}]", "edge must be [int, int, number]")
    h = obj.get("h")
    if h is not None:
        try:
            h = _reals(h, "h") if isinstance(h, list) else None
        except SpecificationError:  # an entry that is no finite number
            h = None
        if h is None or h.shape != (n,):
            fail("$.h", f"h must be a list of {n} finite numbers")
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        fail("$.name", "name must be a string")
    unknown = set(obj) - {"n", "edges", "h", "name"}
    if unknown:
        fail(f"$.{sorted(unknown)[0]}", "unknown key")
    try:
        return IsingProblem(n, np.array(edges_raw), fields=h, name=name)
    except _RowError as e:
        fail(f"$.edges[{e.row}]", e.reason)
    except Exception as e:
        raise ParseError(str(e)) from None


def _num(x):
    xf = float(x)
    return int(xf) if xf == int(xf) else xf


def write_ising_json(problem):
    """Canonical JSON text; h is omitted when all-zero, integers stay integers."""
    ei, ej, jv = problem.edge_arrays
    obj = {"n": int(problem.n),
           "edges": [[int(i), int(j), _num(v)] for i, j, v in zip(ei, ej, jv)]}
    if problem.has_fields:
        obj["h"] = [_num(v) for v in problem.h]
    if problem.name is not None:
        obj["name"] = problem.name
    return json.dumps(obj, separators=(", ", ": ")) + "\n"


def load_ising_json(path):
    with open(path, "rb") as fh:
        return read_ising_json(fh.read())


# --- best-known catalog ------------------------------------------------------

@dataclass(frozen=True)
class BestKnownCatalog:
    """Instance name -> (best known cut, source) reference table."""

    entries: dict

    def best_cut(self, name):
        return self.entries[name][0] if name in self.entries else None

    def __contains__(self, name):
        return name in self.entries

    def __len__(self):
        return len(self.entries)


def load_catalog(text):
    """Parse 'name,best_cut,source' CSV into a BestKnownCatalog."""
    reader = csv.reader(_stdio.StringIO(_decode(text)))
    rows = [r for r in reader if r]
    if not rows or [c.strip() for c in rows[0]] != ["name", "best_cut", "source"]:
        raise ParseError("catalog header must be 'name,best_cut,source'", line=1)
    entries = {}
    for k, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise ParseError(f"expected 3 columns, got {len(row)}", line=k)
        name, cut_s, source = (c.strip() for c in row)
        try:
            cut = int(cut_s)
        except ValueError:
            raise ParseError(f"best_cut must be an integer, got {cut_s!r}", line=k) from None
        if cut <= 0:
            raise ParseError("best_cut must be positive", line=k)
        if name in entries:
            raise ParseError(f"duplicate instance name {name!r}", line=k)
        entries[name] = (cut, source)
    return BestKnownCatalog(entries)


def default_catalog():
    """The catalog shipped with the package (published benchmark values)."""
    from importlib import resources
    text = resources.files("oimsim").joinpath("data/gset_best_known.csv").read_text()
    return load_catalog(text)
