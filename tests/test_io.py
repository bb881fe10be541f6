"""Tests for G-set parsing/writing, Ising JSON, and the catalog."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oimsim.io
from oimsim import (IsingProblem, ParseError, WeightedGraph, default_catalog,
                    load_catalog, parse_gset, read_ising_json, write_gset,
                    write_ising_json)
from oimsim.io import _decode
from oimsim.problems import _RowError


# --- the per-line G-set reader as it was before the one-pass read, verbatim
# (renamed), as the reference that parse_gset must agree with on every text

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


def reference_parse_gset(text, name=None):
    """Parse G-set/rudy text (str or bytes) into a WeightedGraph."""
    lines = _decode(text).splitlines()
    rows = [(k + 1, tokens) for k, ln in enumerate(lines) if (tokens := ln.split())]
    if not rows:
        raise ParseError("empty input", line=1, path=name)
    (header_line, _), body = rows[0], rows[1:]
    n, m = _int_rows(rows[:1], 2, name)[0].tolist()
    if n < 1:
        raise ParseError("vertex count must be positive", line=header_line, path=name)
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


def outcome(parse, text):
    """The graph a reader returns, or the message and line it raises."""
    try:
        return parse(text, name="g")
    except ParseError as e:
        return str(e), e.line


# one change each that makes a well-formed file ill-formed
def _mutate(rows, kind, k):
    n, m = rows[0]
    if len(rows) == 1:  # an edge line to change
        rows[0], rows[1:] = [n, m + 1], [[1, 2, 1]]
    k = 1 + k % (len(rows) - 1)
    u, v, w = rows[k]
    if kind == "drop_token":
        rows[k] = [u, v]
    elif kind == "extra_token":
        rows[k] = [u, v, w, 1]
    elif kind in ("3.0", "--3", "9223372036854775808", "-9223372036854775809", "x"):
        rows[k] = [u, v, kind]
    elif kind == "edge_count":
        rows[0] = [n, rows[0][1] + (1 if k % 2 else -1)]
    elif kind == "self_loop":
        rows[k] = [u, u, w]
    elif kind == "duplicate":
        rows.insert(k + 1, [v, u, 3])
        rows[0] = [n, rows[0][1] + 1]
    elif kind == "out_of_range":
        rows[k] = [u, (0, n + 1)[k % 2], w]
    elif kind == "zero_weight":
        rows[k] = [u, v, 0]
    elif kind == "vertex_count":
        rows[0] = [(0, -1)[k % 2], rows[0][1]]


MUTATIONS = ["drop_token", "extra_token", "3.0", "--3", "9223372036854775808",
             "-9223372036854775809", "x", "edge_count", "self_loop", "duplicate",
             "out_of_range", "zero_weight", "vertex_count"]


@st.composite
def gset_texts(draw):
    """G-set texts: plain ones (digits, signs, spaces, LFs) or ones with tabs,
    CRLFs, line-breaking separators and underscores; well-formed, or with
    one mutation from MUTATIONS."""
    n = draw(st.integers(1, 9))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
                  if pairs else st.just([]))
    weights = st.integers(-(2 ** 53) + 1, 2 ** 53 - 1).filter(bool)
    rows = [[n, len(chosen)]] + [[*(p if draw(st.booleans()) else p[::-1]), draw(weights)]
                                 for p in chosen]
    kind = draw(st.sampled_from([None] * len(MUTATIONS) + MUTATIONS))
    if kind:
        _mutate(rows, kind, draw(st.integers(0, 2 * len(rows))))
    plain = draw(st.booleans())
    pick = (lambda opts: draw(st.sampled_from(opts[:1] if plain else opts)))

    def token(x):
        if not isinstance(x, int):
            return x
        digits = "0" * draw(st.sampled_from([0, 0, 0, 1, 2])) + str(abs(x))
        if len(digits) > 1 and pick(["", "_"]):
            cut = draw(st.integers(1, len(digits) - 1))
            digits = digits[:cut] + "_" + digits[cut:]
        return ("-" if x < 0 else draw(st.sampled_from(["", "", "+"]))) + digits

    pads = ["", " ", "\t", "\x0b", "\x0c", "\x1c"]
    lines = []
    for row in rows:
        lines.extend(draw(st.lists(st.sampled_from(["", " ", "  "] if plain else pads),
                                   max_size=2)))
        sep = draw(st.sampled_from([" ", "  "] + ([] if plain else ["\t", " \t "])))
        lines.append(pick(pads) + sep.join(token(x) for x in row) + pick(pads))
    end = pick(["\n", "\r\n"])
    text = end.join(lines) + (end if draw(st.booleans()) else "")
    return text.encode() if draw(st.booleans()) else text


@pytest.mark.filterwarnings("error")  # neither reader warns, e.g. of a blank body
class TestReaderEquivalence:
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(gset_texts())
    def test_same_graph_or_same_error_as_the_per_line_reader(self, text):
        assert outcome(parse_gset, text) == outcome(reference_parse_gset, text)

    @pytest.mark.parametrize("text", [
        "3 2\n1 2 1\n2 3 -1\n",
        "  \n\n  3   2  \n\n 001 +2 1\n   \n2 3 -0001",
        "5 0\n", "5 0\n\n   \n", "3 1\n1 2 1\n\n\n",
    ])
    def test_plain_text_takes_one_read(self, text, monkeypatch):
        def per_line(*args):
            raise AssertionError("per-line reader used")
        monkeypatch.setattr(oimsim.io, "_int_rows", per_line)
        assert parse_gset(text) == reference_parse_gset(text)

    @pytest.mark.parametrize("text, line, message", [
        ("3 2\n1 2 1\n\n2 1 1\n", 4, "duplicate edge pair"),
        ("3 2\n1 2 1\n\n2 4 1\n", 4, "vertex index out of range 1..3"),
        ("3 2\n1 2 1\n2 3\n", 3, "expected 3 integers, got 2 tokens"),
        ("3 2\n1 2 1\n2 3 99999999999999999999\n", 3, "beyond-int64"),
        ("3 3\n1 2 1\n2 3 1\n", 1, "header declares 3 edges but file has 2"),
    ])
    def test_plain_text_that_fails_the_one_read(self, text, line, message):
        # the per-line reader names the line
        got = outcome(parse_gset, text)
        assert got == outcome(reference_parse_gset, text)
        assert got[1] == line and message in got[0]


class TestParseGset:
    def test_smallest(self):
        g = parse_gset("2 1\n1 2 1\n")
        assert g.n_vertices == 2
        assert g.edges == ((0, 1, 1),)

    def test_crlf_tabs_and_blank_lines(self):
        g = parse_gset(b"3 2\r\n1\t2\t 5\r\n\r\n2  3  -2\r\n\r\n")
        assert g.n_vertices == 3
        assert g.edges == ((0, 1, 5), (1, 2, -2))

    def test_index_out_of_range(self):
        with pytest.raises(ParseError) as ei:
            parse_gset("2 1\n1 3 1\n")
        assert ei.value.line == 2

    def test_self_loop(self):
        with pytest.raises(ParseError):
            parse_gset("2 1\n1 1 1\n")

    def test_duplicate_edge(self):
        with pytest.raises(ParseError):
            parse_gset("3 2\n1 2 1\n2 1 1\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_gset("3 2\n1 2 1\n")
        with pytest.raises(ParseError):
            parse_gset("3 1\n1 2 1\n2 3 1\n")

    def test_non_integer_token(self):
        with pytest.raises(ParseError):
            parse_gset("2 1\n1 2 x\n")

    def test_token_count(self):
        with pytest.raises(ParseError):
            parse_gset("2 1\n1 2\n")

    def test_vertex_count_beyond_int32(self):
        with pytest.raises(ParseError, match="at most 2\\*\\*31 - 1") as ei:
            parse_gset("\n3000000000 1\n1 2 1\n")
        assert ei.value.line == 2
        assert parse_gset("2147483647 1\n1 2147483647 1\n").edges == ((0, 2147483646, 1),)


class TestWriteGset:
    def test_canonical_small(self):
        g = WeightedGraph(2, [(0, 1, 1)])
        assert write_gset(g) == "2 1\n1 2 1\n"

    def test_empty_edges(self):
        g = WeightedGraph(3, [])
        assert write_gset(g) == "3 0\n"

    def test_round_trip_exact(self):
        rng = np.random.default_rng(0)
        n = 40
        edges = [(i, j, int(w) or 1)
                 for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.2
                 for w in [rng.integers(-5, 6)]]
        g = WeightedGraph(n, edges)
        text = write_gset(g)
        g2 = parse_gset(text)
        assert g2 == g
        assert write_gset(g2) == text  # second write is byte-identical


class TestIsingJson:
    def test_read_basic(self):
        p = read_ising_json('{"n": 2, "edges": [[0, 1, 1]], "h": [0, 0]}')
        assert p == IsingProblem(2, [(0, 1, 1.0)])

    def test_h_omitted_means_zero(self):
        p = read_ising_json('{"n": 2, "edges": [[0, 1, 1]]}')
        assert not p.has_fields

    def test_round_trip_canonical(self):
        tri = IsingProblem(3, [(0, 1, -1.0), (0, 2, -1.0), (1, 2, -1.0)],
                           name="triangle")
        text = write_ising_json(tri)
        again = read_ising_json(text)
        assert again == tri
        assert write_ising_json(again) == text

    def test_integers_stay_integers(self):
        p = IsingProblem(2, [(0, 1, 1.0)], fields=[2.0, 0.0])
        text = write_ising_json(p)
        assert '"edges": [[0, 1, 1]]' in text.replace(", ", ", ")
        assert "1.0" not in text

    def test_float_couplings_survive(self):
        p = read_ising_json('{"n": 2, "edges": [[0, 1, 1.5]]}')
        assert p.couplings == ((0, 1, 1.5),)

    def test_self_coupling_error(self):
        with pytest.raises(ParseError) as ei:
            read_ising_json('{"n": 2, "edges": [[0, 0, 1]]}')
        assert "edges[0]" in str(ei.value)

    def test_schema_errors_carry_path(self):
        with pytest.raises(ParseError) as ei:
            read_ising_json('{"edges": []}')
        assert "$.n" in str(ei.value)
        with pytest.raises(ParseError) as ei:
            read_ising_json('{"n": 2, "h": [0]}')
        assert "$.h" in str(ei.value)

    @pytest.mark.parametrize("h", ["[0, Infinity]", "[0, 1e400]", "[0, true]", "[0, \"1\"]",
                                   "[[0], [1]]", "[[0], [1, 2]]", "{}"])
    def test_bad_fields_fail_at_h(self, h):
        with pytest.raises(ParseError, match=r"\(at \$\.h\)"):
            read_ising_json(f'{{"n": 2, "h": {h}}}')

    def test_size_beyond_int32(self):
        with pytest.raises(ParseError, match=r"from 1 to 2\*\*31 - 1 \(at \$\.n\)"):
            read_ising_json('{"n": 3000000000, "edges": []}')

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError):
            read_ising_json('{"n": 2, "edges": [], "couplings": []}')


class TestCatalog:
    def test_load(self):
        cat = load_catalog("name,best_cut,source\nG1,11624,SS/OIM\nG11,564,SA/OIM\n")
        assert cat.best_cut("G1") == 11624
        assert cat.best_cut("G11") == 564
        assert cat.best_cut("G99") is None
        assert "G1" in cat and len(cat) == 2

    def test_shipped_catalog_table_values(self):
        cat = default_catalog()
        assert cat.best_cut("G1") == 11624
        assert cat.best_cut("G11") == 564
        assert cat.best_cut("G21") == 931
        assert cat.best_cut("G31") == 3309
        assert cat.best_cut("G41") == 2405
        assert cat.best_cut("G51") == 3846

    def test_header_required(self):
        with pytest.raises(ParseError):
            load_catalog("instance,cut\nG1,11624\n")

    def test_bad_cut_value(self):
        with pytest.raises(ParseError):
            load_catalog("name,best_cut,source\nG1,best,x\n")
        with pytest.raises(ParseError):
            load_catalog("name,best_cut,source\nG1,-3,x\n")

    def test_duplicate_name(self):
        with pytest.raises(ParseError):
            load_catalog("name,best_cut,source\nG1,1,x\nG1,2,y\n")
