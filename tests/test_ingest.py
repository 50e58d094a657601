"""Array-native ingest against the per-row and per-edge loops it replaced.

The references below are the loops graphal used before its graph became
three edge arrays: the line-by-line edge-list and label parsers, the
per-edge ``Graph`` validation, the per-edge Laplacian and the depth-first
``positive_components``.  The array code must give identical arrays and
matrices, name the same first bad line with the same message, and name
the same unanchored component.
"""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphal import graph_core
from graphal.errors import DegeneracyError, InputError, ParseError, UnanchoredComponentError
from graphal.graph_core import (
    Graph,
    build_laplacian,
    dense_laplacian,
    init_label_state,
    positive_components,
    read_edge_list,
)
from graphal.harness import load_dataset

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


# --- references ---------------------------------------------------------------


def reference_read_edge_list(path, n=None):
    """The line-by-line parser: ``(n, edges)`` with 0-based canonical edges."""
    path = str(path)
    edges, seen, max_id = [], set(), 0
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise ParseError(path, line_no, f"expected 'i j [w]', got {line!r}")
            try:
                i, j = int(parts[0]), int(parts[1])
                w = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError:
                raise ParseError(path, line_no, f"malformed numbers in {line!r}") from None
            if i < 1 or j < 1:
                raise ParseError(path, line_no, "node ids are 1-based and positive")
            if i == j:
                raise ParseError(path, line_no, f"self-loop on node {i}")
            if w < 0 or not np.isfinite(w):
                raise ParseError(path, line_no, f"invalid weight {w}")
            a, b = (i - 1, j - 1) if i < j else (j - 1, i - 1)
            if (a, b) in seen:
                raise ParseError(path, line_no, f"duplicate edge {i} {j}")
            seen.add((a, b))
            edges.append((a, b, w))
            max_id = max(max_id, i, j)
    if n is not None and n < 1:
        raise InputError(f"graph needs at least one node, got n={n}")
    if n is None:
        n = max_id
    if max_id > n:
        raise InputError(f"edge references node {max_id} but n={n}")
    if n < 1:
        raise InputError("edge list is empty and no n given")
    return n, tuple(edges)


def reference_read_labels(label_path, n):
    """The line-by-line label parser: one class per node, -1 where none."""
    label_path = str(label_path)
    classes = np.full(n, -1, dtype=int)
    last_line = 0
    with open(label_path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            last_line = line_no
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(label_path, line_no, f"expected 'node_id class_id', got {line!r}")
            try:
                node, cls = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(label_path, line_no, f"malformed numbers in {line!r}") from None
            if not 1 <= node <= n:
                raise ParseError(label_path, line_no, f"unknown node id {node} (graph has {n})")
            if cls < 0:
                raise ParseError(label_path, line_no, f"negative class id {cls}")
            if classes[node - 1] != -1:
                raise ParseError(label_path, line_no, f"node {node} labeled twice")
            classes[node - 1] = cls
    missing = np.flatnonzero(classes == -1)
    if missing.size:
        raise ParseError(label_path, last_line, f"node {missing[0] + 1} has no label")
    return classes


def reference_check_edges(n, edges):
    """The per-edge ``Graph`` validation loop."""
    if n < 1:
        raise InputError(f"graph needs at least one node, got n={n}")
    seen = set()
    for i, j, w in edges:
        if i == j:
            raise InputError(f"self-loop on node {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise InputError(f"edge ({i}, {j}) outside node range 0..{n - 1}")
        if i > j:
            raise InputError(f"edge ({i}, {j}) not canonical (need i < j)")
        if not np.isfinite(w) or w < 0:
            raise InputError(f"edge ({i}, {j}) has invalid weight {w}")
        if (i, j) in seen:
            raise InputError(f"duplicate edge ({i}, {j})")
        seen.add((i, j))


def reference_laplacian(graph, beta=1.0, ridge=0.0):
    """``beta * L + ridge * I`` one edge at a time."""
    m = np.zeros((graph.n, graph.n))
    for i, j, w in graph.edges:
        m[i, i] += w
        m[j, j] += w
        m[i, j] -= w
        m[j, i] -= w
    m *= beta
    if ridge:
        m[np.diag_indices(graph.n)] += ridge
    return m


def reference_components(matrix):
    """Depth-first search over the negative off-diagonal entries."""
    n = matrix.shape[0]
    seen = np.zeros(n, dtype=bool)
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in np.flatnonzero(matrix[v] < 0):
                if not seen[w]:
                    seen[w] = True
                    stack.append(int(w))
        comps.append(tuple(sorted(comp)))
    return comps


def outcome(fn, *args):
    """A call's result, or the type, text and line of the graphal error it raised."""
    try:
        return "ok", fn(*args)
    except (ParseError, InputError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line_no", None)


# --- generated edge and label files ---------------------------------------------

# Separators: str.split() splits on all of these; text-mode iteration ends a
# line only at \n, \r\n and \r (str.splitlines() would also end one at \f,
# \x1c and \u2028).
SEPARATORS = st.sampled_from([" ", "  ", "\t", "\f", "\x1c", "\u2028", " \x0b "])
ENDINGS = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])
# Python's int() takes "+3", "07", "1_0" and a full-width 7 too
GOOD_IDS = st.sampled_from([str(v) for v in range(1, 11)] + ["+3", "07", "1_0", "\uff17"])
BAD_IDS = st.sampled_from(["0", "-1", "x", "1.5", "", "1e3"])
GOOD_WEIGHTS = st.sampled_from(["1", "0.5", "2e-3", "0", "-0", "3", "1E2", "7.25", "1e-300"])
BAD_WEIGHTS = st.sampled_from(["-1", "inf", "-inf", "nan", "1e999", "w", "-1e-9"])
TAILS = st.sampled_from(["", "", " ", "\t", " \f", " # a '#' after a row is no comment"])


@st.composite
def noise_line(draw, good, bad, widths):
    """A comment, a blank line, a row with a bad token, a row of another
    width, or a row of good tokens (which may repeat a pair)."""
    kind = draw(st.sampled_from(["row", "bad", "comment", "blank", "width"]))
    lead = draw(st.sampled_from(["", " ", "\t", "\f"]))
    if kind == "comment":
        return lead + "#" + draw(st.sampled_from(["", " note", "1 2 3", "#"]))
    if kind == "blank":
        return lead + draw(st.sampled_from(["", " ", "\f", "\t "]))
    width = draw(st.sampled_from(widths if kind != "width" else [1, max(widths) + 1]))
    tokens = [draw(good(k)) for k in range(width)]
    if kind == "bad":
        k = draw(st.integers(0, width - 1))
        tokens[k] = draw(bad(k))
    return lead + draw(SEPARATORS).join(tokens) + draw(TAILS)


@st.composite
def table_file(draw, rows, good, bad, widths):
    """Good ``rows`` with up to three noise lines among them, and line endings."""
    lines = [draw(SEPARATORS).join(r) for r in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(noise_line(good, bad, widths)))
    endings = draw(st.lists(ENDINGS, min_size=len(lines), max_size=len(lines)))
    if lines and draw(st.booleans()):
        endings[-1] = ""  # no line break after the last line
    return lines, endings


def write_lines(path, lines, endings):
    text = "".join(line + end for line, end in zip(lines, endings))
    path.write_bytes(text.encode("utf-8"))


@st.composite
def edge_files(draw):
    node = st.integers(1, 10)
    pairs = draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]), max_size=12,
                          unique_by=lambda e: frozenset(e)))
    rows = [[str(i), str(j)] + ([draw(GOOD_WEIGHTS)] if draw(st.booleans()) else []) for i, j in pairs]
    if rows and draw(st.booleans()):  # a reversed duplicate
        i, j, *w = draw(st.sampled_from(rows))
        rows.insert(draw(st.integers(0, len(rows))), [j, i, *w])
    good = lambda k: GOOD_WEIGHTS if k == 2 else GOOD_IDS  # noqa: E731
    bad = lambda k: BAD_WEIGHTS if k == 2 else BAD_IDS  # noqa: E731
    lines, endings = draw(table_file(rows, good, bad, [2, 3]))
    return lines, endings, draw(st.one_of(st.none(), st.integers(0, 12)))


@given(edge_files(), st.sampled_from([graph_core._CHUNK_CHARS, 1, 40]))
@PROPERTY
def test_reader_matches_line_by_line_parser(tmp_path_factory, case, chunk):
    lines, endings, n = case
    path = tmp_path_factory.mktemp("edges") / "g.edges"
    write_lines(path, lines, endings)
    expected = outcome(reference_read_edge_list, path, n)
    with mock.patch.object(graph_core, "_CHUNK_CHARS", chunk):
        got = outcome(read_edge_list, path, n)
    if expected[0] != "ok":
        assert got == expected
        return
    assert got[0] == "ok", got
    graph = got[1]
    ref_n, ref_edges = expected[1]
    assert graph.n == ref_n
    assert graph.edges == ref_edges
    assert graph.src.dtype == graph.dst.dtype == np.int64 and graph.weight.dtype == np.float64


@st.composite
def label_files(draw):
    nodes = draw(st.permutations(range(1, 7)))
    rows = [[str(v), str(draw(st.integers(0, 2)))] for v in nodes[: draw(st.sampled_from([0, 5, 6, 6]))]]
    good = lambda k: st.sampled_from(["1", "2", "6", "0", "1", "3"])  # noqa: E731
    bad = lambda k: st.sampled_from(["0", "7", "x", "2.0", ""] if k == 0 else ["-1", "x", "2.0"])  # noqa: E731
    return draw(table_file(rows, good, bad, [2]))


@given(label_files(), st.sampled_from([graph_core._CHUNK_CHARS, 1, 10]))
@PROPERTY
def test_label_reader_matches_line_by_line_parser(tmp_path_factory, case, chunk):
    lines, endings = case
    where = tmp_path_factory.mktemp("labels")
    edges, labels = where / "g.edges", where / "g.labels"
    edges.write_text("1 2\n2 3\n3 4\n4 5\n5 6\n")
    write_lines(labels, lines, endings)
    expected = outcome(reference_read_labels, labels, 6)
    with mock.patch.object(graph_core, "_CHUNK_CHARS", chunk):
        got = outcome(load_dataset, edges, labels)
    if expected[0] != "ok":
        assert got == expected
    elif got[0] == "ok":
        assert np.array_equal(got[1].labels, expected[1])
    else:  # the reference stops before the class-count checks
        assert "not contiguous" in got[1] or "at least 2 classes" in got[1]


def test_reader_names_the_first_bad_line_across_chunks(tmp_path):
    # 30,000 rows span several 64 KiB chunks; each fault sits in a later one
    rows = [f"{v} {v + 1} 0.5" for v in range(1, 30_001)]
    p = tmp_path / "big.edges"
    for at, line, message in [
        (20_000, "9 8 1.0", "duplicate edge 9 8"),
        (25_000, "3 3", "self-loop on node 3"),
        (28_000, "12 x", "malformed numbers in '12 x'"),
    ]:
        p.write_text("# big\n" + "\n".join(rows[:at] + [line] + rows[at:]) + "\n")
        with pytest.raises(ParseError) as info:
            read_edge_list(p)
        assert str(info.value) == f"{p}:{at + 2}: {message}"
        assert info.value.line_no == at + 2
    p.write_text("\n".join(rows) + "\n")
    graph = read_edge_list(p)
    assert graph.n == 30_001
    assert np.array_equal(graph.src, np.arange(30_000))
    assert np.array_equal(graph.weight, np.full(30_000, 0.5))


def test_line_numbers_follow_text_mode_iteration(tmp_path):
    # \f, \x1c and \u2028 separate tokens but do not end a line
    p = tmp_path / "g.edges"
    p.write_bytes("1\f2\n2\x1c3\r\n3\u20284 2.0\r4 4\n".encode("utf-8"))
    with pytest.raises(ParseError) as info:
        read_edge_list(p)
    assert info.value.line_no == 4
    assert "self-loop on node 4" in str(info.value)


def test_node_ids_beyond_int64_are_named(tmp_path):
    p = tmp_path / "huge.edges"
    p.write_text("1 2\n2 99999999999999999999\n")
    for n in (None, 5):
        with pytest.raises(ParseError) as info:
            read_edge_list(p, n)
        assert str(info.value) == f"{p}:2: node id 99999999999999999999 too large"


# --- graph validation, Laplacian and components --------------------------------


@st.composite
def edge_arrays(draw):
    n = draw(st.integers(0, 7))
    node = st.integers(-1, 8)
    weight = st.sampled_from([0.0, 0.5, 1.0, 2.0, -1.0, math.inf, math.nan, 1e-300])
    edges = draw(st.lists(st.tuples(node, node, weight), max_size=12))
    return n, edges


@given(edge_arrays())
@PROPERTY
def test_graph_validation_matches_per_edge_loop(case):
    n, edges = case
    expected = outcome(reference_check_edges, n, edges)
    cols = [np.array([e[k] for e in edges], dtype=t) for k, t in enumerate((np.int64, np.int64, float))]
    got = outcome(Graph, n, *cols)
    if expected[0] == "ok":
        assert got[0] == "ok", got
        assert got[1].edges == tuple(edges)
    else:
        assert got == expected


@st.composite
def weighted_graphs(draw):
    """Graphs with zero weights, tiny and large weights and isolated nodes."""
    n = draw(st.integers(1, 14))
    weight = st.one_of(
        st.sampled_from([0.0, 5e-324, 1e-300, 1.0, 3.0]),
        st.floats(1e-6, 1e6),
    )
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    edges = {}
    for a, b in pairs:
        if a != b:
            edges.setdefault((min(a, b), max(a, b)), draw(weight))
    order = draw(st.permutations(list(edges)))  # file order is not sorted order
    src, dst = (np.array([e[k] for e in order], dtype=np.int64) for k in (0, 1))
    graph = Graph(n, src, dst, np.array([edges[e] for e in order]))
    beta = draw(st.sampled_from([1.0, 0.5, 3.7, 1e-3, 1e3]))
    ridge = draw(st.sampled_from([0.0, 0.0, 1e-3, 0.25]))
    return graph, beta, ridge


@given(weighted_graphs())
@PROPERTY
def test_laplacian_and_components_match_loops(case):
    graph, beta, ridge = case
    lap = build_laplacian(graph, beta=beta, ridge=ridge)
    expected = reference_laplacian(graph, beta, ridge)
    assert np.array_equal(dense_laplacian(lap), expected)
    assert dense_laplacian(lap).tobytes() == expected.tobytes()  # down to the sign of zeros
    assert positive_components(lap) == reference_components(expected)


@given(weighted_graphs(), st.data())
@PROPERTY
def test_scattered_blocks_match_the_loop_bitwise(case, data):
    # L_uu carries the diagonal and the ridge, L_ul none; either set may be empty
    graph, beta, ridge = case
    lap = build_laplacian(graph, beta=beta, ridge=ridge)
    expected = reference_laplacian(graph, beta, ridge)
    labeled = tuple(sorted(data.draw(st.sets(st.integers(0, graph.n - 1)))))
    unlabeled = tuple(v for v in range(graph.n) if v not in labeled)
    for rows, cols in ((unlabeled, unlabeled), (unlabeled, labeled), (labeled, unlabeled), (labeled, labeled)):
        block = lap.block(rows, cols)
        want = expected[np.ix_(rows, cols)]
        assert block.shape == want.shape and block.dtype == np.float64 and block.flags.c_contiguous
        assert block.tobytes() == want.tobytes()  # down to the sign of zeros


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("beta,ridge", [(1.0, 0.0), (1e-3, 0.25)])
def test_edgeless_laplacian_is_float_ridge_diagonal(n, beta, ridge):
    # bincount over no edges is int64; the diagonal must still be float64
    lap = build_laplacian(Graph(n, [], [], []), beta=beta, ridge=ridge)
    assert lap.diagonal.dtype == np.float64
    assert lap.block(range(n), range(n)).tobytes() == (ridge * np.eye(n)).tobytes()
    assert positive_components(lap) == [(v,) for v in range(n)]


def test_underflowing_edge_splits_its_component():
    # (0.0 - 5e-324) * 1e-3 is -0.0: an entry of zero, so no edge joins 1 and 2
    graph = Graph(3, [0, 1], [1, 2], [1.0, 5e-324])
    lap = build_laplacian(graph, beta=1e-3)
    assert positive_components(lap) == [(0, 1), (2,)]
    assert lap.block([1], [2]).tobytes() == np.array([[-0.0]]).tobytes()


@given(weighted_graphs(), st.data())
@PROPERTY
def test_unanchored_component_is_the_one_the_dfs_names(case, data):
    graph, beta, _ = case
    lap = build_laplacian(graph, beta=beta)
    labeled = sorted(data.draw(st.sets(st.integers(0, graph.n - 1), min_size=1)))
    unanchored = [c for c in reference_components(dense_laplacian(lap)) if not set(c) & set(labeled)]
    try:
        init_label_state(lap, labeled, [1.0] * len(labeled))
    except UnanchoredComponentError as exc:
        assert unanchored and exc.component == unanchored[0]
    except DegeneracyError:  # raised by the factorization, after the component check passed
        assert not unanchored
    else:
        assert not unanchored


def test_component_labels_on_long_paths():
    # the rounds of hooking must reach across a path whose ids zigzag
    n = 301
    order = np.r_[np.arange(0, n, 2), np.arange(n - 2, 0, -2)]
    graph = Graph(n, np.minimum(order[:-1], order[1:]), np.maximum(order[:-1], order[1:]), np.ones(n - 1))
    lap = build_laplacian(graph)
    assert positive_components(lap) == [tuple(range(n))]
    assert np.array_equal(lap.component_of, np.zeros(n))


def test_graph_arrays_are_read_only_copies():
    src, dst, w = np.array([0, 1]), np.array([1, 2]), np.array([1.0, 2.0])
    graph = Graph(3, src, dst, w)
    src[0] = 2
    assert graph.src[0] == 0
    for arr in (graph.src, graph.dst, graph.weight):
        with pytest.raises(ValueError):
            arr[0] = 1
    assert graph.edges == ((0, 1, 1.0), (1, 2, 2.0))
    with pytest.raises(InputError):
        Graph(3, src, dst[:1], w)
