"""Weighted graphs, Laplacians, and the maintained unlabeled-block inverse.

A :class:`Graph` holds its edges as read-only arrays in input order, so
ingest (parse, validate, Laplacian, component labels) is array work; only
the error path reads rows one at a time, to name the first bad line.

The central object is :class:`LabelState`: a partition of the nodes into a
labeled set (with +/-1 labels) and an unlabeled set, together with the dense
inverse ``G = inv(L_uu)`` of the Laplacian restricted to the unlabeled
block.  ``G`` is computed once in one buffer by LAPACK ``dpotrf`` +
``dpotri``, mirrored to exact symmetry, and afterwards kept current with a
rank-one downdate each time a node is labeled, so per-step maintenance is
O(|u|^2) instead of O(|u|^3).  The downdate subtracts ``s s^T`` with
``s = G_q. / sqrt(G_qq)``, and ``s_i s_j`` rounds as ``s_j s_i`` does, so
``G`` stays bitwise symmetric from the mirrored factorization on: every
reader may take ``G_qk`` from row q, the contiguous one.  Node positions
are found by bisection on the ascending node tuples, so a commit does no
O(|u|) Python work.

``G`` is dense by design: the target graphs (a few thousand nodes) fit
comfortably, and the downdate rule is stated for dense inverses.  The
Laplacian is not: it keeps the edges, O(n + |E|), and scatters the blocks
``L_uu`` and ``L_ul``; only the oracles assemble it whole.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

import numpy as np
import scipy.linalg.blas
import scipy.linalg.lapack

from .config import DEFAULT_BETA, DEFAULT_TOLERANCES
from .errors import (
    DegeneracyError,
    InputError,
    ParseError,
    UnanchoredComponentError,
    UsageError,
)

_CHUNK_CHARS = 1 << 16  # readlines() size hint: one chunk's token lists bound the reader's memory
_MAX_NODE_ID = np.iinfo(np.int64).max
_BLOCK = 64  # columns per step of the inverse's mirror; bounds its scratch


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected weighted graph on nodes ``0..n-1``.

    Edge ``k`` is ``(src[k], dst[k], weight[k])``, read-only int64/float64
    copies of the arguments, in the caller's (a file's) order, with
    ``src < dst`` and finite ``weight >= 0``; one edge per unordered pair.
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise InputError(f"graph needs at least one node, got n={n}")
        src, dst = (np.array(a, dtype=np.int64) for a in (self.src, self.dst))
        w = np.array(self.weight, dtype=np.float64)
        if not src.shape == dst.shape == w.shape == (src.size,):
            raise InputError("edge arrays must be 1-d and of one length")
        for name, a in (("src", src), ("dst", dst), ("weight", w)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        bad = (src < 0) | (dst >= n) | (src >= dst) | ~(np.isfinite(w) & (w >= 0))
        key = src * n + dst  # may collide only for edges that are bad anyway
        order = np.argsort(key, kind="stable")
        bad[order[1:][key[order[1:]] == key[order[:-1]]]] = True  # later copies of a pair
        if bad.any():
            k = int(np.argmax(bad))
            i, j, wk = int(src[k]), int(dst[k]), float(w[k])
            if i == j:
                raise InputError(f"self-loop on node {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise InputError(f"edge ({i}, {j}) outside node range 0..{n - 1}")
            if i > j:
                raise InputError(f"edge ({i}, {j}) not canonical (need i < j)")
            if not np.isfinite(wk) or wk < 0:
                raise InputError(f"edge ({i}, {j}) has invalid weight {wk}")
            raise InputError(f"duplicate edge ({i}, {j})")

    @cached_property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """The edges as ``(i, j, w)`` tuples, for code that walks them one by one."""
        return tuple(zip(self.src.tolist(), self.dst.tolist(), self.weight.tolist()))


def graph_from_edges(n: int, edges) -> Graph:
    """Build a :class:`Graph` from ``(i, j[, w])`` tuples (w defaults to 1.0), canonicalizing orientation."""
    rows = np.array([e if len(e) == 3 else (*e, 1.0) for e in edges], dtype=np.float64).reshape(-1, 3)
    return Graph(n, rows[:, :2].min(axis=1), rows[:, :2].max(axis=1), rows[:, 2])


@dataclass(frozen=True)
class Laplacian:
    """Combinatorial Laplacian ``beta * L + ridge * I``, kept as the graph's edge arrays.

    ``diagonal`` is ``beta * degree + ridge``; no n x n matrix is held
    (:meth:`block` scatters what the fast paths read).  With ``ridge == 0``
    any connected component without a labeled node makes the unlabeled
    block singular; a positive ridge makes it invertible unconditionally.
    ``component_of[v]`` is the smallest node of ``v``'s connected component
    along the edges whose entry ``(0.0 - w) * beta`` is negative.
    """

    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    diagonal: np.ndarray
    component_of: np.ndarray
    beta: float
    ridge: float

    @property
    def n(self) -> int:
        return self.diagonal.size

    def block(self, rows, cols) -> np.ndarray:
        """The dense block ``L[rows][:, cols]`` in a fresh C-order array, scattered from the edges.

        Bitwise the entries of the whole matrix: ``(0.0 - w) * beta`` at an
        edge (+0.0 for a zero weight), ``diagonal`` where a row meets its
        own column, +0.0 elsewhere.  Work is O(n + |E|) besides the block.
        """
        at_row, at_col = (np.full(self.n, -1, dtype=np.intp) for _ in range(2))
        at_row[np.asarray(rows, dtype=np.intp)] = np.arange(len(rows))
        at_col[np.asarray(cols, dtype=np.intp)] = np.arange(len(cols))
        out = np.zeros((len(rows), len(cols)))
        for a, b in ((self.src, self.dst), (self.dst, self.src)):
            r, c = at_row[a], at_col[b]
            hit = (r >= 0) & (c >= 0)
            out[r[hit], c[hit]] = (0.0 - self.weight[hit]) * self.beta
        both = (at_row >= 0) & (at_col >= 0)
        out[at_row[both], at_col[both]] = self.diagonal[both]
        return out


def build_laplacian(graph: Graph, beta: float = DEFAULT_BETA, ridge: float = 0.0) -> Laplacian:
    """The :class:`Laplacian` of ``beta * L + ridge * I`` for a graph, in O(n + |E|) memory.

    ``L[i, j] = -w_ij`` off-diagonal and ``L[i, i] = sum_k w_ik``, summed
    in edge order: the bits are those of adding each edge in turn.  A
    non-finite ``beta``, ``ridge`` or diagonal is an :class:`InputError`;
    with weights >= 0 a finite diagonal bounds every entry.
    """
    if not 0 < beta < np.inf:
        raise InputError(f"beta must be positive and finite, got {beta}")
    if not 0 <= ridge < np.inf:
        raise InputError(f"ridge must be nonnegative and finite, got {ridge}")
    n, src, dst, w = graph.n, graph.src, graph.dst, graph.weight
    # end points interleaved (i0, j0, i1, j1, ...) so that each node's weights
    # add in edge order; all i's before all j's would change the last bits
    ends = np.column_stack((src, dst)).ravel()
    with np.errstate(over="ignore"):  # reported below, with the node
        # a product, not in place: bincount of no edges is int64
        diag = np.bincount(ends, weights=np.repeat(w, 2), minlength=n) * beta
        diag += ridge
    if not np.isfinite(diag).all():
        raise InputError(f"Laplacian diagonal at node {{}} overflows (beta={beta})", np.argmin(np.isfinite(diag)))
    positive = (0.0 - w) * beta < 0  # not w > 0: a product that underflows to zero is no edge
    labels = _component_labels(n, src[positive], dst[positive])
    for a in (diag, labels):
        a.setflags(write=False)
    return Laplacian(src, dst, w, diag, labels, beta, ridge)


def _component_labels(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """The smallest node of each node's connected component along the given edges.

    Min-label hooking with pointer jumping: each round hooks every tree
    root to the smallest root across its edges (so roots only decrease),
    then jumps pointers until every node points at its root.
    """
    label = np.arange(n)
    while True:
        a, b = label[src], label[dst]
        joins = a != b
        if not joins.any():
            return label
        a, b = a[joins], b[joins]
        low = np.minimum(a, b)
        np.minimum.at(label, a, low)
        np.minimum.at(label, b, low)
        while not np.array_equal(up := label[label], label):
            label = up


def positive_components(lap: Laplacian) -> list[tuple[int, ...]]:
    """Connected components under strictly positive edge weights.

    Ascending node tuples, in order of their smallest node, read from the
    labels :func:`build_laplacian` keeps (the ridge does not enter them).
    """
    order = np.argsort(lap.component_of, kind="stable")
    cuts = np.flatnonzero(np.diff(lap.component_of[order])) + 1
    return [tuple(part.tolist()) for part in np.split(order, cuts)]


@dataclass(frozen=True)
class LabelState:
    """Partition of the nodes plus the maintained inverse of ``L_uu``.

    ``labeled`` and ``unlabeled`` are ascending node tuples; ``labels`` is
    the +/-1 vector aligned with ``labeled``; ``inverse`` is the bitwise
    symmetric ``G = inv(L_uu)``, rows/columns aligned with ``unlabeled``.
    Instances are immutable values; operations return new states.
    """

    lap: Laplacian
    labeled: tuple[int, ...]
    labels: np.ndarray
    unlabeled: tuple[int, ...]
    inverse: np.ndarray

    def u_index(self, node: int) -> int:
        """Position of an unlabeled node within the ``unlabeled`` ordering."""
        i = bisect.bisect_left(self.unlabeled, node)
        if i == len(self.unlabeled) or self.unlabeled[i] != node:
            raise UsageError("node {} is not unlabeled", node)
        return i

    @cached_property
    def singular_floor(self) -> float:
        """Level at or below which a pivot or lookahead denominator is degenerate.

        ``Tolerances.singularity`` times the largest entry of ``diag(G)``.
        ``G`` scales as 1/beta and inversely with the edge-weight unit, so
        an absolute threshold would report well-posed problems as
        degenerate at large beta; relative to ``max diag(G)`` the guards
        are scale-free.  Needs at least one unlabeled node.
        """
        return DEFAULT_TOLERANCES.singularity * self.inverse.diagonal().max()

    def checked_diagonal(self) -> np.ndarray:
        """``diag(G)`` as a contiguous copy, each entry above ``singular_floor``.

        Contiguous because the risk sweeps broadcast it against every row
        block; the strided view of ``np.diag`` makes that broadcast slower.
        Empty when no node is unlabeled.
        """
        d = self.inverse.diagonal().copy()
        if d.size and not d.min() > self.singular_floor:  # a NaN fails too; argmin names the first
            bad = self.unlabeled[int(np.argmin(d))]
            raise DegeneracyError("inverse diagonal vanished at node {}", bad)
        return d

    @property
    def n(self) -> int:
        return self.lap.n


def _check_labels(labels: np.ndarray) -> np.ndarray:
    y = np.asarray(labels, dtype=float)
    if y.ndim != 1:
        raise InputError("labels must be a 1-d vector")
    if not np.all(np.isin(y, (1.0, -1.0))):
        raise InputError("labels must be +1 or -1")
    return y


def _spd_block_inverse(lap: Laplacian, nodes: tuple[int, ...]) -> np.ndarray:
    """``inv(L[nodes][:, nodes])`` of a positive-definite block, in one C-order buffer.

    The block is scattered from the edges (:meth:`Laplacian.block`)
    straight into the buffer.  It is symmetric, so its transpose is the
    Fortran-order matrix that ``dpotrf`` + ``dpotri`` (about m^3 flops)
    overwrite in place; the triangle they leave is mirrored, ``_BLOCK``
    columns at a time: exact symmetry.
    """
    if not nodes:  # dpotri rejects an empty matrix
        return np.zeros((0, 0))
    buf = lap.block(nodes, nodes)
    _, info = scipy.linalg.lapack.dpotrf(buf.T, lower=1, clean=0, overwrite_a=1)
    if not info:
        _, info = scipy.linalg.lapack.dpotri(buf.T, lower=1, overwrite_c=1)
    if info:  # > 0: the leading minor of that order is not positive definite
        raise DegeneracyError("L_uu is not positive definite at node {}", nodes[info - 1])
    for c0 in range(0, len(nodes), _BLOCK):  # the result is buf's upper triangle
        c1, diag = c0 + _BLOCK, buf[c0:c0 + _BLOCK, c0:c0 + _BLOCK]
        np.copyto(diag, diag.T, where=np.tri(len(diag), k=-1, dtype=bool))
        buf[c1:, c0:c1] = buf[c0:c1, c1:].T
    if not np.isfinite(d := buf.diagonal()).all():
        raise DegeneracyError("inverse diagonal at node {} overflows", nodes[int(np.argmin(np.isfinite(d)))])
    return buf


def whole_numbers(values, what: str, error: type[Exception] = InputError) -> list[int]:
    """``values`` as Python ints.  A value that is not a whole number (of
    any integer or float type) raises ``error`` naming it, where ``int()``
    alone would turn 5.5 into 5."""
    out = []
    for v in values:
        i = int(v)
        if i != v:
            raise error(f"{what} {v!r} is not a whole number")
        out.append(i)
    return out


def init_label_state(lap: Laplacian, labeled, labels) -> LabelState:
    """Construct a state from scratch, inverting ``L_uu`` once.

    This is the O(n^3) entry cost; afterwards :func:`downdate_inverse`
    keeps the inverse current at O(|u|^2) per labeled node.  ``G`` is one
    buffer: ``L_uu``, scattered from the edges and overwritten by LAPACK
    ``dpotrf`` + ``dpotri``, with a triangle mirrored for exact symmetry.
    Fails with :class:`UnanchoredComponentError` if some connected
    component has no labeled node (singular block) and no ridge was
    requested, and with a :class:`DegeneracyError` naming the node if
    ``L_uu`` is numerically not positive definite or ``diag(G)`` overflows.
    The labeled nodes may come in any order; ``labels`` follows theirs.
    """
    nodes = whole_numbers(labeled, "labeled node")
    order = np.argsort(nodes, kind="stable")
    labeled = tuple(nodes[i] for i in order)
    if not labeled:
        raise InputError("need at least one labeled node")
    if len(set(labeled)) != len(labeled):
        raise InputError("duplicate node in labeled set")
    if labeled[0] < 0 or labeled[-1] >= lap.n:
        raise InputError(f"labeled nodes outside range 0..{lap.n - 1}")
    y = _check_labels(labels)
    if len(y) != len(labeled):
        raise InputError(f"{len(labeled)} labeled nodes but {len(y)} labels")

    lab_set = set(labeled)
    if lap.ridge == 0.0:
        for comp in positive_components(lap):
            if not lab_set.intersection(comp):
                raise UnanchoredComponentError(comp)

    unlabeled = tuple(v for v in range(lap.n) if v not in lab_set)
    inv = _spd_block_inverse(lap, unlabeled)
    inv.setflags(write=False)
    y = y[order]
    y.setflags(write=False)
    return LabelState(lap=lap, labeled=labeled, labels=y, unlabeled=unlabeled, inverse=inv)


def downdate_inverse(state: LabelState, k: int, label: float) -> LabelState:
    """Move node ``k`` from unlabeled to labeled, updating the inverse.

    Uses the rank-one Schur-complement identity: deleting row/column ``k``
    of ``L_uu`` turns ``G`` into ``G' = G - G_{.k} G_{k.} / G_kk`` restricted
    to the survivors.  Cost O(|u|^2).  The result matches a fresh inversion
    of the reduced block to ``Tolerances.equivalence`` on well-conditioned
    graphs, not to machine precision: each downdate's rounding stays at the
    scale ``G`` had when it was made, so on ill-conditioned graphs a long
    run drifts by up to about 1e-5 of ``max diag(G)``
    (``selftest.check_long_downdate``).

    The four blocks of ``G`` around row and column ``k`` are copied into a
    fresh C-order (|u|-1)^2 array, whose Fortran-order transpose
    ``dgemm(-1, s, s, beta=1)`` updates in place, ``s`` being row k of
    ``G`` without its own entry over ``sqrt(pivot)``.  With inner dimension
    1 each product is rounded once and added with the exact alpha = -1, so
    every entry is ``round(g_ij - round(s_i s_j))``, bitwise the gathering
    form ``g[keep][:, keep] - np.outer(s, s)``, and as ``s_i s_j == s_j s_i``
    the result is exactly symmetric again.  A BLAS that fused the product
    and the add into one FMA would change bits, and one whose kernels
    rounded tile edges differently would break the symmetry; the
    ``*bitwise_equal_to_gathering_form`` and ``*bitwise_symmetric*`` tests
    catch both.  ``state`` is left as it was.
    """
    qi = state.u_index(k)
    if label not in (1.0, -1.0, 1, -1):
        raise InputError(f"label must be +1 or -1, got {label}")
    g = state.inverse
    pivot = g[qi, qi]
    if not pivot > state.singular_floor:
        raise DegeneracyError(f"inverse diagonal at node {{}} is {pivot:.3e}; cannot downdate", k)

    s = np.concatenate((g[qi, :qi], g[qi, qi + 1:]))
    s /= np.sqrt(pivot)
    new_inv = np.empty((s.size, s.size))
    new_inv[:qi, :qi], new_inv[:qi, qi:] = g[:qi, :qi], g[:qi, qi + 1:]
    new_inv[qi:, :qi], new_inv[qi:, qi:] = g[qi + 1:, :qi], g[qi + 1:, qi + 1:]
    if s.size:  # new_inv.T is Fortran-ordered, so dgemm updates it in place
        new_inv = scipy.linalg.blas.dgemm(
            -1.0, s[:, None], s[None, :], beta=1.0, c=new_inv.T, overwrite_c=1
        ).T
    new_inv.setflags(write=False)

    pos, labels = bisect.bisect_left(state.labeled, k), state.labels
    new_labels = np.empty(labels.size + 1)
    new_labels[:pos], new_labels[pos], new_labels[pos + 1:] = labels[:pos], label, labels[pos:]
    new_labels.setflags(write=False)
    return LabelState(
        state.lap,
        state.labeled[:pos] + (k,) + state.labeled[pos:],
        new_labels,
        state.unlabeled[:qi] + state.unlabeled[qi + 1:],
        new_inv,
    )


def dense_laplacian(lap: Laplacian) -> np.ndarray:
    """``beta * L + ridge * I`` as an n x n array, one edge at a time.

    For the oracles only, which check the fast paths' :meth:`Laplacian.block`
    and so share no code with it.
    """
    m = np.zeros((lap.n, lap.n))
    for i, j, w in zip(lap.src.tolist(), lap.dst.tolist(), lap.weight.tolist()):
        m[i, i] += w
        m[j, j] += w
        m[i, j] -= w
        m[j, i] -= w
    m *= lap.beta
    m[np.diag_indices(lap.n)] += lap.ridge
    return m


def inverse_residual(state: LabelState) -> float:
    """Max-abs entry of ``G @ L_uu - I``; a debug/test invariant check."""
    m = len(state.unlabeled)
    if m == 0:
        return 0.0
    iu = np.asarray(state.unlabeled, dtype=int)
    luu = dense_laplacian(state.lap)[np.ix_(iu, iu)]
    return float(np.max(np.abs(state.inverse @ luu - np.eye(m))))


def read_table(path: str, widths: set[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The ``int int [float]`` rows of a text file, read a bounded chunk of lines at a time.

    Skips blank lines and comments (``#`` as first non-blank character);
    other rows must have a token count in ``widths``.  Returns the int64
    columns, the float64 one (1.0 in two-token rows), all through Python's
    ``int``/``float``, and the line count of text-mode iteration.  A bad
    row raises ``ValueError`` or ``OverflowError``.
    """
    cols, lines = ([np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)]), 0
    with open(path, "r", encoding="utf-8") as fh:
        for chunk in iter(lambda: fh.readlines(_CHUNK_CHARS), []):
            lines += len(chunk)
            rows = list(map(str.split, chunk))
            if not all(rows) or "#" in "".join(chunk):
                rows = [r for r in rows if r and r[0][0] != "#"]
            if not set(map(len, rows)) <= widths:
                raise ValueError(f"a row without {widths} tokens")
            for c in (0, 1):
                cols[c].append(np.fromiter(map(int, map(itemgetter(c), rows)), np.int64, len(rows)))
            weights = (float(r[2]) if len(r) == 3 else 1.0 for r in rows)
            cols[2].append(np.fromiter(weights, np.float64, len(rows)))
    return (*map(np.concatenate, cols), lines)


def raise_first_bad_row(path: str, row_fault) -> None:
    """Raise :class:`ParseError` at the first line of ``path`` that ``row_fault`` rejects.

    ``row_fault(line, tokens, seen)`` sees each stripped data row in turn,
    with one set ``seen`` for duplicates, and returns a message for a bad one.
    """
    seen: set = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line and not line.startswith("#") and (fault := row_fault(line, line.split(), seen)):
                raise ParseError(path, line_no, fault)


def _edge_row_fault(line: str, parts: list[str], seen: set) -> str | None:
    if len(parts) not in (2, 3):
        return f"expected 'i j [w]', got {line!r}"
    try:
        i, j = int(parts[0]), int(parts[1])
        w = float(parts[2]) if len(parts) == 3 else 1.0
    except ValueError:
        return f"malformed numbers in {line!r}"
    if i < 1 or j < 1:
        return "node ids are 1-based and positive"
    if i == j:
        return f"self-loop on node {i}"
    if w < 0 or not np.isfinite(w):
        return f"invalid weight {w}"
    pair = (min(i, j), max(i, j))
    if pair in seen:
        return f"duplicate edge {i} {j}"
    if pair[1] > _MAX_NODE_ID:
        return f"node id {pair[1]} too large"
    seen.add(pair)
    return None


def read_edge_list(path, n: int | None = None) -> Graph:
    """Parse the text edge-list format.

    One edge per line, ``i j [w]`` with 1-based node ids and an optional
    weight defaulting to 1.0; ``#`` as a line's first non-blank character
    starts a comment.  ``n`` defaults to the largest node id seen.  A
    :class:`ParseError` names the ``file:line`` of the first bad row.
    """
    path = str(path)
    try:
        i, j, weight, _ = read_table(path, {2, 3})
        max_id = int(max(i.max(), j.max())) if i.size else 0
        size = max_id if n is None else n
        # the Graph validates; ids below 1 fall outside its node range
        graph = Graph(max(size, max_id, 1), np.minimum(i, j) - 1, np.maximum(i, j) - 1, weight)
    except (ValueError, OverflowError):
        raise_first_bad_row(path, _edge_row_fault)
        raise
    if size < 1:
        raise InputError(
            "edge list is empty and no n given" if n is None else f"graph needs at least one node, got n={n}"
        )
    if max_id > size:
        raise InputError(f"edge references node {max_id} but n={size}")
    return graph
