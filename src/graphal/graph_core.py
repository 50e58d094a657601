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

A downdate returns a new state with a fresh copy of ``G`` by default.  A
session that asks to own its ``G`` (``own=True``, a pruning tsa session)
gets that copy once, at its first commit; from then on each commit
downdates the buffer in place, leaves the labeled node's row and column
as a dead slot, and consumes the state before it.  The hot readers go
through the live slots (:meth:`LabelState.slots`), so no |u|^2 data
moves; ``inverse`` compacts the buffer in place, as does a commit once
half the slots are dead.

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
_U = 2.0 ** -53  # unit roundoff of float64, u in the error bounds
_DOWNDATE_ROUNDING = 8.0 * _U / DEFAULT_TOLERANCES.singularity  # times |u| and singular_floor: a downdate's r


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


class _Owned:
    """The buffer of ``G`` that one session owns and downdates in place.

    ``G`` is rows and columns ``live`` (ascending; None: all) of the C-order
    ``ld`` x ``ld`` matrix at the head of ``flat``; the other slots are
    dead, labeled nodes' rows and columns left where they were.
    ``version`` counts the commits, and a state holds the stamp ``(buffer,
    version)``: it reads the buffer only at its own version.  ``view`` is
    the compact ``G`` once :meth:`read` has made it, until the next commit.
    """

    __slots__ = ("flat", "ld", "live", "version", "view")

    def __init__(self, matrix: np.ndarray):
        self.flat, self.ld, self.live, self.version, self.view = matrix.reshape(-1), len(matrix), None, 0, None

    def open(self, version: int) -> _Owned:
        if version != self.version:
            raise UsageError("this state's G was consumed by a later in-place commit of its session")
        return self

    def matrix(self) -> np.ndarray:
        return self.flat[:self.ld * self.ld].reshape(self.ld, self.ld)

    def compact(self) -> None:
        """Move the live rows and columns to the head, in place: row i's
        live columns to ``flat[i m:(i + 1) m]``, one row at a time through
        a buffered ``take``.  Nothing is overwritten before it is read:
        row i's destination ends before row i + 1 starts, as ``live[i] >=
        i``."""
        live, g = self.live, self.matrix()
        if live is None:
            return
        m = live.size
        for i, p in enumerate(live.tolist()):
            np.take(g[p], live, out=self.flat[i * m:(i + 1) * m])  # mode "raise" buffers ``out``
        self.ld, self.live = m, None

    def read(self, version: int) -> np.ndarray:
        """The compact (|u|, |u|) ``G`` at ``version``, read-only, one view per version."""
        if self.open(version).view is None:
            self.compact()
            self.view = self.matrix()
            self.view.setflags(write=False)
        return self.view


class _InverseField:
    """``LabelState.inverse``: a read-only ndarray, or an :class:`_Owned`
    buffer's ``(buffer, version)`` stamp, compacted in place on first read."""

    def __get__(self, state, owner=None):
        if state is None:
            raise AttributeError("inverse has no default")
        g = state._inverse
        return g if type(g) is not tuple else g[0].read(g[1])

    def __set__(self, state, value):
        state.__dict__["_inverse"] = value


class _BoundField:
    """``LabelState.error_bound``, kept as ``(G's store, a, e)`` and read as
    ``(inverse, a, e)`` while the store is the state's own."""

    def __get__(self, state, owner=None):
        if state is None:
            return None
        bound = state._error_bound
        if bound is not None and bound[0] is state._inverse and type(bound[0]) is tuple:
            return (state.inverse, *bound[1:])
        return bound

    def __set__(self, state, value):
        state.__dict__["_error_bound"] = value


@dataclass(frozen=True)
class LabelState:
    """Partition of the nodes plus the maintained inverse of ``L_uu``.

    ``labeled`` and ``unlabeled`` are ascending node tuples; ``labels`` is
    aligned with ``labeled``: a +/-1 vector for a binary state, or a
    C-order (|l|, C) +/-1 matrix whose column c holds one-vs-rest run c's
    labels (``strategies.MulticlassState``); ``inverse`` is the bitwise
    symmetric ``G = inv(L_uu)``, rows/columns aligned with ``unlabeled``.
    Instances are immutable values; operations return new states.

    ``G`` is a read-only array, or, for a pruning tsa session after its
    first commit, a buffer that the session owns and downdates in place
    (:func:`downdate_inverse` with ``own=True``).  Such a state reads
    ``G`` through its live slots (:meth:`slots`, :meth:`diagonal`,
    :meth:`row`, :meth:`take_rows`); ``inverse`` compacts the buffer in
    place and returns a read-only view of it, valid until the session's
    next commit.  Once a commit has consumed the state, every read of its
    ``G`` raises :class:`UsageError`; ``labels``, ``lap`` and the node
    tuples still read.

    ``error_bound`` is None or ``(array, a, e)``: ``array`` is proved the
    exact inverse of ``L_uu + E`` with ``||E||_2 <= e`` and ``a >=
    ||L_uu||_2`` (``init_label_state`` and ``downdate_inverse`` set it;
    the proof is ``eem._bounded``'s).  It describes ``G`` only while it
    was made for this state's ``G`` (this array, or this buffer at this
    version), so a state built by hand, by ``dataclasses.replace(state,
    inverse=...)`` or as a ``MulticlassState.states`` view carries no
    usable bound.
    """

    lap: Laplacian
    labeled: tuple[int, ...]
    labels: np.ndarray
    unlabeled: tuple[int, ...]
    inverse: np.ndarray = _InverseField()
    error_bound: tuple | None = _BoundField()

    @property
    def class_count(self) -> int:
        """1 for a label vector, C for an (|l|, C) label matrix."""
        return self.labels.shape[1] if self.labels.ndim == 2 else 1

    def u_index(self, node: int) -> int:
        """Position of an unlabeled node within the ``unlabeled`` ordering."""
        i = bisect.bisect_left(self.unlabeled, node)
        if i == len(self.unlabeled) or self.unlabeled[i] != node:
            raise UsageError("node {} is not unlabeled", node)
        return i

    def slots(self) -> tuple[np.ndarray, int, np.ndarray | None]:
        """``(flat, ld, live)``: ``G_ij`` is ``flat[live[i] * ld + live[j]]``,
        or ``flat[i * ld + j]`` where ``live`` is None.  No copy is made."""
        g = self._inverse
        if type(g) is tuple:
            owned = g[0].open(g[1])
            return owned.flat, owned.ld, owned.live
        return g.reshape(-1), len(g), None

    def diagonal(self) -> np.ndarray:
        """``diag(G)`` in a fresh array."""
        if type(g := self._inverse) is not tuple:  # an array: the common case, kept cheap per call
            return g.diagonal().copy()
        flat, ld, live = self.slots()
        return flat[:ld * ld:ld + 1].copy() if live is None else flat[live * (ld + 1)]

    def row(self, i: int) -> np.ndarray:
        """Row ``i`` of ``G`` (column i too: ``G`` is bitwise symmetric)."""
        if type(g := self._inverse) is not tuple:
            return g[i]
        flat, ld, live = self.slots()
        if live is None:
            return flat[i * ld:(i + 1) * ld]
        return flat[live[i] * ld:(live[i] + 1) * ld][live]

    def take_rows(self, positions: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Rows ``positions`` of ``G`` into ``out``, a negative position
        counting from the end as in numpy indexing.  Where slots are dead,
        one flat ``take`` through an index of ``out``'s size."""
        flat, ld, live = self.slots()
        if live is None:  # "wrap" writes ``out`` unbuffered
            return np.take(flat[:ld * ld].reshape(ld, ld), positions, axis=0, out=out, mode="wrap")
        return np.take(flat, np.add.outer(live[positions] * ld, live), out=out)

    @cached_property
    def singular_floor(self) -> float:
        """Level at or below which a pivot or lookahead denominator is degenerate.

        ``Tolerances.singularity`` times the largest entry of ``diag(G)``.
        ``G`` scales as 1/beta and inversely with the edge-weight unit, so
        an absolute threshold would report well-posed problems as
        degenerate at large beta; relative to ``max diag(G)`` the guards
        are scale-free.  Needs at least one unlabeled node.
        """
        return DEFAULT_TOLERANCES.singularity * self.diagonal().max()

    def checked_diagonal(self) -> np.ndarray:
        """``diag(G)`` as a contiguous copy, each entry above ``singular_floor``.

        Contiguous because the risk sweeps broadcast it against every row
        block; the strided view of ``np.diag`` makes that broadcast slower.
        Empty when no node is unlabeled.
        """
        d = self.diagonal()
        if d.size and not d.min() > self.singular_floor:  # a NaN fails too; argmin names the first
            bad = self.unlabeled[int(np.argmin(d))]
            raise DegeneracyError("inverse diagonal vanished at node {}", bad)
        return d

    @property
    def n(self) -> int:
        return self.lap.n


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


def _inversion_bound(lap: Laplacian, g: np.ndarray) -> tuple | None:
    """``(g, a, e)`` for a ``G = g`` fresh from :func:`_spd_block_inverse`,
    None where a hypothesis below fails (or no node is unlabeled).

    ``a = 2 (1 + 2 n u) max(lap.diagonal)`` bounds ``||L_uu||_2`` by
    Gershgorin: a row's off-diagonal magnitudes sum to at most its
    diagonal, up to the ``(deg + 3) u`` that rounding the degree costs
    (``u = 2^-53``).  With ``c = m gamma_{m+2}`` (``m = |u|``, ``gamma_k =
    k u / (1 - k u)``) and ``R`` the computed Cholesky factor, ``X`` its
    computed inverse, ``G = fl(X X^T)``:

    * ``x = trace(G) / (1 - c) >= ||X||_2^2``: each ``G_kk`` sums the
      squares of row k of ``X``, so it is within ``gamma_m`` of that sum,
      and the float trace within ``gamma_m`` of its own sum
    * ``a1 = a / (1 - c) >= ||R||_2^2``, as ``R^T R = L_uu + D1`` with
      ``|D1| <= gamma_{m+1} |R^T| |R|`` (Higham 2002, Thm 10.3) and
      ``|| |M| ||_2 <= sqrt(m) ||M||_2``, so ``||D1||_2 <= c ||R||_2^2 <= c a1``
    * ``s = c sqrt(a1 x) >= ||P||_2``, ``P`` the residual ``X R - I`` or
      ``R X - I``: LAPACK's triangular inverse bounds one of them by
      ``gamma_{m+1} |X| |R|`` (Du Croz & Higham 1992; Higham 2002, sec. 14.2)
    * ``r1 = x / (1 - s)^2 >= ||R^-1||_2^2 = ||(L_uu + D1)^-1||_2``, ``w =
      c a1 r1``, and ``t = r1 / (1 - w) >= ||L_uu^-1||_2``, as
      ``lambda_min(L_uu) >= 1 / r1 - c a1`` (Weyl)
    * ``phi = c x + r1 s (2 + s) + w t >= ||G - L_uu^-1||_2``: the terms
      bound ``G - X X^T`` (``|.| <= gamma_m |X| |X^T|``), ``X X^T - (L_uu
      + D1)^-1`` (``X`` is ``(I + P) R^-1`` or ``R^-1 (I + P)``) and
      ``(L_uu + D1)^-1 - L_uu^-1 = -L_uu^-1 D1 (L_uu + D1)^-1``

    (LAPACK factors ``L_uu = L L^T`` here; ``R`` is ``L^T``.)

    Each of ``s``, ``w`` and ``a phi`` must be below 1/2.  Then ``e = a^2
    phi / (1 - a phi)``.  To first order ``phi = c t (1 + sqrt(a t))^2``,
    so ``a phi`` grows as ``m^2 u kappa^2``.  The trace bounds
    ``||L_uu^-1||_2`` through ``R``, not through ``G``'s distance to
    ``L_uu^-1``, so the argument is not circular.
    """
    m = len(g)
    if not m:
        return None
    c = m * (m + 2) * _U / (1.0 - (m + 2) * _U)
    a = 2.0 * (1.0 + 2 * lap.n * _U) * float(lap.diagonal.max())
    x = float(g.diagonal().sum()) / (1.0 - c)
    a1 = a / (1.0 - c)
    s = c * (a1 * x) ** 0.5
    if not s < 0.5:
        return None
    r1 = x / (1.0 - s) ** 2
    w = c * a1 * r1
    if not w < 0.5:
        return None
    phi = c * x + r1 * s * (2.0 + s) + w * r1 / (1.0 - w)
    a_phi = a * phi
    if not a_phi < 0.5:
        return None
    return g, a, a * a_phi / (1.0 - a_phi)


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


def sorted_labeled(lap: Laplacian, labeled, labels) -> tuple[tuple[int, ...], np.ndarray]:
    """The labeled nodes in ascending order and their labels in that order.

    The one input check of a labeled set, shared by :func:`init_label_state`
    and the enumeration oracle: nodes are whole numbers, distinct and in
    ``0..n-1``, and ``labels`` is a +/-1 vector of one label per node, in
    the nodes' given order.  Any failure is an :class:`InputError`.
    """
    nodes = whole_numbers(labeled, "labeled node")
    order = np.argsort(nodes, kind="stable")
    labeled = tuple(nodes[i] for i in order)
    if len(set(labeled)) != len(labeled):
        raise InputError("duplicate node in labeled set")
    if labeled and (labeled[0] < 0 or labeled[-1] >= lap.n):
        raise InputError(f"labeled nodes outside range 0..{lap.n - 1}")
    y = np.asarray(labels, dtype=float)
    if y.ndim != 1:
        raise InputError("labels must be a 1-d vector")
    if not np.all(np.isin(y, (1.0, -1.0))):
        raise InputError("labels must be +1 or -1")
    if len(y) != len(labeled):
        raise InputError(f"{len(labeled)} labeled nodes but {len(y)} labels")
    return labeled, y[order]


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
    The state's ``error_bound`` is :func:`_inversion_bound`'s, O(n) more.
    """
    labeled, y = sorted_labeled(lap, labeled, labels)
    if not labeled:
        raise InputError("need at least one labeled node")

    lab_set = set(labeled)
    if lap.ridge == 0.0:
        for comp in positive_components(lap):
            if not lab_set.intersection(comp):
                raise UnanchoredComponentError(comp)

    unlabeled = tuple(v for v in range(lap.n) if v not in lab_set)
    inv = _spd_block_inverse(lap, unlabeled)
    inv.setflags(write=False)
    y.setflags(write=False)
    return LabelState(lap, labeled, y, unlabeled, inv, _inversion_bound(lap, inv))


def downdate_inverse(state: LabelState, k: int, label, own: bool = False) -> LabelState:
    """Move node ``k`` from unlabeled to labeled, updating the inverse.

    ``label`` is a +/-1 scalar for a state with a label vector, a length-C
    +/-1 row for one with an (|l|, C) label matrix; it is inserted at
    ``k``'s labeled position, and the result has ``state``'s type.

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

    ``own=True`` is a session's commit: the session keeps only the result
    and never reads ``state``'s ``G`` again.  The result then owns its
    ``G``.  Where ``state`` owns one already, the same ``dgemm`` runs on
    that buffer in place, ``s`` holding 0 at the dead slots and at k: every
    live entry is ``round(g_ij - round(s_i s_j))`` as above, bitwise,
    nothing of O(|u|^2) is moved or allocated, and k's row and column stay
    behind as a dead slot.  That consumes ``state``.  Once half the slots
    are dead, the buffer is compacted in place, so the commit stays
    O(|u|^2) in the live slots.  Otherwise (the session's first commit)
    the copy above becomes the result's buffer, so a state that several
    sessions share is never written.

    The result's ``error_bound`` is ``(new G, a, e + a'^2 r / (1 - a'
    r))`` where ``state``'s describes its ``G`` and ``a' r < 1/2``, else
    None.  ``a' = a + e`` bounds ``||L_uu + E||_2``, and ``r = 8 u |u| max
    diag(G)`` (``u = 2^-53``, |u| after the commit, ``max diag(G)`` read
    back from ``singular_floor``) bounds the downdate's roundings in
    2-norm: an entry is off by at most ``6.001 u max diag(G)``.  O(1) per
    commit (``eem._bounded`` has the proof).
    """
    qi = state.u_index(k)
    labels = state.labels
    if labels.ndim == 1:
        if getattr(label, "ndim", 0) or label not in (1.0, -1.0):  # constant time; a row is an error
            raise InputError(f"label must be +1 or -1, got {label}")
    elif np.shape(label) != labels.shape[1:] or not np.all(np.abs(label) == 1.0):
        raise InputError(f"label must be a row of {labels.shape[1]} entries +1 or -1, got {label}")
    store = state._inverse
    owned = store[0].open(store[1]) if own and type(store) is tuple else None
    row = state.row(qi)
    pivot = row[qi]
    if not pivot > state.singular_floor:
        raise DegeneracyError(f"inverse diagonal at node {{}} is {pivot:.3e}; cannot downdate", k)

    m = len(state.unlabeled) - 1
    if owned is None:
        g = state.inverse
        s = np.concatenate((row[:qi], row[qi + 1:]))
        s /= np.sqrt(pivot)
        new_inv = np.empty((m, m))
        new_inv[:qi, :qi], new_inv[:qi, qi:] = g[:qi, :qi], g[:qi, qi + 1:]
        new_inv[qi:, :qi], new_inv[qi:, qi:] = g[qi + 1:, :qi], g[qi + 1:, qi + 1:]
    else:
        live = np.arange(owned.ld) if owned.live is None else owned.live
        s = np.zeros(owned.ld)
        s[live] = row / np.sqrt(pivot)
        s[live[qi]] = 0.0
        new_inv = owned.matrix()
    if s.size:  # new_inv.T is Fortran-ordered, so dgemm updates it in place
        new_inv = scipy.linalg.blas.dgemm(
            -1.0, s[:, None], s[None, :], beta=1.0, c=new_inv.T, overwrite_c=1
        ).T
    if owned is not None:
        owned.version, owned.view, owned.live = owned.version + 1, None, np.delete(live, qi)
        if 2 * m <= owned.ld:
            owned.compact()
        new_store = (owned, owned.version)
    elif own:
        new_store = (_Owned(new_inv), 0)
    else:
        new_inv.setflags(write=False)
        new_store = new_inv

    pos = bisect.bisect_left(state.labeled, k)
    new_labels = np.empty((len(labels) + 1, *labels.shape[1:]))
    new_labels[:pos], new_labels[pos], new_labels[pos + 1:] = labels[:pos], label, labels[pos:]
    new_labels.setflags(write=False)
    bound = state._error_bound
    if bound is not None and bound[0] is store:
        _, a, e = bound
        a_e = a + e
        a_r = a_e * _DOWNDATE_ROUNDING * m * float(state.singular_floor)
        bound = (new_store, a, e + a_e * a_r / (1.0 - a_r)) if a_r < 0.5 else None
    else:
        bound = None
    return type(state)(
        state.lap,
        state.labeled[:pos] + (k,) + state.labeled[pos:],
        new_labels,
        state.unlabeled[:qi] + state.unlabeled[qi + 1:],
        new_store,
        bound,
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
