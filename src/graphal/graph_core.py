"""Weighted graphs, Laplacians, and the maintained unlabeled-block inverse.

The central object is :class:`LabelState`: a partition of the nodes into a
labeled set (with +/-1 labels) and an unlabeled set, together with the dense
inverse ``G = inv(L_uu)`` of the Laplacian restricted to the unlabeled
block.  ``G`` is computed once by a symmetric positive-definite solve and
afterwards kept current with a rank-one downdate each time a node is
labeled, so per-step maintenance is O(|u|^2) instead of O(|u|^3).  The
downdate writes the surviving block straight from slices of ``G`` (no
index gather), and node positions are found by bisection on the
ascending node tuples, so a commit does no O(|u|) Python work.

Everything is dense by design: the target graphs (a few thousand nodes)
fit comfortably, and the downdate rule is stated for dense inverses.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .config import DEFAULT_BETA, DEFAULT_TOLERANCES
from .errors import (
    DegeneracyError,
    InputError,
    ParseError,
    UnanchoredComponentError,
    UsageError,
)


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph on nodes ``0..n-1``.

    Edges are canonical ``(i, j, w)`` triples with ``i < j`` and ``w >= 0``;
    at most one edge per unordered pair, no self-loops.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if self.n < 1:
            raise InputError(f"graph needs at least one node, got n={self.n}")
        seen = set()
        for i, j, w in self.edges:
            if i == j:
                raise InputError(f"self-loop on node {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise InputError(f"edge ({i}, {j}) outside node range 0..{self.n - 1}")
            if i > j:
                raise InputError(f"edge ({i}, {j}) not canonical (need i < j)")
            if not np.isfinite(w) or w < 0:
                raise InputError(f"edge ({i}, {j}) has invalid weight {w}")
            if (i, j) in seen:
                raise InputError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))


def graph_from_edges(n: int, edges) -> Graph:
    """Build a :class:`Graph`, canonicalizing edge orientation."""
    canon = []
    for e in edges:
        if len(e) == 2:
            i, j, w = e[0], e[1], 1.0
        else:
            i, j, w = e
        if i > j:
            i, j = j, i
        canon.append((int(i), int(j), float(w)))
    return Graph(n=n, edges=tuple(canon))


@dataclass(frozen=True)
class Laplacian:
    """Dense combinatorial Laplacian with the strength parameter folded in.

    ``matrix`` holds ``beta * L + ridge * I``.  With ``ridge == 0`` the rows
    sum to zero and any connected component without a labeled node makes
    the unlabeled block singular; a positive ridge makes the block
    invertible unconditionally.
    """

    matrix: np.ndarray
    beta: float = DEFAULT_BETA
    ridge: float = 0.0

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def build_laplacian(graph: Graph, beta: float = DEFAULT_BETA, ridge: float = 0.0) -> Laplacian:
    """Assemble ``beta * L`` (plus optional ``ridge * I``) for a graph.

    ``L[i, j] = -w_ij`` off-diagonal and ``L[i, i] = sum_k w_ik``.
    """
    if beta <= 0:
        raise InputError(f"beta must be positive, got {beta}")
    if ridge < 0:
        raise InputError(f"ridge must be nonnegative, got {ridge}")
    n = graph.n
    m = np.zeros((n, n))
    for i, j, w in graph.edges:
        m[i, i] += w
        m[j, j] += w
        m[i, j] -= w
        m[j, i] -= w
    m *= beta
    if ridge:
        m[np.diag_indices(n)] += ridge
    m.setflags(write=False)
    return Laplacian(matrix=m, beta=beta, ridge=ridge)


def positive_components(lap: Laplacian) -> list[tuple[int, ...]]:
    """Connected components under strictly positive edge weights.

    Recovered from the matrix off-diagonals so it works for any state,
    ridged or not (the ridge only touches the diagonal).
    """
    n = lap.n
    m = lap.matrix
    seen = np.zeros(n, dtype=bool)
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            nbrs = np.flatnonzero(m[v] < 0)
            for w in nbrs:
                if not seen[w]:
                    seen[w] = True
                    stack.append(int(w))
        comps.append(tuple(sorted(comp)))
    return comps


@dataclass(frozen=True)
class LabelState:
    """Partition of the nodes plus the maintained inverse of ``L_uu``.

    ``labeled`` and ``unlabeled`` are ascending node tuples; ``labels`` is
    the +/-1 vector aligned with ``labeled``; ``inverse`` is
    ``G = inv(L_uu)`` with rows/columns aligned with ``unlabeled``.
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
            raise UsageError(f"node {node} is not unlabeled")
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

    @property
    def n(self) -> int:
        return self.lap.n

    def label_of(self, node: int) -> float:
        i = bisect.bisect_left(self.labeled, node)
        if i == len(self.labeled) or self.labeled[i] != node:
            raise UsageError(f"node {node} is not labeled")
        return float(self.labels[i])

    def cross_term(self) -> np.ndarray:
        """``L_ul @ y_l``, the labeled-to-unlabeled coupling vector."""
        lu = np.asarray(self.unlabeled, dtype=int)
        ll = np.asarray(self.labeled, dtype=int)
        return self.lap.matrix[np.ix_(lu, ll)] @ self.labels


def _check_labels(labels: np.ndarray) -> np.ndarray:
    y = np.asarray(labels, dtype=float)
    if y.ndim != 1:
        raise InputError("labels must be a 1-d vector")
    if not np.all(np.isin(y, (1.0, -1.0))):
        raise InputError("labels must be +1 or -1")
    return y


def init_label_state(lap: Laplacian, labeled, labels) -> LabelState:
    """Construct a state from scratch, inverting ``L_uu`` once.

    This is the O(n^3) entry cost; afterwards :func:`downdate_inverse`
    keeps the inverse current at O(|u|^2) per labeled node.  Fails with
    :class:`UnanchoredComponentError` if some connected component has no
    labeled node (singular block) and no ridge was requested.
    """
    labeled = tuple(sorted(int(v) for v in labeled))
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
    m = len(unlabeled)
    if m == 0:
        inv = np.zeros((0, 0))
    else:
        iu = np.asarray(unlabeled, dtype=int)
        # Gathered in Fortran order, so LAPACK factors it and solves against
        # the identity in place: no hidden copies of the (|u|, |u|) block.
        luu = lap.matrix.T[np.ix_(iu, iu)].T
        try:
            cho = scipy.linalg.cho_factor(luu, lower=True, overwrite_a=True)
        except scipy.linalg.LinAlgError as exc:
            raise DegeneracyError(f"L_uu is not positive definite: {exc}") from exc
        raw = scipy.linalg.cho_solve(cho, np.eye(m, order="F"), overwrite_b=True)
        del luu, cho  # the factor is dead; free it before the symmetric copy
        inv = raw + raw.T  # exact symmetry so columns and rows interchange
        inv /= 2.0
    inv.setflags(write=False)
    y = y.copy()
    y.setflags(write=False)
    return LabelState(lap=lap, labeled=labeled, labels=y, unlabeled=unlabeled, inverse=inv)


def downdate_inverse(state: LabelState, k: int, label: float) -> LabelState:
    """Move node ``k`` from unlabeled to labeled, updating the inverse.

    Uses the rank-one Schur-complement identity: deleting row/column ``k``
    of ``L_uu`` turns ``G`` into ``G' = G - G_{.k} G_{k.} / G_kk`` restricted
    to the survivors.  Cost O(|u|^2); the result matches a fresh inversion
    of the reduced block to machine precision.

    The (|u|-1)^2 result is allocated once: the outer product
    ``(col / pivot) col^T`` is written into it and then subtracted from the
    four blocks of ``G`` around row and column ``k``, in place.  These are
    the same two float operations per entry as gathering the survivors and
    subtracting ``np.outer``, so the bits are the same, without the
    gather's index arrays and copy.
    """
    qi = state.u_index(k)
    if label not in (1.0, -1.0, 1, -1):
        raise InputError(f"label must be +1 or -1, got {label}")
    g = state.inverse
    pivot = g[qi, qi]
    if pivot <= state.singular_floor:
        raise DegeneracyError(f"inverse diagonal at node {k} is {pivot:.3e}; cannot downdate")

    col = np.concatenate((g[:qi, qi], g[qi + 1:, qi]))
    new_inv = np.multiply((col / pivot)[:, None], col, out=np.empty((col.size, col.size)))
    before, after, rest = slice(None, qi), slice(qi + 1, None), slice(qi, None)
    for src_r, dst_r in ((before, before), (after, rest)):
        for src_c, dst_c in ((before, before), (after, rest)):
            dst = new_inv[dst_r, dst_c]
            np.subtract(g[src_r, src_c], dst, out=dst)
    new_inv.setflags(write=False)

    pos = bisect.bisect_left(state.labeled, k)
    new_labeled = state.labeled[:pos] + (k,) + state.labeled[pos:]
    new_labels = np.concatenate((state.labels[:pos], (float(label),), state.labels[pos:]))
    new_labels.setflags(write=False)
    new_unlabeled = state.unlabeled[:qi] + state.unlabeled[qi + 1:]
    return LabelState(
        lap=state.lap,
        labeled=new_labeled,
        labels=new_labels,
        unlabeled=new_unlabeled,
        inverse=new_inv,
    )


def inverse_residual(state: LabelState) -> float:
    """Max-abs entry of ``G @ L_uu - I``; a debug/test invariant check."""
    m = len(state.unlabeled)
    if m == 0:
        return 0.0
    iu = np.asarray(state.unlabeled, dtype=int)
    luu = state.lap.matrix[np.ix_(iu, iu)]
    return float(np.max(np.abs(state.inverse @ luu - np.eye(m))))


def read_edge_list(path, n: int | None = None) -> Graph:
    """Parse the text edge-list format.

    One edge per line, ``i j [w]`` with 1-based node ids and an optional
    weight defaulting to 1.0; ``#`` starts a comment line.  ``n`` defaults
    to the largest node id seen.
    """
    path = str(path)
    edges: list[tuple[int, int, float]] = []
    seen: set[tuple[int, int]] = set()
    max_id = 0
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
    if n is None:
        n = max_id
    if max_id > n:
        raise InputError(f"edge references node {max_id} but n={n}")
    if n < 1:
        raise InputError("edge list is empty and no n given")
    return Graph(n=n, edges=tuple(edges))
