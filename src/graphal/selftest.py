"""Randomized cross-checks of the fast paths against independent oracles.

Each check pits an incremental/closed-form route against a from-scratch
computation that shares no code with it:

* downdate        -- rank-one inverse update vs. fresh factorization
* long-downdate   -- downdates until every node is labeled, on graphs
                     with edge weights spanning 1e-6..1e6, vs. a
                     subtraction-free inverse every ten commits (not
                     in :func:`run_selftest`: it fails at present, see
                     :func:`check_long_downdate`)
* lookahead       -- closed-form lookahead vectors vs. recomputing
                     marginals on a state that actually absorbed (q, y)
* one-unlabeled   -- logistic decision-value marginal vs. exact
                     enumeration (the approximation is exact when only
                     one node is free)
* eem-bruteforce  -- expected post-query risk vs. literal expectation
                     over the query outcome and every completion,
                     counting indicator errors
* laplacian-blocks -- ``L_uu`` and ``L_ul`` scattered from the edges vs.
                     slices of the dense one-edge-at-a-time assembly,
                     bit for bit
* denominator-bound -- the floor that a state's ``error_bound`` proves
                     for its lookahead denominators vs. every computed
                     one, along commits that label the whole graph

Each check yields one deviation per case, and :func:`_check` reports
their maximum.  A NaN deviation propagates into that maximum, which then
fails the check.  A case that raises :class:`DegeneracyError` (how the
guards answer a NaN or a vanishing pivot in the inverse) ends the check as
failed, and the report carries the error's text, node included.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.special

from .config import DEFAULT_TOLERANCES
from .errors import DegeneracyError, UsageError
from .graph_core import (
    Graph,
    LabelState,
    build_laplacian,
    dense_laplacian,
    downdate_inverse,
    graph_from_edges,
    init_label_state,
)
from .inference import MarginalKind, exact_bmrf_marginals, tsa_marginals
from .eem import lookahead_risk, tsa_lookahead_decisions, zlg_lookahead_harmonic
from .inference import lp_harmonic


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one oracle comparison over a graph corpus."""

    name: str
    cases: int
    max_deviation: float
    tolerance: float
    error: str = ""  # a DegeneracyError that ended the corpus early

    @property
    def passed(self) -> bool:
        return not self.error and self.max_deviation <= self.tolerance


def _check(name: str, tolerance: float):
    """Turn a generator of per-case deviations into ``check(rng, graphs) -> CheckResult``.

    ``np.max`` propagates NaN, so a case whose deviation is NaN fails; a
    case that raises :class:`DegeneracyError` ends the corpus, and the
    result fails with the error's text.
    """
    def wrap(cases):
        @functools.wraps(cases)
        def check(rng: np.random.Generator, graphs: int) -> CheckResult:
            devs, error = [], ""
            try:
                devs.extend(cases(rng, graphs))
            except DegeneracyError as exc:
                error = str(exc)
            return CheckResult(name, len(devs), float(np.max(devs, initial=0.0)), tolerance, error)
        return check
    return wrap


def random_connected_graph(rng: np.random.Generator, n_max: int = 40, n_min: int = 4) -> Graph:
    """Random spanning tree plus extra edges; weights uniform in (0, 2].

    Connectivity by construction, so a single labeled node anchors every
    component and all the positive-definite machinery applies.
    """
    n = int(rng.integers(n_min, n_max + 1))
    edges = {}
    for v in range(1, n):
        u = int(rng.integers(v))
        edges[(u, v)] = 2.0 * (1.0 - rng.random())  # in (0, 2]
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        a, b = rng.integers(n), rng.integers(n)
        a, b = int(min(a, b)), int(max(a, b))
        if a != b and (a, b) not in edges:
            edges[(a, b)] = 2.0 * (1.0 - rng.random())
    return graph_from_edges(n, [(i, j, w) for (i, j), w in edges.items()])


def random_labeled_state(
    rng: np.random.Generator, graph: Graph, min_unlabeled: int = 2
) -> LabelState:
    """Random labeled subset (uniform size) with random +/-1 labels."""
    n = graph.n
    n_labeled = int(rng.integers(1, n - min_unlabeled + 1))
    nodes = rng.permutation(n)[:n_labeled]
    labels = rng.choice([-1.0, 1.0], size=n_labeled)
    return init_label_state(build_laplacian(graph), nodes, labels)


@_check("downdate-equivalence", DEFAULT_TOLERANCES.equivalence)
def check_downdate(rng: np.random.Generator, graphs: int):
    """Inverse after a downdate vs. fresh inversion of the reduced block."""
    for _ in range(graphs):
        graph = random_connected_graph(rng)
        state = random_labeled_state(rng, graph)
        k = state.unlabeled[int(rng.integers(len(state.unlabeled)))]
        y = float(rng.choice([-1.0, 1.0]))
        fast = downdate_inverse(state, k, y)
        fresh = init_label_state(state.lap, fast.labeled, fast.labels)
        yield np.max(np.abs(fast.inverse - fresh.inverse))


LONG_DOWNDATE_EVERY = 10  # commits between comparisons in check_long_downdate


def grounded_inverse(graph: Graph, labeled) -> np.ndarray:
    """``inv(L_uu)`` to a few ulps per entry, whatever the conditioning.

    Gaussian elimination on ``L_uu`` kept as its off-diagonal weights
    among the unlabeled nodes plus each node's total weight to the
    labeled ones (``L_uu``'s row sums), so that each elimination step only
    adds, multiplies and divides nonnegative numbers.  The inverse
    ``X^T diag(1/d) X`` of the unit factor ``X = L^-1`` is nonnegative
    too.  With no cancellation anywhere, every entry carries a relative
    error of O(|u|) roundings, where a Cholesky inverse can be off by up to
    ``cond(L_uu) * eps`` of ``max diag(G)``.
    """
    weights = np.zeros((graph.n, graph.n))
    for i, j, w in graph.edges:
        weights[i, j] = weights[j, i] = w
    lab = sorted(int(v) for v in labeled)
    unl = [v for v in range(graph.n) if v not in set(lab)]
    m = len(unl)
    off = weights[np.ix_(unl, unl)]  # its diagonal is never read
    to_labeled = weights[np.ix_(unl, lab)].sum(axis=1)
    factor = np.zeros((m, m))  # minus the strict lower part of L
    pivots = np.zeros(m)
    for p in range(m):
        rest = slice(p + 1, m)
        pivots[p] = to_labeled[p] + off[p, rest].sum()
        col = off[rest, p] / pivots[p]
        factor[rest, p] = col
        off[rest, rest] += np.outer(col, off[p, rest])
        to_labeled[rest] += col * to_labeled[p]
    x = np.eye(m)
    for i in range(1, m):
        x[i, :i] = factor[i, :i] @ x[:i, :i]
    return x.T @ (x / pivots[:, None])


def log_uniform_graph(rng: np.random.Generator) -> Graph:
    """A corpus graph of 50-70 nodes with edge weights log-uniform over 1e-6..1e6."""
    tree = random_connected_graph(rng, n_max=70, n_min=50)
    weights = 10.0 ** rng.uniform(-6.0, 6.0, size=len(tree.edges))
    return graph_from_edges(tree.n, [(i, j, w) for (i, j, _), w in zip(tree.edges, weights)])


@_check("long-downdate-relative", 1e-12)
def check_long_downdate(rng: np.random.Generator, graphs: int):
    """Downdates until every node is labeled vs. accurate inversions on the way.

    Graphs of 50-70 nodes with edge weights log-uniform over 1e-6..1e6, so
    the inverse spans many orders of magnitude and rounding has every
    chance to build up.  Every ``LONG_DOWNDATE_EVERY`` commits the
    maintained inverse is compared with :func:`grounded_inverse`,
    relative to its largest diagonal.  A fresh ``init_label_state`` is no
    reference here: at this conditioning it is itself off by up to 1.4e-4.

    It fails at present, by up to about 1e-5: the first factorization
    carries the Cholesky error above, and each downdate's rounding stays
    at the scale ``G`` had when it was made, so it grows relative to
    ``max diag(G)`` when labeling a weakly attached node shrinks it.
    """
    for _ in range(graphs):
        graph = log_uniform_graph(rng)
        order = [int(v) for v in rng.permutation(graph.n)]
        state = init_label_state(build_laplacian(graph), order[:1], [1.0])
        for t, k in enumerate(order[1:], start=1):
            state = downdate_inverse(state, k, float(rng.choice([-1.0, 1.0])))
            if t % LONG_DOWNDATE_EVERY or not state.unlabeled:
                continue
            accurate = grounded_inverse(graph, state.labeled)
            rel = (state.inverse - accurate) / accurate.diagonal().max()
            yield np.max(np.abs(rel))


@_check("lookahead-equivalence", DEFAULT_TOLERANCES.equivalence)
def check_lookahead(rng: np.random.Generator, graphs: int):
    """Closed-form lookahead vectors vs. recompute-from-scratch, all (q, y)."""
    for _ in range(graphs):
        graph = random_connected_graph(rng)
        state = random_labeled_state(rng, graph)
        f = tsa_marginals(state).values
        h = lp_harmonic(state)
        for q in state.unlabeled:
            qi = state.u_index(q)
            keep = np.arange(len(state.unlabeled)) != qi
            for y in (1.0, -1.0):
                fast_f = tsa_lookahead_decisions(state, f, q, y)[keep]
                fast_h = zlg_lookahead_harmonic(state, h, q, y)[keep]
                absorbed = downdate_inverse(state, q, y)
                fresh_f = tsa_marginals(absorbed).values
                fresh_h = lp_harmonic(absorbed)
                yield np.maximum(
                    np.max(np.abs(fast_f - fresh_f), initial=0.0),
                    np.max(np.abs(fast_h - fresh_h), initial=0.0),
                )


@_check("one-unlabeled-exactness", 1e-12)
def check_single_unlabeled(rng: np.random.Generator, graphs: int):
    """With one free node the logistic marginal must equal enumeration."""
    for _ in range(graphs):
        graph = random_connected_graph(rng, n_max=20)
        n = graph.n
        free = int(rng.integers(n))
        labeled = [v for v in range(n) if v != free]
        labels = rng.choice([-1.0, 1.0], size=n - 1)
        lap = build_laplacian(graph)
        state = init_label_state(lap, labeled, labels)
        approx = float(tsa_marginals(state).prob_plus[0])
        exact = float(exact_bmrf_marginals(lap, labeled, labels).prob_plus[0])
        yield abs(approx - exact)


def brute_force_lookahead_risk(state: LabelState, q: int) -> float:
    """Literal expected post-query risk: outcome- and completion-expectation.

    For each possible observed label y of q, enumerate every completion of
    the remaining unlabeled nodes under the conditioned model, take the
    per-node majority-vote prediction, and average the *counted* errors.
    No risk shortcut, no shared code with the incremental engine.
    """
    lap = state.lap
    mat = dense_laplacian(lap)
    base = exact_bmrf_marginals(lap, state.labeled, state.labels)
    w_plus = float(base.prob_plus[base.nodes.index(q)])

    total = 0.0
    for y, w in ((1.0, w_plus), (-1.0, 1.0 - w_plus)):
        if w == 0.0:
            continue
        labeled = tuple(sorted(state.labeled + (q,)))
        labels = []
        it = iter(state.labels)
        for v in labeled:
            labels.append(y if v == q else next(it))
        labels = np.asarray(labels)
        rest = [v for v in range(lap.n) if v not in set(labeled)]
        m = len(rest)
        if m == 0:
            continue
        iu = np.asarray(rest, dtype=int)
        il = np.asarray(labeled, dtype=int)
        a = mat[np.ix_(iu, iu)]
        b = mat[np.ix_(iu, il)] @ labels
        idx = np.arange(1 << m, dtype=np.int64)
        signs = (((idx[:, None] >> np.arange(m)) & 1) * 2 - 1).astype(float)
        logw = -(0.5 * np.einsum("ij,ij->i", signs @ a, signs) + signs @ b)
        probs = np.exp(logw - scipy.special.logsumexp(logw))
        marg_plus = probs @ (signs > 0)
        pred = np.where(marg_plus >= 0.5, 1.0, -1.0)
        errors_per_completion = (signs != pred[None, :]).sum(axis=1)
        total += w * float(probs @ errors_per_completion) / lap.n
    return total


@_check("eem-bruteforce-equivalence", 1e-10)
def check_eem_bruteforce(rng: np.random.Generator, graphs: int):
    """Fast exact-posterior lookahead risk vs. the literal expectation."""
    for _ in range(graphs):
        graph = random_connected_graph(rng, n_max=12)
        state = random_labeled_state(rng, graph)
        for q in state.unlabeled:
            fast = lookahead_risk(state, MarginalKind.EXACT, q)
            literal = brute_force_lookahead_risk(state, q)
            yield abs(fast - literal)


@_check("laplacian-blocks-bitwise", 0.0)
def check_laplacian_blocks(rng: np.random.Generator, graphs: int):
    """Scattered ``L_uu`` and ``L_ul`` vs. slices of :func:`dense_laplacian`, bit for bit.

    Weights include 0, 5e-324 and 1e-300 and beta spans 1e-3..1e3, so some
    entries are -0.0; the deviation counts the entries whose bits differ.
    """
    for _ in range(graphs):
        tree = random_connected_graph(rng)
        weights = rng.choice([0.0, 5e-324, 1e-300, 1.0, 2.0 * (1.0 - rng.random())], size=len(tree.edges))
        graph = graph_from_edges(tree.n, [(i, j, w) for (i, j, _), w in zip(tree.edges, weights)])
        lap = build_laplacian(graph, float(rng.choice([1e-3, 0.5, 1e3])), float(rng.choice([0.0, 0.25])))
        mat = dense_laplacian(lap)
        labeled = np.sort(rng.permutation(graph.n)[: int(rng.integers(graph.n + 1))])
        unlabeled = np.setdiff1d(np.arange(graph.n), labeled)
        for cols in (unlabeled, labeled):
            fast, ref = lap.block(unlabeled, cols), mat[np.ix_(unlabeled, cols)]
            yield np.count_nonzero(fast.view(np.uint64) != ref.view(np.uint64))


@_check("denominator-bound", 0.0)
def check_denominator_bound(rng: np.random.Generator, graphs: int):
    """Computed lookahead denominators vs. the floor the error bound proves.

    On a corpus graph and a :func:`log_uniform_graph` each round, commits
    in random order until every node is labeled.  For each state whose
    ``error_bound`` describes its inverse, the proven floor of a computed
    denominator is ``1 / (a/2 + e)`` less three roundings, ``4 u max
    diag(G)`` (``eem._bounded``); the denominators ``G_kk - G_qk^2 /
    G_qq``, q != k, come from one whole-matrix expression.  The deviation
    is how far the smallest lies below the floor, over ``max diag(G)``.
    The log-uniform graphs are far too ill-conditioned for the bound's
    hypotheses today, so their states carry none and add no case.
    """
    for _ in range(graphs):
        for graph in (random_connected_graph(rng), log_uniform_graph(rng)):
            order = [int(v) for v in rng.permutation(graph.n)]
            state = init_label_state(build_laplacian(graph), order[:1], [1.0])
            for k in order[1:]:
                bound, g = state.error_bound, state.inverse
                if bound is not None and bound[0] is g and len(g) > 1:
                    d = g.diagonal()
                    denominators = d[None, :] - g * g / d[:, None]
                    np.fill_diagonal(denominators, np.inf)
                    floor = 1.0 / (0.5 * bound[1] + bound[2]) - 4.0 * 2.0 ** -53 * d.max()
                    yield max(0.0, floor - denominators.min()) / d.max()
                state = downdate_inverse(state, k, float(rng.choice([-1.0, 1.0])))


def run_selftest(seed: int = 0, graphs: int = 50) -> list[CheckResult]:
    """All six oracle checks on independent seed streams."""
    if graphs < 1:
        raise UsageError(f"need at least 1 graph per check, got {graphs}")
    streams = np.random.SeedSequence(seed).spawn(6)
    return [
        check_downdate(np.random.default_rng(streams[0]), graphs),
        check_lookahead(np.random.default_rng(streams[1]), graphs),
        check_single_unlabeled(np.random.default_rng(streams[2]), graphs),
        check_eem_bruteforce(np.random.default_rng(streams[3]), min(graphs, 20)),
        check_laplacian_blocks(np.random.default_rng(streams[4]), graphs),
        check_denominator_bound(np.random.default_rng(streams[5]), graphs),
    ]


def format_report(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        verdict = "pass" if r.passed else "FAIL"
        lines.append(
            f"{r.name:28s} cases={r.cases:<5d} max-dev={r.max_deviation:.3e} "
            f"tol={r.tolerance:.0e}  {verdict}" + (f"  ({r.error})" if r.error else "")
        )
    return "\n".join(lines)
