"""Lookahead risk, the closed-form updates, and query selection."""
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from graphal.errors import DegeneracyError, UsageError
from graphal.graph_core import (
    LabelState,
    build_laplacian,
    downdate_inverse,
    graph_from_edges,
    init_label_state,
)
from graphal.inference import (
    MarginalKind,
    lp_harmonic,
    tsa_marginals,
    zlg_marginals,
)
from graphal import eem
from graphal.eem import (
    BLOCK_CELLS,
    argmin_ties,
    lookahead_risk,
    tsa_lookahead_decisions,
    tsa_risk_table,
    zlg_lookahead_harmonic,
    zlg_risk_table,
)
from graphal.selftest import random_connected_graph, random_labeled_state
from graphal.strategies import (
    MulticlassState,
    StrategyKind,
    init_multiclass,
    multiclass_risk_table,
    next_query,
    next_query_multiclass,
    start_binary,
    start_multiclass,
    update,
    update_multiclass,
)


def chain_state(n, labeled, labels):
    g = graph_from_edges(n, [(i, i + 1, 1.0) for i in range(n - 1)])
    return init_label_state(build_laplacian(g), labeled, labels)


@pytest.fixture
def demo_chain():
    return chain_state(18, [0, 10], [1.0, -1.0])


# --- zero-one risk ----------------------------------------------------------


def zero_one_risk(marginals, n):
    """Expected number of sign errors over the whole graph, divided by n: the
    readable form of the risk the tables sum.

    Each unlabeled node contributes ``min(p, 1-p)``; labeled nodes
    contribute zero but still count in the denominator.
    """
    if n < 1:
        raise UsageError(f"need n >= 1, got {n}")
    p = marginals.prob_plus
    if p.size == 0:
        return 0.0
    return float(np.minimum(p, 1.0 - p).sum() / n)


def test_zero_one_risk_hand_values(demo_chain):
    marg = tsa_marginals(demo_chain)
    expected = float(np.minimum(marg.prob_plus, 1 - marg.prob_plus).sum()) / 18.0
    assert zero_one_risk(marg, 18) == pytest.approx(expected, abs=1e-15)


def test_zero_one_risk_certain_marginals_vanish(demo_chain):
    marg = zlg_marginals(chain_state(2, [0], [1.0]))
    assert zero_one_risk(marg, 2) == 0.0
    with pytest.raises(UsageError):
        zero_one_risk(marg, 0)


def test_zero_one_risk_counts_labeled_in_denominator():
    # same marginals, bigger denominator -> proportionally smaller risk
    marg = tsa_marginals(chain_state(4, [0], [1.0]))
    assert zero_one_risk(marg, 8) == pytest.approx(zero_one_risk(marg, 4) / 2)


# --- closed-form updates ----------------------------------------------------


def test_decision_update_matches_recompute(demo_chain):
    f = tsa_marginals(demo_chain).values
    qi = demo_chain.u_index(5)  # 1-based node 6
    fast = tsa_lookahead_decisions(demo_chain, f, 5, 1.0)
    assert fast[qi] == np.inf
    fresh = tsa_marginals(downdate_inverse(demo_chain, 5, 1.0)).values
    keep = np.arange(len(demo_chain.unlabeled)) != qi
    assert np.max(np.abs(fast[keep] - fresh)) <= 1e-9
    # negative branch carries the opposite sentinel
    assert tsa_lookahead_decisions(demo_chain, f, 5, -1.0)[qi] == -np.inf


def test_decision_update_symmetric_after_labeling():
    # 3-chain labeled {1}; hypothetically labeling node 3 with -1 makes
    # node 2 a balanced midpoint
    state = chain_state(3, [0], [1.0])
    f = tsa_marginals(state).values
    fast = tsa_lookahead_decisions(state, f, 2, -1.0)
    assert abs(fast[state.u_index(1)]) <= 1e-12


def test_harmonic_update_matches_recompute(demo_chain):
    h = lp_harmonic(demo_chain)
    qi = demo_chain.u_index(5)
    fast = zlg_lookahead_harmonic(demo_chain, h, 5, 1.0)
    assert fast[qi] == 1.0
    fresh = lp_harmonic(downdate_inverse(demo_chain, 5, 1.0))
    keep = np.arange(len(demo_chain.unlabeled)) != qi
    assert np.max(np.abs(fast[keep] - fresh)) <= 1e-9


def test_updates_require_unlabeled_node(demo_chain):
    f = tsa_marginals(demo_chain).values
    with pytest.raises(UsageError):
        tsa_lookahead_decisions(demo_chain, f, 0, 1.0)


def test_degenerate_pivot_is_reported():
    state = chain_state(4, [0], [1.0])

    def with_inverse(inverse):
        return LabelState(
            lap=state.lap,
            labeled=state.labeled,
            labels=state.labels,
            unlabeled=state.unlabeled,
            inverse=inverse,
        )

    broken = with_inverse(np.zeros_like(state.inverse))
    with pytest.raises(DegeneracyError):
        tsa_lookahead_decisions(broken, np.zeros(3), 1, 1.0)
    with pytest.raises(DegeneracyError):
        zlg_lookahead_harmonic(broken, np.zeros(3), 1, 1.0)
    with pytest.raises(DegeneracyError):
        tsa_risk_table(broken)
    with pytest.raises(DegeneracyError):
        zlg_risk_table(broken)
    for kind in (StrategyKind.TSA, StrategyKind.ZLG):
        with pytest.raises(DegeneracyError, match="inverse diagonal vanished at node 1"):
            multiclass_risk_table(two_class(broken), kind)

    # unit diagonal, but G_kk - G_kq^2 / G_qq = 0 off the candidate
    flat = with_inverse(np.ones_like(state.inverse))
    with pytest.raises(DegeneracyError, match="candidate 1 at node 2"):
        tsa_risk_table(flat)
    with pytest.raises(DegeneracyError, match="candidate 1 at node 2"):
        tsa_lookahead_decisions(flat, np.zeros(3), 1, 1.0)
    with pytest.raises(DegeneracyError, match="candidate 1 at node 2"):
        multiclass_risk_table(two_class(flat), StrategyKind.TSA)


def two_class(state):
    """``state``'s partition and inverse as a two-class one-vs-rest state."""
    labels = np.where(state.labels[:, None] > 0, [[1.0, -1.0]], [[-1.0, 1.0]])
    return MulticlassState(state.lap, state.labeled, labels, state.unlabeled, state.inverse)


@pytest.mark.parametrize("classes", [1, 3], ids=["binary", "one-vs-rest-3"])
def test_a_vanished_diagonal_fails_a_tsa_session_start_by_node(classes):
    state = chain_state(4, [0], [1.0])
    if classes > 1:
        state = init_multiclass(state.lap, [0], [0], classes)
    broken = replace(state, inverse=np.zeros_like(state.inverse))
    start = start_binary if classes == 1 else start_multiclass
    with pytest.raises(DegeneracyError, match="^inverse diagonal vanished at node 1$"):
        start(broken, StrategyKind.TSA)


def test_nan_in_the_inverse_is_reported_not_spread():
    state = chain_state(6, [0], [1.0])  # unlabeled nodes 1..5

    def with_inverse(inverse):
        return LabelState(state.lap, state.labeled, state.labels, state.unlabeled, inverse)

    g = state.inverse.copy()
    g[2, 2] = np.nan  # node 3's diagonal
    broken = with_inverse(g)
    f, h = tsa_marginals(state).values, lp_harmonic(state)
    for call in (
        broken.checked_diagonal,
        lambda: tsa_risk_table(broken, f),
        lambda: zlg_risk_table(broken, h),
        lambda: next_query(start_binary(broken, StrategyKind.TSA)),
    ):
        with pytest.raises(DegeneracyError, match="inverse diagonal vanished at node 3"):
            call()
    with pytest.raises(DegeneracyError, match="inverse diagonal at node 3 is nan"):
        tsa_lookahead_decisions(broken, f, 3, 1.0)
    with pytest.raises(DegeneracyError, match="inverse diagonal at node 3 is nan"):
        zlg_lookahead_harmonic(broken, h, 3, 1.0)
    with pytest.raises(DegeneracyError, match="inverse diagonal at node 3 is nan; cannot downdate"):
        downdate_inverse(broken, 3, 1.0)

    g = state.inverse.copy()
    g[1, 3] = np.nan  # G_qk for candidate node 2 at node 4
    with pytest.raises(DegeneracyError, match="candidate 2 at node 4"):
        tsa_risk_table(with_inverse(g), f)


def test_a_vanishing_denominator_is_named_alike_in_every_layout():
    # One denominator G_kk - G_jk^2 / G_jj rounds to about 0 (G_kj keeps its
    # value, so (k, j) stays healthy).  A table's candidate-major blocks, a
    # bound-sweep chunk read node-major and the one-row lookahead all name
    # that (candidate, node) pair.
    state = init_label_state(build_laplacian(random_connected_graph(np.random.default_rng(5), 30, 30)), [0], [1.0])
    m = len(state.unlabeled)
    j, k = 4, m - 3
    g = state.inverse.copy()
    g[j, k] = np.sqrt(g[j, j] * g[k, k])
    flat = LabelState(state.lap, state.labeled, state.labels, state.unlabeled, g)
    f = tsa_marginals(state).values
    want = f"lookahead denominator vanished for candidate {state.unlabeled[j]} at node {state.unlabeled[k]}"

    rows, cols = np.arange(m), np.array([0, k, j])  # every candidate, a chunk of three nodes
    chunk = g[np.ix_(rows, cols)].T  # chunk[c, q] = G_qk for node cols[c]

    def node_major():
        eem.lookahead_denominators(flat, np.diag(g), chunk, rows[None, :], cols[:, None],
                                   (np.arange(cols.size), cols), np.empty(chunk.shape))

    for form in (
        lambda: tsa_risk_table(flat, f),
        node_major,
        lambda: tsa_lookahead_decisions(flat, f, state.unlabeled[j], 1.0),
    ):
        with pytest.raises(DegeneracyError) as got:
            form()
        assert str(got.value) == want


# --- lookahead risk and the all-candidates tables ----------------------------


def test_risk_tables_match_per_candidate_form(demo_chain):
    tsa_table = tsa_risk_table(demo_chain)
    zlg_table = zlg_risk_table(demo_chain)
    for i, q in enumerate(demo_chain.unlabeled):
        assert tsa_table[i] == pytest.approx(
            lookahead_risk(demo_chain, MarginalKind.TSA, q), abs=1e-12
        )
        assert zlg_table[i] == pytest.approx(
            lookahead_risk(demo_chain, MarginalKind.ZLG, q), abs=1e-12
        )


def test_risk_tables_on_random_graphs_match_reference():
    rng = np.random.default_rng(29)
    for _ in range(10):
        state = random_labeled_state(rng, random_connected_graph(rng))
        table = tsa_risk_table(state)
        ztable = zlg_risk_table(state)
        for i, q in enumerate(state.unlabeled):
            assert table[i] == pytest.approx(
                lookahead_risk(state, MarginalKind.TSA, q), abs=1e-10
            )
            assert ztable[i] == pytest.approx(
                lookahead_risk(state, MarginalKind.ZLG, q), abs=1e-10
            )
        assert np.all(table >= 0.0) and np.all(table <= 1.0)
        assert np.all(ztable >= 0.0) and np.all(ztable <= 1.0)


def test_demo_chain_lookahead_minimum_at_node_16(demo_chain):
    # among the right-tail candidates, 1-based node 16 is the strict winner
    candidates = list(range(11, 18))
    risks = [lookahead_risk(demo_chain, MarginalKind.TSA, q) for q in candidates]
    best = int(np.argmin(risks))
    assert candidates[best] == 15
    sorted_r = sorted(risks)
    assert sorted_r[1] - sorted_r[0] > 1e-6  # strict, not a tie

    exact_risks = [lookahead_risk(demo_chain, MarginalKind.EXACT, q) for q in candidates]
    assert candidates[int(np.argmin(exact_risks))] == 15


def session_after_downdates(n, seed, classes=1):
    """A tsa session on an n-node random graph after 8 commits: binary, or
    one-vs-rest over ``classes`` classes."""
    rng = np.random.default_rng(seed)
    graph = random_connected_graph(rng, n_max=n, n_min=n)
    lap = build_laplacian(graph)
    if classes > 1:
        truth = rng.integers(classes, size=graph.n)
        session = start_multiclass(init_multiclass(lap, [0], [truth[0]], classes), StrategyKind.TSA)
        for _ in range(8):
            q = session.mstate.unlabeled[int(rng.integers(len(session.mstate.unlabeled)))]
            session = update_multiclass(session, q, int(truth[q]))
        return session
    truth = np.where(rng.random(graph.n) < 0.5, 1.0, -1.0)
    session = start_binary(init_label_state(lap, [0], [truth[0]]), StrategyKind.TSA)
    for _ in range(8):
        q = session.state.unlabeled[int(rng.integers(len(session.state.unlabeled)))]
        session = update(session, q, truth[q])
    return session


@pytest.mark.parametrize("classes", [1, 2, 3, 4], ids=["binary", "one-vs-rest-2", "one-vs-rest-3", "one-vs-rest-4"])
def test_risk_tables_do_not_depend_on_the_block_layout(monkeypatch, classes):
    # The full tables and every ``candidates=`` subset are bitwise the same
    # in the default layout, one candidate per block, an odd block height
    # and one block for all.  Binary zlg has no subset form.
    session = session_after_downdates(400, 31, classes)
    if classes == 1:
        state = session.state
        wholes = [lambda: zlg_risk_table(state, h=session.harmonic)]
        subsettable = [lambda idx: tsa_risk_table(state, f=session.decisions, candidates=idx)]
    else:
        state = session.mstate
        wholes = []
        subsettable = [
            lambda idx, kind=kind: multiclass_risk_table(
                session.mstate, kind, decisions=session.decisions, harmonics=session.harmonics, candidates=idx
            )
            for kind in (StrategyKind.TSA, StrategyKind.ZLG)
        ]
    m = len(state.unlabeled)
    assert 1 < eem.block_rows(m, classes) < m  # the default sweep spans several blocks
    assert np.array_equal(state.inverse, state.inverse.T)  # downdates keep G exactly symmetric

    rng = np.random.default_rng(4)
    subsets = (
        np.array([m - 1, 0, 5]),
        rng.choice(m, 50, replace=False),
        np.arange(m)[::-3],
        np.array([], dtype=int),
        np.array([-1, 3 - m]),  # negative positions read as numpy indexing reads them
    )

    def tables():
        return [table() for table in wholes] + [table(None) for table in subsettable]

    def subset_tables():
        return [[table(idx) for idx in subsets] for table in subsettable]

    default = tables()
    layouts = []
    for block, cells, rows in ((eem.BLOCK, 1, 1), (eem.BLOCK, 7 * m, 7), (m * classes, m * m, m)):
        monkeypatch.setattr(eem, "BLOCK", block)
        monkeypatch.setattr(eem, "BLOCK_CELLS", cells)
        assert eem.block_rows(m, classes) == rows
        layouts.append((tables(), subset_tables()))
    monkeypatch.undo()
    layouts.append((default, subset_tables()))
    for layout, subset_layout in layouts:
        for got, want in zip(layout, default):
            assert np.array_equal(got, want)
        for per_subset, want in zip(subset_layout, default[len(wholes):]):
            for idx, got in zip(subsets, per_subset):
                assert np.array_equal(got, want[idx])
    for table in subsettable:
        with pytest.raises(IndexError):
            table(np.array([m]))


def test_binary_risk_table_scratch_is_bounded_by_the_cell_budget():
    # A call holds two BLOCK_CELLS-bounded slabs (120 x 299 here), a few
    # |u|-vectors and numpy's ufunc buffer; 192-row blocks would not fit.
    state = init_label_state(
        build_laplacian(random_connected_graph(np.random.default_rng(2), 300, 300)), [0], [1.0]
    )
    m = len(state.unlabeled)
    h = lp_harmonic(state)
    f = tsa_marginals(state, h).values
    budget = (1.1 * (2 * BLOCK_CELLS + 16 * m) + np.getbufsize()) * 8
    for table, vector in ((tsa_risk_table, f), (zlg_risk_table, h)):
        tracemalloc.start()
        try:
            table(state, vector)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < budget, f"{table.__name__} peak {peak / 8:.0f} doubles"


# --- selection and tie-breaking ----------------------------------------------


def test_select_query_returns_risk_minimizer(demo_chain):
    session = start_binary(demo_chain, StrategyKind.TSA)
    node = next_query(session, np.random.default_rng(0))
    assert node == demo_chain.unlabeled[int(np.argmin(tsa_risk_table(demo_chain)))]
    # deterministic under a fixed seed
    assert next_query(session, np.random.default_rng(0)) == node


def test_select_query_needs_candidates():
    state = chain_state(2, [0], [1.0])
    exhausted = start_binary(downdate_inverse(state, 1, 1.0), StrategyKind.TSA)
    with pytest.raises(UsageError):
        next_query(exhausted)


def test_a_fully_labeled_state_has_empty_tables_no_survivors_and_no_query():
    # One empty rule: the diagonal and every risk table are empty, binary
    # and one-vs-rest, and nothing is pruned (no record is even built);
    # only the selection raises.
    state = chain_state(3, [0, 1, 2], [1.0, -1.0, 1.0])
    mstate = init_multiclass(state.lap, [0, 1, 2], [0, 1, 2], 3)
    assert state.checked_diagonal().shape == (0,)

    def build():
        raise AssertionError("a table with no candidate needs no record")

    assert eem.block_rows(0) == eem.block_rows(0, 3) == 0
    assert eem.survivors(state, build) is None
    assert eem.survivors(mstate, build) is None
    for table in (
        tsa_risk_table(state),
        zlg_risk_table(state),
        multiclass_risk_table(mstate, StrategyKind.TSA),
        multiclass_risk_table(mstate, StrategyKind.ZLG),
    ):
        assert table.shape == (0,)
    for session, select in ((start_binary(state, StrategyKind.TSA), next_query),
                            (start_multiclass(mstate, StrategyKind.TSA), next_query_multiclass)):
        with pytest.raises(UsageError, match="no unlabeled nodes left to query"):
            select(session)


def test_argmin_ties_tolerance_and_determinism():
    v = np.array([3.0, 1.0, 1.0 + 1e-15, 2.0])
    assert argmin_ties(v, None) == 1  # first of the tied pair without an rng
    picks = {argmin_ties(v, np.random.default_rng(s)) for s in range(32)}
    assert picks == {1, 2}
    w = np.array([5.0, 4.0, 4.0 + 1e-6])  # outside tolerance: never tied
    assert all(argmin_ties(w, np.random.default_rng(s)) == 1 for s in range(16))
    assert argmin_ties(-w, None) == 0  # maxima are picked as minima of the negation


def test_argmin_ties_names_a_nan_and_skips_infinities():
    with pytest.raises(DegeneracyError, match="score of candidate 0 is NaN"):
        argmin_ties(np.array([np.nan, 1.0]))
    with pytest.raises(DegeneracyError, match="score of candidate 7 is NaN"):
        argmin_ties(np.array([1.0, np.nan, np.nan]), np.random.default_rng(0), nodes=(3, 7, 9))
    v = np.array([np.inf, 2.0, np.inf, 2.0])
    assert argmin_ties(v, None) == 1
    assert {argmin_ties(v, np.random.default_rng(s)) for s in range(16)} == {1, 3}


def test_tie_selection_uniform_on_featureless_graph():
    # no edges at all: with a ridge the problem is well posed and every
    # candidate is interchangeable, so selection must be uniform
    g = graph_from_edges(7, [])
    lap = build_laplacian(g, ridge=1.0)
    state = init_label_state(lap, [0], [1.0])
    session = start_binary(state, StrategyKind.TSA)
    counts = np.zeros(len(state.unlabeled))
    rng = np.random.default_rng(1234)
    for _ in range(6000):
        node = next_query(session, rng)
        counts[state.u_index(node)] += 1
    p = scipy.stats.chisquare(counts).pvalue
    assert p > 0.001, (counts, p)
