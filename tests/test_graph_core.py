"""Graph construction, Laplacian assembly, and inverse maintenance."""
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphal import eem, graph_core, harness, strategies
from graphal.errors import (
    DegeneracyError,
    InputError,
    ParseError,
    UnanchoredComponentError,
    UsageError,
)
from graphal.graph_core import (
    Graph,
    build_laplacian,
    dense_laplacian,
    downdate_inverse,
    graph_from_edges,
    init_label_state,
    inverse_residual,
    positive_components,
    read_edge_list,
)
from graphal.harness import run_experiment
from graphal.selftest import check_long_downdate, grounded_inverse, random_connected_graph
from graphal.strategies import (
    StrategyKind,
    init_multiclass,
    next_query,
    next_query_multiclass,
    start_binary,
    start_multiclass,
    update,
    update_multiclass,
)


def chain(n, w=1.0):
    return graph_from_edges(n, [(i, i + 1, w) for i in range(n - 1)])


def test_three_chain_laplacian_pattern():
    lap = build_laplacian(chain(3))
    expected = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    assert np.array_equal(dense_laplacian(lap), expected)


def test_beta_scales_matrix():
    base = dense_laplacian(build_laplacian(chain(4)))
    scaled = dense_laplacian(build_laplacian(chain(4), beta=2.5))
    assert np.allclose(scaled, 2.5 * base)


def test_ridge_touches_diagonal_only():
    plain = dense_laplacian(build_laplacian(chain(4)))
    ridged = dense_laplacian(build_laplacian(chain(4), ridge=0.125))
    assert np.allclose(ridged - plain, 0.125 * np.eye(4))


def test_rows_sum_to_zero_without_ridge():
    g = graph_from_edges(5, [(0, 1, 0.5), (1, 2, 2.0), (2, 3, 1.0), (3, 4, 0.25), (0, 4, 1.5)])
    lap = build_laplacian(g)
    assert np.allclose(dense_laplacian(lap).sum(axis=1), 0.0)


@pytest.mark.parametrize(
    "edges,message",
    [
        ([(2, 2, 1.0)], "self-loop"),
        ([(0, 1, 1.0), (0, 1, 2.0)], "duplicate"),
        ([(0, 1, -0.5)], "invalid weight"),
        ([(0, 7, 1.0)], "outside node range"),
    ],
)
def test_graph_validation(edges, message):
    with pytest.raises(InputError, match=message):
        graph_from_edges(3, edges)


def test_graph_needs_a_node():
    with pytest.raises(InputError):
        Graph(n=0, src=(), dst=(), weight=())


def test_bad_laplacian_params():
    with pytest.raises(InputError):
        build_laplacian(chain(3), beta=0.0)
    with pytest.raises(InputError):
        build_laplacian(chain(3), ridge=-1e-9)


@pytest.mark.parametrize(
    "w,beta,ridge,match",
    [
        (1.0, np.inf, 0.0, "beta must be positive and finite"),
        (1.0, np.nan, 0.0, "beta must be positive and finite"),
        (1.0, 1.0, np.inf, "ridge must be nonnegative and finite"),
        (1.0, 1.0, np.nan, "ridge must be nonnegative and finite"),
        (1.0, 1e308, 0.0, "diagonal at node 1 overflows"),
        (1e308, 1.0, 0.0, "diagonal at node 1 overflows"),  # finite weights, degree 2e308
    ],
)
def test_non_finite_laplacian_params(w, beta, ridge, match):
    with pytest.raises(InputError, match=match):
        build_laplacian(chain(3, w), beta=beta, ridge=ridge)


def test_two_node_chain_inverse_is_one():
    state = init_label_state(build_laplacian(chain(2)), [0], [1.0])
    assert state.unlabeled == (1,)
    assert np.array_equal(state.inverse, np.array([[1.0]]))


def test_inverse_multiplies_back_on_18_chain():
    state = init_label_state(build_laplacian(chain(18)), [0, 10], [1.0, -1.0])
    assert inverse_residual(state) <= 1e-10


def test_downdate_matches_direct_inversion_on_18_chain():
    state = init_label_state(build_laplacian(chain(18)), [0, 10], [1.0, -1.0])
    after = downdate_inverse(state, 5, 1.0)  # node 6, 1-based
    fresh = init_label_state(state.lap, [0, 5, 10], [1.0, 1.0, -1.0])
    assert after.labeled == fresh.labeled
    assert after.unlabeled == fresh.unlabeled
    assert np.max(np.abs(after.inverse - fresh.inverse)) <= 1e-9


def test_downdate_bookkeeping():
    state = init_label_state(build_laplacian(chain(5)), [2], [1.0])
    after = downdate_inverse(state, 4, -1.0)
    assert after.labeled == (2, 4)
    assert np.array_equal(after.labels, [1.0, -1.0])
    assert after.unlabeled == (0, 1, 3)
    assert after.inverse.shape == (3, 3)
    # original state untouched
    assert state.unlabeled == (0, 1, 3, 4)


def test_downdate_to_empty_unlabeled():
    state = init_label_state(build_laplacian(chain(2)), [0], [1.0])
    after = downdate_inverse(state, 1, -1.0)
    assert after.unlabeled == ()
    assert after.inverse.shape == (0, 0)
    assert inverse_residual(after) == 0.0


def test_downdate_rejects_labeled_node():
    state = init_label_state(build_laplacian(chain(4)), [1], [1.0])
    with pytest.raises(UsageError):
        downdate_inverse(state, 1, 1.0)
    with pytest.raises(InputError):
        downdate_inverse(state, 2, 0.5)


def test_random_corpus_downdate_equals_fresh_inversion():
    rng = np.random.default_rng(11)
    from graphal.selftest import check_downdate

    result = check_downdate(rng, graphs=15)
    assert result.passed, f"max deviation {result.max_deviation}"


def gathering_downdate(g, qi):
    """The downdate in gathering form: the survivors of ``G`` less ``np.outer(s, s)``."""
    keep = np.arange(g.shape[0]) != qi
    s = g[qi, keep] / np.sqrt(g[qi, qi])
    return g[keep][:, keep] - np.outer(s, s)


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_downdate_is_bitwise_equal_to_gathering_form(where):
    rng = np.random.default_rng(5)
    graph = random_connected_graph(rng, n_max=60, n_min=60)
    state = init_label_state(build_laplacian(graph), [0], [1.0])
    for k in (7, 23, 41, 52):
        state = downdate_inverse(state, k, 1.0)
    g = state.inverse
    assert np.array_equal(g, g.T)  # downdates keep G exactly symmetric
    m = len(state.unlabeled)
    qi = {"first": 0, "middle": m // 2, "last": m - 1}[where]
    after = downdate_inverse(state, state.unlabeled[qi], -1.0)
    assert np.array_equal(after.inverse, gathering_downdate(g, qi))


def test_downdates_to_the_end_stay_bitwise_equal_to_gathering_form():
    rng = np.random.default_rng(8)
    state = init_label_state(build_laplacian(random_connected_graph(rng, 30, 30)), [3], [1.0])
    while state.unlabeled:
        qi = int(rng.integers(len(state.unlabeled)))
        expected = gathering_downdate(state.inverse, qi)
        state = downdate_inverse(state, state.unlabeled[qi], float(rng.choice([-1.0, 1.0])))
        assert np.array_equal(state.inverse, expected)
    assert state.inverse.shape == (0, 0)
    assert state.labeled == tuple(range(30))


def state_after_downdates(seed, m, commits=3):
    """A state with ``m`` unlabeled nodes, after ``commits`` downdates."""
    rng = np.random.default_rng(seed)
    graph = random_connected_graph(rng, m + commits + 1, m + commits + 1)
    order = [int(v) for v in rng.permutation(graph.n)]
    state = init_label_state(build_laplacian(graph), order[:1], [1.0])
    for k in order[1:commits + 1]:
        state = downdate_inverse(state, k, 1.0)
    return state


@pytest.mark.parametrize("m", [2, 3, 9, 17, 65, 130, 257])
def test_downdate_kernel_paths_are_bitwise_equal_to_gathering_form(m):
    # sizes on both sides of the BLAS's small-matrix and blocked kernels and their tails
    state = state_after_downdates(100 + m, m)
    g = state.inverse
    assert g.shape == (m, m)
    assert np.array_equal(g, g.T)
    for qi in sorted({0, m // 2, m - 1}):
        after = downdate_inverse(state, state.unlabeled[qi], -1.0)
        assert np.array_equal(after.inverse, gathering_downdate(g, qi)), f"qi={qi}"


@pytest.mark.parametrize("m", [2, 3, 9, 17, 65, 130, 257])
@pytest.mark.parametrize("classes", [2, 3], ids=["binary", "one-vs-rest"])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=3, deadline=None, derandomize=True, database=None)
def test_inverse_stays_bitwise_symmetric_until_the_last_label(m, classes, seed):
    # sizes on both sides of the BLAS's small-matrix and blocked kernels and
    # their tails; every reader of G takes row q for column q
    rng = np.random.default_rng(seed)
    graph = random_connected_graph(rng, m + 1, m + 1)
    order = rng.permutation(graph.n).tolist()
    truth = rng.integers(classes, size=graph.n)
    lap = build_laplacian(graph)
    if classes == 2:
        y = np.where(truth == 1, 1.0, -1.0)
        session = start_binary(init_label_state(lap, order[:1], y[order[:1]]), StrategyKind.TSA)
        step = lambda s, v: update(s, v, y[v])  # noqa: E731
        inverse = lambda s: s.state.inverse  # noqa: E731
    else:
        mstate = init_multiclass(lap, order[:1], truth[order[:1]], classes)
        session = start_multiclass(mstate, StrategyKind.TSA)
        step = lambda s, v: update_multiclass(s, v, int(truth[v]))  # noqa: E731
        inverse = lambda s: s.mstate.inverse  # noqa: E731
    for v in order[1:]:
        g = inverse(session)
        assert np.array_equal(g, g.T), f"|u| = {len(g)}"
        session = step(session, v)
    assert inverse(session).shape == (0, 0)


def test_downdate_returns_fresh_read_only_values_and_leaves_the_parent_alone():
    state = state_after_downdates(6, 300)
    before = state.inverse.copy()
    k = state.unlabeled[137]
    first, second = downdate_inverse(state, k, 1.0), downdate_inverse(state, k, -1.0)
    assert np.array_equal(state.inverse, before)
    assert np.array_equal(first.inverse, second.inverse)
    for result in (first, second):
        assert result.inverse.flags.c_contiguous and not result.inverse.flags.writeable
        assert not np.shares_memory(result.inverse, state.inverse)
    assert not np.shares_memory(first.inverse, second.inverse)
    # the result is the one allocation of size (|u|-1)^2: a copied dgemm
    # operand or a materialized outer product would add a second
    m2 = 299 * 299 * 8
    tracemalloc.start()
    try:
        downdate_inverse(state, k, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * m2, f"peak {peak / m2:.2f} x (|u|-1)^2 doubles"


# --- sessions that own G: in-place commits --------------------------------------


def tsa_session(graph, classes, rng):
    """A tsa session on ``graph`` from one labeled node, its truth, and its commit."""
    order = [int(v) for v in rng.permutation(graph.n)]
    lap = build_laplacian(graph)
    if classes == 1:
        truth = np.where(rng.random(graph.n) < 0.5, 1.0, -1.0)
        session = start_binary(init_label_state(lap, order[:1], truth[order[:1]]), StrategyKind.TSA)
        return session, order[1:], truth, update
    truth = rng.integers(classes, size=graph.n)
    session = start_multiclass(init_multiclass(lap, order[:1], truth[order[:1]], classes), StrategyKind.TSA)
    return session, order[1:], truth, update_multiclass


def state_of(session):
    return session.mstate if isinstance(session, strategies.MulticlassSession) else session.state


def label_of(state, truth, v):
    """Node ``v``'s label in ``state``'s form: +/-1, or a one-vs-rest row."""
    if state.class_count == 1:
        return truth[v]
    return np.where(np.arange(state.class_count) == truth[v], 1.0, -1.0)


def live_inverse(state):
    """``G`` gathered through the state's live slots, without compacting its buffer."""
    flat, ld, live = state.slots()
    g = flat[:ld * ld].reshape(ld, ld)
    return g.copy() if live is None else g[np.ix_(live, live)]


@pytest.mark.parametrize("classes", [1, 3], ids=["binary", "one-vs-rest-3"])
def test_owned_commits_to_the_end_are_bitwise_equal_to_chained_downdates(monkeypatch, classes):
    # One cell per block: every select would sweep, so the session owns G
    # from its first commit until one node is left, and its buffer is
    # compacted each time half its slots are dead.
    monkeypatch.setattr(eem, "BLOCK_CELLS", 1)
    session, order, truth, commit = tsa_session(random_connected_graph(np.random.default_rng(21), 70, 70),
                                                classes, np.random.default_rng(21))
    reference = state_of(session)
    compactions = []
    compact = graph_core._Owned.compact
    monkeypatch.setattr(graph_core._Owned, "compact",
                        lambda owned: compactions.append(owned.live is not None) or compact(owned))
    dead = 0
    for v in order:
        reference = downdate_inverse(reference, v, label_of(reference, truth, v))
        session = commit(session, v, truth[v])
        state = state_of(session)
        g = live_inverse(state)
        assert np.array_equal(g, reference.inverse), f"|u| = {len(g)}"
        assert np.array_equal(g, g.T)
        assert state.labeled == reference.labeled and np.array_equal(state.labels, reference.labels)
        assert state.bound() == reference.bound()
        dead = max(dead, state.slots()[1] - len(g))
    assert not state.unlabeled
    assert dead > 1 and sum(compactions) >= 3  # dead slots stayed, then were compacted away


def test_an_owned_commit_allocates_no_square_array(monkeypatch):
    # A commit on a buffer the session owns moves and allocates nothing of
    # O(|u|^2): its scratch is a few |u|-vectors, a compaction's included.
    # One copied buffer (89,401 doubles here) would not fit.
    monkeypatch.setattr(eem, "BLOCK_CELLS", 1)  # the session owns G to the end
    session, order, truth, _ = tsa_session(random_connected_graph(np.random.default_rng(4), 300, 300), 1,
                                           np.random.default_rng(4))
    session = update(session, order[0], truth[order[0]])  # the first commit copies
    m = len(session.state.unlabeled)
    budget = 12 * m * 8
    peaks = []
    for v in order[1:m // 2 + 2]:  # past half the slots dead: one compaction
        tracemalloc.start()
        try:
            session = update(session, v, truth[v])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert session.state.slots()[1] < 300 - 2  # compacted
    assert max(peaks) < budget, f"peak {max(peaks) / 8 / m:.1f} |u|-vectors"


@pytest.mark.parametrize("classes", [1, 3], ids=["binary", "one-vs-rest-3"])
def test_reading_the_bound_of_an_owned_state_moves_no_slot(monkeypatch, classes):
    monkeypatch.setattr(eem, "BLOCK_CELLS", 1)  # the session owns G to the end
    session, order, truth, commit = tsa_session(random_connected_graph(np.random.default_rng(5), 40, 40),
                                                classes, np.random.default_rng(5))
    for v in order[:3]:
        session = commit(session, v, truth[v])
    state = state_of(session)
    _, ld, live = state.slots()
    assert live is not None and ld > live.size  # dead slots
    live = live.copy()
    assert state.error_bound is not None and state.bound() == state.error_bound[1:] and eem._bounded(state)
    assert ld == state.slots()[1] and np.array_equal(state.slots()[2], live)


@pytest.mark.parametrize("classes", [1, 3], ids=["binary", "one-vs-rest-3"])
def test_a_consumed_state_raises_on_reads_of_g(monkeypatch, classes):
    monkeypatch.setattr(eem, "BLOCK_CELLS", 1)
    session, order, truth, commit = tsa_session(random_connected_graph(np.random.default_rng(9), 40, 40),
                                                classes, np.random.default_rng(9))
    owned = commit(session, order[0], truth[order[0]])  # the first commit copies: its parent stays readable
    assert np.array_equal(state_of(session).inverse, state_of(session).inverse.T)
    after = commit(owned, order[1], truth[order[1]])
    consumed = state_of(owned)
    label = label_of(consumed, truth, order[2])
    reads = [
        lambda s: s.inverse, lambda s: s.diagonal(), lambda s: s.row(0),
        lambda s: s.slots(), lambda s: s.checked_diagonal(), lambda s: downdate_inverse(s, order[2], label),
    ]
    for read in reads:
        with pytest.raises(UsageError, match="consumed by a later in-place commit"):
            read(consumed)
    select = next_query if classes == 1 else next_query_multiclass
    with pytest.raises(UsageError, match="consumed"):
        select(owned)
    with pytest.raises(UsageError, match="consumed"):
        commit(owned, order[2], truth[order[2]])
    assert len(consumed.labels) == len(consumed.labeled) == 2 and consumed.lap is state_of(after).lap
    if classes > 1:
        runs = consumed.states  # built after the commit that consumed it: reads no G
        for c, run in enumerate(runs):
            assert np.array_equal(run.labels, consumed.labels[:, c]) and run.lap is consumed.lap
        with pytest.raises(UsageError, match="consumed"):
            runs[0].inverse
    select(after)  # the session's current state reads on


@pytest.mark.parametrize("classes", [2, 3])
def test_run_experiment_never_writes_the_shared_start_state(monkeypatch, classes):
    # Every strategy of a trial starts from one state; tsa sessions that
    # own their G copy it at their first commit, then commit in place.
    monkeypatch.setattr(eem, "BLOCK_CELLS", 1)
    graph = random_connected_graph(np.random.default_rng(3), 30, 30)
    dataset = harness.Dataset("g", graph, np.random.default_rng(3).integers(classes, size=30), classes)
    starts, owned = [], []
    start_state = harness._start_state

    def recorded(*args):
        state = start_state(*args)
        starts.append((state, state.inverse.copy(), state.labels.copy()))
        return state

    downdate = strategies.downdate_inverse

    def counted(state, k, label, own=False):
        owned.append(own and type(state._inverse) is tuple)  # a (buffer, version) stamp
        return downdate(state, k, label, own=own)

    monkeypatch.setattr(harness, "_start_state", recorded)
    monkeypatch.setattr(strategies, "downdate_inverse", counted)
    run_experiment(dataset, list(StrategyKind), 12, 2, 5)
    assert len(starts) == 2 and sum(owned) == 2 * 11  # every tsa commit after the first ran in place
    for state, g, labels in starts:
        assert np.array_equal(state.inverse.view(np.uint64), g.view(np.uint64))
        assert np.array_equal(state.labels, labels) and not state.inverse.flags.writeable


def exact_grounded_inverse(graph, labeled):
    """``inv(L_uu)`` in rational arithmetic (Gauss-Jordan on Fractions)."""
    unl = [v for v in range(graph.n) if v not in set(labeled)]
    pos = {v: k for k, v in enumerate(unl)}
    m = len(unl)
    rows = [[Fraction(0)] * m + [Fraction(int(r == c)) for c in range(m)] for r in range(m)]
    for i, j, w in graph.edges:
        for a, b in ((i, j), (j, i)):
            if a in pos:
                rows[pos[a]][pos[a]] += Fraction(w)
                if b in pos:
                    rows[pos[a]][pos[b]] -= Fraction(w)
    for p in range(m):
        rows[p] = [v / rows[p][p] for v in rows[p]]
        for r in range(m):
            if r != p and rows[r][p]:
                f = rows[r][p]
                rows[r] = [v - f * pv for v, pv in zip(rows[r], rows[p])]
    return [row[m:] for row in rows]


def test_grounded_inverse_is_accurate_per_entry_on_ill_conditioned_graphs():
    rng = np.random.default_rng(4)
    for n_labeled in (1, 1, 3):
        tree = random_connected_graph(rng, n_max=14, n_min=12)
        weights = 10.0 ** rng.uniform(-6.0, 6.0, size=len(tree.edges))
        graph = graph_from_edges(tree.n, [(i, j, w) for (i, j, _), w in zip(tree.edges, weights)])
        labeled = sorted(int(v) for v in rng.permutation(graph.n)[:n_labeled])
        exact = exact_grounded_inverse(graph, labeled)
        accurate = grounded_inverse(graph, labeled)
        for r, row in enumerate(exact):
            for c, value in enumerate(row):
                assert abs(Fraction(accurate[r, c]) - value) <= Fraction(1e-14) * value


@pytest.mark.xfail(
    strict=True,
    reason="the first Cholesky inverse and every downdate round at the scale of G when made; "
    "up to ~1e-5 of max diag(G) (ROADMAP item 2)",
)
def test_long_run_downdates_on_ill_conditioned_graphs_match_accurate_inversions():
    """Fails at present; the marker turns into a failure once the maintained G is accurate.

    The reference is accurate to a few ulps per entry (the test above), so
    an exact maintained ``G`` passes.  Regressions of the downdate itself
    are caught by the bitwise and fresh-inversion tests above.
    """
    result = check_long_downdate(np.random.default_rng(13), graphs=5)
    assert result.cases >= 25
    assert result.passed, f"max relative deviation {result.max_deviation:.3e}"


def test_init_label_state_factors_and_solves_in_place():
    # One (|u|, |u|) buffer holds the scattered L_uu, the factor and the
    # inverse; the scatter's scratch is O(n + |E|) and the mirror's a bounded
    # column block.  A copying factor or inverse, or a whole-matrix
    # transpose, adds a second.
    lap = build_laplacian(random_connected_graph(np.random.default_rng(2), 300, 300))
    m2 = 299 * 299 * 8
    tracemalloc.start()
    try:
        state = init_label_state(lap, [0], [1.0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state.inverse.shape == (299, 299)
    assert peak < 1.6 * m2, f"peak {peak / m2:.2f} x |u|^2 doubles"


def test_set_up_holds_no_dense_laplacian():
    # From ingest to an open session, G is the only |u|^2 array; an n x n
    # Laplacian would add about 1.0 x.  The session holds no scratch: the
    # risk tables allocate theirs per call.
    graph = random_connected_graph(np.random.default_rng(2), 300, 300)
    m2 = 299 * 299 * 8
    tracemalloc.start()
    try:
        session = start_binary(init_label_state(build_laplacian(graph), [0], [1.0]), StrategyKind.TSA)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert session.state.inverse.shape == (299, 299)
    assert peak < 1.6 * m2, f"peak {peak / m2:.2f} x |u|^2 doubles"


def test_build_laplacian_memory_is_linear_in_the_edges():
    n = 3000
    ring = Graph(n, np.r_[np.arange(n - 1), 0], np.r_[np.arange(1, n), n - 1], np.ones(n))
    tracemalloc.start()
    try:
        build_laplacian(ring)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * (n + n), f"peak {peak / (2 * n):.1f} bytes per node and edge"


def test_unanchored_component_is_diagnosed():
    g = graph_from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
    lap = build_laplacian(g)
    with pytest.raises(UnanchoredComponentError) as info:
        init_label_state(lap, [0], [1.0])
    assert info.value.component == (2, 3)
    # a ridge makes the isolated block invertible
    state = init_label_state(build_laplacian(g, ridge=1e-3), [0], [1.0])
    assert inverse_residual(state) <= 1e-8


def test_positive_components_ignore_zero_weight_edges():
    g = graph_from_edges(4, [(0, 1, 1.0), (1, 2, 0.0), (2, 3, 1.0)])
    comps = positive_components(build_laplacian(g))
    assert sorted(comps) == [(0, 1), (2, 3)]


@pytest.mark.parametrize(
    "labeled,labels",
    [
        ([], []),
        ([0, 0], [1.0, 1.0]),
        ([0, 9], [1.0, -1.0]),
        ([0], [0.5]),
        ([0, 1], [1.0]),
    ],
)
def test_init_label_state_validation(labeled, labels):
    lap = build_laplacian(chain(4))
    with pytest.raises(InputError):
        init_label_state(lap, labeled, labels)


def test_state_arrays_are_read_only():
    state = init_label_state(build_laplacian(chain(4)), [0], [1.0])
    with pytest.raises(ValueError):
        state.inverse[0, 0] = 7.0
    with pytest.raises(ValueError):
        state.labels[0] = -1.0
    for a in (state.lap.src, state.lap.dst, state.lap.weight, state.lap.diagonal, state.lap.component_of):
        with pytest.raises(ValueError):
            a[0] = 7


def test_label_and_index_lookups():
    state = init_label_state(build_laplacian(chain(5)), [3, 1], [-1.0, 1.0])
    assert state.labeled == (1, 3)
    assert state.labels.tolist() == [1.0, -1.0]
    assert state.u_index(4) == 2
    with pytest.raises(UsageError):
        state.u_index(1)


def test_coupling_block_gives_coupling_vector():
    state = init_label_state(build_laplacian(chain(4)), [0], [1.0])
    # only node 1 touches the labeled node; L_10 * y_0 = -1
    coupling = state.lap.block(state.unlabeled, state.labeled) @ state.labels
    assert np.array_equal(coupling, [-1.0, 0.0, 0.0])


# --- edge-list parsing -----------------------------------------------------


def test_read_edge_list_round_trip(tmp_path):
    p = tmp_path / "g.edges"
    p.write_text("# a comment\n1 2 0.5\n\n2 3\n3 4 2.0\n")
    g = read_edge_list(p)
    assert g.n == 4
    assert g.edges == ((0, 1, 0.5), (1, 2, 1.0), (2, 3, 2.0))


def test_read_edge_list_n_override(tmp_path):
    p = tmp_path / "g.edges"
    p.write_text("1 2\n")
    assert read_edge_list(p, n=5).n == 5
    with pytest.raises(InputError):
        read_edge_list(p, n=1)


@pytest.mark.parametrize(
    "content,lineno",
    [
        ("1 2 3 4\n", 1),
        ("1 2\nx 3\n", 2),
        ("1 1\n", 1),
        ("0 2\n", 1),
        ("1 2 -1.0\n", 1),
        ("1 2\n2 1\n", 2),
    ],
)
def test_read_edge_list_errors_carry_line_numbers(tmp_path, content, lineno):
    p = tmp_path / "bad.edges"
    p.write_text(content)
    with pytest.raises(ParseError) as info:
        read_edge_list(p)
    assert info.value.line_no == lineno


def test_read_edge_list_empty_file(tmp_path):
    p = tmp_path / "empty.edges"
    p.write_text("# nothing\n")
    with pytest.raises(InputError):
        read_edge_list(p)
