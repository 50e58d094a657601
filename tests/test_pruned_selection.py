"""Bound-then-verify tsa selection: pruning never changes a choice.

``next_query`` and ``next_query_multiclass`` prune tsa candidates on
partial risk sums (``eem.bound_sweep``, through the one ``eem.survivors``,
handed the table's ``eem.RiskTable`` record) and score only the survivors
exactly.  These tests hold both to the full table: the same node, the same
rng draws, survivor entries bitwise equal to the full table's, every pruned
candidate above the minimum plus the tie tolerance, and the same errors on
degenerate states.  ``eem.BLOCK_CELLS`` is shrunk so that small graphs run
several blocks and several chunks of the bound sweep.  ``classes`` is 1 for
a binary session, C for a one-vs-rest one.  The sweep's two denominator
certificates, the O(1) check against the error bound that travels with
``G`` (``eem._bounded``) and the read of ``G``'s upper triangle
(``eem._certified``), are held to the guard they stand in for: neither
passes a state the guard rejects, and on a typical graph the first spares
every select the other two.
"""
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphal import eem, strategies
from graphal.config import DEFAULT_TOLERANCES
from graphal.errors import DegeneracyError
from graphal.graph_core import (
    LabelState,
    build_laplacian,
    downdate_inverse,
    graph_from_edges,
    init_label_state,
    positive_components,
)
from graphal.inference import sigmoid
from graphal.selftest import log_uniform_graph, random_connected_graph
from graphal.strategies import (
    MulticlassSession,
    MulticlassState,
    StrategyKind,
    init_multiclass,
    next_query,
    next_query_multiclass,
    start_binary,
    start_multiclass,
    update,
    update_multiclass,
)

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
CLASSES = pytest.mark.parametrize("classes", [1, 3], ids=["binary", "one-vs-rest-3"])


def session_after(graph, labeled, labels, commits, rng, classes=1, beta=1.0):
    """A tsa session on ``graph`` (Laplacian strength ``beta``) after
    ``commits`` random commits.

    ``labels`` are +/-1; one-vs-rest reads +1 as class 0 and -1 as class 1,
    and draws the other nodes' classes uniformly from all ``classes``.
    """
    lap = build_laplacian(graph, beta=beta)
    if classes == 1:
        truth = np.where(rng.random(graph.n) < 0.5, 1.0, -1.0)
        truth[labeled] = labels
        session = start_binary(init_label_state(lap, labeled, labels), StrategyKind.TSA)
        commit = update
    else:
        truth = rng.integers(classes, size=graph.n)
        truth[labeled] = np.where(np.asarray(labels) > 0, 0, 1)
        session = start_multiclass(init_multiclass(lap, labeled, truth[labeled], classes), StrategyKind.TSA)
        commit = update_multiclass
    for _ in range(commits):
        unlabeled = state_of(session).unlabeled
        if len(unlabeled) < 3:
            break
        q = unlabeled[int(rng.integers(len(unlabeled)))]
        session = commit(session, q, truth[q])
    return session


def is_multiclass(session):
    return isinstance(session, MulticlassSession)


def state_of(session):
    """The session's state (a ``MulticlassState`` for one-vs-rest)."""
    return session.mstate if is_multiclass(session) else session.state


def table(session, candidates=None):
    """The session's exact tsa risk table (at ``candidates`` if given)."""
    if is_multiclass(session):
        return strategies.multiclass_risk_table(
            session.mstate, StrategyKind.TSA, decisions=session.decisions, candidates=candidates
        )
    return eem.tsa_risk_table(session.state, session.decisions, candidates=candidates)


def record(session):
    """The session's tsa ``eem.RiskTable``, as its select builds it."""
    if is_multiclass(session):
        return strategies.one_vs_rest_table(session.mstate, StrategyKind.TSA, session.decisions)
    return eem.tsa_table(session.state, session.decisions)


def survivors(session):
    """The one survivors function on the session's tsa table."""
    return eem.survivors(state_of(session), lambda: record(session))


def select(session, rng=None):
    return (next_query_multiclass if is_multiclass(session) else next_query)(session, rng)


def first_swept(session):
    """The position of the node the bound sweep sums first (most uncertain)."""
    f = session.decisions
    if is_multiclass(session):
        p = sigmoid(f)
        return int(np.argmax(1.0 - p.max(axis=1) / p.sum(axis=1)))
    return int(np.argmin(np.abs(f)))


def ring(n, heavy=1.0):
    """A ring of unit edges, but the edge (n // 2, n // 2 + 1) weighs ``heavy``."""
    return graph_from_edges(n, [(i, (i + 1) % n, heavy if i == n // 2 else 1.0) for i in range(n)])


def grid(side):
    edges = [(r * side + c, r * side + c + 1, 1.0) for r in range(side) for c in range(side - 1)]
    edges += [(r * side + c, (r + 1) * side + c, 1.0) for r in range(side - 1) for c in range(side)]
    return graph_from_edges(side * side, edges)


def blocks(n, rng, count=2):
    """``count`` blocks of random unit edges (about 5 per node) and a few
    bridges between neighbouring blocks: its uncertain nodes sit near the
    boundaries, as in the benchmark's SBM."""
    cut = [b * n // count for b in range(count + 1)]
    edges = {(int(min(u, v)), int(max(u, v)))
             for v in range(n) for u in rng.choice(range(cut[v * count // n], cut[v * count // n + 1]), 5) if u != v}
    edges |= {(int(rng.integers(cut[b % (count - 1)], cut[b % (count - 1) + 1])),
               int(rng.integers(cut[b % (count - 1) + 1], cut[b % (count - 1) + 2])))
              for b in range(max(n // 50, count - 1))}
    return graph_from_edges(n, [(i, j, 1.0) for i, j in sorted(edges)])


def block_session(seed, commits, classes=1):
    """Two blocks of 150 nodes, two labels in each; one-vs-rest sessions
    get one block per class, two labels in each of the first two."""
    graph = blocks(300, np.random.default_rng(seed), max(2, classes))
    labeled = [0, 1, 150, 151] if classes == 1 else [0, 1, 300 // classes, 300 // classes + 1]
    return session_after(graph, labeled, [1.0, 1.0, -1.0, -1.0], commits, np.random.default_rng(seed), classes)


@st.composite
def sessions(draw, classes):
    """Random connected graphs and block graphs after a few commits, and
    symmetric rings and grids whose mirror-image candidates tie exactly."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    shape = draw(st.sampled_from(("random", "ring", "grid", "blocks")))
    if shape == "random":
        graph = random_connected_graph(rng, n_max=60, n_min=12)
        return session_after(graph, [0], [1.0], draw(st.integers(0, 6)), rng, classes)
    if shape == "ring":
        n = draw(st.integers(10, 60))
        labeled, labels = ([0], [1.0]) if draw(st.booleans()) else ([0, n // 2], [1.0, -1.0])
        return session_after(ring(n), labeled, labels, 0, rng, classes)
    if shape == "grid":
        side = draw(st.integers(4, 8))
        return session_after(grid(side), [0, side * side - 1], [1.0, -1.0], 0, rng, classes)
    n = draw(st.integers(40, 90))
    graph = blocks(n, rng, max(2, classes))
    assume(len(positive_components(build_laplacian(graph))) == 1)
    return session_after(graph, [0, n - 1], [1.0, -1.0], draw(st.integers(0, 6)), rng, classes)


def check_pruned_selection(session, rng_seed):
    """Every guarantee of the pruned selection, against the full table."""
    m = len(state_of(session).unlabeled)
    full = table(session)
    kept = survivors(session)
    assert kept is not None and kept.size >= 1
    assert np.array_equal(table(session, candidates=kept), full[kept])
    pruned = np.setdiff1d(np.arange(m), kept)
    low = full.min()
    assert np.all(full[pruned] > low + DEFAULT_TOLERANCES.tie_relative * max(1.0, abs(low)))

    pruned_rng, full_rng = np.random.default_rng(rng_seed), np.random.default_rng(rng_seed)
    chosen = select(session, pruned_rng)
    assert chosen == state_of(session).unlabeled[eem.argmin_ties(full, full_rng)]
    assert pruned_rng.bit_generator.state == full_rng.bit_generator.state


@pytest.mark.parametrize("classes", [1, 3, 4, 6], ids=["binary", "one-vs-rest-3", "one-vs-rest-4", "one-vs-rest-6"])
def test_pruned_selection_equals_the_full_table_selection(classes):
    @PROPERTY
    @given(sessions(classes), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def check(session, rows, rng_seed):
        m = len(state_of(session).unlabeled)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(eem, "BLOCK_CELLS", rows * m)  # `rows` rows a block, `rows` nodes a chunk
            if eem.block_rows(m, classes) < m:
                check_pruned_selection(session, rng_seed)

    check()


@CLASSES
def test_tied_candidates_all_survive_and_draw_like_the_full_table(monkeypatch, classes):
    # Opposite labels at nodes 0 and 20 of a ring: candidates k and 40 - k
    # tie exactly, and the best pair lies between the labels.
    session = session_after(ring(40), [0, 20], [1.0, -1.0], 0, np.random.default_rng(0), classes)
    monkeypatch.setattr(eem, "BLOCK_CELLS", 4 * 38)
    full = table(session)
    tied = np.flatnonzero(full <= full.min() + DEFAULT_TOLERANCES.tie_relative)
    assert tied.size == 2
    assert set(tied) <= set(survivors(session))
    picks = {select(session, np.random.default_rng(s)) for s in range(16)}
    assert picks == {state_of(session).unlabeled[i] for i in tied}
    for s in range(4):
        check_pruned_selection(session, s)


@pytest.mark.parametrize("classes", [1, 3, 4], ids=["binary", "one-vs-rest-3", "one-vs-rest-4"])
def test_pruning_on_a_multi_block_table_calls_the_table_once(monkeypatch, classes):
    session = block_session(0, 4, classes)
    m = len(state_of(session).unlabeled)
    assert eem.block_rows(m, classes) < m
    kept = survivors(session)
    assert kept.size < m // 10  # most candidates are pruned
    check_pruned_selection(session, 3)

    calls = []
    name = "multiclass_risk_table" if classes > 1 else "tsa_risk_table"
    exact = getattr(strategies, name)
    monkeypatch.setattr(strategies, name, lambda *a, **k: calls.append(k) or exact(*a, **k))
    select(session, np.random.default_rng(0))
    assert len(calls) == 1 and np.array_equal(calls[0]["candidates"], kept)


@pytest.mark.parametrize("classes", [1, 4], ids=["binary", "one-vs-rest-4"])
def test_zlg_selects_score_the_full_table(monkeypatch, classes):
    tsa = block_session(0, 4, classes)
    session = strategies.replace(tsa, kind=StrategyKind.ZLG, decisions=None)
    calls = []
    name = "multiclass_risk_table" if classes > 1 else "zlg_risk_table"
    exact = getattr(strategies, name)
    monkeypatch.setattr(strategies, name, lambda *a, **k: calls.append(k) or exact(*a, **k))
    select(session, np.random.default_rng(0))
    assert len(calls) == 1 and calls[0].get("candidates") is None


@pytest.mark.parametrize("classes, side", [(1, 9), (3, 8), (6, 5)], ids=["binary", "one-vs-rest-3", "one-vs-rest-6"])
def test_single_block_tables_are_not_pruned(monkeypatch, classes, side):
    session = session_after(grid(side), [0], [1.0], 3, np.random.default_rng(1), classes)
    m = len(state_of(session).unlabeled)
    assert eem.block_rows(m, classes) == m
    assert survivors(session) is None
    # Decided from |u| and C, so the select builds one table record, for
    # the table's rows, and none for the sweep.
    calls = []
    diagonal = LabelState.checked_diagonal
    monkeypatch.setattr(LabelState, "checked_diagonal", lambda self: calls.append(self) or diagonal(self))
    select(session, np.random.default_rng(0))
    assert len(calls) == 1


@CLASSES
def test_flat_risk_stops_the_sweep_at_its_budget_and_selects_like_the_table(classes):
    # A random expander-like graph spreads its risk over every node, so the
    # bounds prune little before the sweep has spent SWEEP_BUDGET of the table.
    session = session_after(random_connected_graph(np.random.default_rng(2), 300, 300), [0], [1.0], 0,
                            np.random.default_rng(2), classes)
    m = len(state_of(session).unlabeled)
    assert eem.block_rows(m, classes) < m
    assert survivors(session).size > m // 2
    check_pruned_selection(session, 5)


@CLASSES
def test_a_nan_decision_value_fails_clearly(monkeypatch, classes):
    session = session_after(ring(30), [0], [1.0], 0, np.random.default_rng(0), classes)
    monkeypatch.setattr(eem, "BLOCK_CELLS", 3 * 29)
    f = session.decisions.copy()
    f[7] = np.nan
    broken = strategies.replace(session, decisions=f)
    assert survivors(broken) is None  # no bound can be trusted
    with pytest.raises(DegeneracyError) as want:
        eem.argmin_ties(table(broken), nodes=state_of(broken).unlabeled)  # the full table's failure
    with pytest.raises(DegeneracyError) as got:
        select(broken)
    assert str(got.value) == str(want.value)
    # Node 8's NaN reaches every candidate's row, binary and one-vs-rest: a
    # NaN row sum is not read as a row with no signal.
    assert str(want.value) == "score of candidate 1 is NaN"


def test_a_nan_harmonic_value_fails_clearly_in_a_one_vs_rest_zlg_table():
    tsa = session_after(ring(30), [0], [1.0], 0, np.random.default_rng(0), 3)
    h = tsa.harmonics.copy()
    h[7] = np.nan
    broken = strategies.replace(tsa, kind=StrategyKind.ZLG, decisions=None, harmonics=h)
    with pytest.raises(DegeneracyError, match="score of candidate 1 is NaN"):
        select(broken)


@pytest.mark.parametrize("rows", [None, 20], ids=["default-layout", "20-rows"])  # BLOCK_CELLS = rows * |u|
@pytest.mark.parametrize("pick_node", ["later-node", "first-swept-node"])  # the bound sweep's first column
@CLASSES
def test_a_vanishing_denominator_in_a_pruned_candidate_raises_like_the_table(monkeypatch, classes, pick_node, rows):
    session = block_session(0, 2, classes)
    state = state_of(session)
    m = len(state.unlabeled)
    if rows:
        monkeypatch.setattr(eem, "BLOCK_CELLS", rows * m)
    assert eem.block_rows(m, classes) < m
    kept = survivors(session)
    full = table(session)
    j = int(np.argmax(np.where(np.isin(np.arange(m), kept), -np.inf, full)))  # a pruned candidate
    assert j not in kept and j > eem.block_rows(m, classes)  # not in the first block
    k = (j + 17) % m if pick_node == "later-node" else first_swept(session)
    assert k != j

    g = state.inverse
    # G_kk - G_jk^2 / G_jj and G_jj - G_jk^2 / G_kk round to about 0; the
    # table meets the pair first at the lower candidate position
    flat = tampered(session, j, k, np.sqrt(g[j, j] * g[k, k]))
    with pytest.raises(DegeneracyError) as want:
        table(flat)
    with pytest.raises(DegeneracyError) as got:
        select(flat)
    assert str(got.value) == str(want.value)
    u = state.unlabeled
    assert str(want.value) == f"lookahead denominator vanished for candidate {u[min(j, k)]} at node {u[max(j, k)]}"


def test_pruned_binary_selection_scratch_is_bounded_by_the_cell_budget():
    # The sweep holds three node-major chunk slabs of |u| * SWEEP_COLUMNS
    # cells and an index slab, and a few |u|-vectors; the denominator
    # certificate's slab of BLOCK_CELLS cells and the survivors' rows, at
    # most two slabs of a table block, come before and after it.  A |u|^2
    # temporary (87,616 doubles here) would not fit.
    # A third of the candidates survive here, so the survivors' table runs a
    # full block.
    session = block_session(0, 0)
    m = len(session.state.unlabeled)
    assert survivors(session).size > m // 3
    assert 1 < eem.block_rows(m) < m
    budget = (1.1 * (eem.BLOCK_CELLS + 4 * eem.SWEEP_COLUMNS * m + 24 * m) + np.getbufsize()) * 8
    assert budget < m * m * 8
    tracemalloc.start()
    try:
        next_query(session, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < budget, f"next_query peak {peak / 8:.0f} doubles"


@pytest.mark.parametrize("classes", [3, 6])
def test_pruned_one_vs_rest_selection_scratch_is_bounded_by_the_cell_budget(monkeypatch, classes):
    # With 4 rows a block and 4 nodes a chunk, the sweep holds 2C + 7
    # node-major slabs of 4 |u| cells (the chunk's G_qk, its index and the
    # kernel's 2C + 5), bool masks worth C / 4 + 1/8 more, and about a dozen
    # |u|-vectors per class; the denominator certificate's slab of
    # BLOCK_CELLS cells, and the survivors' table of 2C + 5 slabs, come
    # before and after it.  Broadcasting passes buffer up to two operands.
    # A |u|^2 temporary (89,401 doubles here) would not fit.
    # Risk is spread evenly here, so many candidates survive.
    session = session_after(random_connected_graph(np.random.default_rng(2), 300, 300), [0], [1.0], 0,
                            np.random.default_rng(2), classes)
    m = len(state_of(session).unlabeled)
    monkeypatch.setattr(eem, "BLOCK_CELLS", 4 * m)
    assert eem.block_rows(m, classes) == 4
    assert survivors(session).size > 4  # the survivors' table runs a full block
    slabs = 2 * classes + 6 + classes / 4 + 1
    budget = (1.1 * (slabs * 4 * m + (12 * classes + 30) * m) + 2 * np.getbufsize()) * 8
    assert budget < m * m * 8
    tracemalloc.start()
    try:
        next_query_multiclass(session, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < budget, f"next_query_multiclass peak {peak / 8:.0f} doubles"


def tampered(session, j, k, value):
    """``session`` with ``G_jk = G_kj = value``: ``G`` stays bitwise
    symmetric, as every state's is, and the certificate reads one triangle."""
    g = state_of(session).inverse.copy()
    g[j, k] = g[k, j] = value
    state = strategies.replace(state_of(session), inverse=g)
    return strategies.replace(session, **{"mstate" if is_multiclass(session) else "state": state})


@st.composite
def near_degenerate_sessions(draw, classes):
    """States whose lookahead denominators approach the floor or cross it.

    A heavy edge between two nodes far from the label drives their
    correlation ``|G_qk| / sqrt(G_qq G_kk)`` towards 1; so does a tampered
    pair ``G_jk = t sqrt(G_jj G_kk)``, t within 1e-17 to 1e-3 of 1 on either
    side: the vanishing-denominator tests' state, made symmetric.
    """
    if draw(st.booleans()):
        n = draw(st.integers(12, 60))
        heavy = 10.0 ** draw(st.floats(0.0, 15.0))
        return session_after(ring(n, heavy), [0], [1.0], 0, np.random.default_rng(n), classes)
    session = draw(sessions(classes))
    g = state_of(session).inverse
    j, k = draw(st.lists(st.integers(0, len(g) - 1), min_size=2, max_size=2, unique=True))
    t = 1.0 + draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** -draw(st.floats(3.0, 17.0))
    return tampered(session, j, k, t * np.sqrt(g[j, j] * g[k, k]))


@CLASSES
def test_the_certificate_never_passes_a_state_the_guard_rejects(classes):
    seen = set()

    @PROPERTY
    @given(st.one_of(sessions(classes), near_degenerate_sessions(classes)))
    def check(session):
        table = record(session)
        certified = eem._certified(table)
        try:
            eem._guard(table)
        except DegeneracyError:
            assert not certified
            seen.add("rejected")
        else:
            seen.add("certified" if certified else "fell back")

    check()
    assert seen == {"certified", "fell back", "rejected"}  # every branch was drawn


@st.composite
def log_uniform_runs(draw, classes):
    """Sessions after a long run of commits (up to all but two nodes) on
    ``selftest.log_uniform_graph``s, edge weights log-uniform over
    1e-6..1e6; the commits downdate the state directly, and the session
    starts on the result."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    graph = log_uniform_graph(rng)
    order = [int(v) for v in rng.permutation(graph.n)]
    lap = build_laplacian(graph)
    if classes == 1:
        state, start = init_label_state(lap, order[:1], [1.0]), strategies.start_binary
    else:
        state, start = init_multiclass(lap, order[:1], [0], classes), start_multiclass
    for k in order[1:1 + draw(st.integers(0, graph.n - 3))]:
        c = int(rng.integers(max(2, classes)))
        label = (1.0, -1.0)[c] if classes == 1 else np.where(np.arange(classes) == c, 1.0, -1.0)
        state = downdate_inverse(state, k, label)
    try:
        return start(state, StrategyKind.TSA)
    except DegeneracyError:  # a vanished diag(G) fails the session's start, before any select
        assume(False)


@CLASSES
def test_the_error_bound_never_passes_a_state_the_guard_rejects(classes):
    seen = set()

    @PROPERTY
    @given(st.one_of(sessions(classes), near_degenerate_sessions(classes), log_uniform_runs(classes)))
    def check(session):
        bounded = eem._bounded(state_of(session))
        try:
            eem._guard(record(session))
        except DegeneracyError:
            assert not bounded
            seen.add("rejected")
        seen.add("bound held" if bounded else "bound failed")

    check()
    assert seen == {"bound held", "bound failed", "rejected"}  # both branches, and a state to reject


@CLASSES
def test_only_inversions_and_their_downdates_carry_a_usable_bound(classes):
    session = block_session(0, 2, classes)
    state = state_of(session)
    assert eem._bounded(state) and state.error_bound[0] is state.inverse
    built = (MulticlassState if classes > 1 else LabelState)(
        state.lap, state.labeled, state.labels, state.unlabeled, state.inverse)
    others = [
        state_of(tampered(session, 3, 5, state.inverse[3, 5])),  # G as it was, in a new array
        dataclasses.replace(state, inverse=state.inverse.copy()),
        built,
    ]
    if classes > 1:
        others += state.states
    k = state.unlabeled[7]
    label = 1.0 if classes == 1 else np.where(np.arange(classes) == 0, 1.0, -1.0)
    for other in others:
        assert not eem._bounded(other)
        assert downdate_inverse(other, k, label if other.class_count > 1 else 1.0).error_bound is None
    child = downdate_inverse(state, k, label)
    assert child.error_bound[0] is child.inverse and child.error_bound[1] == state.error_bound[1]
    assert child.error_bound[2] > state.error_bound[2] and eem._bounded(child)


@CLASSES
def test_the_error_bound_is_scale_free_in_beta(classes):
    graph = blocks(300, np.random.default_rng(0), max(2, classes))
    relative = []
    for beta in (1e-6, 1.0, 1e12):
        session = session_after(graph, [0, 1, 150, 151], [1.0, 1.0, -1.0, -1.0], 2, np.random.default_rng(0),
                                classes, beta=beta)
        state = state_of(session)
        assert eem._bounded(state), beta
        _, a, e = state.error_bound
        relative.append((e / a, state.singular_floor * a))
    np.testing.assert_allclose(relative[0], relative[1], rtol=1e-6)
    np.testing.assert_allclose(relative[2], relative[1], rtol=1e-6)


@CLASSES
def test_a_large_inverse_selects_and_commits_as_the_full_table_chooses(classes):
    # At beta 1e-13, max diag(G) is 2.8e12 and the floor 2.8: the q == k
    # placeholder of the lookahead denominators must scale with G, or every
    # select and commit of this well-posed state raises.
    graph = blocks(300, np.random.default_rng(0), 2)
    session = session_after(graph, [0, 1, 150, 151], [1.0, 1.0, -1.0, -1.0], 0, np.random.default_rng(0),
                            classes, beta=1e-13)
    assert state_of(session).singular_floor > 1.0
    for _ in range(3):
        state = state_of(session)
        q = select(session)
        assert q == state.unlabeled[eem.argmin_ties(table(session))]
        session = (update(session, q, 1.0) if classes == 1 else update_multiclass(session, q, 0))


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@CLASSES
def test_a_non_finite_entry_of_g_raises_the_guards_text(classes, value):
    session = block_session(0, 2, classes)
    m = len(state_of(session).unlabeled)
    broken = tampered(session, 40, m - 3, value)
    assert not eem._certified(record(broken))
    with pytest.raises(DegeneracyError) as want:
        table(broken)
    with pytest.raises(DegeneracyError) as got:
        select(broken)
    assert str(got.value) == str(want.value)
    assert str(want.value).startswith("lookahead denominator vanished for candidate")


@CLASSES
def test_a_diagonal_at_or_below_twice_the_floor_falls_back_to_the_guard(monkeypatch, classes):
    # Every other node of a ring is labeled, so G is diagonal and every
    # lookahead denominator is G_kk.  Two edges of weight 6e11 around node 1
    # put G_11 at 1/1.2e12, between the floor (1e-12 of max G_kk = 1/2) and
    # twice it: the certificate cannot start, and the guard passes.
    n = 60
    edges = [(i, (i + 1) % n, 6e11 if i in (0, 1) else 1.0) for i in range(n)]
    labeled = list(range(0, n, 2))
    session = session_after(graph_from_edges(n, edges), labeled, [1.0, -1.0] * (n // 4), 0,
                            np.random.default_rng(0), classes)
    state = state_of(session)
    d = state.inverse.diagonal()
    assert state.singular_floor < d.min() <= 2 * state.singular_floor
    assert not eem._certified(record(session))
    monkeypatch.setattr(eem, "BLOCK_CELLS", 3 * len(d))
    calls = []
    guard = eem._guard
    monkeypatch.setattr(eem, "_guard", lambda t: calls.append(t) or guard(t))
    check_pruned_selection(session, 0)
    assert calls


@CLASSES
def test_the_certificate_is_scale_free_in_beta(classes):
    graph = blocks(300, np.random.default_rng(0), max(2, classes))
    for beta in (1e-6, 1e12):
        session = session_after(graph, [0, 1, 150, 151], [1.0, 1.0, -1.0, -1.0], 2, np.random.default_rng(0),
                                classes, beta=beta)
        assert eem._certified(record(session)), beta


@pytest.mark.parametrize("classes", [1, 3, 4], ids=["binary", "one-vs-rest-3", "one-vs-rest-4"])
def test_block_graph_selects_never_run_the_guard(monkeypatch, classes):
    # Nor the triangle certificate: the O(1) error-bound check certifies
    # every select of these well-posed sessions.
    def fallback(table):
        raise AssertionError("the error bound failed to certify a well-posed state")

    monkeypatch.setattr(eem, "_guard", fallback)
    monkeypatch.setattr(eem, "_certified", fallback)
    for seed in range(3):
        session = block_session(seed, 4, classes)
        m = len(state_of(session).unlabeled)
        assert eem.block_rows(m, classes) < m
        check_pruned_selection(session, seed)
