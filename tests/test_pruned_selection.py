"""Bound-then-verify tsa selection: pruning never changes a choice.

``next_query`` prunes tsa candidates on partial risk sums
(``eem.tsa_survivors``) and scores only the survivors exactly.  These tests
hold it to the full table: the same node, the same rng draws, survivor
entries bitwise equal to the full table's, every pruned candidate above the
minimum plus the tie tolerance, and the same errors on degenerate states.
``eem.BLOCK_CELLS`` is shrunk so that small graphs run several blocks and
several chunks of the bound sweep.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphal import eem, strategies
from graphal.config import DEFAULT_TOLERANCES
from graphal.errors import DegeneracyError
from graphal.graph_core import LabelState, build_laplacian, graph_from_edges, init_label_state
from graphal.selftest import random_connected_graph
from graphal.strategies import StrategyKind, next_query, start_binary, update

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def session_after(graph, labeled, labels, commits, rng):
    """A tsa session on ``graph`` after ``commits`` random commits."""
    truth = np.where(rng.random(graph.n) < 0.5, 1.0, -1.0)
    truth[labeled] = labels
    session = start_binary(init_label_state(build_laplacian(graph), labeled, labels), StrategyKind.TSA)
    for _ in range(commits):
        if len(session.state.unlabeled) < 3:
            break
        q = session.state.unlabeled[int(rng.integers(len(session.state.unlabeled)))]
        session = update(session, q, truth[q])
    return session


def ring(n):
    return graph_from_edges(n, [(i, (i + 1) % n, 1.0) for i in range(n)])


def grid(side):
    edges = [(r * side + c, r * side + c + 1, 1.0) for r in range(side) for c in range(side - 1)]
    edges += [(r * side + c, (r + 1) * side + c, 1.0) for r in range(side - 1) for c in range(side)]
    return graph_from_edges(side * side, edges)


def two_blocks(n, rng):
    """Two blocks of random unit edges (about 5 per node) and a few bridges:
    its uncertain nodes sit near the boundary, as in the benchmark's SBM."""
    half = n // 2
    edges = {(int(min(u, v)), int(max(u, v)))
             for v in range(n) for u in rng.choice(range(half) if v < half else range(half, n), 5) if u != v}
    edges |= {(int(rng.integers(half)), int(rng.integers(half, n))) for _ in range(n // 50)}
    return graph_from_edges(n, [(i, j, 1.0) for i, j in sorted(edges)])


def two_block_session(seed, commits):
    graph = two_blocks(300, np.random.default_rng(seed))
    return session_after(graph, [0, 1, 150, 151], [1.0, 1.0, -1.0, -1.0], commits, np.random.default_rng(seed))


@st.composite
def sessions(draw):
    """Random connected graphs after a few commits, and symmetric rings and
    grids whose mirror-image candidates tie exactly."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    shape = draw(st.sampled_from(("random", "ring", "grid")))
    if shape == "random":
        graph = random_connected_graph(rng, n_max=60, n_min=12)
        return session_after(graph, [0], [1.0], draw(st.integers(0, 6)), rng)
    if shape == "ring":
        n = draw(st.integers(10, 60))
        labeled, labels = ([0], [1.0]) if draw(st.booleans()) else ([0, n // 2], [1.0, -1.0])
        return session_after(ring(n), labeled, labels, 0, rng)
    side = draw(st.integers(4, 8))
    return session_after(grid(side), [0, side * side - 1], [1.0, -1.0], 0, rng)


def check_pruned_selection(session, rng_seed):
    """Every guarantee of the pruned selection, against the full table."""
    state, f = session.state, session.decisions
    m = len(state.unlabeled)
    full = eem.tsa_risk_table(state, f)
    survivors = eem.tsa_survivors(state, f)
    assert survivors is not None and survivors.size >= 1
    assert np.array_equal(eem.tsa_risk_table(state, f, candidates=survivors), full[survivors])
    pruned = np.setdiff1d(np.arange(m), survivors)
    low = full.min()
    assert np.all(full[pruned] > low + DEFAULT_TOLERANCES.tie_relative * max(1.0, abs(low)))

    pruned_rng, full_rng = np.random.default_rng(rng_seed), np.random.default_rng(rng_seed)
    chosen = next_query(session, pruned_rng)
    assert chosen == state.unlabeled[eem.argmin_ties(full, full_rng)]
    assert pruned_rng.bit_generator.state == full_rng.bit_generator.state


@PROPERTY
@given(sessions(), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_pruned_selection_equals_the_full_table_selection(session, rows, rng_seed):
    m = len(session.state.unlabeled)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eem, "BLOCK_CELLS", rows * m)  # `rows` rows a block, `rows` nodes a chunk
        if eem.block_rows(m) < m:
            check_pruned_selection(session, rng_seed)


def test_tied_candidates_all_survive_and_draw_like_the_full_table(monkeypatch):
    # Opposite labels at nodes 0 and 20 of a ring: candidates k and 40 - k
    # tie exactly, and the best pair lies between the labels.
    session = session_after(ring(40), [0, 20], [1.0, -1.0], 0, np.random.default_rng(0))
    monkeypatch.setattr(eem, "BLOCK_CELLS", 4 * 38)
    full = eem.tsa_risk_table(session.state, session.decisions)
    tied = np.flatnonzero(full <= full.min() + DEFAULT_TOLERANCES.tie_relative)
    assert tied.size == 2
    assert set(tied) <= set(eem.tsa_survivors(session.state, session.decisions))
    picks = {next_query(session, np.random.default_rng(s)) for s in range(16)}
    assert picks == {session.state.unlabeled[i] for i in tied}
    for s in range(4):
        check_pruned_selection(session, s)


def test_pruning_on_a_multi_block_table_calls_the_table_once(monkeypatch):
    session = two_block_session(0, 4)
    m = len(session.state.unlabeled)
    assert eem.block_rows(m) < m
    survivors = eem.tsa_survivors(session.state, session.decisions)
    assert survivors.size < m // 10  # most candidates are pruned
    check_pruned_selection(session, 3)

    calls = []
    table = strategies.tsa_risk_table
    monkeypatch.setattr(strategies, "tsa_risk_table", lambda *a, **k: calls.append(k) or table(*a, **k))
    next_query(session, np.random.default_rng(0))
    assert len(calls) == 1 and np.array_equal(calls[0]["candidates"], survivors)


def test_single_block_tables_are_not_pruned():
    session = session_after(grid(9), [0], [1.0], 3, np.random.default_rng(1))
    m = len(session.state.unlabeled)
    assert eem.block_rows(m) == m
    assert eem.tsa_survivors(session.state, session.decisions) is None


def test_flat_risk_stops_the_sweep_at_its_budget_and_selects_like_the_table():
    # A random expander-like graph spreads its risk over every node, so the
    # bounds prune little before the sweep has spent SWEEP_BUDGET of the table.
    session = session_after(random_connected_graph(np.random.default_rng(2), 300, 300), [0], [1.0], 0,
                            np.random.default_rng(2))
    m = len(session.state.unlabeled)
    assert eem.block_rows(m) < m
    assert eem.tsa_survivors(session.state, session.decisions).size > m // 2
    check_pruned_selection(session, 5)


def test_a_nan_decision_value_fails_clearly(monkeypatch):
    session = session_after(ring(30), [0], [1.0], 0, np.random.default_rng(0))
    monkeypatch.setattr(eem, "BLOCK_CELLS", 3 * 29)
    f = session.decisions.copy()
    f[7] = np.nan
    broken = strategies.replace(session, decisions=f)
    assert eem.tsa_survivors(broken.state, f) is None  # no bound can be trusted
    with pytest.raises(DegeneracyError, match="score of candidate 1 is NaN"):
        next_query(broken)


@pytest.mark.parametrize(
    "pick_node",
    [lambda j, f: (j + 17) % f.size, lambda j, f: int(np.argmin(np.abs(f)))],
    ids=["later-node", "first-swept-node"],  # the smallest |f| is the bound sweep's first column
)
def test_a_vanishing_denominator_in_a_pruned_candidate_raises_like_the_table(pick_node):
    session = two_block_session(0, 2)
    state, f = session.state, session.decisions
    m = len(state.unlabeled)
    assert eem.block_rows(m) < m
    survivors = eem.tsa_survivors(state, f)
    table = eem.tsa_risk_table(state, f)
    j = int(np.argmax(np.where(np.isin(np.arange(m), survivors), -np.inf, table)))  # a pruned candidate
    assert j not in survivors and j > eem.block_rows(m)  # not in the first block
    k = pick_node(j, f)
    assert k != j

    g = state.inverse.copy()
    g[j, k] = np.sqrt(g[j, j] * g[k, k])  # G_kk - G_jk^2 / G_jj rounds to about 0
    flat = LabelState(state.lap, state.labeled, state.labels, state.unlabeled, g)
    with pytest.raises(DegeneracyError) as want:
        eem.tsa_risk_table(flat, f)
    with pytest.raises(DegeneracyError) as got:
        next_query(strategies.replace(session, state=flat))
    assert str(got.value) == str(want.value)
    assert str(want.value) == (
        f"lookahead denominator vanished for candidate {state.unlabeled[j]} at node {state.unlabeled[k]}"
    )


def test_pruned_selection_scratch_is_bounded_by_the_cell_budget():
    # The sweep holds one BLOCK_CELLS slab for the guard, three node-major
    # chunk slabs of |u| * SWEEP_COLUMNS cells and an index slab, and a few
    # |u|-vectors; the survivors' rows then take at most two slabs.  A
    # |u|^2 temporary (87,616 doubles here) would not fit.  A third of the
    # candidates survive here, so the survivors' table runs a full block.
    session = two_block_session(0, 0)
    m = len(session.state.unlabeled)
    assert eem.tsa_survivors(session.state, session.decisions).size > m // 3
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
