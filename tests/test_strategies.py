"""Strategy dispatch, VOpt/SOpt, sessions, and the one-vs-rest wrapper."""
import re
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphal.errors import InputError, UsageError
from graphal.graph_core import LabelState, build_laplacian, downdate_inverse, graph_from_edges, init_label_state
from graphal.inference import lp_harmonic, sigmoid, tsa_marginals
from graphal.eem import BLOCK, BLOCK_CELLS, tsa_lookahead_decisions, tsa_risk_table, zlg_lookahead_harmonic
from graphal.strategies import (
    MulticlassState,
    StrategyKind,
    init_multiclass,
    multiclass_decisions,
    multiclass_harmonics,
    multiclass_risk_table,
    next_query,
    next_query_multiclass,
    predict_binary,
    predict_multiclass,
    sopt_scores,
    start_binary,
    start_multiclass,
    update,
    update_multiclass,
    vopt_scores,
    _harmonic_prob,
    _normalize_rows,
)
from graphal.selftest import random_connected_graph, random_labeled_state
from graphal.graph_core import inverse_residual


def chain_state(n, labeled, labels):
    g = graph_from_edges(n, [(i, i + 1, 1.0) for i in range(n - 1)])
    return init_label_state(build_laplacian(g), labeled, labels)


# --- kind parsing -------------------------------------------------------------


def test_kind_parsing_is_case_insensitive():
    assert StrategyKind.from_string("TSA") is StrategyKind.TSA
    assert StrategyKind.from_string(" Random ") is StrategyKind.RANDOM
    with pytest.raises(UsageError, match="unknown strategy"):
        StrategyKind.from_string("bestfirst")


def test_random_is_flagged_as_reference_baseline():
    assert StrategyKind.RANDOM.is_reference_baseline
    assert not StrategyKind.TSA.is_reference_baseline


# --- geometry-only scores -----------------------------------------------------


def test_vopt_against_bruteforce_objective_on_5_chain():
    state = chain_state(5, [0], [1.0])
    g = state.inverse
    scores = vopt_scores(state)
    for qi in range(len(state.unlabeled)):
        manual = sum(g[k, qi] ** 2 for k in range(g.shape[0])) / g[qi, qi]
        assert scores[qi] == pytest.approx(manual, rel=1e-12)


def test_sopt_against_bruteforce_objective():
    rng = np.random.default_rng(3)
    state = random_labeled_state(rng, random_connected_graph(rng, n_max=12))
    g = state.inverse
    scores = sopt_scores(state)
    for qi in range(len(state.unlabeled)):
        manual = float(g[:, qi].sum()) ** 2 / g[qi, qi]
        assert scores[qi] == pytest.approx(manual, rel=1e-12)


def test_vopt_sopt_ignore_observed_labels():
    rng = np.random.default_rng(7)
    for _ in range(10):
        graph = random_connected_graph(rng, n_max=25)
        state = random_labeled_state(rng, graph)
        flipped = init_label_state(
            state.lap, state.labeled, state.labels * rng.choice([-1.0, 1.0], len(state.labels))
        )
        assert np.array_equal(vopt_scores(state), vopt_scores(flipped))
        assert np.array_equal(sopt_scores(state), sopt_scores(flipped))


# --- binary sessions ----------------------------------------------------------


@pytest.mark.parametrize("kind", list(StrategyKind))
def test_session_determinism(kind):
    def run():
        state = chain_state(12, [3], [1.0])
        session = start_binary(state, kind)
        rng = np.random.default_rng(99)
        picks = []
        for _ in range(5):
            q = next_query(session, rng)
            picks.append(q)
            session = update(session, q, 1.0 if q < 6 else -1.0)
        return picks

    assert run() == run()


@pytest.mark.parametrize("kind", [StrategyKind.TSA, StrategyKind.ZLG])
def test_session_vectors_stay_in_sync_with_state(kind):
    rng = np.random.default_rng(31)
    state = random_labeled_state(rng, random_connected_graph(rng, n_max=25), min_unlabeled=8)
    session = start_binary(state, kind)
    for _ in range(5):
        q = next_query(session, rng)
        session = update(session, q, float(rng.choice([-1.0, 1.0])))
    assert np.max(np.abs(session.harmonic - lp_harmonic(session.state))) <= 1e-9
    if kind is StrategyKind.TSA:
        # the decisions are derived at commit, 2 h / diag(G): bitwise the definition's
        assert np.array_equal(session.decisions, tsa_marginals(session.state, session.harmonic).values)
        fresh = tsa_marginals(session.state).values
        assert np.max(np.abs(session.decisions - fresh)) <= 1e-9
    assert inverse_residual(session.state) <= 1e-8


def test_update_rejects_double_labeling():
    session = start_binary(chain_state(6, [0], [1.0]), StrategyKind.TSA)
    session = update(session, 3, -1.0)
    with pytest.raises(UsageError):
        update(session, 3, -1.0)


def test_random_strategy_is_seed_reproducible():
    session = start_binary(chain_state(30, [0], [1.0]), StrategyKind.RANDOM)
    a = next_query(session, np.random.default_rng(5))
    b = next_query(session, np.random.default_rng(5))
    assert a == b


def test_predict_binary_sign_rule():
    # balanced midpoint gets harmonic value 0 and resolves to +1
    session = start_binary(chain_state(3, [0, 2], [1.0, -1.0]), StrategyKind.ZLG)
    preds = predict_binary(session)
    assert preds[0] == 1.0 and preds[2] == -1.0
    assert preds[1] == 1.0


def test_prediction_ties_are_decided_by_a_tolerance():
    # the midpoint's h is an exact tie; rounding noise of either sign keeps it at +1
    session = start_binary(chain_state(3, [0, 2], [1.0, -1.0]), StrategyKind.ZLG)
    for noise, expected in ((-5e-13, 1.0), (5e-13, 1.0), (-2e-12, -1.0)):
        assert predict_binary(replace(session, harmonic=np.array([noise])))[1] == expected
    # one-vs-rest: the lowest class within the tolerance of the row maximum wins
    multi = start_multiclass(triangle_mstate(), StrategyKind.ZLG)
    rows = np.array([[0.3, 0.3 + 5e-13, 0.1], [0.3, 0.3 + 2e-12, 0.1], [-0.2, -0.5, -0.2 + 1e-13]])
    assert predict_multiclass(replace(multi, harmonics=rows))[[2, 3, 5]].tolist() == [0, 1, 0]


def test_exhausted_session_refuses_queries():
    session = start_binary(chain_state(2, [0], [1.0]), StrategyKind.TSA)
    session = update(session, 1, 1.0)
    with pytest.raises(UsageError):
        next_query(session)


# --- one-vs-rest multiclass -----------------------------------------------------


def triangle_mstate():
    g = graph_from_edges(6, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
                             (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)])
    lap = build_laplacian(g)
    return init_multiclass(lap, [0, 1, 4], [0, 1, 2], 3)


def test_multiclass_init_shares_partition_and_inverse():
    m = triangle_mstate()
    assert m.labeled == (0, 1, 4)
    assert m.unlabeled == (2, 3, 5)
    for st in m.states[1:]:
        assert st.inverse is m.states[0].inverse
        assert st.labeled == m.states[0].labeled
    assert np.array_equal(m.states[0].labels, [1.0, -1.0, -1.0])
    assert np.array_equal(m.states[1].labels, [-1.0, 1.0, -1.0])
    assert np.array_equal(m.states[2].labels, [-1.0, -1.0, 1.0])


def test_multiclass_rejects_degenerate_setups():
    lap = build_laplacian(graph_from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)]))
    with pytest.raises(UsageError):
        init_multiclass(lap, [0], [5], 3)  # class id out of range
    m = init_multiclass(lap, [0], [0], 2)
    for labels in (m.labels[:, :1], m.labels[:, 0]):  # one class; a binary label vector
        with pytest.raises(UsageError, match="at least 2 classes"):
            replace(m, labels=labels)


def six_chain():
    return build_laplacian(graph_from_edges(6, [(i, i + 1, 1.0) for i in range(5)]))


@pytest.mark.parametrize(
    "call, error, text",
    [
        # would give node 2 an all -1 label row, read back as class 0
        (lambda lap: update_multiclass(start_multiclass(init_multiclass(lap, [0], [0], 3), StrategyKind.TSA), 2, 1.5),
         UsageError, "class id 1.5"),
        (lambda lap: init_multiclass(lap, [0, 5], [0, 1.7], 3), UsageError, "class id 1.7"),  # would store class 1
        (lambda lap: init_multiclass(lap, [0, 5.5], [0, 1], 3), InputError, "labeled node 5.5"),  # would label node 5
        (lambda lap: init_label_state(lap, [5.5], [1.0]), InputError, "labeled node 5.5"),
        # int() alone would raise a bare ValueError (NaN) or OverflowError (inf)
        (lambda lap: update_multiclass(start_multiclass(init_multiclass(lap, [0], [0], 3), StrategyKind.TSA), 2,
                                       float("nan")), UsageError, "class id nan"),
        (lambda lap: init_multiclass(lap, [0, 5], [0, np.inf], 3), UsageError, "class id inf"),
        (lambda lap: init_multiclass(lap, [0, -np.inf], [0, 1], 3), InputError, "labeled node -inf"),
        (lambda lap: init_label_state(lap, [np.nan], [1.0]), InputError, "labeled node nan"),
    ],
    ids=["update_multiclass-class", "init_multiclass-class", "init_multiclass-node", "init_label_state-node",
         "update_multiclass-nan-class", "init_multiclass-inf-class", "init_multiclass-inf-node",
         "init_label_state-nan-node"],
)
def test_non_integral_class_ids_and_nodes_are_rejected_by_name(call, error, text):
    with pytest.raises(error, match=f"^{re.escape(text)} is not a whole number$"):
        call(six_chain())


def test_integral_class_ids_and_nodes_of_any_dtype_are_accepted():
    lap = six_chain()
    mstate = init_multiclass(lap, [np.float64(5.0), np.int8(0)], [np.float32(2.0), np.uint8(1)], 3)
    assert mstate.labeled == (0, 5)
    assert np.array_equal(np.argmax(mstate.labels, axis=1), [1, 2])
    session = update_multiclass(start_multiclass(mstate, StrategyKind.TSA), 2, np.float64(1.0))
    assert predict_multiclass(session)[2] == 1


def one_hot(observed_class, class_count):
    """The +/-1 label row of an observed class: +1 in its column."""
    return np.where(np.arange(class_count) == observed_class, 1.0, -1.0)


def test_multiclass_downdate_moves_node_and_matches_fresh_inverse():
    m = triangle_mstate()
    m2 = downdate_inverse(m, 3, one_hot(2, 3))
    assert m2.labeled == (0, 1, 3, 4)
    assert m2.unlabeled == (2, 5)
    assert np.array_equal(m2.labels[:, 2], [-1.0, -1.0, 1.0, 1.0])
    assert np.array_equal(m2.labels[:, 0], [1.0, -1.0, -1.0, -1.0])
    fresh = init_label_state(m.lap, m2.labeled, m2.labels[:, 0])
    assert np.max(np.abs(m2.inverse - fresh.inverse)) <= 1e-9
    with pytest.raises(UsageError):
        downdate_inverse(m2, 3, one_hot(0, 3))


def test_a_one_vs_rest_commit_returns_a_label_matrix_state_whose_runs_share_its_inverse():
    session = update_multiclass(start_multiclass(triangle_mstate(), StrategyKind.TSA), 3, 2)
    m = session.mstate
    assert isinstance(m, MulticlassState) and m.class_count == 3
    assert m.labels.shape == (4, 3) and m.labels.flags.c_contiguous and not m.labels.flags.writeable
    assert np.array_equal(m.labels, [one_hot(c, 3) for c in (0, 1, 2, 2)])
    assert len(m.states) == 3
    for c, run in enumerate(m.states):
        assert type(run) is LabelState
        assert np.array_equal(run.labels, m.labels[:, c]) and not run.labels.flags.writeable
        assert run.inverse is m.inverse
        assert run.labeled is m.labeled and run.unlabeled is m.unlabeled


@pytest.mark.parametrize(
    "multiclass, label",
    [(False, np.array([1.0, -1.0, -1.0])), (False, np.array([1.0])), (False, [1.0]),
     (False, 0.0), (False, 0.5), (False, np.nan),
     (True, 1.0), (True, one_hot(0, 2)), (True, one_hot(0, 4)),
     (True, np.array([1.0, 0.0, -1.0])), (True, np.array([1.0, -1.0, 0.5])), (True, np.array([np.nan, -1.0, 1.0]))],
    ids=["binary-row", "binary-length-1-row", "binary-list", "binary-0", "binary-0.5", "binary-nan",
         "matrix-scalar", "matrix-short-row", "matrix-long-row", "matrix-0", "matrix-0.5", "matrix-nan"],
)
def test_downdate_rejects_a_label_of_the_wrong_shape_or_value(multiclass, label):
    state = triangle_mstate() if multiclass else chain_state(6, [0], [1.0])
    with pytest.raises(InputError, match="^label must be"):
        downdate_inverse(state, 3, label)


@dataclass(frozen=True)
class MulticlassMarginals:
    """Normalized class-probability table plus the uniform-fallback count."""

    nodes: tuple[int, ...]
    table: np.ndarray  # (|u|, C), rows sum to 1
    fallback_rows: int


def multiclass_marginals(mstate, decisions=None):
    """Class-probability table: normalized per-class logistic marginals, the
    readable form of the weights the one-vs-rest risk table uses.

    ``table[k][c] = sigmoid(f_k^c) / sum_c' sigmoid(f_k^c')``.  A row whose
    every binary marginal saturates to zero carries no signal; it falls
    back to uniform 1/C and is counted in ``fallback_rows``.
    """
    if decisions is None:
        decisions = multiclass_decisions(mstate)
    table, fallback = _normalize_rows(sigmoid(decisions))
    return MulticlassMarginals(mstate.unlabeled, table, fallback)


def multiclass_zero_one_risk(table, n):
    """Expected misclassifications over the whole graph, divided by n.

    Each unlabeled row contributes ``1 - max_c table[k][c]``; with C=2 this
    is exactly the binary ``min(p, 1-p)`` risk.
    """
    if n < 1:
        raise UsageError(f"need n >= 1, got {n}")
    if table.shape[0] == 0:
        return 0.0
    return float((1.0 - table.max(axis=1)).sum() / n)


def test_multiclass_marginals_match_hand_normalization():
    m = triangle_mstate()
    marg = multiclass_marginals(m)
    assert np.allclose(marg.table.sum(axis=1), 1.0, atol=1e-9)
    assert marg.fallback_rows == 0
    # independent arithmetic: per-class sigmoids normalized by hand
    decisions = multiclass_decisions(m)
    from scipy.special import expit

    sig = expit(decisions)
    assert np.allclose(marg.table, sig / sig.sum(axis=1, keepdims=True))


def test_multiclass_marginals_fallback_row_counts():
    m = triangle_mstate()
    forced = np.full((3, 3), -100.0)  # every binary marginal saturates at 0
    marg = multiclass_marginals(m, decisions=forced)
    assert marg.fallback_rows == 3
    assert np.allclose(marg.table, 1.0 / 3.0)


def test_multiclass_zero_one_risk_values():
    one_hot = np.eye(4)
    assert multiclass_zero_one_risk(one_hot, 4) == 0.0
    uniform = np.full((6, 4), 0.25)
    assert multiclass_zero_one_risk(uniform, 6) == pytest.approx(0.75)
    with pytest.raises(UsageError):
        multiclass_zero_one_risk(uniform, 0)


def test_multiclass_two_class_reduction_matches_binary():
    rng = np.random.default_rng(13)
    graph = random_connected_graph(rng, n_max=16, n_min=8)
    lap = build_laplacian(graph)
    nodes, classes = [0, 2, 5], [1, 0, 1]
    binary = init_label_state(lap, nodes, [1.0 if c == 1 else -1.0 for c in classes])
    mstate = init_multiclass(lap, nodes, classes, 2)

    bmarg = tsa_marginals(binary)
    table = multiclass_marginals(mstate).table
    assert np.max(np.abs(table[:, 1] - bmarg.prob_plus)) <= 1e-12
    assert multiclass_zero_one_risk(table, lap.n) == pytest.approx(
        float(np.minimum(bmarg.prob_plus, 1 - bmarg.prob_plus).sum() / lap.n), abs=1e-12
    )
    assert (
        np.max(np.abs(multiclass_risk_table(mstate, StrategyKind.TSA) - tsa_risk_table(binary)))
        <= 1e-9
    )


def _risk_given_outcomes(scores_minus, new_plus, qi, n, weights):
    """One candidate's outcome-weighted risk, patching row sums and maxima."""
    base_sum = scores_minus.sum(axis=1)
    order_top2 = np.partition(scores_minus, scores_minus.shape[1] - 2, axis=1)
    top1 = order_top2[:, -1]
    top2 = order_top2[:, -2]
    arg1 = np.argmax(scores_minus, axis=1)

    risk = 0.0
    for b, w in enumerate(weights):
        if w == 0.0:
            continue
        nv = new_plus[:, b]
        sums = base_sum - scores_minus[:, b] + nv
        rest = np.where(arg1 == b, top2, top1)
        maxes = np.maximum(rest, nv)
        contrib = np.empty_like(sums)
        ok = sums > 0.0
        contrib[ok] = 1.0 - maxes[ok] / sums[ok]
        contrib[~ok] = 1.0 - 1.0 / scores_minus.shape[1]
        contrib[qi] = 0.0
        risk += w * float(contrib.sum())
    return risk / n


def per_candidate_risk_table(mstate, kind, decisions, harmonics):
    """Reference: the multiclass risk table one candidate at a time."""
    g = mstate.inverse
    d = np.diag(g)
    if kind is StrategyKind.TSA:
        weights_table = _normalize_rows(sigmoid(decisions))[0]
    else:
        weights_table = _normalize_rows((np.clip(harmonics, -1.0, 1.0) + 1.0) / 2.0)[0]
    out = np.empty(len(mstate.unlabeled))
    for qi in range(len(out)):
        col = g[:, qi]
        if kind is StrategyKind.TSA:
            denom = d - col * col / d[qi]
            denom[qi] = 1.0
            inv_denom = 1.0 / denom
            a = (d[:, None] * decisions - np.outer(col, decisions[qi])) * inv_denom[:, None]
            b = (2.0 * col / d[qi]) * inv_denom
            s_minus = sigmoid(a - b[:, None])
            s_plus_diag = sigmoid(a + b[:, None])
        else:
            r = col / d[qi]
            a = harmonics - np.outer(r, harmonics[qi])
            s_minus = (np.clip(a - r[:, None], -1.0, 1.0) + 1.0) / 2.0
            s_plus_diag = (np.clip(a + r[:, None], -1.0, 1.0) + 1.0) / 2.0
        out[qi] = _risk_given_outcomes(s_minus, s_plus_diag, qi, mstate.n, weights_table[qi])
    return out


def multiclass_session_after_downdates(kind, classes, seed, beta=1.0, n=100):
    """A one-vs-rest session on an n-node random graph after 8 commits."""
    rng = np.random.default_rng(seed)
    graph = random_connected_graph(rng, n_max=n, n_min=n)
    truth = rng.integers(classes, size=graph.n)
    session = start_multiclass(
        init_multiclass(build_laplacian(graph, beta=beta), [0], [truth[0]], classes), kind
    )
    for _ in range(8):
        q = session.mstate.unlabeled[int(rng.integers(len(session.mstate.unlabeled)))]
        session = update_multiclass(session, q, int(truth[q]))
    return session


@pytest.mark.parametrize(
    "classes, beta, n",
    [(2, 1.0, 100), (3, 1.0, 100), (4, 1.0, 100), (2, 1e4, 100), (3, 1e4, 100), (4, 1e4, 100),
     (2, 1.0, 460)],
    ids=["2", "3", "4", "2-saturating", "3-saturating", "4-saturating", "2-capped"],
)
@pytest.mark.parametrize("kind", [StrategyKind.TSA, StrategyKind.ZLG])
def test_multiclass_risk_table_blocks_match_per_candidate_reference(kind, classes, beta, n):
    # ~90 candidates: several full candidate blocks plus a partial last one;
    # at n=460 the cell budget caps the 96-row blocks at 79 rows
    session = multiclass_session_after_downdates(kind, classes, 41 + classes, beta=beta, n=n)
    m = len(session.mstate.unlabeled)
    assert (BLOCK_CELLS // m < BLOCK // classes) == (n > 100)
    g = session.mstate.inverse
    assert np.array_equal(g, g.T)  # downdates keep G exactly symmetric
    if kind is StrategyKind.TSA and beta > 1.0:
        # large beta scales G down and the decision values up: the sweep
        # snaps saturated sigmoids, and with C > 2 some rows saturate to 0
        # in every class and fall back to uniform
        assert np.abs(session.decisions).max() > 36.0
        if classes > 2:
            assert multiclass_marginals(session.mstate, session.decisions).fallback_rows > 0

    decisions = session.decisions if kind is StrategyKind.TSA else None
    fast = multiclass_risk_table(
        session.mstate, kind, decisions=decisions, harmonics=session.harmonics
    )
    slow = per_candidate_risk_table(session.mstate, kind, decisions, session.harmonics)
    assert np.array_equal(fast, slow)


@st.composite
def rare_sweep_cases(draw):
    """A hand-built one-vs-rest state that drives the sweep off its usual path.

    ``G`` is the inverse of a random diagonally dominant SPD matrix whose
    off-diagonal entries have both signs, averaged with its transpose so
    that it is exactly symmetric, as a maintained inverse is.  A negative
    ``G_kq`` makes the lookahead shift negative, so ``S+[c] < S-[c]`` there
    and the row max needs the patch over the other classes.  With
    ``saturate``, ``G`` is scaled by 1/beta = 1e-4 and some rows are
    negative in every class: tsa's
    decision values saturate to 0 (zlg's harmonic values clip to 0) in every
    class, and those rows fall back to uniform.  C stays below 8, where
    numpy sums a row sequentially, as the reference does.
    """
    c_count = draw(st.integers(2, 7))
    m = draw(st.integers(2, 40))
    kind = draw(st.sampled_from([StrategyKind.TSA, StrategyKind.ZLG]))
    saturate = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    off = rng.uniform(-1.0, 1.0, (m, m))
    off = off + off.T
    np.fill_diagonal(off, 0.0)
    spd = off + np.diag(np.abs(off).sum(axis=1) + rng.uniform(0.1, 1.0, m))
    g = np.linalg.inv(spd * (1e4 if saturate else 1.0))
    g = (g + g.T) / 2.0
    if not (g < 0.0).any():  # flip node 0: D G D is the inverse of D spd D, D = diag(-1, 1, ...)
        g[0, 1:] *= -1.0
        g[1:, 0] *= -1.0
    g.setflags(write=False)
    first = chain_state(m + 1, [0], [1.0])
    mstate = MulticlassState(first.lap, first.labeled, one_hot(0, c_count)[None, :], first.unlabeled, g)
    h = rng.uniform(-1.0, 1.0, (m, c_count))
    if saturate:
        dead = rng.random(m) < 0.3
        dead[0] = True
        low = 1.0 if kind is StrategyKind.ZLG else 0.1  # zlg clips h <= -1 to probability 0
        h[dead] = -rng.uniform(low, low + 0.5, (dead.sum(), c_count))
    decisions = 2.0 * h / np.diag(g)[:, None] if kind is StrategyKind.TSA else None
    return mstate, kind, decisions, h, saturate


@given(rare_sweep_cases())
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
def test_multiclass_risk_table_rare_paths_match_per_candidate_reference(case):
    mstate, kind, decisions, harmonics, saturate = case
    g = mstate.inverse
    assert (g < 0.0).any()  # some candidate row holds a negative entry
    assert np.array_equal(g, g.T)
    if saturate:
        scores = sigmoid(decisions) if kind is StrategyKind.TSA else _harmonic_prob(harmonics)
        assert _normalize_rows(scores)[1] > 0  # fallback rows
    fast = multiclass_risk_table(mstate, kind, decisions=decisions, harmonics=harmonics)
    slow = per_candidate_risk_table(mstate, kind, decisions, harmonics)
    assert np.array_equal(fast, slow)


def test_matrix_lookaheads_match_per_class_calls():
    session = multiclass_session_after_downdates(StrategyKind.TSA, 4, 7)
    state = session.mstate
    for q in state.unlabeled[::15]:
        for observed in range(4):
            y = np.where(np.arange(4) == observed, 1.0, -1.0)
            h = session.harmonics
            per_class = np.column_stack([zlg_lookahead_harmonic(state, h[:, c], q, y[c]) for c in range(4)])
            assert np.array_equal(zlg_lookahead_harmonic(state, h, q, y), per_class)
            with pytest.raises(UsageError, match="one vector of decision values"):  # no matrix form
                tsa_lookahead_decisions(state, session.decisions, q, y)


@pytest.mark.parametrize("kind", [StrategyKind.TSA, StrategyKind.ZLG])
def test_multiclass_risk_table_against_fresh_recompute(kind):
    # oracle: rebuild the conditioned multiclass state per (q, outcome) and
    # recompute marginals from scratch
    m = triangle_mstate()
    n = m.n
    table = multiclass_marginals(m).table if kind is StrategyKind.TSA else None
    if kind is StrategyKind.ZLG:
        h = multiclass_harmonics(m)
        table = _normalize_rows((np.clip(h, -1.0, 1.0) + 1.0) / 2.0)[0]
    fast = multiclass_risk_table(m, kind)
    for qi, q in enumerate(m.unlabeled):
        expected = 0.0
        for b in range(m.class_count):
            conditioned = downdate_inverse(m, q, one_hot(b, m.class_count))
            if kind is StrategyKind.TSA:
                after = multiclass_marginals(conditioned).table
            else:
                hh = multiclass_harmonics(conditioned)
                after = _normalize_rows((np.clip(hh, -1.0, 1.0) + 1.0) / 2.0)[0]
            expected += table[qi, b] * multiclass_zero_one_risk(after, n)
        assert fast[qi] == pytest.approx(expected, abs=1e-10)


def test_multiclass_session_loop_and_prediction():
    m = triangle_mstate()
    truth = np.array([0, 1, 1, 2, 2, 2])
    session = start_multiclass(m, StrategyKind.TSA)
    rng = np.random.default_rng(2)
    seen = []
    for _ in range(3):
        q = next_query_multiclass(session, rng)
        seen.append(q)
        session = update_multiclass(session, q, int(truth[q]))
    assert sorted(seen) == [2, 3, 5]  # everything got queried
    preds = predict_multiclass(session)
    assert np.array_equal(preds, truth)  # all nodes observed by now
    with pytest.raises(UsageError):
        next_query_multiclass(session, rng)


def test_multiclass_session_vectors_stay_in_sync():
    m = triangle_mstate()
    session = start_multiclass(m, StrategyKind.TSA)
    session = update_multiclass(session, 3, 1)
    assert np.max(np.abs(session.harmonics - multiclass_harmonics(session.mstate))) <= 1e-9
    assert np.max(np.abs(session.decisions - multiclass_decisions(session.mstate))) <= 1e-9
    assert np.array_equal(session.decisions, multiclass_decisions(session.mstate, session.harmonics))


def test_one_vs_rest_invariants_hold_through_commits():
    rng = np.random.default_rng(14)
    graph = random_connected_graph(rng, n_max=40, n_min=40)
    truth = rng.integers(3, size=graph.n)
    lap = build_laplacian(graph)
    session = start_multiclass(init_multiclass(lap, [7], [truth[7]], 3), StrategyKind.TSA)
    for _ in range(5):
        q = next_query_multiclass(session, rng)
        session = update_multiclass(session, q, int(truth[q]))
        labeled = list(session.mstate.labeled)
        expected = np.where(truth[labeled][:, None] == np.arange(3), 1.0, -1.0)
        assert np.array_equal(session.mstate.labels, expected)
        assert np.array_equal(predict_multiclass(session)[labeled], truth[labeled])
    assert len(session.mstate.labeled) == 6

    # every node labeled: no unlabeled rows, but still C columns
    full = init_multiclass(lap, range(graph.n), truth, 3)
    session = start_multiclass(full, StrategyKind.TSA)
    assert session.harmonics.shape == (0, 3)
    assert session.decisions.shape == (0, 3)


@pytest.mark.parametrize("kind", [StrategyKind.VOPT, StrategyKind.SOPT, StrategyKind.RANDOM])
def test_multiclass_geometry_strategies_run(kind):
    session = start_multiclass(triangle_mstate(), kind)
    q = next_query_multiclass(session, np.random.default_rng(0))
    assert q in session.mstate.unlabeled
