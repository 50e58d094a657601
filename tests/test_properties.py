"""Symmetry properties of the fast routes, checked on generated graphs.

* Flipping every label negates the harmonic and decision values and leaves
  the tsa and zlg risk tables unchanged (the tsa table reads the logistic
  kernel at ``+f`` where the original reads it at ``-f``).
* Renumbering the nodes renumbers every output.
* With no ridge, scaling the Laplacian by beta leaves every zlg output
  unchanged.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from graphal.eem import tsa_risk_table, zlg_risk_table
from graphal.graph_core import build_laplacian, graph_from_edges, init_label_state
from graphal.inference import lp_harmonic, tsa_marginals, zlg_marginals
from graphal.strategies import (
    StrategyKind,
    predict_binary,
    sopt_scores,
    start_binary,
    vopt_scores,
)

# Derandomized and without an example database, so every tier-1 run checks
# the same examples.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def labeled_graphs(draw):
    """(graph, ascending labeled nodes, labels): a connected 3-12-node graph.

    A random spanning tree plus up to n extra edges, weights in [0.5, 2],
    at least two unlabeled nodes.
    """
    n = draw(st.integers(3, 12))
    weight = st.floats(0.5, 2.0)
    edges = {(draw(st.integers(0, v - 1)), v): draw(weight) for v in range(1, n)}
    node = st.integers(0, n - 1)
    for a, b, w in draw(st.lists(st.tuples(node, node, weight), max_size=n)):
        if a != b:
            edges.setdefault((min(a, b), max(a, b)), w)
    graph = graph_from_edges(n, [(i, j, w) for (i, j), w in edges.items()])
    labeled = sorted(draw(st.lists(node, min_size=1, max_size=n - 2, unique=True)))
    signs = st.sampled_from([-1.0, 1.0])
    labels = draw(st.lists(signs, min_size=len(labeled), max_size=len(labeled)))
    return graph, labeled, np.array(labels)


def binary_outputs(state) -> dict:
    """Every per-node output of the binary fast routes, aligned with ``unlabeled``."""
    tsa = tsa_marginals(state)
    return {
        "h": lp_harmonic(state),
        "f": tsa.values,
        "tsa_p": tsa.prob_plus,
        "zlg_p": zlg_marginals(state).prob_plus,
        "tsa_table": tsa_risk_table(state),
        "zlg_table": zlg_risk_table(state),
        "vopt": vopt_scores(state),
        "sopt": sopt_scores(state),
    }


@PROPERTY
@given(labeled_graphs())
def test_flipping_every_label_negates_h_and_f_and_keeps_the_risk_tables(case):
    graph, labeled, labels = case
    lap = build_laplacian(graph)
    state = init_label_state(lap, labeled, labels)
    flipped = init_label_state(lap, labeled, -labels)
    h, f = lp_harmonic(state), tsa_marginals(state).values
    np.testing.assert_allclose(lp_harmonic(flipped), -h, rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        tsa_marginals(flipped).values, -f, rtol=0, atol=1e-12 * max(1.0, np.abs(f).max())
    )
    np.testing.assert_allclose(tsa_risk_table(flipped), tsa_risk_table(state), rtol=0, atol=1e-12)
    np.testing.assert_allclose(zlg_risk_table(flipped), zlg_risk_table(state), rtol=0, atol=1e-12)


@PROPERTY
@given(labeled_graphs(), st.data())
def test_renumbering_the_nodes_renumbers_every_output(case, data):
    graph, labeled, labels = case
    perm = data.draw(st.permutations(range(graph.n)))
    moved = graph_from_edges(graph.n, [(perm[i], perm[j], w) for i, j, w in graph.edges])
    order = np.argsort([perm[v] for v in labeled])
    state = init_label_state(build_laplacian(graph), labeled, labels)
    renamed = init_label_state(
        build_laplacian(moved), [perm[labeled[i]] for i in order], labels[order]
    )
    # slot in renamed.unlabeled of each node of state.unlabeled
    slot = np.array([renamed.u_index(perm[v]) for v in state.unlabeled])
    want, got = binary_outputs(state), binary_outputs(renamed)
    for name in want:
        np.testing.assert_allclose(got[name][slot], want[name], rtol=1e-9, atol=1e-12, err_msg=name)
    np.testing.assert_allclose(
        renamed.inverse[np.ix_(slot, slot)], state.inverse, rtol=1e-9, atol=1e-12
    )
    # predictions, where the harmonic sign is not decided by rounding
    pred = predict_binary(start_binary(state, StrategyKind.ZLG))
    pred_renamed = predict_binary(start_binary(renamed, StrategyKind.ZLG))
    clear = np.ones(graph.n, dtype=bool)
    clear[list(state.unlabeled)] = np.abs(want["h"]) > 1e-9
    assert np.array_equal(pred_renamed[perm][clear], pred[clear])


@PROPERTY
@given(labeled_graphs(), st.floats(1e-6, 1e6))
def test_zlg_outputs_do_not_change_under_beta_scaling(case, beta):
    graph, labeled, labels = case
    state = init_label_state(build_laplacian(graph), labeled, labels)
    scaled = init_label_state(build_laplacian(graph, beta=beta), labeled, labels)
    np.testing.assert_allclose(lp_harmonic(scaled), lp_harmonic(state), rtol=0, atol=1e-9)
    np.testing.assert_allclose(
        zlg_marginals(scaled).prob_plus, zlg_marginals(state).prob_plus, rtol=0, atol=1e-9
    )
    np.testing.assert_allclose(zlg_risk_table(scaled), zlg_risk_table(state), rtol=0, atol=1e-9)
