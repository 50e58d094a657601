"""Marginal routes: harmonic, logistic decision values, exact enumeration."""
import itertools
import warnings

import numpy as np
import pytest
import scipy.special

from graphal.config import DEFAULT_TOLERANCES
from graphal.eem import tsa_risk_table
from graphal.errors import CapacityError, InputError
from graphal.graph_core import build_laplacian, dense_laplacian, graph_from_edges, init_label_state
from graphal.inference import (
    MarginalKind,
    _logistic_tail,
    exact_bmrf_marginals,
    lp_harmonic,
    sigmoid,
    tsa_imputation_decision,
    tsa_marginals,
    zlg_marginals,
)
from graphal.selftest import random_connected_graph, random_labeled_state


def chain_state(n, labeled, labels, beta=1.0):
    g = graph_from_edges(n, [(i, i + 1, 1.0) for i in range(n - 1)])
    return init_label_state(build_laplacian(g, beta=beta), labeled, labels)


DEMO_CHAIN = dict(n=18, labeled=[0, 10], labels=[1.0, -1.0])
# P(Y_k = -1) for 1-based nodes 12..18 under each route
TSA_TAIL = (0.88, 0.73, 0.66, 0.62, 0.60, 0.58, 0.57)
EXACT_TAIL = (0.88, 0.79, 0.72, 0.67, 0.63, 0.60, 0.57)


def tail_minus_probs(marg):
    idx = {v: i for i, v in enumerate(marg.nodes)}
    return np.array([1.0 - marg.prob_plus[idx[k]] for k in range(11, 18)])


# --- sigmoid ----------------------------------------------------------------


def test_sigmoid_midpoint_and_symmetry():
    assert sigmoid(np.array([0.0]))[0] == 0.5
    z = np.linspace(-5, 5, 11)
    assert np.allclose(sigmoid(z) + sigmoid(-z), 1.0)


def test_sigmoid_saturates_exactly():
    out = sigmoid(np.array([-40.0, 40.0, np.inf, -np.inf]))
    assert np.array_equal(out, [0.0, 1.0, 1.0, 0.0])
    assert sigmoid(np.float64(50.0)) == 1.0  # scalar path


KERNEL_INPUTS = np.concatenate(
    (np.linspace(-800.0, 800.0, 200_001), [710.0, -710.0, np.inf, -np.inf, np.nan])
)


def assert_within_ulps(got, ref, ulps=8):
    """Equal NaN positions; elsewhere within ``ulps`` units in the last place.

    Results below the smallest normal float count as zero: the kernel
    returns exactly 0 where ``exp`` overflows and ``expit`` may still give
    a subnormal.
    """
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(got), nan)
    got, ref = got[~nan], ref[~nan]
    gap = np.abs(got - ref)
    scale = np.spacing(np.maximum(np.abs(got), np.abs(ref)))
    assert np.all(gap <= ulps * scale + np.finfo(float).tiny)


def test_sigmoid_and_tsa_tail_agree_with_expit_within_a_few_ulp():
    z = KERNEL_INPUTS
    sat = DEFAULT_TOLERANCES.saturation
    snapped = np.where(z > sat, 1.0, np.where(z < -sat, 0.0, scipy.special.expit(z)))
    assert_within_ulps(sigmoid(z), snapped)
    # the tsa table's min(p, 1 - p) = sigmoid(-|f|), unsnapped
    tail = _logistic_tail(np.abs(z), np.empty_like(z))
    assert_within_ulps(tail, scipy.special.expit(-np.abs(z)))
    assert _logistic_tail(np.array([710.0, np.inf]), np.empty(2)).tolist() == [0.0, 0.0]


def test_sigmoid_zero_d_input_and_input_left_unchanged():
    for z in (0.0, np.float64(-0.5), np.array(3.0)):
        p = sigmoid(z)
        assert isinstance(p, np.float64)
        assert_within_ulps(np.array([p]), scipy.special.expit(np.array([z], dtype=float)))
    assert sigmoid(np.array(-40.0)) == 0.0
    z = np.array([[-40.0, -1.5, 0.0], [2.0, 36.5, np.nan]])
    before = z.copy()
    out = sigmoid(z)
    assert out is not z
    assert np.array_equal(z, before, equal_nan=True)
    assert out[0, 0] == 0.0 and out[1, 1] == 1.0


def always_masked_sigmoid(z):
    """Reference: the snap as two masked ``copyto`` calls on every input."""
    z = np.asarray(z, dtype=float)
    x = np.negative(z, out=np.empty_like(z))
    sat = DEFAULT_TOLERANCES.saturation
    np.copyto(x, np.inf, where=x > sat)
    np.copyto(x, -np.inf, where=x < -sat)
    _logistic_tail(x, out=x)
    return x[()] if x.ndim == 0 else x


SNAP_CASES = {
    "none": np.linspace(-35.9, 35.9, 1001),
    "high-only": np.array([36.5, 40.0, 700.0, 1.5, -2.0, 36.0]),
    "low-only": np.array([-36.5, -40.0, -800.0, 0.5, -36.0]),
    "both": np.array([[-40.0, 40.0, 0.0], [36.5, -36.5, 3.0]]),
    "inf": np.array([np.inf, -np.inf, 1.0]),
    "zero-d-high": np.array(36.5),
    "zero-d-low": np.array(-36.5),
    "zero-d-inside": np.array(0.3),
    "nan-next-to-saturated": np.array([np.nan, 40.0, -40.0, 2.0, np.nan]),
    "nan-only": np.array([np.nan, 1.0]),
}


@pytest.mark.parametrize("z", SNAP_CASES.values(), ids=SNAP_CASES.keys())
def test_sigmoid_snaps_bitwise_like_the_always_masked_form(z):
    expected = always_masked_sigmoid(z.copy())
    out = sigmoid(z.copy())
    assert np.array_equal(out, expected, equal_nan=True)
    if not z.ndim:
        assert isinstance(out, np.float64)


def test_logistic_kernels_raise_no_warning():
    z = KERNEL_INPUTS
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sigmoid(z)
        sigmoid(np.float64(-800.0))
        _logistic_tail(np.abs(z), np.empty_like(z))
        # decision values ~1e6 overflow exp inside the tsa table
        state = chain_state(**DEMO_CHAIN, beta=1e6)
        table = tsa_risk_table(state)
    assert np.all(np.isfinite(table))


# --- harmonic ---------------------------------------------------------------


def test_harmonic_two_node_boundary():
    state = chain_state(2, [0], [1.0])
    assert np.allclose(lp_harmonic(state), [1.0])


def test_harmonic_three_chain_midpoint():
    state = chain_state(3, [0, 2], [1.0, -1.0])
    assert abs(lp_harmonic(state)[0]) <= 1e-12


def test_harmonic_stays_in_unit_interval():
    rng = np.random.default_rng(5)
    for _ in range(20):
        state = random_labeled_state(rng, random_connected_graph(rng))
        h = lp_harmonic(state)
        assert np.all(h <= 1.0 + 1e-9) and np.all(h >= -1.0 - 1e-9)


# --- decision-value marginals -----------------------------------------------


def test_two_node_decision_value():
    marg = tsa_marginals(chain_state(2, [0], [1.0]))
    assert np.allclose(marg.values, [2.0])
    assert np.allclose(marg.prob_plus, scipy.special.expit(2.0))
    exact = exact_bmrf_marginals(chain_state(2, [0], [1.0]).lap, [0], [1.0])
    assert abs(marg.prob_plus[0] - exact.prob_plus[0]) <= 1e-12


def test_three_chain_symmetry_gives_half():
    marg = tsa_marginals(chain_state(3, [0, 2], [1.0, -1.0]))
    assert abs(marg.prob_plus[0] - 0.5) <= 1e-12


def test_demo_chain_decision_marginals():
    marg = tsa_marginals(chain_state(**DEMO_CHAIN))
    assert np.max(np.abs(tail_minus_probs(marg) - TSA_TAIL)) <= 0.005


def test_decision_values_scale_linearly_with_beta():
    f1 = tsa_marginals(chain_state(**DEMO_CHAIN, beta=1.0)).values
    f3 = tsa_marginals(chain_state(**DEMO_CHAIN, beta=3.0)).values
    assert np.allclose(f3, 3.0 * f1)
    # while the harmonic values do not move at all
    h1 = lp_harmonic(chain_state(**DEMO_CHAIN, beta=1.0))
    h3 = lp_harmonic(chain_state(**DEMO_CHAIN, beta=3.0))
    assert np.allclose(h1, h3)


def test_decision_values_share_harmonic_sign():
    rng = np.random.default_rng(17)
    for _ in range(10):
        state = random_labeled_state(rng, random_connected_graph(rng))
        f = tsa_marginals(state).values
        h = lp_harmonic(state)
        mask = np.abs(h) > 1e-12
        assert np.all(np.sign(f[mask]) == np.sign(h[mask]))


def test_label_flip_negates_decision_values():
    state = chain_state(**DEMO_CHAIN)
    flipped = chain_state(18, [0, 10], [-1.0, 1.0])
    assert np.allclose(tsa_marginals(flipped).values, -tsa_marginals(state).values)
    assert np.allclose(
        tsa_marginals(flipped).prob_plus, 1.0 - tsa_marginals(state).prob_plus
    )


# --- harmonic marginals -----------------------------------------------------


def test_zlg_two_node_boundary_is_certain():
    marg = zlg_marginals(chain_state(2, [0], [1.0]))
    assert marg.prob_plus[0] == 1.0


def test_zlg_three_chain_midpoint():
    marg = zlg_marginals(chain_state(3, [0, 2], [1.0, -1.0]))
    assert abs(marg.prob_plus[0] - 0.5) <= 1e-12


def test_zlg_demo_chain_tail_saturates_exactly():
    marg = zlg_marginals(chain_state(**DEMO_CHAIN))
    tail = tail_minus_probs(marg)
    assert np.array_equal(tail, np.ones(7))


def test_zlg_probs_within_unit_interval():
    rng = np.random.default_rng(23)
    for _ in range(10):
        state = random_labeled_state(rng, random_connected_graph(rng))
        p = zlg_marginals(state).prob_plus
        assert np.all((p >= 0.0) & (p <= 1.0))


# --- exact enumeration ------------------------------------------------------


def test_exact_two_node_by_hand():
    # configurations +1/-1 have energies -0.5 / 1.5, so P(+1) = 1/(1+e^-2)
    state = chain_state(2, [0], [1.0])
    marg = exact_bmrf_marginals(state.lap, [0], [1.0])
    assert abs(marg.prob_plus[0] - 1.0 / (1.0 + np.exp(-2.0))) <= 1e-12


def test_exact_three_chain_symmetry():
    state = chain_state(3, [0, 2], [1.0, -1.0])
    marg = exact_bmrf_marginals(state.lap, [0, 2], [1.0, -1.0])
    assert abs(marg.prob_plus[0] - 0.5) <= 1e-12


def test_exact_demo_chain_tail():
    state = chain_state(**DEMO_CHAIN)
    marg = exact_bmrf_marginals(state.lap, [0, 10], [1.0, -1.0])
    assert np.max(np.abs(tail_minus_probs(marg) - EXACT_TAIL)) <= 0.005


def test_exact_matches_independent_itertools_enumeration():
    rng = np.random.default_rng(41)
    graph = random_connected_graph(rng, n_max=9, n_min=8)
    lap = build_laplacian(graph)
    labeled = [0, 1]
    labels = np.array([1.0, -1.0])
    fast = exact_bmrf_marginals(lap, labeled, labels)

    # independent reference: python loop over every completion
    unlabeled = fast.nodes
    m = len(unlabeled)
    iu = np.asarray(unlabeled)
    il = np.asarray(labeled)
    mat = dense_laplacian(lap)
    weights = {}
    for signs in itertools.product((-1.0, 1.0), repeat=m):
        s = np.asarray(signs)
        full = np.empty(lap.n)
        full[il] = labels
        full[iu] = s
        energy = 0.5 * full @ mat @ full
        weights[signs] = np.exp(-energy)
    z = sum(weights.values())
    for k in range(m):
        p = sum(w for signs, w in weights.items() if signs[k] > 0) / z
        assert abs(p - fast.prob_plus[k]) <= 1e-10


def test_exact_chunking_is_seamless():
    # 17 unlabeled nodes spans two chunks of 2^16; spot-check against the
    # single-chunk result on the same nodes obtained by conditioning less
    state = chain_state(19, [0, 10], [1.0, -1.0])
    marg = exact_bmrf_marginals(state.lap, [0, 10], [1.0, -1.0])
    assert marg.prob_plus.shape == (17,)
    assert np.all((marg.prob_plus > 0) & (marg.prob_plus < 1))
    # the first 16-node tail values barely move when one more node joins
    smaller = exact_bmrf_marginals(
        chain_state(18, [0, 10], [1.0, -1.0]).lap, [0, 10], [1.0, -1.0]
    )
    idx = {v: i for i, v in enumerate(marg.nodes)}
    sidx = {v: i for i, v in enumerate(smaller.nodes)}
    for k in range(1, 10):
        assert abs(marg.prob_plus[idx[k]] - smaller.prob_plus[sidx[k]]) < 0.01


@pytest.mark.parametrize(
    "labeled,labels,match",
    [
        ([1.5], [1.0], "labeled node 1.5 is not a whole number"),
        ([1, 1], [1.0, -1.0], "duplicate node"),
        ([0], [0.5], "labels must be"),
        ([0, 4], [1.0, -1.0], "outside range"),
        ([0, 1], [1.0], "2 labeled nodes but 1 labels"),
    ],
)
def test_exact_rejects_what_a_state_rejects(labeled, labels, match):
    # One input check: a truncated id, a node labeled both ways or a label
    # off +/-1 is an error in the oracle too, not a silently wrong answer.
    lap = chain_state(4, [0], [1.0]).lap
    with pytest.raises(InputError, match=match):
        exact_bmrf_marginals(lap, labeled, labels)
    with pytest.raises(InputError, match=match):
        init_label_state(lap, labeled, labels)


def test_exact_reads_labeled_nodes_in_any_order_and_whole_floats():
    lap = chain_state(4, [0], [1.0]).lap
    want = exact_bmrf_marginals(lap, [0, 3], [1.0, -1.0])
    got = exact_bmrf_marginals(lap, [np.float64(3.0), 0], np.array([-1, 1]))
    assert got.nodes == want.nodes == (1, 2)
    assert np.array_equal(got.prob_plus, want.prob_plus)


def test_exact_capacity_cap():
    state = chain_state(30, [0], [1.0])
    with pytest.raises(CapacityError, match="cap is 20"):
        exact_bmrf_marginals(state.lap, [0], [1.0])
    # explicit cap override is honored
    with pytest.raises(CapacityError):
        exact_bmrf_marginals(state.lap, [0], [1.0], cap=10)


def test_tsa_tracks_exact_on_chains():
    # On short unit chains the logistic decision-value marginals stay close
    # to enumeration: ~0.07 on the 18-node two-label setup, 0.084 worst-case
    # over endpoint labelings.
    worst = 0.0
    for n in (6, 10, 14, 18):
        for labeled, labels in (([0], [1.0]), ([0, n - 1], [1.0, -1.0]), ([0, n // 2], [1.0, -1.0])):
            state = chain_state(n, labeled, labels)
            approx = tsa_marginals(state).prob_plus
            exact = exact_bmrf_marginals(state.lap, labeled, labels).prob_plus
            worst = max(worst, float(np.max(np.abs(approx - exact))))
    assert worst <= 0.085, worst
    demo = chain_state(**DEMO_CHAIN)
    dev = np.max(
        np.abs(
            tsa_marginals(demo).prob_plus
            - exact_bmrf_marginals(demo.lap, [0, 10], [1.0, -1.0]).prob_plus
        )
    )
    assert dev <= 0.071, dev


# --- two-step imputation route ---------------------------------------------


def test_imputation_two_node():
    assert tsa_imputation_decision(chain_state(2, [0], [1.0]), 1) == pytest.approx(2.0)


def test_imputation_three_chain_symmetry():
    assert abs(tsa_imputation_decision(chain_state(3, [0, 2], [1.0, -1.0]), 1)) <= 1e-12


def test_imputation_matches_vectorized_route():
    state = chain_state(**DEMO_CHAIN)
    f = tsa_marginals(state).values
    k12 = state.u_index(11)  # 1-based node 12
    assert abs(tsa_imputation_decision(state, 11) - f[k12]) <= 1e-9
    rng = np.random.default_rng(8)
    for _ in range(5):
        st = random_labeled_state(rng, random_connected_graph(rng, n_max=15))
        fv = tsa_marginals(st).values
        for i, k in enumerate(st.unlabeled):
            assert abs(tsa_imputation_decision(st, k) - fv[i]) <= 1e-9
