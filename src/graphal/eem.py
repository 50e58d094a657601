"""Expected-error query selection.

The selector scores every unlabeled candidate ``q`` by the posterior-weighted
zero-one risk that would remain after querying it:

    score(q) = sum_y P(Y_q = y) * risk(marginals after observing Y_q = y)

and queries the minimizer.  The expensive part is the "after observing"
marginals for every (q, y) pair.  Both fast posteriors admit a closed-form
one-step update from the maintained inverse ``G`` (no refactorization):

* harmonic values:   h+_k = h_k + (y - h_q) G_kq / G_qq
* decision values:   f+_k = (G_kk f_k + (2y/G_qq - f_q) G_kq)
                            / (G_kk - G_kq^2 / G_qq)

so one selection sweep costs O(|u|^2).  ``tsa_risk_table`` and
``zlg_risk_table`` evaluate all candidates at once in cache-friendly row
blocks; :func:`candidate_blocks`, which the one-vs-rest sweep shares, sizes
them and carves their scratch from one allocation per call.  The tsa table's
per-node risk ``min(p, 1-p) = 1 / (1 + exp|f+|)`` comes from
``inference._logistic_tail``, the vectorized-``exp`` kernel behind
``sigmoid``; its bits differ from ``scipy.special.expit`` by a few ULP, the
choices made from it do not.

``lookahead_risk`` is the plain per-candidate form of the same quantity,
kept around as the readable reference the tables are tested against (its
tsa branch still calls ``scipy.special.expit``); with
``MarginalKind.EXACT`` it re-enumerates the posterior and serves as the
oracle for the fast routes.
"""
from __future__ import annotations

import numpy as np
import scipy.special

from .config import DEFAULT_TOLERANCES
from .errors import DegeneracyError, UsageError
from .graph_core import LabelState, downdate_inverse
from .inference import (
    MarginalKind,
    Marginals,
    _logistic_tail,
    exact_bmrf_marginals,
    lp_harmonic,
    sigmoid,
    tsa_marginals,
)

BLOCK = 192  # candidate rows per block at most, divided by C one-vs-rest
BLOCK_CELLS = 36_000  # cells per scratch slab: caps the rows so blocks stay in cache


def zero_one_risk(marginals: Marginals, n: int) -> float:
    """Expected number of sign errors over the whole graph, divided by n.

    Each unlabeled node contributes ``min(p, 1-p)``; labeled nodes
    contribute zero but still count in the denominator.
    """
    if n < 1:
        raise UsageError(f"need n >= 1, got {n}")
    p = marginals.prob_plus
    if p.size == 0:
        return 0.0
    return float(np.minimum(p, 1.0 - p).sum() / n)


def tsa_lookahead_decisions(state: LabelState, f: np.ndarray, q: int, y) -> np.ndarray:
    """Decision values after hypothetically observing ``Y_q = y``.

    ``f`` is one vector aligned with ``state.unlabeled`` and ``y`` a label,
    or ``f`` is a (|u|, C) matrix of one column per one-vs-rest run and
    ``y`` a length-C label vector; the matrix form shares the diagonal and
    the denominator, and each column equals the one-column call bitwise.
    Row ``q`` is set to +/-inf (a just-observed node is certain).  The
    state itself is untouched.
    """
    qi = state.u_index(q)
    g = state.inverse
    d = np.diag(g)
    if d[qi] <= state.singular_floor:
        raise DegeneracyError(f"inverse diagonal at node {{}} is {d[qi]:.3e}", q)
    col = g[:, qi]
    denom = lookahead_denominators(state, d, col[None, :], qi, (0, qi), np.empty((1, d.size)))[0]
    if f.ndim == 2:
        d, col, denom = d[:, None], col[:, None], denom[:, None]
    fp = (d * f + (2.0 * y / d[qi] - f[qi]) * col) / denom
    fp[qi] = np.where(y > 0, np.inf, -np.inf)
    return fp


def zlg_lookahead_harmonic(state: LabelState, h: np.ndarray, q: int, y) -> np.ndarray:
    """Harmonic values after hypothetically pinning node ``q`` to ``y``.

    One rank-one correction of the interpolation; row ``q`` becomes ``y``
    exactly.  Takes one vector and a label, or a (|u|, C) matrix and a
    length-C label vector, like :func:`tsa_lookahead_decisions`.
    """
    qi = state.u_index(q)
    g = state.inverse
    if g[qi, qi] <= state.singular_floor:
        raise DegeneracyError(f"inverse diagonal at node {{}} is {g[qi, qi]:.3e}", q)
    ratio = g[:, qi] / g[qi, qi]
    if h.ndim == 2:
        ratio = ratio[:, None]
    hp = h + (y - h[qi]) * ratio
    hp[qi] = y
    return hp


def _branch_weights(kind: MarginalKind, value_q: float) -> tuple[float, float]:
    """(P(Y_q=+1), P(Y_q=-1)) implied by the route's own marginal at q."""
    if kind is MarginalKind.TSA:
        wp = float(sigmoid(value_q))
    else:  # harmonic mean value
        wp = (min(max(value_q, -1.0), 1.0) + 1.0) / 2.0
    return wp, 1.0 - wp


def lookahead_risk(state: LabelState, kind: MarginalKind, q: int) -> float:
    """Expected post-query risk for a single candidate, straight-line form.

    The TSA/ZLG branches use the closed-form updates above; the EXACT
    branch rebuilds the conditioned posterior by enumeration (slow, used
    as ground truth in tests and the self-check suite) under the
    default enumeration cap.
    """
    n = state.n
    if kind is MarginalKind.EXACT:
        base = exact_bmrf_marginals(state.lap, state.labeled, state.labels)
        qi = base.nodes.index(q)
        wp = float(base.prob_plus[qi])
        risk = 0.0
        for y, w in ((1.0, wp), (-1.0, 1.0 - wp)):
            if w == 0.0:
                continue
            cond = downdate_inverse(state, q, y)
            after = exact_bmrf_marginals(cond.lap, cond.labeled, cond.labels)
            risk += w * float(np.minimum(after.prob_plus, 1.0 - after.prob_plus).sum() / n)
        return risk

    if kind is MarginalKind.TSA:
        f = tsa_marginals(state).values
        wp, wm = _branch_weights(kind, f[state.u_index(q)])
        risk = 0.0
        for y, w in ((1.0, wp), (-1.0, wm)):
            fp = tsa_lookahead_decisions(state, f, q, y)
            risk += w * float(scipy.special.expit(-np.abs(fp)).sum() / n)
        return risk

    if kind is MarginalKind.ZLG:
        h = lp_harmonic(state)
        wp, wm = _branch_weights(kind, h[state.u_index(q)])
        risk = 0.0
        for y, w in ((1.0, wp), (-1.0, wm)):
            hp = np.clip(zlg_lookahead_harmonic(state, h, q, y), -1.0, 1.0)
            risk += w * float(((1.0 - np.abs(hp)) / 2.0).sum() / n)
        return risk

    raise UsageError(f"unsupported marginal kind {kind}")


def block_rows(m: int, classes: int = 1) -> int:
    """Rows per block of ``m`` candidates: ``max(1, min(BLOCK // C, BLOCK_CELLS // m))``."""
    return min(m, max(1, min(BLOCK // classes, BLOCK_CELLS // m)))


def candidate_blocks(m: int, slabs: int, classes: int = 1):
    """Sweep ``m`` candidates in row blocks of :func:`block_rows`.

    Yields ``(q0, q1, diag, scratch)``: candidates ``q0:q1``, the index pair
    of their q == k entries in a (rows, |u|) block, and ``slabs`` contiguous
    (rows, |u|) scratch slabs, all carved from one allocation per sweep
    (contents are garbage).
    """
    step = block_rows(m, classes)
    work = np.empty((slabs, step, m))
    for q0 in range(0, m, step):
        q1 = min(q0 + step, m)
        yield q0, q1, (np.arange(q1 - q0), np.arange(q0, q1)), work[:, :q1 - q0]


def lookahead_denominators(state: LabelState, d, g_rows, q0: int, diag, out) -> np.ndarray:
    """``G_kk - G_qk^2 / G_qq`` for candidates ``q0, q0 + 1, ...``, into ``out``.

    ``g_rows[i]`` holds ``G_qk`` over k for candidate ``q0 + i``: row q of
    ``G`` for the binary tables, column q for the one-vs-rest sweep and for
    :func:`tsa_lookahead_decisions` (after downdates ``G`` is symmetric only
    to rounding).  ``d`` is ``diag(G)``.  The q == k slots (``diag``), which
    the callers handle separately, read 1.
    """
    np.multiply(g_rows, g_rows, out=out)
    out /= d[q0:q0 + len(out), None]
    np.subtract(d, out, out=out)
    out[diag] = 1.0
    if out.min() <= state.singular_floor:
        qi, ki = np.unravel_index(int(np.argmin(out)), out.shape)
        raise DegeneracyError(
            "lookahead denominator vanished for candidate {} at node {}",
            state.unlabeled[q0 + qi],
            state.unlabeled[ki],
        )
    return out


def tsa_risk_table(state: LabelState, f: np.ndarray | None = None) -> np.ndarray:
    """Expected post-query risk of every unlabeled candidate (TSA route).

    Vectorizes the closed-form decision-value update over all (q, k) pairs:
    the denominator ``G_kk - G_qk^2/G_qq`` is shared by both label branches,
    and the numerator is ``G_kk f_k + b_y(q) G_qk`` with a per-candidate
    coefficient ``b_y(q) = 2y/G_qq - f_q``.  Candidate q reads row q of
    ``G``, swept in blocks by :func:`candidate_blocks`.
    """
    m = len(state.unlabeled)
    if m == 0:
        return np.zeros(0)
    g = state.inverse
    d = state.checked_diagonal()
    if f is None:
        f = tsa_marginals(state).values

    a = d * f  # = 2 h, the diagonal-free part of the numerator
    b_plus = 2.0 / d - f
    b_minus = -2.0 / d - f
    inv_n = 1.0 / state.n
    risk_plus = np.empty(m)
    risk_minus = np.empty(m)

    for q0, q1, diag, (denom, num) in candidate_blocks(m, 2):
        gb = g[q0:q1]
        lookahead_denominators(state, d, gb, q0, diag, denom)
        for coeff, out_vec in ((b_plus, risk_plus), (b_minus, risk_minus)):
            np.multiply(gb, coeff[q0:q1, None], out=num)
            num += a[None, :]
            num /= denom
            np.abs(num, out=num)
            _logistic_tail(num, out=num)  # min(p, 1 - p) = sigmoid(-|f+|)
            num[diag] = 0.0  # just-queried node is certain
            np.sum(num, axis=1, out=out_vec[q0:q1])

    w_plus = sigmoid(f)
    return (w_plus * risk_plus + (1.0 - w_plus) * risk_minus) * inv_n


def zlg_risk_table(state: LabelState, h: np.ndarray | None = None) -> np.ndarray:
    """Expected post-query risk of every candidate under harmonic marginals.

    Same blocked layout as :func:`tsa_risk_table`; here the updated value is
    ``h_k + (y - h_q) G_qk / G_qq`` and per-node risk is ``(1 - |h+|)/2``
    after clamping.
    """
    m = len(state.unlabeled)
    if m == 0:
        return np.zeros(0)
    g = state.inverse
    d = state.checked_diagonal()
    if h is None:
        h = lp_harmonic(state)

    inv_n = 1.0 / state.n
    risk_plus = np.empty(m)
    risk_minus = np.empty(m)

    for q0, q1, diag, (ratio, hp) in candidate_blocks(m, 2):
        np.divide(g[q0:q1], d[q0:q1, None], out=ratio)
        for y, out_vec in ((1.0, risk_plus), (-1.0, risk_minus)):
            np.multiply(ratio, (y - h[q0:q1])[:, None], out=hp)
            hp += h[None, :]
            np.abs(hp, out=hp)
            np.minimum(hp, 1.0, out=hp)
            np.subtract(1.0, hp, out=hp)
            hp *= 0.5
            hp[diag] = 0.0
            np.sum(hp, axis=1, out=out_vec[q0:q1])

    w_plus = (np.clip(h, -1.0, 1.0) + 1.0) / 2.0
    return (w_plus * risk_plus + (1.0 - w_plus) * risk_minus) * inv_n


def argmin_ties(values: np.ndarray, rng: np.random.Generator | None = None) -> int:
    """Index of the minimum, breaking near-ties uniformly at random.

    Anything within ``tie_relative * max(1, |min|)`` of the minimum counts
    as tied; without an rng the first tied index wins.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise UsageError("empty score vector")
    best = float(v.min())
    tol = DEFAULT_TOLERANCES.tie_relative * max(1.0, abs(best))
    ties = np.flatnonzero(v <= best + tol)
    if ties.size == 1 or rng is None:
        return int(ties[0])
    return int(ties[rng.integers(ties.size)])
