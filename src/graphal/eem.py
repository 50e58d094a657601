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

The tsa selection needs only the minimizer, and a candidate's risk is a sum
of nonnegative per-node terms, so a partial sum is a lower bound.
:func:`bound_sweep` sums each candidate's terms over the nodes in
descending order of current risk, a chunk of nodes at a time, scores
exactly the candidate with the smallest bound after each chunk, and drops
every candidate whose bound exceeds that best score plus the tie tolerance
(lazy evaluation, Minoux 1978).  Only the survivors get exact rows.  It is
the one sweep for both tsa tables: :func:`tsa_survivors` is its binary
caller and ``strategies.multiclass_tsa_survivors`` its one-vs-rest one,
each handing it the table's own per-node terms and exact rows.  A term of
the sweep is the same float operations on the same operands as the table's
term, so only ``exp`` (a different kernel may differ by a few ULP) and the
order of the additions differ; ``ROUNDING_MARGIN`` covers both, and a
caller whose terms can round below 0 names their floor.  zlg keeps the
full tables: its per-node terms stay large far from the labels, so its
bounds prune almost nothing.

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
    _logistic_tail,
    exact_bmrf_marginals,
    lp_harmonic,
    sigmoid,
    tsa_marginals,
)

BLOCK = 192  # candidate rows per block at most, divided by C one-vs-rest
BLOCK_CELLS = 36_000  # cells per scratch slab: caps the rows so blocks stay in cache
SWEEP_COLUMNS = 24  # nodes in the bound sweep's first chunk; fewer once |u| * 24 > BLOCK_CELLS
SWEEP_BUDGET = 0.5  # bound-sweep cells, as a share of the |u|^2 table, after which the sweep stops
# Relative slack on the pruning cutoff.  A bound and the exact entry sum the
# same terms, up to a few ULP of ``exp`` each, in different orders; each sum is
# within (|u| - 1) eps of the exact real sum, so the slack holds for |u| < 4e6.
ROUNDING_MARGIN = 1e-9


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
    if not d[qi] > state.singular_floor:  # a NaN fails too
        raise DegeneracyError(f"inverse diagonal at node {{}} is {d[qi]:.3e}", q)
    col = g[qi]
    denom = lookahead_denominators(state, d, col[None, :], ([0], [qi]), np.empty((1, d.size)))[0]
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
    if not g[qi, qi] > state.singular_floor:
        raise DegeneracyError(f"inverse diagonal at node {{}} is {g[qi, qi]:.3e}", q)
    ratio = g[qi] / g[qi, qi]
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


def candidate_blocks(m: int, slabs: int, classes: int = 1, candidates: np.ndarray | None = None):
    """Sweep the ``m`` candidates, or the positions ``candidates``, in row
    blocks of :func:`block_rows` of ``m``.

    Yields ``(out, rows, diag, scratch)``: the block's slice ``out`` of the
    result, its candidates' positions ``rows`` (``out`` itself when all
    ``m`` are swept), the index pair of their q == k entries in a
    (rows, |u|) block, and ``slabs`` contiguous (rows, |u|) scratch slabs,
    all carved from one allocation per sweep (contents are garbage).
    """
    count = m if candidates is None else len(candidates)
    step = block_rows(m, classes)
    work = np.empty((slabs, min(step, count), m))
    for q0 in range(0, count, step):
        out = slice(q0, min(q0 + step, count))
        rows = out if candidates is None else candidates[out]
        qs = np.arange(out.start, out.stop) if candidates is None else rows
        yield out, rows, (np.arange(len(qs)), qs), work[:, :len(qs)]


def _denominators(g_qk, d_q, d_k, certain, out) -> np.ndarray:
    """``d_k - g_qk^2 / d_q`` into ``out``, and 1 at the q == k slots ``certain``.

    The one copy of the denominator arithmetic: the tables pass candidate-
    major blocks, :func:`tsa_survivors` node-major chunks, each operand
    broadcast to ``out``'s shape, so an entry is the same float operations
    on the same operands in either layout.
    """
    np.multiply(g_qk, g_qk, out=out)
    out /= d_q
    np.subtract(d_k, out, out=out)
    out[certain] = 1.0
    return out


def lookahead_denominators(state: LabelState, d, g_rows, diag, out) -> np.ndarray:
    """``G_kk - G_qk^2 / G_qq`` for the candidates ``diag[1]``, into ``out``.

    ``g_rows[i]`` is row q of ``G`` for candidate q = ``diag[1][i]``, and
    ``d`` is ``diag(G)``.  The q == k slots (``diag``), which the callers
    handle separately, read 1.  An entry at or below ``singular_floor``, or
    a NaN, raises naming the first such entry.
    """
    qs = diag[1]
    _denominators(g_rows, d[qs, None], d, diag, out)
    if not out.min() > state.singular_floor:
        qi, ki = np.unravel_index(int(np.argmin(out)), out.shape)
        raise DegeneracyError(
            "lookahead denominator vanished for candidate {} at node {}",
            state.unlabeled[qs[qi]],
            state.unlabeled[ki],
        )
    return out


def _tsa_coefficients(d: np.ndarray, f: np.ndarray) -> tuple:
    """``(a, b_plus, b_minus, w_plus)`` of the tsa table (see :func:`tsa_risk_table`)."""
    return d * f, 2.0 / d - f, -2.0 / d - f, sigmoid(f)


def _branch_terms(g_qk, b_q, a_k, denom, certain, out) -> np.ndarray:
    """Node k's risk ``min(p, 1 - p) = sigmoid(-|f+_k|)`` after candidate q
    answers, ``f+_k = (a_k + b_q g_qk) / denom``, into ``out``; 0 at the
    q == k slots ``certain`` (the just-queried node is certain).

    The one copy of the branch-term arithmetic, for both layouts (see
    :func:`_denominators`).
    """
    np.multiply(g_qk, b_q, out=out)
    out += a_k
    out /= denom
    np.abs(out, out=out)
    _logistic_tail(out, out=out)
    out[certain] = 0.0
    return out


def _tsa_rows(state: LabelState, d, coeffs, candidates: np.ndarray | None = None) -> np.ndarray:
    """The tsa table's entries at the positions ``candidates`` (all when None).

    ``d`` is the checked diagonal and ``coeffs`` :func:`_tsa_coefficients`.
    Every entry is the same float operations on the same operands whatever
    the block layout, so a subset is bitwise the full table's entries.
    Candidate rows of ``G`` are gathered into the numerator slab, once for
    the denominators and once per branch, so a subset needs no third slab.
    """
    m = len(state.unlabeled)
    g = state.inverse
    a, b_plus, b_minus, w_plus = coeffs
    count = m if candidates is None else len(candidates)
    risk_plus = np.empty(count)
    risk_minus = np.empty(count)

    def g_rows(rows, into):
        # "wrap" writes ``into`` unbuffered and reads a negative position
        # as numpy indexing does everywhere else here.
        return g[rows] if candidates is None else np.take(g, rows, axis=0, out=into, mode="wrap")

    for out, rows, diag, (denom, num) in candidate_blocks(m, 2, candidates=candidates):
        lookahead_denominators(state, d, g_rows(rows, num), diag, denom)
        for coeff, out_vec in ((b_plus, risk_plus), (b_minus, risk_minus)):
            _branch_terms(g_rows(rows, num), coeff[rows, None], a[None, :], denom, diag, out=num)
            np.sum(num, axis=1, out=out_vec[out])

    if candidates is not None:
        w_plus = w_plus[candidates]
    return (w_plus * risk_plus + (1.0 - w_plus) * risk_minus) * (1.0 / state.n)


def tsa_risk_table(
    state: LabelState, f: np.ndarray | None = None, candidates: np.ndarray | None = None
) -> np.ndarray:
    """Expected post-query risk of every unlabeled candidate (TSA route).

    Vectorizes the closed-form decision-value update over all (q, k) pairs:
    the denominator ``G_kk - G_qk^2/G_qq`` is shared by both label branches,
    and the numerator is ``G_kk f_k + b_y(q) G_qk`` with a per-candidate
    coefficient ``b_y(q) = 2y/G_qq - f_q``.  Candidate q reads row q of
    ``G``, swept in blocks by :func:`candidate_blocks`.  With
    ``candidates``, an index array of positions in ``state.unlabeled``, only
    those entries are computed, each bitwise equal to the full table's (a
    negative position counts from the end, one at or past |u| raises
    ``IndexError``, as in numpy indexing).
    """
    m = len(state.unlabeled)
    if m == 0:
        return np.zeros(0)
    d = state.checked_diagonal()
    if f is None:
        f = tsa_marginals(state).values
    return _tsa_rows(state, d, _tsa_coefficients(d, f), candidates)


def tsa_survivors(state: LabelState, f: np.ndarray) -> np.ndarray | None:
    """Positions of the candidates whose exact tsa risk may tie the minimum.

    The binary caller of :func:`bound_sweep`.  Returns None where pruning
    is not tried: a table of one block (the sweep would cost as much as the
    table) and coefficients that are not all finite (a NaN term could hide
    in an unswept node; the table shows it).  Nodes are taken in descending
    order of current risk ``1 / (1 + exp|f_k|)``; each live candidate adds
    both branch terms of the table through the table's own
    :func:`_denominators` and :func:`_branch_terms`, and a probe is one row
    of :func:`_tsa_rows`.  The terms are logistic tails, never negative.
    """
    m = len(state.unlabeled)
    if block_rows(m) == m:
        return None
    d = state.checked_diagonal()
    coeffs = a, b_plus, b_minus, w_plus = _tsa_coefficients(d, f)
    if not all(np.isfinite(v).all() for v in coeffs[:3]):
        return None
    order = np.argsort(-_logistic_tail(np.abs(f), out=np.empty(m)), kind="stable")

    def terms(gk, cols, rows, own, scratch):
        den, t = scratch
        _denominators(gk, d[rows], d[cols, None], own, out=den)
        for coeff in (b_plus, b_minus):
            _branch_terms(gk, coeff[rows], a[cols, None], den, own, out=t)
            yield t.sum(axis=0)

    def exact_rows(candidates):
        return _tsa_rows(state, d, coeffs, candidates)

    return bound_sweep(state, d, 1, order, (w_plus, 1.0 - w_plus), terms, exact_rows, slabs=2)


def bound_sweep(state: LabelState, d, classes: int, order, weights, terms, exact_rows,
                slabs: int, term_floor: float = 0.0) -> np.ndarray:
    """The one bound-then-verify sweep: positions of the candidates whose
    exact risk may tie the minimum of a risk table.

    The table's entry for candidate q is ``sum_b weights[b][q] *
    sum_k term_b(q, k) / n`` over outcomes b and nodes k, the weights of a
    candidate summing to 1 and every term at least ``term_floor`` (<= 0).
    The callers supply the table's pieces:

    * ``d``, the checked ``diag(G)``; ``classes`` sizes the table's blocks;
    * ``order``, every node position, most uncertain first;
    * ``terms(gk, cols, rows, own, scratch)``, yielding for each outcome b
      ``sum_k term_b(q, k)`` over the nodes ``cols`` for the candidates
      ``rows``.  ``gk[j, i]`` is ``G_qk`` for q = ``rows[i]``, k =
      ``cols[j]`` (node-major), ``own`` indexes its q == k entries, and
      ``scratch`` stacks ``slabs`` more arrays of ``gk``'s shape.  A term must
      be the same float operations on the same operands as the table's;
    * ``exact_rows(positions)``, the table's entries bitwise.

    1. Guard: every lookahead denominator is checked in the table's own
       block order, ``block_rows(|u|, classes)``, so a degenerate state
       raises exactly what the table raises.
    2. Bounds: the nodes are summed in ``order``, in chunks of ``width *
       |u|`` cells, ``width = min(SWEEP_COLUMNS, BLOCK_CELLS // |u|)``:
       ``width`` nodes while every candidate is live, more as candidates
       drop, so the per-chunk work stays large next to its fixed cost.
       ``G_qk`` is gathered along row k (``G`` is exactly symmetric).
    3. After each chunk the live candidate with the smallest bound is
       scored by ``exact_rows``; the smallest such score is ``best``.  A
       candidate whose bound (or exact score) exceeds ``(best +
       tie_relative * max(1, |best|)) * (1 + ROUNDING_MARGIN)``, plus
       ``-term_floor`` per node not yet summed, is dropped: its exact risk
       lies above the minimum plus the tie tolerance, so it is neither the
       minimizer nor tied with it.
    4. The sweep stops once at most ``width`` unscored candidates are live,
       every node is summed, or it has spent ``SWEEP_BUDGET`` of the table's
       cells.  A sweep cell costs about one and a half table cells (the
       gather, the index), so a select where nothing prunes costs about two
       tables.

    Scratch: one guard slab of a table block, then ``slabs + 2`` slabs of
    ``width * |u|`` cells (``gk``, the gather index and the callers').
    The survivors are the live candidates, scored ones included.
    """
    m = len(order)
    g = state.inverse
    _guard(state, d, classes)
    width = min(SWEEP_COLUMNS, max(1, BLOCK_CELLS // m))
    rank = np.empty(m, dtype=np.intp)
    rank[order] = np.arange(m)

    work = np.empty((1 + slabs, width * m))  # gk, then the caller's scratch
    idx_buf = np.empty(width * m, dtype=np.intp)
    inv_n = 1.0 / state.n
    tie = DEFAULT_TOLERANCES.tie_relative
    sums = np.zeros((len(weights), m))  # partial sums per outcome
    bound = np.zeros(m)
    live = np.ones(m, dtype=bool)
    scored = np.zeros(m, dtype=bool)
    rows = np.arange(m)
    best, spent, pos = np.inf, 0, 0
    while pos < m:
        cols = order[pos:pos + width * m // rows.size]  # a chunk is at most width * |u| cells
        shape = (cols.size, rows.size)
        cells = work[:, :cols.size * rows.size].reshape((1 + slabs, *shape))
        gk, scratch = cells[0], cells[1:]
        own = np.flatnonzero((rank[rows] >= pos) & (rank[rows] < pos + cols.size))
        own = (rank[rows[own]] - pos, own)  # the q == k entries in this chunk
        idx = np.add((cols * m)[:, None], rows[None, :], out=idx_buf[:gk.size].reshape(shape))
        np.take(g.reshape(-1), idx, out=gk, mode="wrap")  # "wrap" writes ``out`` unbuffered
        for acc, part in zip(sums, terms(gk, cols, rows, own, scratch)):
            acc[rows] += part
        weighted = weights[0][rows] * sums[0, rows]
        for w, acc in zip(weights[1:], sums[1:]):
            weighted += w[rows] * acc[rows]
        bound[rows] = weighted * inv_n
        spent += rows.size * cols.size
        pos += cols.size

        i = rows[np.argmin(bound[rows])]
        bound[i] = exact_rows(np.array([i]))[0]
        scored[i] = True
        best = min(best, bound[i])
        cutoff = (best + tie * max(1.0, abs(best))) * (1.0 + ROUNDING_MARGIN) - term_floor * (m - pos) * inv_n
        live[bound > cutoff] = False
        rows = np.flatnonzero(live & ~scored)
        if rows.size <= width or spent >= SWEEP_BUDGET * m * m:
            break
    return np.flatnonzero(live)


def _guard(state: LabelState, d, classes: int) -> None:
    """Check every lookahead denominator in the order of a table's blocks
    (in a frame of its own, so its slab is freed before the sweep's)."""
    for _, rows, diag, (denom,) in candidate_blocks(len(d), 1, classes):
        lookahead_denominators(state, d, state.inverse[rows], diag, denom)


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

    for out, rows, diag, (ratio, hp) in candidate_blocks(m, 2):
        np.divide(g[rows], d[rows, None], out=ratio)
        for y, out_vec in ((1.0, risk_plus), (-1.0, risk_minus)):
            np.multiply(ratio, (y - h[rows])[:, None], out=hp)
            hp += h[None, :]
            np.abs(hp, out=hp)
            np.minimum(hp, 1.0, out=hp)
            np.subtract(1.0, hp, out=hp)
            hp *= 0.5
            hp[diag] = 0.0
            np.sum(hp, axis=1, out=out_vec[out])

    w_plus = (np.clip(h, -1.0, 1.0) + 1.0) / 2.0
    return (w_plus * risk_plus + (1.0 - w_plus) * risk_minus) * inv_n


def argmin_ties(values: np.ndarray, rng: np.random.Generator | None = None, nodes=None) -> int:
    """Index of the minimum, breaking near-ties uniformly at random.

    Anything within ``tie_relative * max(1, |min|)`` of the minimum counts
    as tied; without an rng the first tied index wins.  ``+inf`` entries
    are never chosen while a finite one exists; a NaN raises
    :class:`DegeneracyError` naming ``nodes[i]`` (default ``i``) of the
    first NaN entry.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise UsageError("empty score vector")
    best = float(v.min())
    if best != best:  # min() propagates a NaN
        i = int(np.argmax(np.isnan(v)))
        raise DegeneracyError("score of candidate {} is NaN", i if nodes is None else nodes[i])
    tol = DEFAULT_TOLERANCES.tie_relative * max(1.0, abs(best))
    ties = np.flatnonzero(v <= best + tol)
    if ties.size == 1 or rng is None:
        return int(ties[0])
    return int(ties[rng.integers(ties.size)])
