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

so one selection sweep costs O(|u|^2).  Each risk table (binary tsa and
zlg here, one-vs-rest in ``strategies``) is one :class:`RiskTable` record:
a kernel that yields a block of per-node terms per outcome in any layout,
its outcome weights and what the bound sweep needs.  Two drivers run every
kernel: :func:`table_rows` sweeps the candidates in cache-friendly row
blocks for exact entries, and :func:`bound_sweep` sweeps node-major chunks
for bounds.  The public tables are :meth:`RiskTable.rows`, the one place
that scales by ``/ n`` and answers a state with no candidate.  The tsa
table's per-node risk ``min(p, 1-p) = 1 / (1 + exp|f+|)`` comes from
``inference._logistic_tail``, the vectorized-``exp`` kernel behind
``sigmoid``; its bits differ from ``scipy.special.expit`` by a few ULP, the
choices made from it do not.

The tsa selection needs only the minimizer, and a candidate's risk is a sum
of nonnegative per-node terms, so a partial sum is a lower bound.
:func:`bound_sweep` sums each candidate's terms over the nodes in
descending order of current risk, a chunk of nodes at a time, scores
exactly the candidate with the smallest bound after each chunk, and drops
every candidate whose bound exceeds that best score plus the tie tolerance
(lazy evaluation, Minoux 1978).  Only the survivors get exact rows.
Before the sweep, a certificate proves that no lookahead denominator can
reach ``singular_floor``: first one comparison against the backward-error
bound that travels with ``G`` (:func:`_bounded`), else one read of
``diag(G)`` and ``G``'s upper triangle (:func:`_certified`); where both
fail, the select takes the full table, which raises on a degenerate state.
:func:`survivors`, the sweep's one caller, hands it the table's own
record, binary or one-vs-rest, so a term of the sweep is the same float
operations on the same operands as the table's term; only ``exp`` (a
different kernel may differ by a few ULP) and the order of the additions
differ, and ``ROUNDING_MARGIN`` covers both.  A record whose terms can
round below 0 names their floor.  zlg keeps the full tables: its per-node
terms stay large far from the labels, so its bounds prune almost nothing.

``lookahead_risk`` is the plain per-candidate form of the same quantity,
kept around as the readable reference the tables are tested against (its
tsa branch still calls ``scipy.special.expit``); with
``MarginalKind.EXACT`` it re-enumerates the posterior and serves as the
oracle for the fast routes.
"""
from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

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
# It also covers the 1 ulp between the sweep's ``* (1 / n)`` and every table's ``/ n``.
ROUNDING_MARGIN = 1e-9
# Largest certified correlation |G_qk| / sqrt((d_q - 2 floor)(d_k - 2 floor)):
# the slack covers the certificate's own few roundings (see ``_certified``).
CERTIFIED_CORRELATION = 1.0 - 1e-9


def tsa_lookahead_decisions(state: LabelState, f: np.ndarray, q: int, y) -> np.ndarray:
    """Decision values after hypothetically observing ``Y_q = y``.

    ``f`` is one vector aligned with ``state.unlabeled`` and ``y`` a label;
    a (|u|, C) matrix raises :class:`UsageError` (at |u| == C it would
    broadcast into wrong numbers).  Row ``q`` is set to +/-inf (a
    just-observed node is certain).  The state itself is untouched.
    """
    if f.ndim != 1:
        raise UsageError(f"tsa lookahead takes one vector of decision values, got shape {f.shape}")
    qi = state.u_index(q)
    d = state.diagonal()
    if not d[qi] > state.singular_floor:  # a NaN fails too
        raise DegeneracyError(f"inverse diagonal at node {{}} is {d[qi]:.3e}", q)
    col = state.row(qi)
    denom = lookahead_denominators(state, d, col, qi, np.arange(d.size), ([0], [qi]), np.empty((1, d.size)))[0]
    fp = (d * f + (2.0 * y / d[qi] - f[qi]) * col) / denom
    fp[qi] = np.inf if y > 0 else -np.inf
    return fp


def zlg_lookahead_harmonic(state: LabelState, h: np.ndarray, q: int, y) -> np.ndarray:
    """Harmonic values after hypothetically pinning node ``q`` to ``y``.

    One rank-one correction of the interpolation; row ``q`` becomes ``y``
    exactly.  Takes one vector and a label, or a (|u|, C) matrix of one
    column per one-vs-rest run and a length-C label vector, each column
    bitwise the one-column call's.
    """
    qi = state.u_index(q)
    row = state.row(qi)
    if not row[qi] > state.singular_floor:
        raise DegeneracyError(f"inverse diagonal at node {{}} is {row[qi]:.3e}", q)
    ratio = row / row[qi]
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
    """Rows per block of ``m`` candidates: ``max(1, min(BLOCK // C, BLOCK_CELLS // m))``, 0 if ``m`` is."""
    return min(m, max(1, min(BLOCK // classes, BLOCK_CELLS // max(m, 1))))


@dataclass(frozen=True)
class RiskTable:
    """One risk table: the kernel ``terms`` (see :func:`table_rows`), its
    ``slabs`` of scratch, ``weights[b]``, each candidate's probability of
    outcome b, and ``d``, the checked ``diag(G)`` of ``state``, whose
    ``class_count`` (1 for binary) sizes the blocks.  For
    :func:`survivors`: ``uncertainty()``,
    each node's current risk, orders the sweep (None: never pruned),
    ``finite`` holds the operands a bound needs finite, and ``term_floor``
    (<= 0) is the least a term can round to.
    """

    state: LabelState
    d: np.ndarray
    terms: Callable
    weights: Sequence[np.ndarray]
    slabs: int
    uncertainty: Callable[[], np.ndarray] | None = None
    finite: tuple = ()
    term_floor: float = 0.0

    def rows(self, candidates: np.ndarray | None = None) -> np.ndarray:
        """The entries ``table_rows(self, candidates) / n``; empty with no candidate."""
        return table_rows(self, candidates) / self.state.n if self.state.unlabeled else np.zeros(0)


def table_rows(table: RiskTable, candidates: np.ndarray | None = None) -> np.ndarray:
    """A risk table's unscaled entries ``sum_b weights[b][q] * sum_k
    term_b(q, k)`` at the positions ``candidates`` (all when None).

    The one candidate-major driver.  It sweeps the candidates in blocks of
    :func:`block_rows` of |u| and calls the table's kernel ``terms(gather,
    q, k, own, scratch)`` once per block; :func:`bound_sweep` calls the
    same kernel on node-major chunks.  A kernel yields one term block per
    outcome b, the shape of a scratch slab.  It reads a per-candidate
    vector as ``v[q]`` and a per-node one as ``v[k]`` (here ``q`` is
    (rows, 1) and ``k`` (1, |u|)), zeroes the q == k entries ``own``, and
    takes ``G_qk`` from ``gather(into)``: a view of ``G`` for the full
    table, else the rows gathered into ``into`` through the state's live
    slots (``LabelState.take_rows``).  ``scratch`` stacks
    ``slabs`` (rows, |u|) slabs, carved from one allocation per call
    (contents are garbage).  An entry is the same float operations on the
    same operands whatever the block layout, so a subset is bitwise the
    full table's entries (a negative position counts from the end, one at
    or past |u| raises ``IndexError``, as in numpy indexing).
    """
    state, terms = table.state, table.terms
    m = len(state.unlabeled)
    g = state.inverse if candidates is None else None
    count = m if candidates is None else len(candidates)
    step = block_rows(m, state.class_count)
    work = np.empty((table.slabs, min(step, count), m))
    k = np.arange(m)[None, :]
    risk = np.zeros(count)

    def gather(into):
        return g[out] if candidates is None else state.take_rows(rows, into)

    for q0 in range(0, count, step):
        out = slice(q0, min(q0 + step, count))
        rows = np.arange(q0, out.stop) if candidates is None else candidates[out]
        for b, t in enumerate(terms(gather, rows[:, None], k, (np.arange(rows.size), rows), work[:, :rows.size])):
            risk[out] += table.weights[b][rows] * t.sum(axis=1)
    return risk


def lookahead_denominators(state: LabelState, d, g_qk, q, k, own, out) -> np.ndarray:
    """``G_kk - G_qk^2 / G_qq`` into ``out``, and ``max diag(G)`` at the q == k entries ``own``.

    ``d`` is ``diag(G)``, and the candidate and node positions ``q`` and
    ``k`` broadcast to ``out``'s shape, as ``g_qk`` does, so one copy of
    the arithmetic serves a table's candidate-major blocks, the bound
    sweep's node-major chunks and one row.  An entry at or below
    ``singular_floor``, or a NaN, raises naming the smallest such entry
    (the first NaN) in ``out``'s order.  The placeholder scales with
    ``G``, as the floor does (a constant would fail well-posed states once
    ``max diag(G)`` passes 1 over the floor's tolerance), and every kernel
    zeroes its terms there.
    """
    np.multiply(g_qk, g_qk, out=out)
    out /= d[q]
    np.subtract(d[k], out, out=out)
    out[own] = d.max()
    if not out.min() > state.singular_floor:
        at = np.unravel_index(int(np.argmin(out)), out.shape)
        raise DegeneracyError(
            "lookahead denominator vanished for candidate {} at node {}",
            state.unlabeled[np.broadcast_to(q, out.shape)[at]],
            state.unlabeled[np.broadcast_to(k, out.shape)[at]],
        )
    return out


def tsa_table(state: LabelState, f: np.ndarray | None = None) -> RiskTable:
    """The binary tsa risk table of the decision values ``f`` (None: computed).

    Vectorizes the closed-form decision-value update over all (q, k) pairs:
    the denominator ``G_kk - G_qk^2/G_qq`` is shared by both label branches,
    and the numerator is ``G_kk f_k + b_y(q) G_qk`` with a per-candidate
    coefficient ``b_y(q) = 2y/G_qq - f_q``.  Candidate q reads row q of
    ``G``.  The sweep orders the nodes by current risk ``1 / (1 +
    exp|f_k|)`` and needs the coefficients finite; the terms are logistic
    tails, never negative.
    """
    d = state.checked_diagonal()
    if f is None:
        f = tsa_marginals(state).values
    a, b_plus, b_minus = d * f, 2.0 / d - f, -2.0 / d - f
    w_plus = sigmoid(f)

    def terms(gather, q, k, own, scratch):
        # Node k's risk min(p, 1 - p) = sigmoid(-|f+_k|) after candidate q
        # answers, f+_k = (a_k + b_q G_qk) / denom; 0 at q == k (the queried
        # node is certain).  A subset's rows of G are gathered into the term
        # slab, for the denominators and again per outcome: no third slab.
        denom, t = scratch
        lookahead_denominators(state, d, gather(t), q, k, own, denom)
        for b in (b_plus, b_minus):
            np.multiply(gather(t), b[q], out=t)
            t += a[k]
            t /= denom
            np.abs(t, out=t)
            _logistic_tail(t, out=t)
            t[own] = 0.0
            yield t

    return RiskTable(state, d, terms, (w_plus, 1.0 - w_plus), 2, finite=(a, b_plus, b_minus),
                     uncertainty=lambda: _logistic_tail(np.abs(f), out=np.empty(f.size)))


def tsa_risk_table(state: LabelState, f: np.ndarray | None = None,
                   candidates: np.ndarray | None = None) -> np.ndarray:
    """Expected post-query risk of every unlabeled candidate (TSA route),
    or of the positions ``candidates`` in ``state.unlabeled``, each bitwise
    the full table's: the rows of :func:`tsa_table`."""
    return tsa_table(state, f).rows(candidates)


def sweeps(state: LabelState) -> bool:
    """True if a tsa select on ``state`` tries the bound sweep: its table
    has more than one block (else the sweep would cost as much as the
    table), decided from |u| and ``state.class_count``.  A tsa session
    owns its ``G`` exactly while this holds (``strategies._commit``)."""
    m = len(state.unlabeled)
    return block_rows(m, state.class_count) < m


def survivors(state: LabelState, build) -> np.ndarray | None:
    """Positions of the candidates whose exact risk may tie the minimum of
    the table ``build()`` returns, binary or one-vs-rest (the class count
    is ``state.class_count``): the one caller of :func:`bound_sweep`, most
    uncertain nodes first.

    None where pruning is not tried, and the select takes the full table:
    where :func:`sweeps` is False (one block, or no candidate), before any
    record is built; a table without ``uncertainty``; ``finite`` operands
    that are not (a NaN term could hide in an unswept node; the table shows
    it); and where neither :func:`_bounded` nor :func:`_certified` proves
    every lookahead denominator above ``singular_floor`` (a vanished one
    raises the table's first error text).
    """
    if not sweeps(state):
        return None
    table = build()
    if table.uncertainty is None or not all(np.isfinite(v).all() for v in table.finite):
        return None
    if not (_bounded(state) or _certified(table)):
        return None
    return bound_sweep(table, np.argsort(-table.uncertainty(), kind="stable"))


def bound_sweep(table: RiskTable, order) -> np.ndarray:
    """The one bound-then-verify sweep: positions of the candidates whose
    exact risk may tie the minimum of ``table``.

    Candidate q's entry is ``sum_b weights[b][q] * sum_k term_b(q, k) / n``
    over outcomes b and nodes k, the weights of a candidate summing to 1
    and every term at least ``term_floor``.  ``order`` holds every node
    position, most uncertain first.  The caller has certified every
    lookahead denominator above ``singular_floor`` (:func:`survivors`).

    1. Bounds: the nodes are summed in ``order``, in chunks of ``width *
       |u|`` cells, ``width = min(SWEEP_COLUMNS, BLOCK_CELLS // |u|)``:
       ``width`` nodes while every candidate is live, more as candidates
       drop, so the per-chunk work stays large next to its fixed cost.
       The kernel runs node-major: ``q`` is (1, live) and ``k`` (nodes,
       1), and ``gather`` returns the chunk's ``G_qk``, gathered once
       along row k (``G`` is exactly symmetric) by one flat ``take``
       through the state's live slots (``LabelState.slots``).
    2. After each chunk the live candidate with the smallest bound is
       scored by one :func:`table_rows` row, scaled as the bounds are; the
       smallest such score is ``best``.  A candidate whose bound (or exact
       score) exceeds ``(best + tie_relative * max(1, |best|)) * (1 +
       ROUNDING_MARGIN)``, plus ``-term_floor`` per node not yet summed,
       is dropped: its exact risk lies above the minimum plus the tie
       tolerance, so it is neither the minimizer nor tied with it.
    3. The sweep stops once at most ``width`` unscored candidates are live,
       every node is summed, or it has spent ``SWEEP_BUDGET`` of the table's
       cells.  A sweep cell costs about one and a half table cells (the
       gather, the index), so a select where nothing prunes costs about two
       tables.

    Scratch: ``slabs + 2`` slabs of ``width * |u|`` cells (``G_qk``, the
    gather index and the kernel's).
    The survivors are the live candidates, scored ones included.
    """
    state, terms, weights, slabs = table.state, table.terms, table.weights, table.slabs
    m = len(order)
    width = min(SWEEP_COLUMNS, max(1, BLOCK_CELLS // m))
    rank = np.empty(m, dtype=np.intp)
    rank[order] = np.arange(m)

    work = np.empty((1 + slabs, width * m))  # G_qk, then the kernel's scratch
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
        flat, ld, slot = state.slots()
        at_k, at_q = (cols, rows) if slot is None else (slot[cols], slot[rows])
        idx = np.add((at_k * ld)[:, None], at_q[None, :], out=idx_buf[:gk.size].reshape(shape))
        np.take(flat, idx, out=gk, mode="wrap")  # "wrap" writes ``out`` unbuffered
        for acc, t in zip(sums, terms(lambda into: gk, rows[None, :], cols[:, None], own, scratch)):
            acc[rows] += t.sum(axis=0)
        weighted = weights[0][rows] * sums[0, rows]
        for w, acc in zip(weights[1:], sums[1:]):
            weighted += w[rows] * acc[rows]
        bound[rows] = weighted * inv_n
        spent += rows.size * cols.size
        pos += cols.size

        i = rows[np.argmin(bound[rows])]
        bound[i] = table_rows(table, np.array([i]))[0] * inv_n
        scored[i] = True
        best = min(best, bound[i])
        cutoff = (best + tie * max(1.0, abs(best))) * (1.0 + ROUNDING_MARGIN) - table.term_floor * (m - pos) * inv_n
        live[bound > cutoff] = False
        rows = np.flatnonzero(live & ~scored)
        if rows.size <= width or spent >= SWEEP_BUDGET * m * m:
            break
    return np.flatnonzero(live)


def _bounded(state: LabelState) -> bool:
    """True if ``state.bound()`` proves every lookahead denominator
    ``G_kk - G_qk^2 / G_qq`` (``q != k``) above ``singular_floor``: one
    comparison, ``2f (a/2 + e) <= 1`` with ``f`` the floor.  False where
    the bound fails it or the state has none; the caller then runs
    :func:`_certified`.

    The proof, with ``A = L_uu``, ``u = 2^-53`` and ``G`` the stored,
    bitwise symmetric inverse:

    1. Forward bound: a fresh ``G`` has ``||G - A^-1||_2 <= phi``, from
       Cholesky's backward error, the triangular inverse's residual and the
       product's roundings (Higham 2002, chs. 10 and 14; Du Croz & Higham
       1992), with ``||A||_2 <= a`` by Gershgorin and ``||A^-1||_2``
       bounded through ``trace(G)`` and the Cholesky factor, not through
       ``phi`` itself.  ``graph_core._inversion_bound`` derives ``phi``
       and checks its hypotheses in code; ``a phi < 1/2`` is one.
    2. Backward conversion: with ``F = G - A^-1``, ``||A F||_2 <= a phi <
       1``, so ``G = A^-1 (I + A F)`` is invertible, and ``E = G^-1 - A =
       -(I + A F)^-1 A F A`` has ``||E||_2 <= a^2 phi / (1 - a phi) = e``.
       ``E`` is symmetric, as ``G`` and ``A`` are, and ``lambda_min(G) >=
       1/a - phi > 0`` (Weyl), so ``B = A + E = G^-1`` is positive definite.
    3. Denominators: ``G_kk - G_qk^2 / G_qq``, in exact arithmetic on
       ``G``'s entries, is entry k of the inverse of ``B`` without row and
       column q (a Schur complement).  A positive definite ``M`` has
       ``(M^-1)_kk M_kk >= 1`` (Cauchy-Schwarz on ``M^(1/2) e_k`` and
       ``M^(-1/2) e_k``), and ``B_kk <= A_kk + ||E||_2 <= a/2 + e``, so
       every exact denominator is at least ``1 / (a/2 + e)``.
    4. Downdates: the exact downdate of ``G = B^-1`` at q is the inverse of
       ``B`` without row and column q: the next ``L_uu`` plus a principal
       block of ``E``, of norm at most e.  Each computed entry is
       ``round(g_ij - round(s_i s_j))``, where ``round(s_i s_j)`` is within
       ``gamma_5`` of ``G_qi G_qj / G_qq``; both that and the exact entry
       are at most ``max diag(G)`` in magnitude (``G`` and the exact
       downdate are positive definite), so the entry is off by at most
       ``(gamma_5 + u + u gamma_5) max diag(G) < 6.001 u max diag(G)``,
       and the roundings by ``r = 8 u |u| max diag(G)`` in 2-norm (|u|
       after the commit, a 2-norm at most |u| times the largest entry),
       and step 2's conversion with ``||B'||_2 <= a + e = a'`` adds ``a'^2
       r / (1 - a' r)`` to e (``graph_core.downdate_inverse``, which needs
       ``a' r < 1/2``).
    5. Roundings: a computed denominator is three roundings off the exact
       one, as in :func:`_certified`: less than ``3.001 u max diag(G)``,
       since ``G_qk^2 / G_qq <= G_kk``.  With ``f = 1e-12 max diag(G)``, a
       denominator of at least ``2f`` in exact arithmetic computes above
       ``f``; the comparison's own few roundings, a few ``u`` relative,
       fit in the same factor 2.
    """
    bound = state.bound()  # (a, e)
    return bound is not None and bool(2.0 * state.singular_floor * (0.5 * bound[0] + bound[1]) <= 1.0)


def _certified(table: RiskTable) -> bool:
    """True if no lookahead denominator ``G_kk - G_qk^2 / G_qq`` of
    ``table`` can reach ``singular_floor``: the second route, for a state
    whose error bound is missing or too loose (:func:`_bounded`); on False
    the select takes the full table.

    With ``f`` the floor and ``d = table.d``, it needs ``d.min() > 2f``,
    sets ``v = 1 / sqrt(d - 2f)`` and checks ``|G_qk| v_k <=
    CERTIFIED_CORRELATION / v_q`` for every ``q != k``.  The check rounds
    a few times, far inside its 1e-9 slack, so if it holds then ``G_qk^2
    <= (d_q - 2f)(d_k - 2f)`` and every exact denominator is

        d_k - G_qk^2 / d_q >= d_k - (d_k - 2f)(1 - 2f / d_q) >= 2f.

    A computed one is three roundings off, about ``3 eps max d`` (``eps =
    2^-53``), or ``3e-4 f`` as ``f = 1e-12 max d``: none can reach ``f``.
    The weights are per node: one global weight fails on well-posed states
    whose diagonal spans a wide range.

    ``G`` is bitwise symmetric, so only its upper triangle is read, in row
    blocks ``G[q0:q1, q0:]`` of at most ``BLOCK_CELLS`` cells (one row where
    a row is longer) through one scratch slab, the q == k entries zeroed,
    up to the first block that fails.  A NaN or inf fails the comparison.
    """
    state, d = table.state, table.d
    two_f = 2.0 * state.singular_floor
    if not d.min() > two_f:  # a NaN floor fails too
        return False
    root = np.sqrt(d - two_f)
    v, limit = 1.0 / root, CERTIFIED_CORRELATION * root
    g, m = state.inverse, d.size
    slab = np.empty(max(BLOCK_CELLS, m))
    q0 = 0
    while q0 < m:
        q1 = min(m, q0 + max(1, BLOCK_CELLS // (m - q0)))
        block = slab[:(q1 - q0) * (m - q0)].reshape(q1 - q0, m - q0)
        np.multiply(g[q0:q1, q0:], v[q0:], out=block)
        np.abs(block, out=block)
        own = np.arange(q1 - q0)
        block[own, own] = 0.0
        if not (block.max(axis=1) <= limit[q0:q1]).all():
            return False
        q0 = q1
    return True


def zlg_table(state: LabelState, h: np.ndarray | None = None) -> RiskTable:
    """The binary zlg risk table, from the harmonic values ``h`` (computed
    when None): the updated value is ``h_k + (y - h_q) G_qk / G_qq`` and the
    per-node risk ``(1 - |h+|)/2`` after clamping.  Never pruned.
    """
    d = state.checked_diagonal()
    if h is None:
        h = lp_harmonic(state)

    def terms(gather, q, k, own, scratch):
        ratio, hp = scratch
        np.divide(gather(hp), d[q], out=ratio)
        for y in (1.0, -1.0):
            np.multiply(ratio, y - h[q], out=hp)
            hp += h[k]
            np.abs(hp, out=hp)
            np.minimum(hp, 1.0, out=hp)
            np.subtract(1.0, hp, out=hp)
            hp *= 0.5
            hp[own] = 0.0
            yield hp

    w_plus = (np.clip(h, -1.0, 1.0) + 1.0) / 2.0
    return RiskTable(state, d, terms, (w_plus, 1.0 - w_plus), 2)


def zlg_risk_table(state: LabelState, h: np.ndarray | None = None) -> np.ndarray:
    """Expected post-query risk of every candidate under harmonic
    marginals: the rows of :func:`zlg_table`."""
    return zlg_table(state, h).rows()


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
