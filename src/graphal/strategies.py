"""Query strategies behind one interface, binary and one-vs-rest multiclass.

Five selection rules:

* ``tsa``  -- expected-error minimization with logistic decision-value
  marginals (the engine this package is built around).
* ``zlg``  -- expected-error minimization with harmonic-value marginals.
* ``vopt`` -- variance minimization: argmax_q (1/G_qq) sum_k G_kq^2.
* ``sopt`` -- survey-style objective: argmax_q (sum_k G_kq)^2 / G_qq.
* ``random`` -- uniform over the unlabeled set (reference baseline only;
  not one of the compared literature methods).

VOpt and SOpt read only the maintained inverse ``G``, never the observed
labels, so their choices are invariant under any relabeling — they spend
queries on graph geometry alone.  All five share the same per-query
budget: at most one O(|u|^2) selection sweep (a pruned tsa select reads a
fraction of ``G``) plus one O(|u|^2) downdate, which a tsa session whose
selects prune runs in place on a ``G`` it owns: no |u|^2 data moves.

A session bundles the evolving :class:`~graphal.graph_core.LabelState`
with the incrementally maintained harmonic vector (all kinds; it is the
prediction surface) and decision vector (tsa only).  Commits never
re-invert: the closed-form lookahead update with the realized label *is*
the harmonic vector's maintenance step, and the decision vector is then
its definition ``2 h / diag(G)`` on the downdated state.

One-vs-rest runs C of these binary rules over one shared partition and
inverse, on the binary code: a :class:`MulticlassState` is a ``LabelState``
whose labels are an (|l|, C) +/-1 matrix, so its harmonics are one
:func:`lp_harmonic`, a commit is one :func:`downdate_inverse` with the
observed class's +/-1 row, and both session kinds commit by ``_commit``.
Only the risk table has its own one-vs-rest arithmetic: one kernel in an
``eem.RiskTable`` record (:func:`one_vs_rest_table`), run by the binary
tables' two drivers and read through the same ``RiskTable.rows``.  tsa
selects of both session kinds prune through the one ``eem.survivors``.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .config import DEFAULT_TOLERANCES
from .errors import UsageError
from .graph_core import LabelState, Laplacian, downdate_inverse, init_label_state, whole_numbers
from .eem import (
    RiskTable,
    argmin_ties,
    lookahead_denominators,
    survivors,
    sweeps,
    tsa_risk_table,
    tsa_table,
    zlg_risk_table,
    zlg_lookahead_harmonic,
)
from .inference import _saturating_tail, lp_harmonic, sigmoid, tsa_marginals


class StrategyKind(enum.Enum):
    """Selection rule identifiers, matching their CLI spellings."""

    TSA = "tsa"
    ZLG = "zlg"
    VOPT = "vopt"
    SOPT = "sopt"
    RANDOM = "random"

    @classmethod
    def from_string(cls, name: str) -> "StrategyKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            options = ", ".join(k.value for k in cls)
            raise UsageError(f"unknown strategy {name!r}; expected one of: {options}") from None

    @property
    def is_reference_baseline(self) -> bool:
        """True for strategies we add for scale, not drawn from the literature."""
        return self is StrategyKind.RANDOM


def vopt_scores(state: LabelState) -> np.ndarray:
    """Posterior-variance reduction of each candidate: (1/G_qq) sum_k G_kq^2."""
    g = state.inverse
    d = np.diag(g)
    return np.einsum("kq,kq->q", g, g) / d


def sopt_scores(state: LabelState) -> np.ndarray:
    """Aggregate-prediction objective of each candidate: (sum_k G_kq)^2 / G_qq."""
    g = state.inverse
    col_sums = g.sum(axis=0)
    return col_sums * col_sums / np.diag(g)


# ---------------------------------------------------------------------------
# binary sessions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BinarySession:
    """Evolving binary run: state + incrementally maintained vectors.

    ``harmonic`` is kept for every kind (it is the prediction surface);
    ``decisions`` only for tsa.  Sessions are immutable values; the risk
    tables allocate their scratch per call.
    """

    kind: StrategyKind
    state: LabelState
    harmonic: np.ndarray
    decisions: np.ndarray | None


def start_binary(state: LabelState, kind: StrategyKind) -> BinarySession:
    """Open a session: one harmonic solve, plus decision values for tsa."""
    h = lp_harmonic(state)
    f = tsa_marginals(state, h).values if kind is StrategyKind.TSA else None
    return BinarySession(kind=kind, state=state, harmonic=h, decisions=f)


def _choose(kind: StrategyKind, state: LabelState, risk_table, rng) -> int:
    """The selection rule shared by binary and one-vs-rest sessions.

    ``state`` carries the unlabeled set and the inverse that vopt/sopt
    read; ``risk_table()`` gives the expected-error table for tsa/zlg.
    Every scored kind picks the minimizer (vopt/sopt scores are negated).
    """
    if not state.unlabeled:
        raise UsageError("no unlabeled nodes left to query")
    if kind is StrategyKind.TSA or kind is StrategyKind.ZLG:
        scores = risk_table()
    elif kind is StrategyKind.VOPT:
        scores = -vopt_scores(state)
    elif kind is StrategyKind.SOPT:
        scores = -sopt_scores(state)
    elif kind is StrategyKind.RANDOM:
        i = 0 if rng is None else int(rng.integers(len(state.unlabeled)))
        return state.unlabeled[i]
    else:
        raise UsageError(f"unsupported strategy kind {kind}")
    return state.unlabeled[argmin_ties(scores, rng, state.unlabeled)]


def next_query(session: BinarySession, rng: np.random.Generator | None = None) -> int:
    """Choose the next node to query; near-ties break uniformly via ``rng``.

    For tsa, :func:`~graphal.eem.survivors` first prunes on partial risk
    sums, and one :func:`tsa_risk_table` call scores the survivors exactly.
    A pruned candidate reads +inf: its bound, a partial sum of its
    nonnegative per-node terms, exceeds an exactly scored risk plus the
    tie tolerance by the relative ``eem.ROUNDING_MARGIN`` (other summation
    order, other ``exp`` kernel), so its exact risk lies above the minimum
    plus the tie tolerance, and the tied set, the choice and the ``rng``
    draws are those of the full table.
    """
    state = session.state

    def risk_table():
        if session.kind is StrategyKind.ZLG:
            return zlg_risk_table(state, h=session.harmonic)
        keep = survivors(state, lambda: tsa_table(state, session.decisions))
        return _spread(keep, tsa_risk_table(state, f=session.decisions, candidates=keep), state)

    return _choose(session.kind, state, risk_table, rng)


def _spread(keep, table: np.ndarray, state: LabelState) -> np.ndarray:
    """The survivors' exact entries ``table`` at their positions ``keep``,
    +inf at the pruned ones; ``table`` itself when nothing was pruned."""
    if keep is None:
        return table
    scores = np.full(len(state.unlabeled), np.inf)
    scores[keep] = table
    return scores


def _commit(kind: StrategyKind, state: LabelState, harmonic: np.ndarray, node: int, y):
    """The state and harmonic values after observing ``y`` at ``node``, and
    the decision values for tsa (else None).  ``y`` is a label with a
    harmonic vector, or a length-C +/-1 vector with (|u|, C) matrices.

    The harmonic values roll by the selection's own lookahead update,
    ``node``'s row dropped; then the inverse is downdated, in place where
    the session owns it: a tsa session whose selects sweep
    (``eem.sweeps``).  The decision values are their definition ``2 h /
    diag(G)`` on the new state, as at the session's start.
    """
    qi = state.u_index(node)
    h = zlg_lookahead_harmonic(state, harmonic, node, y)
    h = np.concatenate((h[:qi], h[qi + 1:]))
    tsa = kind is StrategyKind.TSA
    state = downdate_inverse(state, node, y, own=tsa and sweeps(state))
    if not tsa:
        return state, h, None
    d = state.checked_diagonal()
    return state, h, 2.0 * h / (d if h.ndim == 1 else d[:, None])


def update(session: BinarySession, node: int, label: float) -> BinarySession:
    """Absorb an observed label (:func:`_commit`); no re-inversion."""
    state, h, f = _commit(session.kind, session.state, session.harmonic, node, label)
    return replace(session, state=state, harmonic=h, decisions=f)


def _node_index(nodes: tuple[int, ...]) -> np.ndarray:
    """A node tuple as an index array, built in C (no Python list per call)."""
    return np.fromiter(nodes, dtype=np.intp, count=len(nodes))


def predict_binary(session: BinarySession) -> np.ndarray:
    """+/-1 prediction for every node: observed labels, else harmonic sign.

    ``|h| <= Tolerances.prediction_tie`` is a tie, h = 0, and goes to +1,
    so rounding noise in ``G`` cannot flip an exact tie; tsa and zlg agree
    here because the decision value 2h/G_kk shares h's sign (G_kk > 0).
    """
    state = session.state
    out = np.empty(state.n)
    out[_node_index(state.labeled)] = state.labels
    tie = DEFAULT_TOLERANCES.prediction_tie
    out[_node_index(state.unlabeled)] = np.where(session.harmonic >= -tie, 1.0, -1.0)
    return out


# ---------------------------------------------------------------------------
# one-vs-rest multiclass
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MulticlassState(LabelState):
    """C one-vs-rest runs over one graph partition: a :class:`LabelState`
    whose ``labels`` is the C-order (|l|, C) +/-1 matrix, column c holding
    run c's labels (+1 where the observed class is c).

    The runs share the partition and the inverse (labels do not enter
    it), so they cost one inversion and one downdate per step, not C.
    """

    def __post_init__(self):
        if self.labels.ndim != 2 or self.class_count < 2:
            raise UsageError(f"need an (|l|, C) label matrix of at least 2 classes, got shape {self.labels.shape}")

    @cached_property
    def states(self) -> tuple[LabelState, ...]:
        """The C runs as binary states, run c's labels column c (read-only
        copies), all sharing this state's partition and ``G``, but with no
        ``error_bound``: their ``bound()`` is None.  Building them reads no
        ``G``, so the runs of a consumed state keep their labels, and raise
        where it does."""
        runs = np.ascontiguousarray(self.labels.T)
        runs.setflags(write=False)
        return tuple(LabelState(self.lap, self.labeled, y, self.unlabeled, self._inverse) for y in runs)


def init_multiclass(lap: Laplacian, nodes, classes, class_count: int) -> MulticlassState:
    """One-vs-rest setup: class c's run labels node v +1 iff class(v) == c."""
    nodes = whole_numbers(nodes, "labeled node")
    classes = np.array(whole_numbers(classes, "class id", UsageError), dtype=int)
    if len(nodes) != len(classes):
        raise UsageError("nodes and classes must align")
    if np.any((classes < 0) | (classes >= class_count)):
        raise UsageError(f"class ids must lie in 0..{class_count - 1}")
    order = np.argsort(nodes)
    classes = classes[order]
    base = init_label_state(lap, [nodes[i] for i in order], np.where(classes == 0, 1.0, -1.0))
    labels = np.where(classes[:, None] == np.arange(class_count), 1.0, -1.0)
    labels.setflags(write=False)
    return MulticlassState(base.lap, base.labeled, labels, base.unlabeled, base.inverse, base.error_bound)


def _normalize_rows(scores: np.ndarray) -> tuple[np.ndarray, int]:
    """Row-normalize nonnegative scores; all-zero rows become uniform."""
    sums = scores.sum(axis=1)
    dead = sums <= 0.0
    fallback = int(np.count_nonzero(dead))
    if fallback:
        scores = scores.copy()
        scores[dead] = 1.0
        sums = scores.sum(axis=1)
    return scores / sums[:, None], fallback


def multiclass_harmonics(mstate: MulticlassState) -> np.ndarray:
    """Per-class harmonic values, (|u|, C), one shared solve."""
    return lp_harmonic(mstate)


def multiclass_decisions(mstate: MulticlassState, h: np.ndarray | None = None) -> np.ndarray:
    """Per-class decision values 2 h^c / G_kk, (|u|, C), from ``h`` if given.

    A ``diag(G)`` entry at or below ``singular_floor`` raises
    :class:`~graphal.errors.DegeneracyError`, as for binary tsa.
    """
    if h is None:
        h = multiclass_harmonics(mstate)
    return 2.0 * h / mstate.checked_diagonal()[:, None]


def _harmonic_prob(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """zlg's class probability ``(clip(z, -1, 1) + 1) / 2``, into ``out`` if given."""
    out = np.clip(z, -1.0, 1.0, out=out)
    out += 1.0
    out /= 2.0
    return out


def one_vs_rest_table(mstate: MulticlassState, kind: StrategyKind, decisions=None, harmonics=None) -> RiskTable:
    """The one-vs-rest tsa or zlg risk table, from the (|u|, C) per-class
    ``decisions`` or ``harmonics`` (computed when None).

    The lookahead enumerates the candidate's possible observed classes b,
    weighted by its current class probabilities; outcome b hands +1 to the
    class-b run and -1 to every other run.  Because each run's one-step
    update is affine in its hypothetical label, the C outcome branches
    share one A +/- B decomposition per candidate:

        updated_value[k, c] = A[k, c] + B[k] if c == b else A[k, c] - B[k]

    giving O(|u| C) per candidate, O(|u|^2 C) per sweep.  Let ``S-`` and
    ``S+`` be the per-class scores of A - B and A + B.  For outcome b only
    column b changes (to ``S+``), so each node's row sum is patched from
    the row sum of ``S-``.  The row max, ``max(S+[b], max_{c != b} S-[c])``,
    equals ``max(top1, S+[b])`` with ``top1 = max_c S-[c]`` wherever the
    computed ``S+[b] >= S-[b]``, as it is wherever ``G_qk >= 0`` (positive
    weights).  The other entries, such as the +/-1e-15 that downdates leave
    where the exact ``G_qk`` is 0, are patched with the exact max over the
    other classes, so no sign of ``G`` is assumed.

    ``eem.table_rows`` runs the kernel in blocks of ``rows = max(1,
    min(BLOCK // C, BLOCK_CELLS // |u|))`` candidates, so a block's scratch
    stays bounded as |u| grows: ``2C + 5`` float slabs of ``(rows, |u|)``,
    allocated once per call, at most ``(2C + 5) * BLOCK_CELLS`` floats (2.6
    MB at C=2, 3.7 MB at C=4) while |u| <= BLOCK_CELLS, plus one bool slab.
    A subset's rows of ``G`` go into the ``maxes`` slab.

    The entries are bitwise equal to the per-candidate form (kept in the
    tests as the reference) because every quantity is computed by the
    same float operations in the same order: candidate q reads row q of
    ``G``; the class sum adds in class order 0..C-1, which is how numpy
    sums a row of fewer than 8 values (from C = 8 on numpy sums pairwise
    and the last bits may differ); the sum over nodes is one contiguous
    numpy row sum per candidate, and the outcome terms are added in class
    order.

    zlg is never pruned.  The tsa sweep takes the nodes in descending
    current risk ``1 - max_c p_kc / sum_c p_kc``, ``p = sigmoid(decisions)``,
    and needs the per-class values and ``d_k f_k^c`` finite.  A term ``1 -
    max/sum`` is 0 or more up to the rounding of its patched row sum
    ``sum(S-) - S-[b] + S+[b]``, within (C + 1) ulp of the row's true sum
    wherever ``S+[b]`` is not far below ``S-[b]`` (``G_qk >= 0`` up to
    rounding, as for every graph with weights >= 0), so no term is below
    the floor ``-(C + 2) eps``.  The sweep's scratch is 2C + 7 node-major
    chunk slabs (the gathered ``G_qk``, its index and the kernel's 2C + 5),
    at most ``(2C + 7) * BLOCK_CELLS`` floats, plus one bool slab.
    """
    d = mstate.checked_diagonal()
    tsa = kind is StrategyKind.TSA
    if tsa:
        if decisions is None:
            decisions = multiclass_decisions(mstate)
        values = np.ascontiguousarray(decisions.T)
        weights, per_node = _normalize_rows(sigmoid(decisions))[0].T, d * values
    elif kind is StrategyKind.ZLG:
        if harmonics is None:
            harmonics = multiclass_harmonics(mstate)
        values = per_node = np.ascontiguousarray(harmonics.T)
        weights = _normalize_rows(_harmonic_prob(harmonics))[0].T
    else:
        raise UsageError(f"{kind} has no expected-risk table")
    c_count = len(values)

    def terms(gather, q, k, own, scratch):
        # Per-node risk 1 - max_c p_c / sum_c p_c after each outcome b.
        # ``scratch`` stacks a_0..a_C-1, s_0..s_C-1, shift, z, base_sum,
        # top1 and maxes; each class's slab is contiguous, and the
        # elementwise passes run over all C classes in one call.  ``maxes``
        # is the gather target (dead once the ``a`` are set).
        a_all, s_minus = scratch[:c_count], scratch[c_count:2 * c_count]
        shift, z, base_sum, top1, maxes = scratch[2 * c_count:]
        mask = np.empty(maxes.shape, dtype=bool)
        g_qk, d_q, v_q, v_k = gather(maxes), d[q], values[:, q], per_node[:, k]
        if tsa:
            # The slabs hold ``-A = (G_qk f_q - d_k f_k) / denom``, the exact
            # negation of A (rounding is symmetric in sign), so the logistic
            # kernel reads ``-A + B = -(A - B)`` and ``-A - B = -(A + B)``
            # without a negation pass.
            inv_denom = np.divide(1.0, lookahead_denominators(mstate, d, g_qk, q, k, own, z), out=z)
            np.multiply(2.0, g_qk, out=shift)
            shift /= d_q
            shift *= inv_denom
            np.multiply(g_qk, v_q, out=a_all)
            a_all -= v_k
            a_all *= inv_denom
            score_into, minus_op, plus_op = _saturating_tail, np.add, np.subtract
        else:
            np.divide(g_qk, d_q, out=shift)
            np.multiply(shift, v_q, out=a_all)
            np.subtract(v_k, a_all, out=a_all)
            score_into, minus_op, plus_op = _harmonic_prob, np.subtract, np.add

        # S- of every class, then one fold over the classes: its row sum and
        # row max.  S+ then overwrites the spent ``a``.
        score_into(minus_op(a_all, shift, out=s_minus), s_minus)
        np.add(s_minus[0], s_minus[1], out=base_sum)
        np.maximum(s_minus[0], s_minus[1], out=top1)
        for c in range(2, c_count):
            base_sum += s_minus[c]
            np.maximum(top1, s_minus[c], out=top1)
        s_plus_all = score_into(plus_op(a_all, shift, out=a_all), a_all)

        for c, s_plus in enumerate(s_plus_all):
            np.maximum(top1, s_plus, out=maxes)
            if np.less(s_plus, s_minus[c], out=mask).any():
                rest = s_minus[:, mask]  # the outcome's rows at those entries
                rest[c] = s_plus[mask]
                maxes[mask] = rest.max(axis=0)
            sums = np.subtract(base_sum, s_minus[c], out=z)
            sums += s_plus
            ratio = s_plus  # spent
            if sums.min() > 0.0:
                np.divide(maxes, sums, out=ratio)
            else:
                # A row with no signal (sum 0) reads as uniform; a NaN sum stays NaN.
                ratio.fill(1.0 / c_count)
                np.divide(maxes, sums, out=ratio, where=np.invert(np.less_equal(sums, 0.0, out=mask), out=mask))
            contrib = np.subtract(1.0, ratio, out=ratio)
            contrib[own] = 0.0  # the queried node is observed under every outcome
            yield contrib

    if not tsa:  # zlg is never pruned
        return RiskTable(mstate, d, terms, weights, 2 * c_count + 5)
    floor = -(c_count + 2) * np.finfo(float).eps
    return RiskTable(mstate, d, terms, weights, 2 * c_count + 5,
                     uncertainty=lambda: 1.0 - weights.max(axis=0), finite=(values, per_node), term_floor=floor)


def multiclass_risk_table(
    mstate: MulticlassState,
    kind: StrategyKind,
    decisions: np.ndarray | None = None,
    harmonics: np.ndarray | None = None,
    candidates: np.ndarray | None = None,
) -> np.ndarray:
    """Expected post-query multiclass risk of every candidate, or of the
    positions ``candidates`` in ``mstate.unlabeled``, each bitwise the full
    table's: the rows of :func:`one_vs_rest_table`."""
    return one_vs_rest_table(mstate, kind, decisions, harmonics).rows(candidates)


@dataclass(frozen=True)
class MulticlassSession:
    """Evolving one-vs-rest run mirroring :class:`BinarySession`."""

    kind: StrategyKind
    mstate: MulticlassState
    harmonics: np.ndarray
    decisions: np.ndarray | None


def start_multiclass(mstate: MulticlassState, kind: StrategyKind) -> MulticlassSession:
    h = multiclass_harmonics(mstate)
    f = multiclass_decisions(mstate, h) if kind is StrategyKind.TSA else None
    return MulticlassSession(kind=kind, mstate=mstate, harmonics=h, decisions=f)


def next_query_multiclass(
    session: MulticlassSession, rng: np.random.Generator | None = None
) -> int:
    """Same rule as :func:`next_query`, with the one-vs-rest risk table.

    For tsa, :func:`~graphal.eem.survivors` first prunes on partial risk
    sums and one :func:`multiclass_risk_table` call scores the survivors
    exactly; a pruned candidate reads +inf, so the tied set, the choice
    and the ``rng`` draws are those of the full table (see
    :func:`next_query`).  zlg takes the full table: its per-node terms
    ``1 - max/sum`` of clipped harmonic values stay large far from the
    labels, so the bounds prune almost nothing.
    """
    mstate = session.mstate

    def risk_table():
        if session.kind is StrategyKind.ZLG:
            return multiclass_risk_table(mstate, session.kind, harmonics=session.harmonics)
        keep = survivors(mstate, lambda: one_vs_rest_table(mstate, session.kind, session.decisions))
        table = multiclass_risk_table(mstate, session.kind, decisions=session.decisions, candidates=keep)
        return _spread(keep, table, mstate)

    return _choose(session.kind, mstate, risk_table, rng)


def update_multiclass(
    session: MulticlassSession, node: int, observed_class: int
) -> MulticlassSession:
    """Absorb an observed class: :func:`_commit` at the outcome ``y`` (+1
    in its class's column, -1 elsewhere), ``y`` the node's label row; no
    re-inversion."""
    mstate = session.mstate
    (c,) = whole_numbers([observed_class], "class id", UsageError)
    if not 0 <= c < mstate.class_count:
        raise UsageError(f"class id {observed_class!r} out of range")
    y = np.where(np.arange(mstate.class_count) == c, 1.0, -1.0)
    mstate, h, f = _commit(session.kind, mstate, session.harmonics, node, y)
    return replace(session, mstate=mstate, harmonics=h, decisions=f)


def predict_multiclass(session: MulticlassSession) -> np.ndarray:
    """Class prediction per node: observed class, else argmax harmonic.

    The lowest class within ``Tolerances.prediction_tie`` of the row's
    harmonic maximum wins.
    """
    mstate = session.mstate
    out = np.empty(mstate.n, dtype=int)
    out[_node_index(mstate.labeled)] = np.argmax(mstate.labels, axis=1)
    if mstate.unlabeled:
        h = session.harmonics
        top = h.max(axis=1, keepdims=True) - DEFAULT_TOLERANCES.prediction_tie
        out[_node_index(mstate.unlabeled)] = np.argmax(h >= top, axis=1)
    return out
