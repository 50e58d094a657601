"""Posterior marginals over the unlabeled nodes.

Three routes, one interface:

* ``tsa_marginals`` -- two-step approximation.  Each unlabeled node gets a
  decision value ``f_k = 2 h_k / G_kk`` (harmonic value over the node's own
  inverse diagonal) and the marginal is the logistic ``sigmoid(f_k)``.
* ``zlg_marginals`` -- reads the harmonic value itself as a posterior mean,
  ``P(+1) = (h_k + 1) / 2`` with ``h`` clamped into [-1, 1].
* ``exact_bmrf_marginals`` -- brute-force enumeration of all +/-1
  completions of the unlabeled set.  Exponential, capped, and kept free of
  the maintained-inverse machinery so it can serve as an independent
  correctness oracle for the two approximations.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import scipy.special

from .config import DEFAULT_ENUM_CAP, DEFAULT_TOLERANCES
from .errors import CapacityError
from .graph_core import LabelState, Laplacian, dense_laplacian, sorted_labeled

_CHUNK = 1 << 16


class MarginalKind(enum.Enum):
    """Which posterior route produced a set of marginals."""

    TSA = "tsa"
    ZLG = "zlg"
    EXACT = "exact"


@dataclass(frozen=True)
class Marginals:
    """Per-node posterior summary aligned with ``nodes``.

    ``prob_plus[k]`` is P(Y = +1).  ``values`` carries the route's native
    quantity: TSA decision values ``f``, the clamped harmonic vector for
    ZLG, or the exact posterior mean ``2p - 1`` for enumeration.
    """

    kind: MarginalKind
    nodes: tuple[int, ...]
    prob_plus: np.ndarray
    values: np.ndarray


def _logistic_tail(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(x))``, i.e. ``sigmoid(-x)``, written into ``out``.

    The one logistic kernel behind every fast route.  numpy's vectorized
    ``exp`` is several times faster than the scalar libm loop of
    ``scipy.special.expit``; the two differ by a few ULP per element.  Past
    ``x = 709.78`` ``exp`` overflows to inf and the result is exactly 0;
    only that overflow warning is silenced.  ``out`` may alias ``x``.
    """
    with np.errstate(over="ignore"):
        np.exp(x, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def _saturating_tail(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``sigmoid(-x)`` into ``out``: exactly 0 past ``x > 36``, 1 past ``x < -36``.

    The one saturating logistic, behind :func:`sigmoid` and the one-vs-rest
    risk sweep.  Saturated entries of ``x`` (scratch) are set to +/-inf, which
    :func:`_logistic_tail` returns as exact 0/1; each side is a compare and
    a count, and the masked ``copyto`` runs only if some entry saturates.
    A NaN compares false, so unlike a ``max()``/``min()`` test it hides no
    saturated entry.  ``np.count_nonzero`` is the test because on short
    vectors it costs a third of ``.any()`` per call.  ``out`` may alias ``x``.
    """
    sat = DEFAULT_TOLERANCES.saturation
    high = x > sat
    if np.count_nonzero(high):
        np.copyto(x, np.inf, where=high)
    low = x < -sat
    if np.count_nonzero(low):
        np.copyto(x, -np.inf, where=low)
    return _logistic_tail(x, out=out)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function, saturating to exact 0/1 past +/-36.

    Beyond the clamp the float64 logistic is within 2e-16 of the limit
    anyway; snapping makes downstream min(p, 1-p) risks exactly zero
    instead of trailing noise.

    Evaluated by :func:`_saturating_tail` on ``-z``.  The values differ
    from ``scipy.special.expit`` by a few ULP; the query choices built on
    them do not (``lookahead_risk`` keeps ``expit`` as the reference).
    """
    z = np.asarray(z, dtype=float)
    x = np.negative(z, out=np.empty_like(z))  # an array even for 0-d ``z``
    _saturating_tail(x, out=x)
    return x[()] if x.ndim == 0 else x


def lp_harmonic(state: LabelState) -> np.ndarray:
    """Harmonic interpolation of the labels: ``h = -G @ (L_ul y_l)``.

    Solves the label-propagation system; each unlabeled value is the
    weighted average of its neighbors, with labeled nodes pinned.  ``y_l``
    is ``state.labels``: a binary state's +/-1 vector gives a |u| vector
    (``dgemv``), a one-vs-rest state's (|l|, C) matrix (|u|, C) values
    from one solve (``dgemm``).  The two routines' last bits differ, so
    each kind keeps its own shape.
    """
    y = state.labels
    if not state.unlabeled:
        return np.zeros((0, *y.shape[1:]))
    return -(state.inverse @ (state.lap.block(state.unlabeled, state.labeled) @ y))


def tsa_marginals(state: LabelState, h: np.ndarray | None = None) -> Marginals:
    """Two-step-approximation marginals for every unlabeled node.

    Vectorized over the whole unlabeled set: ``f = 2 h / diag(G)``, with
    ``h`` the state's :func:`lp_harmonic` (computed when not given).
    """
    if h is None:
        h = lp_harmonic(state)
    if not state.unlabeled:
        return Marginals(MarginalKind.TSA, (), np.zeros(0), np.zeros(0))
    f = 2.0 * h / state.checked_diagonal()
    return Marginals(MarginalKind.TSA, state.unlabeled, sigmoid(f), f)


def zlg_marginals(state: LabelState) -> Marginals:
    """Harmonic-value marginals: ``P(+1) = (h + 1) / 2``.

    ``h`` is clamped into [-1, 1] (it can drift outside in floating point,
    or further under a ridge).  Values within 1e-9 of the boundary are
    snapped onto it: a region whose only labeled attachment carries one
    sign has harmonic value exactly +/-1, and the snap removes the ~1e-16
    solve residue so those marginals come out as exact 0/1.
    """
    h = np.clip(lp_harmonic(state), -1.0, 1.0)
    snap = 1.0 - DEFAULT_TOLERANCES.equivalence
    h[h > snap] = 1.0
    h[h < -snap] = -1.0
    return Marginals(MarginalKind.ZLG, state.unlabeled, (h + 1.0) / 2.0, h)


def exact_bmrf_marginals(
    lap: Laplacian,
    labeled,
    labels,
    cap: int = DEFAULT_ENUM_CAP,
) -> Marginals:
    """Exact marginals by enumerating all 2^|u| completions.

    Energy of a completion ``s`` is ``0.5 s' L_uu s + (L_ul y_l)' s`` (the
    constant labeled-labeled term cancels in the normalizer).  Completions
    are streamed in chunks of 2^16, energies computed by matrix products,
    and per-node log-mass accumulated with stable log-sum-exp.

    Deliberately independent of :class:`LabelState`'s maintained inverse:
    this is the ground truth the fast paths are tested against.  Only the
    input check is shared: the labeled set is held to
    :func:`~graphal.graph_core.sorted_labeled`, as a state's is, though it
    may be empty.
    """
    labeled, y = sorted_labeled(lap, labeled, labels)
    lab_set = set(labeled)
    unlabeled = tuple(v for v in range(lap.n) if v not in lab_set)
    m = len(unlabeled)
    if m > cap:
        raise CapacityError(
            f"exact enumeration needs 2^{m} completions for {m} unlabeled nodes; cap is {cap}"
        )
    if m == 0:
        return Marginals(MarginalKind.EXACT, (), np.zeros(0), np.zeros(0))

    iu = np.asarray(unlabeled, dtype=int)
    il = np.asarray(labeled, dtype=int)
    mat = dense_laplacian(lap)
    a = mat[np.ix_(iu, iu)]
    b = mat[np.ix_(iu, il)] @ y

    total = -np.inf
    plus = np.full(m, -np.inf)
    bits = np.arange(m, dtype=np.int64)
    for start in range(0, 1 << m, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, 1 << m), dtype=np.int64)
        signs = (((idx[:, None] >> bits) & 1) * 2 - 1).astype(float)
        logw = -(0.5 * np.einsum("ij,ij->i", signs @ a, signs) + signs @ b)
        total = np.logaddexp(total, scipy.special.logsumexp(logw))
        for k in range(m):
            mask = signs[:, k] > 0
            if mask.any():
                plus[k] = np.logaddexp(plus[k], scipy.special.logsumexp(logw[mask]))
    prob = np.exp(plus - total)
    return Marginals(MarginalKind.EXACT, unlabeled, prob, 2.0 * prob - 1.0)


def tsa_imputation_decision(state: LabelState, k: int) -> float:
    """Decision value for one node via the explicit two-step recipe.

    Step one imputes the other unlabeled nodes by the harmonic solve that
    excludes ``k``; step two balances node ``k`` against those imputations:

        f_k = -2 (L_kl y_l + L_ku_bar yhat_ubar) = 2 L_kk yhat_k

    Uses a direct linear solve on the reduced block, not the maintained
    inverse, so it cross-checks the vectorized ``tsa_marginals`` route.
    """
    state.u_index(k)  # validates membership
    il = np.asarray(state.labeled, dtype=int)
    rest = np.asarray([v for v in state.unlabeled if v != k], dtype=int)
    mat = dense_laplacian(state.lap)
    coupling = float(mat[k, il] @ state.labels)
    if rest.size:
        rhs = -(mat[np.ix_(rest, il)] @ state.labels)
        yhat = np.linalg.solve(mat[np.ix_(rest, rest)], rhs)
        coupling += float(mat[k, rest] @ yhat)
    return -2.0 * coupling
