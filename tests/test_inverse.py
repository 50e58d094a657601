"""The first inverse ``G = inv(L_uu)``: LAPACK dpotrf + dpotri in one buffer.

``reference_inverse`` is the earlier route, ``cho_factor`` + ``cho_solve``
against the identity and a symmetric average, kept here to check the
in-place route against, entry by entry and through whole experiment runs.
"""
import hashlib

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from graphal import graph_core
from graphal.cli import main
from graphal.errors import DegeneracyError
from graphal.graph_core import build_laplacian, dense_laplacian, graph_from_edges, init_label_state, inverse_residual

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def reference_inverse(lap, nodes: tuple[int, ...]) -> np.ndarray:
    """``inv(L_uu)`` by ``cho_factor`` + ``cho_solve(L, I)``, averaged with its transpose."""
    if not nodes:
        return np.zeros((0, 0))
    iu = np.asarray(nodes, dtype=int)
    cho = scipy.linalg.cho_factor(dense_laplacian(lap)[np.ix_(iu, iu)], lower=True)
    raw = scipy.linalg.cho_solve(cho, np.eye(len(nodes)))
    return (raw + raw.T) / 2.0


@st.composite
def grounded_blocks(draw):
    """(Laplacian, labeled nodes) with |u| in {0, 1, 2, 299}.

    A random spanning tree plus extra edges, weights over 1e-2..1e2, beta
    over 1e-3..1e3; with a ridge, tree edges may be missing, so some
    components need not hold a labeled node.
    """
    m = draw(st.sampled_from([0, 1, 2, 299]))
    n_labeled = draw(st.integers(1, 3))
    n = m + n_labeled
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    ridge = draw(st.sampled_from([0.0, 1e-3, 0.5]))
    edges = {}
    for v in range(1, n):
        if ridge == 0.0 or rng.random() < 0.9:
            edges[(int(rng.integers(v)), v)] = 10.0 ** rng.uniform(-2.0, 2.0)
    for a, b in rng.integers(n, size=(2 * n, 2)).tolist():
        if a != b:
            edges.setdefault((min(a, b), max(a, b)), 10.0 ** rng.uniform(-2.0, 2.0))
    beta = 10.0 ** draw(st.floats(-3.0, 3.0))
    lap = build_laplacian(graph_from_edges(n, [(i, j, w) for (i, j), w in edges.items()]), beta, ridge)
    return lap, sorted(rng.permutation(n)[:n_labeled].tolist())


@given(grounded_blocks())
@PROPERTY
def test_inverse_is_symmetric_contiguous_and_matches_the_reference(case):
    lap, labeled = case
    state = init_label_state(lap, labeled, [1.0] * len(labeled))
    g = state.inverse
    assert g.shape == (len(state.unlabeled),) * 2
    assert np.array_equal(g, g.T)
    assert g.flags.c_contiguous
    assert inverse_residual(state) <= 1e-8
    if g.size:
        ref = reference_inverse(lap, state.unlabeled)
        assert np.max(np.abs(g - ref)) <= 1e-12 * g.diagonal().max()


def test_subnormal_anchor_edge_is_a_degeneracy_naming_the_node():
    # node 2 hangs on node 1 by a subnormal weight: its G entry is 1/w = inf
    for w in (5e-324, 1e-310):
        lap = build_laplacian(graph_from_edges(3, [(0, 1, 1.0), (1, 2, w)]))
        with pytest.raises(DegeneracyError, match="at node 2 overflows"):
            init_label_state(lap, [0], [1.0])


def test_failed_factorization_names_the_node():
    # the Schur complement at node 3 is lost to cancellation: 1e20 - 1e20 = 0
    lap = build_laplacian(graph_from_edges(4, [(0, 1, 1.0), (1, 2, 1e-20), (2, 3, 1e20)]))
    with pytest.raises(DegeneracyError, match="not positive definite at node 3"):
        init_label_state(lap, [0], [1.0])


README_RUNS = {
    "chain15": (
        ["--toy", "chain15", "--strategies", "tsa,zlg,vopt,sopt,random",
         "--trials", "50", "--budget", "14", "--seed", "7"],
        "85188bc9eea4969ea765fbd1dfad1932bc40dce60b3d4d18b3b081d1a0e7fd95",
    ),
    "grid": (
        ["--toy", "grid", "--strategies", "tsa,zlg,sopt", "--trials", "50", "--budget", "40"],
        "cbeb8fef450c00508167cfc08ba2b0f5daa319d4c6a14f4cb3a4292e3e885935",
    ),
}


@pytest.mark.parametrize("inverse", ["lapack", "reference"])
@pytest.mark.parametrize("run", sorted(README_RUNS))
def test_readme_runs_give_the_same_bytes_under_either_inverse(run, inverse, tmp_path, monkeypatch, capsys):
    # the two routes differ by a few ulps of G; prediction ties are decided by a
    # tolerance, so the CSVs do not see it
    if inverse == "reference":
        monkeypatch.setattr(graph_core, "_spd_block_inverse", reference_inverse)
    argv, digest = README_RUNS[run]
    out = tmp_path / "out.csv"
    assert main(["experiment", *argv, "-o", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
