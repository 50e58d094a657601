"""Golden query sequences: every choice of a few small fixed experiments.

The sequences below were recorded from ``run_experiment`` and are pinned
as node ids (0-based).  A change that moves the bits of a risk table,
a score or a tie-break is fine as long as no choice moves; a change that
flips any choice fails here, instead of only in a hand-checked CSV.
"""
import numpy as np
import pytest

from graphal.graph_core import graph_from_edges
from graphal.harness import TOY_GENERATORS, Dataset, run_experiment
from graphal.strategies import StrategyKind

KINDS = tuple(StrategyKind(name) for name in ("tsa", "zlg", "vopt", "sopt", "random"))


def three_blocks() -> Dataset:
    """Three 6-node paths with one chord each, joined by weak bridges.

    Node 9 sits in the middle block but belongs to class 0, so the
    one-vs-rest runs see a mislabeled-looking node.
    """
    edges = []
    for b in range(3):
        base = 6 * b
        edges += [(base + k, base + k + 1, 1.0 + 0.1 * k) for k in range(5)]
        edges.append((base, base + 3, 0.5))
    edges += [(5, 6, 0.3), (11, 12, 0.25), (0, 17, 0.2), (2, 14, 0.15)]
    labels = np.repeat([0, 1, 2], 6)
    labels[9] = 0
    return Dataset("three_blocks", graph_from_edges(18, edges), labels, 3)


#: name -> (source, budget, trials, base seed)
EXPERIMENTS = {
    "chain15": (TOY_GENERATORS["chain15"], 14, 4, 7),
    "grid": (TOY_GENERATORS["grid"], 20, 4, 3),
    "three_blocks": (three_blocks(), 10, 4, 5),
}

#: name -> strategy -> one query sequence per trial
GOLDEN = {
    "chain15": {
        "tsa": (
            (2, 13, 12, 5, 1, 11, 6, 0, 14, 4, 8, 10, 7, 3),
            (3, 7, 13, 0, 8, 9, 4, 14, 1, 5, 12, 2, 6, 11),
            (3, 13, 0, 6, 9, 14, 4, 2, 11, 8, 12, 5, 7, 1),
            (12, 8, 1, 11, 13, 10, 4, 0, 14, 6, 3, 2, 9, 7),
        ),
        "zlg": (
            (12, 10, 11, 14, 1, 5, 4, 8, 7, 3, 2, 6, 13, 0),
            (8, 9, 5, 3, 1, 0, 14, 4, 6, 13, 7, 12, 2, 11),
            (0, 9, 5, 4, 8, 12, 13, 7, 14, 2, 6, 1, 3, 11),
            (3, 12, 9, 11, 10, 4, 7, 6, 1, 14, 0, 2, 13, 8),
        ),
        "vopt": (
            (2, 13, 6, 0, 4, 11, 14, 8, 1, 7, 5, 12, 10, 3),
            (2, 13, 6, 0, 8, 4, 14, 11, 5, 1, 3, 12, 7, 9),
            (2, 13, 6, 0, 4, 8, 14, 12, 5, 3, 9, 11, 7, 1),
            (12, 1, 8, 14, 10, 3, 0, 7, 13, 4, 9, 6, 2, 11),
        ),
        "sopt": (
            (3, 13, 6, 1, 11, 8, 4, 14, 0, 2, 7, 10, 12, 5),
            (3, 13, 7, 1, 5, 9, 11, 0, 14, 2, 12, 4, 6, 8),
            (3, 13, 6, 1, 8, 11, 4, 0, 14, 7, 9, 12, 5, 2),
            (11, 1, 8, 13, 3, 6, 10, 14, 0, 12, 4, 7, 9, 2),
        ),
        "random": (
            (12, 4, 14, 1, 6, 7, 11, 10, 5, 2, 3, 13, 8, 0),
            (8, 6, 4, 1, 0, 14, 3, 5, 13, 7, 12, 2, 11, 9),
            (0, 9, 5, 4, 8, 12, 13, 7, 14, 2, 6, 1, 3, 11),
            (3, 12, 11, 13, 4, 8, 7, 2, 10, 1, 0, 9, 14, 6),
        ),
    },
    "grid": {
        "tsa": (
            (44, 73, 27, 87, 56, 84, 22, 11, 51, 15, 49, 3, 30, 96, 85, 81, 59, 14, 79, 41),
            (44, 73, 37, 85, 98, 48, 22, 51, 11, 16, 14, 13, 30, 81, 58, 68, 12, 66, 41, 31),
            (54, 63, 27, 22, 11, 61, 15, 77, 88, 84, 48, 41, 31, 96, 3, 69, 58, 14, 85, 86),
            (45, 36, 22, 52, 11, 16, 77, 85, 88, 48, 86, 69, 14, 13, 31, 51, 41, 12, 58, 68),
        ),
        "zlg": (
            (23, 21, 62, 83, 86, 37, 17, 88, 45, 41, 14, 12, 31, 87, 58, 13, 67, 66, 33, 32),
            (9, 44, 73, 57, 87, 85, 86, 68, 58, 67, 66, 76, 59, 69, 79, 95, 96, 97, 77, 36),
            (94, 10, 32, 26, 71, 13, 51, 14, 41, 31, 33, 23, 22, 42, 4, 3, 40, 30, 20, 80),
            (53, 72, 81, 54, 8, 27, 0, 22, 14, 41, 13, 11, 31, 12, 23, 32, 33, 42, 40, 30),
        ),
        "vopt": (
            (32, 82, 17, 11, 87, 60, 38, 14, 84, 99, 9, 90, 55, 40, 0, 5, 49, 53, 95, 35),
            (32, 17, 81, 11, 85, 48, 14, 51, 99, 9, 55, 93, 0, 90, 29, 97, 30, 63, 5, 59),
            (72, 18, 88, 11, 80, 58, 14, 85, 41, 39, 6, 93, 0, 99, 9, 60, 66, 33, 91, 69),
            (36, 21, 88, 18, 74, 51, 3, 58, 0, 95, 6, 70, 44, 39, 99, 9, 93, 66, 30, 24),
        ),
        "sopt": (
            (42, 26, 83, 12, 76, 18, 71, 45, 88, 20, 14, 48, 64, 91, 51, 95, 6, 33, 29, 1),
            (33, 72, 27, 11, 75, 48, 51, 15, 93, 56, 18, 97, 80, 13, 54, 30, 69, 35, 86, 6),
            (73, 27, 21, 78, 61, 14, 86, 48, 81, 18, 42, 2, 65, 98, 94, 6, 33, 57, 40, 10),
            (36, 32, 77, 17, 63, 11, 58, 85, 14, 51, 88, 29, 55, 71, 83, 34, 30, 8, 3, 69),
        ),
        "random": (
            (23, 21, 62, 20, 58, 97, 96, 84, 94, 57, 12, 25, 39, 86, 56, 44, 18, 27, 51, 75),
            (9, 44, 24, 42, 30, 26, 20, 29, 10, 33, 98, 31, 3, 6, 70, 25, 95, 75, 8, 28),
            (94, 10, 76, 21, 1, 96, 63, 42, 97, 93, 15, 49, 19, 40, 69, 55, 4, 26, 77, 92),
            (53, 72, 81, 54, 8, 27, 0, 92, 79, 64, 47, 40, 7, 66, 73, 58, 2, 31, 12, 28),
        ),
    },
    "three_blocks": {
        "tsa": (
            (9, 3, 17, 0, 10, 6, 4, 13, 7, 8),
            (15, 3, 7, 0, 12, 4, 16, 6, 5, 11),
            (9, 15, 3, 12, 10, 16, 6, 4, 7, 8),
            (9, 15, 12, 0, 10, 16, 6, 4, 7, 8),
        ),
        "zlg": (
            (10, 3, 6, 16, 5, 0, 12, 11, 17, 2),
            (7, 15, 3, 12, 4, 0, 17, 11, 6, 5),
            (7, 15, 3, 10, 12, 4, 17, 11, 6, 5),
            (13, 9, 15, 11, 10, 0, 16, 12, 17, 2),
        ),
        "vopt": (
            (9, 3, 17, 7, 11, 1, 5, 12, 0, 16),
            (2, 15, 7, 5, 17, 13, 0, 8, 11, 6),
            (9, 15, 4, 13, 7, 17, 11, 2, 5, 12),
            (9, 15, 7, 1, 13, 17, 11, 5, 0, 12),
        ),
        "sopt": (
            (6, 3, 10, 16, 1, 8, 12, 5, 17, 11),
            (2, 15, 6, 4, 13, 17, 8, 0, 11, 5),
            (9, 15, 4, 13, 7, 11, 2, 17, 5, 12),
            (10, 15, 7, 1, 13, 5, 17, 9, 11, 0),
        ),
        "random": (
            (10, 16, 8, 11, 13, 1, 12, 5, 17, 15),
            (7, 15, 1, 17, 4, 3, 12, 11, 5, 13),
            (7, 1, 12, 15, 8, 2, 13, 11, 5, 9),
            (13, 11, 6, 15, 2, 17, 8, 4, 16, 0),
        ),
    },
}


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_query_sequences_match_the_golden_record(name):
    source, budget, trials, seed = EXPERIMENTS[name]
    result = run_experiment(source, KINDS, budget, trials, seed)
    for kind in KINDS:
        got = [rec.queries for rec in result.records if rec.kind is kind]
        assert got == list(GOLDEN[name][kind.value]), f"{name} {kind.value}"
