"""Seeded stochastic-block-model inputs in graphal's file formats.

Every graph has a light ring backbone over a random node order, so it is
connected whatever the block structure.  On top of the ring it adds heavy
in-block edges and light cross-block edges.  A fixed share of the nodes
are noise nodes: their edges are light and land in random blocks, and
their class is drawn at random.  No predictor that follows the graph gets
them all right, which keeps ``final_accuracy`` below 1 and able to move
when a change alters results.  Noise edges are kept light on purpose:
heavy ones bridge the blocks, and then the harmonic sign of a whole block
flips with the luck of the first few labels, which makes accuracy jump
between seeds.

Everything is drawn from one ``numpy`` generator seeded by the caller, in
a fixed order, so the same seed gives the same bytes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RING_WEIGHT = (0.01, 0.05)
IN_WEIGHT = (0.5, 1.5)
CROSS_WEIGHT = (0.05, 0.25)


@dataclass(frozen=True)
class SbmSpec:
    """Size and mixing of one generated graph.

    ``degree`` is the mean degree, ring included; ``cross`` is the share of
    the non-ring edges drawn across blocks; ``noise`` is the share of noise
    nodes.
    """

    n: int
    classes: int
    degree: float
    cross: float
    noise: float


@dataclass(frozen=True)
class SbmGraph:
    """0-based edges ``(i, j, w)`` with ``i < j`` in ascending order, one
    class per node, and the mask of noise nodes."""

    edges: list
    labels: np.ndarray
    noisy: np.ndarray


def sbm(spec: SbmSpec, seed: int) -> SbmGraph:
    rng = np.random.default_rng(seed)
    n, c = spec.n, spec.classes
    block = rng.permutation(np.arange(n) % c)

    order = rng.permutation(n)
    ring = sorted({_key(a, b, n) for a, b in zip(order, np.roll(order, -1))})
    weights = {key: rng.uniform(*RING_WEIGHT) for key in ring}

    noisy = np.zeros(n, dtype=bool)
    noisy[rng.choice(n, size=int(round(spec.noise * n)), replace=False)] = True
    members = [np.flatnonzero(block == b) for b in range(c)]
    extra = int(round(spec.degree * n / 2)) - len(weights)
    n_cross = int(round(extra * spec.cross))
    for want, same, span in ((extra - n_cross, True, IN_WEIGHT), (n_cross, False, CROSS_WEIGHT)):
        added = 0
        while added < want:
            i = int(rng.integers(n))
            home = int(rng.integers(c)) if noisy[i] else int(block[i])
            if same:
                pool = members[home]
            else:
                other = int(rng.integers(c - 1))
                pool = members[other + (other >= home)]
            j = int(pool[rng.integers(pool.size)])
            key = _key(i, j, n)
            if i == j or key in weights:
                continue
            weights[key] = rng.uniform(*(CROSS_WEIGHT if noisy[i] or noisy[j] else span))
            added += 1

    labels = np.where(noisy, rng.integers(c, size=n), block)
    edges = [(k // n, k % n, weights[k]) for k in sorted(weights)]
    return SbmGraph(edges=edges, labels=labels, noisy=noisy)


def _key(i, j, n: int) -> int:
    i, j = int(i), int(j)
    return min(i, j) * n + max(i, j)


def write_files(graph: SbmGraph, edge_path, label_path) -> None:
    """Write the CLI's 1-based ``i j w`` edge list and ``node class`` label file."""
    with open(edge_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# generated stochastic block model: i j w, 1-based\n")
        fh.writelines(f"{i + 1} {j + 1} {w:.6f}\n" for i, j, w in graph.edges)
    with open(label_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{v + 1} {int(cls)}\n" for v, cls in enumerate(graph.labels))
