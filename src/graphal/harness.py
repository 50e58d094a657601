"""Benchmark harness: toy generators, dataset files, trials, aggregation.

A trial starts from one uniformly random labeled node and alternates
predict / query / reveal for a fixed budget.  Accuracy after t queries is
measured over *all* n nodes (observed nodes count as correct, everything
else by the harmonic prediction), so curves from different strategies are
directly comparable.

Randomness is organized for paired comparison: one base seed spawns an
independent stream triple (labeling, initial node, tie-breaking) per
trial, and every strategy replays the same triple.  Differences between
strategies at a given trial are therefore differences in selection rule,
not in luck; re-runs are bit-identical.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import InputError, ParseError, UsageError
from .graph_core import (
    Graph, Laplacian, build_laplacian, init_label_state, raise_first_bad_row, read_edge_list, read_table
)
from .strategies import (
    StrategyKind,
    init_multiclass,
    next_query,
    next_query_multiclass,
    predict_binary,
    predict_multiclass,
    start_binary,
    start_multiclass,
    update,
    update_multiclass,
)

GRID_SIDE = 10
_BOX = 3  # side of each seeded positive block in the grid toy


@dataclass(frozen=True)
class Dataset:
    """A graph with one ground-truth class per node, ids dense 0..C-1."""

    name: str
    graph: Graph
    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        if len(self.labels) != self.graph.n:
            raise InputError("one ground-truth class per node required")
        if self.class_count < 2:
            raise InputError(f"need at least 2 classes, got {self.class_count}")
        labels = np.asarray(self.labels)
        broken = labels != np.round(labels)  # a NaN too
        if broken.any():
            raise InputError(f"class id {labels[broken][0]} is not a whole number")
        if np.any((labels < 0) | (labels >= self.class_count)):
            raise InputError("class ids must lie in 0..C-1")


@dataclass(frozen=True)
class TrialRecord:
    """One strategy's run on one trial: accuracy curve and query order.

    ``curve[t]`` is the accuracy after t queries (t=0 is the initial
    labeled node only), length budget+1.  Curves may dip; no monotonicity
    is promised.
    """

    kind: StrategyKind
    seed: object
    curve: np.ndarray
    queries: tuple[int, ...]


def gen_chain(n: int, seed) -> Dataset:
    """Unit-weight path graph split at a uniformly random edge.

    Nodes up to and including the cut get class 1 (the + side), the rest
    class 0.
    """
    if n < 2:
        raise InputError(f"chain needs n >= 2, got {n}")
    rng = np.random.default_rng(seed)
    cut = int(rng.integers(n - 1))  # edge (cut, cut+1) separates the classes
    labels = np.where(np.arange(n) <= cut, 1, 0)
    graph = Graph(n, np.arange(n - 1), np.arange(1, n), np.ones(n - 1))
    return Dataset(name=f"chain{n}", graph=graph, labels=labels, class_count=2)


def _grid_edges() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The grid's read-only edge arrays, row-major: each node's right, then lower neighbor."""
    v = np.arange(GRID_SIDE * GRID_SIDE)[:, None]
    inside = np.column_stack((v % GRID_SIDE < GRID_SIDE - 1, v < v.size - GRID_SIDE))
    edges = (np.broadcast_to(v, inside.shape)[inside], (v + (1, GRID_SIDE))[inside], np.ones(inside.sum()))
    for arr in edges:
        arr.setflags(write=False)
    return edges


def _grid_field() -> tuple[np.ndarray, np.ndarray]:
    """The grid's pre-jitter classes, and its class-0 nodes next to a class-1 node, ascending."""
    base = np.zeros((GRID_SIDE, GRID_SIDE), dtype=int)
    base[:_BOX, :_BOX] = base[-_BOX:, -_BOX:] = 1
    base = base.ravel()
    src, dst, _ = _GRID_EDGES
    near = np.zeros(base.size, dtype=bool)
    near[src[base[dst] == 1]] = near[dst[base[src] == 1]] = True
    return base, np.flatnonzero(near & (base == 0))


_GRID_EDGES = _grid_edges()  # built once: every grid graph has these edges
_GRID_BASE, _GRID_FLIPPABLE = _grid_field()


def gen_jittered_grid(seed) -> Dataset:
    """10x10 4-neighbor grid with two positive corner blocks, then jitter.

    Two 3x3 blocks (bottom-left and top-right corners) start as class 1.
    Each class-0 node adjacent to a *pre-jitter* class-1 node then flips
    to class 1 independently with probability 1/2.  Flips are drawn in
    ascending node order against the frozen pre-jitter field, so the
    outcome is order-independent and fully determined by the seed.
    """
    labels = _GRID_BASE.copy()
    flips = np.random.default_rng(seed).random(_GRID_FLIPPABLE.size) < 0.5
    labels[_GRID_FLIPPABLE[flips]] = 1
    graph = Graph(GRID_SIDE * GRID_SIDE, *_GRID_EDGES)
    return Dataset(name="grid", graph=graph, labels=labels, class_count=2)


TOY_GENERATORS: dict[str, Callable] = {
    "chain15": lambda seed: gen_chain(15, seed),
    "grid": gen_jittered_grid,
}


def _label_row_fault(line: str, parts: list[str], seen: set, n: int) -> str | None:
    if len(parts) != 2:
        return f"expected 'node_id class_id', got {line!r}"
    try:
        node, cls = int(parts[0]), int(parts[1])
    except ValueError:
        return f"malformed numbers in {line!r}"
    if not 1 <= node <= n:
        return f"unknown node id {node} (graph has {n})"
    if cls < 0:
        return f"negative class id {cls}"
    if cls > np.iinfo(np.int64).max:
        return f"class id {cls} too large"
    if node in seen:
        return f"node {node} labeled twice"
    seen.add(node)
    return None


def load_dataset(edge_path, label_path) -> Dataset:
    """Read a dataset from an edge-list file and a `node_id class_id` file.

    Node ids are 1-based in both files.  Every graph node must receive
    exactly one class; class ids must be dense 0..C-1 with C >= 2.  The
    dataset is named after the edge file.
    """
    graph = read_edge_list(edge_path)
    label_path = str(label_path)
    try:
        node, cls, _, last_line = read_table(label_path, {2})
        if node.size and (node.min() < 1 or node.max() > graph.n or cls.min() < 0
                          or np.bincount(node).max() > 1):
            raise ValueError("node id or class id out of range, or a node labeled twice")
    except (ValueError, OverflowError):
        raise_first_bad_row(label_path, partial(_label_row_fault, n=graph.n))
        raise
    classes = np.full(graph.n, -1, dtype=int)
    classes[node - 1] = cls
    missing = np.flatnonzero(classes == -1)
    if missing.size:
        raise ParseError(label_path, last_line, f"node {missing[0] + 1} has no label")
    present = np.unique(classes)  # ascending: the first k with present[k] != k is missing
    if (gaps := np.flatnonzero(present != np.arange(present.size))).size:
        raise ParseError(label_path, last_line, f"class ids not contiguous: {gaps[0]} missing")
    return Dataset(name=str(edge_path), graph=graph, labels=classes, class_count=present.size)


def _binary_truth(dataset: Dataset) -> np.ndarray:
    return np.where(dataset.labels == 1, 1.0, -1.0)


def _start_state(dataset: Dataset, lap: Laplacian, budget: int, init_ss):
    """A trial's initial state: one uniformly random node, labeled by the truth.

    The one factorization of the trial.  States are immutable values, so
    every strategy of the trial starts from this same object.  The budget
    is checked first, before any O(n^3) work.
    """
    n = dataset.graph.n
    if not 0 <= budget <= n - 1:
        raise UsageError(f"budget must lie in 0..{n - 1}, got {budget}")
    initial = int(np.random.default_rng(init_ss).integers(n))
    if dataset.class_count == 2:
        return init_label_state(lap, [initial], [_binary_truth(dataset)[initial]])
    return init_multiclass(lap, [initial], [dataset.labels[initial]], dataset.class_count)


def _run_with_streams(
    dataset: Dataset,
    start,
    kind: StrategyKind,
    budget: int,
    tie_ss,
    seed_tag,
) -> TrialRecord:
    """One strategy's trial from ``start``, the trial's initial state shared by every strategy."""
    rng_tie = np.random.default_rng(tie_ss)
    curve = np.empty(budget + 1)
    queries: list[int] = []

    if dataset.class_count == 2:
        truth = _binary_truth(dataset)
        session = start_binary(start, kind)
        select, commit, predict = next_query, update, predict_binary
    else:
        truth = dataset.labels
        session = start_multiclass(start, kind)
        select, commit, predict = next_query_multiclass, update_multiclass, predict_multiclass
    curve[0] = float(np.mean(predict(session) == truth))
    for t in range(1, budget + 1):
        q = select(session, rng_tie)
        queries.append(q)
        session = commit(session, q, truth[q])
        curve[t] = float(np.mean(predict(session) == truth))

    return TrialRecord(kind=kind, seed=seed_tag, curve=curve, queries=tuple(queries))


@dataclass(frozen=True)
class ExperimentResult:
    """Aggregated paired-trial curves for a set of strategies."""

    name: str
    kinds: tuple[StrategyKind, ...]
    budget: int
    trials: int
    base_seed: int
    curves: dict  # kind -> (trials, budget+1) accuracy array
    records: tuple[TrialRecord, ...]

    def mean(self, kind: StrategyKind) -> np.ndarray:
        return self.curves[kind].mean(axis=0)

    def stderr(self, kind: StrategyKind) -> np.ndarray:
        c = self.curves[kind]
        if c.shape[0] < 2:
            return np.zeros(c.shape[1])
        return c.std(axis=0, ddof=1) / np.sqrt(c.shape[0])


def run_experiment(
    source,
    kinds,
    budget: int,
    trials: int,
    base_seed: int,
    beta: float = 1.0,
    ridge: float = 0.0,
) -> ExperimentResult:
    """Paired trials of several strategies on one dataset or generator.

    ``source`` is either a fixed :class:`Dataset` or a callable mapping a
    seed to one (toy generators — fresh ground truth every trial).  Every
    strategy sees identical per-trial conditions: same generated dataset,
    same initial node, same tie-break stream.  Each trial builds its
    Laplacian and factorizes its initial ``L_uu`` once; every strategy
    starts from that one state.
    """
    if trials < 1:
        raise UsageError(f"trials must be >= 1, got {trials}")
    kinds = tuple(kinds)
    if not kinds:
        raise UsageError("need at least one strategy")
    if len(set(kinds)) != len(kinds):
        raise UsageError("duplicate strategy in list")
    if budget < 0:
        raise UsageError(f"budget must be >= 0, got {budget}")

    trial_streams = np.random.SeedSequence(base_seed).spawn(trials)
    curves = {kind: np.empty((trials, budget + 1)) for kind in kinds}
    records: list[TrialRecord] = []
    name = None
    for i, trial_ss in enumerate(trial_streams):
        lab_ss, init_ss, tie_ss = trial_ss.spawn(3)
        dataset = source(lab_ss) if callable(source) else source
        if name is None:
            name = dataset.name
        lap = build_laplacian(dataset.graph, beta=beta, ridge=ridge)
        start = _start_state(dataset, lap, budget, init_ss)
        for kind in kinds:
            rec = _run_with_streams(dataset, start, kind, budget, tie_ss, i)
            curves[kind][i] = rec.curve
            records.append(rec)
    return ExperimentResult(
        name=name,
        kinds=kinds,
        budget=budget,
        trials=trials,
        base_seed=base_seed,
        curves=curves,
        records=tuple(records),
    )


def write_csv(result: ExperimentResult, path) -> None:
    """Emit the aggregate table: one row per (strategy, t).

    Header ``strategy,t,mean_accuracy,stderr,trials``; UTF-8, LF endings,
    17 significant digits so re-runs are byte-comparable.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("strategy,t,mean_accuracy,stderr,trials\n")
        for kind in result.kinds:
            mean = result.mean(kind)
            err = result.stderr(kind)
            for t in range(result.budget + 1):
                fh.write(
                    f"{kind.value},{t},{mean[t]:.17g},{err[t]:.17g},{result.trials}\n"
                )
