"""Toy generators, dataset files, trial loop, aggregation, CSV output."""
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from graphal import harness
from graphal.errors import InputError, ParseError, UsageError
from graphal.harness import (
    Dataset,
    GRID_SIDE,
    TOY_GENERATORS,
    gen_chain,
    gen_jittered_grid,
    load_dataset,
    run_experiment,
    write_csv,
)
from graphal.selftest import random_connected_graph
from graphal.strategies import StrategyKind


# --- chain generator ---------------------------------------------------------


def test_chain_structure_and_single_cut():
    ds = gen_chain(15, seed=4)
    assert ds.graph.n == 15
    assert len(ds.graph.edges) == 14
    assert all(w == 1.0 for _, _, w in ds.graph.edges)
    changes = np.count_nonzero(np.diff(ds.labels))
    assert changes == 1
    # positive side first
    assert ds.labels[0] == 1 and ds.labels[-1] == 0


def test_chain_two_nodes():
    ds = gen_chain(2, seed=0)
    assert np.array_equal(ds.labels, [1, 0])
    with pytest.raises(InputError):
        gen_chain(1, seed=0)


def test_chain_cut_edge_is_uniform():
    counts = np.zeros(14)
    for seed in range(10_000):
        ds = gen_chain(15, seed=seed)
        cut = int(np.flatnonzero(np.diff(ds.labels))[0])
        counts[cut] += 1
    assert scipy.stats.chisquare(counts).pvalue > 0.001


# --- jittered grid -----------------------------------------------------------


def grid_boxes():
    base = np.zeros(100, dtype=int)
    for r in range(3):
        for c in range(3):
            base[r * GRID_SIDE + c] = 1
            base[(9 - r) * GRID_SIDE + (9 - c)] = 1
    return base


def grid_neighbors(v):
    r, c = divmod(v, GRID_SIDE)
    out = []
    if r > 0:
        out.append(v - GRID_SIDE)
    if r < GRID_SIDE - 1:
        out.append(v + GRID_SIDE)
    if c > 0:
        out.append(v - 1)
    if c < GRID_SIDE - 1:
        out.append(v + 1)
    return out


def test_grid_edge_count_and_weights():
    ds = gen_jittered_grid(seed=0)
    assert ds.graph.n == 100
    assert len(ds.graph.edges) == 180
    assert all(w == 1.0 for _, _, w in ds.graph.edges)


def test_grid_jitter_flips_only_box_adjacent_negatives():
    base = grid_boxes()
    assert base.sum() == 18
    flippable = {
        v for v in range(100) if base[v] == 0 and any(base[w] == 1 for w in grid_neighbors(v))
    }
    for seed in range(50):
        labels = gen_jittered_grid(seed=seed).labels
        # box nodes never change; everything else positive must be flippable
        assert np.all(labels[base == 1] == 1)
        extra = set(np.flatnonzero((labels == 1) & (base == 0)))
        assert extra.issubset(flippable)


def test_grid_mean_positive_count():
    base = grid_boxes()
    flippable = [
        v for v in range(100) if base[v] == 0 and any(base[w] == 1 for w in grid_neighbors(v))
    ]
    trials = 2000
    total = sum(gen_jittered_grid(seed=s).labels.sum() for s in range(trials))
    mean = total / trials
    expected = 18 + 0.5 * len(flippable)
    # std of the mean is ~sqrt(|flippable|/4)/sqrt(trials) ~ 0.04
    assert abs(mean - expected) < 0.25, (mean, expected)


# --- dataset files -----------------------------------------------------------


def write_files(tmp_path, edges, labels):
    e = tmp_path / "d.edges"
    l = tmp_path / "d.labels"
    e.write_text(edges)
    l.write_text(labels)
    return e, l


def test_load_dataset_round_trip(tmp_path):
    e, l = write_files(tmp_path, "1 2\n", "1 0\n2 1\n")
    ds = load_dataset(e, l)
    assert ds.graph.n == 2
    assert np.array_equal(ds.labels, [0, 1])
    assert ds.class_count == 2


def test_load_dataset_multiclass(tmp_path):
    e, l = write_files(tmp_path, "1 2\n2 3\n3 4\n", "1 0\n2 1\n3 2\n4 1\n")
    ds = load_dataset(e, l)
    assert ds.class_count == 3


@pytest.mark.parametrize(
    "labels,message",
    [
        ("1 0\n2 1\n3 0\n", "unknown node"),
        ("1 0\n", "has no label"),
        ("1 0\n2 2\n", "not contiguous"),
        ("1 0\n2 0\n2 1\n", "labeled twice"),
        ("1 0\nbogus\n", "expected"),
        ("1 -1\n2 0\n", "negative class"),
        ("1 0\n2 99999999999999999999\n", "labels:2: class id 99999999999999999999 too large"),
    ],
)
def test_load_dataset_label_errors(tmp_path, labels, message):
    e, l = write_files(tmp_path, "1 2\n", labels)
    with pytest.raises(ParseError, match=message):
        load_dataset(e, l)


def test_class_id_gap_costs_no_memory_per_missing_id(tmp_path):
    e, l = write_files(tmp_path, "1 2\n2 3\n", "1 0\n2 1000000\n3 1\n")
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as info:
            load_dataset(e, l)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == f"{l}:3: class ids not contiguous: 2 missing"
    assert peak < 1 << 20


def test_load_dataset_duplicate_edge(tmp_path):
    e, l = write_files(tmp_path, "1 2\n2 1\n", "1 0\n2 1\n")
    with pytest.raises(ParseError, match="duplicate edge"):
        load_dataset(e, l)


def test_dataset_validation():
    ds = gen_chain(4, seed=0)
    with pytest.raises(InputError):
        Dataset(name="bad", graph=ds.graph, labels=np.array([0, 1]), class_count=2)
    with pytest.raises(InputError):
        Dataset(name="bad", graph=ds.graph, labels=np.array([0, 1, 2, 3]), class_count=2)


@pytest.mark.parametrize("class_count", [2, 3])
def test_dataset_rejects_a_class_id_that_is_not_a_whole_number(class_count):
    # Checked through int(), 1.5 passes as class 1; a binary run then takes
    # the node as class 0 (it is not == 1), a three-class one fails mid-run.
    graph = gen_chain(6, 0).graph
    with pytest.raises(InputError, match=r"^class id 1\.5 is not a whole number$"):
        Dataset("x", graph, np.array([1, 1, 1.5, 0, 0, 0]), class_count)
    with pytest.raises(InputError, match="^class id nan is not a whole number$"):
        Dataset("x", graph, np.array([1, 1, np.nan, 0, 0, 0]), class_count)


# --- trials -------------------------------------------------------------------


def trial(ds, kind, budget, seed, beta=1.0):
    """One strategy's single trial, through the one trial driver."""
    return run_experiment(ds, [kind], budget, 1, seed, beta=beta).records[0]


def test_trial_budget_zero_records_initial_accuracy():
    ds = gen_chain(15, seed=3)
    rec = trial(ds, StrategyKind.TSA, budget=0, seed=5)
    assert rec.curve.shape == (1,)
    assert 0.0 <= rec.curve[0] <= 1.0
    assert rec.queries == ()


def test_trial_full_budget_reaches_perfect_accuracy():
    ds = gen_chain(15, seed=3)
    rec = trial(ds, StrategyKind.TSA, budget=14, seed=5)
    assert rec.curve.shape == (15,)
    assert rec.curve[-1] == 1.0
    assert len(set(rec.queries)) == 14  # no node queried twice
    assert np.all((rec.curve >= 0.0) & (rec.curve <= 1.0))


def test_trial_budget_bounds():
    ds = gen_chain(5, seed=0)
    with pytest.raises(UsageError):
        trial(ds, StrategyKind.TSA, budget=5, seed=0)


@pytest.mark.parametrize("kind", list(StrategyKind))
def test_trial_runs_every_strategy(kind):
    ds = gen_chain(10, seed=1)
    rec = trial(ds, kind, budget=4, seed=2)
    assert rec.kind is kind
    assert rec.curve.shape == (5,)


def test_trial_multiclass_dataset(tmp_path):
    e = tmp_path / "m.edges"
    e.write_text("1 2\n2 3\n3 4\n4 5\n5 6\n")
    l = tmp_path / "m.labels"
    l.write_text("1 0\n2 0\n3 1\n4 1\n5 2\n6 2\n")
    ds = load_dataset(e, l)
    rec = trial(ds, StrategyKind.TSA, budget=5, seed=0)
    assert rec.curve[-1] == 1.0  # 1 seed + 5 queries = all 6 nodes observed


def test_trial_guards_are_scale_free():
    # G scales as 1/beta; guards relative to max diag(G) must not fire at beta=1e12
    ds = gen_chain(10, seed=5)
    for beta in (1.0, 1e12):
        assert trial(ds, StrategyKind.TSA, 9, seed=3, beta=beta).curve[-1] == 1.0
    # harmonic values do not depend on beta, so neither do zlg's queries
    zlg = [trial(ds, StrategyKind.ZLG, 9, seed=3, beta=beta).queries for beta in (1.0, 1e12)]
    assert zlg[0] == zlg[1]


def test_trial_is_reproducible():
    ds = gen_chain(12, seed=9)
    a = trial(ds, StrategyKind.RANDOM, budget=6, seed=42)
    b = trial(ds, StrategyKind.RANDOM, budget=6, seed=42)
    assert a.queries == b.queries
    assert np.array_equal(a.curve, b.curve)


# --- experiments ----------------------------------------------------------------


def test_experiment_single_trial_has_one_curve_and_zero_stderr():
    res = run_experiment(TOY_GENERATORS["chain15"], [StrategyKind.ZLG], 6, 1, 11)
    assert res.curves[StrategyKind.ZLG].shape == (1, 7)
    assert np.array_equal(res.stderr(StrategyKind.ZLG), np.zeros(7))
    assert res.records[0].curve.shape == (7,)


def test_experiment_pairs_trials_across_strategies():
    kinds = [StrategyKind.TSA, StrategyKind.VOPT, StrategyKind.RANDOM]
    res = run_experiment(TOY_GENERATORS["chain15"], kinds, 5, 8, 3)
    # same dataset + same initial node => identical accuracy before any query
    t0 = [res.curves[k][:, 0] for k in kinds]
    assert np.array_equal(t0[0], t0[1])
    assert np.array_equal(t0[0], t0[2])


def test_experiment_is_bit_identical_across_runs():
    kinds = [StrategyKind.TSA, StrategyKind.SOPT]
    a = run_experiment(TOY_GENERATORS["grid"], kinds, 8, 4, 123)
    b = run_experiment(TOY_GENERATORS["grid"], kinds, 8, 4, 123)
    for k in kinds:
        assert np.array_equal(a.curves[k], b.curves[k])


def test_experiment_accepts_fixed_dataset():
    ds = gen_chain(10, seed=77)
    res = run_experiment(ds, [StrategyKind.ZLG], 4, 3, 0)
    assert res.name == "chain10"
    assert res.curves[StrategyKind.ZLG].shape == (3, 5)


@pytest.mark.parametrize("classes", [2, 3], ids=["binary", "multiclass"])
def test_experiment_factorizes_once_per_trial(monkeypatch, classes):
    rng = np.random.default_rng(classes)
    graph = random_connected_graph(rng, n_max=25, n_min=25)
    ds = Dataset("random25", graph, rng.integers(classes, size=graph.n), classes)
    kinds = list(StrategyKind)
    name = "init_label_state" if classes == 2 else "init_multiclass"
    original = getattr(harness, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, name, counting)
    with pytest.raises(UsageError):
        run_experiment(ds, kinds, graph.n, 3, 4)  # budget out of range
    assert calls == []  # rejected before any factorization
    shared = run_experiment(ds, kinds, 8, 3, 4)
    assert len(calls) == 3  # one per trial, not one per trial and strategy
    monkeypatch.undo()

    # a strategy run alone starts from its own state, built just for it
    fresh = [rec for kind in kinds for rec in run_experiment(ds, [kind], 8, 3, 4).records]
    by_key = {(rec.kind, rec.seed): rec for rec in fresh}
    assert len(shared.records) == len(by_key) == 3 * len(kinds)
    for rec in shared.records:
        alone = by_key[(rec.kind, rec.seed)]
        assert rec.queries == alone.queries
        assert np.array_equal(rec.curve, alone.curve)


def test_experiment_input_validation():
    ds = gen_chain(6, seed=0)
    with pytest.raises(UsageError):
        run_experiment(ds, [], 3, 2, 0)
    with pytest.raises(UsageError):
        run_experiment(ds, [StrategyKind.TSA, StrategyKind.TSA], 3, 2, 0)
    with pytest.raises(UsageError):
        run_experiment(ds, [StrategyKind.TSA], 3, 0, 0)


# --- CSV ------------------------------------------------------------------------


def test_csv_format_and_determinism(tmp_path):
    res = run_experiment(TOY_GENERATORS["chain15"], [StrategyKind.TSA, StrategyKind.RANDOM], 3, 4, 7)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_csv(res, p1)
    write_csv(res, p2)
    data = p1.read_bytes()
    assert data == p2.read_bytes()
    assert b"\r" not in data

    lines = data.decode("utf-8").splitlines()
    assert lines[0] == "strategy,t,mean_accuracy,stderr,trials"
    assert len(lines) == 1 + 2 * 4  # two strategies, t = 0..3
    first = lines[1].split(",")
    assert first[0] == "tsa" and first[1] == "0" and first[4] == "4"
    # 17 significant digits round-trip exactly
    mean = res.mean(StrategyKind.TSA)
    assert float(first[2]) == mean[0]


def test_csv_stderr_column_matches_sample_stderr(tmp_path):
    res = run_experiment(TOY_GENERATORS["chain15"], [StrategyKind.RANDOM], 2, 6, 5)
    curves = res.curves[StrategyKind.RANDOM]
    expected = curves.std(axis=0, ddof=1) / np.sqrt(6)
    assert np.allclose(res.stderr(StrategyKind.RANDOM), expected)
