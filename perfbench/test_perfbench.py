"""Unit checks for the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SMALL = gen.SbmSpec(n=120, classes=3, degree=8, cross=0.05, noise=0.05)


def test_percentile_needs_ten_samples_beyond():
    with pytest.raises(ValueError):
        workloads.percentile_with_tail(list(range(99)), 90)
    samples = list(range(100))
    assert workloads.percentile_with_tail(samples, 90) == np.percentile(samples, 90)
    assert workloads.percentile_with_tail(list(range(20)), 50) == np.percentile(range(20), 50)
    with pytest.raises(ValueError):
        workloads.percentile_with_tail(list(range(19)), 50)


def _span(name, parent, start, end):
    return [name, parent, start, end, 0, None]


def test_self_time_subtracts_direct_children_only():
    recorded = [
        _span("root", -1, 0.0, 10.0),
        _span("a", 0, 1.0, 4.0),
        _span("a.child", 1, 2.0, 3.0),
        _span("b", 0, 5.0, 9.0),
    ]
    assert spans.self_times(recorded) == [3.0, 2.0, 1.0, 4.0]
    assert sum(spans.self_times(recorded)) == 10.0


def test_recorder_nests_spans_and_restores_attributes():
    mod = types.ModuleType("fake")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    rec = spans.Recorder()
    rec.install([mod], {"t.inner": (mod, "inner", False), "t.outer": (mod, "outer", False)})
    with rec.root(0):
        assert mod.outer(1) == 4
    rec.restore()
    assert mod.inner is inner and mod.outer is outer

    names = [s[spans.NAME] for s in rec.spans]
    assert names == [spans.ROOT, "t.outer", "t.inner"]
    assert [s[spans.PARENT] for s in rec.spans] == [-1, 0, 1]
    selfs = spans.self_times(rec.spans)
    root = rec.spans[0]
    assert sum(selfs) == pytest.approx(root[spans.END] - root[spans.START], abs=1e-12)
    assert all(s >= 0 for s in selfs)


def test_rate_takes_the_median_round_of_each_key():
    def rnd(key, queries, time):
        return workloads.Round(key=key, queries=queries, time=time, accuracy=1.0, outcome="")

    rounds = [rnd(0, 10, 1.0), rnd(0, 10, 9.0), rnd(0, 10, 2.0), rnd(1, 30, 3.0)]
    rate, n = workloads.queries_per_second(rounds)
    assert rate == pytest.approx((10 + 30) / (2.0 + 3.0))
    assert n == 4


def test_among_optima_uses_graphal_tie_rule():
    scores = np.array([0.5, 0.2, 0.2 + 1e-13, 0.9])
    assert workloads.among_optima(scores, 1, minimize=True)
    assert workloads.among_optima(scores, 2, minimize=True)
    assert not workloads.among_optima(scores, 0, minimize=True)
    assert workloads.among_optima(scores, 3, minimize=False)


def test_generator_is_deterministic_per_seed(tmp_path):
    def files(seed, tag):
        e, lab = tmp_path / f"{tag}.edges", tmp_path / f"{tag}.labels"
        gen.write_files(gen.sbm(SMALL, seed), e, lab)
        return e.read_bytes(), lab.read_bytes()

    assert files(3, "a") == files(3, "b")
    assert files(3, "a") != files(4, "c")


def test_generator_shape_and_connectivity():
    from graphal import build_laplacian, graph_from_edges
    from graphal.graph_core import positive_components

    sample = gen.sbm(SMALL, 5)
    assert len(sample.edges) == round(SMALL.degree * SMALL.n / 2)
    assert sorted(set(sample.labels.tolist())) == [0, 1, 2]
    assert int(sample.noisy.sum()) == round(SMALL.noise * SMALL.n)
    assert all(i < j for i, j, _ in sample.edges)
    lap = build_laplacian(graph_from_edges(SMALL.n, sample.edges))
    assert len(positive_components(lap)) == 1
