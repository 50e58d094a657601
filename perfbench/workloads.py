"""The three benchmark workloads, their correctness checks, and the loop
that measures them.

Every workload repeats one *round* until the run's seconds are used up.
A round is deterministic in the seed, so every repeat must give the same
queries and the same output bytes; that is checked.  The first time each
distinct round runs, its results are also checked against a fresh rebuild,
off the clock.

The benchmark calls graphal only through module attributes looked up at
call time (``harness.load_dataset(...)``), so the traced run can wrap
those attributes.

Why these three:

* ``interactive-file`` drives the session API the way the README quick
  start does.  Ingest and the O(n^3) factorization dominate the set-up,
  and the turn is mostly the tsa risk table and the inverse downdate.  It
  is the only workload where the benchmark itself makes each turn's calls.
* ``batch-multiclass`` is one-vs-rest with four classes through
  ``run_experiment``.  The Python loop over candidates in
  ``multiclass_risk_table`` takes most of its time; the binary workloads
  never call it.  Its three strategies give the turn times three clusters,
  so the median turn lies inside one instead of on the edge between two.
* ``toy-grid`` is the paper-scale grid experiment with |u| <= 100 and all
  five strategies, where per-call overhead, the harness loop and the
  generator dominate.  A change that wins at n=1500 but adds cost per
  call shows here.  Like every ``run_experiment`` workload, it factorizes
  the same ``L_uu`` once per strategy in each trial.
"""
from __future__ import annotations

import hashlib
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import graphal
from graphal import eem, graph_core, harness, inference, strategies
from graphal.config import DEFAULT_TOLERANCES
from graphal.strategies import StrategyKind

import gen
import spans

TOL = DEFAULT_TOLERANCES
TSA, ZLG, VOPT, SOPT, RANDOM = (StrategyKind(k) for k in ("tsa", "zlg", "vopt", "sopt", "random"))

MODULES = (graphal, graph_core, inference, eem, strategies, harness)

# span name -> (owner, attribute, whether the first argument's unlabeled set sizes the call)
TRACE_TARGETS = {
    "ingest.read_edge_list": (graph_core, "read_edge_list", False),
    "ingest.load_dataset": (harness, "load_dataset", False),
    "ingest.graph": (graph_core.Graph, "__post_init__", False),
    "ingest.graph_from_edges": (graph_core, "graph_from_edges", False),
    "ingest.build_laplacian": (graph_core, "build_laplacian", False),
    "ingest.positive_components": (graph_core, "positive_components", False),
    "factor.init_label_state": (graph_core, "init_label_state", False),
    "session.start_binary": (strategies, "start_binary", False),
    "session.start_multiclass": (strategies, "start_multiclass", False),
    "select.next_query": (strategies, "next_query", False),
    "select.next_query_multiclass": (strategies, "next_query_multiclass", False),
    "select.tsa_risk_table": (eem, "tsa_risk_table", True),
    "select.zlg_risk_table": (eem, "zlg_risk_table", True),
    "select.vopt_scores": (strategies, "vopt_scores", True),
    "select.sopt_scores": (strategies, "sopt_scores", True),
    "select.multiclass_risk_table": (strategies, "multiclass_risk_table", True),
    "commit.update": (strategies, "update", False),
    "commit.update_multiclass": (strategies, "update_multiclass", False),
    "commit.downdate_inverse": (graph_core, "downdate_inverse", True),
    "harness.run_experiment": (harness, "run_experiment", False),
    "harness.gen_jittered_grid": (harness, "gen_jittered_grid", False),
    "harness.predict_binary": (strategies, "predict_binary", False),
    "harness.predict_multiclass": (strategies, "predict_multiclass", False),
    "harness.write_csv": (harness, "write_csv", False),
}
# Every end-to-end time is CPU time of this process, not wall time.  BLAS
# runs on one thread, so on an idle machine the two agree; on a shared VM
# the wall clock also counts the stretches the host gives the virtual CPU
# to someone else (steal), which moved identical rounds by 20% and more.
clock = process_time
WALL_LIMIT = 1.25  # no round starts after this many times the seconds of wall time
LAYERS = ("ingest", "factor", "session", "select", "commit", "harness")
MIN_TURNS = 100  # so that p90 has at least ten samples beyond it
SETUP_REPS = 3  # set-up repeats after each round of a run_experiment workload
SETUP_SECONDS = 0.3
TABLES = tuple(n for n in TRACE_TARGETS if n.endswith(("_risk_table", "_scores")))


# ---------------------------------------------------------------------------
# correctness checks (run off the clock)
# ---------------------------------------------------------------------------


def _max_diff(kept: np.ndarray, fresh: np.ndarray) -> float:
    return float(np.max(np.abs(kept - fresh))) if kept.size else 0.0


def among_optima(scores: np.ndarray, i: int, minimize: bool) -> bool:
    """True if ``scores[i]`` ties the optimum under graphal's tie rule.

    The slack adds the equivalence tolerance, because the fresh table and
    the maintained one may differ in the last digits.
    """
    best = float(scores.min() if minimize else scores.max())
    slack = (TOL.tie_relative + TOL.equivalence) * max(1.0, abs(best))
    return bool(scores[i] <= best + slack if minimize else scores[i] >= best - slack)


def _class_of_labeled(mstate) -> np.ndarray:
    return np.argmax(np.column_stack([s.labels for s in mstate.states]), axis=1)


def _fresh(session):
    """Rebuild the session's labeled set from scratch, with one new factorization."""
    if isinstance(session, strategies.BinarySession):
        st = session.state
        return graph_core.init_label_state(st.lap, st.labeled, st.labels)
    ms = session.mstate
    return strategies.init_multiclass(
        ms.states[0].lap, ms.labeled, _class_of_labeled(ms), ms.class_count
    )


def _choice_scores(kind: StrategyKind, fresh) -> tuple[np.ndarray, bool, object]:
    """(scores, minimize, binary state) of a freshly computed selection table."""
    multi = isinstance(fresh, strategies.MulticlassState)
    base = fresh.states[0] if multi else fresh
    if kind is VOPT:
        return strategies.vopt_scores(base), False, base
    if kind is SOPT:
        return strategies.sopt_scores(base), False, base
    if multi:
        return strategies.multiclass_risk_table(fresh, kind), True, base
    table = eem.tsa_risk_table if kind is TSA else eem.zlg_risk_table
    return table(fresh), True, base


def check_session(final, choice: int, before=None) -> list[str]:
    """Compare a session's maintained state with a fresh rebuild.

    ``final`` is the session after its last commit; ``choice`` is the
    strategy's last selection, made on ``before`` (default ``final``).
    Returns one message per failed check.
    """
    errors = []
    kind = final.kind
    fresh = _fresh(final)
    if isinstance(final, strategies.BinarySession):
        pairs = [
            ("inverse", final.state.inverse, fresh.inverse),
            ("harmonic", final.harmonic, inference.lp_harmonic(fresh)),
        ]
        if final.decisions is not None:
            pairs.append(("decisions", final.decisions, inference.tsa_marginals(fresh).values))
    else:
        pairs = [
            ("inverse", final.mstate.states[0].inverse, fresh.states[0].inverse),
            ("harmonics", final.harmonics, strategies.multiclass_harmonics(fresh)),
        ]
        if final.decisions is not None:
            pairs.append(("decisions", final.decisions, strategies.multiclass_decisions(fresh)))
    for what, kept, ref in pairs:
        diff = _max_diff(kept, ref)
        if not diff <= TOL.equivalence:
            errors.append(f"{kind.value}: maintained {what} is {diff:.3e} from a fresh rebuild")

    if kind is not RANDOM:
        fresh_before = fresh if before is None else _fresh(before)
        scores, minimize, base = _choice_scores(kind, fresh_before)
        if not among_optima(scores, base.u_index(choice), minimize):
            errors.append(f"{kind.value}: last choice {choice} is not among the fresh optima")
    return errors


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class Round:
    key: int  # rounds with the same key must give the same outcome
    queries: int
    time: float  # CPU seconds on the clock
    accuracy: float
    outcome: str  # sha256 of the queries or of the CSV bytes
    turns: list = field(default_factory=list)  # seconds per select + commit
    setup: float | None = None
    failures: list = field(default_factory=list)
    raised: bool = False


class InteractiveFile:
    """A labeler opens the graph from files and answers ten tsa turns.

    Four sessions, each starting from its own two known nodes per class,
    repeat in turn.  A turn is ``update`` with the revealed label followed
    by ``next_query``: the wait after the labeler answers.
    """

    name = "interactive-file"
    graph = gen.SbmSpec(n=1500, classes=2, degree=28, cross=0.02, noise=0.05)
    sessions = 4
    turns = 10
    known_per_class = 2
    checked_rounds = sessions
    queries_per_round = turns
    trials = 1  # per round: a session counts as one trial

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        sample = gen.sbm(self.graph, seed)
        self.edges, self.labels = workdir / "edges.txt", workdir / "labels.txt"
        gen.write_files(sample, self.edges, self.labels)
        self.truth = np.where(sample.labels == 1, 1.0, -1.0)
        rng = np.random.default_rng([seed, 0])
        typical = [np.flatnonzero((self.truth == y) & ~sample.noisy) for y in (1.0, -1.0)]
        self.known = [
            sorted(int(v) for nodes in typical for v in rng.choice(nodes, self.known_per_class, replace=False))
            for _ in range(self.sessions)
        ]

    def open(self, k: int):
        """Input files to a started session that is ready to select."""
        dataset = harness.load_dataset(self.edges, self.labels)
        lap = graph_core.build_laplacian(dataset.graph)
        known = self.known[k]
        state = graph_core.init_label_state(lap, known, self.truth[known])
        return strategies.start_binary(state, TSA)

    def setup_times(self) -> list[float]:
        return []  # every round opens a session and times it

    def run_round(self, r: int, check: bool, span) -> Round:
        k = r % self.sessions
        rng = np.random.default_rng([self.seed, k, 1])
        turns = []
        with span:
            t0 = clock()
            session = self.open(k)
            setup = clock() - t0
            q = strategies.next_query(session, rng)
            asked = [q]
            for _ in range(self.turns):
                t = clock()
                session = strategies.update(session, q, self.truth[q])
                q = strategies.next_query(session, rng)
                turns.append(clock() - t)
                asked.append(q)
            predicted = strategies.predict_binary(session)
            spent = clock() - t0
        accuracy = float(np.mean(predicted == self.truth))
        return Round(
            key=k,
            queries=self.queries_per_round,
            time=spent,
            accuracy=accuracy,
            outcome=hashlib.sha256(repr(asked).encode()).hexdigest(),
            turns=turns,
            setup=setup,
            failures=check_session(session, q) if check else [],
        )


class TurnClock:
    """Times each select + commit pair inside ``run_experiment``.

    It wraps the harness's own lookups of the select and commit calls.  A
    turn runs from the select call's entry to the commit call's return.
    Every ``budget`` commits end one (trial, strategy) pass; while
    ``checking`` is set, the pass is checked right then and the check's
    time is counted in ``off_clock``.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self._patcher = spans.Patcher()
        self.reset(False)

    def reset(self, checking: bool) -> None:
        self.checking = checking
        self.turns: list[float] = []
        self.failures: list[str] = []
        self.off_clock = 0.0
        self._commits = 0
        self._start = 0.0
        self._before = self._choice = None

    def install(self) -> None:
        for attr in ("next_query", "next_query_multiclass"):
            self._patcher.replace([harness], getattr(harness, attr), self._select)
        for attr in ("update", "update_multiclass"):
            self._patcher.replace([harness], getattr(harness, attr), self._commit)

    def restore(self) -> None:
        self._patcher.restore()

    def _select(self, fn):
        def select(session, *args, **kwargs):
            self._start = clock()
            choice = fn(session, *args, **kwargs)
            self._before, self._choice = session, choice
            return choice

        return select

    def _commit(self, fn):
        def commit(*args, **kwargs):
            after = fn(*args, **kwargs)
            self.turns.append(clock() - self._start)
            self._commits += 1
            if self.checking and self._commits % self.budget == 0:
                t = clock()
                self.failures += check_session(after, self._choice, self._before)
                self.off_clock += clock() - t
            self._before = None
            return after

        return commit


class Experiment:
    """``run_experiment`` from the input files (or generator) to the CSV."""

    kinds: tuple
    budget: int
    trials: int
    checked_rounds = 1  # every round repeats the first

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.csv = workdir / "accuracy.csv"
        self.turns = TurnClock(self.budget)

    @property
    def queries_per_round(self) -> int:
        return self.trials * self.budget * len(self.kinds)

    def source(self):
        raise NotImplementedError

    def dataset(self):
        """The dataset the set-up opens."""
        return self.source()

    def open(self):
        """Input to a started tsa session on one random node, ready to select."""
        dataset = self.dataset()
        lap = graph_core.build_laplacian(dataset.graph)
        v = int(np.random.default_rng([self.seed, 2]).integers(dataset.graph.n))
        if dataset.class_count == 2:
            state = graph_core.init_label_state(lap, [v], [1.0 if dataset.labels[v] == 1 else -1.0])
            return strategies.start_binary(state, self.kinds[0])
        mstate = strategies.init_multiclass(lap, [v], [int(dataset.labels[v])], dataset.class_count)
        return strategies.start_multiclass(mstate, self.kinds[0])

    def setup_times(self) -> list[float]:
        """Set-up repeats for at least SETUP_SECONDS and SETUP_REPS times."""
        times: list[float] = []
        while len(times) < SETUP_REPS or sum(times) < SETUP_SECONDS:
            t0 = clock()
            self.open()
            times.append(clock() - t0)
        return times

    def run_round(self, r: int, check: bool, span) -> Round:
        turns = self.turns
        turns.reset(check)
        turns.install()
        try:
            with span:
                t0 = clock()
                result = harness.run_experiment(
                    self.source(), self.kinds, self.budget, self.trials, self.seed
                )
                harness.write_csv(result, self.csv)
                spent = clock() - t0 - turns.off_clock
        finally:
            turns.restore()
        finals = [result.curves[kind][:, -1] for kind in self.kinds]
        return Round(
            key=0,
            queries=self.queries_per_round,
            time=spent,
            accuracy=float(np.mean(finals)),
            outcome=hashlib.sha256(self.csv.read_bytes()).hexdigest(),
            turns=turns.turns,
            failures=turns.failures,
        )


class BatchMulticlass(Experiment):
    name = "batch-multiclass"
    graph = gen.SbmSpec(n=500, classes=4, degree=10, cross=0.02, noise=0.05)
    kinds = (TSA, ZLG, VOPT)
    budget = 25
    trials = 1

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.edges, self.labels = workdir / "edges.txt", workdir / "labels.txt"
        gen.write_files(gen.sbm(self.graph, seed), self.edges, self.labels)

    def source(self):
        return harness.load_dataset(self.edges, self.labels)


class ToyGrid(Experiment):
    name = "toy-grid"
    kinds = (TSA, ZLG, VOPT, SOPT, RANDOM)
    budget = 40
    trials = 50

    def source(self):
        return harness.gen_jittered_grid

    def dataset(self):
        return harness.gen_jittered_grid(self.seed)


WORKLOADS = {w.name: w for w in (InteractiveFile, BatchMulticlass, ToyGrid)}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def percentile_with_tail(samples, p: float, min_beyond: int = 10) -> float:
    """The ``p``-th percentile, only if at least ``min_beyond`` samples lie beyond it."""
    beyond = int(len(samples) * (100.0 - p) / 100.0 + 1e-9)
    if beyond < min_beyond:
        raise ValueError(f"p{p:g} of {len(samples)} samples has {beyond} beyond it, need {min_beyond}")
    return float(np.percentile(samples, p))


class Run:
    """Repeats a workload's round for the run's seconds and checks each round."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.first: dict[int, Round] = {}
        self.next_round = 0

    def phase(self, seconds: float, min_rounds: int, recorder=None, between=None) -> list[Round]:
        """Rounds until ``seconds`` on the clock are used (at least ``min_rounds``).

        A round that would overrun the seconds by more than a quarter, going
        by the mean so far, is not started, and none starts once the phase
        has taken WALL_LIMIT times its seconds of wall time.  ``between``
        runs off the clock after each round.
        """
        rounds: list[Round] = []
        if recorder is not None:
            recorder.install(MODULES, TRACE_TARGETS)
        try:
            used, attempts = 0.0, 0
            deadline = perf_counter() + WALL_LIMIT * seconds
            while True:
                r = self.next_round
                self.next_round += 1
                span = recorder.root(r) if recorder is not None else nullcontext()
                res = self._one(r, span)
                if between is not None:
                    between()
                attempts += 1
                used += res.time
                if not res.raised:
                    rounds.append(res)
                mean = used / attempts
                if attempts >= min_rounds and (
                    used >= seconds or used + mean > 1.25 * seconds or perf_counter() > deadline
                ):
                    break
        finally:
            if recorder is not None:
                recorder.restore()
        return rounds

    def _one(self, r: int, span) -> Round:
        wl = self.workload
        t0 = clock()
        try:
            res = wl.run_round(r, r < wl.checked_rounds, span)
        except Exception as exc:  # a round that raises counts as failed queries; the run goes on
            traceback.print_exc(file=sys.stderr)
            res = Round(key=-1, queries=wl.queries_per_round, time=clock() - t0,
                        accuracy=float("nan"), outcome="", failures=[repr(exc)], raised=True)
        else:
            first = self.first.setdefault(res.key, res)
            if res.outcome != first.outcome or res.accuracy != first.accuracy:
                res.failures.append(f"round {r} differs from the first round with key {res.key}")
        self.attempted += res.queries
        if res.failures:
            self.failed += res.queries
            for msg in res.failures[:5]:
                print(f"check failed: {msg}", file=sys.stderr)
        return res

    def final_accuracy(self) -> float:
        return float(np.mean([self.first[k].accuracy for k in sorted(self.first)]))

    def digest(self) -> str:
        joined = "".join(self.first[k].outcome for k in sorted(self.first))
        return hashlib.sha256(joined.encode()).hexdigest()


def queries_per_second(rounds: list[Round]) -> tuple[float, int]:
    """Queries of one round of each key over the sum of each key's median round time.

    Rounds with the same key repeat the same work, so the median keeps a
    burst of machine noise in one round out of the rate.  Returns the rate
    and the number of rounds behind it.
    """
    by_key: dict[int, list[Round]] = {}
    for r in rounds:
        by_key.setdefault(r.key, []).append(r)
    queries = sum(same[0].queries for same in by_key.values())
    time = sum(statistics.median(r.time for r in same) for same in by_key.values())
    return queries / time, len(rounds)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Run one workload; returns the result record (metrics with sample counts)."""
    wl = WORKLOADS[name](seed, workdir)
    run = Run(wl)
    out = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    if not trace:
        # set-up repeats are spread between the rounds, so one burst of
        # machine noise cannot move them all
        setups: list[float] = []
        min_rounds = max(-(-MIN_TURNS // wl.queries_per_round), wl.checked_rounds)
        rounds = run.phase(seconds, min_rounds, between=lambda: setups.extend(wl.setup_times()))
        setups += [r.setup for r in rounds if r.setup is not None]
        turns = [t for r in rounds for t in r.turns]
        rate, rate_rounds = queries_per_second(rounds)
        metrics = {
            "setup_s": (statistics.median(setups), "s", len(setups)),
            "turn_ms_p50": (statistics.median(turns) * 1e3, "ms", len(turns)),
            "turn_ms_p90": (percentile_with_tail(turns, 90) * 1e3, "ms", len(turns)),
            "queries_per_s": (rate, "1/s", rate_rounds),
            "final_accuracy": (run.final_accuracy(), "fraction", len(run.first)),
            "peak_rss_mb": (peak_rss_mb(), "MB", 1),
        }
    else:
        # the checked rounds run untraced first; then traced and untraced
        # rounds alternate, so drift in machine speed hits both alike
        untraced = run.phase(0.0, wl.checked_rounds)
        rec = spans.Recorder()
        traced: list[Round] = []
        while True:
            traced += run.phase(0.0, 1, rec)
            untraced += run.phase(0.0, 1)
            used = sum(r.time for r in untraced + traced)
            pair = traced[-1].time + untraced[-1].time
            if used >= seconds or used + pair > 1.25 * seconds:
                break
        metrics = layer_metrics(wl, rec, untraced, traced)
        spans_path = workdir / "spans.jsonl.gz"
        rec.dump(spans_path)
        out["spans_file"] = str(spans_path)
        out["spans"] = span_table(rec, len(traced))
    out["metrics"] = {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()}
    out["attempted"] = run.attempted
    out["failed"] = run.failed
    out["correct"] = run.failed == 0 and run.attempted > 0
    out["digest"] = run.digest()
    return out


def _pool(table: dict, names, key: str) -> list:
    vals = [v for n in names for v in table.get(n, {}).get(key, [])]
    if not vals:
        raise RuntimeError(f"no spans recorded for {', '.join(names)}")
    return vals


def layer_metrics(wl, rec: spans.Recorder, untraced: list, traced: list) -> dict:
    """Per-layer metrics from the traced rounds; value, unit, sample count."""
    table = spans.by_name(rec.spans)
    rounds = len(traced)
    trials = wl.trials * rounds

    def med_ms(names, key="durations"):
        vals = _pool(table, names, key)
        return statistics.median(vals) * 1e3, "ms", len(vals)

    def computed_mb(names, per_size):
        sizes = _pool(table, names, "sizes")
        return float(np.mean([per_size(m) for m in sizes])) / 1e6, "MB", len(sizes)

    selects = len(_pool(table, ["select.next_query", "select.next_query_multiclass"], "durations"))
    tables = sum(len(table[n]["durations"]) for n in TABLES if n in table)
    inits = len(_pool(table, ["factor.init_label_state"], "durations"))
    busy = dict.fromkeys(LAYERS, 0.0)
    for name, entry in table.items():
        if spans.layer_of(name) in busy:
            busy[spans.layer_of(name)] += sum(entry["selfs"])
    root = table[spans.ROOT]
    traced_time = statistics.median(r.time for r in traced)
    untraced_time = statistics.median(r.time for r in untraced)

    metrics = {
        "ingest.build_laplacian_ms": med_ms(["ingest.build_laplacian"]),
        "ingest.positive_components_ms": med_ms(["ingest.positive_components"]),
        "ingest.graph_ms": med_ms(["ingest.graph"]),
        "factor.init_label_state_self_ms": med_ms(["factor.init_label_state"], "selfs"),
        "factor.init_label_state_calls": (inits / trials, "count", inits),
        "session.start_ms": med_ms(["session.start_binary", "session.start_multiclass"]),
        "select.next_query_self_ms": med_ms(["select.next_query", "select.next_query_multiclass"], "selfs"),
        "select.tables_per_select": (tables / selects, "count", selects),
        "select.table_computed_mb": computed_mb(TABLES, lambda m: 8.0 * m * m),
        "commit.downdate_inverse_ms": med_ms(["commit.downdate_inverse"]),
        "commit.downdate_inverse_computed_mb": computed_mb(
            ["commit.downdate_inverse"], lambda m: 8.0 * (m * m + (m - 1) * (m - 1))
        ),
        "commit.update_self_ms": med_ms(["commit.update", "commit.update_multiclass"], "selfs"),
        "harness.predict_ms": med_ms(["harness.predict_binary", "harness.predict_multiclass"]),
    }
    for layer in LAYERS:
        metrics[f"{layer}.busy_ms"] = (busy[layer] * 1e3 / rounds, "ms", rounds)
    metrics["trace.overhead_pct"] = ((traced_time / untraced_time - 1.0) * 100.0, "%", len(untraced) + rounds)
    metrics["trace.unattributed_pct"] = (
        sum(root["selfs"]) / sum(root["durations"]) * 100.0, "%", rounds,
    )
    return metrics


def span_table(rec: spans.Recorder, rounds: int) -> dict:
    """Every span name: calls per round, median ms, median self ms, self ms per round."""
    out = {}
    for name, entry in sorted(spans.by_name(rec.spans).items()):
        out[name] = {
            "calls_per_round": len(entry["durations"]) / rounds,
            "median_ms": statistics.median(entry["durations"]) * 1e3,
            "self_median_ms": statistics.median(entry["selfs"]) * 1e3,
            "self_ms_per_round": sum(entry["selfs"]) * 1e3 / rounds,
        }
    return out
