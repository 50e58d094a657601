"""In-memory span recording around graphal's public functions.

A :class:`Recorder` replaces a function at every module attribute that
holds it (the attribute its callers look up at call time) with a wrapper
that records one span per call: name, parent span, start, end and the
round it belongs to.  :meth:`Recorder.restore` puts the originals back.
Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its direct
children.  Calls are synchronous and single-threaded, so children never
overlap each other and lie inside their parent.
"""
from __future__ import annotations

import functools
import gzip
import json
from time import perf_counter

NAME, PARENT, START, END, ROUND, SIZE = range(6)
ROOT = "bench.round"


class Patcher:
    """Swaps module (or class) attributes and swaps them back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owners, original, make_wrapper) -> None:
        """Replace ``original`` wherever it appears as an attribute of ``owners``."""
        wrapper = make_wrapper(original)
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._saved.append((owner, attr, value))
                    setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


class Recorder:
    """Collects spans as ``[name, parent, start, end, round, size]`` lists.

    ``size`` is the unlabeled-set size for kernels whose cost is a known
    function of it, else ``None``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.round = -1
        self._stack: list[int] = []
        self._patcher = Patcher()

    def wrap(self, name: str, fn, sized: bool = False):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            size = len(args[0].unlabeled) if sized else None
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, self.round, size]
            spans.append(span)
            stack.append(idx)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()

        return wrapper

    def install(self, owners, targets) -> None:
        """``targets`` maps span name to ``(owner, attribute, sized)``."""
        for name, (owner, attr, sized) in targets.items():
            original = getattr(owner, attr)
            self._patcher.replace(
                [owner, *owners], original, lambda fn, n=name, s=sized: self.wrap(n, fn, s)
            )

    def restore(self) -> None:
        self._patcher.restore()

    def root(self, round_index: int):
        """Context manager for the span that covers one whole round."""
        self.round = round_index
        return _RootSpan(self)

    def dump(self, path) -> None:
        """Write the spans gzipped, one JSON list per line, times in microseconds from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s[NAME], s[PARENT], round((s[START] - t0) * 1e6, 1),
                                     round((s[END] - t0) * 1e6, 1), s[ROUND], s[SIZE]]) + "\n")


class _RootSpan:
    def __init__(self, rec: Recorder):
        self._rec = rec
        self._span = [ROOT, -1, 0.0, 0.0, rec.round, None]

    def __enter__(self):
        rec = self._rec
        rec._stack.append(len(rec.spans))
        rec.spans.append(self._span)
        self._span[START] = perf_counter()
        return self

    def __exit__(self, *exc):
        self._span[END] = perf_counter()
        self._rec._stack.pop()
        return False


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def by_name(spans) -> dict[str, dict[str, list]]:
    """Per span name: the lists of durations, self times and sizes."""
    out: dict[str, dict[str, list]] = {}
    for s, own in zip(spans, self_times(spans)):
        entry = out.setdefault(s[NAME], {"durations": [], "selfs": [], "sizes": []})
        entry["durations"].append(s[END] - s[START])
        entry["selfs"].append(own)
        entry["sizes"].append(s[SIZE])
    return out
