"""Spans and counters recorded around the calls into each ``ifecf`` module.

The tracer replaces module attributes that callers look up at call time
(``cli.load_csv``, ``bench.lvq_train``, ...) with wrappers, and puts every
original back in ``remove``. Span wrappers record name, start, end and parent;
counter wrappers only count, so the time of hot inner functions stays in the
self time of the span that called them. Spans are kept in memory and written
out by the caller when the workload ends.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

MARK = "__perfbench_wrapped__"

# (module, attribute, span name): cross-module calls that delimit a layer.
SPANS = [
    ("cli", "main", "cli.main"),
    ("cli", "load_csv", "data.load_csv"),
    ("cli", "run_sweep", "bench.run_sweep"),
    ("cli", "feature_stats", "measures.feature_stats"),
    ("cli", "ife_cf", "select.ife_cf"),
    ("cli", "cfs_search", "select.cfs_search"),
    ("cli", "relief", "select.relief"),
    ("cli", "sweep_charts", "plots.sweep_charts"),
    ("bench", "split", "data.split"),
    ("bench", "fit_normalizer", "data.normalize"),
    ("bench", "apply_normalizer", "data.normalize"),
    ("bench", "ife_cf", "select.ife_cf"),
    ("bench", "apply_selection", "select.apply_selection"),
    ("bench", "init_codebook", "lvq.init_codebook"),
    ("bench", "lvq_train", "lvq.train"),
    ("bench", "evaluate", "lvq.evaluate"),
]

# (module, attribute, counter name): counted, no span.
COUNTERS = [
    ("select", "cfs_merit", "select.cfs_merit"),
    ("select", "c_correlation", "measures.c_correlation"),
    ("measures", "c_correlation", "measures.c_correlation"),
    ("select", "correlation", "measures.correlation"),
    ("measures", "correlation", "measures.correlation"),
    ("lvq", "classify_batch", "lvq.classify_batch"),
]


def _module(short: str):
    return importlib.import_module(f"ifecf.{short}")


def targets():
    return [(m, a) for m, a, _ in SPANS + COUNTERS]


def wrapped_targets() -> list[str]:
    """Targets that currently hold a wrapper; empty when none is installed."""
    return [f"{m}.{a}" for m, a in targets() if hasattr(getattr(_module(m), a), MARK)]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording

    def _observe(self, name: str, args, result) -> None:
        """Work counts derived from a call's arguments and result."""
        c = self.counts
        if name == "data.load_csv":
            c["data.load_csv.cells"] += result.n_instances * (result.n_features + 1)
        elif name == "select.cfs_search":
            c["select.cfs_search.subsets"] += len(result.merit_trace)
        elif name == "select.relief":
            train, cfg = args[0], args[1]
            m, n = train.features.shape
            c["select.relief.distance_cells"] += min(cfg.relief_samples, m) * m * n
        elif name == "lvq.train":
            cfg = args[2] if len(args) > 2 and args[2] is not None else args[0].config
            c["lvq.train.row_visits"] += args[1].n_instances * cfg.epochs
        elif name == "lvq.evaluate":
            c["lvq.evaluate.rows"] += args[1].n_instances
        elif name == "bench.run_sweep":
            c["bench.cells"] += len(result.records)
        elif name == "lvq.classify_batch":
            model, feats = args
            temp = feats.shape[0] * model.codebook.shape[0] * feats.shape[1] * 8 / 2**20
            c["lvq.classify_batch.temp_mb"] = max(c["lvq.classify_batch.temp_mb"], temp)

    def _span(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            self._observe(name, args, result)
            return result

        setattr(wrapper, MARK, fn)
        return wrapper

    def _counter(self, fn, name):
        counts = self.counts
        calls = f"{name}.calls"
        observe = name == "lvq.classify_batch"

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            if observe:
                self._observe(name, args, None)
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, fn)
        return wrapper

    # -- install / remove

    def install(self) -> None:
        for specs, make in ((SPANS, self._span), (COUNTERS, self._counter)):
            for m, a, name in specs:
                mod = _module(m)
                original = getattr(mod, a)
                self._saved.append((mod, a, original))
                setattr(mod, a, make(original, name))

    def remove(self) -> None:
        while self._saved:
            mod, a, original = self._saved.pop()
            setattr(mod, a, original)

    # -- aggregation

    def self_times(self) -> dict[str, list[float]]:
        """Per span name: [calls, total self seconds, minimum single self time]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list[float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            own = (end - start) - child[i]
            row = out.setdefault(name, [0, 0.0, own])
            row[0] += 1
            row[1] += own
            row[2] = min(row[2], own)
        return out
