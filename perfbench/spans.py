"""Span recorder for the traced benchmark run.

The recorder wraps each layer's public functions at the module attribute
its caller looks up. varden's modules import each other by name
(`from .dbscan import run_dbscan`), so `varden.cli.run_dbscan` and
`varden.adbscan.run_dbscan` are separate bindings and each is wrapped.
Spans stay in memory until the run ends. A span's self time is its
duration minus the part of that interval its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "parent", "t0", "t1", "counts")

    def __init__(self, name: str, parent: int, t0: float) -> None:
        self.name = name
        self.parent = parent  # index of the enclosing span, -1 at the root
        self.t0 = t0
        self.t1 = t0
        self.counts: dict[str, float] = {}


class Recorder:
    """Spans of one single-threaded run, in the order they opened."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._clock = clock

    def begin(self, name: str) -> Span:
        span = Span(name, self._open[-1] if self._open else -1, self._clock())
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.t1 = self._clock()
        self._open.pop()


def _hits(args, hood):
    return {"hits": hood.size}


def _labeling(args, lab):
    return {"points": len(args[0]), "core": int((lab.classes == 2).sum()), "clusters": lab.n_clusters}


def _adaptive(args, result):
    return {"iterations": len(result.trace), "accepted": sum(r.accepted for r in result.trace)}


def _points(args, labeled):
    return {"points": len(labeled)}


def _bytes_read(args, _):
    return {"bytes_read": os.stat(args[0]).st_size}


def _bytes_written(args, _):
    return {"bytes_written": os.stat(args[-1]).st_size}


# (module, attribute its callers look up, span name, counts taken from args and result)
TARGETS = (
    ("varden.cli", "cli_main", "cli.cli_main", None),
    ("varden.cli", "tune_eps_densest", "cli.tune_eps_densest", None),
    ("varden.cli", "gen_scenario", "synthgen.gen_scenario", _points),
    ("varden.cli", "read_csv", "dataio.read_csv", _bytes_read),
    ("varden.cli", "write_csv", "dataio.write_csv", _bytes_written),
    ("varden.cli", "write_dataset_csv", "dataio.write_dataset_csv", _bytes_written),
    ("varden.cli", "dataset_hash", "dataio.dataset_hash", None),
    ("varden.cli", "write_manifest", "dataio.write_manifest", _bytes_written),
    ("varden.cli", "render_svg", "render.render_svg", _bytes_written),
    ("varden.cli", "evaluate", "metrics.evaluate", None),
    ("varden.cli", "run_adbscan", "adbscan.run_adbscan", _adaptive),
    ("varden.cli", "run_dbscan", "dbscan.run_dbscan", _labeling),
    ("varden.adbscan", "run_dbscan", "dbscan.run_dbscan", _labeling),
    ("varden.cli", "build_index", "neighborhood.build_index", None),
    ("varden.dbscan", "build_index", "neighborhood.build_index", None),
    ("varden.cli", "dataset_diameter", "neighborhood.dataset_diameter", None),
    ("varden.dbscan", "region_query", "neighborhood.region_query", _hits),
)


def traced(rec: Recorder, fn, name: str, counts=None):
    """fn wrapped in a span; counts(args, result) are taken after the span closes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(span)
        if counts is not None:
            span.counts = counts(args, result)
        return result

    return wrapper


@contextmanager
def installed(rec: Recorder, targets=TARGETS):
    """Wrap every target that exists for the duration of the block, then restore it.

    A target missing from the program (renamed or removed by a later change)
    is skipped, and its metrics read 0.
    """
    saved = []
    try:
        for module_name, attr, name, counts in targets:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, traced(rec, fn, name, counts))
        yield rec
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its children cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.t0, s.t1))
    return [(s.t1 - s.t0) - covered(kids, s.t0, s.t1) for s, kids in zip(spans, children)]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics of one traced invocation; absent layers read 0."""
    selfs = self_times(spans)
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    probes = 0
    adaptive_scanned = 0
    for s, own_s in zip(spans, selfs):
        total[s.name] += s.t1 - s.t0
        own[s.name] += own_s
        calls[s.name] += 1
        for key, value in s.counts.items():
            counts[f"{s.name}.{key}"] += value
        if s.name == "dbscan.run_dbscan" and s.parent >= 0:
            parent = spans[s.parent].name
            if parent == "cli.tune_eps_densest":
                probes += 1
            elif parent == "adbscan.run_adbscan":
                adaptive_scanned += s.counts.get("points", 0)

    rq_calls = calls["neighborhood.region_query"]
    rq_hits = counts["neighborhood.region_query.hits"]
    iterations = counts["adbscan.run_adbscan.iterations"]
    return {
        "neighborhood.region_query.s": total["neighborhood.region_query"],
        "neighborhood.region_query.calls": rq_calls,
        "neighborhood.region_query.hits": rq_hits,
        "neighborhood.region_query.us_per_call": 1e6 * total["neighborhood.region_query"] / rq_calls if rq_calls else 0.0,
        "neighborhood.build_index.s": total["neighborhood.build_index"],
        "neighborhood.build_index.calls": calls["neighborhood.build_index"],
        "neighborhood.dataset_diameter.s": total["neighborhood.dataset_diameter"],
        "dbscan.run_dbscan.s": total["dbscan.run_dbscan"],
        "dbscan.run_dbscan.calls": calls["dbscan.run_dbscan"],
        "dbscan.run_dbscan.self_s": own["dbscan.run_dbscan"],
        "dbscan.core_points": counts["dbscan.run_dbscan.core"],
        "dbscan.clusters": counts["dbscan.run_dbscan.clusters"],
        "dbscan.hits_per_point": rq_hits / rq_calls if rq_calls else 0.0,
        "cli.tune_eps_densest.s": total["cli.tune_eps_densest"],
        "cli.tune_eps_densest.self_s": own["cli.tune_eps_densest"],
        "cli.tune_eps_densest.probes": probes,
        "cli.self_s": own["cli.cli_main"],
        "adbscan.run_adbscan.s": total["adbscan.run_adbscan"],
        "adbscan.run_adbscan.self_s": own["adbscan.run_adbscan"],
        "adbscan.iterations": iterations,
        "adbscan.points_scanned": adaptive_scanned,
        "adbscan.accept_ratio": counts["adbscan.run_adbscan.accepted"] / iterations if iterations else 0.0,
        "dataio.read_csv.s": total["dataio.read_csv"],
        "dataio.write_csv.s": total["dataio.write_csv"],
        "dataio.write_dataset_csv.s": total["dataio.write_dataset_csv"],
        "dataio.dataset_hash.s": total["dataio.dataset_hash"],
        "dataio.write_manifest.s": total["dataio.write_manifest"],
        "dataio.bytes_read": counts["dataio.read_csv.bytes_read"],
        "dataio.bytes_written": sum(
            counts[f"dataio.{f}.bytes_written"] for f in ("write_csv", "write_dataset_csv", "write_manifest")
        ),
        "render.render_svg.s": total["render.render_svg"],
        "render.bytes": counts["render.render_svg.bytes_written"],
        "synthgen.gen_scenario.s": total["synthgen.gen_scenario"],
        "synthgen.points": counts["synthgen.gen_scenario.points"],
        "metrics.evaluate.s": total["metrics.evaluate"],
    }
