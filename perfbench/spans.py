"""Spans at the module boundaries of ``tattooing``, installed from outside.

Nothing under ``src/`` is edited.  Every public function of a traced
module is replaced by a wrapper in each namespace that binds it: the
package imports names with ``from ... import``, so a call such as
``collect_acyclic_orientation_bits`` inside ``tattooing.search`` looks the
name up in ``tattooing.search``, not in ``tattooing.graphs``.

The isomorphism reduction in ``search`` calls networkx directly, so its
two parts get spans of their own: ``search.iso_wl`` (the
Weisfeiler-Lehman hash) and ``search.iso_vf2`` (constructing a VF2
matcher and running it).

Spans stay in memory as ``(name, start, end, parent)`` and are written
out once, when the traced run ends.  :func:`layer_metrics` derives each
layer's self time from them: a span's duration minus the part its direct
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "search", "graphs", "engine", "oracle")

# A constant-time table lookup that the search calls once per vertex in
# its innermost loops: a wrapper there would time the wrapper.
SKIPPED = frozenset({"engine.required_primaries"})

ISO_SPANS = ("search.iso_wl", "search.iso_vf2")

# Deterministic counts read off a traced function's result.
_RESULT_COUNTS = {
    "graphs.collect_acyclic_orientation_bits": ("graphs.orientations", len),
    "oracle.connected_graph_corpus": ("oracle.corpus_graphs", len),
    "oracle.oracle_invariants": (
        "oracle.orientations",
        lambda result: result.orientations,
    ),
}


class Tracer:
    """In-memory span log with one stack of open spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int] | None] = []
        self.counts: Counter = Counter()
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """``fn`` with a span around every call."""
        nid = self._name_id(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        count_key, count_of = _RESULT_COUNTS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent)
            if count_key is not None:
                self.counts[count_key] += count_of(result)
            return result

        return traced

    def leaf(self, name: str, start: float, end: float) -> None:
        """Record a finished span that opened no spans of its own."""
        self.spans.append((self._name_id(name), start, end, self._stack[-1]))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "names": self.names,
                    "counts": dict(self.counts),
                    "spans": self.spans,
                },
                handle,
            )


class _Networkx:
    """Stands in for the ``networkx`` module inside ``tattooing.search``."""

    def __init__(self, module, wl_hash) -> None:
        self._module = module
        self.weisfeiler_lehman_graph_hash = wl_hash

    def __getattr__(self, name):
        return getattr(self._module, name)


def _traced_matcher(tracer: Tracer, base):
    clock = time.perf_counter

    class TracedMatcher(base):
        def __init__(self, *args, **kwargs):
            self._span_start = clock()
            super().__init__(*args, **kwargs)

        def is_isomorphic(self):
            found = super().is_isomorphic()
            tracer.leaf("search.iso_vf2", self._span_start, clock())
            if not found:
                tracer.counts["search.iso_vf2_misses"] += 1
            return found

    return TracedMatcher


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer, and the isomorphism test."""
    replacement = {}
    for layer in LAYERS:
        module = importlib.import_module(f"tattooing.{layer}")
        for attr, fn in vars(module).items():
            name = f"{layer}.{attr}"
            if (
                attr.startswith("_")
                or not inspect.isfunction(fn)
                or fn.__module__ != module.__name__
                or inspect.isgeneratorfunction(fn)
                or name in SKIPPED
            ):
                continue
            replacement[fn] = tracer.wrap(name, fn)
    for modname, module in list(sys.modules.items()):
        if modname != "tattooing" and not modname.startswith("tattooing."):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in replacement:
                setattr(module, attr, replacement[value])

    search = sys.modules["tattooing.search"]
    nx = getattr(search, "nx", None)
    if nx is not None and hasattr(nx, "weisfeiler_lehman_graph_hash"):
        wl = tracer.wrap("search.iso_wl", nx.weisfeiler_lehman_graph_hash)
        search.nx = _Networkx(nx, wl)
    matcher = getattr(search, "DiGraphMatcher", None)
    if matcher is not None:
        search.DiGraphMatcher = _traced_matcher(tracer, matcher)


def span_totals(doc: dict) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, total time and self time."""
    spans = doc["spans"]
    covered = [0.0] * len(spans)
    for nid, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for pos, (nid, start, end, _parent) in enumerate(spans):
        entry = out[doc["names"][nid]]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - covered[pos]
    return dict(out)


def _layer_of(name: str) -> str:
    return "search.iso" if name in ISO_SPANS else name.split(".", 1)[0]


def layer_metrics(doc: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced child that ran for ``wall_s``."""
    totals = span_totals(doc)
    counts = doc["counts"]

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def total(name):
        return totals.get(name, {}).get("total_s", 0.0)

    self_by_layer: dict[str, float] = defaultdict(float)
    for name, entry in totals.items():
        self_by_layer[_layer_of(name)] += entry["self_s"]
    vf2_calls = calls("search.iso_vf2")
    vf2_misses = counts.get("search.iso_vf2_misses", 0)
    out = {
        "cli.self_s": self_by_layer["cli"],
        "graphs.self_s": self_by_layer["graphs"],
        "graphs.enumerate_s": total("graphs.collect_acyclic_orientation_bits"),
        "graphs.orientations": counts.get("graphs.orientations", 0),
        "search.self_s": self_by_layer["search"],
        "search.best_index_calls": calls("search.best_index"),
        "search.iso_wl_s": total("search.iso_wl"),
        "search.iso_wl_calls": calls("search.iso_wl"),
        "search.iso_vf2_s": total("search.iso_vf2"),
        "search.iso_vf2_calls": vf2_calls,
        "search.iso_vf2_miss_ratio": vf2_misses / vf2_calls if vf2_calls else 0.0,
        "search.iso_classes": calls("search.iso_wl") - (vf2_calls - vf2_misses),
        "engine.self_s": self_by_layer["engine"],
        "engine.fire_s": total("engine.fire"),
        "engine.fire_calls": calls("engine.fire"),
        "engine.ready_vertices_s": total("engine.ready_vertices"),
        "engine.ready_vertices_calls": calls("engine.ready_vertices"),
        "engine.mutate_pool_s": total("engine.mutate_pool"),
        "engine.mutate_pool_calls": calls("engine.mutate_pool"),
        "engine.replay_s": total("engine.replay"),
        "engine.replay_calls": calls("engine.replay"),
        "oracle.self_s": self_by_layer["oracle"],
        "oracle.corpus_s": total("oracle.connected_graph_corpus"),
        "oracle.corpus_graphs": counts.get("oracle.corpus_graphs", 0),
        "oracle.invariants_s": total("oracle.oracle_invariants"),
        "oracle.invariants_calls": calls("oracle.oracle_invariants"),
        "oracle.orientations": counts.get("oracle.orientations", 0),
        "outside_spans_s": wall_s - sum(self_by_layer.values()),
    }
    return out


def self_shares(metrics: dict[str, float], wall_s: float) -> dict[str, float]:
    """Self time of each layer as a share of the traced child's wall time."""
    return {
        "cli": metrics["cli.self_s"] / wall_s,
        "graphs": metrics["graphs.self_s"] / wall_s,
        "search": metrics["search.self_s"] / wall_s,
        "search.iso": (metrics["search.iso_wl_s"] + metrics["search.iso_vf2_s"])
        / wall_s,
        "engine": metrics["engine.self_s"] / wall_s,
        "oracle": metrics["oracle.self_s"] / wall_s,
    }
