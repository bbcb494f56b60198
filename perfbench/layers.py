"""Layer spans for the traced benchmark pass, installed from outside ``src/``.

:func:`install` replaces each public function that
``hfast.pipeline.analyze_app`` calls into a layer (and the nested calls
inside ``hfast.interconnect`` and ``hfast.cache``) with a wrapper that
records one span per call. Spans carry the layer name, start, end, the
enclosing span and the layer's peak resident-memory growth. A layer's
self time is its span minus its child spans, so the self times of all
layers plus the root remainder partition the traced wall exactly.

Peak memory comes from the kernel's resident high-water mark, which is
reset at every span entry (``/proc/self/clear_refs``) and read at exit.
That costs two small syscalls per span instead of tracing every
allocation, so the self times are not distorted by the memory probe.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from dataclasses import dataclass, field

import numpy as np

MB = 1 << 20

# (layer, "module:attribute path") of every call site the traced pass
# times. ``interconnect.static`` is reached both directly from
# analyze_app and nested inside the temporal evaluator's greedy baseline.
TARGETS = (
    ("pipeline.summary", "hfast.pipeline:analyze_app"),
    ("cache.load", "hfast.cache:ReproCache.load"),
    ("apps.synthesize", "hfast.pipeline:synthesize"),
    ("timing.apply", "hfast.apps:apply_timing"),
    ("timing.apply", "hfast.cache:apply_timing"),
    ("cache.store", "hfast.cache:ReproCache.store"),
    ("records.ensure_batch", "hfast.records:Trace.ensure_batch"),
    ("matrix.reduce", "hfast.pipeline:reduce_matrix"),
    ("topology.analyze", "hfast.pipeline:analyze_topology"),
    ("interconnect.static", "hfast.pipeline:evaluate_hybrid"),
    ("interconnect.static", "hfast.interconnect:evaluate_hybrid"),
    ("interconnect.temporal", "hfast.pipeline:evaluate_temporal"),
    ("matcher.match", "hfast.interconnect:match_edges"),
)
# Not wrapped: the greedy baseline matcher.gain_over_greedy_pct compares to.
GAIN_TARGETS = (
    ("matcher.gain_over_greedy_pct", "hfast.matcher:sort_edges"),
    ("matcher.gain_over_greedy_pct", "hfast.matcher:greedy_seed_vector"),
)
LAYERS = tuple(dict.fromkeys(layer for layer, _ in TARGETS))
ROOT = "pipeline.other"

# Layer groups whose peak memory is reported as ``<group>.peak_mb``.
PEAK_GROUPS = {
    "apps": ("apps.synthesize",),
    "cache.load": ("cache.load",),
    "cache.store": ("cache.store",),
    "matrix": ("matrix.reduce",),
    "topology": ("topology.analyze",),
    "interconnect": ("interconnect.static", "interconnect.temporal"),
    "matcher": ("matcher.match",),
}


def _memory_kb() -> tuple[int, int]:
    """(current RSS, resident high-water mark) of this process, in KiB."""
    rss = hwm = 0
    with open("/proc/self/status", "rb") as fh:
        for line in fh:
            if line.startswith(b"VmRSS:"):
                rss = int(line.split()[1])
            elif line.startswith(b"VmHWM:"):
                hwm = int(line.split()[1])
    return rss, hwm


@dataclass
class Span:
    layer: str
    parent: "Span | None"
    rss0_kb: int
    start: float = 0.0
    end: float = 0.0
    peak_kb: int = 0
    edges: int = 0  # temporal spans: matchable edges seen by nested matcher calls


@dataclass
class Recorder:
    """In-memory span and counter store for one traced process."""

    spans: list[Span] = field(default_factory=list)
    stack: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    matches: list[tuple] = field(default_factory=list)
    hwm_fd: int | None = None

    def _reset_hwm(self) -> None:
        if self.hwm_fd is not None:
            os.write(self.hwm_fd, b"5")

    def enter(self, layer: str) -> Span:
        rss, hwm = _memory_kb()
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent.peak_kb = max(parent.peak_kb, hwm)
        self._reset_hwm()
        span = Span(layer, parent, rss, peak_kb=rss)
        self.stack.append(span)
        span.start = time.perf_counter()
        return span

    def exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        _, hwm = _memory_kb()
        span.peak_kb = max(span.peak_kb, hwm)
        self.stack.pop()
        if span.parent is not None:
            span.parent.peak_kb = max(span.parent.peak_kb, span.peak_kb)
        self.spans.append(span)

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


def _observe(rec: Recorder, layer: str, args: tuple, kwargs: dict, result, span: Span) -> None:
    """Work counters at the layer boundary, from arguments and results only."""
    if layer == "pipeline.summary":
        rec.count("matrix.links", result["nonzero_links"])
    elif layer == "apps.synthesize":
        batch = result.batch
        rec.count("apps.records", len(batch) if batch is not None else len(result.records))
    elif layer == "cache.load":
        if result is not None:
            cache, app, nranks = args[:3]
            overrides = args[3] if len(args) > 3 else kwargs.get("overrides")
            rec.count("cache.bytes_read", os.path.getsize(cache.path_for(app, nranks, overrides)))
    elif layer == "cache.store":
        if not args[0].readonly:
            rec.count("cache.bytes_written", os.path.getsize(result))
    elif layer == "matrix.reduce":
        nranks = args[1] if len(args) > 1 else kwargs["nranks"]
        dense_mb = 3 * nranks * nranks * 8 / MB
        rec.counts["matrix.dense_mb"] = max(rec.counts.get("matrix.dense_mb", 0.0), dense_mb)
    elif layer == "interconnect.temporal":
        rec.count("interconnect.steps", result.timesteps)
        rec.count("interconnect.edges", span.edges)
    elif layer == "matcher.match":
        src, dst, w, nranks, bound = args[:5]
        rec.count("matcher.edges_in", len(w))
        rec.count("matcher.circuits_out", len(result))
        if span.parent is not None and span.parent.layer == "interconnect.temporal":
            span.parent.edges = max(span.parent.edges, len(w))
        rec.matches.append((src, dst, w, nranks, bound, result))


def _wrap(rec: Recorder, layer: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit(span)
        _observe(rec, layer, args, kwargs, result, span)
        return result

    return wrapper


def _resolve(layer: str, target: str) -> tuple[object, str, object]:
    """(owner, attribute, function) for a target; raises naming the layer."""
    module, _, path = target.partition(":")
    *owners, attr = path.split(".")
    try:
        owner = importlib.import_module(module)
        for name in owners:
            owner = getattr(owner, name)
        fn = getattr(owner, attr)
    except (ImportError, AttributeError) as exc:
        raise RuntimeError(f"layer {layer}: cannot trace {target}: {exc}") from exc
    if not callable(fn):
        raise RuntimeError(f"layer {layer}: {target} is not callable")
    return owner, attr, fn


def install() -> Recorder:
    """Wrap every target; fails before wrapping anything if one is missing."""
    resolved = [(layer, *_resolve(layer, target)) for layer, target in TARGETS]
    for layer, target in GAIN_TARGETS:
        _resolve(layer, target)
    rec = Recorder()
    try:
        rec.hwm_fd = os.open("/proc/self/clear_refs", os.O_WRONLY)
    except OSError:
        rec.hwm_fd = None  # without the reset a peak may include memory from before the span
    for layer, owner, attr, fn in resolved:
        setattr(owner, attr, _wrap(rec, layer, fn))
    return rec


def matched_gain_pct(rec: Recorder) -> float:
    """Matched weight of ``match_edges`` over the greedy seed, in percent.

    Computed after the traced pass, outside every span: both sides are
    summed over all recorded matcher calls on the same edge weights.
    """
    from hfast.matcher import greedy_seed_vector, sort_edges

    matched = greedy = 0.0
    for src, dst, w, nranks, bound, circuits in rec.matches:
        s, d, ws = sort_edges(src, dst, w, nranks)
        greedy += float(ws[greedy_seed_vector(s, d, ws, nranks, bound)].sum())
        if circuits:
            key = s * np.int64(nranks) + d
            order = np.argsort(key)
            want = np.array([a * nranks + b for a, b in circuits], dtype=np.int64)
            matched += float(ws[order[np.searchsorted(key[order], want)]].sum())
    return 100.0 * (matched - greedy) / greedy if greedy > 0 else 0.0


def summarize(rec: Recorder) -> dict[str, float]:
    """Per-layer self times, counters and peaks, every layer present.

    A layer that was never called reports zeros; it is never dropped.
    """
    child_time: dict[int, float] = {}
    for sp in rec.spans:
        if sp.parent is not None:
            child_time[id(sp.parent)] = child_time.get(id(sp.parent), 0.0) + sp.end - sp.start
    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in (*LAYERS, ROOT)}
    calls = {layer: 0 for layer in LAYERS}
    peaks = {layer: 0 for layer in LAYERS}
    for sp in rec.spans:
        out[f"{sp.layer}.self_s"] += sp.end - sp.start - child_time.get(id(sp), 0.0)
        if sp.layer in calls:
            calls[sp.layer] += 1
            peaks[sp.layer] = max(peaks[sp.layer], sp.peak_kb - sp.rss0_kb)
    out["matcher.calls"] = calls["matcher.match"]
    out["cache.store.calls"] = calls["cache.store"]
    out["cache.load.calls"] = calls["cache.load"]
    for name in (
        "matrix.links", "matrix.dense_mb", "interconnect.edges", "interconnect.steps",
        "matcher.edges_in", "matcher.circuits_out", "apps.records",
        "cache.bytes_written", "cache.bytes_read",
    ):
        out[name] = rec.counts.get(name, 0)
    for group, layers in PEAK_GROUPS.items():
        out[f"{group}.peak_mb"] = max(peaks[layer] for layer in layers) * 1024 / MB
    out["matcher.gain_over_greedy_pct"] = matched_gain_pct(rec)
    return out
