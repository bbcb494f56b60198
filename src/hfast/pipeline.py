"""Pipeline orchestration: trace -> link table -> topology -> interconnect.

The (app, nranks) analysis matrix is partitioned into *cells*.
:func:`hfast.sched.cell_runner` decides how they run: a one-worker run
with no journal inputs runs them in the calling process, in cell order;
every other run goes through the fault-tolerant work-stealing scheduler
(:mod:`hfast.sched`): a cost-ordered shared queue, per-cell retries
with backoff, heartbeat-based detection of crashed/hung workers with
re-dispatch, and a run journal enabling ``resume=<run-id>``.

Either way the merged output is deterministic — cell results, trace
events, metrics, and cache statistics are stitched back together in
cell-definition order, never completion order, so a ``--workers 4`` run
is byte-identical to a serial one (modulo wall-clock timing fields and
scheduler bookkeeping). ``--shard i/m`` selects a deterministic subset of
cells so independent hosts can split a sweep and later union their
caches.

A failing cell does not abort the sweep: its error is recorded in the run
manifest (``cells`` / ``failed_cells``) and the remaining cells still
run. Under the stealing scheduler a cell that succeeds on a retry is *not*
a failure — the manifest records its ``attempts`` count instead.

Every stage runs under an observability span; per-record message sizes
feed the IPM-style log2 histograms; each cell emits one ``app_summary``
event carrying the full analysis result, which is what the run report is
rendered from. A run manifest is emitted before any work and re-emitted
with per-cell timings and cache statistics once the run completes.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from hfast.apps import available_apps, synthesize
from hfast.cache import DEFAULT_CACHE_DIR, CacheStats, ReproCache
from hfast.interconnect import InterconnectConfig, evaluate_hybrid, evaluate_temporal
from hfast.matrix import reduce_matrix
from hfast.obs.manifest import build_manifest
from hfast.obs.metrics import log2_bucket
from hfast.obs.profile import Observability, get_obs, using
from hfast.records import SEND_CALLS, Trace
from hfast.sched.cost import CostModel
from hfast.sched.faults import inject_slow
from hfast.sched.journal import build_fingerprint
from hfast.sched.scheduler import cell_runner
from hfast.timing import DEFAULT_TIMING_SEED, TimingModel
from hfast.topology import analyze_topology

DEFAULT_SCALES = (16, 64)


@dataclass(frozen=True)
class Cell:
    """One (app, nranks) unit of work, with its position in the sweep."""

    app: str
    nranks: int
    index: int

    @property
    def key(self) -> str:
        return f"{self.app}_p{self.nranks}"


def build_cells(apps: list[str], scales: dict[str, list[int]]) -> list[Cell]:
    """Flatten the app x scale matrix into an ordered cell list."""
    cells: list[Cell] = []
    for app in apps:
        for nranks in scales.get(app, list(DEFAULT_SCALES)):
            cells.append(Cell(app=app, nranks=nranks, index=len(cells)))
    return cells


def shard_cells(cells: list[Cell], shard_index: int, shard_count: int) -> list[Cell]:
    """Deterministic round-robin shard: cells whose index % count == index."""
    if not 0 <= shard_index < shard_count:
        raise ValueError(f"shard index {shard_index} out of range for {shard_count} shards")
    return [c for c in cells if c.index % shard_count == shard_index]


def discover_scales(cache: ReproCache, apps: list[str]) -> dict[str, list[int]]:
    """Per-app scales present in the cache, with a default fallback."""
    scales: dict[str, list[int]] = {app: [] for app in apps}
    for path in cache.list_entries():
        parts = path.stem.split("_")
        if len(parts) < 3 or not parts[-2].startswith("p"):
            continue
        app = "_".join(parts[:-2])
        try:
            nranks = int(parts[-2][1:])
        except ValueError:
            continue
        if app in scales and nranks not in scales[app]:
            scales[app].append(nranks)
    for app in apps:
        scales[app] = sorted(scales[app]) or list(DEFAULT_SCALES)
    return scales


def _observe_sizes(
    trace: Trace, app: str, obs: Observability
) -> dict[int, int]:
    """Message-size bucket table; feeds the obs histograms when enabled.

    Works on unique sizes with aggregated weights, so a million-record
    trace costs a handful of ``observe`` calls instead of one per record.
    """
    local_buckets: dict[int, int] = {}
    size_hist = obs.metrics.histogram("msg_size_bytes") if obs.enabled else None
    app_hist = obs.metrics.histogram(f"msg_size_bytes.{app}") if obs.enabled else None
    b = trace.batch
    mask = b.call_mask(SEND_CALLS) & (b.size > 0)
    if mask.any():
        sizes = b.size[mask]
        uniq, inv = np.unique(sizes, return_inverse=True)
        weights = np.bincount(inv, weights=b.count[mask].astype(np.float64))
        for s, w in zip(uniq.tolist(), weights.tolist()):
            w = int(w)
            edge = log2_bucket(s)
            local_buckets[edge] = local_buckets.get(edge, 0) + w
            if size_hist is not None:
                size_hist.observe(s, weight=w)
                app_hist.observe(s, weight=w)
    return local_buckets


def _observe_latencies(
    trace: Trace, app: str, obs: Observability
) -> dict[int, int]:
    """Per-call mean-latency bucket table (microseconds), log2-bucketed.

    The mean latency of an aggregated record is ``total_time / count``;
    each record contributes its ``count`` calls at that latency. Like
    :func:`_observe_sizes`, duplicate latencies collapse before touching
    the histogram instruments. An untimed trace has no latencies.
    """
    local_buckets: dict[int, int] = {}
    lat_hist = obs.metrics.histogram("call_latency_usec") if obs.enabled else None
    app_hist = obs.metrics.histogram(f"call_latency_usec.{app}") if obs.enabled else None
    b = trace.batch
    if not b.has_times:
        return local_buckets
    mask = b.count > 0
    if mask.any():
        mean_usec = (b.total_time[mask] / b.count[mask]) * 1e6
        uniq, inv = np.unique(mean_usec, return_inverse=True)
        weights = np.bincount(inv, weights=b.count[mask].astype(np.float64))
        for v, w in zip(uniq.tolist(), weights.tolist()):
            w = int(w)
            edge = log2_bucket(v)
            local_buckets[edge] = local_buckets.get(edge, 0) + w
            if lat_hist is not None:
                lat_hist.observe(v, weight=w)
                app_hist.observe(v, weight=w)
    return local_buckets


def _timing_summary(
    trace: Trace,
    timing_seed: int,
    overrides: dict[str, Any] | None,
    latency_buckets: dict[int, int],
) -> dict[str, Any]:
    """%comm block of an app summary: comm vs compute at the model's seed."""
    b = trace.batch
    comm_time_s = float(np.sum(b.total_time)) if b.has_times else 0.0
    model = TimingModel(trace.app, trace.nranks, seed=timing_seed)
    compute_time_s = model.compute_time(overrides)
    comm_per_rank = comm_time_s / trace.nranks
    wall_time_s = comm_per_rank + compute_time_s
    pct_comm = 100.0 * comm_per_rank / wall_time_s if wall_time_s > 0 else 0.0
    return {
        "seed": timing_seed,
        "model": trace.timing.get("model") if trace.timing else None,
        "comm_time_s": comm_time_s,
        "compute_time_s": compute_time_s,
        "wall_time_s": wall_time_s,
        "pct_comm": round(pct_comm, 3),
        "latency_buckets": {str(k): v for k, v in sorted(latency_buckets.items())},
    }


def analyze_app(
    app: str,
    nranks: int,
    cache: ReproCache,
    obs: Observability,
    config: InterconnectConfig | None = None,
    overrides: dict[str, Any] | None = None,
    store: bool = True,
    timing_seed: int = DEFAULT_TIMING_SEED,
) -> dict[str, Any]:
    """Analyze one (app, nranks) cell and emit its app_summary event."""
    with using(obs), obs.tracer.span("analyze_app", app=app, nranks=nranks) as sp:
        trace: Trace | None = cache.load(app, nranks, overrides, timing_seed=timing_seed)
        if trace is None:
            trace = synthesize(app, nranks, overrides, timing_seed=timing_seed)
            if store:
                cache.store(trace)
        links = reduce_matrix(trace.ensure_batch(), trace.nranks)
        topo = analyze_topology(links)
        ev = evaluate_hybrid(links, config)
        ev_temporal = evaluate_temporal(links, config)

        local_buckets = _observe_sizes(trace, app, obs)
        latency_buckets = _observe_latencies(trace, app, obs)
        if obs.enabled:
            for call, total in trace.call_totals.items():
                obs.metrics.counter(f"calls.{call}").inc(total)
            obs.metrics.counter("pipeline.bytes_total").inc(links.total_bytes)
            obs.metrics.counter("pipeline.messages_total").inc(links.total_messages)
            obs.metrics.counter("pipeline.apps_analyzed").inc()

        top_peers = []
        for rank in np.argsort(-topo.degrees, kind="stable")[:5].tolist():
            peers = links.top_peers(rank, k=1)
            if peers:
                top_peers.append(
                    {"rank": rank, "peer": peers[0][0], "bytes": peers[0][1]}
                )

        summary: dict[str, Any] = {
            "app": app,
            "nranks": nranks,
            "overrides": dict(overrides or {}),
            "call_totals": trace.call_totals,
            "total_bytes": links.total_bytes,
            "total_messages": links.total_messages,
            "nonzero_links": links.nonzero_links(),
            "size_buckets": {str(k): v for k, v in sorted(local_buckets.items())},
            "top_peers": top_peers,
            "topology": topo.to_dict(),
            "interconnect": ev.to_dict(),
            "interconnect_temporal": ev_temporal.to_dict(),
            "timing": _timing_summary(trace, timing_seed, overrides, latency_buckets),
        }
        sp.set_attr("total_bytes", links.total_bytes)
        sp.set_attr("max_degree", topo.max_degree)
        obs.tracer.emit_event("app_summary", summary)
        return summary


def execute_cell(payload: dict[str, Any]) -> dict[str, Any]:
    """Cell entry point: run one cell (in-process or in a worker process).

    Builds a private cache handle and observability buffer, so everything
    the cell produced (summary, span/app_summary events, metrics, cache
    statistics) comes back as one picklable result the parent merges
    deterministically.
    """
    obs = Observability(enabled=payload["profiled"], keep_events=True)
    cache = ReproCache(payload["cache_dir"], readonly=not payload["store"])
    t0 = time.perf_counter()
    t_start = time.time()  # absolute stamp for post-hoc gantt/attribution
    ok, summary, error = True, None, None
    try:
        inject_slow(f"{payload['app']}_p{payload['nranks']}", payload.get("attempt", 1))
        summary = analyze_app(
            payload["app"],
            payload["nranks"],
            cache,
            obs,
            config=payload["config"],
            overrides=payload.get("overrides"),
            store=payload["store"],
            timing_seed=payload.get("timing_seed", DEFAULT_TIMING_SEED),
        )
    except Exception as exc:  # surfaced per-cell, never aborts the sweep
        ok, error = False, f"{type(exc).__name__}: {exc}"
    return {
        "app": payload["app"],
        "nranks": payload["nranks"],
        "index": payload["index"],
        "ok": ok,
        "error": error,
        "summary": summary,
        "wall_s": time.perf_counter() - t0,
        "t_start": t_start,
        "t_end": time.time(),
        "pid": os.getpid(),
        "events": obs.events,
        "metrics": obs.metrics.to_dict() if obs.enabled else {},
        "cache": cache.stats.to_dict(),
    }


def graft_cell(
    obs: Observability,
    res: dict[str, Any],
    root_id: int | None,
    span_name: str = "cell",
    extra_attrs: dict[str, Any] | None = None,
) -> None:
    """Re-emit a cell's events under a synthetic ``cell`` span.

    Every attempt's events (failed prior attempts included) are remapped
    onto the parent tracer's id space and re-rooted: a worker-side root
    span (``parent_id is None``) becomes a child of the cell span, tagged
    with its attempt number, so retries appear as sibling subtrees rather
    than duplicate roots. The cell span itself hangs off ``root_id`` (the
    run's ``pipeline`` span), making the merged trace one tree.

    Empty attempt batches (faults that fired before any span was emitted)
    graft nothing and reserve no ids, so fault-injected runs keep the
    exact span numbering of a clean run.

    ``span_name``/``extra_attrs`` let other cell-shaped workloads (the
    DSE search grafts per-candidate subtrees as ``candidate`` spans)
    reuse the same remapping; the defaults preserve the analysis
    pipeline's trace shape bit-for-bit.
    """
    if not obs.enabled:
        return
    tracer = obs.tracer
    cell_span_id = tracer.reserve_ids(1)
    batches = list(res.get("prior_attempts") or [])
    batches.append({"attempt": res.get("attempts", 1), "events": res.get("events") or []})
    for batch in batches:
        events = batch.get("events") or []
        if not events:
            continue
        max_local = max(
            (e["span_id"] for e in events if e.get("event") == "span"), default=0
        )
        # Claim max_local + 1 ids: remapped ids land on base+1..base+max_local,
        # keeping the tracer's next fresh id clear of the block.
        base = tracer.reserve_ids(max_local + 1)
        for ev in events:
            ev = dict(ev)
            kind = ev.pop("event")
            if kind == "span":
                ev["span_id"] = ev["span_id"] + base
                if ev.get("parent_id") is None:
                    ev["parent_id"] = cell_span_id
                    attrs = dict(ev.get("attrs") or {})
                    attrs["attempt"] = batch.get("attempt", 1)
                    ev["attrs"] = attrs
                else:
                    ev["parent_id"] = ev["parent_id"] + base
                ev["depth"] = ev.get("depth", 0) + 2
            else:
                # Non-span worker events (app_summary) keep a pointer to
                # their cell so the trace tree covers every event.
                ev.setdefault("parent_id", cell_span_id)
            tracer.emit_event(kind, ev)
    attrs: dict[str, Any] = {
        "app": res["app"],
        "nranks": res["nranks"],
        "attempts": res.get("attempts", 1),
        "ok": bool(res.get("ok")),
    }
    if extra_attrs:
        attrs.update(extra_attrs)
    tracer.emit_event(
        "span",
        {
            "name": span_name,
            "span_id": cell_span_id,
            "parent_id": root_id,
            "depth": 1,
            "wall_s": res.get("wall_s", 0.0),
            "peak_rss_kb": 0,
            "attrs": attrs,
        },
    )


def _merge_cache_stats(target: CacheStats, snap: dict[str, Any]) -> None:
    target.hits += snap.get("hits", 0)
    target.misses += snap.get("misses", 0)
    target.stores += snap.get("stores", 0)
    target.validation_failures += snap.get("validation_failures", 0)
    target.entries.extend(snap.get("entries", []))


def run_pipeline(
    apps: list[str] | None = None,
    scales: dict[str, list[int]] | None = None,
    cache_dir: str = DEFAULT_CACHE_DIR,
    obs: Observability | None = None,
    config: InterconnectConfig | None = None,
    store: bool = True,
    argv: list[str] | None = None,
    workers: int = 1,
    shard: tuple[int, int] | None = None,
    timing_seed: int = DEFAULT_TIMING_SEED,
    max_retries: int = 2,
    heartbeat_timeout: float = 30.0,
    retry_backoff: float = 0.05,
    journal_dir: str | None = None,
    resume: str | None = None,
    run_id: str | None = None,
    service: dict[str, Any] | None = None,
    bench_dir: str | None = ".",
) -> dict[str, Any]:
    """Run the analysis matrix; returns ``{"manifest", "results"}``.

    ``shard=(i, m)`` restricts the run to every m-th cell starting at i.
    Failed cells are recorded in ``manifest["cells"]`` /
    ``manifest["failed_cells"]`` and excluded from ``results``.

    With ``workers <= 1`` and no ``journal_dir``, ``resume`` or
    ``run_id``, cells run in this process, in cell order
    (``manifest["scheduler"]["backend"] == "serial"``). More workers or
    any of those inputs move the run onto the fault-tolerant
    work-stealing scheduler (``"stealing"``): cells are pulled
    largest-estimated-cost-first (cost model calibrated from the
    ``BENCH_*.json`` files in ``bench_dir``), transient failures retry up
    to ``max_retries`` times with exponential backoff, crashed or hung
    workers (``heartbeat_timeout``) have their cells re-dispatched, and
    progress is journaled so ``resume=<run-id>`` replays completed cells
    instead of re-running them. Scheduler bookkeeping lands in
    ``manifest["scheduler"]``; per-cell ``attempts`` in ``manifest["cells"]``.

    ``run_id`` pins the journal id instead of
    generating one — callers that must find the journal again after a
    crash (the serve daemon keys journals by job id) pass it here.
    ``service`` is provenance only: it lands in the manifest so a served
    artifact is traceable to its HTTP submission.
    """
    obs = obs if obs is not None else get_obs()
    cache = ReproCache(cache_dir, readonly=not store)
    apps = list(apps) if apps else available_apps()
    scales = scales or discover_scales(cache, apps)

    cells = build_cells(apps, scales)
    if shard is not None:
        cells = shard_cells(cells, shard[0], shard[1])

    fingerprint = build_fingerprint(
        apps, scales, cache_dir, timing_seed, store,
        config.to_dict() if config is not None else None, shard,
    )
    runner = cell_runner(
        fingerprint, cache_dir, workers=workers, journal_dir=journal_dir, resume=resume,
        run_id=run_id, max_retries=max_retries,
        heartbeat_timeout=heartbeat_timeout, retry_backoff=retry_backoff,
    )

    manifest = build_manifest(
        apps, scales, argv=argv, workers=workers, shard=shard, scheduler=runner.info,
        service=service,
    )
    obs.tracer.emit_event("manifest", manifest)

    cost_model: CostModel | None = None
    if runner.journal is not None:
        cost_model = CostModel.from_bench_dir(bench_dir)

    def payload_for(cell: Cell) -> dict[str, Any]:
        return {
            "app": cell.app,
            "nranks": cell.nranks,
            "index": cell.index,
            "cache_dir": cache_dir,
            "config": config,
            "store": store,
            "timing_seed": timing_seed,
            "profiled": obs.enabled,
        }

    def report_for(res: dict[str, Any]) -> dict[str, Any]:
        return {
            "app": res["app"],
            "nranks": res["nranks"],
            "ok": res["ok"],
            "wall_s": round(res["wall_s"], 6),
            "error": res["error"],
            "attempts": res.get("attempts", 1),
        }

    def merge_one(res: dict[str, Any]) -> None:
        graft_cell(obs, res, root_id)
        if obs.enabled and res.get("t_start") is not None:
            # Wall-clock execution window per cell, for post-hoc scheduler
            # attribution (queue-wait/utilization/gantt). Wall-clock-derived
            # by construction, hence outside the byte-identity contract —
            # the analytics layer reads it, the report builder ignores it.
            obs.tracer.emit_event(
                "cell_timing",
                {
                    "app": res["app"],
                    "nranks": res["nranks"],
                    "index": res["index"],
                    "worker": res.get("worker"),
                    "pid": res.get("pid"),
                    "attempts": res.get("attempts", 1),
                    "ok": bool(res["ok"]),
                    "t_start": res["t_start"],
                    "t_end": res.get("t_end"),
                },
            )
        if obs.enabled:
            obs.metrics.merge_snapshot(res["metrics"])
        _merge_cache_stats(cache.stats, res["cache"])
        cell_reports.append(report_for(res))
        if res["summary"] is not None:
            results.append(res["summary"])

    cell_reports: list[dict[str, Any]] = []
    results: list[dict[str, Any]] = []
    root_id: int | None = None
    with obs.tracer.span(
        "pipeline", napps=len(apps), ncells=len(cells), workers=workers
    ) as pipe_sp:
        root_id = getattr(pipe_sp, "span_id", None)
        # Cells come back in cell-definition order, whatever order they ran in.
        for res in runner.run(
            cells, lambda cell, attempt: payload_for(cell), execute_cell,
            cost_model=cost_model, obs=obs,
        ):
            merge_one(res)

    manifest["cells"] = cell_reports
    manifest["failed_cells"] = [
        f"{c['app']}_p{c['nranks']}" for c in cell_reports if not c["ok"]
    ]
    manifest["cache"] = cache.stats.to_dict()
    manifest["scheduler"] = runner.info
    obs.tracer.emit_event("manifest", manifest)
    return {"manifest": manifest, "results": results}
