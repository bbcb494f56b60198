"""Cost-model-driven work-stealing scheduler with fault tolerance.

The parent process owns a shared queue of (app, nranks) cells ordered by
estimated cost (largest first). Worker processes pull work over private
duplex pipes: when a worker goes idle it steals the largest remaining
cell, so a skewed matrix (paratec@4K next to cactus@8) keeps every
worker busy instead of pinning the heavy tail onto one static shard.

Fault tolerance:

- **Transient failures** — a cell whose execution raises is retried with
  exponential backoff up to ``max_retries`` times; only a cell that
  exhausts its retries is reported failed.
- **Crashed workers** — each worker is liveness-checked every poll; a
  worker that dies mid-cell (SIGKILL, OOM) has its cell re-dispatched
  and a replacement worker spawned.
- **Hung workers** — workers heartbeat over their pipe; a busy worker
  silent for ``heartbeat_timeout`` seconds is killed and treated as
  crashed.
- **Resume** — completed cells are journaled (see
  :mod:`hfast.sched.journal`); a resumed run replays them from the
  journal instead of re-executing.

Determinism: scheduling only changes *when* a cell runs, never what it
computes. Results are returned in cell-definition order, so the caller's
merge (results, spans, metrics, cache statistics) is byte-identical to a
serial run regardless of steal order, retries, or crashes.

Workers communicate over per-worker ``multiprocessing.Pipe`` pairs
rather than one shared queue: a SIGKILLed process can never wedge a
shared queue lock for the survivors, and a half-written message is
confined to the pipe of the worker that died.

:func:`cell_runner` is the one place that decides how a run executes
its cells: in the calling process, or under :func:`run_stealing`.
Both the analysis pipeline and the design-space search go through it.
"""

from __future__ import annotations

import heapq
import multiprocessing as mp
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Iterable, Sequence

from hfast.obs.profile import Observability
from hfast.sched.cost import CostModel
from hfast.sched.faults import TransientFault, maybe_inject
from hfast.sched.journal import RunJournal, open_journal


class SchedulerError(RuntimeError):
    """The scheduler could not run the sweep."""


@dataclass
class SchedulerConfig:
    """Knobs for :func:`run_stealing`; :func:`cell_runner` builds one per run.

    ``workers`` caps the worker processes. Even at one worker the cells
    run in a forked process, with retries, heartbeats and a journal.
    """

    workers: int = 2
    max_retries: int = 2  # retries after the first attempt
    heartbeat_timeout: float = 30.0  # busy + silent this long => presumed hung
    heartbeat_interval: float | None = None  # default: timeout / 4, capped at 1s
    retry_backoff: float = 0.05  # seconds; doubles per failed attempt
    poll_interval: float = 0.05  # parent event-loop tick

    @property
    def beat_interval(self) -> float:
        if self.heartbeat_interval is not None:
            return self.heartbeat_interval
        return min(1.0, max(0.01, self.heartbeat_timeout / 4.0))


# ---------------------------------------------------------------------------
# Worker side


def _run_task(task: dict[str, Any], execute_fn: Callable, wedge: threading.Event) -> dict[str, Any]:
    """Execute one cell payload, routing injected faults appropriately."""
    t0 = time.perf_counter()
    key = f"{task['app']}_p{task['nranks']}"
    try:
        maybe_inject(key, task.get("attempt", 1), wedge=wedge)
    except TransientFault as exc:
        return {
            "app": task["app"],
            "nranks": task["nranks"],
            "index": task["index"],
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            "summary": None,
            "wall_s": time.perf_counter() - t0,
            "events": [],
            "metrics": {},
            "cache": {},
        }
    return execute_fn(task)


def _worker_main(
    conn: Any,
    execute_fn: Callable,
    beat_interval: float,
) -> None:
    """Worker loop: recv task, execute, send result; heartbeat on the side."""
    wedge = threading.Event()
    send_lock = threading.Lock()
    current: dict[str, Any] = {"index": None}

    def send(msg: tuple) -> None:
        with send_lock:
            try:
                conn.send(msg)
            except (BrokenPipeError, OSError):
                pass

    def beat() -> None:
        while not wedge.is_set():
            time.sleep(beat_interval)
            if wedge.is_set():
                return
            send(("beat", current["index"]))

    threading.Thread(target=beat, daemon=True).start()
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        current["index"] = task["index"]
        send(("started", task["index"]))
        result = _run_task(task, execute_fn, wedge)
        current["index"] = None
        send(("result", task["index"], result))


# ---------------------------------------------------------------------------
# Parent side


class _WorkerSlot:
    __slots__ = (
        "worker_id", "proc", "conn", "busy", "last_beat", "tasks_done", "had_task",
    )

    def __init__(self, worker_id: int, proc: Any, conn: Any):
        self.worker_id = worker_id
        self.proc = proc
        self.conn = conn
        self.busy: tuple[int, Any] | None = None  # (cell index, cell)
        self.last_beat = time.monotonic()
        self.tasks_done = 0
        self.had_task = False


def _death_result(cell: Any, attempt: int, reason: str) -> dict[str, Any]:
    return {
        "app": cell.app,
        "nranks": cell.nranks,
        "index": cell.index,
        "ok": False,
        "error": f"WorkerLost: {reason} (attempt {attempt})",
        "summary": None,
        "wall_s": 0.0,
        "attempts": attempt,
        "events": [],
        "metrics": {},
        "cache": {},
    }


def run_stealing(
    cells: Sequence[Any],
    make_payload: Callable[[Any, int], dict[str, Any]],
    execute_fn: Callable[[dict[str, Any]], dict[str, Any]],
    config: SchedulerConfig,
    cost_model: CostModel | None = None,
    obs: Observability | None = None,
    journal: RunJournal | None = None,
) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """Run cells under the work-stealing scheduler.

    Returns ``(results, stats)`` where ``results`` holds one raw worker
    result per cell in cell-definition order (journal replays included)
    and ``stats`` is the scheduler bookkeeping destined for the run
    manifest. Every result carries ``attempts``; failed cells have
    ``ok=False`` after exhausting their retries.

    A cell has at most one attempt in flight: a retry or a re-dispatch
    is queued only after the previous attempt failed or its worker was
    lost.
    """
    cost_model = cost_model or CostModel()
    stats: dict[str, Any] = {
        "backend": "stealing",
        "workers": config.workers,
        "max_retries": config.max_retries,
        "heartbeat_timeout": config.heartbeat_timeout,
        "tasks_dispatched": 0,
        "steals": 0,
        "retries": 0,
        "redispatches": 0,
        "workers_spawned": 0,
        "workers_lost": 0,
        "max_queue_depth": 0,
        "cells_from_journal": 0,
    }
    completed: dict[int, dict[str, Any]] = {}
    attempts: dict[int, int] = {}
    # Events from failed attempts, kept so retries graft as sibling spans
    # under the cell span instead of vanishing (or duplicating roots).
    prior_attempts: dict[int, list[dict[str, Any]]] = {}

    if journal is not None:
        for cell in cells:
            entry = journal.completed.get(cell.index)
            if entry is not None:
                replay = dict(entry["result"])
                replay["attempts"] = entry["attempts"]
                replay["from_journal"] = True
                completed[cell.index] = replay
                stats["cells_from_journal"] += 1

    pending: list[tuple[float, int, Any]] = [
        (-cost_model.estimate(c.app, c.nranks), c.index, c)
        for c in cells
        if c.index not in completed
    ]
    heapq.heapify(pending)
    delayed: list[tuple[float, float, int, Any]] = []  # (due, -cost, index, cell)
    stats["max_queue_depth"] = len(pending)

    ctx = mp.get_context()
    slots: dict[int, _WorkerSlot] = {}
    next_worker_id = 0

    def spawn_worker() -> _WorkerSlot:
        nonlocal next_worker_id
        worker_id = next_worker_id
        next_worker_id += 1
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, execute_fn, config.beat_interval),
            daemon=True,
            name=f"hfast-sched-{worker_id}",
        )
        proc.start()
        child_conn.close()
        slot = _WorkerSlot(worker_id, proc, parent_conn)
        slots[worker_id] = slot
        stats["workers_spawned"] += 1
        return slot

    def assign(slot: _WorkerSlot) -> bool:
        """Hand the largest pending cell to an idle worker."""
        neg_cost, index, cell = heapq.heappop(pending)
        attempts[index] = attempts.get(index, 0) + 1
        task = make_payload(cell, attempts[index])
        task["attempt"] = attempts[index]
        try:
            slot.conn.send(task)
        except (BrokenPipeError, OSError):
            heapq.heappush(pending, (neg_cost, index, cell))
            attempts[index] -= 1
            return False
        if slot.had_task:
            stats["steals"] += 1
        slot.had_task = True
        slot.busy = (index, cell)
        slot.last_beat = time.monotonic()
        stats["tasks_dispatched"] += 1
        return True

    def retire(slot: _WorkerSlot) -> None:
        slots.pop(slot.worker_id, None)
        try:
            slot.conn.close()
        except OSError:
            pass
        if slot.proc.is_alive():
            slot.proc.kill()
        slot.proc.join(timeout=2.0)
        if obs is not None and obs.enabled:
            obs.tracer.emit_event(
                "sched_worker",
                {"worker": slot.worker_id, "tasks_done": slot.tasks_done},
            )

    def handle_finished(slot: _WorkerSlot, index: int, result: dict[str, Any]) -> None:
        cell = slot.busy[1] if slot.busy else None
        slot.busy = None
        slot.last_beat = time.monotonic()
        n_attempts = attempts.get(index, 1)
        if not result.get("ok") and n_attempts <= config.max_retries and cell is not None:
            stats["retries"] += 1
            prior_attempts.setdefault(index, []).append(
                {
                    "attempt": n_attempts,
                    "events": result.get("events") or [],
                    "error": result.get("error"),
                }
            )
            due = time.monotonic() + config.retry_backoff * (2 ** (n_attempts - 1))
            heapq.heappush(delayed, (due, -cost_model.estimate(cell.app, cell.nranks), index, cell))
        else:
            result = dict(result)
            result["attempts"] = n_attempts
            result["worker"] = slot.worker_id
            if index in prior_attempts:
                result["prior_attempts"] = prior_attempts.pop(index)
            completed[index] = result
            slot.tasks_done += 1
            if result.get("ok") and journal is not None:
                key = f"{result['app']}_p{result['nranks']}"
                journal.record_done(index, key, n_attempts, result)
        if obs is not None and obs.enabled:
            obs.metrics.counter("sched.tasks_finished").inc()
            obs.tracer.emit_event(
                "sched_task",
                {
                    "cell": f"{result['app']}_p{result['nranks']}",
                    "worker": slot.worker_id,
                    "attempt": n_attempts,
                    "ok": bool(result.get("ok")),
                    "wall_s": result.get("wall_s", 0.0),
                },
            )

    def handle_lost_worker(slot: _WorkerSlot, reason: str) -> None:
        stats["workers_lost"] += 1
        if slot.busy is not None:
            index, cell = slot.busy
            slot.busy = None
            stats["redispatches"] += 1
            prior_attempts.setdefault(index, []).append(
                {"attempt": attempts.get(index, 1), "events": [], "error": reason}
            )
            if attempts.get(index, 1) <= config.max_retries:
                # Crash re-dispatch goes straight back onto the queue: the
                # failure was the worker's, not the cell's.
                heapq.heappush(
                    pending, (-cost_model.estimate(cell.app, cell.nranks), index, cell)
                )
            else:
                dead = _death_result(cell, attempts.get(index, 1), reason)
                if index in prior_attempts:
                    dead["prior_attempts"] = prior_attempts.pop(index)
                completed[index] = dead
        retire(slot)

    try:
        while len(completed) < len(cells):
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                _, neg_cost, index, cell = heapq.heappop(delayed)
                heapq.heappush(pending, (neg_cost, index, cell))
            stats["max_queue_depth"] = max(stats["max_queue_depth"], len(pending) + len(delayed))

            # Keep the pool sized to the remaining work; this both spawns
            # the initial workers and replaces lost ones.
            outstanding = len(cells) - len(completed)
            while len(slots) < min(config.workers, outstanding):
                spawn_worker()
            for slot in list(slots.values()):
                if slot.busy is None and pending:
                    assign(slot)

            conns = [slot.conn for slot in slots.values()]
            if conns:
                ready = mp_connection.wait(conns, timeout=config.poll_interval)
            else:
                time.sleep(config.poll_interval)
                ready = []
            for conn in ready:
                slot = next((s for s in slots.values() if s.conn is conn), None)
                if slot is None:
                    continue
                while True:
                    try:
                        if not conn.poll():
                            break
                        msg = conn.recv()
                    except (EOFError, OSError):
                        break  # liveness check below reaps the worker
                    kind = msg[0]
                    if kind in ("beat", "started"):
                        slot.last_beat = time.monotonic()
                    elif kind == "result":
                        handle_finished(slot, msg[1], msg[2])

            now = time.monotonic()
            for slot in list(slots.values()):
                if not slot.proc.is_alive():
                    handle_lost_worker(slot, f"worker {slot.worker_id} died")
                elif slot.busy is not None and now - slot.last_beat > config.heartbeat_timeout:
                    slot.proc.kill()
                    handle_lost_worker(
                        slot,
                        f"worker {slot.worker_id} missed heartbeats for "
                        f"{config.heartbeat_timeout:.1f}s",
                    )
    finally:
        for slot in list(slots.values()):
            try:
                slot.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for slot in list(slots.values()):
            slot.proc.join(timeout=2.0)
            retire(slot)

    if obs is not None and obs.enabled:
        for key in ("steals", "retries", "redispatches", "tasks_dispatched"):
            obs.metrics.counter(f"sched.{key}").inc(stats[key])
        obs.metrics.gauge("sched.max_queue_depth").set(stats["max_queue_depth"])

    results = [completed[c.index] for c in cells]
    if journal is not None and all(r.get("ok") for r in results):
        if not journal.complete:
            journal.record_complete()
    return results, stats


# ---------------------------------------------------------------------------
# Choosing the executor

# Scheduler counters that add up over the batches of one run (the
# generations of an evolutionary search); other stats are assigned.
_SUM_STATS = frozenset({
    "tasks_dispatched", "steals", "retries", "redispatches",
    "workers_spawned", "workers_lost", "cells_from_journal",
})


@dataclass
class CellRunner:
    """How one run executes its batches of cells; built by :func:`cell_runner`.

    With no ``journal`` every batch runs in the calling process, in cell
    order. Otherwise every batch goes through :func:`run_stealing` and is
    journaled. ``info`` is the run manifest's ``scheduler`` block: the
    backend (``"serial"`` or ``"stealing"``), the run id, and the
    scheduler counters summed over all batches.
    """

    config: SchedulerConfig
    journal: RunJournal | None = None
    info: dict[str, Any] = field(default_factory=lambda: {"backend": "serial"})

    def run(
        self,
        cells: Sequence[Any],
        make_payload: Callable[[Any, int], dict[str, Any]],
        execute_fn: Callable[[dict[str, Any]], dict[str, Any]],
        cost_model: CostModel | None = None,
        obs: Observability | None = None,
    ) -> Iterable[dict[str, Any]]:
        """Run one batch; one raw result per cell, in cell order.

        In process, each result is yielded as soon as its cell finishes,
        so the caller merges it before the next cell starts.
        """
        if self.journal is None:
            return (execute_fn(make_payload(cell, 1)) for cell in cells)
        results, stats = run_stealing(
            cells, make_payload, execute_fn, self.config, cost_model=cost_model,
            obs=obs, journal=self.journal,
        )
        for key, value in stats.items():
            if key in _SUM_STATS:
                self.info[key] = self.info.get(key, 0) + value
            elif key == "max_queue_depth":
                self.info[key] = max(self.info.get(key, 0), value)
            else:
                self.info[key] = value
        self.info["journal"] = str(self.journal.path)
        return results


def cell_runner(
    fingerprint: dict[str, Any],
    cache_dir: str,
    workers: int = 1,
    journal_dir: str | None = None,
    resume: str | None = None,
    run_id: str | None = None,
    max_retries: int = 2,
    heartbeat_timeout: float = 30.0,
    retry_backoff: float = 0.05,
) -> CellRunner:
    """Decide how a run executes its cells, from the run's own inputs.

    A run with ``workers <= 1`` and no ``journal_dir``, ``resume`` or
    ``run_id`` runs in the calling process, in cell order. Every other run goes through :func:`run_stealing` and
    journals to ``journal_dir`` (default ``<cache_dir>/.sched_journal``);
    ``resume`` replays that journal, checked against ``fingerprint``.
    The choice changes where and when cells run, never what they
    compute.
    """
    config = SchedulerConfig(
        workers=max(1, workers),
        max_retries=max_retries,
        heartbeat_timeout=heartbeat_timeout,
        retry_backoff=retry_backoff,
    )
    if workers <= 1 and journal_dir is None and resume is None and run_id is None:
        return CellRunner(config)
    journal = open_journal(fingerprint, cache_dir, journal_dir, resume, run_id)
    info = {"backend": "stealing", "run_id": journal.run_id, "resumed": resume is not None}
    return CellRunner(config, journal, info)
