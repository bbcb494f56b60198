#!/usr/bin/env python
"""Persistent-telemetry smoke check: history, trends, SLOs, logs.

Usage::

    PYTHONPATH=src python scripts/obs_smoke.py [--artifacts-dir DIR]

Exercises the full longitudinal-observability loop end to end:

1. run ``hfast analyze`` twice over the same cells — serial then
   work-stealing — appending run snapshots into one history directory;
   identical work must dedupe to a single content-addressed snapshot;
2. boot the serve daemon (``ServiceThread``) with its own history
   directory + SLO engine, submit the same cells as jobs, and tail
   ``/v1/events`` with a cursor — the paginated shape must carry ``seq``
   numbers, never report missed events at this volume, and include
   heartbeat records between job events;
3. assert ``hfast obs trend`` output is **byte-identical** across
   repeated invocations and across producers: the analyze-written and
   serve-written history directories must render the same trend table;
4. evaluate ``hfast obs slo`` over the recorded history (clean runs:
   zero burn, nothing breached) and list/compact the history dir;
5. check the structured logs: the analyze ``--log-out`` stream and the
   daemon's ``logs/daemon.jsonl`` must parse via the tolerant reader
   and carry job/run correlation ids.

Everything lands under ``--artifacts-dir`` for CI upload: the history
segments, the trend/slo text, and both structured logs.
"""

from __future__ import annotations

import argparse
import contextlib
import http.client
import io
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from hfast.cli import main as cli_main  # noqa: E402
from hfast.obs.history import read_history  # noqa: E402
from hfast.obs.logs import read_log_records  # noqa: E402
from hfast.serve.daemon import ServeConfig, ServiceThread  # noqa: E402

APPS = "cactus,gtc"
SCALE = 8
CELLS = [{"app": "cactus", "nranks": SCALE}, {"app": "gtc", "nranks": SCALE}]


def cli(argv: list[str]) -> tuple[int, str]:
    """Run one CLI invocation in-process, capturing stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli_main(argv)
    return rc, buf.getvalue()


def request(port: int, method: str, path: str, body: dict | None = None) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(method, path, body=json.dumps(body) if body is not None else None)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="smoke-check telemetry history, SLO evaluation, and structured logs"
    )
    parser.add_argument("--artifacts-dir", default="obs-history-artifacts")
    args = parser.parse_args(argv)

    artifacts = Path(args.artifacts_dir)
    artifacts.mkdir(parents=True, exist_ok=True)
    cache_dir = artifacts / "cache"
    hist_analyze = artifacts / "history-analyze"
    hist_serve = artifacts / "history-serve"
    analyze_log = artifacts / "logs" / "analyze.jsonl"
    serve_dir = artifacts / "serve"
    problems: list[str] = []

    # 1. Two analyze runs, two backends, one history dir. -------------------
    for backend_args in ([], ["--workers", "2", "--live"]):
        rc, _out = cli(
            [
                "analyze", "--apps", APPS, "--scales", str(SCALE),
                "--cache-dir", str(cache_dir),
                "--history-dir", str(hist_analyze),
                "--slo", "default",
                "--log-out", str(analyze_log),
                *backend_args,
            ]
        )
        if rc != 0:
            problems.append(f"analyze {backend_args or ['serial']} exited {rc}")
    snapshots = read_history(hist_analyze, kinds=("run",))
    if len(snapshots) != 1:
        problems.append(
            f"expected serial+stealing runs to dedupe to 1 snapshot, got {len(snapshots)}"
        )
    else:
        print(f"obs_smoke: analyze history deduped to snapshot {snapshots[0]['key'][:12]}")

    # 2. Serve session into its own history dir, cursor-tailed. -------------
    config = ServeConfig(
        port=0,
        cache_dir=str(cache_dir),
        serve_dir=str(serve_dir),
        history_dir=str(hist_serve),
        slo_spec="default",
        heartbeat_interval=0.2,
    )
    tail: list[dict] = []
    cursor, missed_total = 0, 0
    with ServiceThread(config) as service:
        port = service.port
        print(f"obs_smoke: daemon on 127.0.0.1:{port}")
        job_ids = []
        for spec in CELLS:
            status, raw = request(port, "POST", "/v1/jobs", spec)
            if status not in (200, 202):
                problems.append(f"submit {spec} returned {status}: {raw!r}")
                continue
            job_ids.append(json.loads(raw).get("job_id"))
        deadline = time.monotonic() + 120
        done: set = set()

        def saw_heartbeat() -> bool:
            return any(ev.get("event") == "heartbeat" for ev in tail)

        # Tail until every job finished AND at least one heartbeat arrived
        # (cached jobs can finish faster than the heartbeat interval).
        while time.monotonic() < deadline and (len(done) < len(job_ids) or not saw_heartbeat()):
            status, raw = request(port, "GET", f"/v1/events?cursor={cursor}")
            doc = json.loads(raw)
            if status != 200 or not all(k in doc for k in ("seen", "cursor", "missed", "events")):
                problems.append(f"cursor tail returned {status}: {doc}")
                break
            missed_total += doc["missed"]
            for ev in doc["events"]:
                if "seq" not in ev:
                    problems.append(f"paginated event lacks seq: {ev}")
                tail.append(ev)
                if ev.get("event") == "job_done":
                    done.add(ev.get("job_id"))
            cursor = doc["cursor"]
            time.sleep(0.1)
        if len(done) < len(job_ids):
            problems.append(f"jobs did not finish: {done} of {job_ids}")
        if missed_total:
            problems.append(f"cursor tail reported {missed_total} missed events")
        kinds = {ev.get("event") for ev in tail}
        if "heartbeat" not in kinds:
            problems.append(f"no heartbeat in tailed events (saw {sorted(kinds)})")
        else:
            print(f"obs_smoke: tailed {len(tail)} events via cursor, heartbeats present")
        status, raw = request(port, "GET", "/v1/events?n=5")
        if status != 200 or "events" not in json.loads(raw):
            problems.append("legacy /v1/events?n= shape broke")

    # 3. Trend byte-identity: repeat invocations and across producers. ------
    rc1, trend_a = cli(["obs", "trend", str(hist_analyze)])
    rc2, trend_a_again = cli(["obs", "trend", str(hist_analyze)])
    rc3, trend_s = cli(["obs", "trend", str(hist_serve)])
    if rc1 or rc2 or rc3:
        problems.append(f"obs trend exited nonzero: {rc1} {rc2} {rc3}")
    if trend_a != trend_a_again:
        problems.append("obs trend is not reproducible on the same history dir")
    if trend_a != trend_s:
        problems.append(
            "trend over the serve-written history differs from the analyze-written one:\n"
            f"--- analyze ---\n{trend_a}--- serve ---\n{trend_s}"
        )
    else:
        print("obs_smoke: trend byte-identical across analyze- and serve-written history")
    (artifacts / "trend.txt").write_text(trend_a, encoding="utf-8")

    # 4. SLO over history + listing/compaction. -----------------------------
    rc, slo_out = cli(["obs", "slo", str(hist_analyze), "--strict"])
    if rc != 0:
        problems.append(f"obs slo reported a breach on clean runs (rc {rc}):\n{slo_out}")
    (artifacts / "slo.txt").write_text(slo_out, encoding="utf-8")
    rc, hist_out = cli(["obs", "history", str(hist_analyze)])
    if rc != 0 or "snapshot(s)" not in hist_out:
        problems.append(f"obs history listing failed (rc {rc}): {hist_out!r}")
    rc, _ = cli(["obs", "history", str(hist_serve), "--compact"])
    if rc != 0:
        problems.append("obs history --compact failed")
    rc4, trend_s_compacted = cli(["obs", "trend", str(hist_serve)])
    if rc4 or trend_s_compacted != trend_s:
        problems.append("compaction changed the trend output")

    # 5. Structured logs parse and carry correlation ids. -------------------
    analyze_records = read_log_records(analyze_log)
    if not analyze_records:
        problems.append("analyze --log-out produced no records")
    daemon_log = serve_dir / "logs" / "daemon.jsonl"
    daemon_records = read_log_records(daemon_log) if daemon_log.exists() else []
    admitted = [r for r in daemon_records if r.get("event") == "job_admitted"]
    finished = [r for r in daemon_records if r.get("event") in ("job_done", "job_failed")]
    if len(admitted) < len(CELLS) or len(finished) < len(CELLS):
        problems.append(
            f"daemon log missing job records ({len(admitted)} admitted, {len(finished)} done)"
        )
    elif not all(r.get("job_id") and r.get("cell") for r in admitted + finished):
        problems.append("daemon job records lack correlation ids")
    else:
        print(f"obs_smoke: {len(daemon_records)} daemon log records, correlation ids present")
    rc, tail_out = cli(["obs", "tail", str(daemon_log), "--event", "job_admitted"])
    if rc != 0 or len(tail_out.strip().splitlines()) < len(CELLS):
        problems.append(f"obs tail on the daemon log failed (rc {rc})")

    if problems:
        for p in problems:
            print(f"FAIL: {p}", file=sys.stderr)
        return 1
    print("obs_smoke: history deduped, trend deterministic, SLOs clean, logs correlated")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
