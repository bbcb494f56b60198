"""Observability flags of ``hfast analyze``, driven through ``cli.main``.

``--log-out`` writes a structured JSON log whose records carry the
run/cell correlation ids needed to join them against the trace.
"""

import json

from hfast import cli
from hfast.obs.logs import read_log_records


def test_analyze_log_out_writes_correlated_run_records(tmp_path, capsys):
    log = tmp_path / "run.jsonl"
    rc = cli.main([
        "analyze", "--apps", "cactus", "--scales", "8",
        "--cache-dir", str(tmp_path / "cache"), "--log-out", str(log),
    ])
    assert rc == 0
    records = [json.loads(ln) for ln in log.read_text().splitlines()]
    events = [r["event"] for r in records]
    assert events[0] == "run_start" and events[-1] == "run_done"
    assert "cell_done" in events
    by_event = {r["event"]: r for r in records}
    assert by_event["run_start"]["component"] == "pipeline"
    assert by_event["cell_done"]["cell"] == "cactus_p8"
    assert by_event["cell_done"]["ok"] is True
    assert by_event["run_done"]["cells"] == 1
    assert by_event["run_done"]["failed"] == 0

    # The structured-log reader reads the same file back.
    (rec,) = [r for r in read_log_records(log) if r["event"] == "cell_done"]
    assert rec["cell"] == "cactus_p8"
