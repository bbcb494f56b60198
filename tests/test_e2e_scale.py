"""End-to-end analysis of the sparse apps at ultra scale (slow-marked).

cactus, gtc and lbmhd talk to a handful of partners per rank, so the
whole pipeline — synthesis, link-table reduce, topology, static and
temporal evaluation — must finish at 16384 ranks in bounded memory. The
run happens in a fresh interpreter so its peak RSS is its own, not the
test session's.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
NRANKS = 16384
APPS = ("cactus", "gtc", "lbmhd")
PEAK_RSS_LIMIT_MB = 1024

RUN = """
import json, resource, sys, tempfile
from hfast.interconnect import InterconnectConfig
from hfast.obs.profile import Observability
from hfast.pipeline import run_pipeline

apps, nranks = json.loads(sys.argv[1]), int(sys.argv[2])
with tempfile.TemporaryDirectory() as cache_dir:
    out = run_pipeline(
        apps=apps,
        scales={app: [nranks] for app in apps},
        cache_dir=cache_dir,
        obs=Observability.disabled(),
        config=InterconnectConfig(timesteps=4),
        store=False,
        bench_dir=None,
    )
print(json.dumps({
    "cells": out["manifest"]["cells"],
    "results": [
        {"app": r["app"], "nranks": r["nranks"], "total_bytes": r["total_bytes"],
         "nonzero_links": r["nonzero_links"], "max_degree": r["topology"]["max_degree"]}
        for r in out["results"]
    ],
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}))
"""


@pytest.mark.slow
def test_sparse_apps_at_16k_ranks_end_to_end():
    proc = subprocess.run(
        [sys.executable, "-c", RUN, json.dumps(APPS), str(NRANKS)],
        env={"PYTHONPATH": str(SRC), "PATH": ""},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert [(c["app"], c["nranks"], c["ok"]) for c in doc["cells"]] == [
        (app, NRANKS, True) for app in APPS
    ]
    for r in doc["results"]:
        assert r["total_bytes"] > 0
        # A few partners per rank: the link table is O(nranks), not O(nranks**2).
        assert r["nonzero_links"] <= 8 * NRANKS
        assert 0 < r["max_degree"] <= 8
    assert doc["peak_rss_mb"] < PEAK_RSS_LIMIT_MB, doc["peak_rss_mb"]
