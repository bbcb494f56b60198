"""One analysis pass of a benchmark workload, in a fresh single-worker process.

Usage (the benchmark's ``run.py`` starts it; ``src`` must be importable)::

    python3 perfbench/cell_worker.py '{"apps": [...], "nranks": N, "timesteps": T,
        "store": false, "cache_dir": DIR, "seed": S, "trace": false}'

Runs ``hfast.pipeline.run_pipeline`` with observability off, one worker,
the default matcher and 4 circuits per node, passing the seed as
``timing_seed``. The traffic slicer keeps ``hfast analyze``'s fixed
``slice_seed`` (the CLI has no flag for it): the matcher's work swings
from 7 s to 18 s across slice seeds on paratec at 512 ranks, which would
bury any change under seed-to-seed spread. Prints one JSON
line: the pass wall time, the cell summaries, the failed cells, the
process's peak RSS and, when traced, the per-layer metrics of
:mod:`layers`.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(spec: dict) -> dict:
    rec = None
    if spec["trace"]:
        import layers

        rec = layers.install()
    from hfast.interconnect import InterconnectConfig
    from hfast.obs.profile import Observability
    from hfast.pipeline import run_pipeline

    root = rec.enter(layers.ROOT) if rec is not None else None
    t0 = time.perf_counter()
    out = run_pipeline(
        apps=spec["apps"],
        scales={app: [spec["nranks"]] for app in spec["apps"]},
        cache_dir=spec["cache_dir"],
        obs=Observability.disabled(),
        config=InterconnectConfig(circuits_per_node=4, timesteps=spec["timesteps"]),
        store=spec["store"],
        workers=1,
        timing_seed=spec["seed"],
        bench_dir=None,
    )
    wall_s = time.perf_counter() - t0
    if rec is not None:
        rec.exit(root)
    return {
        "wall_s": wall_s,
        "results": out["results"],
        "failed": [
            {"cell": f"{c['app']}_p{c['nranks']}", "error": c.get("error")}
            for c in out["manifest"].get("cells") or []
            if not c["ok"]
        ],
        "layers": layers.summarize(rec) if rec is not None else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
