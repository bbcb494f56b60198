"""End-to-end, layer-partitioned benchmark of ``hfast analyze``.

Run from the repository root::

    python3 perfbench/run.py --workload stencil-4096 --seed 1 --seconds 10 --trace 0

Every analysis pass runs in a fresh single-worker process with
observability off (``cell_worker.py``), the default ``vector`` matcher,
4 circuits per node and a fresh empty cache dir, so every cell of the
first pass is synthesized. One repetition of a workload is a *cold* pass
followed by a *warm* pass over the same cache dir. Only
``cache-roundtrip-512`` stores, so on the other two workloads the warm
pass bypasses the cache again and ``warm_wall_s`` is predicted equal to
``cold_wall_s``. Repetitions run until ``--seconds`` have passed (at
least one).

The seed is reduced modulo ``REFERENCE_SEEDS``; the result is passed as
``timing_seed`` (see ``cell_worker.py`` for why the slice seed stays
fixed) and selects the committed reference answers in ``reference.json``.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (cold + warm,
median over repetitions), ``cold_wall_s``, ``warm_wall_s``,
``peak_rss_mb`` (largest pass), ``setup_s`` (median fresh-interpreter
time to import ``hfast.cli`` and build its parser), plus
``cache_disk_mb``, ``cells_attempted``, ``cells_failed`` and
``answers_changed`` as lines of text; the last three are the result's
``attempted``/``failed``/``correct`` fields. ``--trace 1`` runs one
untraced and one traced repetition and prints the per-layer metrics of
``layers.py``, the partition check and the expected-shape check.

Every cell is checked: circuit plus packet bytes equal ``total_bytes``
for the static and the temporal evaluation, every coverage lies in
[0, 1], no evaluation provisions more than circuits x nranks circuits,
``total_bytes`` equals the send-record byte sum recomputed here from the
synthesized trace, and the warm answer equals the cold one. A cell that
breaks one counts in ``cells_failed``. A cell whose answer digest differs
from the reference counts in ``answers_changed`` and is named; a
deliberate answer change re-records the reference with ``--record``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
REFERENCE_SEEDS = 16
CIRCUITS = 4
SETUP_SAMPLES = 7
PASS_TIMEOUT_S = 150
PARTITION_BOUND = 0.24  # the wall_s bound: share of the traced wall the partition may miss by
MB = 1 << 20
SETUP_CODE = (
    "import time; t = time.perf_counter(); import hfast.cli; "
    "hfast.cli.build_parser(); print(time.perf_counter() - t)"
)


@dataclass(frozen=True)
class Workload:
    apps: tuple[str, ...]
    nranks: int
    timesteps: int
    store: bool
    # Expected shape: (label, layers, least share of the traced wall).
    shape: tuple[str, tuple[str, ...], float]


# Each workload stresses one layer and bypasses the others, so a change
# to one layer shows its gain on one workload and no change elsewhere.
# Shares are the ones measured when the benchmark was defined.
WORKLOADS = {
    # Dense N x N layers (matrix reduce, topology, static eval) are about
    # 60% of 13-14 s and 1.2 GB peak RSS; synthesis is 0.03 s; the cache
    # is bypassed. Judges the sparse link-table core.
    "stencil-4096": Workload(
        ("cactus", "gtc", "lbmhd"), 4096, 4, False,
        ("dense layers", ("matrix.reduce", "topology.analyze", "interconnect.static"), 0.5),
    ),
    # Matcher local search is 97% of about 15 s (186 MB); dense layers
    # are under 1% and the cache is bypassed. Judges matcher changes.
    "alltoall-512": Workload(
        ("paratec",), 512, 4, False, ("matcher", ("matcher.match",), 0.9),
    ),
    # T=1 is the paper's static question. Cache store (cold) and load
    # (warm) are about 60%, the matcher about 20%, dense layers under 1%;
    # 105 MB on disk. Judges cache write-back changes.
    "cache-roundtrip-512": Workload(
        ("cactus", "gtc", "lbmhd", "paratec"), 512, 1, True,
        ("cache store + load", ("cache.store", "cache.load"), 0.5),
    ),
}


def child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def measure_setup() -> float:
    """Median fresh-interpreter import + parser time (first run discarded)."""
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=child_env(), cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=PASS_TIMEOUT_S,
        )
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples[1:])


def run_pass(wl: Workload, seed: int, cache_dir: Path, trace: bool) -> dict:
    spec = {
        "apps": list(wl.apps), "nranks": wl.nranks, "timesteps": wl.timesteps,
        "store": wl.store, "cache_dir": str(cache_dir), "seed": seed, "trace": trace,
    }
    out = subprocess.run(
        [sys.executable, str(HERE / "cell_worker.py"), json.dumps(spec)],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
    )
    if out.returncode != 0:
        raise RuntimeError(f"analysis pass failed (exit {out.returncode}):\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def run_rep(wl: Workload, seed: int, trace: bool = False) -> dict:
    """One cold pass and one warm pass over a fresh cache dir in the checkout."""
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    cache_dir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        cold = run_pass(wl, seed, cache_dir, trace)
        disk = sum(p.stat().st_size for p in cache_dir.rglob("*") if p.is_file())
        warm = run_pass(wl, seed, cache_dir, trace)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()
    return {"cold": cold, "warm": warm, "disk_bytes": disk}


def sent_bytes(app: str, nranks: int) -> int:
    """Send-record byte sum of the synthesized trace, recomputed here."""
    import numpy as np

    from hfast.apps import synthesize
    from hfast.records import SEND_CALLS

    b = synthesize(app, nranks, timing_seed=None).batch
    mask = b.call_mask(SEND_CALLS) & (b.size > 0) & (b.rank != b.peer)
    return int((b.size[mask].astype(np.int64) * b.count[mask]).sum())


def broken_invariants(s: dict, sent: int) -> list[str]:
    errors = []
    for name in ("interconnect", "interconnect_temporal"):
        ev = s[name]
        if ev["circuit_bytes"] + ev["packet_bytes"] != s["total_bytes"]:
            errors.append(f"{name}: circuit + packet bytes != total_bytes")
        coverages = [ev["coverage"], ev.get("static_coverage", 0.0)]
        coverages += [step["coverage"] for step in ev.get("per_step", [])]
        if not all(0.0 <= c <= 1.0 for c in coverages):
            errors.append(f"{name}: coverage outside [0, 1]")
    n_circuits = [s["interconnect"]["n_circuits"]]
    n_circuits += [step["n_circuits"] for step in s["interconnect_temporal"]["per_step"]]
    if max(n_circuits) > CIRCUITS * s["nranks"]:
        errors.append(f"n_circuits {max(n_circuits)} > circuits x nranks")
    if s["total_bytes"] != sent:
        errors.append("total_bytes != recomputed send-record bytes")
    return errors


def digest(summary: dict) -> str:
    return hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()[:16]


def pass_answers(p: dict) -> dict[str, str]:
    return {f"{s['app']}_p{s['nranks']}": digest(s) for s in p["results"]}


def check_reps(wl: Workload, reps: list[dict], reference: dict | None) -> dict:
    """Invariants, cold/warm agreement and reference digests of every cell run."""
    attempted, failed, changed = 0, [], []
    cells = [f"{app}_p{wl.nranks}" for app in wl.apps]
    sent = {f"{app}_p{wl.nranks}": sent_bytes(app, wl.nranks) for app in wl.apps}
    for rep in reps:
        cold = pass_answers(rep["cold"])
        for label in ("cold", "warm"):
            p = rep[label]
            attempted += len(cells)
            answers = pass_answers(p)
            problems = {f["cell"]: [f["error"]] for f in p["failed"]}
            for s in p["results"]:
                cell = f"{s['app']}_p{s['nranks']}"
                problems.setdefault(cell, []).extend(broken_invariants(s, sent[cell]))
                if answers[cell] != cold.get(cell):
                    problems[cell].append("answer differs from the cold pass")
            for cell in cells:
                if cell not in answers and cell not in problems:
                    problems[cell] = ["no result"]
            failed += [f"{label} {cell}: {'; '.join(e)}" for cell, e in problems.items() if e]
            changed += [
                f"{label} {cell}" for cell in cells
                if cell in answers and (reference or {}).get(cell) != answers[cell]
            ]
    return {"attempted": attempted, "failed": failed, "changed": changed}


def load_reference(workload: str, seed: int) -> dict | None:
    if not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))


def record_reference(workload: str, seed: int, answers: dict[str, str]) -> None:
    doc = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    doc.setdefault(workload, {})[str(seed)] = answers
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def layer_unit(name: str) -> str:
    suffixes = {"_s": "s", "_mb": "MB", "_pct": "%", "bytes_read": "B", "bytes_written": "B"}
    return next((u for suffix, u in suffixes.items() if name.endswith(suffix)), "count")


def merge_layers(a: dict, b: dict) -> dict:
    """Combine two passes: peaks, sizes and ratios take the max, the rest add."""
    return {
        k: max(a[k], b[k]) if k.endswith(("_mb", "_pct")) else a[k] + b[k] for k in a
    }


def rep_wall(rep: dict) -> float:
    return rep["cold"]["wall_s"] + rep["warm"]["wall_s"]


def report_checks(check: dict) -> None:
    print(f"  cells_attempted  {check['attempted']} count")
    print(f"  cells_failed     {len(check['failed'])} count")
    print(f"  answers_changed  {len(check['changed'])} count")
    for line in check["failed"]:
        print(f"    failed: {line}")
    for line in check["changed"]:
        print(f"    answer changed: {line}")


def untraced(name: str, wl: Workload, seed: int, seconds: float) -> tuple[dict, dict]:
    setup_s = measure_setup()
    reps: list[dict] = []
    t0 = time.perf_counter()
    while not reps or time.perf_counter() - t0 < seconds:
        reps.append(run_rep(wl, seed))
    check = check_reps(wl, reps, load_reference(name, seed))
    metrics = {
        "wall_s": (statistics.median(rep_wall(r) for r in reps), "s"),
        "cold_wall_s": (statistics.median(r["cold"]["wall_s"] for r in reps), "s"),
        "warm_wall_s": (statistics.median(r["warm"]["wall_s"] for r in reps), "s"),
        "peak_rss_mb": (
            max(r[p]["peak_rss_mb"] for r in reps for p in ("cold", "warm")), "MB"
        ),
        "setup_s": (setup_s, "s"),
    }
    print(f"workload {name} seed {seed}: {len(reps)} repetition(s)")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<16s} {value:.4f} {unit}")
    disk_mb = statistics.median(r["disk_bytes"] for r in reps) / MB
    print(f"  {'cache_disk_mb':<16s} {disk_mb:.4f} MB")
    report_checks(check)
    return metrics, check


def traced(name: str, wl: Workload, seed: int) -> tuple[dict, dict, list[str]]:
    plain = run_rep(wl, seed)
    rep = run_rep(wl, seed, trace=True)
    check = check_reps(wl, [plain, rep], load_reference(name, seed))
    problems = []
    for label in ("cold", "warm"):
        if pass_answers(rep[label]) != pass_answers(plain[label]):
            problems.append(f"traced {label} answers differ from untraced")

    layers = merge_layers(rep["cold"]["layers"], rep["warm"]["layers"])
    wall = rep_wall(rep)
    layers["trace.overhead_pct"] = 100.0 * (wall - rep_wall(plain)) / rep_wall(plain)
    self_times = {k: v for k, v in layers.items() if k.endswith(".self_s")}
    negative = [k for k, v in self_times.items() if v < -1e-6]
    missed = abs(sum(self_times.values()) - wall)
    print(f"workload {name} seed {seed}: traced wall {wall:.4f} s")
    print(
        f"  partition: layer self times sum to {sum(self_times.values()):.4f} s "
        f"(off by {missed:.2e} s)"
    )
    if negative or missed > PARTITION_BOUND * wall:
        problems.append(f"partition check failed (negative: {negative}, off by {missed:.4f} s)")
    label, shape_layers, least = wl.shape
    share = sum(layers[f"{layer}.self_s"] for layer in shape_layers) / wall
    verdict = "as expected" if share >= least else "differs from the expected shape"
    print(
        f"  shape: {label} {100 * share:.1f}% of traced wall "
        f"(expected >= {100 * least:.0f}%): {verdict}"
    )
    for key in sorted(layers):
        print(f"  {key:<32s} {layers[key]:.6g}")
    report_checks(check)
    for line in problems:
        print(f"    {line}")
    metrics = {k: (v, layer_unit(k)) for k, v in layers.items()}
    return metrics, check, problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--record", action="store_true",
        help="run one repetition and store its answers as the seed's reference",
    )
    args = ap.parse_args(argv)
    if not (SRC / "hfast" / "pipeline.py").is_file():
        print(f"error: no hfast sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    seed = args.seed % REFERENCE_SEEDS

    if args.record:
        rep = run_rep(wl, seed)
        check = check_reps(wl, [rep], None)
        if check["failed"]:
            report_checks(check)
            return 1
        record_reference(args.workload, seed, pass_answers(rep["cold"]))
        print(f"recorded {args.workload} seed {seed} in {REFERENCE}")
        return 0

    if args.trace:
        metrics, check, problems = traced(args.workload, wl, seed)
    else:
        metrics, check = untraced(args.workload, wl, seed, args.seconds)
        problems = []
    result = {
        "correct": not (check["failed"] or check["changed"] or problems),
        "attempted": check["attempted"],
        "failed": len(check["failed"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
