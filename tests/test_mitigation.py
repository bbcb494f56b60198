"""Closed-loop straggler mitigation (``--mitigate``).

Two acceptance bars from the issue:

1. **Byte identity** — a mitigated chaos run (speculative re-dispatch
   included) reproduces the clean serial artifacts byte-for-byte:
   results, trace invariants, metrics, report, cache digests.
2. **Recovery** — with a straggler injected into the first-dispatched
   cell, the mitigated run finishes measurably faster than the
   unmitigated one, because the duplicate attempt escapes the fault.
"""

import hashlib
import time

from hfast.obs.profile import Observability
from hfast.obs.report import build_report
from hfast.pipeline import run_pipeline
from hfast.sched import faults
from hfast.sched.faults import FAULT_ENV_VAR
from hfast.sched.mitigate import MitigationPolicy
from test_fault_injection import SCHED_FIELDS, comparable
from test_parallel_determinism import normalize

APPS = ["cactus", "gtc", "lbmhd", "paratec"]
SCALES = {app: [8] for app in APPS}

# Event kinds that are wall-clock-derived by construction and therefore
# excluded (like wall_s itself) from the byte-identity contract.
CLOCK_EVENTS = {"sched_task", "sched_worker", "anomaly", "cell_timing"}

# Per-span attempt tags are scheduler bookkeeping, like the cell-level
# "attempts" count the fault-injection tests already scrub.
SCRUB_FIELDS = SCHED_FIELDS | {"attempt"}

# At p8, cactus has the largest analytic cost, so the stealing scheduler
# dispatches it first — slowing it leaves the other three cells free to
# warm the online fit before the advisory check can fire.
SLOW_CELL = "cactus_p8"




def scrub(node):
    if isinstance(node, dict):
        return {k: scrub(v) for k, v in node.items() if k not in SCRUB_FIELDS}
    if isinstance(node, list):
        return [scrub(v) for v in node]
    return node


def run_sweep(cache_dir, **kwargs):
    """One profiled sweep, reduced to its timing-free comparable parts."""
    obs = Observability(enabled=True)
    out = run_pipeline(
        apps=APPS, scales=SCALES, cache_dir=str(cache_dir), obs=obs,
        argv=["test"], bench_dir=None, **kwargs,
    )
    out["trace"] = [
        scrub(normalize(ev, strip_paths=True))
        for ev in obs.events
        if ev.get("event") not in CLOCK_EVENTS
    ]
    out["metrics"] = {
        k: v for k, v in obs.metrics.to_dict().items() if not k.startswith("sched.")
    }
    out["report"] = build_report(obs.events)
    return out


def cache_digests(cache_dir):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(cache_dir.glob("*.json"))
    }


def assert_identical(a, b, dir_a, dir_b):
    assert a["results"] == b["results"]
    assert a["trace"] == b["trace"]
    assert a["metrics"] == b["metrics"]
    assert comparable(a) == comparable(b)
    assert scrub(normalize(a["manifest"], strip_paths=True)) == scrub(
        normalize(b["manifest"], strip_paths=True)
    )
    assert cache_digests(dir_a) == cache_digests(dir_b)


# ---------------------------------------------------------------------------
# Policy units


class FakeDetector:
    def __init__(self, advisory=None):
        self.advisory = advisory
        self.observed = []

    def observe(self, app, nranks, wall_s, ok=True):
        self.observed.append((app, nranks, wall_s, ok))

    def check_running(self, app, nranks, elapsed_s):
        return self.advisory


def test_policy_counts_advisories():
    pol = MitigationPolicy(FakeDetector({"kind": "straggler_running", "ratio": 5.0}))
    assert pol.advise("cactus", 8, 1.0) is not None
    assert pol.advise("cactus", 8, 2.0) is not None
    assert pol.stats["advisories"] == 2


def test_policy_healthy_cells_not_counted():
    pol = MitigationPolicy(FakeDetector(None))
    assert pol.advise("cactus", 8, 1.0) is None
    assert pol.stats["advisories"] == 0


def test_policy_reweights_each_app_once():
    pol = MitigationPolicy(FakeDetector())
    assert pol.should_reweight("cactus") is True
    assert pol.should_reweight("cactus") is False
    assert pol.should_reweight("gtc") is True


def test_policy_note_done_feeds_the_fit():
    det = FakeDetector()
    MitigationPolicy(det).note_done("gtc", 8, 0.5, ok=True)
    assert det.observed == [("gtc", 8, 0.5, True)]


def test_policy_from_bench_dir_builds_real_detector():
    pol = MitigationPolicy.from_bench_dir(None, threshold=3.0)
    assert pol.detector.threshold == 3.0
    assert pol.detector.measured == {}


def test_mitigate_requires_stealing_backend(tmp_path):
    """Mitigation acts inside the stealing scheduler, so even a one-worker
    mitigated run goes through it."""
    out = run_pipeline(apps=["gtc"], scales={"gtc": [8]}, cache_dir=str(tmp_path / "c"),
                       argv=["test"], bench_dir=None, mitigate=True)
    sched = out["manifest"]["scheduler"]
    assert sched["backend"] == "stealing" and sched["mitigation"]["enabled"] is True
    assert out["manifest"]["failed_cells"] == []


# ---------------------------------------------------------------------------
# End-to-end acceptance


def test_mitigated_chaos_run_is_byte_identical_to_clean_serial(tmp_path, monkeypatch):
    """Speculative re-dispatch really fires, the duplicate wins, the
    killed loser leaks nothing — and every artifact matches a clean
    serial run byte-for-byte."""
    serial = run_sweep(tmp_path / "serial")

    monkeypatch.setattr(faults, "_SLOW_SECONDS", 1.5)
    monkeypatch.setenv(FAULT_ENV_VAR, f"slow:{SLOW_CELL}:1")
    mitigated = run_sweep(
        tmp_path / "mit", workers=2,
        retry_backoff=0.01, mitigate=True,
    )

    stats = mitigated["manifest"]["scheduler"]["mitigation"]
    assert stats["enabled"] is True
    assert stats["advisories"] >= 1
    assert stats["speculative_dispatches"] >= 1
    assert stats["speculation_wins"] >= 1
    assert mitigated["manifest"]["failed_cells"] == []
    by_key = {f"{c['app']}_p{c['nranks']}": c for c in mitigated["manifest"]["cells"]}
    assert by_key[SLOW_CELL]["attempts"] == 2  # original + speculative duplicate

    assert_identical(mitigated, serial, tmp_path / "mit", tmp_path / "serial")


def test_mitigation_recovers_straggler_wall_time(tmp_path, monkeypatch):
    """Timing-tolerant speedup check: the unmitigated run eats the full
    injected delay; the mitigated run's duplicate escapes it."""
    monkeypatch.setattr(faults, "_SLOW_SECONDS", 2.0)
    monkeypatch.setenv(FAULT_ENV_VAR, f"slow:{SLOW_CELL}:1")

    t0 = time.monotonic()
    plain = run_sweep(tmp_path / "off", workers=2,
                      retry_backoff=0.01)
    t_plain = time.monotonic() - t0

    t0 = time.monotonic()
    mitigated = run_sweep(tmp_path / "on", workers=2,
                          retry_backoff=0.01, mitigate=True)
    t_mitigated = time.monotonic() - t0

    # Same answers either way; only the wall clock moves.
    assert plain["results"] == mitigated["results"]
    stats = mitigated["manifest"]["scheduler"]["mitigation"]
    assert stats["speculative_dispatches"] >= 1
    assert stats["speculation_wins"] >= 1

    assert t_plain >= 2.0  # the straggler pinned the unmitigated run
    assert t_mitigated < 0.75 * t_plain, (
        f"mitigation did not recover the straggler: {t_mitigated:.2f}s "
        f"vs {t_plain:.2f}s unmitigated"
    )


def test_unmitigated_stealing_run_reports_no_mitigation_block(tmp_path):
    out = run_sweep(tmp_path / "c", workers=2)
    assert "mitigation" not in out["manifest"]["scheduler"]
