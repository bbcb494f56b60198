"""The executor selection rule of :func:`hfast.sched.cell_runner`.

A run with one worker and no ``journal_dir``, ``resume`` or ``run_id``
runs its cells in the calling process; every other run goes through the
work-stealing scheduler and journals.
"""

import os
from pathlib import Path

import pytest

from hfast.obs.profile import Observability
from hfast.pipeline import run_pipeline


def run(cache_dir, **kwargs):
    """One gtc@8 run; returns its manifest scheduler block and cell pids."""
    obs = Observability(enabled=True)
    out = run_pipeline(
        apps=["gtc"], scales={"gtc": [8]}, cache_dir=str(cache_dir), obs=obs,
        argv=["test"], bench_dir=None, **kwargs,
    )
    assert out["manifest"]["failed_cells"] == []
    pids = [e["pid"] for e in obs.events if e["event"] == "cell_timing"]
    return out["manifest"]["scheduler"], pids


def test_one_worker_without_journal_inputs_runs_in_process(tmp_path):
    sched, pids = run(tmp_path / "c", workers=1)
    assert sched == {"backend": "serial"}
    assert pids == [os.getpid()]
    assert not (tmp_path / "c" / ".sched_journal").exists()


def test_two_workers_run_under_stealing(tmp_path):
    sched, pids = run(tmp_path / "c", workers=2)
    assert sched["backend"] == "stealing" and sched["workers"] == 2
    assert len(pids) == 1 and pids[0] != os.getpid()
    # No journal_dir given: the journal goes beside the cache.
    assert Path(sched["journal"]).parent == tmp_path / "c" / ".sched_journal"


@pytest.mark.parametrize("given", ["journal_dir", "run_id", "resume"])
def test_journal_inputs_move_one_worker_onto_stealing(tmp_path, given):
    cache_dir = tmp_path / "c"
    kwargs = {
        "journal_dir": {"journal_dir": str(tmp_path / "j")},
        "run_id": {"run_id": "r-pinned"},
    }.get(given)
    if given == "resume":
        first, _ = run(cache_dir, workers=2)
        kwargs = {"resume": first["run_id"]}
    sched, pids = run(cache_dir, workers=1, **kwargs)
    assert sched["backend"] == "stealing" and sched["workers"] == 1
    assert pids[0] != os.getpid()
    assert sched["resumed"] is (given == "resume")
    if given == "journal_dir":
        assert Path(sched["journal"]).parent == tmp_path / "j"
    if given == "run_id":
        assert sched["run_id"] == "r-pinned"
    if given == "resume":
        assert sched["cells_from_journal"] == 1
