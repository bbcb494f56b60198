"""Closed-loop straggler mitigation for the work-stealing scheduler.

The online :class:`~hfast.obs.anomaly.AnomalyDetector`'s in-flight
``straggler_running`` advisories are fed back into the scheduler as
actions, gated behind ``--mitigate``:

- **Speculative re-dispatch** — a flagged in-flight cell is duplicated
  onto an idle (or newly spawned) worker; whichever attempt finishes
  first wins and the loser is killed. Safe because cell execution is
  idempotent and cache writes are atomic (tmp + ``os.replace``), so a
  killed duplicate can never publish a torn artifact.
- **Cost-model reweighting** — once an app produces a straggler
  advisory, that app's still-queued cells have their priority scaled by
  the observed overrun ratio, so the slow family is dispatched earlier
  and overlaps with the rest of the sweep.

Determinism guarantee: mitigation only changes *which worker runs a cell
when*. Results, cache contents, trace-tree invariants, and report bytes
are identical to a non-mitigated run — exactly the contract the existing
byte-identity harness pins, and `tests/test_mitigation.py` extends it to
``--mitigate``.
"""

from __future__ import annotations

from typing import Any

DEFAULT_MIN_ADVISORY_GAP = 0.0  # re-advise immediately; scheduler dedups per cell


class MitigationPolicy:
    """Turns in-flight straggler advisories into scheduler hints.

    The scheduler calls :meth:`note_done` for every finished attempt (to
    warm the detector's online fit the same way the merge path does) and
    :meth:`advise` for every busy cell each poll tick; a non-``None``
    return is the hint to speculate. ``stats`` is folded into the run
    manifest's scheduler block.
    """

    def __init__(self, detector: Any):
        self.detector = detector
        self._reweighted_apps: set[str] = set()
        self.stats: dict[str, Any] = {
            "enabled": True,
            "advisories": 0,
            "speculative_dispatches": 0,
            "speculation_wins": 0,
            "speculation_losses": 0,
            "reweighted_cells": 0,
        }

    @classmethod
    def from_bench_dir(cls, bench_dir: Any, threshold: float | None = None) -> "MitigationPolicy":
        # Lazy import: hfast.obs.anomaly itself imports hfast.sched at
        # load time, so a module-level import here would be circular.
        from hfast.obs.anomaly import AnomalyDetector

        kwargs = {"threshold": threshold} if threshold else {}
        return cls(AnomalyDetector.from_bench_dir(bench_dir, **kwargs))

    def note_done(self, app: str, nranks: int, wall_s: float, ok: bool) -> None:
        """Fold a finished attempt into the detector's online fit."""
        self.detector.observe(app, nranks, wall_s, ok=ok)

    def advise(self, app: str, nranks: int, elapsed_s: float) -> dict[str, Any] | None:
        """Advisory for an in-flight cell, or None while it looks healthy."""
        adv = self.detector.check_running(app, nranks, elapsed_s)
        if adv is not None:
            self.stats["advisories"] += 1
        return adv

    def should_reweight(self, app: str) -> bool:
        """True exactly once per app: reweight its queued siblings."""
        if app in self._reweighted_apps:
            return False
        self._reweighted_apps.add(app)
        return True
