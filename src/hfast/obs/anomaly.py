"""Online straggler and regression detection for pipeline cells.

The paper's methodology depends on spotting the cells that dominate a
sweep. This module scores each cell's elapsed wall time two ways:

- **Straggler** — against the scheduler's analytic cost model
  (:func:`hfast.sched.cost.estimate_cell_cost`). Analytic costs are
  unitless, so the detector fits the seconds-per-cost-unit scale
  *online*: each completed cell contributes its ``wall / analytic``
  ratio, and a cell is flagged when its wall time exceeds
  ``threshold ×`` the median-ratio prediction. The first
  ``min_prior`` cells are never flagged (cold start), and neither is
  anything faster than ``min_wall`` — millisecond cells are all noise.
- **Regression** — against the newest ``BENCH_*.json`` snapshot: a cell
  measured at ``w`` seconds in a prior run that now takes more than
  ``regress_factor × w`` is flagged, same ``min_wall`` guard. BENCH
  baselines travel across machines, so the factor is deliberately slack.

Scoring happens at merge time in cell-definition order, so the emitted
``anomaly`` trace events are deterministic for a given set of wall
times; the ``--mitigate`` scheduler loop additionally calls
:meth:`AnomalyDetector.check_running` against cells still in flight. Anomaly events are wall-clock-derived by
construction and are excluded (like ``wall_s`` itself) from the
byte-identity determinism contract.
"""

from __future__ import annotations

import bisect
from typing import Any

from hfast.sched.cost import estimate_cell_cost, load_bench_measurements

DEFAULT_THRESHOLD = 4.0
DEFAULT_REGRESS_FACTOR = 10.0
DEFAULT_MIN_WALL = 0.25
DEFAULT_MIN_PRIOR = 3


class AnomalyDetector:
    """Scores cell wall times online; returns structured anomaly records."""

    def __init__(
        self,
        measured: dict[tuple[str, int], float] | None = None,
        threshold: float = DEFAULT_THRESHOLD,
        regress_factor: float = DEFAULT_REGRESS_FACTOR,
        min_wall: float = DEFAULT_MIN_WALL,
        min_prior: int = DEFAULT_MIN_PRIOR,
    ):
        self.measured = dict(measured or {})
        self.threshold = threshold
        self.regress_factor = regress_factor
        self.min_wall = min_wall
        self.min_prior = min_prior
        self._ratios: list[float] = []  # kept sorted; wall / analytic per observed cell

    @classmethod
    def from_bench_dir(cls, bench_dir: Any, **kwargs: Any) -> "AnomalyDetector":
        """Detector whose regression baseline is the newest BENCH snapshot."""
        return cls(measured=load_bench_measurements(bench_dir), **kwargs)

    @property
    def observed_cells(self) -> int:
        return len(self._ratios)

    def _median_ratio(self) -> float | None:
        # max(1, min_prior): even with min_prior=0 a median needs at least
        # one sample — indexing an empty list was a crash (regression test
        # in test_anomaly.py).
        if len(self._ratios) < max(1, self.min_prior):
            return None
        n = len(self._ratios)
        mid = n // 2
        if n % 2:
            return self._ratios[mid]
        return 0.5 * (self._ratios[mid - 1] + self._ratios[mid])

    def expected(self, app: str, nranks: int) -> float | None:
        """Predicted wall seconds for a cell, or None before warm-up.

        Also None when the analytic model has no cost for the cell
        (unknown app, or a degenerate zero estimate): with no prediction
        there is nothing meaningful to compare against.
        """
        scale = self._median_ratio()
        if scale is None:
            return None
        analytic = estimate_cell_cost(app, nranks)
        if analytic <= 0:
            return None
        return analytic * scale

    def observe(
        self, app: str, nranks: int, wall_s: float, attempts: int = 1, ok: bool = True
    ) -> list[dict[str, Any]]:
        """Score one completed cell; fold it into the online fit.

        Failed cells are neither scored nor fitted — their wall time
        measures the fault, not the workload. Returns zero, one, or two
        anomaly records (a cell can be both a straggler and a
        regression).
        """
        if not ok:
            return []
        cell = f"{app}_p{nranks}"
        anomalies: list[dict[str, Any]] = []

        expected = self.expected(app, nranks)
        if (
            expected is not None
            and expected > 0
            and wall_s >= self.min_wall
            and wall_s > self.threshold * expected
        ):
            anomalies.append(
                {
                    "kind": "straggler",
                    "cell": cell,
                    "app": app,
                    "nranks": nranks,
                    "wall_s": round(wall_s, 6),
                    "expected_s": round(expected, 6),
                    "ratio": round(wall_s / expected, 3),
                    "attempts": attempts,
                }
            )

        baseline = self.measured.get((app, nranks))
        if (
            baseline is not None
            and baseline > 0
            and wall_s >= self.min_wall
            and wall_s > self.regress_factor * baseline
        ):
            anomalies.append(
                {
                    "kind": "regression",
                    "cell": cell,
                    "app": app,
                    "nranks": nranks,
                    "wall_s": round(wall_s, 6),
                    "expected_s": round(baseline, 6),
                    "ratio": round(wall_s / baseline, 3),
                    "attempts": attempts,
                }
            )

        analytic = estimate_cell_cost(app, nranks)
        if analytic > 0 and wall_s > 0:
            # Clamp the fitted ratio: a pathological wall/cost pair (e.g. a
            # near-zero analytic estimate) must not blow the median out to
            # inf/0 and poison every later expected() prediction.
            ratio = min(max(wall_s / analytic, 1e-9), 1e9)
            bisect.insort(self._ratios, ratio)
        return anomalies

    def check_running(self, app: str, nranks: int, elapsed_s: float) -> dict[str, Any] | None:
        """In-flight advisory: is a still-running cell already overdue?

        Same rule as the straggler score but against elapsed (not final)
        wall time; does not touch the online fit. The ``--mitigate``
        policy uses it to act on stragglers before they finish.
        """
        expected = self.expected(app, nranks)
        if (
            expected is not None
            and expected > 0
            and elapsed_s >= self.min_wall
            and elapsed_s > self.threshold * expected
        ):
            return {
                "kind": "straggler_running",
                "cell": f"{app}_p{nranks}",
                "app": app,
                "nranks": nranks,
                "wall_s": round(elapsed_s, 6),
                "expected_s": round(expected, 6),
                "ratio": round(elapsed_s / expected, 3),
            }
        return None
