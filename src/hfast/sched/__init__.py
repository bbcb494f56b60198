"""Fault-tolerant work-stealing scheduler for the (app, scale) cell matrix.

The subsystem replaces static cell partitioning with a cost-model-driven
shared queue: idle workers steal the largest remaining cell, transient
failures retry with exponential backoff, crashed or hung workers are
detected (liveness + heartbeats) and their cells re-dispatched, and a
run-state journal makes long campaigns resumable with ``--resume``.

Modules:

- :mod:`hfast.sched.cost` — per-cell cost estimates from the synthesizer
  record-count formulas, calibrated against prior ``BENCH_*.json`` runs.
- :mod:`hfast.sched.faults` — the fault-injection harness used by the
  chaos tests and CI (crash / hang / flaky, per cell, per attempt).
- :mod:`hfast.sched.journal` — append-only JSONL run journal; completed
  cells replay from it on resume, byte-identical to an uninterrupted run.
- :mod:`hfast.sched.scheduler` — the work-stealing executor itself, and
  :func:`cell_runner`, which decides whether a run's cells stay in the
  calling process or go through it.
"""

from hfast.sched.cost import CostModel, estimate_cell_records
from hfast.sched.faults import FAULT_ENV_VAR, TransientFault, parse_fault_spec
from hfast.sched.journal import DEFAULT_JOURNAL_SUBDIR, JournalError, RunJournal, new_run_id
from hfast.sched.scheduler import SchedulerConfig, SchedulerError, cell_runner, run_stealing

__all__ = [
    "CostModel",
    "estimate_cell_records",
    "FAULT_ENV_VAR",
    "TransientFault",
    "parse_fault_spec",
    "DEFAULT_JOURNAL_SUBDIR",
    "JournalError",
    "RunJournal",
    "new_run_id",
    "SchedulerConfig",
    "SchedulerError",
    "cell_runner",
    "run_stealing",
]
