"""Fault-injection harness for scheduler chaos testing.

Faults are declared through the ``HFAST_FAULT_INJECT`` environment
variable (inherited by worker processes), as a comma-separated list of
``mode:cell_key:n`` entries, where ``mode`` is one of

- ``crash`` — SIGKILL the worker process mid-cell (a hard crash the
  parent detects through liveness and re-dispatches);
- ``hang``  — wedge the worker: heartbeats stop and the cell never
  finishes, so the parent's heartbeat timeout must fire;
- ``flaky`` — raise :class:`TransientFault` (an ordinary in-cell failure
  the retry policy absorbs);
- ``slow``  — sleep inside the cell's timed region so the cell succeeds
  but with an inflated wall time (keeps a job in flight long enough
  to observe, e.g. a served job during shutdown);

``cell_key`` is the ``{app}_p{nranks}`` cell name and ``n`` is the number
of leading attempts affected: ``crash:gtc_p16:1`` kills the worker on
attempt 1 only, so the re-dispatched attempt 2 succeeds.

Production runs leave the variable unset; the injection check is one dict
lookup per cell execution.
"""

from __future__ import annotations

import os
import signal
import threading
import time

FAULT_ENV_VAR = "HFAST_FAULT_INJECT"
FAULT_MODES = ("crash", "hang", "flaky", "slow")

_HANG_SECONDS = 3600.0
_SLOW_SECONDS = 1.0  # tests monkeypatch this down


class TransientFault(RuntimeError):
    """An injected failure that a retry is expected to absorb."""


class FaultSpecError(ValueError):
    """A malformed fault-injection spec string."""


def parse_fault_spec(spec: str | None) -> dict[str, tuple[str, int]]:
    """Parse ``mode:cell:n[,mode:cell:n...]`` into {cell: (mode, n)}."""
    faults: dict[str, tuple[str, int]] = {}
    if not spec:
        return faults
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        parts = entry.split(":")
        if len(parts) != 3:
            raise FaultSpecError(f"expected mode:cell:n, got {entry!r}")
        mode, cell, n_s = parts
        if mode not in FAULT_MODES:
            raise FaultSpecError(f"unknown fault mode {mode!r} (expected one of {FAULT_MODES})")
        try:
            n = int(n_s)
        except ValueError as exc:
            raise FaultSpecError(f"attempt count must be an integer, got {n_s!r}") from exc
        if n < 0:
            raise FaultSpecError(f"attempt count must be non-negative, got {n}")
        faults[cell] = (mode, n)
    return faults


def maybe_inject(cell_key: str, attempt: int, wedge: threading.Event | None = None) -> None:
    """Fire the configured fault for (cell, attempt), if any.

    Called by the worker harness just before a cell executes. ``crash``
    SIGKILLs the calling process; ``hang`` sets ``wedge`` (silencing the
    worker's heartbeat thread, simulating a fully wedged process) and
    sleeps until the parent kills us; ``flaky`` raises
    :class:`TransientFault` for the retry path to absorb.
    """
    spec = os.environ.get(FAULT_ENV_VAR)
    if not spec:
        return
    fault = parse_fault_spec(spec).get(cell_key)
    if fault is None:
        return
    mode, n = fault
    if attempt > n:
        return
    if mode == "crash":
        os.kill(os.getpid(), signal.SIGKILL)
    elif mode == "hang":
        if wedge is not None:
            wedge.set()
        time.sleep(_HANG_SECONDS)
    elif mode == "flaky":
        raise TransientFault(f"injected transient fault for {cell_key} attempt {attempt}")
    # "slow" fires from inject_slow() inside the cell's timed region instead:
    # sleeping here would not inflate the wall time execute_cell measures.


def inject_slow(cell_key: str, attempt: int) -> None:
    """Fire a configured ``slow`` fault for (cell, attempt), if any.

    Called from inside the cell's measured window (so the delay shows up
    in the cell's ``wall_s``). No-op for every other fault mode.
    """
    spec = os.environ.get(FAULT_ENV_VAR)
    if not spec:
        return
    fault = parse_fault_spec(spec).get(cell_key)
    if fault is not None and fault[0] == "slow" and attempt <= fault[1]:
        time.sleep(_SLOW_SECONDS)
