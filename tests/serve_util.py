"""Shared helpers for the serve-daemon test suites.

Boots the real daemon in-process (:class:`ServiceThread`) on an
ephemeral port and talks to it over actual sockets with
``http.client`` — the tests exercise the wire protocol, not internal
method calls.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any

from hfast.serve.daemon import ServeConfig, ServiceThread

__all__ = ["ServeConfig", "ServiceThread", "make_config", "request", "wait_for_job"]


def make_config(tmp_path, **overrides: Any) -> ServeConfig:
    """Daemon config against throwaway dirs.

    Every job runs under the work-stealing scheduler with a journal, as
    in production: its cells run in a forked worker, which inherits the
    fault-injection environment and any ``_SLOW_SECONDS`` monkeypatch.
    """
    kwargs: dict[str, Any] = {
        "port": 0,
        "cache_dir": str(tmp_path / "cache"),
        "serve_dir": str(tmp_path / "serve"),
        "bench_dir": None,
    }
    kwargs.update(overrides)
    return ServeConfig(**kwargs)


def request(
    port: int,
    method: str,
    path: str,
    body: dict | None = None,
    raw_body: bytes | None = None,
    timeout: float = 60.0,
) -> tuple[int, dict[str, str], bytes]:
    """One HTTP exchange; returns (status, lowercase headers, body bytes)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = raw_body if raw_body is not None else (
            json.dumps(body).encode("utf-8") if body is not None else None
        )
        conn.request(method, path, body=payload)
        resp = conn.getresponse()
        headers = {k.lower(): v for k, v in resp.getheaders()}
        return resp.status, headers, resp.read()
    finally:
        conn.close()


def wait_for_job(port: int, job_id: str, timeout: float = 120.0) -> dict[str, Any]:
    """Poll ``GET /v1/jobs/<id>`` until the job reaches a terminal state."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, _, raw = request(port, "GET", f"/v1/jobs/{job_id}")
        assert status == 200, raw
        doc = json.loads(raw)
        if doc.get("status") in ("done", "failed"):
            return doc
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish within {timeout}s")
