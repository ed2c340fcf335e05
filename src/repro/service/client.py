"""Stdlib HTTP client for the experiment daemon.

:class:`SweepClient` wraps :mod:`http.client` (no third-party HTTP
stack) and speaks the ``repro/v1`` envelope: every response body is
validated through :func:`~repro.service.envelope.validate_envelope`
before the caller sees it, and error envelopes become
:class:`ServiceError` carrying the typed ``code``, HTTP status, and
``detail`` — so a client-side failure is as diagnosable as a CLI one.

The CLI's ``repro submit``/``status``/``fetch`` subcommands are thin
shells over this class; tests drive it directly against an in-process
or subprocess daemon.
"""

from __future__ import annotations

import json
import socket
import time
from http.client import HTTPConnection
from typing import Dict, Iterator, Optional
from urllib.parse import urlsplit

from ..errors import ReproError
from .envelope import validate_envelope


class ServiceError(ReproError):
    """An error envelope came back from the daemon.

    Carries the typed ``code`` (e.g. ``bad-spec``, ``rate-limited``),
    the HTTP ``status``, the structured ``detail`` dict, and
    ``retry_after_s`` when the server asked us to back off.
    """

    def __init__(self, code: str, error: str, status: int,
                 detail: Optional[dict] = None,
                 retry_after_s: Optional[float] = None) -> None:
        super().__init__(f"[{code}] {error}")
        self.code = code
        self.error = error
        self.status = status
        self.detail = detail or {}
        self.retry_after_s = retry_after_s


class SweepClient:
    """Talk ``repro/v1`` to a running daemon at ``url``.

    One short-lived connection per call (the daemon is threaded; no
    pooling needed at this scale) except :meth:`events`, which holds
    its connection open for the SSE stream.
    """

    def __init__(self, url: str, tenant: str = "anonymous",
                 timeout: float = 60.0) -> None:
        parts = urlsplit(url if "//" in url else f"http://{url}")
        if parts.scheme not in ("", "http"):
            raise ServiceError(
                "bad-request", f"unsupported scheme {parts.scheme!r}", 0
            )
        self.host = parts.hostname or "127.0.0.1"
        self.port = parts.port or 80
        self.tenant = tenant
        self.timeout = timeout

    # -- plumbing -----------------------------------------------------------
    def _connect(self) -> HTTPConnection:
        return HTTPConnection(self.host, self.port, timeout=self.timeout)

    def _request(self, method: str, path: str,
                 body: Optional[dict] = None) -> dict:
        conn = self._connect()
        try:
            headers: Dict[str, str] = {"X-Repro-Tenant": self.tenant}
            payload = None
            if body is not None:
                payload = json.dumps(body, sort_keys=True).encode()
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=payload, headers=headers)
            resp = conn.getresponse()
            raw = resp.read()
            envelope = validate_envelope(raw.decode("utf-8"))
            if envelope["kind"] == "error":
                data = envelope["data"]
                retry_after = resp.getheader("Retry-After")
                raise ServiceError(
                    data["code"], data["error"], resp.status,
                    detail=data.get("detail"),
                    retry_after_s=float(retry_after) if retry_after else None,
                )
            return envelope
        finally:
            conn.close()

    # -- API ----------------------------------------------------------------
    def info(self) -> dict:
        """``GET /v1`` → ``service-info`` envelope."""
        return self._request("GET", "/v1")

    def submit(self, spec: dict) -> dict:
        """``POST /v1/sweeps`` → ``job`` envelope (202).

        ``spec`` is a :class:`~repro.service.jobs.JobSpec` payload:
        ``{"queries": [...], "platforms": [...], "nprocs": [...], ...}``.
        Raises :class:`ServiceError` with the typed code on rejection.
        """
        return self._request("POST", "/v1/sweeps", body=spec)

    def jobs(self) -> dict:
        """``GET /v1/sweeps`` → ``job-list`` envelope."""
        return self._request("GET", "/v1/sweeps")

    def status(self, job_id: str) -> dict:
        """``GET /v1/sweeps/{id}`` → ``job`` envelope."""
        return self._request("GET", f"/v1/sweeps/{job_id}")

    def results(self, job_id: str) -> dict:
        """``GET /v1/sweeps/{id}/results`` → ``sweep-results`` envelope.

        Raises :class:`ServiceError` (``not-ready``, 409) while the job
        is still queued or running.
        """
        return self._request("GET", f"/v1/sweeps/{job_id}/results")

    def wait(self, job_id: str, timeout: float = 300.0) -> dict:
        """Block until the job reaches a terminal state.

        Rides the job's event stream to its ``end`` event — the daemon
        pushes it the moment the job finishes, nothing is polled — and
        returns the final ``job`` envelope; raises
        :class:`ServiceError` (``not-ready``) if ``timeout`` elapses
        first.
        """
        try:
            for record in self._stream(job_id, time.monotonic() + timeout):
                if record["event"] == "end":
                    return validate_envelope(record["data"], kind="job")
        except socket.timeout:
            pass
        # out of time, or the stream closed early (daemon shutting
        # down): the job's own record has the last word
        envelope = self.status(job_id)
        if envelope["data"]["state"] in ("done", "failed"):
            return envelope
        raise ServiceError(
            "not-ready",
            f"job {job_id} still {envelope['data']['state']} "
            f"after {timeout:.0f}s", 409,
        )

    def events(self, job_id: str) -> Iterator[dict]:
        """``GET /v1/sweeps/{id}/events`` as an iterator of SSE records.

        Yields ``{"event": <name>, "data": <parsed envelope>}`` per
        server-sent event, ending after the server's ``end`` event
        (which carries the final ``job`` envelope).
        """
        return self._stream(job_id, None)

    def _stream(self, job_id: str, deadline: Optional[float]) -> Iterator[dict]:
        """The SSE stream; with a ``deadline`` (monotonic seconds) a
        read that would outlast it raises ``socket.timeout`` instead
        of the per-read ``self.timeout`` applying."""
        conn = self._connect()
        try:
            conn.request(
                "GET", f"/v1/sweeps/{job_id}/events",
                headers={"X-Repro-Tenant": self.tenant,
                         "Accept": "text/event-stream"},
            )
            # a ``Connection: close`` reply hands the socket over to the
            # response, so keep our own reference for the deadline
            sock = conn.sock
            resp = conn.getresponse()
            if resp.getheader("Content-Type", "").startswith("application/json"):
                envelope = validate_envelope(resp.read().decode("utf-8"))
                data = envelope["data"]
                raise ServiceError(
                    data.get("code", "internal"), data.get("error", "?"),
                    resp.status, detail=data.get("detail"),
                )
            event_name = "message"
            data_lines = []
            while True:
                if deadline is not None:
                    sock.settimeout(max(deadline - time.monotonic(), 1e-3))
                line = resp.fp.readline()
                if not line:
                    return  # connection closed
                line = line.decode("utf-8").rstrip("\n").rstrip("\r")
                if line.startswith("event:"):
                    event_name = line.split(":", 1)[1].strip()
                elif line.startswith("data:"):
                    data_lines.append(line.split(":", 1)[1].strip())
                elif line == "":
                    if data_lines:
                        payload = json.loads("\n".join(data_lines))
                        yield {"event": event_name, "data": payload}
                        if event_name == "end":
                            return
                    event_name = "message"
                    data_lines = []
        finally:
            conn.close()
