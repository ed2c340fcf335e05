"""The experiment daemon: ``repro serve``.

A long-running stdlib HTTP server (``ThreadingHTTPServer``) in front of
the sweep engine.  The HTTP surface is versioned under ``/v1`` and
every response body is a ``repro/v1`` envelope
(:mod:`repro.service.envelope`):

==========================================  ================================
``GET  /v1``                                service identity, queue stats,
                                            rate-limit policy
                                            (``service-info``)
``POST /v1/sweeps``                         submit a :class:`~repro.service
                                            .jobs.JobSpec` payload; ``202``
                                            + ``job`` envelope, typed 4xx
                                            on a bad spec, ``429`` +
                                            ``Retry-After`` under rate
                                            limiting or backpressure
``GET  /v1/sweeps``                         every known job (``job-list``)
``GET  /v1/sweeps/{id}``                    one job (``job``)
``GET  /v1/sweeps/{id}/results``            the finished grid
                                            (``sweep-results``; ``409
                                            not-ready`` while running)
``GET  /v1/sweeps/{id}/events``             the job's sweep events as
                                            Server-Sent Events, replayed
                                            from the start and followed
                                            live until the job finishes
==========================================  ================================

Design decisions, in terms of the layers underneath:

* **One worker thread** drains the FIFO queue, so submission order is
  execution order and every job sees the cells of its predecessors in
  the shared content-addressed :class:`~repro.core.resultcache
  .ResultCache` — identical cells across tenants are computed exactly
  once (asserted by ``tests/test_service.py`` with cache-hit
  counters).  Within a job, parallelism is the executor's business:
  the daemon passes its ``--jobs``/``--hosts`` configuration through
  :func:`~repro.core.executors.select_executor`, so serial runs and
  fleets of local or remote hosts all serve.
* **Crash recovery is checkpoint-backed.**  Every job is journaled to
  disk on each state change, and every sweep runs under a
  :class:`~repro.core.resilience.CheckpointManifest` next to the
  result cache.  A ``kill -9``'d daemon restarted on the same data
  directory re-enqueues in-flight jobs and recomputes only unfinished
  cells — bitwise-identical to an uninterrupted run.
* **Results are spec-determined bytes.**  ``GET .../results`` builds
  its payload purely from the spec and the result cache (canonical key
  order, no job ids or timestamps inside ``data``), so two jobs with
  the same spec — or the same job before and after a daemon crash —
  fetch byte-identical documents.
* **Events stream from the bus.**  The engine's
  :data:`~repro.obs.bus.SWEEP_EVENTS` are journaled per job by
  :class:`~repro.obs.sinks.SweepEventJournal` and bridged to SSE, so
  dispatch/heartbeat/retry/requeue/host-loss are visible to clients in
  order, and the stream survives a daemon restart (the journal file is
  the stream).
* **Nothing polls.**  The idle worker, every SSE follower and shutdown
  block on one condition, :attr:`JobQueue.changed
  <repro.service.jobs.JobQueue.changed>`, which every job state change
  and every journal append notifies under the queue lock.  A follower
  that sees a terminal state under that lock has therefore already
  been handed every event that preceded it, and a warm submission is
  picked up, journaled and announced as fast as the threads can be
  scheduled.
"""

from __future__ import annotations

import json
import os
import signal
import threading
from contextlib import closing
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, List, Optional

from .._version import __version__
from ..errors import ConfigError, UnknownPlatformError
from ..core.executors import select_executor
from ..core.parallel import ParallelSweepRunner
from ..core.resilience import CheckpointManifest, RetryPolicy, key_str
from ..core.resultcache import ResultCache, result_to_dict, spec_fingerprint
from ..core.sweep import normalize_cell
from ..core.wire import MAX_FRAME
from ..obs.sinks import SweepEventJournal
from .envelope import (
    dump_envelope,
    error_envelope,
    error_status,
    make_envelope,
)
from .jobs import Job, JobQueue, JobSpec, QueueFullError, RateLimitedError

#: Largest request body ``POST /v1/sweeps`` reads: the bound the wire
#: protocol already puts on a frame from a peer.
MAX_BODY = MAX_FRAME


class _JobJournal(SweepEventJournal):
    """A job's event journal that appends under the queue lock and
    wakes whoever follows the job."""

    def __init__(self, path, changed: threading.Condition) -> None:
        super().__init__(path)
        self._changed = changed

    def _record(self, event: str, *args) -> None:
        with self._changed:
            super()._record(event, *args)
            self._changed.notify_all()


class ReproService:
    """Everything behind the HTTP surface: queue, worker, result store.

    Separated from the HTTP handler so tests can drive the service
    in-process (submit/run/fetch without sockets) and the handler
    stays a thin codec.
    """

    def __init__(
        self,
        data_dir,
        jobs: Optional[int] = 1,
        hosts=None,
        trace_cache: bool = False,
        max_depth: int = 64,
        rate_per_s: float = 10.0,
        burst: int = 20,
        retries: int = 3,
        timeout_s: Optional[float] = None,
    ) -> None:
        self.data_dir = Path(data_dir)
        self.cache_dir = self.data_dir / "cache"
        self.events_dir = self.data_dir / "events"
        self.jobs = jobs
        self.hosts = hosts
        self.trace_cache = trace_cache
        self.retries = retries
        self.timeout_s = timeout_s
        self.queue = JobQueue(
            self.data_dir, max_depth=max_depth,
            rate_per_s=rate_per_s, burst=burst,
        )
        self.started_jobs = 0
        self._worker: Optional[threading.Thread] = None
        #: The shared multi-tenant result store.  One instance for
        #: reads; each job's runner opens its own handle on the same
        #: directory (hit/miss counters are per-handle, per-job).
        self.cache = ResultCache(self.cache_dir)

    # -- lifecycle ----------------------------------------------------------
    def recover(self) -> List[Job]:
        """Reload the job journal; called once before serving."""
        return self.queue.recover()

    def start_worker(self) -> None:
        self._worker = threading.Thread(
            target=self._work_loop, name="repro-service-worker", daemon=True
        )
        self._worker.start()

    def stop(self) -> None:
        """Close the queue — the idle worker and every SSE follower
        wake and leave — and wait for a running job to finish."""
        self.queue.close()
        if self._worker is not None:
            self._worker.join(timeout=10)

    def _work_loop(self) -> None:
        while True:
            job = self.queue.next_job()
            if job is None:
                return  # closed
            self.run_job(job)

    # -- execution ----------------------------------------------------------
    def journal_path(self, job_id: str) -> Path:
        return self.events_dir / f"{job_id}.jsonl"

    def run_job(self, job: Job) -> None:
        """Run one job's grid through the resilient sweep engine."""
        self.started_jobs += 1
        spec = job.spec
        keys = [normalize_cell(c) for c in spec.cells()]
        try:
            trace_store = None
            if self.trace_cache:
                from ..trace.store import TraceStore

                trace_store = TraceStore(self.cache_dir / "traces")
            runner = ParallelSweepRunner(
                sim=spec.sim(), tpch=spec.tpch(),
                cache=ResultCache(self.cache_dir),
                executor=select_executor(jobs=self.jobs, hosts=self.hosts),
                trace_store=trace_store,
            )
            manifest = CheckpointManifest.open(
                self.cache_dir, keys,
                [spec_fingerprint(runner._spec(k)) for k in keys],
            )
            with closing(_JobJournal(
                self.journal_path(job.id), self.queue.changed
            )) as journal:
                report = runner.execute(
                    keys,
                    policy=RetryPolicy(max_attempts=self.retries),
                    timeout_s=self.timeout_s,
                    manifest=manifest,
                    sinks=[journal],
                )
        except Exception as exc:  # a job must never take the daemon down
            self.queue.finish(job, error=repr(exc))
            return
        payload = report.to_dict()
        payload["cache"] = runner.cache_stats
        payload["trace_sources"] = dict(runner.trace_sources)
        error = None
        if not report.ok:
            error = (
                f"{len(report.failed)} cell(s) quarantined "
                f"(first: {report.failed[0].error})"
            )
        self.queue.finish(job, report=payload, error=error)

    # -- payload builders ---------------------------------------------------
    def service_info(self) -> dict:
        return make_envelope("service-info", {
            "service": "repro",
            "version": __version__,
            "api": ["/v1", "/v1/sweeps"],
            "executor": {
                "jobs": self.jobs,
                "hosts": self.hosts,
                "trace_cache": self.trace_cache,
            },
            "queue": self.queue.stats(),
            "cache": {"entries": len(self.cache)},
            "jobs_started": self.started_jobs,
        })

    def job_envelope(self, job: Job) -> dict:
        data = job.to_dict()
        data.pop("format", None)
        data["links"] = {
            "self": f"/v1/sweeps/{job.id}",
            "results": f"/v1/sweeps/{job.id}/results",
            "events": f"/v1/sweeps/{job.id}/events",
        }
        return make_envelope("job", data)

    def results_envelope(self, job: Job) -> dict:
        """The finished grid, spec-determined: built purely from the
        spec and the shared cache, canonical order, nothing job- or
        time-scoped inside ``data`` — so identical specs fetch
        identical bytes, whoever submitted them and however often the
        daemon restarted in between."""
        spec = job.spec
        runner = ParallelSweepRunner(
            sim=spec.sim(), tpch=spec.tpch(),
            cache=ResultCache(self.cache_dir), executor=None,
        )
        cells: Dict[str, dict] = {}
        missing: List[str] = []
        for key in [normalize_cell(c) for c in spec.cells()]:
            result = runner.cache.get(runner._spec(key))
            if result is None:
                missing.append(key_str(key))
            else:
                cells[key_str(key)] = result_to_dict(result)
        data = {"spec": spec.to_dict(), "cells": cells}
        if missing:
            data["missing"] = missing
        return make_envelope("sweep-results", data)

    # -- submission ---------------------------------------------------------
    def submit(self, tenant: str, payload: dict) -> Job:
        """Validate and admit one submission (raises the taxonomy)."""
        spec = JobSpec.from_payload(payload)
        return self.queue.submit(tenant, spec)


def classify_submit_error(exc: Exception) -> dict:
    """Map the validation/admission taxonomy onto typed error
    envelopes — the HTTP face of the same errors the CLI maps to exit
    code 2."""
    if isinstance(exc, RateLimitedError):
        return error_envelope(
            "rate-limited", str(exc),
            {"tenant": exc.tenant, "retry_after_s": exc.retry_after_s},
        )
    if isinstance(exc, QueueFullError):
        return error_envelope(
            "queue-full", str(exc),
            {"depth": exc.depth, "retry_after_s": exc.retry_after_s},
        )
    if isinstance(exc, UnknownPlatformError):
        detail = {"platform": exc.name, "known": list(exc.known)}
        if exc.suggestion:
            detail["suggestion"] = exc.suggestion
        return error_envelope("unknown-platform", str(exc), detail)
    if isinstance(exc, ConfigError):
        code = "unknown-query" if "unknown query" in str(exc) else "bad-spec"
        return error_envelope(code, str(exc))
    return error_envelope("internal", repr(exc))


class _Handler(BaseHTTPRequestHandler):
    """Thin HTTP codec over :class:`ReproService`."""

    #: Set by :func:`make_server`.
    service: ReproService = None  # type: ignore[assignment]
    server_version = f"repro/{__version__}"
    protocol_version = "HTTP/1.1"

    # -- plumbing -----------------------------------------------------------
    def log_message(self, fmt, *args):  # quiet by default
        pass

    def _send_envelope(
        self, status: int, envelope: dict, headers: Optional[dict] = None
    ) -> None:
        # compact: same sorted keys as the CLI's indented form, so equal
        # payloads are still equal bytes, but the C encoder can write it
        body = (dump_envelope(envelope, indent=None) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for k, v in (headers or {}).items():
            self.send_header(k, v)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_env(self, envelope: dict, headers: Optional[dict] = None):
        self._send_envelope(error_status(envelope), envelope, headers)

    def _not_found(self, what: str) -> None:
        self._send_error_env(error_envelope("not-found", what))

    # -- routes -------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (BaseHTTPRequestHandler API)
        try:
            self._route_get()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-stream
        except Exception as exc:  # pragma: no cover - defensive
            try:
                self._send_error_env(error_envelope("internal", repr(exc)))
            except Exception:
                pass

    def do_POST(self) -> None:  # noqa: N802
        try:
            self._route_post()
        except (BrokenPipeError, ConnectionResetError):
            pass
        except Exception as exc:  # pragma: no cover - defensive
            try:
                self._send_error_env(error_envelope("internal", repr(exc)))
            except Exception:
                pass

    def _route_get(self) -> None:
        svc = self.service
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path in ("/", "/v1"):
            self._send_envelope(200, svc.service_info())
            return
        if path == "/v1/sweeps":
            jobs = [svc.job_envelope(j)["data"] for j in svc.queue.jobs()]
            self._send_envelope(200, make_envelope("job-list", {"jobs": jobs}))
            return
        parts = path.strip("/").split("/")
        if len(parts) >= 3 and parts[0] == "v1" and parts[1] == "sweeps":
            job = svc.queue.get(parts[2])
            if job is None:
                self._not_found(f"no job {parts[2]!r}")
                return
            if len(parts) == 3:
                self._send_envelope(200, svc.job_envelope(job))
                return
            if len(parts) == 4 and parts[3] == "results":
                if job.state not in ("done", "failed"):
                    self._send_error_env(error_envelope(
                        "not-ready",
                        f"job {job.id} is {job.state}; results are served "
                        f"once it finishes",
                        {"state": job.state},
                    ))
                    return
                self._send_envelope(200, svc.results_envelope(job))
                return
            if len(parts) == 4 and parts[3] == "events":
                self._stream_events(job)
                return
        self._not_found(f"no route {path!r}")

    def _route_post(self) -> None:
        svc = self.service
        path = self.path.split("?", 1)[0].rstrip("/")
        if path != "/v1/sweeps":
            self._send_error_env(
                error_envelope("not-found", f"no POST route {path!r}")
                if path.startswith("/v1")
                else error_envelope("method-not-allowed", f"POST {path}")
            )
            return
        declared = self.headers.get("Content-Length", "0")
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY:
            # nothing of the body is read, so the connection is done
            if length < 0:
                env = error_envelope(
                    "bad-request", f"bad Content-Length {declared!r}"
                )
            else:
                env = error_envelope(
                    "payload-too-large",
                    f"body of {length} bytes exceeds the {MAX_BODY}-byte cap",
                    {"max_bytes": MAX_BODY},
                )
            self._send_error_env(env, {"Connection": "close"})
            return
        try:
            raw = self.rfile.read(length) if length else b""
            payload = json.loads(raw.decode("utf-8")) if raw else {}
            if not isinstance(payload, dict):
                raise ValueError("body must be a JSON object")
        except (ValueError, UnicodeDecodeError) as exc:
            self._send_error_env(
                error_envelope("bad-request", f"unreadable body: {exc}")
            )
            return
        tenant = self.headers.get("X-Repro-Tenant", "anonymous")
        try:
            job = svc.submit(tenant, payload)
        except (RateLimitedError, QueueFullError) as exc:
            env = classify_submit_error(exc)
            self._send_error_env(
                env,
                {"Retry-After": str(max(1, int(exc.retry_after_s + 0.999)))},
            )
            return
        except Exception as exc:
            self._send_error_env(classify_submit_error(exc))
            return
        self._send_envelope(202, svc.job_envelope(job))

    # -- SSE ----------------------------------------------------------------
    def _stream_events(self, job: Job) -> None:
        """Serve the job's event journal as Server-Sent Events.

        Replays the journal from the start, then follows it until the
        job reaches a terminal state, closing with an ``end`` event
        that carries the final job document.  Each event is ``event:
        <sweep event name>`` with a ``sweep-event`` envelope as its
        data line.  Between events the handler sleeps on the queue's
        condition; the journal is tailed from a byte offset, so a wake
        parses only what it has not sent yet.
        """
        svc = self.service
        changed = svc.queue.changed
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        path = svc.journal_path(job.id)
        offset = 0
        while True:
            # Journal and state are read under the lock appends and
            # state flips take: a terminal state seen here comes with
            # every event before it, and no notify falls between the
            # check and the wait.  The socket is written outside it.
            with changed:
                while True:
                    records, offset = SweepEventJournal.read_from(path, offset)
                    finished = job.state in ("done", "failed")
                    closed = svc.queue.closed
                    if records or finished or closed:
                        break
                    changed.wait()
            frames = [
                _sse_frame(
                    record.get("event", "message"),
                    make_envelope("sweep-event", {"job": job.id, **record}),
                )
                for record in records
            ]
            if finished:
                frames.append(_sse_frame("end", svc.job_envelope(job)))
            self.wfile.write(b"".join(frames))
            self.wfile.flush()
            if finished or closed:
                return


def _sse_frame(event: str, envelope: dict) -> bytes:
    return (
        f"event: {event}\ndata: {json.dumps(envelope, sort_keys=True)}\n\n"
    ).encode()


def make_server(service: ReproService, bind: str = "127.0.0.1",
                port: int = 0) -> ThreadingHTTPServer:
    """An HTTP server wired to ``service`` (port 0 = ephemeral)."""
    handler = type("BoundHandler", (_Handler,), {"service": service})
    server = ThreadingHTTPServer((bind, port), handler)
    server.daemon_threads = True
    return server


def serve(
    data_dir,
    bind: str = "127.0.0.1",
    port: int = 0,
    announce=print,
    ready: Optional[threading.Event] = None,
    install_signals: bool = True,
    stop: Optional[threading.Event] = None,
    **service_kwargs,
) -> int:
    """Run the daemon until told to stop: the ``repro serve`` body.

    Recovers journaled jobs, starts the worker thread, binds the HTTP
    server, writes a discovery file (``<data_dir>/service.json`` with
    the bound url and pid) and serves until ``stop`` is set — by the
    caller (a daemon run in a thread passes its own event and needs no
    signals) or by SIGTERM/SIGINT.  Returns the process exit code.
    """
    stop = stop if stop is not None else threading.Event()
    service = ReproService(data_dir, **service_kwargs)
    recovered = service.recover()
    server = make_server(service, bind, port)
    host, bound_port = server.server_address[:2]
    url = f"http://{host}:{bound_port}"
    discovery = Path(data_dir) / "service.json"
    discovery.parent.mkdir(parents=True, exist_ok=True)
    discovery.write_text(json.dumps({
        "url": url, "pid": os.getpid(), "bind": bind, "port": bound_port,
    }, sort_keys=True))
    service.start_worker()
    if recovered:
        announce(
            f"recovered {len(recovered)} unfinished job(s) from "
            f"{service.queue.jobs_dir}"
        )
    announce(f"repro service listening on {url} (data: {service.data_dir})")
    if install_signals:
        signal.signal(signal.SIGTERM, lambda *_args: stop.set())
        signal.signal(signal.SIGINT, lambda *_args: stop.set())

    def shutdown_on_stop() -> None:
        stop.wait()
        server.shutdown()

    # A thread of its own, because shutdown() blocks until the serving
    # loop has left and a signal handler runs inside that loop.
    threading.Thread(
        target=shutdown_on_stop, name="repro-service-stop", daemon=True
    ).start()
    if ready is not None:
        ready.set()
    try:
        # poll_interval bounds only how long shutdown() waits; requests
        # are accepted as they arrive
        server.serve_forever(poll_interval=0.05)
    finally:
        service.stop()
        server.server_close()
    announce("repro service stopped")
    return 0
