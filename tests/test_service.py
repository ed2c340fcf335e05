"""Sweep-as-a-service: envelope contract, queue semantics, HTTP API,
multi-tenant dedup, and kill -9 crash recovery.

The expensive end-to-end pieces use tiny grids (``sf=0.0004``) so the
whole module stays in tier-1 time.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import ConfigError, UnknownPlatformError
from repro.service.client import ServiceError, SweepClient
from repro.obs.sinks import SweepEventJournal
from repro.service.daemon import (
    MAX_BODY,
    ReproService,
    classify_submit_error,
    make_server,
    serve,
)
from repro.service.envelope import (
    ENVELOPE_KINDS,
    ERROR_CODES,
    SCHEMA_V1,
    EnvelopeError,
    dump_envelope,
    error_envelope,
    error_status,
    make_envelope,
    validate_envelope,
)
from repro.service.jobs import (
    JobQueue,
    JobSpec,
    QueueFullError,
    RateLimitedError,
    TokenBucket,
)

TINY = {"queries": ["Q6"], "platforms": ["hpv"], "nprocs": [1], "sf": 0.0004}


# ---------------------------------------------------------------------------
# envelope contract
# ---------------------------------------------------------------------------
class TestEnvelope:
    def test_roundtrip(self):
        env = make_envelope("job", {"id": "x"})
        assert env == {"schema": SCHEMA_V1, "kind": "job", "data": {"id": "x"}}
        assert validate_envelope(dump_envelope(env), kind="job") == env

    def test_unknown_kind_rejected(self):
        with pytest.raises(EnvelopeError, match="unknown envelope kind"):
            make_envelope("nope", {})
        with pytest.raises(EnvelopeError):
            validate_envelope({"schema": SCHEMA_V1, "kind": "nope", "data": {}})

    def test_non_dict_data_rejected(self):
        with pytest.raises(EnvelopeError):
            make_envelope("job", [1, 2])
        with pytest.raises(EnvelopeError):
            validate_envelope({"schema": SCHEMA_V1, "kind": "job", "data": 3})

    def test_schema_pinned(self):
        with pytest.raises(EnvelopeError, match="schema"):
            validate_envelope({"schema": "repro/v0", "kind": "job", "data": {}})

    def test_kind_pinning(self):
        env = make_envelope("job", {})
        with pytest.raises(EnvelopeError, match="expected kind"):
            validate_envelope(env, kind="error")

    def test_compat_mirrors_data_and_is_still_valid(self):
        env = make_envelope("sweep-report", {"ok": True, "total": 3},
                            compat=True)
        assert env["ok"] is True and env["total"] == 3
        assert "deprecated" in env
        validated = validate_envelope(env, kind="sweep-report")
        assert validated["data"] == {"ok": True, "total": 3}

    def test_error_envelope_maps_status(self):
        env = error_envelope("not-ready", "still running", {"state": "running"})
        assert validate_envelope(env, kind="error")
        assert error_status(env) == 409
        assert env["data"]["detail"]["state"] == "running"
        with pytest.raises(EnvelopeError):
            error_envelope("no-such-code", "x")

    def test_every_error_code_has_a_4xx_or_5xx(self):
        for code, status in ERROR_CODES.items():
            assert 400 <= status < 600, code

    def test_kinds_cover_cli_and_service(self):
        assert {"sweep-report", "verify-report", "machine-list", "job",
                "sweep-results", "sweep-event", "error"} <= set(ENVELOPE_KINDS)


# ---------------------------------------------------------------------------
# specs and the error taxonomy
# ---------------------------------------------------------------------------
class TestJobSpec:
    def test_from_payload_roundtrip(self):
        spec = JobSpec.from_payload(TINY)
        assert spec.queries == ("Q6",) and spec.nprocs == (1,)
        assert JobSpec.from_payload(spec.to_dict()) == spec

    def test_scalar_coercion(self):
        spec = JobSpec.from_payload(
            {"queries": "Q6", "platforms": "hpv", "nprocs": 2}
        )
        assert spec.nprocs == (2,)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown spec field"):
            JobSpec.from_payload({**TINY, "bogus": 1})

    def test_unknown_query_rejected(self):
        with pytest.raises(ConfigError, match="unknown query"):
            JobSpec.from_payload({**TINY, "queries": ["Q99"]})

    def test_unknown_platform_suggests(self):
        with pytest.raises(UnknownPlatformError) as exc_info:
            JobSpec.from_payload({**TINY, "platforms": ["hpvv"]})
        assert exc_info.value.suggestion == "hpv"

    def test_cells_are_canonical_grid(self):
        spec = JobSpec.from_payload(
            {"queries": ["Q6"], "platforms": ["hpv", "sgi"], "nprocs": [1, 2]}
        )
        assert len(spec.cells()) == 4
        assert spec.cells()[0] == ("Q6", "hpv", 1, 1, "default")

    def test_fingerprint_is_content_address(self):
        a = JobSpec.from_payload(TINY)
        b = JobSpec.from_payload(dict(TINY))
        c = JobSpec.from_payload({**TINY, "nprocs": [2]})
        assert a.fingerprint() == b.fingerprint() != c.fingerprint()

    def test_classify_maps_taxonomy_to_typed_envelopes(self):
        for payload, code in [
            ({**TINY, "queries": ["Q99"]}, "unknown-query"),
            ({**TINY, "platforms": ["hpvv"]}, "unknown-platform"),
            ({**TINY, "nprocs": []}, "bad-spec"),
        ]:
            with pytest.raises(Exception) as exc_info:
                JobSpec.from_payload(payload)
            env = classify_submit_error(exc_info.value)
            assert env["data"]["code"] == code
            assert 400 <= error_status(env) < 500


# ---------------------------------------------------------------------------
# queue: FIFO, rate limiting, backpressure, journal
# ---------------------------------------------------------------------------
class TestJobQueue:
    def test_fifo_order(self, tmp_path):
        q = JobQueue(tmp_path)
        a = q.submit("t", JobSpec.from_payload(TINY))
        b = q.submit("t", JobSpec.from_payload({**TINY, "nprocs": [2]}))
        assert q.next_job(0).id == a.id
        assert q.next_job(0).id == b.id
        assert q.next_job(0) is None

    def test_rate_limit_per_tenant(self, tmp_path):
        now = [0.0]
        q = JobQueue(tmp_path, rate_per_s=1.0, burst=2,
                     clock=lambda: now[0])
        spec = JobSpec.from_payload(TINY)
        q.submit("alice", spec)
        q.submit("alice", spec)
        with pytest.raises(RateLimitedError) as exc_info:
            q.submit("alice", spec)
        assert exc_info.value.retry_after_s > 0
        q.submit("bob", spec)  # other tenants unaffected
        now[0] += 1.5  # a token refilled
        q.submit("alice", spec)
        assert q.stats()["rejected_rate_limited"] == 1

    def test_backpressure_when_deep(self, tmp_path):
        q = JobQueue(tmp_path, max_depth=2, burst=100)
        spec = JobSpec.from_payload(TINY)
        q.submit("t", spec)
        q.submit("t", spec)
        with pytest.raises(QueueFullError) as exc_info:
            q.submit("t", spec)
        assert exc_info.value.depth == 2
        assert exc_info.value.retry_after_s > 0

    def test_journal_recovery_requeues_in_order(self, tmp_path):
        q = JobQueue(tmp_path)
        a = q.submit("t", JobSpec.from_payload(TINY))
        b = q.submit("t", JobSpec.from_payload({**TINY, "nprocs": [2]}))
        c = q.submit("t", JobSpec.from_payload({**TINY, "nprocs": [4]}))
        running = q.next_job(0)  # a goes running
        q.finish(running, report={"ok": True})  # a done
        running = q.next_job(0)  # b running when the "crash" hits
        assert running.id == b.id

        fresh = JobQueue(tmp_path)  # the restarted daemon's queue
        recovered = fresh.recover()
        assert [j.id for j in recovered] == [b.id, c.id]
        assert fresh.get(a.id).state == "done"
        assert fresh.get(b.id).state == "queued"  # running -> re-queued
        assert fresh.get(b.id).attempts == 1  # prior attempt remembered
        assert fresh.next_job(0).id == b.id  # original order preserved

    def test_recovery_tolerates_torn_journal_file(self, tmp_path):
        q = JobQueue(tmp_path)
        a = q.submit("t", JobSpec.from_payload(TINY))
        (tmp_path / "jobs" / "torn.json").write_text('{"id": "x", "se')
        fresh = JobQueue(tmp_path)
        assert [j.id for j in fresh.recover()] == [a.id]


# ---------------------------------------------------------------------------
# the HTTP daemon, in process
# ---------------------------------------------------------------------------
@contextlib.contextmanager
def running_daemon(data_dir, **service_kwargs):
    """``serve()`` in a thread, stopped through its stop handle; yields
    the url from the discovery file, as a client would find it."""
    stop, ready = threading.Event(), threading.Event()
    thread = threading.Thread(
        target=serve, args=(data_dir,),
        kwargs=dict(announce=lambda _line: None, ready=ready, stop=stop,
                    install_signals=False, jobs=None, **service_kwargs),
        daemon=True,
    )
    thread.start()
    try:
        assert ready.wait(30), "daemon never came up"
        yield json.loads((Path(data_dir) / "service.json").read_text())["url"]
    finally:
        stop.set()
        thread.join(timeout=30)
        assert not thread.is_alive(), "serve() did not return after stop"


@contextlib.contextmanager
def workerless_server(svc):
    """The HTTP surface with no worker behind it: admitted jobs stay
    ``queued``."""
    server = make_server(svc)
    threading.Thread(target=server.serve_forever,
                     kwargs={"poll_interval": 0.05}, daemon=True).start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        svc.stop()
        server.server_close()


@pytest.fixture()
def service(tmp_path):
    with running_daemon(tmp_path / "svc") as url:
        yield url


class TestHTTPAPI:
    def test_service_info(self, service):
        url = service
        env = SweepClient(url).info()
        assert validate_envelope(env, kind="service-info")
        assert env["data"]["queue"]["depth"] == 0

    def test_submit_run_fetch_and_events(self, service):
        url = service
        client = SweepClient(url, tenant="alice")
        job = client.submit(TINY)
        assert validate_envelope(job, kind="job")
        job_id = job["data"]["id"]
        final = client.wait(job_id, timeout=120)
        assert final["data"]["state"] == "done"
        assert final["data"]["report"]["ok"] is True

        results = client.results(job_id)
        assert validate_envelope(results, kind="sweep-results")
        assert list(results["data"]["cells"]) == ["Q6:hpv:1:1:default"]
        cell = results["data"]["cells"]["Q6:hpv:1:1:default"]
        assert cell["runs"][0]["wall_cycles"] > 0

        events = list(client.events(job_id))
        names = [e["event"] for e in events]
        assert names[-1] == "end"
        assert "on_cell_done" in names
        for record in events[:-1]:
            assert validate_envelope(record["data"], kind="sweep-event")

    def test_results_409_while_unfinished(self, tmp_path):
        # a queued job no worker will touch
        with workerless_server(ReproService(tmp_path / "svc", jobs=None)) as url:
            client = SweepClient(url)
            job_id = client.submit(TINY)["data"]["id"]
            with pytest.raises(ServiceError) as exc_info:
                client.results(job_id)
        assert exc_info.value.code == "not-ready"
        assert exc_info.value.status == 409

    def test_typed_4xx_taxonomy_over_the_wire(self, service):
        url = service
        client = SweepClient(url)
        for payload, code in [
            ({**TINY, "queries": ["Q99"]}, "unknown-query"),
            ({**TINY, "platforms": ["hpvv"]}, "unknown-platform"),
            ({**TINY, "bogus": 1}, "bad-spec"),
        ]:
            with pytest.raises(ServiceError) as exc_info:
                client.submit(payload)
            assert exc_info.value.code == code
            assert exc_info.value.status == 400
        with pytest.raises(ServiceError) as exc_info:
            client.status("no-such-job")
        assert exc_info.value.code == "not-found"
        assert exc_info.value.status == 404

    def test_unknown_platform_detail_carries_suggestion(self, service):
        url = service
        with pytest.raises(ServiceError) as exc_info:
            SweepClient(url).submit({**TINY, "platforms": ["hpvv"]})
        assert exc_info.value.detail["suggestion"] == "hpv"

    def test_rate_limited_gets_retry_after(self, tmp_path):
        svc = ReproService(tmp_path / "svc", jobs=None, rate_per_s=0.001,
                           burst=1)
        with workerless_server(svc) as url:
            client = SweepClient(url)
            client.submit(TINY)
            with pytest.raises(ServiceError) as exc_info:
                client.submit(TINY)
        assert exc_info.value.code == "rate-limited"
        assert exc_info.value.status == 429
        assert exc_info.value.retry_after_s >= 1

    def test_multi_tenant_overlapping_grids_compute_shared_cells_once(
        self, service
    ):
        """Two tenants submit overlapping grids; the shared cell is
        computed exactly once (cache-hit counters prove it) and both
        fetch bitwise-identical bytes for it."""
        url = service
        alice = SweepClient(url, tenant="alice")
        bob = SweepClient(url, tenant="bob")
        # overlap: Q6:hpv:2 appears in both grids
        job_a = alice.submit({**TINY, "nprocs": [1, 2]})["data"]["id"]
        job_b = bob.submit({**TINY, "nprocs": [2, 4]})["data"]["id"]
        report_a = alice.wait(job_a, timeout=240)["data"]["report"]
        report_b = bob.wait(job_b, timeout=240)["data"]["report"]
        # alice ran her two cells cold; bob's shared cell came from the
        # multi-tenant store (a cache hit), so only his unique cell ran
        assert report_a["ran"] == 2 and report_a["memoized"] == 0
        assert report_a["cache"]["hits"] == 0
        assert report_b["ran"] == 1 and report_b["memoized"] == 1
        assert report_b["cache"]["hits"] == 1
        cells_a = alice.results(job_a)["data"]["cells"]
        cells_b = bob.results(job_b)["data"]["cells"]
        shared = "Q6:hpv:2:1:default"
        assert json.dumps(cells_a[shared], sort_keys=True) == \
            json.dumps(cells_b[shared], sort_keys=True)

    def test_identical_specs_fetch_identical_bytes(self, service):
        url = service
        client = SweepClient(url)
        a = client.submit(TINY)["data"]["id"]
        client.wait(a, timeout=120)
        b = client.submit(TINY)["data"]["id"]
        client.wait(b, timeout=120)
        assert a != b  # distinct jobs...
        doc_a = json.dumps(client.results(a)["data"], sort_keys=True)
        doc_b = json.dumps(client.results(b)["data"], sort_keys=True)
        assert doc_a == doc_b  # ...same bytes: data is spec-determined


# ---------------------------------------------------------------------------
# waiting on a job: SweepClient.wait rides the event stream
# ---------------------------------------------------------------------------
class TestClientWait:
    def test_returns_the_final_job_envelope(self, service):
        client = SweepClient(service)
        job_id = client.submit(TINY)["data"]["id"]
        final = client.wait(job_id, timeout=120)
        assert validate_envelope(final, kind="job")
        assert final["data"]["state"] == "done"
        assert final == client.status(job_id)
        assert client.wait(job_id, timeout=120) == final  # finished: replayed

    def test_not_ready_on_timeout(self, tmp_path):
        with workerless_server(ReproService(tmp_path / "svc", jobs=None)) as url:
            client = SweepClient(url)
            job_id = client.submit(TINY)["data"]["id"]
            t0 = time.monotonic()
            with pytest.raises(ServiceError) as exc_info:
                client.wait(job_id, timeout=0.2)
            assert time.monotonic() - t0 < 5
        assert exc_info.value.code == "not-ready"
        assert exc_info.value.status == 409
        assert "queued" in str(exc_info.value)


# ---------------------------------------------------------------------------
# hostile Content-Length, over raw sockets (http.client would not send these)
# ---------------------------------------------------------------------------
def _raw_post(url: str, content_length) -> tuple:
    """``POST /v1/sweeps`` with a hand-written ``Content-Length`` and no
    body; ``(status, error envelope)``.  Reads to end-of-stream, which
    the server reaches only once the handler thread has returned — a
    handler stuck in ``rfile.read`` fails the test on the socket
    timeout instead."""
    host, port = url[len("http://"):].split(":")
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(
            f"POST /v1/sweeps HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {content_length}\r\n\r\n".encode()
        )
        reply = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    return int(head.split()[1]), validate_envelope(body.decode(), kind="error")


class TestContentLength:
    @pytest.mark.parametrize("declared", ["-1", "lots"])
    def test_negative_or_non_integer_is_a_typed_400(self, service, declared):
        status, env = _raw_post(service, declared)
        assert status == 400
        assert env["data"]["code"] == "bad-request"
        assert declared in env["data"]["error"]
        assert SweepClient(service).jobs()["data"]["jobs"] == []

    def test_over_the_cap_is_a_typed_413(self, service):
        status, env = _raw_post(service, MAX_BODY + 1)
        assert status == 413
        assert env["data"]["code"] == "payload-too-large"
        assert env["data"]["detail"]["max_bytes"] == MAX_BODY
        assert SweepClient(service).jobs()["data"]["jobs"] == []


# ---------------------------------------------------------------------------
# the event-driven daemon: nothing polls, nothing is lost, idle is idle
# ---------------------------------------------------------------------------
class TestEventDriven:
    def test_memoised_roundtrip_without_a_single_sleep(
        self, service, monkeypatch
    ):
        client = SweepClient(service)
        client.wait(client.submit(TINY)["data"]["id"], timeout=120)

        def no_sleep(_seconds):
            raise AssertionError("time.sleep on the submit/SSE/fetch path")

        # the daemon runs in this process, so this covers its module too
        monkeypatch.setattr(time, "sleep", no_sleep)
        job_id = client.submit(TINY)["data"]["id"]
        events = list(client.events(job_id))
        assert [e["event"] for e in events] == ["on_cell_done", "end"]
        final = events[-1]["data"]["data"]
        assert final["state"] == "done" and final["error"] is None
        assert final["report"]["ran"] == 0
        assert final["report"]["memoized"] == 1
        assert list(client.results(job_id)["data"]["cells"]) == \
            ["Q6:hpv:1:1:default"]

    def test_back_to_back_jobs_stream_every_record_once_before_end(
        self, tmp_path
    ):
        """A follower that connects while the job runs, is already
        finished, or has not started yet sees the whole journal, in
        ``seq`` order, and then ``end`` — the race the old stream
        covered with a second drain after the state flip."""
        spec = {**TINY, "nprocs": [1, 2]}
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with running_daemon(tmp_path / "svc", rate_per_s=1e6,
                                burst=10**6) as url:
                client = SweepClient(url)
                client.wait(client.submit(spec)["data"]["id"], timeout=240)
                for _ in range(200):
                    job_id = client.submit(spec)["data"]["id"]
                    events = list(client.events(job_id))
                    assert events[-1]["event"] == "end"
                    assert events[-1]["data"]["data"]["state"] == "done"
                    streamed = [e["data"]["data"] for e in events[:-1]]
                    assert [r["seq"] for r in streamed] == [0, 1]
                    journal = SweepEventJournal.read(
                        tmp_path / "svc" / "events" / f"{job_id}.jsonl"
                    )
                    assert [{**r, "job": job_id} for r in journal] == streamed
        finally:
            sys.setswitchinterval(switch)

    def test_idle_worker_blocks_and_stop_is_prompt(self, tmp_path):
        svc = ReproService(tmp_path / "svc", jobs=None)
        entered = []
        next_job = svc.queue.next_job

        def counting(*args, **kwargs):
            entered.append(time.monotonic())
            return next_job(*args, **kwargs)

        svc.queue.next_job = counting
        svc.start_worker()
        time.sleep(0.3)
        assert len(entered) == 1  # asked once, still inside: no wake-ups
        t0 = time.monotonic()
        svc.stop()
        assert time.monotonic() - t0 < 1.0
        assert not svc._worker.is_alive()

    def test_follower_of_an_unfinished_job_leaves_on_stop(self, tmp_path):
        svc = ReproService(tmp_path / "svc", jobs=None)
        with workerless_server(svc) as url:
            client = SweepClient(url)
            job_id = client.submit(TINY)["data"]["id"]
            seen = []
            follower = threading.Thread(
                target=lambda: seen.extend(client.events(job_id)), daemon=True
            )
            follower.start()
            time.sleep(0.1)  # let it block on the queued job
            svc.stop()
            follower.join(timeout=10)
            assert not follower.is_alive()
            assert seen == []  # no events, and no ``end``: the job never ran


# ---------------------------------------------------------------------------
# the per-job event journal
# ---------------------------------------------------------------------------
CELL = ("Q6", "hpv", 1, 1, "default")


class TestSweepEventJournal:
    def test_one_append_handle_for_the_life_of_the_journal(self, tmp_path):
        path = tmp_path / "events" / "job.jsonl"
        journal = SweepEventJournal(path)
        journal.on_cell_done(CELL, "ran")
        # every record is readable as soon as it is appended...
        assert [r["seq"] for r in SweepEventJournal.read(path)] == [0]
        # ...and goes through the handle opened at construction, not a
        # fresh open() of the path
        moved = path.with_suffix(".moved")
        path.rename(moved)
        journal.on_cell_retry(CELL, 1, "transient", 0.5)
        journal.close()
        assert not path.exists()
        assert [(r["seq"], r["event"]) for r in SweepEventJournal.read(moved)] \
            == [(0, "on_cell_done"), (1, "on_cell_retry")]

    def test_reopening_continues_the_sequence_past_a_torn_tail(self, tmp_path):
        """kill -9 mid-append leaves half a line; the restarted job's
        journal drops it and keeps counting, so no record is ever glued
        to the wreck and lost to readers."""
        path = tmp_path / "job.jsonl"
        first = SweepEventJournal(path)
        first.on_cell_done(CELL, "ran")
        first.on_cell_done(CELL, "cache")
        first.close()
        with path.open("ab") as fh:
            fh.write(b'{"seq": 2, "event": "on_cell_d')
        assert [r["seq"] for r in SweepEventJournal.read(path)] == [0, 1]
        second = SweepEventJournal(path)
        assert second.n_events == 2
        second.on_sweep_degraded("pool lost")
        second.close()
        records = SweepEventJournal.read(path)
        assert [r["seq"] for r in records] == [0, 1, 2]
        assert records[-1]["event"] == "on_sweep_degraded"

    def test_read_from_tails_by_byte_offset(self, tmp_path):
        path = tmp_path / "job.jsonl"
        assert SweepEventJournal.read_from(path, 0) == ([], 0)  # not there yet
        journal = SweepEventJournal(path)
        journal.on_cell_done(CELL, "ran")
        records, offset = SweepEventJournal.read_from(path, 0)
        assert [r["seq"] for r in records] == [0]
        assert offset == path.stat().st_size
        assert SweepEventJournal.read_from(path, offset) == ([], offset)
        journal.on_cell_done(CELL, "cache")
        journal.close()
        with path.open("ab") as fh:
            fh.write(b'{"seq": 2')  # torn: not a record, not consumed
        records, resumed = SweepEventJournal.read_from(path, offset)
        assert [r["seq"] for r in records] == [1]
        assert resumed == path.stat().st_size - len(b'{"seq": 2')


# ---------------------------------------------------------------------------
# kill -9 crash recovery, against a real daemon process
# ---------------------------------------------------------------------------
def _spawn_daemon(data_dir: Path) -> subprocess.Popen:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--data-dir", str(data_dir), "--port", "0"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def _discover(data_dir: Path, timeout: float = 30.0) -> str:
    deadline = time.monotonic() + timeout
    discovery = data_dir / "service.json"
    while time.monotonic() < deadline:
        if discovery.exists():
            try:
                return json.loads(discovery.read_text())["url"]
            except (ValueError, KeyError):
                pass
        time.sleep(0.05)
    raise AssertionError("daemon never wrote its discovery file")


@pytest.mark.slow
class TestCrashRecovery:
    def test_kill_dash_nine_mid_sweep_resumes_bitwise_identically(
        self, tmp_path
    ):
        data_dir = tmp_path / "daemon"
        proc = _spawn_daemon(data_dir)
        try:
            client = SweepClient(_discover(data_dir), tenant="crash")
            spec = {"queries": ["Q6"], "platforms": ["hpv", "sgi"],
                    "nprocs": [1, 2], "sf": 0.0004}
            job_id = client.submit(spec)["data"]["id"]
            # wait until at least one cell result hit the shared cache,
            # then kill the daemon hard, mid-sweep
            cache_dir = data_dir / "cache"
            deadline = time.monotonic() + 120

            def cached_cells():
                # the checkpoint manifest lives next to the results —
                # count only real cell results
                return [p for p in cache_dir.glob("*.json")
                        if ".manifest." not in p.name]

            while time.monotonic() < deadline:
                if cached_cells():
                    break
                time.sleep(0.02)
            else:
                raise AssertionError("no cell finished within the deadline")
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

        # restart on the same data dir: the journaled job re-enters the
        # queue and finishes from the checkpoint  (drop the dead
        # daemon's discovery file so we wait for the new one's)
        (data_dir / "service.json").unlink()
        proc = _spawn_daemon(data_dir)
        try:
            client = SweepClient(_discover(data_dir), tenant="crash")
            final = client.wait(job_id, timeout=240)
            assert final["data"]["state"] == "done"
            assert final["data"]["attempts"] == 2  # pre- and post-crash
            report = final["data"]["report"]
            # the resumed run reused every pre-crash cell
            assert report["memoized"] + report["cache"]["hits"] >= 1
            resumed = client.results(job_id)["data"]
        finally:
            os.kill(proc.pid, signal.SIGTERM)
            proc.wait(timeout=30)

        # bitwise-identical to a never-crashed serial run of the spec
        fresh = ReproService(tmp_path / "fresh", jobs=None)
        job = fresh.queue.submit("direct", JobSpec.from_payload(spec))
        fresh.run_job(job)
        assert fresh.queue.get(job.id).state == "done"
        direct = fresh.results_envelope(job)["data"]
        assert json.dumps(resumed, sort_keys=True) == \
            json.dumps(direct, sort_keys=True)
