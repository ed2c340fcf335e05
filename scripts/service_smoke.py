"""CI service smoke: a real daemon over two local hosts, end to end.

Spawns ``repro serve --hosts local,local`` as a subprocess, submits a
tiny grid over HTTP, streams the job's Server-Sent Events to
completion, fetches the results, and asserts they are **bitwise
identical** to a direct serial run of the same spec — the
sweep-as-a-service determinism claim, exercised through every layer
(HTTP → queue → multi-host executor → shared cache → envelope).

A second identical submission must then be served entirely from the
multi-tenant result store (``ran == 0``) with byte-identical results.

Everything lands under the output directory so CI can upload it on
failure: the daemon's stdout/stderr, the per-job SSE event log, and
the job journal.

Usage: python scripts/service_smoke.py [out_dir]
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.resilience import key_str  # noqa: E402
from repro.core.resultcache import result_to_dict  # noqa: E402
from repro.core.sweep import SweepRunner, normalize_cell  # noqa: E402
from repro.service.client import SweepClient  # noqa: E402
from repro.service.envelope import validate_envelope  # noqa: E402
from repro.service.jobs import JobSpec  # noqa: E402

SPEC = {
    "queries": ["Q6", "Q12"],
    "platforms": ["hpv", "sgi"],
    "nprocs": [1, 2],
    "sf": 0.0004,
}
HOSTS = "local,local"


def discover(data_dir: Path, timeout: float = 60.0) -> str:
    deadline = time.monotonic() + timeout
    path = data_dir / "service.json"
    while time.monotonic() < deadline:
        if path.exists():
            try:
                return json.loads(path.read_text())["url"]
            except (ValueError, KeyError):
                pass
        time.sleep(0.1)
    raise RuntimeError("daemon never wrote its discovery file")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    out_dir = Path(argv[0]) if argv else Path("service-smoke")
    out_dir.mkdir(parents=True, exist_ok=True)
    data_dir = out_dir / "daemon"

    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    daemon_log = open(out_dir / "daemon.log", "w")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--data-dir", str(data_dir), "--port", "0", "--hosts", HOSTS],
        env=env, stdout=daemon_log, stderr=subprocess.STDOUT,
    )
    try:
        client = SweepClient(discover(data_dir), tenant="ci")
        info = validate_envelope(client.info(), kind="service-info")
        assert info["data"]["executor"]["hosts"] == HOSTS, info["data"]

        t0 = time.perf_counter()
        job = validate_envelope(client.submit(SPEC), kind="job")
        job_id = job["data"]["id"]
        print(f"submitted {job_id} over {HOSTS}")

        # stream the SSE event feed to completion (the event log file
        # the daemon journals is uploaded on failure)
        sse_events = []
        for record in client.events(job_id):
            sse_events.append(record["event"])
            if record["event"] == "end":
                final = record["data"]
                break
        else:
            raise RuntimeError("SSE stream ended without an end event")
        service_s = time.perf_counter() - t0
        assert final["data"]["state"] == "done", final
        report = final["data"]["report"]
        print(f"job finished in {service_s:.2f}s: "
              f"ran={report['ran']} dispatches={report.get('requeues', 0)}"
              f" events={len(sse_events)}")
        assert "on_cell_done" in sse_events
        assert "on_chunk_dispatch" in sse_events  # it really went multi-host

        served = validate_envelope(client.results(job_id), kind="sweep-results")
        assert "missing" not in served["data"], served["data"].get("missing")

        # direct serial run of the same spec, no service in the loop
        spec = JobSpec.from_payload(SPEC)
        t0 = time.perf_counter()
        serial = SweepRunner(sim=spec.sim(), tpch=spec.tpch())
        direct_cells = {}
        for key in [normalize_cell(c) for c in spec.cells()]:
            direct_cells[key_str(key)] = result_to_dict(serial.cell(*key))
        serial_s = time.perf_counter() - t0

        served_blob = json.dumps(served["data"]["cells"], sort_keys=True)
        direct_blob = json.dumps(direct_cells, sort_keys=True)
        equal = served_blob == direct_blob

        # identical resubmission: served from the shared store, 0 ran
        job2 = client.submit(SPEC)["data"]["id"]
        final2 = client.wait(job2, timeout=120)
        report2 = final2["data"]["report"]
        served2 = client.results(job2)
        dedup_ok = (
            report2["ran"] == 0
            and json.dumps(served2["data"], sort_keys=True)
            == json.dumps(served["data"], sort_keys=True)
        )
        print(f"resubmission: ran={report2['ran']} "
              f"memoized={report2['memoized']} bitwise_equal={dedup_ok}")

        record = {
            "bench": "smoke_service",
            "cells": len(spec.cells()),
            "hosts": HOSTS,
            "sf": SPEC["sf"],
            "service_s": round(service_s, 3),
            "serial_s": round(serial_s, 3),
            "sse_events": len(sse_events),
            "equal_to_serial": equal,
            "dedup_ok": dedup_ok,
        }
        with open(out_dir / "BENCH_smoke_service.json", "w") as fh:
            json.dump(record, fh, indent=2)
        print(f"service smoke: {record}")
        if not equal:
            print("service/serial results DIVERGE")
            return 1
        if not dedup_ok:
            print("resubmission was not served from the shared store")
            return 1
        return 0
    finally:
        if proc.poll() is None:
            os.kill(proc.pid, signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
        daemon_log.close()


if __name__ == "__main__":
    sys.exit(main())
