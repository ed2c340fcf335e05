"""Shipped observer sinks: phase profiler and Chrome-trace exporter.

Both are pure consumers of the bus protocol in :mod:`repro.obs.bus` —
they observe, never mutate, so attaching them cannot perturb counters
or scheduling decisions (the golden snapshots pin this).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple


class PhaseProfiler:
    """Per-phase timing profile of a kernel run.

    A *phase* is the kind of work one scheduler quantum performed — the
    delivered syscall event's type (``RefBatch``, ``Compute``,
    ``SpinAcquire``, ``Sleep``, ...) or ``exit`` for the final quantum.
    For every ``(pid, phase)`` the profiler accumulates the quantum
    count, the simulated cycles consumed, and the host wall time the
    simulator spent producing them — so "where do the cycles go" and
    "where does the *simulator's* time go" are answered by one attach.
    """

    def __init__(self) -> None:
        #: (pid, phase) -> [quanta, simulated cycles, host seconds]
        self._acc: Dict[Tuple[int, str], List] = {}
        self._host_t0 = 0.0

    # -- kernel sink protocol ----------------------------------------------
    def before_step(self, proc, t) -> None:
        self._host_t0 = time.perf_counter()

    def after_step(self, proc, ev, t0: int, t1: int) -> None:
        host = time.perf_counter() - self._host_t0
        phase = type(ev).__name__ if ev is not None else "exit"
        rec = self._acc.get((proc.pid, phase))
        if rec is None:
            rec = self._acc[(proc.pid, phase)] = [0, 0, 0.0]
        rec[0] += 1
        rec[1] += t1 - t0
        rec[2] += host

    # -- reporting ----------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """``{pid: {phase: {quanta, cycles, host_s}}}`` (pids as str
        so the summary is JSON-ready)."""
        out: Dict[str, Dict[str, Dict[str, float]]] = {}
        for (pid, phase), (n, cyc, host) in sorted(self._acc.items()):
            out.setdefault(str(pid), {})[phase] = {
                "quanta": n,
                "cycles": cyc,
                "host_s": round(host, 6),
            }
        return out

    def lines(self) -> List[str]:
        """Human-readable profile, one line per (pid, phase)."""
        out = []
        for pid, phases in self.summary().items():
            total = sum(p["cycles"] for p in phases.values()) or 1
            for phase, rec in sorted(
                phases.items(), key=lambda kv: -kv[1]["cycles"]
            ):
                out.append(
                    f"pid {pid} {phase:<12} {rec['quanta']:>7} quanta  "
                    f"{rec['cycles']:>12,} cycles ({rec['cycles'] / total:5.1%})  "
                    f"{rec['host_s']:.3f}s host"
                )
        return out


class SweepEventRecorder:
    """Collects :data:`~repro.obs.bus.SWEEP_EVENTS` for a sweep-end
    summary.

    The resilient sweep engine publishes retries, timeouts,
    quarantines, and degradations as they happen; this sink keeps the
    running counts plus a bounded human-readable log so the CLI (and
    tests) can show *what the engine rode out* without scraping stdout.
    """

    def __init__(self, max_lines: int = 200) -> None:
        self.max_lines = max_lines
        self.counts: Dict[str, int] = {
            "done": 0, "retry": 0, "timeout": 0, "quarantined": 0,
            "degraded": 0, "captured": 0, "replayed": 0,
            "dispatched": 0, "heartbeats": 0, "hosts_lost": 0, "requeued": 0,
        }
        #: Topology learned from host hello heartbeats: label -> cpus.
        self.host_cpus: Dict[str, int] = {}
        self._lines: List[str] = []
        self._dropped = 0

    def _log(self, line: str) -> None:
        if len(self._lines) >= self.max_lines:
            self._dropped += 1
            return
        self._lines.append(line)

    # -- sweep sink protocol ------------------------------------------------
    def on_cell_done(self, key, source: str) -> None:
        self.counts["done"] += 1
        if source == "captured":
            self.counts["captured"] += 1
            self._log(f"cell {key}: executed, workload tape captured")
        elif source == "replay":
            self.counts["replayed"] += 1
            self._log(f"cell {key}: replayed from workload tape")
        elif source != "ran":  # cache reuse is the interesting case
            self._log(f"cell {key}: reused {source} result")

    def on_cell_retry(self, key, attempt: int, kind: str, delay_s: float) -> None:
        self.counts["retry"] += 1
        self._log(
            f"cell {key}: {kind} on attempt {attempt}, retrying in "
            f"{delay_s:.3f}s"
        )

    def on_cell_timeout(self, key, attempt: int, elapsed_s: float) -> None:
        self.counts["timeout"] += 1
        self._log(f"cell {key}: attempt {attempt} timed out after {elapsed_s:.1f}s")

    def on_cell_quarantined(self, key, kind: str, error: str) -> None:
        self.counts["quarantined"] += 1
        self._log(f"cell {key}: quarantined ({kind}: {error})")

    def on_sweep_degraded(self, reason: str) -> None:
        self.counts["degraded"] += 1
        self._log(f"sweep degraded to serial execution: {reason}")

    def on_chunk_dispatch(self, host: str, token: int, n_cells: int) -> None:
        self.counts["dispatched"] += 1
        self._log(f"chunk {token}: {n_cells} cell(s) dispatched to {host}")

    def on_host_heartbeat(self, host: str, payload: dict) -> None:
        self.counts["heartbeats"] += 1
        if payload.get("hello"):
            cpus = payload.get("host_cpus")
            if isinstance(cpus, int):
                self.host_cpus[host] = cpus
            self._log(
                f"host {host}: up (pid {payload.get('pid')}, "
                f"{cpus} cpus)"
            )

    def on_host_lost(self, host: str, error: str, n_requeued: int) -> None:
        self.counts["hosts_lost"] += 1
        self._log(
            f"host {host}: lost ({error}); {n_requeued} cell(s) re-queued"
        )

    def on_cell_requeue(self, key, host: str, reason: str) -> None:
        self.counts["requeued"] += 1
        self._log(f"cell {key}: re-queued ({reason}, was on {host or '-'})")

    # -- reporting ----------------------------------------------------------
    def lines(self) -> List[str]:
        """The event log, oldest first (overflow counted, not silent)."""
        out = list(self._lines)
        if self._dropped:
            out.append(f"... {self._dropped} further events dropped")
        return out


class SweepEventJournal:
    """Appends every :data:`~repro.obs.bus.SWEEP_EVENTS` occurrence to
    a JSON-lines file — the on-disk bridge between the observer bus and
    anything that wants to *stream* a sweep's progress.

    The experiment daemon attaches one journal per job and serves the
    file as Server-Sent Events (``GET /v1/sweeps/{id}/events``):
    dispatches, heartbeats, retries, requeues, host losses — everything
    the engine publishes — become visible to HTTP clients in the order
    they happened, and because the journal is a plain append-only file
    it survives the daemon being killed (the tail after a restart
    continues the same stream).

    Each record is one line: ``{"seq": n, "event": name, "args":
    {...}}`` with cell keys flattened to their manifest string form
    (``Q6:hpv:2:1:default``) so records are pure JSON scalars.
    """

    #: argument names per sweep event, keeping records self-describing
    _SIGNATURES = {
        "on_cell_done": ("cell", "source"),
        "on_cell_retry": ("cell", "attempt", "kind", "delay_s"),
        "on_cell_timeout": ("cell", "attempt", "elapsed_s"),
        "on_cell_quarantined": ("cell", "kind", "error"),
        "on_sweep_degraded": ("reason",),
        "on_chunk_dispatch": ("host", "token", "n_cells"),
        "on_host_heartbeat": ("host", "payload"),
        "on_host_lost": ("host", "error", "n_requeued"),
        "on_cell_requeue": ("cell", "host", "reason"),
    }

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # One append handle for the life of the sweep.  A journal that
        # already has records (a job resumed after a restart) continues
        # their sequence — the journal is the stream — after dropping
        # the torn line a killed writer may have left at the end, so a
        # new record never lands on the same line as half an old one.
        self._fh = self.path.open("a+b")
        self._fh.seek(0)
        head = self._fh.read()
        self.n_events = head.count(b"\n")
        self._fh.truncate(head.rfind(b"\n") + 1)

    def close(self) -> None:
        self._fh.close()

    def _record(self, event: str, *args) -> None:
        names = self._SIGNATURES[event]
        payload = {}
        for name, value in zip(names, args):
            if name == "cell":
                value = ":".join(str(part) for part in value)
            payload[name] = value
        record = {"seq": self.n_events, "event": event, "args": payload}
        self._fh.write(json.dumps(record, sort_keys=True).encode() + b"\n")
        self._fh.flush()
        self.n_events += 1

    # -- sweep sink protocol: one forwarder per event -----------------------
    def on_cell_done(self, key, source) -> None:
        self._record("on_cell_done", key, source)

    def on_cell_retry(self, key, attempt, kind, delay_s) -> None:
        self._record("on_cell_retry", key, attempt, kind, delay_s)

    def on_cell_timeout(self, key, attempt, elapsed_s) -> None:
        self._record("on_cell_timeout", key, attempt, elapsed_s)

    def on_cell_quarantined(self, key, kind, error) -> None:
        self._record("on_cell_quarantined", key, kind, error)

    def on_sweep_degraded(self, reason) -> None:
        self._record("on_sweep_degraded", reason)

    def on_chunk_dispatch(self, host, token, n_cells) -> None:
        self._record("on_chunk_dispatch", host, token, n_cells)

    def on_host_heartbeat(self, host, payload) -> None:
        self._record("on_host_heartbeat", host, payload)

    def on_host_lost(self, host, error, n_requeued) -> None:
        self._record("on_host_lost", host, error, n_requeued)

    def on_cell_requeue(self, key, host, reason) -> None:
        self._record("on_cell_requeue", key, host, reason)

    @staticmethod
    def read_from(path, offset: int = 0) -> Tuple[List[dict], int]:
        """The complete records at or after byte ``offset``, and the
        offset to resume from — how a follower tails a journal without
        parsing what it has already seen.  A torn final line (the
        writer was killed mid-append) is not a record yet: parsing
        stops in front of it."""
        records: List[dict] = []
        try:
            with Path(path).open("rb") as fh:
                fh.seek(offset)
                data = fh.read()
        except OSError:
            return records, offset
        for line in data.splitlines(keepends=True):
            if not line.endswith(b"\n"):
                break
            try:
                records.append(json.loads(line))
            except ValueError:
                break  # torn tail: everything before it is good
            offset += len(line)
        return records, offset

    @staticmethod
    def read(path) -> List[dict]:
        """Parse a whole journal back into records (tolerates a torn
        final line — the daemon may have died mid-append)."""
        return SweepEventJournal.read_from(path)[0]


class ChromeTraceExporter:
    """Exports a run as Chrome-trace JSON (``chrome://tracing`` /
    Perfetto's legacy loader).

    Two event streams share the timeline:

    * **Scheduler quanta** — one complete (``"ph": "X"``) slice per
      kernel step, named after the delivered event kind, on the row of
      the CPU that ran it; context switches appear as instants.
    * **Coherence transactions** — one instant (``"ph": "i"``) per
      completed miss/upgrade directory transaction, at the simulated
      time the transaction was issued.

    Timestamps are simulated cycles divided by ``cycles_per_us`` (pass
    ``machine.clock_hz / 1e6`` to get true microseconds; the default 1.0
    leaves them in raw cycles, which Chrome renders fine — only the
    absolute units differ).  The event list is bounded by
    ``max_events``; overflow is dropped *and counted honestly* in the
    exported ``otherData.dropped_events``.

    The exporter also implements the sweep-engine sink protocol
    (:data:`~repro.obs.bus.SWEEP_EVENTS`): retries, timeouts,
    quarantines, and degradations land as instants on a separate
    ``pid=1`` "sweep engine" track, stamped with *host* microseconds
    since the exporter was created (sweep events happen between
    simulations, so simulated time does not apply to them).
    """

    def __init__(
        self, cycles_per_us: float = 1.0, max_events: int = 250_000
    ) -> None:
        self.cycles_per_us = float(cycles_per_us)
        self.max_events = max_events
        self._events: List[dict] = []
        self._dropped = 0
        self._seen_cpus: Dict[int, bool] = {}
        self._sweep_t0 = time.perf_counter()
        self._saw_sweep_events = False

    # -- shared plumbing ----------------------------------------------------
    def _ts(self, cycles: float) -> float:
        return cycles / self.cycles_per_us

    def _emit(self, event: dict) -> None:
        if len(self._events) >= self.max_events:
            self._dropped += 1
            return
        self._events.append(event)

    def _note_cpu(self, cpu: int) -> None:
        if cpu not in self._seen_cpus:
            self._seen_cpus[cpu] = True

    # -- kernel sink protocol ----------------------------------------------
    def after_step(self, proc, ev, t0: int, t1: int) -> None:
        self._note_cpu(proc.cpu)
        name = type(ev).__name__ if ev is not None else "exit"
        self._emit(
            {
                "name": name,
                "cat": "sched",
                "ph": "X",
                "pid": 0,
                "tid": proc.cpu,
                "ts": self._ts(t0),
                "dur": self._ts(t1 - t0),
                "args": {"sim_pid": proc.pid},
            }
        )

    def on_voluntary_switch(self, proc, t: int) -> None:
        self._switch(proc, t, "voluntary")

    def on_involuntary_switch(self, proc, t: int) -> None:
        self._switch(proc, t, "involuntary")

    def _switch(self, proc, t: int, kind: str) -> None:
        self._note_cpu(proc.cpu)
        self._emit(
            {
                "name": f"switch:{kind}",
                "cat": "sched",
                "ph": "i",
                "pid": 0,
                "tid": proc.cpu,
                "ts": self._ts(t),
                "s": "t",
                "args": {"sim_pid": proc.pid},
            }
        )

    # -- memory-system sink protocol ----------------------------------------
    def after_transaction(self, cpu: int, addr: int, now: int) -> None:
        self._note_cpu(cpu)
        self._emit(
            {
                "name": "coherence",
                "cat": "mem",
                "ph": "i",
                "pid": 0,
                "tid": cpu,
                "ts": self._ts(now),
                "s": "t",
                "args": {"addr": hex(addr)},
            }
        )

    # -- sweep-engine sink protocol -----------------------------------------
    def _sweep_instant(self, name: str, args: dict) -> None:
        self._saw_sweep_events = True
        self._emit(
            {
                "name": name,
                "cat": "sweep",
                "ph": "i",
                "pid": 1,
                "tid": 0,
                "ts": (time.perf_counter() - self._sweep_t0) * 1e6,
                "s": "p",
                "args": args,
            }
        )

    def on_cell_done(self, key, source: str) -> None:
        self._sweep_instant("cell:done", {"cell": str(key), "source": source})

    def on_cell_retry(self, key, attempt: int, kind: str, delay_s: float) -> None:
        self._sweep_instant(
            f"cell:retry:{kind}",
            {"cell": str(key), "attempt": attempt, "delay_s": delay_s},
        )

    def on_cell_timeout(self, key, attempt: int, elapsed_s: float) -> None:
        self._sweep_instant(
            "cell:timeout",
            {"cell": str(key), "attempt": attempt, "elapsed_s": elapsed_s},
        )

    def on_cell_quarantined(self, key, kind: str, error: str) -> None:
        self._sweep_instant(
            "cell:quarantined",
            {"cell": str(key), "kind": kind, "error": error},
        )

    def on_sweep_degraded(self, reason: str) -> None:
        self._sweep_instant("sweep:degraded", {"reason": reason})

    def on_chunk_dispatch(self, host: str, token: int, n_cells: int) -> None:
        self._sweep_instant(
            "host:dispatch",
            {"host": host, "token": token, "n_cells": n_cells},
        )

    def on_host_heartbeat(self, host: str, payload: dict) -> None:
        self._sweep_instant(
            "host:hello" if payload.get("hello") else "host:heartbeat",
            dict(payload, host=host),
        )

    def on_host_lost(self, host: str, error: str, n_requeued: int) -> None:
        self._sweep_instant(
            "host:lost",
            {"host": host, "error": error, "n_requeued": n_requeued},
        )

    def on_cell_requeue(self, key, host: str, reason: str) -> None:
        self._sweep_instant(
            "cell:requeue",
            {"cell": str(key), "host": host, "reason": reason},
        )

    # -- output -------------------------------------------------------------
    def to_json(self) -> dict:
        """The full trace object (JSON-serializable)."""
        meta = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 0,
                "args": {"name": "simulated machine"},
            }
        ]
        for cpu in sorted(self._seen_cpus):
            meta.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 0,
                    "tid": cpu,
                    "args": {"name": f"cpu{cpu}"},
                }
            )
        if self._saw_sweep_events:
            meta.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": 1,
                    "args": {"name": "sweep engine (host time)"},
                }
            )
        return {
            "traceEvents": meta + self._events,
            "displayTimeUnit": "ms",
            "otherData": {
                "cycles_per_us": self.cycles_per_us,
                "emitted_events": len(self._events),
                "dropped_events": self._dropped,
            },
        }

    def write(self, path) -> Path:
        """Serialize to ``path``; returns the path written."""
        path = Path(path)
        path.write_text(json.dumps(self.to_json()))
        return path

    @property
    def n_events(self) -> int:
        return len(self._events)


def load_chrome_trace(path) -> dict:
    """Read back a trace file, validating the structural contract the
    exporter promises (used by tests and sanity checks)."""
    d = json.loads(Path(path).read_text())
    if not isinstance(d, dict) or "traceEvents" not in d:
        raise ValueError(f"{path}: not a Chrome trace object")
    for ev in d["traceEvents"]:
        if "ph" not in ev or "name" not in ev:
            raise ValueError(f"{path}: malformed trace event {ev!r}")
        if ev["ph"] == "X" and "dur" not in ev:
            raise ValueError(f"{path}: complete event without dur: {ev!r}")
    return d
