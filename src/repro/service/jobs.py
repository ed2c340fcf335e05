"""Experiment jobs: wire specs, the FIFO queue, and the job journal.

A *job* is one submitted experiment spec — a grid of sweep cells
(queries x platforms x process counts) — moving through the states
``queued → running → done | failed``.  Three concerns live here:

* :class:`JobSpec` — the validated, JSON-round-trippable form of a
  grid request.  Validation goes through the *existing* error
  taxonomy: unknown queries and bad shapes raise
  :class:`~repro.errors.ConfigError`, unknown platforms raise
  :class:`~repro.errors.UnknownPlatformError` (with the nearest-match
  suggestion) — exactly the errors the CLI already maps to exit code
  2, which the daemon maps to typed 4xx envelopes instead.
* :class:`JobQueue` — strict FIFO with two admission controls:
  per-tenant token-bucket **rate limiting** and whole-queue
  **backpressure** (a bounded depth).  Both refusals carry a
  ``retry_after_s`` hint the daemon turns into ``429`` +
  ``Retry-After``.
* the **job journal** — one JSON file per job under
  ``<data_dir>/jobs/``, rewritten atomically on every state change.
  After a ``kill -9`` the daemon reloads the journal and re-enqueues
  every job that was ``queued`` or ``running`` (in original submission
  order), and because cell results live in the shared
  content-addressed :class:`~repro.core.resultcache.ResultCache` and
  per-job progress in a :class:`~repro.core.resilience
  .CheckpointManifest`, the resumed job recomputes only unfinished
  cells — bitwise-identical to an uninterrupted run (the same
  guarantee ``repro sweep --resume`` has had since PR 5, now held by a
  daemon).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..config import DEFAULT_SIM, SimConfig
from ..errors import ConfigError, ReproError
from ..core.sweep import CellKey, normalize_cell
from ..mem.registry import REGISTRY
from ..tpch.datagen import TPCHConfig
from ..tpch.queries import QUERIES, PAPER_QUERIES

#: Journal format version; bump on any serialization change.
JOB_FORMAT = 1

#: Job lifecycle states.
JOB_STATES = ("queued", "running", "done", "failed")


class QueueFullError(ReproError):
    """The FIFO queue is at capacity (backpressure)."""

    def __init__(self, depth: int, retry_after_s: float) -> None:
        self.depth = depth
        self.retry_after_s = retry_after_s
        super().__init__(
            f"job queue is full ({depth} job(s) queued); "
            f"retry in {retry_after_s:.0f}s"
        )


class RateLimitedError(ReproError):
    """A tenant exhausted its submission token bucket."""

    def __init__(self, tenant: str, retry_after_s: float) -> None:
        self.tenant = tenant
        self.retry_after_s = retry_after_s
        super().__init__(
            f"tenant {tenant!r} is rate-limited; "
            f"retry in {retry_after_s:.1f}s"
        )


@dataclass(frozen=True)
class JobSpec:
    """One grid request, validated and JSON-round-trippable.

    The field set deliberately mirrors the ``repro sweep`` CLI axes —
    a submission is a sweep that runs on someone else's machine.
    """

    queries: Tuple[str, ...]
    platforms: Tuple[str, ...]
    nprocs: Tuple[int, ...]
    repetitions: int = 1
    param_mode: str = "default"
    sf: float = 0.001
    seed: int = 19920101

    def __post_init__(self) -> None:
        if not self.queries:
            raise ConfigError("spec needs at least one query")
        if not self.platforms:
            raise ConfigError("spec needs at least one platform")
        if not self.nprocs:
            raise ConfigError("spec needs at least one process count")
        for q in self.queries:
            if q not in QUERIES:
                raise ConfigError(
                    f"unknown query {q!r}; known: {', '.join(sorted(QUERIES))}"
                )
        for n in self.nprocs:
            if not isinstance(n, int) or n < 1:
                raise ConfigError(f"process counts must be integers >= 1, got {n!r}")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.param_mode not in ("default", "random"):
            raise ConfigError("param_mode must be 'default' or 'random'")
        if not self.sf > 0:
            raise ConfigError("sf must be > 0")
        # Resolve every platform now: unknown names raise
        # UnknownPlatformError (with suggestion) at admission time, not
        # halfway through a queued job.  Only *registered* names are
        # admitted — a wire client has no business naming paths on the
        # daemon's filesystem (register the machine file server-side).
        for p in self.platforms:
            REGISTRY.get(p)

    # -- wire codec ---------------------------------------------------------
    @classmethod
    def from_payload(cls, d: dict) -> "JobSpec":
        """Build a spec from a submission payload (raises the
        :mod:`repro.errors` taxonomy on anything invalid)."""
        if not isinstance(d, dict):
            raise ConfigError("spec must be a JSON object")
        known = {
            "queries", "platforms", "nprocs", "repetitions",
            "param_mode", "sf", "seed",
        }
        unknown = sorted(set(d) - known)
        if unknown:
            raise ConfigError(
                f"unknown spec field(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )

        def as_tuple(key, default):
            value = d.get(key, default)
            if isinstance(value, (str, int)):
                value = [value]
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"spec field {key!r} must be a list")
            return tuple(value)

        try:
            repetitions = int(d.get("repetitions", 1))
            seed = int(d.get("seed", 19920101))
            sf = float(d.get("sf", 0.001))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad numeric spec field: {exc}") from None
        return cls(
            queries=tuple(str(q) for q in as_tuple("queries", list(PAPER_QUERIES))),
            platforms=tuple(
                str(p) for p in as_tuple("platforms", list(REGISTRY.paper_platforms()))
            ),
            nprocs=as_tuple("nprocs", [1]),
            repetitions=repetitions,
            param_mode=str(d.get("param_mode", "default")),
            sf=sf,
            seed=seed,
        )

    def to_dict(self) -> dict:
        return {
            "queries": list(self.queries),
            "platforms": list(self.platforms),
            "nprocs": list(self.nprocs),
            "repetitions": self.repetitions,
            "param_mode": self.param_mode,
            "sf": self.sf,
            "seed": self.seed,
        }

    # -- derived ------------------------------------------------------------
    def cells(self) -> List[CellKey]:
        """The grid this spec names, in canonical order."""
        return [
            normalize_cell((q, p, n, self.repetitions, self.param_mode))
            for q in self.queries
            for p in self.platforms
            for n in self.nprocs
        ]

    def tpch(self) -> TPCHConfig:
        return TPCHConfig(sf=self.sf, seed=self.seed)

    def sim(self) -> SimConfig:
        return DEFAULT_SIM

    def fingerprint(self) -> str:
        """Content address of the spec (not the code): two submissions
        of the same grid share it, which is what makes cross-tenant
        dedup visible in job metadata."""
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class Job:
    """One submission moving through the queue."""

    id: str
    seq: int
    tenant: str
    spec: JobSpec
    state: str = "queued"
    #: Sweep attempts (a recovered job increments this).
    attempts: int = 0
    error: Optional[str] = None
    #: The finished sweep's report dict (ran/memoized/cache stats...).
    report: Optional[dict] = None

    def to_dict(self) -> dict:
        return {
            "format": JOB_FORMAT,
            "id": self.id,
            "seq": self.seq,
            "tenant": self.tenant,
            "spec": self.spec.to_dict(),
            "spec_fingerprint": self.spec.fingerprint(),
            "state": self.state,
            "attempts": self.attempts,
            "error": self.error,
            "report": self.report,
            "n_cells": len(self.spec.cells()),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Job":
        return cls(
            id=str(d["id"]),
            seq=int(d["seq"]),
            tenant=str(d.get("tenant", "anonymous")),
            spec=JobSpec.from_payload(d["spec"]),
            state=str(d.get("state", "queued")),
            attempts=int(d.get("attempts", 0)),
            error=d.get("error"),
            report=d.get("report"),
        )


class TokenBucket:
    """Per-tenant submission budget: ``burst`` tokens, refilled at
    ``rate_per_s``.  Time injectable for tests."""

    def __init__(self, rate_per_s: float, burst: int, clock=time.monotonic):
        self.rate_per_s = rate_per_s
        self.burst = burst
        self._clock = clock
        self._tokens = float(burst)
        self._last = clock()

    def try_take(self) -> Optional[float]:
        """Take one token; ``None`` on success, else seconds until the
        next token becomes available."""
        now = self._clock()
        self._tokens = min(
            float(self.burst),
            self._tokens + (now - self._last) * self.rate_per_s,
        )
        self._last = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return None
        if self.rate_per_s <= 0:
            return 3600.0
        return (1.0 - self._tokens) / self.rate_per_s


class JobQueue:
    """Strict FIFO job queue with admission control and a crash journal.

    Thread-safe: the HTTP handler threads submit and read, a single
    worker thread pops — one worker is what makes the queue's FIFO
    promise also an *execution order* promise (and what lets every job
    reuse the cells of the jobs admitted before it through the shared
    result cache).

    Everything that waits on the daemon waits on :attr:`changed`, one
    condition on the queue lock: the idle worker (:meth:`next_job`),
    SSE followers and shutdown (:meth:`close`).  Every state change —
    admission, ``running``, ``done``/``failed``, and each event a
    running job journals — happens under the lock and notifies it, so
    a waiter that re-checks under the lock can neither miss a wake-up
    nor see a terminal state before the events that preceded it.
    """

    def __init__(
        self,
        data_dir: Path,
        max_depth: int = 64,
        rate_per_s: float = 10.0,
        burst: int = 20,
        clock=time.monotonic,
    ) -> None:
        self.data_dir = Path(data_dir)
        self.jobs_dir = self.data_dir / "jobs"
        self.max_depth = max_depth
        self.rate_per_s = rate_per_s
        self.burst = burst
        self._clock = clock
        self._lock = threading.Lock()
        #: Notified on every job state change, journal append and close.
        self.changed = threading.Condition(self._lock)
        #: Set by :meth:`close`: the daemon is shutting down.
        self.closed = False
        self._jobs: Dict[str, Job] = {}
        self._fifo: List[str] = []  # queued job ids, FIFO
        self._buckets: Dict[str, TokenBucket] = {}
        self._next_seq = 0
        #: Jobs dropped versus admitted, for the service-info endpoint.
        self.admitted = 0
        self.rejected_full = 0
        self.rejected_rate = 0

    # -- journal ------------------------------------------------------------
    def _job_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.json"

    def _persist(self, job: Job) -> None:
        """Atomic journal write (unique tmp + rename), same discipline
        as the result cache and checkpoint manifest.  Called with the
        lock held, so the file on disk never runs behind a state a
        waiter has already seen (and two writers cannot rename out of
        order)."""
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        path = self._job_path(job.id)
        fd, tmp = tempfile.mkstemp(
            dir=str(self.jobs_dir), prefix=f".{path.name}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(job.to_dict(), sort_keys=True))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def recover(self) -> List[Job]:
        """Reload the journal after a restart.

        Jobs that were ``queued`` or ``running`` when the daemon died
        re-enter the FIFO in original submission order (``running``
        ones first — they were admitted earlier by construction) with
        ``attempts`` preserved; finished jobs just become readable
        again.  Returns the re-enqueued jobs.
        """
        recovered: List[Job] = []
        entries = []
        try:
            paths = sorted(self.jobs_dir.glob("*.json"))
        except OSError:
            paths = []
        for path in paths:
            try:
                d = json.loads(path.read_text())
                job = Job.from_dict(d)
            except (OSError, ValueError, KeyError, ConfigError, TypeError):
                continue  # a torn/foreign file is not a reason to refuse to start
            entries.append(job)
        entries.sort(key=lambda j: j.seq)
        with self._lock:
            for job in entries:
                self._jobs[job.id] = job
                self._next_seq = max(self._next_seq, job.seq + 1)
                if job.state in ("queued", "running"):
                    if job.state == "running":
                        job.state = "queued"
                    self._fifo.append(job.id)
                    recovered.append(job)
                    self._persist(job)
            self.changed.notify_all()
        return recovered

    # -- admission ----------------------------------------------------------
    def submit(self, tenant: str, spec: JobSpec) -> Job:
        """Admit one job, or raise :class:`RateLimitedError` /
        :class:`QueueFullError` with a ``retry_after_s`` hint."""
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = self._buckets[tenant] = TokenBucket(
                    self.rate_per_s, self.burst, self._clock
                )
            retry = bucket.try_take()
            if retry is not None:
                self.rejected_rate += 1
                raise RateLimitedError(tenant, retry)
            if len(self._fifo) >= self.max_depth:
                self.rejected_full += 1
                # A full queue drains at sweep speed; hint one job's
                # worth of patience per queued job ahead of the caller.
                raise QueueFullError(len(self._fifo), 5.0 * len(self._fifo))
            seq = self._next_seq
            self._next_seq += 1
            job_id = f"{spec.fingerprint()}-{seq:06d}"
            job = Job(id=job_id, seq=seq, tenant=tenant, spec=spec)
            self._jobs[job_id] = job
            self._fifo.append(job_id)
            self.admitted += 1
            self._persist(job)
            self.changed.notify_all()
        return job

    # -- worker side --------------------------------------------------------
    def next_job(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Pop the oldest queued job, marking it ``running``.  Blocks
        until there is one; ``None`` on timeout or once the queue is
        closed."""
        with self._lock:
            self.changed.wait_for(
                lambda: self._fifo or self.closed, timeout
            )
            if self.closed or not self._fifo:
                return None
            job = self._jobs[self._fifo.pop(0)]
            job.state = "running"
            job.attempts += 1
            self._persist(job)
            self.changed.notify_all()
        return job

    def finish(
        self,
        job: Job,
        report: Optional[dict] = None,
        error: Optional[str] = None,
    ) -> None:
        """Record a job's terminal state (``done`` or ``failed``)."""
        with self._lock:
            job.state = "failed" if error is not None else "done"
            job.error = error
            job.report = report
            self._persist(job)
            self.changed.notify_all()

    def close(self) -> None:
        """Wake every waiter for shutdown: :meth:`next_job` returns
        ``None`` from now on and followers stop following."""
        with self._lock:
            self.closed = True
            self.changed.notify_all()

    # -- readers ------------------------------------------------------------
    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        """Every known job, submission order."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.seq)

    @property
    def depth(self) -> int:
        """Queued (not yet running) jobs."""
        with self._lock:
            return len(self._fifo)

    def stats(self) -> dict:
        with self._lock:
            states: Dict[str, int] = {s: 0 for s in JOB_STATES}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            return {
                "depth": len(self._fifo),
                "max_depth": self.max_depth,
                "admitted": self.admitted,
                "rejected_rate_limited": self.rejected_rate,
                "rejected_queue_full": self.rejected_full,
                "rate_per_s": self.rate_per_s,
                "burst": self.burst,
                "states": states,
            }
