"""Resilience layer for long sweep campaigns.

The paper's result grid is a multi-cell campaign (query x platform x
n_procs), and long campaigns are exactly where partial failure
dominates: workers die, cells hang, results arrive mangled, machines
get rebooted mid-run.  This module gives the sweep engine everything it
needs to *finish anyway*:

* :class:`RetryPolicy` — bounded exponential backoff whose jitter is a
  pure function of ``(seed, cell, attempt)``, so two runs of the same
  campaign schedule byte-identical retry delays.
* :class:`FaultPlan` — a deterministic fault-injection harness.  A plan
  serialized into the ``REPRO_FAULT_INJECT`` environment variable makes
  worker processes crash (``os._exit``), hang (sleep), or return
  corrupted results, with the victim cells selected by a seeded hash of
  the cell identity and each fault recorded in an on-disk *ledger* so a
  cell faults at most ``max_hits`` times and every retry path is
  exercised end-to-end in CI.
* :class:`CheckpointManifest` — a small JSON manifest persisted next to
  the :class:`~repro.core.resultcache.ResultCache` recording per-cell
  sweep progress.  After a ``kill -9``, ``repro sweep --resume`` reads
  it (and the cache) and recomputes only unfinished cells,
  bitwise-identical to an uninterrupted run.
* :func:`validate_result` — the structural checks the engine applies to
  every result crossing a process boundary, so a corrupted payload is a
  retryable fault rather than a poisoned grid.
* :class:`SweepReport` / :class:`CellFailure` — the structured outcome
  of a resilient sweep: cells that exhausted their retries are
  *quarantined* into ``failed`` and the sweep completes instead of
  aborting.

The engine that consumes all of this lives in
:class:`repro.core.parallel.ParallelSweepRunner.execute`; retries,
timeouts, quarantines, and degradations are published as
:data:`~repro.obs.bus.SWEEP_EVENTS` on the observer bus.

Fault classification
--------------------
Application exceptions raised *inside* a cell (bad spec, simulator
bug) are deterministic — a pure function of the spec — so retrying
them is wasted work: they quarantine immediately with kind
``"error"``.  Infrastructure faults — a dead worker (``"crash"``), an
expired chunk deadline (``"timeout"``), a result failing validation
(``"corrupt"``) — are transient and retried under the
:class:`RetryPolicy` before quarantine.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..atomicfile import atomic_write
from ..errors import ConfigError
from .experiment import ExperimentResult, ExperimentSpec, run_experiment
from .resultcache import ResultCache
from .sweep import CellKey

#: Environment variable a serialized :class:`FaultPlan` travels in.
FAULT_ENV = "REPRO_FAULT_INJECT"

#: Exit status a crash fault dies with (distinguishable from a real
#: SIGKILL in the ledger-less worst case).
CRASH_EXIT = 23

#: Fault classes a :class:`FaultPlan` can inject.
FAULT_KINDS = ("crash", "hang", "corrupt")


def cell_id(spec: ExperimentSpec) -> str:
    """The cell identity string fault selection and manifests key on:
    ``query:platform:n_procs:repetitions:param_mode``."""
    return (
        f"{spec.query}:{spec.platform}:{spec.n_procs}"
        f":{spec.repetitions}:{spec.param_mode}"
    )


def key_str(key: CellKey) -> str:
    """Manifest/ledger form of a :data:`CellKey` (same shape as
    :func:`cell_id` but computed without building a spec)."""
    return ":".join(str(part) for part in key)


def _unit_fraction(*parts) -> float:
    """Deterministic hash of ``parts`` mapped into ``[0, 1)``."""
    blob = ":".join(str(p) for p in parts).encode()
    return int(hashlib.sha256(blob).hexdigest()[:8], 16) / float(1 << 32)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic seeded jitter.

    ``delay_s(attempt, token)`` grows as ``base_delay_s * 2**(attempt-1)``,
    caps at ``max_delay_s``, and is shrunk by up to ``jitter_frac`` by a
    hash of ``(seed, token, attempt)`` — deterministic per cell and
    attempt, so a re-run of the same campaign schedules identical
    delays while concurrent cells still decorrelate.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    jitter_frac: float = 0.25
    seed: int = 0xB0FF

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < self.base_delay_s:
            raise ConfigError("need 0 <= base_delay_s <= max_delay_s")
        if not 0.0 <= self.jitter_frac <= 1.0:
            raise ConfigError("jitter_frac must be in [0, 1]")

    def delay_s(self, attempt: int, token: str) -> float:
        """Backoff before retry number ``attempt`` (1-based) of the cell
        identified by ``token``."""
        raw = self.base_delay_s * (2.0 ** max(0, attempt - 1))
        capped = min(raw, self.max_delay_s)
        return capped * (1.0 - self.jitter_frac * _unit_fraction(
            self.seed, token, attempt
        ))


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic fault injection for sweep workers.

    A plan names one fault ``kind`` (:data:`FAULT_KINDS`) and selects
    victim cells by a seeded hash of their :func:`cell_id` (``rate``),
    optionally narrowed to ids containing ``match``.  Every fired fault
    appends a file to the ``ledger`` directory first, and a cell whose
    ledger already holds ``max_hits`` entries is left alone — which is
    what lets a retried cell eventually succeed, deterministically.

    ``scope="worker"`` (the default) arms the plan only inside sweep
    host workers (which set ``REPRO_WORKER=1``) — so a sweep that degrades
    to in-process serial execution escapes the injected faults —
    exactly the behaviour graceful degradation is for.  ``scope="any"``
    also arms the main process (used by the resume-after-kill tests to
    freeze a serial CLI sweep at a chosen cell).
    """

    kind: str
    ledger: str
    rate: float = 1.0
    seed: int = 0
    max_hits: int = 1
    scope: str = "worker"
    hang_s: float = 600.0
    match: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(f"fault kind must be one of {FAULT_KINDS}")
        if self.scope not in ("worker", "any"):
            raise ConfigError("fault scope must be 'worker' or 'any'")
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigError("fault rate must be in [0, 1]")
        if not self.ledger:
            raise ConfigError("fault plan needs a ledger directory")

    # -- env transport ------------------------------------------------------
    def to_env(self) -> str:
        """Serialize for :data:`FAULT_ENV` (JSON)."""
        return json.dumps({
            "kind": self.kind, "ledger": self.ledger, "rate": self.rate,
            "seed": self.seed, "max_hits": self.max_hits,
            "scope": self.scope, "hang_s": self.hang_s, "match": self.match,
        })

    @classmethod
    def from_env(cls, value: str) -> "FaultPlan":
        """Parse a plan from its :meth:`to_env` form."""
        try:
            d = json.loads(value)
            if not isinstance(d, dict):
                raise ValueError("not a JSON object")
        except ValueError as exc:
            raise ConfigError(f"bad {FAULT_ENV} value: {exc}") from None
        return cls(**d)

    # -- selection ----------------------------------------------------------
    def armed(self) -> bool:
        """Is the plan active in *this* process (scope check)?"""
        return self.scope == "any" or os.environ.get("REPRO_WORKER") == "1"

    def _hits(self, cid: str) -> int:
        try:
            return sum(
                1 for _ in Path(self.ledger).glob(f"{cid}.hit.*")
            )
        except OSError:
            return 0

    def _record(self, cid: str) -> None:
        root = Path(self.ledger)
        root.mkdir(parents=True, exist_ok=True)
        for n in range(10_000):
            entry = root / f"{cid}.hit.{os.getpid()}.{n}"
            try:
                entry.touch(exist_ok=False)
                return
            except FileExistsError:
                continue

    def should_fire(self, spec: ExperimentSpec) -> bool:
        """Does the plan target this cell, here, now?"""
        if not self.armed():
            return False
        cid = cell_id(spec)
        if self.match and self.match not in cid:
            return False
        if self.rate < 1.0 and _unit_fraction(self.seed, cid) >= self.rate:
            return False
        return self._hits(cid) < self.max_hits

    # -- execution ----------------------------------------------------------
    def inject_before(self, spec: ExperimentSpec) -> None:
        """Fire a crash/hang fault (if armed and selected) before the
        cell runs.  A crash never returns; a hang sleeps ``hang_s`` and
        then lets the cell proceed (the parent's deadline fires first)."""
        if self.kind not in ("crash", "hang") or not self.should_fire(spec):
            return
        self._record(cell_id(spec))
        if self.kind == "crash":
            os._exit(CRASH_EXIT)
        time.sleep(self.hang_s)

    def inject_after(
        self, spec: ExperimentSpec, result: ExperimentResult
    ) -> ExperimentResult:
        """Return ``result``, or a corrupted copy of it when a corrupt
        fault fires (the original — and anything cached — stays good:
        this models transport corruption, not bad computation)."""
        if self.kind != "corrupt" or not self.should_fire(spec):
            return result
        self._record(cell_id(spec))
        mangled = copy.deepcopy(result)
        mangled.runs[0].wall_cycles = -1 - mangled.runs[0].wall_cycles
        return mangled


_plan_cache: Tuple[Optional[str], Optional[FaultPlan]] = (None, None)


def current_fault_plan() -> Optional[FaultPlan]:
    """The :class:`FaultPlan` in :data:`FAULT_ENV`, or ``None`` (parsed
    once per distinct env value)."""
    global _plan_cache
    raw = os.environ.get(FAULT_ENV)
    if _plan_cache[0] != raw:
        _plan_cache = (raw, FaultPlan.from_env(raw) if raw else None)
    return _plan_cache[1]


def run_cell_guarded(
    spec: ExperimentSpec,
    cache: Optional[ResultCache] = None,
    trace_store=None,
) -> Tuple[ExperimentResult, str]:
    """Run (or load, or replay) one cell under the ambient
    :class:`FaultPlan`.

    This is the single choke point both the in-process serial path and
    the worker chunk loop go through, so fault injection exercises the
    exact production code path.  Returns ``(result, source)`` where
    ``source`` records how the cell was satisfied: ``"cache"`` (result
    cache hit), ``"ran"`` (direct execution), or — with a
    ``trace_store`` (:class:`~repro.trace.store.TraceStore`) —
    ``"captured"`` (executed while recording its workload tape) or
    ``"replay"`` (tape replayed through this cell's machine, executor
    skipped).  A freshly-computed result is written to ``cache``
    *before* corrupt injection — the cache never holds a corrupted
    entry, and the retry converges by reading it back.
    """
    from ..trace.capture import run_or_replay

    plan = current_fault_plan()
    if plan is not None:
        plan.inject_before(spec)
    result = cache.get(spec) if cache is not None else None
    source = "cache"
    if result is None:
        result, source = run_or_replay(spec, trace_store)
        if cache is not None:
            cache.put(spec, result)
    if plan is not None:
        result = plan.inject_after(spec, result)
    return result, source


def validate_result(
    spec: ExperimentSpec, result: ExperimentResult
) -> Optional[str]:
    """Structural validity of a result that crossed a process boundary.

    Returns ``None`` when the result is plausible for ``spec``, else a
    human-readable defect description (treated by the engine as a
    transient ``"corrupt"`` fault).
    """
    if result is None:
        return "no result returned"
    if result.spec != spec:
        return "result spec does not match the requested spec"
    if len(result.runs) != spec.repetitions:
        return (
            f"expected {spec.repetitions} repetition(s), "
            f"got {len(result.runs)}"
        )
    for i, run in enumerate(result.runs):
        if len(run.per_process) != spec.n_procs:
            return (
                f"run {i}: expected {spec.n_procs} per-process "
                f"snapshots, got {len(run.per_process)}"
            )
        if run.wall_cycles < 0:
            return f"run {i}: negative wall_cycles ({run.wall_cycles})"
    return None


@dataclass
class CellFailure:
    """One quarantined cell of a resilient sweep."""

    key: CellKey
    kind: str  # "error" | "crash" | "timeout" | "corrupt"
    attempts: int
    error: str
    cause: Optional[BaseException] = field(
        default=None, repr=False, compare=False
    )

    def to_dict(self) -> dict:
        """JSON-ready form (the exception object stays behind)."""
        return {
            "cell": key_str(self.key),
            "kind": self.kind,
            "attempts": self.attempts,
            "error": self.error,
        }


@dataclass
class SweepReport:
    """Structured outcome of one resilient sweep execution."""

    total: int = 0
    ran: int = 0
    memoized: int = 0
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    #: Executor teardowns: each restarts or replaces the worker fleet.
    pool_rebuilds: int = 0
    host_losses: int = 0
    requeues: int = 0
    degraded: bool = False
    duration_s: float = 0.0
    failed: List[CellFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every cell completed (possibly after retries)."""
        return not self.failed

    def to_dict(self) -> dict:
        """JSON-ready summary (the ``repro sweep --json`` payload)."""
        return {
            "total": self.total,
            "ran": self.ran,
            "memoized": self.memoized,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "pool_rebuilds": self.pool_rebuilds,
            "host_losses": self.host_losses,
            "requeues": self.requeues,
            "degraded": self.degraded,
            "duration_s": round(self.duration_s, 3),
            "failed_cells": [f.to_dict() for f in self.failed],
            "ok": self.ok,
        }

    def summary_lines(self) -> List[str]:
        """Human-readable sweep-end summary (only the interesting
        lines: a clean sweep adds nothing)."""
        out = []
        if self.retries or self.crashes or self.timeouts:
            out.append(
                f"resilience: {self.retries} retries "
                f"({self.crashes} worker crashes, {self.timeouts} timeouts, "
                f"{self.pool_rebuilds} executor teardowns)"
            )
        if self.host_losses:
            out.append(
                f"resilience: {self.host_losses} host(s) lost, "
                f"{self.requeues} cell(s) re-queued to survivors"
            )
        if self.degraded:
            out.append(
                "resilience: workers unhealthy — degraded to in-process "
                "serial execution"
            )
        for f in self.failed:
            out.append(
                f"FAILED cell {key_str(f.key)}: {f.kind} after "
                f"{f.attempts} attempt(s) — {f.error}"
            )
        return out


class CheckpointManifest:
    """Per-sweep progress manifest persisted next to the result cache.

    The manifest is keyed by a *sweep id* — a hash of every member
    cell's :func:`~repro.core.resultcache.spec_fingerprint`, so it
    covers the cell set **and** the code/config that produced it.  A
    manifest on disk from a different sweep id (edited code, different
    grid) is ignored rather than merged.  Writes are atomic
    (tmp + rename), so a ``kill -9`` leaves either the old or the new
    manifest, never a torn one.
    """

    FORMAT = 1

    def __init__(self, path: Path, sweep_id: str, keys: Sequence[CellKey]):
        self.path = Path(path)
        self.sweep_id = sweep_id
        self.cells: Dict[str, dict] = {
            key_str(k): {"status": "pending", "attempts": 0, "error": None}
            for k in keys
        }

    @classmethod
    def open(
        cls,
        directory: Path,
        keys: Sequence[CellKey],
        fingerprints: Iterable[str],
    ) -> "CheckpointManifest":
        """Create (or reload) the manifest for this sweep under
        ``directory``.  Prior progress is merged only when the on-disk
        sweep id matches."""
        digest = hashlib.sha256(
            "\n".join(sorted(fingerprints)).encode()
        ).hexdigest()[:16]
        path = Path(directory) / f"sweep-{digest}.manifest.json"
        manifest = cls(path, digest, keys)
        try:
            d = json.loads(path.read_text())
        except (OSError, ValueError):
            return manifest
        if (
            isinstance(d, dict)
            and d.get("format") == cls.FORMAT
            and d.get("sweep_id") == digest
        ):
            for cell, state in d.get("cells", {}).items():
                if cell in manifest.cells and isinstance(state, dict):
                    manifest.cells[cell] = state
        return manifest

    def mark(
        self,
        key: CellKey,
        status: str,
        attempts: Optional[int] = None,
        error: Optional[str] = None,
    ) -> None:
        """Record ``key``'s state and persist the manifest."""
        state = self.cells.setdefault(
            key_str(key), {"status": "pending", "attempts": 0, "error": None}
        )
        state["status"] = status
        if attempts is not None:
            state["attempts"] = attempts
        state["error"] = error
        self.save()

    def status(self, key: CellKey) -> str:
        """Current status of ``key`` (``pending``/``done``/``quarantined``)."""
        return self.cells.get(key_str(key), {}).get("status", "pending")

    @property
    def n_done(self) -> int:
        return sum(1 for s in self.cells.values() if s["status"] == "done")

    def to_dict(self) -> dict:
        """The persisted JSON object."""
        return {
            "format": self.FORMAT,
            "sweep_id": self.sweep_id,
            "cells": self.cells,
        }

    def save(self) -> None:
        """Atomically write the manifest (see
        :func:`~repro.atomicfile.atomic_write`)."""
        text = json.dumps(self.to_dict(), sort_keys=True)
        atomic_write(self.path, lambda fh: fh.write(text))
