"""Sweep executors: worker hosts speaking the frame protocol.

:class:`~repro.core.parallel.ParallelSweepRunner`'s resilient engine is
transport-agnostic: it LPT-packs cells into chunks, tracks per-chunk
deadlines, classifies faults, and retries — while a
:class:`SweepExecutor` owns *where* chunks actually run.  Every worker
is a *host* speaking the length-prefixed JSON protocol of
:mod:`repro.core.wire`, so a sweep has one fault model:

* :class:`SubprocessHostExecutor` — one host.  A ``local`` host is
  forked from the coordinator after it has built the TPC-H database and
  computed its code version, so the worker inherits both; it serves
  :func:`~repro.core.hostworker.serve` over two pipes.  ``ssh:`` and
  ``cmd:`` hosts start ``repro worker`` in a fresh interpreter (as does
  ``local`` where ``os.fork`` does not exist), and refuse a sweep whose
  code version differs from their own.
* :class:`MultiHostExecutor` — N hosts behind one event queue,
  least-loaded (LPT) chunk assignment, per-host loss isolation: a dead
  host surfaces a non-fatal ``lost`` event and its unfinished cells
  requeue to the survivors, fatal only when *no* host remains.
  ``--jobs N`` is N ``local`` hosts.

The engine consumes executors through five verbs — ``start``,
``submit``, ``next_event``, ``expire``, ``abandon`` — plus ``close``
for the clean path.  Events are plain :class:`ExecEvent` records;
result payloads cross host boundaries as JSON (never pickles) and land
in the shared content-addressed caches, so identical cells are computed
once fleet-wide and a lost host costs only its in-flight cell.

Token discipline: the engine never reuses a chunk token within one
``execute`` call, and ignores events carrying unknown tokens — so a
straggler event from an abandoned generation can never corrupt a later
one.
"""

from __future__ import annotations

import contextlib
import os
import queue
import shlex
import signal
import subprocess
import sys
import threading
import time
import traceback
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError, ReproError
from .experiment import DatabaseCache, ExperimentResult
from .resultcache import code_version, result_from_dict
from .sweep import CellKey
from .wire import (
    CodeVersionError,
    WireError,
    WorkerContext,
    cells_to_wire,
    read_frame,
    write_frame,
)

#: Host specs that name this machine.
LOCAL_HOSTS = ("local", "localhost")

#: The coordinator's ends of every host's pipes in this process, over
#: all fleets.  A forked worker closes each one still open, so every
#: worker's input has the coordinator as its only writer.
_PIPE_ENDS: "weakref.WeakSet" = weakref.WeakSet()


class ExecutorError(ReproError):
    """An executor could not be started (no live host)."""


class CellError(ReproError):
    """A cell raised in a host worker.  Exceptions do not cross the
    wire, so the message is the worker's ``repr`` of the original."""


@dataclass
class ExecEvent:
    """One executor occurrence the engine reacts to.

    ``kind`` is one of:

    * ``"cell"`` — one cell of chunk ``token`` finished with ``result``
      (``None`` when the payload could not be decoded — the engine
      validates and classifies that as a transient ``corrupt`` fault).
    * ``"chunk_done"`` — chunk ``token`` is over; ``failure`` is
      ``None`` or ``(index, error_str, cause_or_None)`` for the first
      cell that raised a deterministic error.
    * ``"lost"`` — the resource running ``tokens`` died; ``fatal`` when
      the whole executor went with it.
    * ``"heartbeat"`` — host liveness/topology (``payload``).
    """

    kind: str
    host: str = ""
    token: int = -1
    tokens: Tuple[int, ...] = ()
    index: int = -1
    result: Optional[ExperimentResult] = None
    source: str = "ran"
    failure: Optional[Tuple[int, str, Optional[BaseException]]] = None
    error: str = ""
    fatal: bool = False
    cause: Optional[BaseException] = None
    payload: dict = field(default_factory=dict)


class SweepExecutor:
    """Where sweep chunks run.  Subclasses implement the five verbs;
    the engine in :meth:`ParallelSweepRunner.execute` owns *what* runs,
    retries, and deadlines."""

    name = "executor"

    def plan_workers(self, n_units: int) -> int:
        """How many parallel lanes the engine should chunk for."""
        raise NotImplementedError

    @property
    def alive(self) -> bool:
        """Can this executor accept submissions without a restart?"""
        raise NotImplementedError

    def start(self, context: WorkerContext, n_units: int = 0) -> None:
        """(Re)provision resources; raises :class:`ExecutorError` when
        nothing could be brought up."""
        raise NotImplementedError

    def submit(self, token: int, keys: Sequence[CellKey], cost: float = 0.0) -> str:
        """Dispatch one chunk; returns the host label it went to."""
        raise NotImplementedError

    def next_event(self, timeout: Optional[float]) -> Optional[ExecEvent]:
        """Block up to ``timeout`` seconds (``None`` = indefinitely)
        for the next event; ``None`` on timeout."""
        raise NotImplementedError

    def expire(self, tokens: Sequence[int]) -> Tuple[List[int], bool]:
        """Kill the resources running ``tokens`` (hung chunks).
        Returns ``(collateral, fatal)``: other in-flight tokens that
        died with them (the engine requeues those unpenalized) and
        whether the executor as a whole is now down."""
        raise NotImplementedError

    def abandon(self) -> List[int]:
        """Tear everything down; returns the tokens still in flight."""
        raise NotImplementedError

    def close(self) -> None:
        """Clean shutdown (all work done)."""
        raise NotImplementedError


def _next(events: "queue.Queue", timeout: Optional[float]) -> Optional[ExecEvent]:
    """The next event on ``events`` within ``timeout`` seconds."""
    try:
        return events.get(timeout=None if timeout is None else max(0.0, timeout))
    except queue.Empty:
        return None


def host_argv(spec: str) -> List[str]:
    """The command line that brings up one host's ``repro worker``.

    * ``local`` / ``localhost`` — this interpreter, a fresh process
      (used where ``os.fork`` does not exist; elsewhere a local host is
      forked, see :class:`SubprocessHostExecutor`).
    * ``ssh:user@host`` — the worker on a remote machine (the remote
      end runs the same frame protocol on its stdio, which is exactly
      what ssh transports).
    * ``cmd:<shell words>`` — escape hatch for exotic transports
      (containers, job schedulers); the command must speak the worker
      protocol on its stdio.
    """
    if spec in LOCAL_HOSTS:
        return [sys.executable, "-m", "repro", "worker"]
    if spec.startswith("ssh:"):
        target = spec[len("ssh:"):]
        if not target:
            raise ConfigError("ssh host spec needs a target (ssh:user@host)")
        return ["ssh", "-o", "BatchMode=yes", target, "repro", "worker"]
    if spec.startswith("cmd:"):
        argv = shlex.split(spec[len("cmd:"):])
        if not argv:
            raise ConfigError("cmd host spec needs a command")
        return argv
    raise ConfigError(
        f"unknown host spec {spec!r} (use local, ssh:user@host, or cmd:...)"
    )


def parse_hosts(raw) -> List[str]:
    """Parse a ``--hosts``/``REPRO_HOSTS`` value into host specs.

    A comma-separated list; an integer entry ``N`` is shorthand for
    ``N`` local hosts (``--hosts 4`` simulates a four-host fleet on one
    machine — the CI topology)."""
    if isinstance(raw, (list, tuple)):
        parts = [str(p) for p in raw]
    else:
        parts = str(raw).split(",")
    specs: List[str] = []
    for part in parts:
        part = part.strip()
        if not part:
            continue
        if part.isdigit():
            n = int(part)
            if n < 1:
                raise ConfigError("host count must be >= 1")
            specs.extend(["local"] * n)
        else:
            specs.append(part)
    if not specs:
        raise ConfigError("--hosts needs at least one host spec")
    return specs


class _ForkedWorker:
    """A ``local`` host forked from the coordinator.

    The child closes the coordinator's pipe ends — its own and every
    other host's (:data:`_PIPE_ENDS`), so each worker's stdin has
    exactly one writer and reads EOF the moment the coordinator dies —
    points fd 1 at stderr as ``repro worker`` does, serves
    :func:`~repro.core.hostworker.serve` over its two pipes, and always
    leaves through ``os._exit``: it never returns into the coordinator's
    stack.  The parent gets the slice of :class:`subprocess.Popen` the
    host executor uses (``stdin``, ``stdout``, ``poll``, ``wait``,
    ``kill``)."""

    def __init__(self) -> None:
        from .hostworker import serve

        down_r, down_w = os.pipe()
        up_r, up_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            # Held until os._exit, so no inherited stream is finalized
            # (and its fd number closed again) while the worker runs.
            inherited = [s for s in list(_PIPE_ENDS) if not s.closed]
            try:
                for fd in (down_w, up_r, *(s.fileno() for s in inherited)):
                    os.close(fd)
                os.dup2(2, 1)  # a stray print must not reach the caller's stdout
                code = serve(os.fdopen(down_r, "rb"), os.fdopen(up_w, "wb"))
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(code)
        os.close(down_r)
        os.close(up_w)
        self.pid = pid
        self.stdin = os.fdopen(down_w, "wb")
        self.stdout = os.fdopen(up_r, "rb")
        self.returncode: Optional[int] = None
        self._lock = threading.Lock()

    def poll(self) -> Optional[int]:
        with self._lock:
            if self.returncode is None:
                pid, status = os.waitpid(self.pid, os.WNOHANG)
                if pid:
                    self.returncode = os.waitstatus_to_exitcode(status)
            return self.returncode

    def wait(self, timeout: Optional[float] = None) -> int:
        deadline = None if timeout is None else time.monotonic() + timeout
        delay = 0.0005
        while self.poll() is None:
            if deadline is not None and time.monotonic() >= deadline:
                raise subprocess.TimeoutExpired(f"worker {self.pid}", timeout)
            time.sleep(delay)
            delay = min(delay * 2, 0.05)
        return self.returncode

    def kill(self) -> None:
        with self._lock:
            if self.returncode is None:  # never signal a reaped pid
                os.kill(self.pid, signal.SIGKILL)


class SubprocessHostExecutor(SweepExecutor):
    """One sweep host: a worker process speaking the
    :mod:`repro.core.wire` frame protocol over a pair of pipes.

    A ``local`` host is forked from the coordinator (see
    :class:`_ForkedWorker`); any other host, and ``local`` where
    ``os.fork`` does not exist, runs :func:`host_argv`'s command with
    the pipes on its stdio.  A reader thread drains the worker's output
    into an event queue (optionally shared with sibling hosts by
    :class:`MultiHostExecutor`); the other pipe carries config and chunk
    frames.  Any stream surprise — EOF with chunks in flight, a garbage
    frame, a refusal — declares the host *lost*: its in-flight tokens
    ride out on one ``lost`` event and the process is killed, never
    limped along.  A host that refused the sweep for its code version
    stays ``refused``: :meth:`start` will not bring it up again.
    """

    def __init__(
        self,
        host: str = "local",
        label: Optional[str] = None,
        events: Optional["queue.Queue"] = None,
    ) -> None:
        self.host = host
        self.label = label or host
        self.name = f"host:{self.label}"
        self._events: "queue.Queue" = events if events is not None else queue.Queue()
        self._proc = None  # subprocess.Popen or _ForkedWorker
        self._context: Optional[WorkerContext] = None
        self._chunks: Dict[int, List[CellKey]] = {}
        self._lock = threading.Lock()
        self._dead = False
        self._expected_exit = False
        #: Set when the worker refused this coordinator's code version.
        self.refused = False

    def plan_workers(self, n_units: int) -> int:
        return 1  # one worker process per host

    @property
    def alive(self) -> bool:
        return (
            self._proc is not None
            and self._proc.poll() is None
            and not self._dead
        )

    def _fork(self, context: WorkerContext) -> _ForkedWorker:
        # Build the database and hash the sources before forking, so
        # the worker inherits both instead of making its own.
        DatabaseCache.get(context.tpch)
        code_version()
        return _ForkedWorker()

    def _spawn(self) -> subprocess.Popen:
        env = dict(os.environ)
        env["REPRO_WORKER"] = "1"  # arm worker-scoped fault plans
        if not self.host.startswith("ssh:"):
            # A local worker must import the same ``repro`` tree as the
            # coordinator even when the coordinator got it via sys.path
            # (a script, a pytest run) rather than an installed package
            # or an exported PYTHONPATH.
            pkg_root = str(Path(__file__).resolve().parents[2])
            parts = [pkg_root] + [
                p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p
            ]
            env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
        return subprocess.Popen(
            host_argv(self.host),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
        )

    def start(self, context: WorkerContext, n_units: int = 0) -> None:
        if self.alive:
            return
        if self.refused:
            raise ExecutorError(
                f"host {self.label} refused this coordinator's code version"
            )
        self._context = context
        self._dead = False
        self._expected_exit = False
        try:
            if self.host in LOCAL_HOSTS and hasattr(os, "fork"):
                self._proc = self._fork(context)
            else:
                self._proc = self._spawn()
            _PIPE_ENDS.add(self._proc.stdin)
            _PIPE_ENDS.add(self._proc.stdout)
            write_frame(self._proc.stdin, context.to_message())
        except (OSError, ValueError) as exc:
            self._proc = None
            raise ExecutorError(
                f"host {self.label}: could not start worker ({exc})"
            ) from exc
        reader = threading.Thread(
            target=self._read_loop, args=(self._proc,),
            name=f"repro-host-{self.label}", daemon=True,
        )
        reader.start()

    # -- reader thread ------------------------------------------------------
    def _read_loop(self, proc) -> None:
        error, cause = "", None
        try:
            while True:
                message = read_frame(proc.stdout)
                if message is None:
                    break
                self._handle(message)
        except WireError as exc:
            error, cause = str(exc), exc
        except Exception as exc:  # pragma: no cover - defensive
            error = repr(exc)
        if self._expected_exit:
            return
        try:
            rc = proc.wait(timeout=5)
        except Exception:
            rc = proc.poll()
        with self._lock:
            self._dead = True
            tokens = tuple(self._chunks)
            self._chunks.clear()
        self._events.put(ExecEvent(
            kind="lost", host=self.label, tokens=tokens, fatal=True,
            error=error or f"worker exited with code {rc}", cause=cause,
        ))

    def _handle(self, message: dict) -> None:
        op = message.get("op")
        if op == "hello":
            self._events.put(ExecEvent(
                kind="heartbeat", host=self.label,
                payload={"hello": True, "host_cpus": message.get("host_cpus"),
                         "pid": message.get("pid")},
            ))
        elif op == "heartbeat":
            self._events.put(ExecEvent(
                kind="heartbeat", host=self.label,
                payload={"token": message.get("token"),
                         "n_cells": message.get("n_cells")},
            ))
        elif op == "cell_done":
            token = message.get("token")
            index = message.get("index")
            with self._lock:
                keys = self._chunks.get(token)
            result = None
            if (
                keys is not None
                and isinstance(index, int)
                and 0 <= index < len(keys)
                and self._context is not None
            ):
                try:
                    result = result_from_dict(
                        self._context.spec(keys[index]), message["result"]
                    )
                except Exception:
                    # Mangled payload: surface a None result — the
                    # engine's validate_result turns it into a
                    # transient "corrupt" fault for that one cell.
                    result = None
            self._events.put(ExecEvent(
                kind="cell", host=self.label, token=token if token is not None else -1,
                index=index if isinstance(index, int) else -1,
                result=result, source=str(message.get("source", "ran")),
            ))
        elif op == "chunk_done":
            token = message.get("token")
            with self._lock:
                self._chunks.pop(token, None)
            failure = message.get("failure")
            fail = None
            if failure is not None:
                try:
                    index, error = int(failure[0]), str(failure[1])
                except (TypeError, ValueError, IndexError):
                    index, error = -1, str(failure)
                fail = (index, error, CellError(error))
            self._events.put(ExecEvent(
                kind="chunk_done", host=self.label,
                token=token if token is not None else -1, failure=fail,
            ))
        elif op == "refused":
            # Set before anything else: a host killed while its refusal
            # is still in the pipe must not be started again either.
            self.refused = True
            raise CodeVersionError(
                f"host {self.label} refused the sweep: {message.get('error')}"
            )
        else:
            raise WireError(f"unexpected frame op {op!r} from host {self.label}")

    # -- engine verbs -------------------------------------------------------
    def submit(self, token: int, keys: Sequence[CellKey], cost: float = 0.0) -> str:
        with self._lock:
            if self._dead:
                self._events.put(ExecEvent(
                    kind="lost", host=self.label, tokens=(token,), fatal=True,
                    error="host is down",
                ))
                return self.label
            self._chunks[token] = list(keys)
        try:
            write_frame(self._proc.stdin, {
                "op": "chunk", "token": token, "cells": cells_to_wire(keys),
            })
        except (OSError, ValueError) as exc:
            with self._lock:
                still_mine = self._chunks.pop(token, None) is not None
            if still_mine:
                self._events.put(ExecEvent(
                    kind="lost", host=self.label, tokens=(token,), fatal=True,
                    error=f"write to host failed ({exc})",
                ))
        return self.label

    def next_event(self, timeout: Optional[float]) -> Optional[ExecEvent]:
        return _next(self._events, timeout)

    def expire(self, tokens: Sequence[int]) -> Tuple[List[int], bool]:
        self.kill()
        dropped = set(tokens)
        with self._lock:
            collateral = [t for t in self._chunks if t not in dropped]
            self._chunks.clear()
        return collateral, True

    def abandon(self) -> List[int]:
        self.kill()
        with self._lock:
            tokens = list(self._chunks)
            self._chunks.clear()
        return tokens

    def kill(self) -> None:
        """Hard-stop the worker (hung or being abandoned); the reader
        thread sees the EOF but stays quiet (`_expected_exit`)."""
        self._expected_exit = True
        with self._lock:
            self._dead = True
        proc = self._proc
        if proc is not None:
            for step in (proc.kill, proc.stdin.close, lambda: proc.wait(timeout=5)):
                with contextlib.suppress(Exception):
                    step()

    def close(self) -> None:
        self._expected_exit = True
        proc = self._proc
        if proc is None:
            return
        try:
            write_frame(proc.stdin, {"op": "shutdown"})
            proc.stdin.close()
            proc.wait(timeout=10)
        except Exception:
            self.kill()
        self._proc = None


class MultiHostExecutor(SweepExecutor):
    """N hosts, one event queue, least-loaded chunk placement.

    The engine submits chunks heaviest-first (LPT order), and each
    chunk goes to the live host with the least outstanding estimated
    cost — greedy LPT across the fleet.  A dead host is a *non-fatal*
    loss while any sibling survives: its in-flight tokens come back on
    a ``lost`` event and the engine requeues the unfinished cells,
    which the next generation places on the survivors.  Only when every
    host is down does the executor report fatal and the engine falls
    back (configured fleet → local fleet → serial).
    """

    name = "multi-host"

    def __init__(self, hosts) -> None:
        self._events: "queue.Queue" = queue.Queue()
        self.hosts: List[SubprocessHostExecutor] = []
        for i, spec in enumerate(parse_hosts(hosts)):
            self.hosts.append(SubprocessHostExecutor(
                spec, label=f"{spec}#{i}", events=self._events,
            ))
        self.name = f"multi-host({','.join(h.host for h in self.hosts)})"
        self._owner: Dict[int, SubprocessHostExecutor] = {}
        self._cost: Dict[int, float] = {}
        self._load: Dict[str, float] = {}
        #: Hosts lost over this executor's lifetime (reported in the
        #: sweep report).
        self.host_losses = 0

    def plan_workers(self, n_units: int) -> int:
        return max(1, min(len(self.hosts), n_units))

    @property
    def alive(self) -> bool:
        return any(h.alive for h in self.hosts)

    def start(self, context: WorkerContext, n_units: int = 0) -> None:
        errors = []
        for h in self.hosts:
            if h.alive:
                continue
            try:
                h.start(context)
            except ExecutorError as exc:
                errors.append(str(exc))
        if not self.alive:
            raise ExecutorError(
                "no sweep host could be started: " + "; ".join(errors)
            )

    def submit(self, token: int, keys: Sequence[CellKey], cost: float = 0.0) -> str:
        live = [h for h in self.hosts if h.alive] or self.hosts
        host = min(live, key=lambda h: self._load.get(h.label, 0.0))
        self._owner[token] = host
        self._cost[token] = cost
        self._load[host.label] = self._load.get(host.label, 0.0) + cost
        return host.submit(token, keys, cost)

    def _settle(self, token: int) -> None:
        host = self._owner.pop(token, None)
        cost = self._cost.pop(token, 0.0)
        if host is not None:
            self._load[host.label] = max(
                0.0, self._load.get(host.label, 0.0) - cost
            )

    def next_event(self, timeout: Optional[float]) -> Optional[ExecEvent]:
        event = _next(self._events, timeout)
        if event is None:
            return None
        if event.kind == "chunk_done":
            self._settle(event.token)
        elif event.kind == "lost":
            self.host_losses += 1
            for token in event.tokens:
                self._settle(token)
            # One dead host is survivable; a dead fleet is fatal.
            event.fatal = not self.alive
        return event

    def expire(self, tokens: Sequence[int]) -> Tuple[List[int], bool]:
        hosts = dict.fromkeys(self._owner[t] for t in tokens if t in self._owner)
        collateral: List[int] = []
        for host in hosts:
            mine = [t for t in tokens if self._owner.get(t) is host]
            collateral.extend(host.expire(mine)[0])
        for token in [*tokens, *collateral]:
            self._settle(token)
        return collateral, not self.alive

    def abandon(self) -> List[int]:
        tokens = [t for host in self.hosts for t in host.abandon()]
        tokens += [t for t in self._owner if t not in tokens]
        self._owner.clear()
        self._cost.clear()
        self._load.clear()
        # Drain straggler events from the dead generation; the engine
        # ignores unknown tokens anyway, this just keeps the queue tidy.
        while True:
            try:
                self._events.get_nowait()
            except queue.Empty:
                break
        return tokens

    def close(self) -> None:
        for host in self.hosts:
            host.close()


def select_executor(jobs: Optional[int] = None, hosts=None) -> Optional[SweepExecutor]:
    """The one place the execution path is chosen.

    * ``hosts`` set (a ``--hosts`` string, an iterable of host specs,
      or an int) → a :class:`MultiHostExecutor` over those hosts;
    * else ``jobs > 1`` (default: ``os.cpu_count()``) → a
      :class:`MultiHostExecutor` over ``jobs`` local hosts;
    * else ``None`` — the engine runs serial in-process.
    """
    if not hosts:
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs <= 1:
            return None
        hosts = ["local"] * jobs
    return MultiHostExecutor(hosts)
