"""Parallel sweep execution.

Every cell of the paper's (query x platform x n_procs) matrix is an
independent, deterministic simulation — a pure function of its
:class:`ExperimentSpec` — so the grid is embarrassingly parallel.
:class:`ParallelSweepRunner` fans missing cells out over a pluggable
:class:`~repro.core.executors.SweepExecutor`: the in-process pool
(:class:`~repro.core.executors.LocalPoolExecutor`), one worker
subprocess per host speaking the JSON frame protocol
(:class:`~repro.core.executors.SubprocessHostExecutor`), or a fleet of
hosts (:class:`~repro.core.executors.MultiHostExecutor`).  Only cell
keys and plain JSON cross host boundaries (workers rebuild the
deterministic TPC-H database from ``TPCHConfig`` via the
per-interpreter :class:`~repro.core.experiment.DatabaseCache`), so
nothing unpicklable — indeed nothing pickled at all, beyond the local
pool's own specs — is ever shipped.

Scheduling
----------
Cells differ in cost by more than an order of magnitude (cost grows
roughly linearly with ``n_procs`` and the join-heavy queries dwarf the
scan-only ones), so naive FIFO submission lets one straggler serialize
the tail of the sweep.  Missing cells are therefore:

1. **estimated** — ``n_procs x repetitions x per-query weight``
   (weights calibrated from profiled cell runtimes);
2. **packed largest-first (LPT)** into per-lane *chunks*, several
   chunks per lane so the executor can still rebalance dynamically;
3. **shipped heaviest-chunk-first**, so the most expensive work starts
   earliest and finishes inside the envelope of the rest (a multi-host
   executor additionally places each chunk on its least-loaded live
   host).

Chunks (rather than single-cell tasks) amortize worker spawn and the
TPC-H database rebuild: every cell in a chunk after the first reuses
the worker interpreter's ``DatabaseCache`` entry.  When the runner has
a persistent :class:`~repro.core.resultcache.ResultCache`, its
directory is handed to the workers, which write each finished cell
directly to disk — a crash or a failure in a later cell of a chunk
never loses completed work, warm workers skip cells another run
already produced, and on a shared filesystem the cache doubles as the
fleet-wide result bus (identical cells are computed once, fleet-wide).

Resilience
----------
:meth:`ParallelSweepRunner.execute` is the fault-tolerant engine (see
:mod:`repro.core.resilience` for the policy/fault/manifest types); it
consumes executor *events* and never cares where a chunk physically
ran:

* **Worker crashes** break the local pool; the engine re-queues every
  unfinished cell *at cell granularity*, rebuilds, and retries the
  crash-penalized cells under the
  :class:`~repro.core.resilience.RetryPolicy`'s backoff.
* **Lost hosts** are the distributed analogue — but *non-fatal* while
  any fleet sibling survives: the dead host's unfinished cells
  re-queue (``on_cell_requeue``) and the next generation lands them on
  the survivors.  Cells the host finished were already streamed back
  and cached, so nothing is recomputed.
* **Stragglers** are bounded by per-chunk deadlines (``timeout_s``
  seconds per unit of estimated cost); an expired chunk's cells are
  re-queued individually and only the hung resource is torn down (a
  hung worker cannot be cancelled, only abandoned).
* **Corrupted results** — anything failing
  :func:`~repro.core.resilience.validate_result`, including a mangled
  wire payload — are transient faults: retried, never stored.
* **Quarantine**: a cell that exhausts its attempts (or raises a
  deterministic application error) lands in the report's
  ``failed`` list and the sweep *completes* instead of aborting.
* **Graceful degradation**: when an executor breaks more than
  ``max_pool_rebuilds`` times, the engine falls down the chain —
  multi-host → local pool → serial in-process (which also disarms
  worker-scoped fault plans).

Every dispatch/heartbeat/retry/timeout/host-loss/requeue/quarantine/
degradation is published on the observer bus
(:data:`~repro.obs.bus.SWEEP_EVENTS`) and totalled in the returned
:class:`~repro.core.resilience.SweepReport`.

Because each cell is deterministic, parallel and distributed results
are bitwise identical to serial ones — the equivalence tests in
``tests/test_parallel_sweep.py`` and ``tests/test_distributed_sweep.py``
assert exactly that, and ``tests/test_resilience.py`` asserts it again
*under injected faults*.
"""

from __future__ import annotations

import logging
import time
from typing import Dict, Iterable, List, Optional, Sequence, Set

from ..config import DEFAULT_SIM, SimConfig
from ..obs.bus import SWEEP_EVENTS, SinkRegistry
from ..tpch.datagen import TPCHConfig
from .executors import (  # noqa: F401  (re-exported for compatibility)
    ExecutorError,
    LocalPoolExecutor,
    MultiHostExecutor,
    SweepExecutor,
    _kill_pool,
    _run_cell,
    _run_chunk,
    select_executor,
)
from .experiment import DEFAULT_TPCH, ExperimentResult
from .resilience import (
    CellFailure,
    CheckpointManifest,
    RetryPolicy,
    SweepReport,
    key_str,
    run_cell_guarded,
    validate_result,
)
from .resultcache import ResultCache
from .sweep import CellKey, SweepRunner, normalize_cell
from .wire import WorkerContext

logger = logging.getLogger("repro.sweep")

#: Relative single-process cost of one repetition of each query,
#: calibrated from cProfile wall times of full-scale cells (Q6 is the
#: pure-scan baseline; Q12 adds the join; Q21 is the four-way
#: join/anti-join).  Unknown queries get the conservative middle
#: weight so they neither hide at the tail nor hog the head.
_QUERY_WEIGHT = {"Q6": 1.0, "Q12": 1.9, "Q21": 3.4}
_DEFAULT_WEIGHT = 1.9

#: Chunks per execution lane: >1 so the executor rebalances when
#: estimates are off, small enough that spawn + database rebuild stays
#: amortized.
_CHUNKS_PER_WORKER = 3

#: Sentinel distinguishing "no executor passed" (pick one) from an
#: explicit ``executor=None`` (force serial).
_UNSET = object()


def _estimated_cost(key: CellKey) -> float:
    """Estimated relative cost of a cell: the simulated CPUs each emit
    a reference stream, so cost scales with ``n_procs x repetitions``
    times the query's weight."""
    query, _platform, n_procs, repetitions, _mode = key
    return n_procs * repetitions * _QUERY_WEIGHT.get(query, _DEFAULT_WEIGHT)


def _make_chunks(
    missing: Sequence[CellKey], n_chunks: int, group_key=None
) -> List[List[CellKey]]:
    """LPT-pack cells into at most ``n_chunks`` chunks, heaviest first.

    Longest-processing-time-first greedy: walk cells in decreasing
    estimated cost, always adding to the lightest chunk.  Returns the
    non-empty chunks ordered heaviest-total-first, which is also the
    submission order.

    ``group_key`` (optional) makes cells with equal keys indivisible —
    they are packed as one unit into the same chunk.  Trace-routed
    sweeps group the machine axis this way: both platforms of a
    workload land on the same worker, so the first cell captures and
    persists the tape and its siblings replay it from the store,
    instead of every worker capturing the workload independently.
    """
    if group_key is None:
        groups: List[List[CellKey]] = [[k] for k in missing]
    else:
        by_group: Dict[object, List[CellKey]] = {}
        for key in missing:
            by_group.setdefault(group_key(key), []).append(key)
        groups = list(by_group.values())

    def group_cost(group: List[CellKey]) -> float:
        return sum(_estimated_cost(k) for k in group)

    n_chunks = max(1, min(n_chunks, len(groups)))
    ordered = sorted(groups, key=group_cost, reverse=True)
    chunks: List[List[CellKey]] = [[] for _ in range(n_chunks)]
    loads = [0.0] * n_chunks
    for group in ordered:
        i = loads.index(min(loads))
        chunks[i].extend(group)
        loads[i] += group_cost(group)
    pairs = [(load, chunk) for load, chunk in zip(loads, chunks) if chunk]
    pairs.sort(key=lambda p: p[0], reverse=True)
    return [chunk for _load, chunk in pairs]


class ParallelSweepRunner(SweepRunner):
    """Drop-in :class:`SweepRunner` whose :meth:`prewarm` (and therefore
    :meth:`grid`) runs missing cells on a
    :class:`~repro.core.executors.SweepExecutor`.

    ``cell()`` stays serial — a single miss is not worth a pool — so
    figure builders should :meth:`prewarm` their grid first (the CLI's
    ``--jobs``/``--hosts`` paths do this automatically).
    :meth:`execute` is the resilient engine underneath: :meth:`prewarm`
    is its strict wrapper (first quarantined cell re-raised), while the
    CLI consumes the :class:`~repro.core.resilience.SweepReport`
    directly so a campaign with failed cells still completes the rest
    of the grid.

    Pick the execution path with
    :func:`~repro.core.executors.select_executor` and pass it as
    ``executor=``.
    """

    def __init__(
        self,
        sim: SimConfig = DEFAULT_SIM,
        tpch: TPCHConfig = DEFAULT_TPCH,
        verify_results: bool = False,
        cache: Optional[ResultCache] = None,
        trace_store=None,
        executor=_UNSET,
    ) -> None:
        super().__init__(
            sim, tpch, verify_results, cache=cache, trace_store=trace_store
        )
        self.executor = select_executor() if executor is _UNSET else executor

    def prewarm(self, cells: Iterable[Sequence]) -> int:
        report = self.execute(cells)
        if report.failed:
            first = report.failed[0]
            raise RuntimeError(
                f"sweep cell {first.key} failed in worker "
                f"({first.kind}: {first.error})"
            ) from first.cause
        return report.ran

    def execute(
        self,
        cells: Iterable[Sequence],
        policy: Optional[RetryPolicy] = None,
        timeout_s: Optional[float] = None,
        manifest: Optional[CheckpointManifest] = None,
        sinks: Sequence = (),
        max_pool_rebuilds: int = 2,
    ) -> SweepReport:
        """Run every missing cell, riding out transient faults.

        ``timeout_s`` bounds each chunk at ``timeout_s`` host seconds
        per unit of estimated cell cost (``None`` disables deadlines).
        ``manifest`` checkpoints per-cell progress for ``--resume``.
        ``sinks`` receive :data:`~repro.obs.bus.SWEEP_EVENTS`.
        ``max_pool_rebuilds`` is the per-executor teardown budget
        before the engine falls down the degradation chain.  Returns
        a :class:`~repro.core.resilience.SweepReport`; quarantined
        cells are reported, not raised.
        """
        t0 = time.perf_counter()
        policy = policy if policy is not None else RetryPolicy()
        registry = SinkRegistry(SWEEP_EVENTS)
        for sink in sinks:
            registry.add(sink)

        def emit(event: str, *args) -> None:
            for cb in registry.callbacks[event]:
                cb(*args)

        keys: List[CellKey] = []
        seen = set()
        for cell in cells:
            key = normalize_cell(cell)
            if key not in seen:
                seen.add(key)
                keys.append(key)
        missing = [k for k in keys if self._lookup(k) is None]
        missing_set = set(missing)
        report = SweepReport(total=len(keys), memoized=len(keys) - len(missing))
        if manifest is not None or registry.sinks:
            for key in keys:
                if key not in missing_set:
                    if manifest is not None:
                        state = manifest.cells.setdefault(
                            key_str(key),
                            {"status": "pending", "attempts": 0, "error": None},
                        )
                        state["status"], state["error"] = "done", None
                    emit("on_cell_done", key, "cache")
            if manifest is not None:
                manifest.save()
        if not missing:
            report.duration_s = time.perf_counter() - t0
            return report

        #: failed attempts so far, per missing cell
        attempts: Dict[CellKey, int] = {k: 0 for k in missing}

        def finish(
            key: CellKey, result: ExperimentResult, source: str = "ran"
        ) -> None:
            self._store(key, result)
            report.ran += 1
            self.count_source(source)
            if manifest is not None:
                manifest.mark(key, "done", attempts=attempts[key] + 1)
            emit("on_cell_done", key, source)

        def quarantine(
            key: CellKey, kind: str, error: str, cause=None
        ) -> None:
            report.failed.append(
                CellFailure(
                    key=key, kind=kind, attempts=attempts[key],
                    error=error, cause=cause,
                )
            )
            if manifest is not None:
                manifest.mark(
                    key, "quarantined", attempts=attempts[key],
                    error=f"{kind}: {error}",
                )
            emit("on_cell_quarantined", key, kind, error)

        def transient_failure(
            key: CellKey, kind: str, error: str, cause=None
        ) -> Optional[float]:
            """Record one failed attempt.  Returns the backoff delay
            when the cell should be retried, ``None`` when it just got
            quarantined."""
            attempts[key] += 1
            if kind == "crash":
                report.crashes += 1
            elif kind == "timeout":
                report.timeouts += 1
            if attempts[key] >= policy.max_attempts:
                quarantine(key, kind, error, cause)
                return None
            delay = policy.delay_s(attempts[key], key_str(key))
            report.retries += 1
            emit("on_cell_retry", key, attempts[key], kind, delay)
            return delay

        def run_serial(keys_to_run: List[CellKey]) -> None:
            # Heaviest-first even serially: a failure surfaces sooner
            # on the cells most likely to be misconfigured (big
            # n_procs).  Deterministic application errors quarantine
            # immediately; only corrupt results (possible under an
            # "any"-scoped fault plan) are retried.
            for key in sorted(keys_to_run, key=_estimated_cost, reverse=True):
                spec = self._spec(key)
                while True:
                    try:
                        result, source = run_cell_guarded(
                            spec, self.cache, self.trace_store
                        )
                    except Exception as exc:
                        attempts[key] += 1
                        quarantine(key, "error", repr(exc), exc)
                        break
                    err = validate_result(spec, result)
                    if err is None:
                        finish(key, result, source)
                        break
                    delay = transient_failure(key, "corrupt", err)
                    if delay is None:
                        break
                    time.sleep(delay)

        if self.executor is None or len(missing) == 1:
            logger.info(
                "sweep: %d missing cell(s) routed to serial in-process "
                "execution — skipping pool/pickle overhead",
                len(missing),
            )
            run_serial(missing)
            report.duration_s = time.perf_counter() - t0
            return report

        cache_dir = str(self.cache.directory) if self.cache is not None else None
        trace_dir = (
            str(self.trace_store.directory)
            if self.trace_store is not None
            else None
        )
        context = WorkerContext(
            sim=self.sim, tpch=self.tpch,
            verify_results=self.verify_results,
            cache_dir=cache_dir, trace_dir=trace_dir,
        )
        # Trace routing makes the machine axis of one workload nearly
        # free *if* its cells share a worker; group them so each chunk
        # captures once and replays its siblings.
        group_key = (
            (lambda k: (k[0], k[2], k[3], k[4])) if trace_dir is not None else None
        )

        # Degradation chain: the configured executor, then (when that
        # executor was a fleet) the local pool, then serial.
        chain: List[SweepExecutor] = [self.executor]
        if isinstance(self.executor, MultiHostExecutor):
            chain.append(LocalPoolExecutor())
        layer = 0
        executor = chain[layer]
        rebuilds_at_layer = 0
        next_token = 0

        def fall_back(reason: str) -> bool:
            """Advance to the next executor layer; ``False`` when only
            serial remains."""
            nonlocal layer, executor, rebuilds_at_layer
            report.degraded = True
            emit("on_sweep_degraded", reason)
            layer += 1
            if layer < len(chain):
                executor = chain[layer]
                rebuilds_at_layer = report.pool_rebuilds
                logger.warning(
                    "sweep: %s — falling back to %s for %d remaining cell(s)",
                    reason, executor.name, len(to_run),
                )
                return True
            logger.warning(
                "sweep: %s — degrading %d remaining cell(s) to in-process "
                "serial execution", reason, len(to_run),
            )
            return False

        to_run = list(missing)
        first_generation = True
        while to_run:
            try:
                executor.start(context, n_units=len(to_run))
            except ExecutorError as exc:
                if fall_back(str(exc)):
                    continue
                run_serial(to_run)
                to_run = []
                break
            workers = executor.plan_workers(len(to_run))
            if first_generation:
                chunks = _make_chunks(
                    to_run, workers * _CHUNKS_PER_WORKER, group_key
                )
            else:
                # Retries and straggler re-queues go back at cell
                # granularity so one bad chunk-mate cannot starve the
                # rest again.
                chunks = [
                    [k] for k in sorted(to_run, key=_estimated_cost, reverse=True)
                ]
            first_generation = False
            to_run = []
            max_delay = 0.0
            broken = False

            outstanding: Dict[int, List[CellKey]] = {}
            handled: Dict[int, Set[int]] = {}
            deadlines: Dict[int, float] = {}
            submitted_at: Dict[int, float] = {}
            for chunk in chunks:
                token = next_token
                next_token += 1
                cost = sum(max(1.0, _estimated_cost(k)) for k in chunk)
                outstanding[token] = chunk
                handled[token] = set()
                host = executor.submit(token, chunk, cost)
                submitted_at[token] = time.monotonic()
                if timeout_s is not None:
                    deadlines[token] = submitted_at[token] + timeout_s * cost
                emit("on_chunk_dispatch", host, token, len(chunk))

            def requeue_unfinished(
                token: int, host: str, reason: str, penalize: Optional[str] = None,
                error: str = "", cause=None,
            ) -> int:
                """Pull ``token``'s unfinished cells back onto the
                queue.  With ``penalize`` set, each costs an attempt of
                that fault kind; otherwise the cells ride back free.
                Returns how many cells were re-queued."""
                nonlocal max_delay
                chunk = outstanding.pop(token, None)
                if chunk is None:
                    return 0  # stale token from an abandoned generation
                done_idx = handled.pop(token, set())
                deadlines.pop(token, None)
                n = 0
                for i, key in enumerate(chunk):
                    if i in done_idx:
                        continue
                    if penalize is not None:
                        delay = transient_failure(key, penalize, error, cause)
                        if delay is None:
                            continue  # quarantined
                        max_delay = max(max_delay, delay)
                    to_run.append(key)
                    n += 1
                    report.requeues += 1
                    emit("on_cell_requeue", key, host, reason)
                return n

            while outstanding:
                wait_for = None
                if deadlines:
                    wait_for = max(
                        0.0, min(deadlines.values()) - time.monotonic()
                    )
                event = executor.next_event(wait_for)
                if event is None and wait_for is None:
                    # The executor went quiet with work outstanding and
                    # no deadline to wake us — it lost track of its
                    # futures.  Tear it down; the cells re-queue below.
                    broken = True
                    break
                while event is not None and not broken:
                    if event.kind == "heartbeat":
                        emit("on_host_heartbeat", event.host, event.payload)
                    elif event.kind == "cell":
                        chunk = outstanding.get(event.token)
                        if (
                            chunk is not None
                            and 0 <= event.index < len(chunk)
                            and event.index not in handled[event.token]
                        ):
                            key = chunk[event.index]
                            handled[event.token].add(event.index)
                            err = validate_result(self._spec(key), event.result)
                            if err is None:
                                finish(key, event.result, event.source)
                            else:
                                delay = transient_failure(key, "corrupt", err)
                                if delay is not None:
                                    max_delay = max(max_delay, delay)
                                    to_run.append(key)
                    elif event.kind == "chunk_done":
                        chunk = outstanding.get(event.token)
                        if chunk is not None:
                            if event.failure is not None:
                                index, error_str, cause = event.failure
                                if 0 <= index < len(chunk):
                                    bad = chunk[index]
                                    if index not in handled[event.token]:
                                        handled[event.token].add(index)
                                        attempts[bad] += 1
                                        quarantine(bad, "error", error_str, cause)
                                # cells behind the failure never ran:
                                # re-queue without penalty
                                requeue_unfinished(
                                    event.token, event.host, "after-failure"
                                )
                            else:
                                # every cell should have streamed back;
                                # anything the worker skipped rides
                                # back free
                                requeue_unfinished(
                                    event.token, event.host, "incomplete-chunk"
                                )
                            outstanding.pop(event.token, None)
                            handled.pop(event.token, None)
                            deadlines.pop(event.token, None)
                    elif event.kind == "lost":
                        live_tokens = [
                            t for t in event.tokens if t in outstanding
                        ]
                        n_requeued = 0
                        for t in live_tokens:
                            n_requeued += requeue_unfinished(
                                t, event.host, "host-lost",
                                penalize="crash",
                                error=event.error or "host lost",
                                cause=event.cause,
                            )
                        if event.payload.get("remote"):
                            report.host_losses += 1
                            emit(
                                "on_host_lost",
                                event.host, event.error, n_requeued,
                            )
                        if event.fatal:
                            broken = True
                        break
                    if not outstanding:
                        break
                    event = executor.next_event(0.0)

                if broken or not outstanding:
                    break
                if deadlines:
                    now = time.monotonic()
                    expired = [
                        t for t, dl in list(deadlines.items()) if dl <= now
                    ]
                    if expired:
                        for t in expired:
                            elapsed = now - submitted_at[t]
                            chunk = outstanding.get(t, [])
                            done_idx = handled.get(t, set())
                            for i, key in enumerate(chunk):
                                if i in done_idx:
                                    continue
                                emit(
                                    "on_cell_timeout",
                                    key, attempts[key] + 1, elapsed,
                                )
                            requeue_unfinished(
                                t, "", "timeout", penalize="timeout",
                                error=f"chunk still running after {elapsed:.1f}s",
                            )
                        collateral, fatal = executor.expire(expired)
                        for t in collateral:
                            requeue_unfinished(t, "", "expired-collateral")
                        if fatal:
                            broken = True
                            break

            if broken:
                # Whatever is still in flight re-queues unpenalized;
                # results its workers already cached make the re-run
                # cheap.  The broken resources are unsalvageable.
                for t in executor.abandon():
                    requeue_unfinished(t, "", "executor-abandoned")
                for t in list(outstanding):
                    requeue_unfinished(t, "", "executor-abandoned")
                report.pool_rebuilds += 1
                if report.pool_rebuilds - rebuilds_at_layer > max_pool_rebuilds:
                    reason = (
                        f"{executor.name} torn down "
                        f"{report.pool_rebuilds - rebuilds_at_layer} times "
                        f"(limit {max_pool_rebuilds})"
                    )
                    if not fall_back(reason):
                        run_serial(to_run)
                        to_run = []
                        break
            if to_run and max_delay > 0:
                time.sleep(max_delay)  # batched backoff for this generation

        executor.close()
        report.duration_s = time.perf_counter() - t0
        return report
