"""The observer/sink bus — first-class run observation.

PR 2 attached its invariant checker by ad-hoc instance-attribute
shadowing private to :class:`MemorySystem`: exactly one observer, a
hard-wired hook set, and no way for a second consumer (a profiler, a
trace exporter) to listen without forking the mechanism.  This module
makes observation a protocol:

* A **sink** is any object defining one or more of the event methods
  an observed component publishes (see :data:`MEMSYS_EVENTS` and
  :data:`KERNEL_EVENTS`).  Interest is declared structurally — define
  the method and you receive the event; leave it off and you don't.
* A :class:`SinkRegistry` holds a component's attached sinks and one
  callback list per event.  The lists are **mutated in place**, so the
  observing wrappers a component installs on first attach keep seeing
  membership changes without being reinstalled.
* Attachment still works by method shadowing inside the component —
  that is what makes a component with *no* sinks run the exact
  unhooked bytecode (last measured at 1.004× pristine; see
  ``docs/METHODOLOGY.md`` §6).  The bus standardizes the
  registration, dispatch, and teardown around that mechanism instead
  of each consumer reinventing it.

:func:`observed_run` attaches a set of sinks to a memory system and a
kernel for the duration of a ``with`` block, routing each sink to the
component(s) whose events it implements.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterable, List, Tuple

from ..errors import ReproError

#: Events a :class:`~repro.mem.memsys.MemorySystem` publishes.
#:
#: * ``after_transaction(cpu, addr, now)`` — a miss or upgrade
#:   directory transaction (and any eviction it caused) completed at
#:   simulated time ``now``.
#: * ``after_silent_upgrade(cpu, addr)`` — a silent E→M write hit
#:   (no directory transaction, hence no transaction time).
MEMSYS_EVENTS: Tuple[str, ...] = ("after_transaction", "after_silent_upgrade")

#: Events a :class:`~repro.osim.scheduler.Kernel` publishes.
#:
#: * ``before_step(proc, t)`` / ``after_step(proc, ev, t0, t1)`` — one
#:   scheduler quantum: ``ev`` is the delivered syscall event (or
#:   ``None`` when the process exited) and ``[t0, t1)`` its span on
#:   the process clock.
#: * ``on_voluntary_switch(proc, t)`` / ``on_involuntary_switch(proc,
#:   t)`` — a context switch was charged during the quantum.
#: * ``on_process_done(proc, t)`` — the process ran to completion.
KERNEL_EVENTS: Tuple[str, ...] = (
    "before_step",
    "after_step",
    "on_voluntary_switch",
    "on_involuntary_switch",
    "on_process_done",
)

#: Events the resilient sweep engine publishes (see
#: :mod:`repro.core.resilience`).  Unlike the memory-system and kernel
#: events these happen in *host* time, between simulations:
#:
#: * ``on_cell_done(key, source)`` — a cell completed; ``source`` is
#:   ``"ran"`` (computed now), ``"cache"`` (persisted result reused),
#:   ``"captured"`` (computed now while recording its workload tape to
#:   the trace store), or ``"replay"`` (tape replayed through this
#:   cell's machine — the executor never ran).
#: * ``on_cell_retry(key, attempt, kind, delay_s)`` — a transient fault
#:   (``crash``/``timeout``/``corrupt``) scheduled a re-run.
#: * ``on_cell_timeout(key, attempt, elapsed_s)`` — the cell's chunk
#:   exceeded its deadline and was re-queued at cell granularity.
#: * ``on_cell_quarantined(key, kind, error)`` — retries exhausted (or a
#:   deterministic error); the sweep continues without the cell.
#: * ``on_sweep_degraded(reason)`` — the active executor was declared
#:   unhealthy and the engine fell down the degradation chain
#:   (configured fleet → local fleet → serial in-process).
#:
#: Host fleets add per-host lifecycle events (emitted by the engine as
#: it consumes executor events, so they flow whether chunks run on
#: local or on remote hosts):
#:
#: * ``on_chunk_dispatch(host, token, n_cells)`` — a chunk was shipped
#:   to ``host`` under opaque id ``token``.
#: * ``on_host_heartbeat(host, payload)`` — host liveness/topology: the
#:   worker's hello (``payload["hello"]`` with ``host_cpus``/``pid``)
#:   or a chunk-start heartbeat (``token``/``n_cells``).
#: * ``on_host_lost(host, error, n_requeued)`` — a host died with
#:   ``n_requeued`` unfinished cells re-queued to the survivors.
#: * ``on_cell_requeue(key, host, reason)`` — one cell went back on the
#:   run queue (``host-lost``, ``after-failure``, ``incomplete-chunk``,
#:   ``timeout``, ``expired-collateral``, ``executor-abandoned``).
SWEEP_EVENTS: Tuple[str, ...] = (
    "on_cell_done",
    "on_cell_retry",
    "on_cell_timeout",
    "on_cell_quarantined",
    "on_sweep_degraded",
    "on_chunk_dispatch",
    "on_host_heartbeat",
    "on_host_lost",
    "on_cell_requeue",
)


class SinkError(ReproError):
    """Sink registration misuse (double attach, unknown sink, ...)."""


class SinkRegistry:
    """Ordered sink set plus per-event dispatch lists for one component.

    The component creates one registry naming its events, then calls
    :meth:`add`/:meth:`remove` from its ``attach_sink``/``detach_sink``.
    The boolean returns tell the component when to install (first sink)
    or tear down (last sink) its observing wrappers; the per-event
    lists in :attr:`callbacks` are stable objects the wrappers can
    capture once and iterate forever.
    """

    __slots__ = ("events", "sinks", "callbacks")

    def __init__(self, events: Tuple[str, ...]) -> None:
        self.events = events
        self.sinks: List[object] = []
        self.callbacks: Dict[str, List] = {e: [] for e in events}

    def interests(self, sink) -> List[str]:
        """The subset of this registry's events ``sink`` implements."""
        return [e for e in self.events if callable(getattr(sink, e, None))]

    def add(self, sink) -> bool:
        """Register ``sink``; return True when it is the first one."""
        if any(s is sink for s in self.sinks):
            raise SinkError(f"sink {sink!r} is already attached")
        interests = self.interests(sink)
        if not interests:
            raise SinkError(
                f"sink {sink!r} implements none of {self.events}"
            )
        first = not self.sinks
        self.sinks.append(sink)
        for event in interests:
            self.callbacks[event].append(getattr(sink, event))
        return first

    def remove(self, sink) -> bool:
        """Deregister ``sink``; return True when none remain."""
        for i, s in enumerate(self.sinks):
            if s is sink:
                del self.sinks[i]
                break
        else:
            raise SinkError(f"sink {sink!r} is not attached")
        for event in self.interests(sink):
            cbs = self.callbacks[event]
            for i, cb in enumerate(cbs):
                if getattr(cb, "__self__", None) is sink:
                    del cbs[i]
                    break
        return not self.sinks


@contextmanager
def observed_run(memsys, kernel, sinks: Iterable):
    """Attach ``sinks`` to ``memsys`` and/or ``kernel`` for one block.

    Each sink is routed by structural interest: it joins the memory
    system if it implements any :data:`MEMSYS_EVENTS`, the kernel if it
    implements any :data:`KERNEL_EVENTS`, and both if both.  A sink
    implementing neither is a configuration error.  Everything is
    detached on the way out, even on failure, restoring the components'
    unhooked hot paths.
    """
    attached: List[Tuple[object, object]] = []
    try:
        for sink in sinks:
            routed = False
            if any(callable(getattr(sink, e, None)) for e in MEMSYS_EVENTS):
                memsys.attach_sink(sink)
                attached.append((memsys, sink))
                routed = True
            if any(callable(getattr(sink, e, None)) for e in KERNEL_EVENTS):
                kernel.attach_sink(sink)
                attached.append((kernel, sink))
                routed = True
            if not routed:
                raise SinkError(
                    f"sink {sink!r} implements no memory-system or kernel event"
                )
        yield
    finally:
        for owner, sink in reversed(attached):
            owner.detach_sink(sink)
