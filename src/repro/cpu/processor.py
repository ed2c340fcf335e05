"""Processor execution model.

A :class:`Processor` turns a :class:`~repro.trace.stream.RefBatch` into
cycles: every instruction costs ``base_cpi`` cycles (pipeline, branch
and dependency behaviour folded in, as on a 4-way out-of-order PA-8200
or R10000), and every memory reference adds the stall the memory system
reports after out-of-order overlap.
"""

from __future__ import annotations

from ..mem.machine import MachineConfig
from ..mem.memsys import MemorySystem
from ..trace.stream import RefBatch


class Processor:
    """One CPU's execution engine.  Owned by the scheduler; one query
    process executes on one processor, as in the paper's setup."""

    __slots__ = ("cpu_id", "machine", "memsys", "instrs_retired", "cycles_executed")

    def __init__(self, cpu_id: int, machine: MachineConfig, memsys: MemorySystem) -> None:
        self.cpu_id = cpu_id
        self.machine = machine
        self.memsys = memsys
        self.instrs_retired = 0
        self.cycles_executed = 0

    def run_batch(self, batch: RefBatch, now: int) -> int:
        """Execute ``batch`` starting at cycle ``now``; return the cycles
        it consumed.  ``now`` feeds the interconnect's bank-queueing
        model, so it must be the owning process's current CPU clock.

        The whole batch is handed to :meth:`MemorySystem.access_batch`
        — the batched engine, or, on a memory system built with
        ``fast_path=False`` or observed by an exact sink, the
        per-reference specification (:meth:`MemorySystem.access_each`).
        Both produce bitwise identical counters and timing; the float
        cycle total is truncated once per batch, here.
        """
        total = int(
            self.memsys.access_batch(
                self.cpu_id, batch, now, self.machine.base_cpi
            )
        )
        self.instrs_retired += batch.total_instrs
        self.cycles_executed += total
        return total

    def run_compute(self, instrs: int) -> int:
        """Execute pure compute (no memory references)."""
        total = int(instrs * self.machine.base_cpi)
        self.instrs_retired += instrs
        self.cycles_executed += total
        return total

    @property
    def cpi(self) -> float:
        """Cycles per retired instruction so far."""
        return self.cycles_executed / self.instrs_retired if self.instrs_retired else 0.0
