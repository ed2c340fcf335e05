"""Coherence invariant checker.

An :class:`InvariantChecker` is a sink on the observer bus
(:mod:`repro.obs.bus`): attach it to a live :class:`MemorySystem`
(:meth:`MemorySystem.attach_sink`) and it asserts, after every
completed coherence transition, the properties a correct MESI
directory protocol can never violate:

* **SWMR** — at most one cache holds a line writable (E/M), and a
  writable copy excludes every other valid copy.
* **Directory–cache agreement** — the directory's holder bookkeeping
  matches the caches exactly: the owner really holds the line E/M,
  recorded sharers really hold it S, and nobody else holds it at all.
* **Inclusion** — on a two-level hierarchy (Origin), a valid L1 line is
  always covered by a valid coherent-level line, and the L1's
  permission never exceeds the coherent level's (E/M in the L1 requires
  E/M below; the converse is allowed — a silent coherent-level upgrade
  leaves untouched L1 sub-lines in E).
* **Migratory / transfer bookkeeping** — migratory marks only appear
  when the machine's optimization is on; ``written_since_transfer`` is
  impossible in sharers mode; writer/owner ids are in range.
* **Counter identities** — per-CPU stats satisfy the structural
  identities of the accounting (L1 misses split into L2 hits and
  coherent misses, the cold/capacity/comm kinds partition the coherent
  misses, per-class breakdowns sum to their totals, ...).

Checks fire *between* transitions, never inside one, so transient
mid-transaction states cause no false positives.  Attachment works by
the bus's method shadowing — while a sink is attached every batch runs
through the per-reference :meth:`MemorySystem.access_each`, so a
violation surfaces at the exact reference that caused it — and a
memory system with no sinks pays nothing: the hot path runs the exact
unhooked bytecode (asserted by the overhead benchmark and the
structural tests).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Set

import numpy as np

from ..errors import CoherenceError
from ..mem.directory import NO_OWNER
from ..mem.memsys import CpuMemStats, MemorySystem
from ..obs import schema as _schema
from ..mem.states import EXCLUSIVE, INVALID, MODIFIED, SHARED

_STATE_NAMES = {INVALID: "I", SHARED: "S", EXCLUSIVE: "E", MODIFIED: "M"}
_WRITABLE = (EXCLUSIVE, MODIFIED)


class InvariantViolation(CoherenceError):
    """A coherence invariant does not hold — always a simulator bug."""


class InvariantChecker:
    """Checks one :class:`MemorySystem`'s invariants transition by
    transition.  Construct it, then :func:`attach` it (or use the
    :func:`checking` context manager)."""

    def __init__(self, memsys: MemorySystem, full_every: int = 0) -> None:
        self.memsys = memsys
        #: Every ``full_every`` transitions run :meth:`check_all` as
        #: well as the per-line check (0 = line checks only).
        self.full_every = full_every
        self.n_transitions = 0
        self.n_line_checks = 0
        self.n_full_checks = 0
        self._mask = memsys._coh_mask
        self._n_cpus = memsys.machine.n_cpus

    # -- sink protocol (called by the MemorySystem bus) ---------------------
    def after_transaction(self, cpu: int, addr: int, now: int = 0) -> None:
        """A miss/upgrade transaction (and any eviction it caused) is
        complete; the touched line and the issuing CPU's stats must be
        consistent now.  ``now`` is the transaction's simulated issue
        time (unused by the checks, carried by the bus)."""
        self.n_transitions += 1
        self.check_line(addr)
        self.check_stats(cpu)
        if self.full_every and self.n_transitions % self.full_every == 0:
            self.check_all()

    def after_silent_upgrade(self, cpu: int, addr: int) -> None:
        """A silent E→M write happened (no directory transaction)."""
        self.n_transitions += 1
        self.check_line(addr)

    # -- single-line checks -------------------------------------------------
    def _holder_states(self, line: int) -> Dict[int, int]:
        """Coherent-level state of ``line`` in every cache that has it."""
        out: Dict[int, int] = {}
        for cpu, h in enumerate(self.memsys.hierarchies):
            state = h.coherent.peek(line)
            if state != INVALID:
                out[cpu] = state
        return out

    def check_line(self, addr: int) -> None:
        """Assert every per-line invariant for the coherence line
        containing ``addr``."""
        self.n_line_checks += 1
        ms = self.memsys
        line = addr & self._mask
        held = self._holder_states(line)

        def fail(msg: str) -> None:
            states = ", ".join(
                f"cpu{c}={_STATE_NAMES[s]}" for c, s in sorted(held.items())
            )
            raise InvariantViolation(
                f"line {line:#x}: {msg} [cache states: {states or 'none'}]"
            )

        # SWMR, from the caches alone.
        writers = [c for c, s in held.items() if s in _WRITABLE]
        if len(writers) > 1:
            fail(f"multiple writable copies (cpus {writers})")
        if writers and len(held) > 1:
            fail(f"writable copy at cpu{writers[0]} coexists with other copies")

        # Directory agreement.
        directory = ms.engine.directory
        if not directory.known(line):
            if held:
                fail("caches hold a line the directory has never seen")
            return
        e = directory.peek(line)
        if e.excl_owner != NO_OWNER and e.sharers:
            fail(f"directory has owner {e.excl_owner} and sharers {e.sharers:b}")
        dir_holders = e.holders()
        cache_holders = 0
        for c in held:
            cache_holders |= 1 << c
        if dir_holders != cache_holders:
            fail(
                f"directory holders {dir_holders:b} != cache holders "
                f"{cache_holders:b}"
            )
        if e.excl_owner != NO_OWNER:
            if not 0 <= e.excl_owner < self._n_cpus:
                fail(f"owner {e.excl_owner} out of range")
            if held.get(e.excl_owner) not in _WRITABLE:
                fail(
                    f"directory owner cpu{e.excl_owner} holds the line "
                    f"{_STATE_NAMES.get(held.get(e.excl_owner, INVALID))}, not E/M"
                )
        else:
            for c, s in held.items():
                if s != SHARED:
                    fail(f"sharers-mode line held {_STATE_NAMES[s]} by cpu{c}")
            if e.sharers and e.written_since_transfer:
                fail("written_since_transfer set on a sharers-mode line")

        # Migratory bookkeeping.
        if e.migratory and not ms.engine.migratory_enabled:
            fail("migratory mark on a machine without the optimization")
        if e.last_writer != NO_OWNER and not 0 <= e.last_writer < self._n_cpus:
            fail(f"last_writer {e.last_writer} out of range")

        # Inclusion + permission ordering, per adjacent level pair.
        for cpu, h in enumerate(ms.hierarchies):
            if not h.has_l2:
                continue
            levels = h.levels
            for li in range(len(levels) - 1):
                inner, outer = levels[li], levels[li + 1]
                step = inner.config.line_size
                for a in range(line, line + h.coherent_line_size, step):
                    in_state = inner.peek(a)
                    if in_state == INVALID:
                        continue
                    out_state = outer.peek(a)
                    if out_state == INVALID:
                        fail(
                            f"cpu{cpu} L{li + 1} holds {a:#x} with no "
                            f"coherent copy below it (L{li + 2} invalid)"
                        )
                    if in_state in _WRITABLE and out_state not in _WRITABLE:
                        fail(
                            f"cpu{cpu} L{li + 1} permission "
                            f"{_STATE_NAMES[in_state]} at {a:#x} exceeds "
                            f"L{li + 2} {_STATE_NAMES[out_state]}"
                        )

    # -- stats checks -------------------------------------------------------
    def check_stats(self, cpu: int) -> None:
        """Assert the structural counter identities for one CPU."""
        st = self.memsys.stats[cpu]
        self._check_stats_obj(st, f"cpu{cpu}")

    def _check_stats_obj(self, st: CpuMemStats, who: str) -> None:
        def fail(msg: str) -> None:
            raise InvariantViolation(f"{who} stats: {msg}")

        for name in _schema.MEM_FIELD_NAMES:
            v = getattr(st, name)
            flat: List[int] = []
            if isinstance(v, list):
                for item in v:
                    flat.extend(item if isinstance(item, list) else [item])
            else:
                flat.append(v)
            if any(x < 0 for x in flat):
                fail(f"negative counter {name}={v}")

        if st.level1_misses != st.l2_hits + st.coherent_misses:
            fail(
                f"level1_misses {st.level1_misses} != l2_hits {st.l2_hits} "
                f"+ coherent_misses {st.coherent_misses}"
            )
        if st.mem_accesses != st.coherent_misses + st.upgrades:
            fail(
                f"mem_accesses {st.mem_accesses} != coherent_misses "
                f"{st.coherent_misses} + upgrades {st.upgrades}"
            )
        if sum(st.miss_kind) != st.coherent_misses:
            fail(
                f"miss kinds {st.miss_kind} do not partition "
                f"{st.coherent_misses} coherent misses"
            )
        if sum(st.level1_misses_by_class) != st.level1_misses:
            fail("per-class level-1 misses do not sum to the total")
        if sum(st.coherent_misses_by_class) != st.coherent_misses:
            fail("per-class coherent misses do not sum to the total")
        for k in range(_schema.N_MISS_KINDS):
            by_class = sum(row[k] for row in st.miss_kind_by_class)
            if by_class != st.miss_kind[k]:
                fail(f"per-class miss kind {k} sums to {by_class}, total {st.miss_kind[k]}")

    def check_stats_at_rest(self, cpu: int) -> None:
        """Identities that relate miss counters to access counts.  Only
        valid *between* batches: the fast path bulk-applies read/write
        counts at batch end, so these lag mid-batch by design."""
        self.check_stats(cpu)
        st = self.memsys.stats[cpu]

        def fail(msg: str) -> None:
            raise InvariantViolation(f"cpu{cpu} stats: {msg}")

        if st.level1_misses > st.reads + st.writes:
            fail("more level-1 misses than accesses")
        if st.upgrades + st.silent_upgrades > st.writes:
            fail("more upgrades than writes")

    # -- whole-system check -------------------------------------------------
    def _all_lines(self) -> Iterator[int]:
        seen = set()
        for line, _ in self.memsys.engine.directory.items():
            seen.add(line)
        for h in self.memsys.hierarchies:
            for ln, state in h.coherent.resident():
                if state != INVALID:
                    seen.add(h.coherent.line_base(ln))
        return iter(sorted(seen))

    def check_all(self, at_rest: bool = False) -> None:
        """Check every known line, every CPU's stats, and the engine's
        global counters.  O(directory size) — use sparingly inline, or
        once at end of run (then pass ``at_rest=True`` to include the
        batch-boundary access-count identities too)."""
        self.n_full_checks += 1
        for line in self._all_lines():
            self.check_line(line)
        for cpu in range(self._n_cpus):
            if at_rest:
                self.check_stats_at_rest(cpu)
            else:
                self.check_stats(cpu)
        engine = self.memsys.engine
        for _key, name in _schema.ENGINE_FIELDS:
            if getattr(engine, name) < 0:
                raise InvariantViolation(f"engine counter {name} negative")
        if not engine.migratory_enabled and (
            engine.n_migratory_transfers or engine.n_migratory_detected
        ):
            raise InvariantViolation(
                "migratory counters nonzero with the optimization disabled"
            )
        if engine.n_migratory_transfers > engine.n_interventions:
            raise InvariantViolation(
                "more migratory transfers than interventions"
            )
        for cpu, h in enumerate(self.memsys.hierarchies):
            if not h.check_inclusion():
                raise InvariantViolation(f"cpu{cpu}: cache inclusion broken")


class BatchedInvariantChecker:
    """Array-verification mode of the invariant checker.

    The per-transition :class:`InvariantChecker` costs a Python
    callback plus a scalar line walk per coherence transaction — a
    >5× slowdown on miss-heavy streams.  This checker instead rides the
    memory system's *deferred* observation hook
    (:meth:`MemorySystem.attach_deferred_sink`): the memory system
    logs one address per completed transaction and hands the log over
    at batch boundaries (the batched engine keeps running; a
    ``fast_path=False`` memory system drains the same log from its
    per-reference loop), and every ``check_every`` transactions
    this checker verifies the **whole system at once** with NumPy array
    passes over struct-of-arrays snapshots of the caches
    (:meth:`SetAssocCache.soa_view`) and the directory:

    * SWMR via a group-by over the concatenated (line, cpu, state)
      residency table (``argsort`` + ``reduceat``),
    * directory–cache agreement by or-reducing per-line holder
      bitmasks and comparing against the directory's arrays,
    * sharers/owner mode, ``written_since_transfer``, migratory and
      id-range checks as vector predicates over the directory arrays,
    * inclusion and permission ordering per adjacent level pair via
      ``searchsorted`` of the covering outer lines into each CPU's
      per-level residency.

    The properties verified are exactly those of
    :meth:`InvariantChecker.check_all` (each sweep checks *every* line,
    not just the touched ones); what is traded away is detection
    granularity — a violation surfaces at the next sweep, up to
    ``check_every`` transactions after the reference that caused it,
    rather than at the transaction itself.  Counter identities are
    still checked per sweep through the exact checker.  When a sweep
    flags a violation, :meth:`InvariantChecker.check_all` is re-run to
    produce the precise scalar diagnostic.
    """

    def __init__(self, memsys: MemorySystem, check_every: int = 256) -> None:
        self.memsys = memsys
        self.exact = InvariantChecker(memsys)
        self.check_every = check_every
        self.n_transitions = 0
        self.n_sweeps = 0
        self._since_sweep = 0
        self._pending_cpus: Set[int] = set()
        self._n_cpus = memsys.machine.n_cpus

    # -- deferred-sink protocol ---------------------------------------------
    def on_batch_end(self, cpu: int, txlog: List[int]) -> None:
        """The memory system finished a batch that completed
        ``len(txlog)`` transactions."""
        n = len(txlog)
        self.n_transitions += n
        self._since_sweep += n
        self._pending_cpus.add(cpu)
        if self._since_sweep >= self.check_every:
            self.check_pending()

    def check_pending(self) -> None:
        """Run a full-system array sweep now (also called automatically
        every ``check_every`` transactions)."""
        self._since_sweep = 0
        for cpu in sorted(self._pending_cpus):
            self.exact.check_stats(cpu)
        self._pending_cpus.clear()
        self._array_sweep()

    def close(self) -> None:
        """Final sweep plus the exact at-rest whole-system check; call
        once driving is done (the :func:`checking_batched` context
        manager does)."""
        self.check_pending()
        self.exact.check_all(at_rest=True)

    # -- the vectorized whole-system sweep ----------------------------------
    def _diagnose(self, line: int) -> None:
        """An array pass flagged ``line``; re-run the scalar checker for
        its precise failure message."""
        self.exact.check_line(line)
        self.exact.check_all()
        raise InvariantViolation(
            f"array sweep flagged line {line:#x} but the scalar recheck "
            "passed — checker logic disagreement"
        )

    def _array_sweep(self) -> None:
        ms = self.memsys
        self.n_sweeps += 1
        coh_shift = ms.hierarchies[0].coherent.config.line_shift
        # -- gather the global residency table --------------------------------
        per_cpu = []  # (sorted coherent line bases, states) per cpu
        bases_l = []
        cpus_l = []
        states_l = []
        inner_views = []  # per cpu: the non-coherent levels' views, innermost first
        for cpu, h in enumerate(ms.hierarchies):
            views = h.soa_views()
            tags, states, _ = views[-1]
            inner_views.append(views[:-1])
            m = tags >= 0
            ln = tags[m] << coh_shift
            cs = states[m]
            o = np.argsort(ln)
            per_cpu.append((ln[o], cs[o]))
            if ln.shape[0]:
                bases_l.append(ln)
                states_l.append(cs)
                cpus_l.append(np.full(ln.shape[0], cpu, dtype=np.int64))
        if bases_l:
            bases = np.concatenate(bases_l)
            cst = np.concatenate(states_l)
            ccpu = np.concatenate(cpus_l)
            order = np.argsort(bases, kind="stable")
            bases = bases[order]
            cst = cst[order]
            ccpu = ccpu[order]
            starts = np.flatnonzero(
                np.concatenate(([True], bases[1:] != bases[:-1]))
            )
            gbases = bases[starts]
            gsize = np.diff(np.concatenate((starts, [bases.shape[0]])))
            writable = ((cst == EXCLUSIVE) | (cst == MODIFIED)).astype(np.int64)
            wcount = np.add.reduceat(writable, starts)
            # SWMR: one writable copy, and it tolerates no other copy
            bad = np.flatnonzero((wcount > 1) | ((wcount >= 1) & (gsize > 1)))
            if bad.size:
                self._diagnose(int(gbases[bad[0]]))
            holders = np.bitwise_or.reduceat(np.int64(1) << ccpu, starts)
            non_shared = np.add.reduceat((cst != SHARED).astype(np.int64), starts)
            single_state = cst[starts]  # meaningful where gsize == 1
        else:
            gbases = np.empty(0, dtype=np.int64)
            holders = np.empty(0, dtype=np.int64)
            non_shared = np.empty(0, dtype=np.int64)
            single_state = np.empty(0, dtype=np.int8)
        # -- directory arrays -------------------------------------------------
        entries = ms.engine.directory._entries
        n_e = len(entries)
        dbase = np.empty(n_e, dtype=np.int64)
        downer = np.empty(n_e, dtype=np.int64)
        dsharers = np.empty(n_e, dtype=np.int64)
        dlw = np.empty(n_e, dtype=np.int64)
        dmig = np.empty(n_e, dtype=np.bool_)
        dwst = np.empty(n_e, dtype=np.bool_)
        for i, (line, e) in enumerate(entries.items()):
            dbase[i] = line
            downer[i] = e.excl_owner
            dsharers[i] = e.sharers
            dlw[i] = e.last_writer
            dmig[i] = e.migratory
            dwst[i] = e.written_since_transfer
        o = np.argsort(dbase)
        dbase = dbase[o]
        downer = downer[o]
        dsharers = dsharers[o]
        dlw = dlw[o]
        dmig = dmig[o]
        dwst = dwst[o]
        # mode and id sanity, vectorized over every entry
        bad = np.flatnonzero(
            ((downer != NO_OWNER) & (dsharers != 0))
            | (downer >= self._n_cpus)
            | (downer < NO_OWNER)
            | (dlw >= self._n_cpus)
            | (dlw < NO_OWNER)
            | ((downer == NO_OWNER) & (dsharers != 0) & dwst)
        )
        if bad.size:
            self._diagnose(int(dbase[bad[0]]))
        if not ms.engine.migratory_enabled and dmig.any():
            self._diagnose(int(dbase[int(np.flatnonzero(dmig)[0])]))
        dholders = dsharers.copy()
        m = downer != NO_OWNER
        dholders[m] = np.int64(1) << downer[m]
        # -- directory–cache agreement ---------------------------------------
        idx = np.searchsorted(dbase, gbases)
        known = (idx < n_e) & (dbase[np.minimum(idx, max(n_e - 1, 0))] == gbases) \
            if n_e else np.zeros(gbases.shape[0], dtype=np.bool_)
        bad = np.flatnonzero(~known)
        if bad.size:  # caches hold a line the directory has never seen
            self._diagnose(int(gbases[bad[0]]))
        bad = np.flatnonzero(dholders[idx] != holders)
        if bad.size:
            self._diagnose(int(gbases[bad[0]]))
        # directory lines the caches do not hold must record no holder
        uncached = np.ones(n_e, dtype=np.bool_)
        uncached[idx] = False
        bad = np.flatnonzero(uncached & (dholders != 0))
        if bad.size:
            self._diagnose(int(dbase[bad[0]]))
        # owner-mode lines: the single copy must be writable;
        # sharers-mode lines: every copy must be S
        om = downer[idx] != NO_OWNER
        bad = np.flatnonzero(om & ((single_state != EXCLUSIVE) & (single_state != MODIFIED)))
        if bad.size:
            self._diagnose(int(gbases[bad[0]]))
        bad = np.flatnonzero(~om & (non_shared != 0))
        if bad.size:
            self._diagnose(int(gbases[bad[0]]))
        # -- inclusion + permission ordering, per adjacent level pair ---------
        for cpu, h in enumerate(ms.hierarchies):
            views = inner_views[cpu]
            if not views:
                continue
            levels = h.levels
            # Sorted (byte base, state) residency per level; the coherent
            # level's sorted residency was already built above.
            residency = []
            for li, (lt, lst, _) in enumerate(views):
                vm = lt >= 0
                vb = lt[vm] << levels[li].config.line_shift
                vs = lst[vm]
                vo = np.argsort(vb)
                residency.append((vb[vo], vs[vo]))
            residency.append(per_cpu[cpu])
            for li in range(len(views)):
                ibases, istates = residency[li]
                if not ibases.shape[0]:
                    continue
                obases, ostates = residency[li + 1]
                outer_mask = ~np.int64(levels[li + 1].config.line_size - 1)
                cov = ibases & outer_mask
                j = np.searchsorted(obases, cov)
                nb = obases.shape[0]
                covered = (j < nb) & (obases[np.minimum(j, max(nb - 1, 0))] == cov) \
                    if nb else np.zeros(cov.shape[0], dtype=np.bool_)
                bad = np.flatnonzero(~covered)
                if bad.size:  # inner line with no copy in the level outside it
                    self._diagnose(int(cov[bad[0]] & ms._coh_mask))
                ostate = ostates[np.minimum(j, max(nb - 1, 0))]
                iw = (istates == EXCLUSIVE) | (istates == MODIFIED)
                ow = (ostate == EXCLUSIVE) | (ostate == MODIFIED)
                bad = np.flatnonzero(iw & ~ow)
                if bad.size:
                    self._diagnose(int(cov[bad[0]] & ms._coh_mask))


def attach_batched(
    memsys: MemorySystem, check_every: int = 256
) -> BatchedInvariantChecker:
    """Create a batched checker and hook it into ``memsys``'s deferred
    observation channel."""
    checker = BatchedInvariantChecker(memsys, check_every=check_every)
    memsys.attach_deferred_sink(checker)
    return checker


@contextmanager
def checking_batched(memsys: MemorySystem, check_every: int = 256):
    """``with checking_batched(ms) as chk:`` — batched array
    verification for the duration of the block; a final sweep plus the
    exact at-rest whole-system check runs on successful exit."""
    checker = attach_batched(memsys, check_every=check_every)
    try:
        yield checker
        checker.close()
    finally:
        memsys.detach_deferred_sink(checker)


def attach(memsys: MemorySystem, full_every: int = 0) -> InvariantChecker:
    """Create a checker and hook it into ``memsys``."""
    checker = InvariantChecker(memsys, full_every=full_every)
    memsys.attach_sink(checker)
    return checker


@contextmanager
def checking(memsys: MemorySystem, full_every: int = 0):
    """``with checking(ms) as chk:`` — attach for the duration of the
    block, detach on the way out (even on failure)."""
    checker = attach(memsys, full_every=full_every)
    try:
        yield checker
    finally:
        memsys.detach_sink(checker)
