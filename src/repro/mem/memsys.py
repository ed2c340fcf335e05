"""The per-machine memory system: every CPU's hierarchy + coherence.

:class:`MemorySystem.access` is the simulator's hottest function — the
DBMS executor funnels every classified memory reference through it.  It
returns the *stall cycles* the access costs the issuing CPU (raw
latency scaled by the machine's out-of-order exposure factor) and
maintains all counters the paper's figures need:

* level-1 and coherent-level miss counts, per data class,
* miss breakdown into cold / capacity / communication,
* the un-overlapped memory-latency accumulator that emulates the
  PA-8200's open-request counter (Fig. 9),
* upgrade and intervention counts.

An access is implemented exactly twice.  :meth:`MemorySystem.access`
is the executable specification — one reference, every transition
through the engine and interconnect methods.
:meth:`MemorySystem.access_batch` is the one batched engine: a
flattened loop that, besides resolving private hits inline, executes
the *common-case* directory transactions (unowned and shared fetches
with no intervention and no sharer invalidation) against the directory
dict, bank-queue dicts and cache sets directly — only interventions,
sharer invalidations and upgrades fall back to the full
:meth:`_coherent_miss` / :meth:`_do_upgrade` helpers.  The two are
bitwise-equivalent; :meth:`MemorySystem.access_each` runs a batch
through the specification.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..obs import schema as _schema
from ..obs.bus import MEMSYS_EVENTS, SinkRegistry
from ..trace.address import AddressSpace
from ..trace.classify import NUM_CLASSES
from .coherence import KIND_INTERVENTION, CoherenceEngine
from .directory import NO_OWNER, DirEntry
from .hierarchy import CacheHierarchy
from .machine import TOPOLOGY_CROSSBAR, TOPOLOGY_ISLANDS, MachineConfig
from .states import EXCLUSIVE, MODIFIED, SHARED

MISS_COLD = 0
MISS_CAPACITY = 1
MISS_COMM = 2
MISS_KIND_NAMES = ("cold", "capacity", "comm")

_MEM_FIELDS = _schema.MEM_FIELDS


class CpuMemStats:
    """Counters for one CPU.  Plain ints/lists for hot-path speed.

    The field set and every shape-aware operation below are generated
    from :data:`repro.obs.schema.MEM_FIELDS` — the same table that
    drives the portable snapshot flush — so the hot-path accumulators
    cannot drift from the serialized counter vector."""

    __slots__ = _schema.MEM_FIELD_NAMES

    def __init__(self) -> None:
        for f in _MEM_FIELDS:
            setattr(self, f.name, _schema.mem_zero(f.shape))

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    def to_dict(self) -> Dict:
        """Plain-JSON form of every counter, breakdowns included (used
        by the golden-metrics snapshots and the fuzzer's fingerprints)."""
        return {
            f.name: _schema.mem_copy(f.shape, getattr(self, f.name))
            for f in _MEM_FIELDS
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "CpuMemStats":
        """Inverse of :meth:`to_dict` (golden snapshots read back);
        a missing counter raises rather than reading back as zero."""
        st = cls()
        for f in _MEM_FIELDS:
            setattr(st, f.name, _schema.mem_copy(f.shape, d[f.name]))
        return st

    def merge(self, other: "CpuMemStats") -> None:
        """Accumulate ``other`` into self (for run aggregation)."""
        for f in _MEM_FIELDS:
            mine = getattr(self, f.name)
            theirs = getattr(other, f.name)
            if f.shape == _schema.SHAPE_SCALAR:
                setattr(self, f.name, mine + theirs)
            elif f.shape == _schema.SHAPE_KIND_MATRIX:
                for row, orow in zip(mine, theirs):
                    for k, v in enumerate(orow):
                        row[k] += v
            else:
                for i, v in enumerate(theirs):
                    mine[i] += v


class MemorySystem:
    """All caches, the directory protocol, and the interconnect of one
    machine instance.  ``machine`` should already be scaled."""

    def __init__(
        self,
        machine: MachineConfig,
        aspace: AddressSpace,
        fast_path: bool = True,
    ) -> None:
        self.machine = machine
        self.aspace = aspace
        self.fast_path = fast_path
        if not fast_path:
            # the escape hatch: every batch through the specification
            self.access_batch = self.access_each
        self.topology = machine.build_topology()
        self.interconnect = machine.build_interconnect(self.topology)
        self.hierarchies: List[CacheHierarchy] = [
            CacheHierarchy(list(machine.caches)) for _ in range(machine.n_cpus)
        ]
        self.engine = CoherenceEngine(
            self.hierarchies,
            self.interconnect,
            migratory_enabled=machine.migratory_enabled,
        )
        self.stats: List[CpuMemStats] = [CpuMemStats() for _ in range(machine.n_cpus)]
        #: Registered transition sinks (see :mod:`repro.obs.bus`).  The
        #: callback lists are captured once by the observing wrappers,
        #: so attach/detach of further sinks needs no reinstall.
        self._sinks = SinkRegistry(MEMSYS_EVENTS)
        self._after_tx_cbs = self._sinks.callbacks["after_transaction"]
        self._after_silent_cbs = self._sinks.callbacks["after_silent_upgrade"]
        #: Deferred observation (see :meth:`attach_deferred_sink`):
        #: when set, every completed transaction appends its byte
        #: address here and the log is handed to the sink at each batch
        #: boundary — no method shadowing, so the batched engine keeps
        #: running.
        self._txlog: Optional[List[int]] = None
        self._deferred_sink = None
        # hot-path caching of config values
        self._uma = machine.topology_kind == TOPOLOGY_CROSSBAR
        self._exposure = machine.latency.exposure
        self._l2_hit = machine.latency.l2_hit
        self._l3_hit = machine.latency.l3_hit
        self._n_levels = len(machine.caches)
        self._has_l2 = self._n_levels >= 2
        #: Exposed stall of a clean L2 hit — constant per machine, so
        #: computed once instead of per hit.
        self._l2_stall = int(self._l2_hit * self._exposure)
        #: Exposed stall of a clean hit at ``levels[li]`` (cumulative:
        #: a hit at the L3 also traversed the L2); index 0 unused.
        self._level_stall = [0]
        _lat_acc = 0
        for _li in range(1, self._n_levels):
            _lat_acc += self._l2_hit if _li == 1 else self._l3_hit
            self._level_stall.append(int(_lat_acc * self._exposure))
        #: Traversal latency of every level between the L1 and memory,
        #: added to each coherent miss's raw latency on its way out.
        self._below_l1_lat = _lat_acc
        #: Next-line prefetcher (exotic machines only; see `_miss`).
        self._prefetch = machine.prefetch_next_line and self._has_l2
        self._l1_shift = machine.caches[0].line_shift
        self.n_prefetch_fills = 0
        #: The batched engine's inline miss lanes transcribe
        #: the 1/2-level crossbar/hypercube fast cases only; machines
        #: outside that envelope (3 levels, prefetcher, islands
        #: interconnects with per-socket bank interleaving) route every
        #: L1 miss through the general :meth:`_miss` helper instead.
        self._inline_ok = (
            self._n_levels <= 2
            and not self._prefetch
            and machine.topology_kind != TOPOLOGY_ISLANDS
        )
        self._coh_mask = ~(machine.coherence_line_size - 1)
        # miss-classification memory
        self._ever_cached: List[Set[int]] = [set() for _ in range(machine.n_cpus)]
        self._lost_to_inval: List[Set[int]] = [set() for _ in range(machine.n_cpus)]
        # NUMA home placement, resolved per segment
        self._home_by_seg: Dict[int, int] = {}
        #: One-entry (base, end, home) span cache for :meth:`_home` —
        #: coherent misses stream through segments, so consecutive
        #: lookups almost always land in the same one.  Valid because a
        #: segment's range and home never change once allocated.
        self._home_span: Tuple[int, int, int] = (1, 0, 0)
        # Inline-lane constants (the batched engine executes
        # common-case directory transactions without entering the
        # engine/interconnect methods; see `access_batch`).
        ic = self.interconnect
        lat = machine.latency
        self._mem_base = lat.mem_base
        self._bank_service = lat.bank_service
        self._epoch_shift = ic.EPOCH_SHIFT
        self._epoch_len = 1 << ic.EPOCH_SHIFT
        self._max_delay = ic.MAX_DELAY
        self._bank_load = ic._load
        self._bank_spill = ic._spill
        self._dir_entries = self.engine.directory._entries
        #: Per-CPU hoisted state for the batched engine: one tuple
        #: unpack replaces ~20 attribute lookups and method binds per
        #: batch (batches average tens of references, so the prologue
        #: is a measurable share of the engine's time).  Everything in
        #: here is structurally stable for the life of the memsys: the
        #: stats/hierarchy objects are never replaced, ``flush`` and
        #: ``reset_contention`` clear their dicts in place, and the
        #: bound helpers captured here are the *unobserved* ones —
        #: attaching a sink shadows ``access_batch`` with
        #: ``access_each``, so this context is never consulted while
        #: observation is on.
        self._batch_ctx = []
        for cpu in range(machine.n_cpus):
            h = self.hierarchies[cpu]
            l1_sets, l1_shift, l1_mask = h.l1.hot_view()
            if h.has_l2:
                l2_sets, l2_shift, l2_mask = h.coherent.hot_view()
                l2_assoc = h.coherent.config.assoc
            else:
                l2_sets = l2_shift = l2_mask = l2_assoc = None
            if self._uma:
                bank_mod = ic.n_banks
                dist_row: Optional[List[int]] = None
            else:
                bank_mod = None
                node = self.topology.node_of_cpu(cpu)
                dist_row = [
                    lat.hop_cost * self.topology.hops(node, hm)
                    for hm in range(self.topology.n_nodes)
                ]
            self._batch_ctx.append((
                self.stats[cpu],
                h,
                h.l1,
                l1_sets,
                l1_shift,
                l1_mask,
                h.l1.config.assoc,
                h.coherent,
                l2_sets,
                l2_shift,
                l2_mask,
                l2_assoc,
                machine.coherence_line_size >> l1_shift,
                h.set_state,
                self._coherent_miss,
                self._do_upgrade,
                self.engine.note_silent_upgrade,
                self._ever_cached[cpu],
                self._lost_to_inval[cpu],
                dist_row,
                bank_mod,
            ))

    # -- NUMA placement -------------------------------------------------------
    def _home(self, addr: int) -> int:
        """Home node of ``addr``.  Shared DBMS segments are spread
        round-robin over the machine's ``db_home_nodes`` (the paper's
        "same node or a couple of different nodes"); private segments
        are first-touch homed on their owner's node."""
        if self._uma:
            return 0
        lo, hi, home = self._home_span
        if lo <= addr < hi:
            return home
        seg = self.aspace.find(addr)
        home = self._home_by_seg.get(seg.base)
        if home is None:
            if seg.home_node is not None:
                home = seg.home_node % self.topology.n_nodes
            elif not seg.shared and seg.owner_cpu is not None:
                home = self.topology.node_of_cpu(seg.owner_cpu)
            else:
                nodes = self.machine.db_home_nodes
                idx = self.aspace.segments.index(seg)
                home = nodes[idx % len(nodes)] % self.topology.n_nodes
            self._home_by_seg[seg.base] = home
        self._home_span = (seg.base, seg.end, home)
        return home

    # -- the hot path -----------------------------------------------------------
    def access(self, cpu: int, addr: int, is_write: bool, cls: int, now: int) -> int:
        """Perform one reference; return exposed stall cycles."""
        st = self.stats[cpu]
        h = self.hierarchies[cpu]
        if is_write:
            st.writes += 1
        else:
            st.reads += 1

        state = h.l1.probe(addr)
        if state:
            if not is_write or state == MODIFIED:
                return 0
            if state == EXCLUSIVE:
                h.set_state(addr, MODIFIED)
                self.engine.note_silent_upgrade(cpu, addr)
                st.silent_upgrades += 1
                if self._txlog is not None:
                    self._txlog.append(addr)
                return 0
            # write hit on SHARED: ownership upgrade
            return self._do_upgrade(cpu, addr, now, st, h)

        return self._miss(cpu, addr, is_write, cls, now, st, h)

    def _miss(
        self,
        cpu: int,
        addr: int,
        is_write: bool,
        cls: int,
        now: int,
        st: CpuMemStats,
        h: CacheHierarchy,
    ) -> int:
        """Everything below the L1: a hit at any inner level (L2 or
        L3), or a directory transaction.  Shared by :meth:`access` and —
        on machines outside the inline lanes' envelope — the batched
        engine."""
        st.level1_misses += 1
        st.level1_misses_by_class[cls] += 1

        levels = h.levels
        last = self._n_levels - 1
        for li in range(1, self._n_levels):
            cache = levels[li]
            cstate = cache.probe(addr)
            if not cstate:
                continue
            # ``l2_hits`` counts every below-L1 cache hit regardless of
            # the level that supplied it, preserving the identity
            # level1_misses == l2_hits + coherent_misses on any depth.
            st.l2_hits += 1
            stall = self._level_stall[li]
            if is_write:
                if cstate == SHARED:
                    stall += self._do_upgrade(cpu, addr, now, st, h)
                    cstate = MODIFIED
                elif cstate == EXCLUSIVE:
                    if li == last:
                        cache.set_state(addr, MODIFIED)
                    else:
                        # mid-level hit: restate the coherent level and
                        # every resident sub-line below it
                        h.set_state(addr, MODIFIED)
                    self.engine.note_silent_upgrade(cpu, addr)
                    st.silent_upgrades += 1
                    if self._txlog is not None:
                        self._txlog.append(addr)
                    cstate = MODIFIED
            h.fill_inner(addr, cstate, li)
            if self._prefetch:
                self._prefetch_next(h, addr, li)
            st.stall_cycles += stall
            return stall

        return self._coherent_miss(cpu, addr, is_write, cls, now, st, h)

    def _prefetch_next(self, h: CacheHierarchy, addr: int, src_li: int) -> None:
        """Next-line prefetcher: an L1 miss satisfied at ``levels
        [src_li]`` also pulls the next sequential L1 line up from that
        level when it is already resident there.  Pure hierarchy
        motion — no memory, interconnect, or directory traffic, so
        coherence state is untouched and inclusion is preserved by
        :meth:`CacheHierarchy.fill_inner`."""
        nxt = ((addr >> self._l1_shift) + 1) << self._l1_shift
        if h.l1.peek(nxt):
            return
        pstate = h.levels[src_li].peek(nxt)
        if pstate:
            h.fill_inner(nxt, pstate, src_li)
            self.n_prefetch_fills += 1

    def _coherent_miss(
        self,
        cpu: int,
        addr: int,
        is_write: bool,
        cls: int,
        now: int,
        st: CpuMemStats,
        h: CacheHierarchy,
    ) -> int:
        """The directory transaction below every cache level.  Split
        from :meth:`_miss` so the batched engine, which resolves the
        L1-miss bookkeeping and the L2 probe inline, can enter the
        hierarchy exactly here."""
        home = self._home(addr)
        if is_write:
            lat, kind, losers = self.engine.write_miss(cpu, addr, home, now)
            fill_state = MODIFIED
        else:
            lat, kind, losers, fill_state = self.engine.read_miss(cpu, addr, home, now)
        if losers:
            line = addr & self._coh_mask
            for q in losers:
                self._lost_to_inval[q].add(line)

        self._classify_miss(cpu, addr, kind, cls, st)

        victim = h.fill(addr, fill_state)
        if victim is not None:
            vbase, vstate = victim
            self.engine.evict(cpu, vbase, vstate, self._home(vbase), now)

        if self._has_l2:
            # the miss traversed every inner level on its way out
            lat += self._below_l1_lat
        st.coherent_misses += 1
        st.coherent_misses_by_class[cls] += 1
        st.raw_latency_cycles += lat
        st.mem_accesses += 1
        stall = int(lat * self._exposure)
        st.stall_cycles += stall
        if self._txlog is not None:
            self._txlog.append(addr)
        return stall

    def access_each(self, cpu: int, batch, now: int, base_cpi: float) -> float:
        """Run a whole :class:`~repro.trace.stream.RefBatch` through the
        specification: one :meth:`access` call per reference.

        This is what ``fast_path=False`` executes, what the
        equivalence suites and the fuzzer compare the batched engine
        against, and — because :meth:`access` publishes every
        transition to attached sinks at the exact reference that caused
        it — what a memory system with an exact sink attached executes
        (see :meth:`attach_sink`).  Same contract as
        :meth:`access_batch`: returns the float cycles consumed and
        drains the deferred transaction log at the batch boundary.
        """
        access = self.access
        cycles = 0.0
        t = now
        for addr, is_write, instrs, cls in batch:
            cost = instrs * base_cpi
            cost += access(cpu, addr, is_write, cls, int(t + cost))
            cycles += cost
            t += cost
        txlog = self._txlog
        if txlog:
            self._deferred_sink.on_batch_end(cpu, txlog)
            del txlog[:]
        return cycles

    def access_batch(self, cpu: int, batch, now: int, base_cpi: float) -> float:
        """Run a whole :class:`~repro.trace.stream.RefBatch`; return the
        float cycles it consumed (the caller truncates once per batch).

        The one batched engine.  It mirrors :meth:`access` operation
        for operation (same float additions in the same order, same
        dictionary operations on every cache set and directory entry),
        so counters, timing and final cache state are bitwise identical
        to :meth:`access_each`; the equivalence suites and the fuzzer
        compare the two counter for counter.

        Everything that generates no directory transaction is resolved
        inline against the cache set structures (via
        :meth:`SetAssocCache.hot_view`), with the counters applied in
        bulk at the end of the batch:

        * private L1 hits (E/M, or S for reads) — zero stall,
        * spatial runs — consecutive references to the same L1 line
          skip the set lookup and MRU promotion entirely (the line is
          already MRU and its state is tracked in a local),
        * silent E→M upgrades on L1 or L2 hits,
        * clean L2 hits, including the L1 refill and the constant
          exposed L2 stall.

        Coherent misses take an inline lane too, provided the
        transaction is *simple*: the line is not exclusive in another
        cache, and a write finds no other sharer.  Those transactions
        (the vast majority — streaming scans fetch unowned lines) are
        transcriptions of :meth:`CoherenceEngine.read_miss` /
        :meth:`~CoherenceEngine.write_miss`'s no-intervention branches,
        :meth:`Interconnect._enter_bank`'s epoch queueing,
        :meth:`_classify_miss` and the fill/evict path, executed
        against the directory dict, bank dicts and set dicts directly.
        Interventions, sharer invalidations and S-write upgrades leave
        the loop through the same :meth:`_do_upgrade` /
        :meth:`_coherent_miss` helpers :meth:`access` uses, preserving
        the exact transition semantics by construction.

        On a memory system built with ``fast_path=False``, or while an
        exact sink is attached, this name is shadowed by
        :meth:`access_each`, so callers hand every batch to
        ``access_batch`` unconditionally.
        """
        (
            st,
            h,
            l1,
            l1_sets,
            l1_shift,
            l1_mask,
            l1_assoc,
            l2,
            l2_sets,
            l2_shift,
            l2_mask,
            l2_assoc,
            l1_per_coh,
            set_state,
            coherent_miss,
            do_upgrade,
            note_silent,
            ever_cached,
            lost_inval,
            dist_row,
            bank_mod,
        ) = self._batch_ctx[cpu]
        has_l2 = l2_sets is not None
        # Machines outside the inline lanes' envelope (3 cache levels,
        # prefetcher, islands interconnect) take the general `_miss`
        # helper on every L1 miss; the L1 hit/silent-upgrade handling
        # above it is depth- and topology-independent.
        general_miss = None if self._inline_ok else self._miss
        l2_stall = self._l2_stall
        modified = MODIFIED
        exclusive = EXCLUSIVE
        shared = SHARED
        coh_mask = self._coh_mask
        cpu_bit = 1 << cpu
        mem_base = self._mem_base
        service = self._bank_service
        epoch_shift = self._epoch_shift
        epoch_len = self._epoch_len
        max_delay = self._max_delay
        bank_load = self._bank_load
        bank_spill = self._bank_spill
        entries = self._dir_entries
        dir_entry = DirEntry
        exposure = self._exposure
        l2_hit_lat = self._l2_hit
        engine = self.engine
        ic = self.interconnect
        txlog = self._txlog
        miss_kind = st.miss_kind
        miss_kind_by_class = st.miss_kind_by_class
        coh_by_class = st.coherent_misses_by_class
        n_reads = 0
        n_writes = 0
        n_l1_miss = 0
        n_l2_hits = 0
        n_silent = 0
        n_l1_evict = 0
        n_l1_dirty = 0
        n_l2_evict = 0
        n_l2_dirty = 0
        l2_stall_sum = 0
        n_cohm = 0
        raw_sum = 0
        coh_stall_sum = 0
        ic_requests = 0
        ic_queued = 0
        ic_qdelay = 0
        by_class = None  # lazily allocated: most batches never miss
        run_line = -1  # spatial-run tracking: L1 line of the previous ref
        run_state = 0
        cycles = 0.0
        t = float(now)
        for addr, is_write, instrs, cls in zip(
            batch.addrs, batch.writes, batch.instrs, batch.classes
        ):
            cost = instrs * base_cpi
            line = addr >> l1_shift
            if line == run_line:
                # Same line as the previous reference: it is resident
                # and already MRU, so no set lookup or promotion — the
                # probe `access` performs would be a no-op.
                if not is_write:
                    n_reads += 1
                    cycles += cost
                    t += cost
                    continue
                n_writes += 1
                state = run_state
                if state != modified:
                    if state == exclusive:
                        set_state(addr, modified)
                        note_silent(cpu, addr)
                        n_silent += 1
                        run_state = modified
                        if txlog is not None:
                            txlog.append(addr)
                    else:
                        # write hit on SHARED: ownership upgrade
                        cost += do_upgrade(cpu, addr, int(t + cost), st, h)
                        run_line = -1
                cycles += cost
                t += cost
                continue
            cset = l1_sets[line & l1_mask]
            state = cset.get(line, 0)
            if state:
                cset.move_to_end(line)  # the MRU promotion probe() does
                if not is_write or state == modified:
                    # private hit: no stall, no protocol traffic
                    if is_write:
                        n_writes += 1
                    else:
                        n_reads += 1
                    run_line = line
                    run_state = state
                    cycles += cost
                    t += cost
                    continue
                n_writes += 1
                if state == exclusive:
                    set_state(addr, modified)
                    note_silent(cpu, addr)
                    n_silent += 1
                    run_line = line
                    run_state = modified
                    if txlog is not None:
                        txlog.append(addr)
                else:
                    # write hit on SHARED: ownership upgrade
                    cost += do_upgrade(cpu, addr, int(t + cost), st, h)
                    run_line = -1
                cycles += cost
                t += cost
                continue
            # L1 miss.  An upgrade, refill, or eviction below may touch
            # the tracked line, so the run ends here.
            run_line = -1
            if is_write:
                n_writes += 1
            else:
                n_reads += 1
            if general_miss is not None:
                cost += general_miss(cpu, addr, is_write, cls, int(t + cost), st, h)
                cycles += cost
                t += cost
                continue
            n_l1_miss += 1
            if by_class is None:
                by_class = [0] * NUM_CLASSES
            by_class[cls] += 1
            if has_l2:
                l2_line = addr >> l2_shift
                l2_set = l2_sets[l2_line & l2_mask]
                cstate = l2_set.get(l2_line, 0)
                if cstate:
                    l2_set.move_to_end(l2_line)  # probe()'s promotion
                    n_l2_hits += 1
                    stall = l2_stall
                    if is_write:
                        if cstate == shared:
                            stall += do_upgrade(
                                cpu, addr, int(t + cost), st, h
                            )
                            cstate = modified
                        elif cstate == exclusive:
                            # silent E→M in the L2 (resident: no insert)
                            l2_set[l2_line] = modified
                            note_silent(cpu, addr)
                            n_silent += 1
                            cstate = modified
                            if txlog is not None:
                                txlog.append(addr)
                    # Inline L1 refill: the reference missed the L1
                    # this very iteration, so the line is known absent
                    # and :meth:`SetAssocCache.insert` reduces to the
                    # eviction check + store (counters flushed below).
                    if len(cset) >= l1_assoc:
                        if cset.popitem(last=False)[1] == modified:
                            n_l1_dirty += 1
                        n_l1_evict += 1
                    cset[line] = cstate
                    run_line = line
                    run_state = cstate
                    l2_stall_sum += stall
                    cost += stall
                    cycles += cost
                    t += cost
                    continue
            # Coherent miss.  The inline lane transcribes the
            # no-intervention branches of the protocol; anything that
            # must touch another CPU's cache falls back to the helper.
            lbase = addr & coh_mask
            e = entries.get(lbase)
            if e is None:
                e = dir_entry()
                entries[lbase] = e
                owner = -1
                sharers = 0
            else:
                owner = e.excl_owner
                sharers = e.sharers
            if (owner != -1 and owner != cpu) or (
                is_write and sharers & ~cpu_bit
            ):
                cost += coherent_miss(cpu, addr, is_write, cls, int(t + cost), st, h)
                cycles += cost
                t += cost
                continue
            # home node (span cache, same as _home())
            if self._uma:
                home = 0
                dist = 0
                bank = (lbase >> 6) % bank_mod
            else:
                lo, hi, home = self._home_span
                if not lo <= addr < hi:
                    home = self._home(addr)
                dist = dist_row[home]
                bank = home
            # memory_fetch: epoch-queued bank entry (_enter_bank)
            now_i = int(t + cost)
            epoch = now_i >> epoch_shift
            key = (bank, epoch)
            cnt = bank_load.get(key, 0)
            if cnt == 0:
                prevk = (bank, epoch - 1)
                backlog = (
                    bank_spill.get(prevk, 0)
                    + bank_load.get(prevk, 0) * service
                    - epoch_len
                )
                if backlog > 0:
                    bank_spill[key] = backlog
            delay = bank_spill.get(key, 0) + cnt * service
            if delay > max_delay:
                delay = max_delay
            bank_load[key] = cnt + 1
            ic_requests += 1
            if delay:
                ic_queued += 1
                ic_qdelay += delay
            lat = mem_base + dist + delay
            # directory transition + fill state (no-intervention cases)
            if is_write:
                # no other holder: plain ownership fetch
                e.excl_owner = cpu
                e.sharers = 0
                e.last_writer = cpu
                e.written_since_transfer = True
                fill_state = modified
                comm = lbase in lost_inval
            else:
                holders = sharers if owner == -1 else cpu_bit
                if holders == 0 or holders == cpu_bit:
                    e.excl_owner = cpu
                    e.sharers = 0
                    e.written_since_transfer = False
                    fill_state = exclusive
                else:
                    e.sharers = sharers | cpu_bit
                    fill_state = shared
                comm = lbase in lost_inval
            # cold / capacity / comm classification (_classify_miss)
            if comm:
                mk = 2
                lost_inval.discard(lbase)
            elif lbase in ever_cached:
                mk = 1
            else:
                mk = 0
            ever_cached.add(lbase)
            miss_kind[mk] += 1
            miss_kind_by_class[cls][mk] += 1
            # fill + victim notification (CacheHierarchy.fill + evict)
            if has_l2:
                if len(l2_set) >= l2_assoc:
                    vline, vstate = l2_set.popitem(last=False)
                    n_l2_evict += 1
                    if vstate == modified:
                        n_l2_dirty += 1
                    vbase = vline << l2_shift
                    # inclusion sweep of the covered L1 lines
                    vl = vbase >> l1_shift
                    for k in range(l1_per_coh):
                        l1_sets[(vl + k) & l1_mask].pop(vl + k, None)
                    ve = entries.get(vbase)
                    if ve is not None:
                        if ve.excl_owner == cpu:
                            ve.excl_owner = -1
                            ve.sharers = 0
                        else:
                            ve.sharers &= ~cpu_bit
                        if vstate == modified:
                            engine.n_writebacks += 1
                            ic.post_writeback(vbase, self._home(vbase), now_i)
                l2_set[l2_line] = fill_state
                if len(cset) >= l1_assoc:
                    if cset.popitem(last=False)[1] == modified:
                        n_l1_dirty += 1
                    n_l1_evict += 1
                cset[line] = fill_state
                lat += l2_hit_lat
            else:
                if len(cset) >= l1_assoc:
                    vline, vstate = cset.popitem(last=False)
                    n_l1_evict += 1
                    if vstate == modified:
                        n_l1_dirty += 1
                    vbase = vline << l1_shift
                    ve = entries.get(vbase)
                    if ve is not None:
                        if ve.excl_owner == cpu:
                            ve.excl_owner = -1
                            ve.sharers = 0
                        else:
                            ve.sharers &= ~cpu_bit
                        if vstate == modified:
                            engine.n_writebacks += 1
                            ic.post_writeback(vbase, self._home(vbase), now_i)
                cset[line] = fill_state
            run_line = line
            run_state = fill_state
            n_cohm += 1
            coh_by_class[cls] += 1
            raw_sum += lat
            stall = int(lat * exposure)
            coh_stall_sum += stall
            if txlog is not None:
                txlog.append(addr)
            cost += stall
            cycles += cost
            t += cost
        st.reads += n_reads
        st.writes += n_writes
        if n_l1_miss:
            st.level1_misses += n_l1_miss
            cls_counts = st.level1_misses_by_class
            for i, n in enumerate(by_class):
                if n:
                    cls_counts[i] += n
        if n_l2_hits:
            st.l2_hits += n_l2_hits
            st.stall_cycles += l2_stall_sum
        if n_l1_evict:
            l1.n_evictions += n_l1_evict
            l1.n_dirty_evictions += n_l1_dirty
        if n_l2_evict:
            l2.n_evictions += n_l2_evict
            l2.n_dirty_evictions += n_l2_dirty
        if n_silent:
            st.silent_upgrades += n_silent
        if n_cohm:
            st.coherent_misses += n_cohm
            st.mem_accesses += n_cohm
            st.raw_latency_cycles += raw_sum
            st.stall_cycles += coh_stall_sum
        if ic_requests:
            ic.n_requests += ic_requests
            if ic_queued:
                ic.n_queued += ic_queued
                ic.total_queue_delay += ic_qdelay
        if txlog:
            self._deferred_sink.on_batch_end(cpu, txlog)
            del txlog[:]
        return cycles

    def _do_upgrade(
        self, cpu: int, addr: int, now: int, st: CpuMemStats, h: CacheHierarchy
    ) -> int:
        lat, losers = self.engine.upgrade(cpu, addr, self._home(addr), now)
        if losers:
            line = addr & self._coh_mask
            for q in losers:
                self._lost_to_inval[q].add(line)
        h.set_state(addr, MODIFIED)
        st.upgrades += 1
        st.raw_latency_cycles += lat
        st.mem_accesses += 1
        stall = int(lat * self._exposure)
        st.stall_cycles += stall
        if self._txlog is not None:
            self._txlog.append(addr)
        return stall

    def _classify_miss(
        self, cpu: int, addr: int, kind: str, cls: int, st: CpuMemStats
    ) -> None:
        line = addr & self._coh_mask
        lost = self._lost_to_inval[cpu]
        if kind == KIND_INTERVENTION or line in lost:
            mk = MISS_COMM
            lost.discard(line)
        elif line in self._ever_cached[cpu]:
            mk = MISS_CAPACITY
        else:
            mk = MISS_COLD
        self._ever_cached[cpu].add(line)
        st.miss_kind[mk] += 1
        st.miss_kind_by_class[cls][mk] += 1

    # -- observation -------------------------------------------------------------
    def attach_sink(self, sink) -> None:
        """Register a transition sink (see :mod:`repro.obs.bus`).

        A sink receives the :data:`~repro.obs.bus.MEMSYS_EVENTS` it
        implements: ``after_transaction(cpu, addr, now)`` after every
        completed miss/upgrade directory transaction (and any eviction
        it caused), ``after_silent_upgrade(cpu, addr)`` after a silent
        E→M write.  The first sink installs observing wrappers over the
        transition helpers by instance-attribute shadowing and routes
        batches through :meth:`access_each`, so the sinks see every
        event at the exact reference that caused it; later sinks just
        join the dispatch lists the wrappers already iterate.  A
        :class:`MemorySystem` with no sink attached (or whose last sink
        detached) executes exactly the unhooked bytecode — disabled
        observation costs nothing.
        """
        if self._sinks.add(sink):
            self._miss = self._miss_observed
            self._do_upgrade = self._do_upgrade_observed
            self.access_batch = self.access_each
            engine = self.engine
            orig_note = engine.note_silent_upgrade
            silent_cbs = self._after_silent_cbs

            def observed_note(cpu: int, addr: int) -> None:
                orig_note(cpu, addr)
                for cb in silent_cbs:
                    cb(cpu, addr)

            engine.note_silent_upgrade = observed_note

    def detach_sink(self, sink) -> None:
        """Deregister ``sink``; the last one out restores the unhooked
        hot path (deletes every observing shadow)."""
        if self._sinks.remove(sink):
            del self._miss
            del self._do_upgrade
            if self.fast_path:
                del self.access_batch
            del self.engine.note_silent_upgrade

    def attach_deferred_sink(self, sink) -> None:
        """Register a *deferred* observation sink.

        Unlike :meth:`attach_sink`, no method is shadowed and the
        batched engine keeps running: every completed transaction
        (miss, upgrade, or silent upgrade) appends its byte address to
        an internal log, and :meth:`access_batch` and
        :meth:`access_each` alike call ``sink.on_batch_end(cpu, log)``
        at each batch boundary, after the bulk counters are flushed.  The
        sink must consume the log during the call (it is cleared right
        after).  This is the hook for the batched array-verification
        mode of :class:`repro.verify.invariants.BatchedInvariantChecker`
        — observation cost is one list append per transaction instead
        of a per-transition Python callback.  Detection granularity is
        the batch, not the transition; use :meth:`attach_sink` when a
        violation must be caught at the exact reference that caused it.
        """
        if self._deferred_sink is not None:
            raise ValueError("a deferred sink is already attached")
        self._deferred_sink = sink
        self._txlog = []

    def detach_deferred_sink(self, sink) -> None:
        """Deregister the deferred sink registered by
        :meth:`attach_deferred_sink`."""
        if self._deferred_sink is not sink:
            raise ValueError("sink is not the attached deferred sink")
        self._deferred_sink = None
        self._txlog = None

    def _miss_observed(
        self, cpu: int, addr: int, is_write: bool, cls: int, now: int,
        st: CpuMemStats, h: CacheHierarchy,
    ) -> int:
        stall = type(self)._miss(self, cpu, addr, is_write, cls, now, st, h)
        for cb in self._after_tx_cbs:
            cb(cpu, addr, now)
        return stall

    def _do_upgrade_observed(
        self, cpu: int, addr: int, now: int, st: CpuMemStats, h: CacheHierarchy
    ) -> int:
        stall = type(self)._do_upgrade(self, cpu, addr, now, st, h)
        for cb in self._after_tx_cbs:
            cb(cpu, addr, now)
        return stall

    # -- lifecycle ---------------------------------------------------------------
    def flush_caches(self) -> None:
        """Empty every cache and the directory (cold restart)."""
        for h in self.hierarchies:
            h.flush()
        self.engine.directory._entries.clear()
        for s in self._ever_cached:
            s.clear()
        for s in self._lost_to_inval:
            s.clear()
        self.interconnect.reset_contention()

    # -- aggregation ----------------------------------------------------------------
    def total_stats(self, cpus: Optional[List[int]] = None) -> CpuMemStats:
        """Sum the per-CPU stats (optionally over a subset of CPUs)."""
        out = CpuMemStats()
        for i, st in enumerate(self.stats):
            if cpus is None or i in cpus:
                out.merge(st)
        return out
