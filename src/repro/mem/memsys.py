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
:meth:`MemorySystem.access_batch` is the one batched engine, for every
machine (1 to 3 levels, prefetcher or not, any topology): a flattened
loop that resolves hits at every level, the next-line prefetcher, and
the directory transactions that touch at most one other cache (unowned
and shared fetches, single-owner interventions) against the cache
sets, directory dict and bank-queue dicts directly — only writes that
invalidate sharers, migratory reads and upgrades from S fall back to
the full :meth:`_coherent_miss` / :meth:`_do_upgrade` helpers.  The two
are bitwise-equivalent; :meth:`MemorySystem.access_each` runs a batch
through the specification.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..obs import schema as _schema
from ..obs.bus import MEMSYS_EVENTS, SinkRegistry
from ..trace.address import AddressSpace
from ..trace.classify import NUM_CLASSES
from .coherence import KIND_INTERVENTION, CoherenceEngine
from .directory import DirEntry
from .hierarchy import CacheHierarchy
from .machine import TOPOLOGY_CROSSBAR, MachineConfig
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
        self._n_levels = len(machine.caches)
        self._has_l2 = self._n_levels >= 2
        #: Exposed stall of a clean hit at ``levels[li]`` (cumulative:
        #: a hit at the L3 also traversed the L2); index 0 unused.
        self._level_stall = [0]
        _lat_acc = 0
        for _li in range(1, self._n_levels):
            _lat_acc += machine.latency.l2_hit if _li == 1 else machine.latency.l3_hit
            self._level_stall.append(int(_lat_acc * self._exposure))
        #: Traversal latency of every level between the L1 and memory,
        #: added to each coherent miss's raw latency on its way out.
        self._below_l1_lat = _lat_acc
        #: Next-line prefetcher (exotic machines only; see `_miss`).
        self._prefetch = machine.prefetch_next_line and self._has_l2
        self._l1_shift = machine.caches[0].line_shift
        self.n_prefetch_fills = 0
        self._coh_mask = ~(machine.coherence_line_size - 1)
        #: Inclusion-sweep widths of the batched engine: L1 lines per
        #: middle-level line, middle lines per coherent line, L1 lines
        #: per coherent line (the middle ones unused below 3 levels).
        _shifts = [c.line_shift for c in machine.caches]
        _mid_shift = _shifts[min(1, self._n_levels - 1)]
        self._l1_per_mid = 1 << (_mid_shift - _shifts[0])
        self._mid_per_co = 1 << (_shifts[-1] - _mid_shift)
        self._l1_per_co = 1 << (_shifts[-1] - _shifts[0])
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
        # Inline-lane constants (the batched engine executes directory
        # transactions without entering the engine/interconnect
        # methods; see `access_batch`).
        ic = self.interconnect
        lat = machine.latency
        self._mem_base = lat.mem_base
        self._bank_service = lat.bank_service
        self._banks_per_home = ic.banks_per_home
        #: What an intervention adds to the memory round trip.
        self._interv_extra = lat.intervention_cost(0)
        self._epoch_shift = ic.EPOCH_SHIFT
        self._epoch_len = 1 << ic.EPOCH_SHIFT
        self._max_delay = ic.MAX_DELAY
        self._bank_load = ic._load
        self._bank_spill = ic._spill
        self._dir_entries = self.engine.directory._entries
        #: ``ic.distance_cost(cpu, home)`` as a table, one row per CPU.
        self._dist = [
            [ic.distance_cost(cpu, hm) for hm in range(self.topology.n_nodes)]
            for cpu in range(machine.n_cpus)
        ]
        #: Per-CPU hoisted state for the batched engine: one tuple
        #: unpack replaces ~20 attribute lookups per batch (batches
        #: average tens of references, so the prologue is a measurable
        #: share of the engine's time).  Everything in here is
        #: structurally stable for the life of the memsys: the
        #: stats/hierarchy/cache objects are never replaced, ``flush``
        #: and ``reset_contention`` clear their dicts in place, and the
        #: ``note_silent_upgrade`` captured here is the *unobserved*
        #: one — attaching a sink shadows ``access_batch`` with
        #: ``access_each``, so this context is never consulted while
        #: observation is on.  The middle level is resolved here
        #: (``None`` below three levels); on one level the coherent
        #: level *is* the L1.  No method bound to ``self`` is stored,
        #: so the memsys is not a reference cycle and dies with its
        #: last reference.
        self._batch_ctx = []
        for cpu in range(machine.n_cpus):
            h = self.hierarchies[cpu]
            mid = h.levels[1] if self._n_levels == 3 else None
            self._batch_ctx.append((
                self.stats[cpu],
                h,
                h.l1,
                *h.l1.hot_view(),
                h.l1.config.assoc,
                mid,
                *(mid.hot_view() if mid else (None, 0, 0)),
                mid.config.assoc if mid else 0,
                h.coherent,
                *h.coherent.hot_view(),
                h.coherent.config.assoc,
                h.set_state,
                self.engine.note_silent_upgrade,
                self._ever_cached[cpu],
                self._lost_to_inval[cpu],
                self._dist[cpu],
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

        The one batched engine, for every machine.  It mirrors
        :meth:`access` operation for operation (same float additions in
        the same order, same dictionary operations on every cache set
        and directory entry), so counters, timing and final cache state
        are bitwise identical to :meth:`access_each`; the equivalence
        suites and the fuzzer compare the two counter for counter.

        Resolved inline against the cache set structures (via
        :meth:`SetAssocCache.hot_view`), with the counters applied in
        bulk at the end of the batch:

        * private L1 hits (E/M, or S for reads) — zero stall,
        * spatial runs — consecutive references to the same L1 line
          skip the set lookup and MRU promotion entirely (the line is
          already MRU and its state is tracked in a local),
        * silent E→M upgrades on hits at any level,
        * hits at the middle (three-level machines) and coherent
          levels, with the inward refill and each refill victim's
          inclusion sweep,
        * the next-line prefetcher's fills (a fill ends the run),
        * coherent misses — transcriptions of
          :meth:`CoherenceEngine.read_miss` /
          :meth:`~CoherenceEngine.write_miss` for unowned and shared
          lines and for single-owner interventions (a read downgrades
          the owner, a write steals the line), of
          :meth:`Interconnect._enter_bank`'s epoch queueing (one bank
          formula and one distance table for every topology), of
          :meth:`_classify_miss` and of the fill/evict path.

        Only writes that must invalidate sharers, reads of a migratory
        line held elsewhere, and upgrades from S leave the loop, through
        the same :meth:`_coherent_miss` / :meth:`_do_upgrade` helpers
        :meth:`access` uses.

        On a memory system built with ``fast_path=False``, or while an
        exact sink is attached, this name is shadowed by
        :meth:`access_each`, so callers hand every batch to
        ``access_batch`` unconditionally.
        """
        (
            st, h, l1, l1_sets, l1_shift, l1_mask, l1_assoc,
            mid, mid_sets, mid_shift, mid_mask, mid_assoc,
            co, co_sets, co_shift, co_mask, co_assoc,
            set_state, note_silent, ever_cached, lost_inval, dist_row,
        ) = self._batch_ctx[cpu]
        # bound per call: kept in the context they would make the
        # memsys a reference cycle
        coherent_miss = self._coherent_miss
        do_upgrade = self._do_upgrade
        has_l2 = co is not l1
        mid_stall = self._level_stall[1] if mid is not None else 0
        co_stall = self._level_stall[-1]
        below_l1 = self._below_l1_lat
        l1_per_mid = self._l1_per_mid
        mid_per_co = self._mid_per_co
        l1_per_co = self._l1_per_co
        prefetch = self._prefetch
        modified = MODIFIED
        exclusive = EXCLUSIVE
        shared = SHARED
        coh_mask = self._coh_mask
        cpu_bit = 1 << cpu
        uma = self._uma
        mem_base = self._mem_base
        service = self._bank_service
        bph = self._banks_per_home
        epoch_shift = self._epoch_shift
        epoch_len = self._epoch_len
        max_delay = self._max_delay
        bank_load = self._bank_load
        bank_spill = self._bank_spill
        entries = self._dir_entries
        dir_entry = DirEntry
        exposure = self._exposure
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
        n_mid_evict = 0
        n_mid_dirty = 0
        n_co_evict = 0
        n_co_dirty = 0
        n_prefetch = 0
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
            n_l1_miss += 1
            if by_class is None:
                by_class = [0] * NUM_CLASSES
            by_class[cls] += 1
            # Probe outward, promoting a hit as probe() does.  ``src`` is
            # the supplying level: 1 the middle, 2 the coherent, 0 memory.
            src = 0
            if mid is not None:
                m_line = addr >> mid_shift
                m_set = mid_sets[m_line & mid_mask]
                state = m_set.get(m_line, 0)
                if state:
                    m_set.move_to_end(m_line)
                    src = 1
                    stall = mid_stall
            if not src:
                co_line = addr >> co_shift
                co_set = co_sets[co_line & co_mask]
                if has_l2:
                    state = co_set.get(co_line, 0)
                    if state:
                        co_set.move_to_end(co_line)
                        src = 2
                        stall = co_stall
            if src:
                n_l2_hits += 1
                if is_write and state != modified:
                    if state == shared:
                        stall += do_upgrade(cpu, addr, int(t + cost), st, h)
                    else:
                        # silent E→M: a coherent-level hit restates that
                        # level alone, a middle-level hit every level
                        if src == 2:
                            co_set[co_line] = modified
                        else:
                            set_state(addr, modified)
                        note_silent(cpu, addr)
                        n_silent += 1
                        if txlog is not None:
                            txlog.append(addr)
                    state = modified
                l2_stall_sum += stall
            else:
                # Coherent miss: a directory transaction, inline unless a
                # write must invalidate sharers or a read meets a
                # migratory line held elsewhere.
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
                intervene = owner != -1 and owner != cpu
                if (is_write and sharers & ~cpu_bit) or (
                    intervene and not is_write and e.migratory
                ):
                    cost += coherent_miss(cpu, addr, is_write, cls, int(t + cost), st, h)
                    cycles += cost
                    t += cost
                    continue
                # home node (span cache, same as _home())
                if uma:
                    home = 0
                else:
                    lo, hi, home = self._home_span
                    if not lo <= addr < hi:
                        home = self._home(addr)
                # epoch-queued bank entry (bank_of + _enter_bank)
                now_i = int(t + cost)
                bank = home * bph + (lbase >> 6) % bph
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
                lat = mem_base + dist_row[home] + delay
                if intervene:
                    # the single owner supplies the line: intervention
                    # cost plus the owner's leg to the home
                    engine.n_interventions += 1
                    lat += self._interv_extra + self._dist[owner][home]
                    oh = self.hierarchies[owner]
                    if is_write:
                        # write steal: the owner's copy dies
                        oh.invalidate(lbase)
                        engine.n_invalidations += 1
                        engine._detect_migratory(e, cpu, 1 << owner)
                        self._lost_to_inval[owner].add(lbase)
                    else:
                        # read downgrade: the owner keeps a SHARED copy
                        if oh.coherent.peek(lbase) == modified:
                            engine.n_writebacks += 1
                            ic.post_writeback(lbase, home, now_i)
                        oh.set_state(lbase, shared)
                        engine.n_downgrades += 1
                        e.excl_owner = -1
                        e.sharers = (1 << owner) | cpu_bit
                        e.written_since_transfer = False
                        state = shared
                if is_write:
                    e.excl_owner = cpu
                    e.sharers = 0
                    e.last_writer = cpu
                    e.written_since_transfer = True
                    state = modified
                elif not intervene:
                    holders = sharers if owner == -1 else cpu_bit
                    if holders == 0 or holders == cpu_bit:
                        e.excl_owner = cpu
                        e.sharers = 0
                        e.written_since_transfer = False
                        state = exclusive
                    else:
                        e.sharers = sharers | cpu_bit
                        state = shared
                # cold / capacity / comm classification (_classify_miss)
                if intervene or lbase in lost_inval:
                    mk = 2
                    lost_inval.discard(lbase)
                elif lbase in ever_cached:
                    mk = 1
                else:
                    mk = 0
                ever_cached.add(lbase)
                miss_kind[mk] += 1
                miss_kind_by_class[cls][mk] += 1
                # coherent-level fill (CacheHierarchy.fill + evict): the
                # victim leaves every inner level and the directory
                if len(co_set) >= co_assoc:
                    vline, vstate = co_set.popitem(last=False)
                    n_co_evict += 1
                    if vstate == modified:
                        n_co_dirty += 1
                    vbase = vline << co_shift
                    if has_l2:
                        vl = vbase >> l1_shift
                        for k in range(l1_per_co):
                            l1_sets[(vl + k) & l1_mask].pop(vl + k, None)
                        if mid is not None:
                            vl = vbase >> mid_shift
                            for k in range(mid_per_co):
                                mid_sets[(vl + k) & mid_mask].pop(vl + k, None)
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
                co_set[co_line] = state
                n_cohm += 1
                coh_by_class[cls] += 1
                lat += below_l1
                raw_sum += lat
                stall = int(lat * exposure)
                coh_stall_sum += stall
                if txlog is not None:
                    txlog.append(addr)
            # Refill inward (CacheHierarchy.fill_inner): the middle level
            # unless it supplied the line, then the L1.  A next-line
            # prefetch runs the same fill once more, for line + 1.
            run_line = line
            run_state = state
            fline = line
            faddr = addr
            while True:
                if src != 1 and mid is not None:
                    m_line = faddr >> mid_shift
                    m_set = mid_sets[m_line & mid_mask]
                    if m_line in m_set:  # only a prefetch finds it resident
                        m_set[m_line] = state
                        m_set.move_to_end(m_line)
                    else:
                        if len(m_set) >= mid_assoc:
                            vline, vstate = m_set.popitem(last=False)
                            n_mid_evict += 1
                            if vstate == modified:
                                n_mid_dirty += 1
                            # silent to the directory; sweeps the L1
                            vl = (vline << mid_shift) >> l1_shift
                            for k in range(l1_per_mid):
                                l1_sets[(vl + k) & l1_mask].pop(vl + k, None)
                        m_set[m_line] = state
                if has_l2:
                    f_set = l1_sets[fline & l1_mask]
                    if len(f_set) >= l1_assoc:
                        if f_set.popitem(last=False)[1] == modified:
                            n_l1_dirty += 1
                        n_l1_evict += 1
                    f_set[fline] = state
                if not src or not prefetch or fline != line:
                    break
                # _prefetch_next: pull line + 1 up from the supplying
                # level when it holds the line and the L1 does not
                fline = line + 1
                faddr = fline << l1_shift
                if l1_sets[fline & l1_mask].get(fline, 0):
                    break
                if src == 1:
                    p = faddr >> mid_shift
                    state = mid_sets[p & mid_mask].get(p, 0)
                else:
                    p = faddr >> co_shift
                    state = co_sets[p & co_mask].get(p, 0)
                if not state:
                    break
                n_prefetch += 1
                run_line = -1
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
        if n_mid_evict:
            mid.n_evictions += n_mid_evict
            mid.n_dirty_evictions += n_mid_dirty
        if n_co_evict:
            co.n_evictions += n_co_evict
            co.n_dirty_evictions += n_co_dirty
        if n_prefetch:
            self.n_prefetch_fills += n_prefetch
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
