"""The batched engine vs the per-reference specification.

``MemorySystem.access_batch`` resolves hits at every level, silent
E->M upgrades, same-line spatial runs, next-line prefetches and most
directory transactions (unowned and shared fetches, single-owner
interventions) inline — on all four registered machines, one, two and
three levels deep.  This suite drives synthetic mixes built to hammer
those branches (the ``w_l2_reuse`` and ``w_upgrade`` knobs of
:class:`SyntheticSpec`) and handcrafted batches aimed at one lane each
through the engine and through ``access`` and requires
bitwise-identical fingerprints: every counter, every cache level's
contents, the directory, and the clocks.  Branch-count asserts pin
that each handcrafted batch exercised the lane it was built for.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mem.coherence import CoherenceEngine
from repro.mem.hierarchy import CacheHierarchy
from repro.mem.machine import platform
from repro.mem.memsys import MISS_CAPACITY, MISS_COMM, MemorySystem
from repro.mem.states import EXCLUSIVE, MODIFIED, SHARED
from repro.trace.address import AddressSpace
from repro.trace.classify import DataClass
from repro.trace.stream import RefBatch
from repro.trace.synthetic import SyntheticSpec, build_address_space, generate
from repro.verify.fuzz import FUZZ_SCALE_LOG2, drive_trace, fingerprint
from repro.verify.invariants import InvariantChecker

PLATS = ["hpv", "sgi", "islands-2x8", "flat-smp-16"]

#: Pool of 40 coherence lines: overflows the scaled L1 (2 lines) while
#: fitting the scaled sgi L2 (64 lines), so revisits are clean L2 hits.
L2_HEAVY = dict(w_l2_reuse=60, n_l2_pool_lines=40, n_batches=16)
UPGRADE_HEAVY = dict(w_upgrade=50, n_batches=16)


def drive_both(plat, aspace, trace, n_cpus):
    """Specification and engine fingerprints (plus the engine's
    memsys) for one trace."""
    # at least 2 CPUs: islands-2x8 needs one per socket (a CPU the
    # trace never drives changes nothing)
    machine = platform(plat, n_cpus=max(n_cpus, 2)).scaled(FUZZ_SCALE_LOG2)
    prints = {}
    for fast in (False, True):
        ms = MemorySystem(machine, aspace, fast_path=fast)
        clocks = drive_trace(ms, trace, machine.base_cpi)
        prints[fast] = fingerprint(ms, clocks, n_cpus)
    return prints[False], prints[True], ms


def run_both(plat: str, spec: SyntheticSpec):
    """Fast and slow fingerprints (plus the fast memsys) for one mix."""
    aspace, trace = generate(spec)
    return drive_both(plat, aspace, trace, spec.n_cpus)


@pytest.mark.parametrize("plat", PLATS)
@pytest.mark.parametrize("seed", [7, 1013])
def test_l2_heavy_mix_bitwise_equal(plat, seed):
    spec = SyntheticSpec(seed=seed, n_cpus=3, **L2_HEAVY)
    slow, fast, _ = run_both(plat, spec)
    assert slow == fast


@pytest.mark.parametrize("plat", PLATS)
@pytest.mark.parametrize("seed", [11, 2711])
def test_upgrade_heavy_mix_bitwise_equal(plat, seed):
    spec = SyntheticSpec(seed=seed, n_cpus=3, **UPGRADE_HEAVY)
    slow, fast, _ = run_both(plat, spec)
    assert slow == fast


@pytest.mark.parametrize("plat", PLATS)
def test_combined_mix_bitwise_equal(plat):
    spec = SyntheticSpec(
        seed=42, n_cpus=4, w_l2_reuse=30, w_upgrade=25,
        n_l2_pool_lines=40, n_batches=12, p_write=0.5,
    )
    slow, fast, _ = run_both(plat, spec)
    assert slow == fast


def test_l2_heavy_mix_actually_hits_the_l2():
    """The mix must exercise the branch it exists to test."""
    spec = SyntheticSpec(seed=7, n_cpus=3, **L2_HEAVY)
    _, _, ms = run_both("sgi", spec)
    assert sum(st.l2_hits for st in ms.stats) > 0


def test_upgrade_heavy_mix_actually_upgrades():
    spec = SyntheticSpec(seed=11, n_cpus=3, **UPGRADE_HEAVY)
    _, _, ms = run_both("sgi", spec)
    assert sum(st.silent_upgrades for st in ms.stats) > 0
    assert sum(st.upgrades for st in ms.stats) > 0


class TestKnobGating:
    """Weight-0 knobs must leave pre-existing specs untouched: same
    segments, same addresses, same trace, so fuzz seeds recorded before
    the knobs existed still reproduce byte-identically."""

    def test_no_gated_segments_at_weight_zero(self):
        spec = SyntheticSpec(seed=3)
        aspace = build_address_space(spec)
        names = {seg.name for seg in aspace.segments}
        assert "syn.upgrade" not in names
        assert not any(n.startswith("syn.l2pool") for n in names)

    def test_gated_segments_appear_after_legacy_layout(self):
        base = build_address_space(SyntheticSpec(seed=3))
        knobbed = build_address_space(
            SyntheticSpec(seed=3, w_l2_reuse=10, w_upgrade=10)
        )
        n = len(base.segments)
        assert [s.name for s in knobbed.segments[:n]] == [
            s.name for s in base.segments
        ]
        assert [s.base for s in knobbed.segments[:n]] == [
            s.base for s in base.segments
        ]

    def test_weight_zero_trace_identical_to_legacy(self):
        _, legacy = generate(SyntheticSpec(seed=99, n_cpus=2))
        _, gated = generate(
            SyntheticSpec(seed=99, n_cpus=2, w_l2_reuse=0, w_upgrade=0)
        )
        assert [
            [(b.addrs, b.writes, b.instrs, b.classes) for b in cpu]
            for cpu in legacy
        ] == [
            [(b.addrs, b.writes, b.instrs, b.classes) for b in cpu]
            for cpu in gated
        ]

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(seed=1, w_l2_reuse=-1)


def _batch(addrs, writes=None, instrs=None, cls=DataClass.PRIVATE):
    """Handcraft a columnar RefBatch from an address vector."""
    a = np.asarray(addrs, dtype=np.int64)
    n = a.shape[0]
    w = (
        np.zeros(n, dtype=np.bool_)
        if writes is None
        else np.asarray(writes, dtype=np.bool_)
    )
    i = (
        np.ones(n, dtype=np.int64)
        if instrs is None
        else np.asarray(instrs, dtype=np.int64)
    )
    return RefBatch.from_columns(a, w, i, np.full(n, int(cls), dtype=np.uint8))


def _run_engines(plat, aspace, trace, n_cpus):
    """Drive ``trace`` through the specification and the batched
    engine, require equal fingerprints, return the engine's memsys."""
    slow, fast, ms = drive_both(plat, aspace, trace, n_cpus)
    assert slow == fast
    return ms


def _pool(n_lines, line_size=128):
    aspace = AddressSpace()
    seg = aspace.alloc(
        "adv.pool", n_lines * line_size, DataClass.RECORD, shared=True
    )
    return aspace, [seg.base + k * line_size for k in range(n_lines)]


class TestAdversarialBatches:
    """Handcrafted worst-case batches: shapes at the extremes of the
    engine's lanes (every reference a miss, no reference a miss, an
    upgrade on every other reference) and where the arithmetic is most
    exposed (int64 edge addresses, float cost accumulation).  Every
    test drives the specification and the engine and requires
    bitwise-equal fingerprints; the branch-count asserts then pin that
    each batch really exercised the branch it was built for.
    """

    @pytest.mark.parametrize("plat", PLATS)
    def test_all_miss_batch(self, plat):
        # 256 distinct coherence lines, revisited once: on the scaled
        # machines this churns every set, so the miss lane does all
        # the work.
        aspace, lines = _pool(256)
        addrs = lines + lines
        writes = [False] * 256 + [True] * 256
        trace = [[_batch(addrs, writes)]]
        ms = _run_engines(plat, aspace, trace, 1)
        st = ms.stats[0]
        assert st.reads == 256 and st.writes == 256
        assert st.level1_misses == 512  # nothing survives the churn

    @pytest.mark.parametrize("plat", PLATS)
    def test_all_spatial_run_batch(self, plat):
        # One line touched 300 times in a row: the engine's same-line
        # shortcut must agree with 300 probes on 1 miss + 299 hits.
        aspace, lines = _pool(1)
        trace = [[_batch([lines[0]] * 300)]]
        ms = _run_engines(plat, aspace, trace, 1)
        st = ms.stats[0]
        assert st.reads == 300
        assert st.level1_misses == 1

    @pytest.mark.parametrize("plat", PLATS)
    def test_alternating_shared_write_batch(self, plat):
        # Both CPUs read 4 lines into SHARED, then CPU0 alternates
        # write/read over them: every write is an ownership upgrade,
        # which ends the engine's spatial run on every other reference.
        aspace, lines = _pool(4)
        warm = _batch(lines * 2)
        alt_addrs = [lines[k % 4] for k in range(64)]
        alt_writes = [k % 2 == 0 for k in range(64)]
        trace = [
            [warm, _batch(alt_addrs, alt_writes)],
            [warm, _batch([], [])],
        ]
        ms = _run_engines(plat, aspace, trace, 2)
        st = ms.stats[0]
        assert st.upgrades > 0
        assert st.silent_upgrades == 0  # never EXCLUSIVE, always SHARED

    @pytest.mark.parametrize("plat", PLATS)
    @pytest.mark.parametrize("length", [0, 1])
    def test_degenerate_lengths(self, plat, length):
        aspace, lines = _pool(1)
        trace = [[_batch(lines[:length], [True] * length)]]
        ms = _run_engines(plat, aspace, trace, 1)
        assert ms.stats[0].writes == length

    def test_addresses_near_int64_top(self):
        # Raw addresses just below 2^63: shifts, masks and coherence
        # line arithmetic must not wrap.  UMA platform — homing never
        # consults the address space, so no segment needs to exist.
        top = 1 << 63
        addrs = [top - 128 * k for k in range(1, 65)] * 2
        writes = [False] * 64 + [True] * 64
        trace = [[_batch(addrs, writes)]]
        ms = _run_engines("hpv", AddressSpace(), trace, 1)
        st = ms.stats[0]
        assert st.reads == 64 and st.writes == 64

    @pytest.mark.parametrize("plat", PLATS)
    def test_float_accumulation_bitwise(self, plat):
        # 4096 hits with varying instruction costs, compared as raw
        # float returns from access_batch — per-batch clock truncation
        # never gets a chance to hide an association difference.
        aspace, lines = _pool(2)
        rng = np.random.default_rng(5)
        addrs = [lines[k % 2] for k in range(4096)]
        instrs = rng.integers(1, 8, size=4096)
        batch = _batch(addrs, None, instrs)
        machine = platform(plat, n_cpus=2).scaled(FUZZ_SCALE_LOG2)
        cycles = {}
        for fast in (False, True):
            ms = MemorySystem(machine, aspace, fast_path=fast)
            ms.access_batch(0, _batch(lines), 0, machine.base_cpi)  # warm
            cycles[fast] = ms.access_batch(0, batch, 1000, machine.base_cpi)
        assert cycles[False] == cycles[True]


@pytest.mark.parametrize("plat", PLATS)
def test_detached_memsys_resumes_the_batched_engine(plat):
    """An exact sink routes batches through the specification; once it
    detaches the engine runs again, and the hand-overs in both
    directions leave no trace in the results."""
    spec = SyntheticSpec(
        seed=42, n_cpus=4, w_l2_reuse=30, w_upgrade=25,
        n_l2_pool_lines=40, n_batches=12, p_write=0.5,
    )
    aspace, trace = generate(spec)
    machine = platform(plat, n_cpus=spec.n_cpus).scaled(FUZZ_SCALE_LOG2)
    whole = MemorySystem(machine, aspace)
    expected = fingerprint(
        whole, drive_trace(whole, trace, machine.base_cpi), spec.n_cpus
    )
    ms = MemorySystem(machine, aspace)
    engine = ms.access_batch
    chk = InvariantChecker(ms)
    clocks = [0] * spec.n_cpus
    for i in range(spec.n_batches):
        if i == 3:
            ms.attach_sink(chk)
            assert ms.access_batch == ms.access_each
        elif i == 8:
            ms.detach_sink(chk)
            assert ms.access_batch == engine
        for cpu in range(spec.n_cpus):
            clocks[cpu] += int(
                ms.access_batch(cpu, trace[cpu][i], clocks[cpu], machine.base_cpi)
            )
    assert chk.n_transitions > 0
    assert fingerprint(ms, clocks, spec.n_cpus) == expected


MODERN = ["islands-2x8", "flat-smp-16"]


def _coh_pool(plat, n_lines):
    """``_pool`` of ``n_lines`` consecutive coherence lines of ``plat``."""
    return _pool(n_lines, platform(plat).coherence_line_size)


@pytest.fixture
def entered(monkeypatch):
    """Addresses for which the batched engine (not the specification,
    whose ``_miss`` also calls it) entered :meth:`_coherent_miss`."""
    calls = []
    helper = MemorySystem._coherent_miss

    def counted(self, cpu, addr, *rest):
        if self.fast_path:
            calls.append(addr)
        return helper(self, cpu, addr, *rest)

    monkeypatch.setattr(MemorySystem, "_coherent_miss", counted)
    return calls


EMPTY = _batch([])


class TestEngineLanes:
    """One handcrafted batch per inline lane of the engine: bitwise
    equal to the specification, and a branch-count assert that the
    lane really ran (and the helper did not)."""

    @pytest.mark.parametrize("plat", PLATS)
    @pytest.mark.parametrize("dirty", [False, True], ids=["clean", "dirty"])
    def test_read_downgrade(self, plat, dirty, entered):
        # CPU1 owns four lines (E, or M when it wrote them); CPU0 then
        # reads them: four interventions that leave both CPUs SHARED.
        aspace, lines = _coh_pool(plat, 4)
        trace = [
            [EMPTY, _batch(lines)],
            [_batch(lines, [dirty] * 4), EMPTY],
        ]
        ms = _run_engines(plat, aspace, trace, 2)
        engine = ms.engine
        assert entered == []
        assert engine.n_interventions == engine.n_downgrades == 4
        assert engine.n_writebacks == (4 if dirty else 0)
        assert ms.stats[0].miss_kind[MISS_COMM] == 4
        for h in ms.hierarchies[:2]:
            assert {h.coherent.peek(a) for a in lines} == {SHARED}

    @pytest.mark.parametrize("plat", PLATS)
    @pytest.mark.parametrize("dirty", [False, True], ids=["clean", "dirty"])
    def test_write_steal(self, plat, dirty, entered):
        # CPU1 owns four lines; CPU0 writes them: the owner's copies die.
        # On hpv a steal from the previous writer marks the line
        # migratory.
        aspace, lines = _coh_pool(plat, 4)
        trace = [
            [EMPTY, _batch(lines, [True] * 4)],
            [_batch(lines, [dirty] * 4), EMPTY],
        ]
        ms = _run_engines(plat, aspace, trace, 2)
        engine = ms.engine
        assert entered == []
        assert engine.n_interventions == engine.n_invalidations == 4
        migratory = ms.machine.migratory_enabled and dirty
        assert engine.n_migratory_detected == (4 if migratory else 0)
        assert ms.stats[0].miss_kind[MISS_COMM] == 4
        assert all(ms.hierarchies[1].coherent.peek(a) == 0 for a in lines)
        assert all(ms.hierarchies[0].coherent.peek(a) == MODIFIED for a in lines)

    def test_migratory_read_takes_the_helper(self, entered):
        # CPU0 then CPU1 write four lines (the steal marks them
        # migratory); CPU0's reads are migratory hand-overs, the one
        # read the engine leaves to the specification's helper.
        aspace, lines = _coh_pool("hpv", 4)
        writes = _batch(lines, [True] * 4)
        trace = [[writes, _batch(lines)], [writes, EMPTY]]
        ms = _run_engines("hpv", aspace, trace, 2)
        assert ms.engine.n_migratory_transfers == 4
        assert entered == lines

    @pytest.mark.parametrize("plat", MODERN)
    @pytest.mark.parametrize("shared", [False, True], ids=["E", "S"])
    def test_middle_level_write_hit(self, plat, shared, entered):
        # Line A is read (SHARED with CPU1, or EXCLUSIVE), pushed out of
        # the 8-way single-set L1 by eight other lines (the L2 keeps
        # all nine), then written four times: a middle-level hit that
        # upgrades (S) or restates every level silently (E), then a
        # run of writes on the refilled M line.
        aspace, lines = _coh_pool(plat, 12)
        a, others = lines[0], lines[2:10]
        trace = [
            [EMPTY, _batch([a] + others), _batch([a] * 4, [True] * 4)],
            [_batch([a] if shared else []), EMPTY, EMPTY],
        ]
        ms = _run_engines(plat, aspace, trace, 2)
        st = ms.stats[0]
        mid = ms.hierarchies[0].levels[1]
        assert entered == []
        assert mid.n_evictions == 0  # so the inner hit was at the L2
        assert st.l2_hits == 1
        assert (st.upgrades, st.silent_upgrades) == ((1, 0) if shared else (0, 1))
        assert ms.hierarchies[0].levels[2].peek(a) == MODIFIED

    @pytest.mark.parametrize("plat", MODERN)
    def test_middle_level_victim_sweeps_the_l1(self, plat):
        # H stays MRU in the L1 while twenty lines of its L2 set stream
        # past (L1 hits never promote the L2), so the L2 evicts H and
        # its inclusion sweep takes H out of the L1: the next H is a
        # coherent-level (L3) hit, not an L1 hit.
        aspace, lines = _coh_pool(plat, 48)
        h, stream = lines[0], lines[2:42:2]
        addrs = [h]
        for s in stream:
            addrs += [s, h]
        ms = _run_engines(plat, aspace, [[_batch(addrs)]], 1)
        st = ms.stats[0]
        assert ms.hierarchies[0].levels[1].n_evictions > 0
        assert ms.hierarchies[0].levels[2].n_evictions == 0
        assert st.l2_hits >= 1
        assert st.coherent_misses == 1 + len(stream)

    @pytest.mark.parametrize("plat", MODERN)
    def test_coherent_level_victim_sweeps_every_level(self, plat):
        # Sixteen lines of H's L3 set (hence of its L2 set) stream past.
        # After the eighth, H is out of the one-set L1 and comes back
        # as an L2 hit, which promotes it in the L2 but not in the L3;
        # from then on H stays MRU in the L1.  The sixteenth line's L3
        # fill evicts H and must sweep it out of the L2 as well as the
        # L1 (the L2 would not evict it itself), so the last H is a
        # coherent miss — the set's second eviction — not an L2 hit.
        aspace, lines = _coh_pool(plat, 8 * 17 + 1)
        h, stream = lines[0], lines[8:8 * 17:8]
        addrs = [h] + stream[:8] + [h]
        for s in stream[8:]:
            addrs += [s, h]
        ms = _run_engines(plat, aspace, [[_batch(addrs)]], 1)
        st = ms.stats[0]
        assert ms.hierarchies[0].levels[2].n_evictions == 2
        assert st.l2_hits == 1
        assert st.coherent_misses == 1 + len(stream) + 1
        assert st.miss_kind[MISS_CAPACITY] == 1

    def test_coherent_level_write_hit_restates_that_level_only(self):
        # sgi: 32 B L1 lines under 128 B L2 lines.  A's sibling sub-line
        # is in the L1 (EXCLUSIVE) when a write to A misses the L1 and
        # hits the L2: only the L2 turns MODIFIED (SetAssocCache.set_state),
        # the refilled A is MODIFIED, the sibling stays EXCLUSIVE.
        aspace, lines = _coh_pool("sgi", 4)
        a, x = lines[0], lines[2]
        addrs = [a, x, a + 32, a]
        writes = [False, False, False, True]
        ms = _run_engines("sgi", aspace, [[_batch(addrs, writes)]], 1)
        h = ms.hierarchies[0]
        assert ms.stats[0].l2_hits == 2
        assert ms.stats[0].silent_upgrades == 1
        assert (h.l1.peek(a), h.l1.peek(a + 32)) == (MODIFIED, EXCLUSIVE)
        assert h.coherent.peek(a) == MODIFIED

    def test_prefetch_fill_then_same_line_run(self):
        # Lines 0..9 are read (the L1 keeps 2..9); line 0 comes back
        # from the L2 and the prefetcher pulls line 1 up after it.  The
        # run on line 0 that follows must re-probe (line 1 is now MRU
        # in the one L1 set), or the LRU order — and so which of the two
        # survives the seven-line stream at the end — diverges.
        aspace, lines = _coh_pool("islands-2x8", 20)
        addrs = lines[:10] + [lines[0]] * 3 + lines[10:17]
        writes = [False] * 10 + [False, True, False] + [False] * 7
        ms = _run_engines(
            "islands-2x8", aspace, [[_batch(addrs, writes)]], 1
        )
        st = ms.stats[0]
        assert ms.n_prefetch_fills == 1
        assert st.l2_hits == 1
        assert st.level1_misses == 10 + 1 + 7
        assert ms.hierarchies[0].l1.peek(lines[0]) == MODIFIED
        assert ms.hierarchies[0].l1.peek(lines[1]) == 0

    def test_prefetch_onto_a_resident_middle_line(self):
        # Line 1 sits LRU in its L2 set (fifteen odd lines after it);
        # sixteen even lines push line 0 out of the L2 but not the L3.
        # Line 0 is then an L3 hit, and prefetching line 1 from the L3
        # finds it resident in the L2, where the fill promotes it: the
        # next odd line evicts line 3, not line 1.
        aspace, lines = _coh_pool("islands-2x8", 40)
        odd, even = lines[3:33:2], lines[2:34:2]
        addrs = lines[:2] + odd + even + [lines[0], lines[33]]
        ms = _run_engines("islands-2x8", aspace, [[_batch(addrs)]], 1)
        mid = ms.hierarchies[0].levels[1]
        assert ms.n_prefetch_fills == 1
        assert ms.stats[0].l2_hits == 1
        assert mid.peek(lines[1]) and not mid.peek(lines[3])

    def test_cross_socket_bank_interleave(self, entered):
        # Two shared segments homed on sockets 0 and 1, eight lines
        # each, read by CPU0 (socket 0) and then CPU1 (socket 1): local
        # and remote fetches and downgrades over all 2 x 4 banks.
        aspace = AddressSpace()
        segs = [
            aspace.alloc(f"lane.home{i}", 8 * 64, DataClass.RECORD, shared=True)
            for i in range(2)
        ]
        both = [seg.base + 64 * k for seg in segs for k in range(8)]
        trace = [[_batch(both), EMPTY], [EMPTY, _batch(both)]]
        ms = _run_engines("islands-2x8", aspace, trace, 2)
        assert entered == []
        assert [ms._home(seg.base) for seg in segs] == [0, 1]
        assert {bank for bank, _epoch in ms.interconnect._load} == set(range(8))
        assert ms.engine.n_downgrades == 16


@pytest.mark.parametrize("plat", PLATS)
def test_one_bank_formula_for_every_interconnect(plat):
    """The engine charges ``home * banks_per_home + (line >> 6) %
    banks_per_home``; every interconnect's ``bank_of`` agrees on every
    home its machine produces (crossbar lines are all homed on 0)."""
    ms = MemorySystem(platform(plat), AddressSpace())
    ic = ms.interconnect
    bph = ic.banks_per_home
    homes = [0] if ms._uma else range(ms.topology.n_nodes)
    for home in homes:
        for line in range(0, 64 * 64, 32):
            assert ic.bank_of(line, home) == home * bph + (line >> 6) % bph


@pytest.mark.parametrize("plat", MODERN)
def test_no_helper_on_the_common_path(plat, monkeypatch):
    """Two CPUs stream-read the same lines (cold fetches, clean
    downgrades, shared refetches, middle- and coherent-level hits,
    prefetches): the engine completes without entering any of the
    specification's miss helpers."""

    def forbidden(*args, **kwargs):
        raise AssertionError("helper entered on the common path")

    for cls, name in (
        (MemorySystem, "_miss"),
        (MemorySystem, "_coherent_miss"),
        (CacheHierarchy, "fill"),
        (CoherenceEngine, "read_miss"),
        (CoherenceEngine, "write_miss"),
    ):
        monkeypatch.setattr(cls, name, forbidden)
    aspace, lines = _coh_pool(plat, 160)
    stream = _batch(lines + lines[:48] + lines[:48])
    machine = platform(plat, n_cpus=2).scaled(FUZZ_SCALE_LOG2)
    ms = MemorySystem(machine, aspace)
    drive_trace(ms, [[stream, stream], [stream, stream]], machine.base_cpi)
    assert ms.engine.n_downgrades > 0
    assert sum(st.l2_hits for st in ms.stats) > 0
    assert sum(st.coherent_misses for st in ms.stats) > 0
