"""MemorySystem: hierarchy walk, counters, miss classification, NUMA
homes, lifetime."""

import gc
import weakref

import pytest

from repro.core.experiment import ExperimentSpec, run_experiment
from repro.mem.machine import hp_v_class, platform, sgi_origin_2000
from repro.mem.memsys import MISS_CAPACITY, MISS_COLD, MISS_COMM, MemorySystem
from repro.mem.states import MODIFIED
from repro.trace.address import AddressSpace
from repro.trace.classify import DataClass
from repro.trace.stream import RefBatch

from tests.conftest import TINY_TPCH


def make_memsys(platform="hpv", scale=5):
    aspace = AddressSpace()
    shared = aspace.alloc("shared", 1 << 16, DataClass.RECORD)
    meta = aspace.alloc("meta", 1 << 12, DataClass.META)
    priv0 = aspace.alloc("p0", 1 << 12, DataClass.PRIVATE, shared=False, owner_cpu=0)
    machine = (hp_v_class() if platform == "hpv" else sgi_origin_2000()).scaled(scale)
    return MemorySystem(machine, aspace), shared, meta, priv0


class TestBasicAccess:
    def test_first_access_misses_then_hits(self):
        ms, shared, _, _ = make_memsys()
        stall1 = ms.access(0, shared.base, False, 0, now=0)
        stall2 = ms.access(0, shared.base, False, 0, now=100)
        assert stall1 > 0
        assert stall2 == 0
        st = ms.stats[0]
        assert st.level1_misses == 1
        assert st.reads == 2

    def test_write_counts(self):
        ms, shared, _, _ = make_memsys()
        ms.access(0, shared.base, True, 0, now=0)
        assert ms.stats[0].writes == 1

    def test_two_level_l2_hit_path(self):
        ms, shared, _, _ = make_memsys("sgi")
        ms.access(0, shared.base, False, 0, now=0)           # cold miss
        # Evict the L1 line by filling its set, keeping L2 resident.
        l1 = ms.hierarchies[0].l1
        conflict = shared.base + l1.config.n_sets * 32
        ms.access(0, conflict, False, 0, now=100)
        ms.access(0, conflict + l1.config.n_sets * 32 * 2, False, 0, now=200)
        before = ms.stats[0].l2_hits
        ms.access(0, shared.base, False, 0, now=300)
        assert ms.stats[0].l2_hits >= before  # served by L2 if L1 lost it

    def test_silent_upgrade_on_exclusive(self):
        ms, shared, _, _ = make_memsys()
        ms.access(0, shared.base, False, 0, now=0)   # E fill
        stall = ms.access(0, shared.base, True, 0, now=100)  # E->M silently
        assert stall == 0
        assert ms.stats[0].silent_upgrades == 1
        assert ms.hierarchies[0].coherent.peek(shared.base) == MODIFIED

    def test_upgrade_on_shared_write(self):
        ms, shared, _, _ = make_memsys()
        ms.access(0, shared.base, False, 0, now=0)
        ms.access(1, shared.base, False, 0, now=50)   # downgrade to S/S
        stall = ms.access(0, shared.base, True, 0, now=100)
        assert stall > 0
        assert ms.stats[0].upgrades == 1


class TestMissClassification:
    def test_cold_then_capacity(self):
        ms, shared, _, _ = make_memsys()
        cache = ms.hierarchies[0].coherent.config
        # Fill one set beyond associativity to force an eviction.
        stride = cache.n_sets * cache.line_size
        addrs = [shared.base + i * stride for i in range(cache.assoc + 1)]
        for i, a in enumerate(addrs):
            ms.access(0, a, False, 0, now=i * 10)
        ms.access(0, addrs[0], False, 0, now=1000)  # re-miss: capacity
        st = ms.stats[0]
        assert st.miss_kind[MISS_COLD] == len(addrs)
        assert st.miss_kind[MISS_CAPACITY] == 1

    def test_comm_miss_after_invalidation(self):
        ms, shared, _, _ = make_memsys()
        ms.access(0, shared.base, False, 0, now=0)
        ms.access(1, shared.base, True, 0, now=50)   # steals, invalidates cpu0
        ms.access(0, shared.base, False, 0, now=100)  # comm miss for cpu0
        st = ms.stats[0]
        assert st.miss_kind[MISS_COMM] == 1

    def test_intervention_served_miss_is_comm(self):
        ms, shared, _, _ = make_memsys()
        ms.access(0, shared.base, True, 0, now=0)    # M at cpu0
        ms.access(1, shared.base, False, 0, now=50)  # dirty read: comm
        assert ms.stats[1].miss_kind[MISS_COMM] == 1

    def test_by_class_counters(self):
        ms, shared, meta, _ = make_memsys()
        ms.access(0, shared.base, False, int(DataClass.RECORD), now=0)
        ms.access(0, meta.base, False, int(DataClass.META), now=10)
        st = ms.stats[0]
        assert st.level1_misses_by_class[int(DataClass.RECORD)] == 1
        assert st.level1_misses_by_class[int(DataClass.META)] == 1


class TestNumaHomes:
    def test_private_homed_on_owner_node(self):
        ms, _, _, priv0 = make_memsys("sgi")
        assert ms._home(priv0.base) == ms.topology.node_of_cpu(0)

    def test_shared_homed_on_db_nodes(self):
        ms, shared, meta, _ = make_memsys("sgi")
        homes = {ms._home(shared.base), ms._home(meta.base)}
        assert homes <= set(ms.machine.db_home_nodes)

    def test_uma_home_is_zero(self):
        ms, shared, _, _ = make_memsys("hpv")
        assert ms._home(shared.base) == 0

    def test_explicit_home_respected(self):
        aspace = AddressSpace()
        seg = aspace.alloc("pinned", 4096, DataClass.RECORD, home_node=5)
        ms = MemorySystem(sgi_origin_2000().scaled(5), aspace)
        assert ms._home(seg.base) == 5


class TestAggregation:
    def test_total_stats_sums_cpus(self):
        ms, shared, _, _ = make_memsys()
        ms.access(0, shared.base, False, 0, now=0)
        ms.access(1, shared.base + 64, False, 0, now=0)
        total = ms.total_stats()
        assert total.reads == 2
        assert total.level1_misses == 2

    def test_total_stats_subset(self):
        ms, shared, _, _ = make_memsys()
        ms.access(0, shared.base, False, 0, now=0)
        ms.access(1, shared.base + 64, False, 0, now=0)
        only0 = ms.total_stats([0])
        assert only0.reads == 1

    def test_flush_caches(self):
        ms, shared, _, _ = make_memsys()
        ms.access(0, shared.base, False, 0, now=0)
        ms.flush_caches()
        stall = ms.access(0, shared.base, False, 0, now=10)
        assert stall > 0  # cold again
        assert ms.stats[0].miss_kind[MISS_COLD] == 2


class TestLatencyCounter:
    def test_raw_latency_accumulates_unoverlapped(self):
        ms, shared, _, _ = make_memsys()
        ms.access(0, shared.base, False, 0, now=0)
        st = ms.stats[0]
        # The open-request counter accumulates the FULL latency even
        # though the stall charged to the thread is exposure-scaled.
        assert st.raw_latency_cycles >= ms.machine.latency.mem_base
        assert st.stall_cycles < st.raw_latency_cycles


class TestNoReferenceCycle:
    """A finished memory system is freed by reference counting alone.

    Sweeps, trace capture and the benchmark pause the cyclic collector
    while cells run, so a cell whose state sits in a reference cycle
    (every cache set, directory entry and counter) stays resident until
    the collector next runs."""

    @pytest.mark.parametrize("plat", ["hpv", "sgi", "islands-2x8", "flat-smp-16"])
    def test_finished_memsys_dies_on_del(self, plat):
        aspace = AddressSpace()
        seg = aspace.alloc("shared", 1 << 12, DataClass.RECORD)
        ms = MemorySystem(platform(plat, n_cpus=2).scaled(5), aspace)
        n = 64
        batch = RefBatch(
            [seg.base + 64 * k for k in range(n)],
            [k % 3 == 0 for k in range(n)],
            [1] * n,
            [DataClass.RECORD] * n,
        )
        gc.disable()
        try:
            for cpu in (0, 1):
                ms.access_batch(cpu, batch, 0, 1.0)
            ref = weakref.ref(ms)
            del ms
            assert ref() is None
        finally:
            gc.enable()

    def test_run_experiment_leaves_no_cyclic_garbage(self, tiny_db):
        spec = ExperimentSpec(
            query="Q6", platform="islands-2x8", n_procs=2,
            tpch=TINY_TPCH, verify_results=False,
        )
        run_experiment(spec, db=tiny_db)  # warm every lazy allocation
        gc.collect()
        gc.disable()
        try:
            run_experiment(spec, db=tiny_db)
            assert gc.collect() == 0
        finally:
            gc.enable()
