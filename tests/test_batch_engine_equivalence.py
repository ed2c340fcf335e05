"""The batched engine vs the per-reference specification.

``MemorySystem.access_batch`` resolves clean L2 hits, silent E->M
upgrades, and same-line spatial runs inline — branches the TPC-H
workloads exercise only incidentally.  This suite drives synthetic
mixes built specifically to hammer those branches (the ``w_l2_reuse``
and ``w_upgrade`` knobs of :class:`SyntheticSpec`) through the engine
and through ``access`` and requires bitwise-identical fingerprints:
every counter, every cache level's contents, the directory, and the
clocks.  The two paper machines take the engine's inline miss lanes;
the two modern ones (three levels, prefetcher, islands) its
``general_miss`` branch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mem.machine import platform
from repro.mem.memsys import MemorySystem
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
