"""Property-based tests: state machines against independent models.

Three state machines get executable specifications here:

* :class:`~repro.mem.cache.SetAssocCache` against a deliberately naive
  list-based LRU reference model — same observable behaviour on every
  operation, including victim choice and eviction counters (seeded
  random stimulus);
* one CPU's whole hierarchy under the batched engine
  (``MemorySystem.access_batch``) against a stack of those models with
  inclusion and the next-line prefetcher, driven by hypothesis on all
  four registered machines;
* the MESI directory, driven by synthetic sharing traces with the
  invariant checker attached, plus an independent end-state
  recomputation of the holder bitmask.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.cache import CacheConfig, SetAssocCache
from repro.mem.machine import platform
from repro.mem.memsys import MemorySystem
from repro.mem.states import EXCLUSIVE, INVALID, MODIFIED, SHARED
from repro.trace.address import AddressSpace
from repro.trace.classify import DataClass
from repro.trace.synthetic import SyntheticSpec, batch_from_refs, generate
from repro.verify.fuzz import FUZZ_SCALE_LOG2, drive_trace, fingerprint
from repro.verify.invariants import checking

STATES = (SHARED, EXCLUSIVE, MODIFIED)


class LruModel:
    """Reference model of :class:`SetAssocCache`: each set is a plain
    list ordered LRU-first, updated with O(n) list surgery.  Slow and
    obvious — exactly what a specification should be."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.sets = [[] for _ in range(config.n_sets)]
        self.n_evictions = 0
        self.n_dirty_evictions = 0

    def _set(self, line):
        return self.sets[line % self.config.n_sets]

    @staticmethod
    def _find(s, line):
        for i, (ln, _st) in enumerate(s):
            if ln == line:
                return i
        return -1

    def _line(self, addr):
        return addr // self.config.line_size

    def probe(self, addr):
        s = self._set(self._line(addr))
        i = self._find(s, self._line(addr))
        if i < 0:
            return INVALID
        entry = s.pop(i)
        s.append(entry)  # promote to MRU
        return entry[1]

    def peek(self, addr):
        s = self._set(self._line(addr))
        i = self._find(s, self._line(addr))
        return INVALID if i < 0 else s[i][1]

    def insert(self, addr, state):
        line = self._line(addr)
        s = self._set(line)
        i = self._find(s, line)
        if i >= 0:
            s.pop(i)
            s.append([line, state])
            return None
        victim = None
        if len(s) >= self.config.assoc:
            vline, vstate = s.pop(0)  # LRU
            self.n_evictions += 1
            if vstate == MODIFIED:
                self.n_dirty_evictions += 1
            victim = (vline, vstate)
        s.append([line, state])
        return victim

    def set_state(self, addr, state):
        line = self._line(addr)
        s = self._set(line)
        i = self._find(s, line)
        if i < 0:
            raise KeyError(addr)
        s[i][1] = state  # no LRU promotion

    def invalidate(self, addr):
        line = self._line(addr)
        s = self._set(line)
        i = self._find(s, line)
        return INVALID if i < 0 else s.pop(i)[1]

    def resident(self):
        return sorted((ln, st) for s in self.sets for ln, st in s)


GEOMETRIES = [
    CacheConfig("direct-mapped", 8 * 1 * 32, 32, 1),
    CacheConfig("two-way", 4 * 2 * 32, 32, 2),
    CacheConfig("four-way", 2 * 4 * 64, 64, 4),
]


@pytest.mark.parametrize("config", GEOMETRIES, ids=lambda c: c.name)
@pytest.mark.parametrize("seed", range(5))
def test_cache_matches_reference_model(config, seed):
    rng = random.Random(seed)
    real, model = SetAssocCache(config), LruModel(config)
    # 4x more lines than capacity => constant conflict pressure.
    pool = [
        line * config.line_size + rng.randrange(config.line_size)
        for line in range(4 * config.n_lines)
    ]
    for _ in range(600):
        addr = rng.choice(pool)
        op = rng.randrange(5)
        if op == 0:
            assert real.probe(addr) == model.probe(addr)
        elif op == 1:
            assert real.peek(addr) == model.peek(addr)
        elif op == 2:
            state = rng.choice(STATES)
            assert real.insert(addr, state) == model.insert(addr, state)
        elif op == 3:
            assert real.invalidate(addr) == model.invalidate(addr)
        else:
            state = rng.choice(STATES)
            if model.peek(addr) != INVALID:
                real.set_state(addr, state)
                model.set_state(addr, state)
            else:
                with pytest.raises(KeyError):
                    real.set_state(addr, state)
    assert sorted(real.resident()) == model.resident()
    assert real.occupancy() == len(model.resident())
    assert real.n_evictions == model.n_evictions
    assert real.n_dirty_evictions == model.n_dirty_evictions


@pytest.mark.parametrize("seed", range(3))
def test_invalidate_range_equals_per_line_invalidates(seed):
    config = CacheConfig("two-way", 4 * 2 * 32, 32, 2)
    rng = random.Random(seed)
    a, b = SetAssocCache(config), SetAssocCache(config)
    for _ in range(60):
        addr = rng.randrange(16 * config.size)
        state = rng.choice(STATES)
        a.insert(addr, state)
        b.insert(addr, state)
    base = rng.randrange(8 * config.size)
    nbytes = rng.randrange(1, 8 * config.line_size)
    hit = a.invalidate_range(base, nbytes)
    expected = 0
    first = base // config.line_size
    last = (base + nbytes - 1) // config.line_size
    for line in range(first, last + 1):
        if b.invalidate(line * config.line_size) != INVALID:
            expected += 1
    assert hit == expected
    assert sorted(a.resident()) == sorted(b.resident())


class HierarchyModel:
    """Reference model of one CPU's 1-3 level hierarchy, written from
    the protocol's description and sharing no code with ``repro.mem``
    (only the cache configs and state values come from there): a stack
    of :class:`LruModel` levels, inclusion kept per adjacent pair (a
    victim leaves every level inside it), the next-line prefetcher, and
    the directory of a machine with one active CPU — every fetch is
    unowned, so a read fills EXCLUSIVE and a write MODIFIED."""

    def __init__(self, configs, prefetch: bool) -> None:
        self.levels = [LruModel(c) for c in configs]
        self.prefetch = prefetch and len(self.levels) > 1
        self.l1_misses = 0
        self.inner_hits = 0
        self.coherent_misses = 0
        self.silent_upgrades = 0
        self.prefetch_fills = 0

    @staticmethod
    def _lines_of(level, base, size):
        step = level.config.line_size
        return range(base - base % step, base + size, step)

    def _insert(self, li, addr, state):
        level = self.levels[li]
        victim = level.insert(addr, state)
        if victim is not None:
            size = level.config.line_size
            for inner in self.levels[:li]:
                for a in self._lines_of(inner, victim[0] * size, size):
                    inner.invalidate(a)

    def _fill_inward(self, addr, state, src):
        """Install ``addr`` in every level inside ``src``, outermost first."""
        for li in range(src - 1, -1, -1):
            self._insert(li, addr, state)

    def _restate(self, addr, state):
        """The coherent line and every resident inner copy of it."""
        top = self.levels[-1]
        size = top.config.line_size
        top.set_state(addr, state)
        for inner in self.levels[:-1]:
            for a in self._lines_of(inner, addr - addr % size, size):
                if inner.peek(a) != INVALID:
                    inner.set_state(a, state)

    def access(self, addr, is_write):
        state = self.levels[0].probe(addr)
        if state != INVALID:
            if is_write and state == EXCLUSIVE:
                self._restate(addr, MODIFIED)
                self.silent_upgrades += 1
            return
        self.l1_misses += 1
        last = len(self.levels) - 1
        for li in range(1, last + 1):
            state = self.levels[li].probe(addr)
            if state == INVALID:
                continue
            self.inner_hits += 1
            if is_write and state == EXCLUSIVE:
                # a hit at the coherent level restates that level only
                if li == last:
                    self.levels[li].set_state(addr, MODIFIED)
                else:
                    self._restate(addr, MODIFIED)
                self.silent_upgrades += 1
                state = MODIFIED
            self._fill_inward(addr, state, li)
            if self.prefetch:
                step = self.levels[0].config.line_size
                nxt = (addr // step + 1) * step
                pstate = self.levels[li].peek(nxt)
                if self.levels[0].peek(nxt) == INVALID and pstate != INVALID:
                    self._fill_inward(nxt, pstate, li)
                    self.prefetch_fills += 1
            return
        self.coherent_misses += 1
        state = MODIFIED if is_write else EXCLUSIVE
        self._insert(last, addr, state)
        self._fill_inward(addr, state, last)


#: One op of the hypothesis stimulus: a single reference to (line,
#: byte offset), or a stream of ``length`` L1 lines ``stride`` apart
#: from a line, optionally revisiting a hot line after every step — the
#: shape that ages a line in the outer levels while the L1 keeps it.
_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("ref"), st.integers(0, 255), st.integers(0, 127), st.booleans()
        ),
        st.tuples(
            st.just("run"),
            st.integers(0, 255),
            st.integers(1, 64),
            st.sampled_from([1, 2, 8, 16]),
            st.booleans(),
            st.one_of(st.none(), st.integers(0, 255)),
        ),
    ),
    min_size=1,
    max_size=24,
)


@pytest.mark.parametrize("plat", ["hpv", "sgi", "islands-2x8", "flat-smp-16"])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(ops=_OPS)
def test_engine_matches_independent_hierarchy_model(plat, ops):
    """One CPU through ``access_batch`` against :class:`HierarchyModel`
    after every batch: per-level residency *in LRU order* with states,
    miss / hit / silent-upgrade counts, evictions, prefetch fills."""
    machine = platform(plat, n_cpus=2).scaled(FUZZ_SCALE_LOG2)
    line = machine.coherence_line_size
    l1_line = machine.caches[0].line_size
    aspace = AddressSpace()
    seg = aspace.alloc("model.pool", 256 * line, DataClass.RECORD, shared=True)
    refs = []
    for kind, start, arg, *rest in ops:
        if kind == "ref":
            refs.append((start * line + arg % line, rest[0]))
            continue
        stride, write, hot = rest
        for k in range(arg):
            refs.append((start * line + k * stride * l1_line, write))
            if hot is not None:
                refs.append((hot * line, False))
    refs = [(seg.base + off % seg.size, w) for off, w in refs]
    ms = MemorySystem(machine, aspace)
    model = HierarchyModel(machine.caches, machine.prefetch_next_line)
    real_levels = ms.hierarchies[0].levels
    for i in range(0, len(refs), 23):
        chunk = refs[i:i + 23]
        ms.access_batch(0, batch_from_refs([(a, w, 1, 0) for a, w in chunk]), 0, 1.0)
        for addr, write in chunk:
            model.access(addr, write)
        for real, ref in zip(real_levels, model.levels):
            assert [list(s.items()) for s in real.hot_view()[0]] == [
                [tuple(e) for e in s] for s in ref.sets
            ]
            assert (real.n_evictions, real.n_dirty_evictions) == (
                ref.n_evictions,
                ref.n_dirty_evictions,
            )
    stats = ms.stats[0]
    assert (
        stats.level1_misses,
        stats.l2_hits,
        stats.coherent_misses,
        stats.silent_upgrades,
        ms.n_prefetch_fills,
    ) == (
        model.l1_misses,
        model.inner_hits,
        model.coherent_misses,
        model.silent_upgrades,
        model.prefetch_fills,
    )
    assert stats.reads + stats.writes == len(refs)


@pytest.mark.parametrize("plat", ["hpv", "sgi"])
@pytest.mark.parametrize("seed", [11, 22, 33])
def test_directory_state_machine_under_random_stimulus(plat, seed):
    spec = SyntheticSpec(seed=seed, n_cpus=4, n_batches=5, refs_per_batch=30)
    aspace, trace = generate(spec)
    machine = platform(plat, n_cpus=spec.n_cpus).scaled(FUZZ_SCALE_LOG2)
    ms = MemorySystem(machine, aspace, fast_path=True)
    with checking(ms, full_every=8) as chk:
        drive_trace(ms, trace, machine.base_cpi)
        chk.check_all(at_rest=True)
    assert chk.n_transitions > 0
    # Independent of the checker's own code path: recompute the holder
    # bitmask for every directory entry straight from the caches.
    for line, entry in ms.engine.directory.items():
        holders = 0
        for cpu, h in enumerate(ms.hierarchies):
            if h.coherent.peek(line) != INVALID:
                holders |= 1 << cpu
        assert entry.holders() == holders, f"line {line:#x}"


@pytest.mark.parametrize("plat", ["hpv", "sgi"])
def test_replaying_a_trace_is_deterministic(plat):
    spec = SyntheticSpec(seed=99, n_cpus=3, n_batches=6, refs_per_batch=35)
    aspace, trace = generate(spec)
    machine = platform(plat, n_cpus=spec.n_cpus).scaled(FUZZ_SCALE_LOG2)
    prints = []
    for _ in range(2):
        ms = MemorySystem(machine, aspace, fast_path=True)
        clocks = drive_trace(ms, trace, machine.base_cpi)
        prints.append(fingerprint(ms, clocks, spec.n_cpus))
    assert prints[0] == prints[1]
