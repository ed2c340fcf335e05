"""Synthetic sharing-trace generation for the verification fuzzer.

The differential fuzzer (:mod:`repro.verify.fuzz`) needs workloads
that exercise every coherence corner — migratory lock handoffs,
write-shared metadata, read-shared index pages, streaming private scans
— without paying for a TPC-H database build per round.  This module
generates such traces synthetically: a seeded RNG draws classified
:class:`~repro.trace.stream.RefBatch` streams, one per CPU, over a
small purpose-built :class:`~repro.trace.address.AddressSpace` whose
segments mirror the §3.3 data-class taxonomy.

Generation is a pure function of :class:`SyntheticSpec`, so a failing
round is reproducible from its seed alone, and the shrinker can re-run
reduced traces deterministically.

Streams are generated **columnarly**: each batch draws its pattern
choices, instruction counts, slots and write flags as NumPy arrays,
expands the read-modify-write pairs with ``np.repeat``, and freezes the
result via :meth:`RefBatch.from_columns` — no per-reference Python list
append.  Generation used to dominate small-budget fuzz campaigns and
benchmark setup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .address import AddressSpace
from .classify import DataClass
from .stream import Ref, RefBatch

#: Pattern weights: (pattern, relative probability).  Patterns map to
#: the paper's data classes; ``lock`` emits a read-modify-write pair so
#: migratory detection has something to find.
_PATTERNS: Tuple[Tuple[str, int], ...] = (
    ("private", 30),
    ("stream", 20),
    ("shared_read", 25),
    ("hot_write", 15),
    ("lock", 10),
)


@dataclass(frozen=True)
class SyntheticSpec:
    """Everything that determines one synthetic trace, seed included."""

    seed: int
    n_cpus: int = 4
    n_batches: int = 10          # per CPU
    refs_per_batch: int = 40
    n_shared_lines: int = 24     # per shared segment
    n_private_lines: int = 32    # per CPU
    n_locks: int = 4
    p_write: float = 0.3         # write probability for non-lock refs
    #: Address pool granularity.  128 B (the largest coherence line in
    #: any machine model) guarantees distinct pool slots are distinct
    #: coherence lines on both platforms.
    line_size: int = 128
    #: Weight of the ``l2_reuse`` pattern: a cyclic walk over a per-CPU
    #: private pool sized to overflow the (scaled) L1 while fitting the
    #: L2, so revisits produce clean L2 hits — the branch the batched
    #: engine resolves inline on two-level machines.  ``0`` (the
    #: default) disables the pattern *and* its segments, keeping the
    #: address-space layout for pre-existing specs identical.
    w_l2_reuse: int = 0
    #: Weight of the ``upgrade`` pattern: read-then-write pairs on a
    #: mostly-per-CPU slice of a shared pool, driving silent E->M
    #: upgrades (and, on the cross-CPU picks, S-write upgrade
    #: transactions).  ``0`` disables it, as above.
    w_upgrade: int = 0
    n_l2_pool_lines: int = 96    # per CPU, used when w_l2_reuse > 0
    n_upgrade_lines: int = 8     # per CPU, used when w_upgrade > 0

    def __post_init__(self) -> None:
        if self.n_cpus < 1 or self.n_batches < 0 or self.refs_per_batch < 1:
            raise ValueError("malformed SyntheticSpec")
        if self.w_l2_reuse < 0 or self.w_upgrade < 0:
            raise ValueError("pattern weights must be >= 0")


def build_address_space(spec: SyntheticSpec) -> AddressSpace:
    """The segment layout the generated trace references."""
    aspace = AddressSpace()
    size = spec.n_shared_lines * spec.line_size
    aspace.alloc("syn.record", size, DataClass.RECORD, shared=True)
    aspace.alloc("syn.index", size, DataClass.INDEX, shared=True)
    aspace.alloc("syn.meta", size, DataClass.META, shared=True)
    aspace.alloc(
        "syn.lock", spec.n_locks * spec.line_size, DataClass.LOCK, shared=True
    )
    for cpu in range(spec.n_cpus):
        aspace.alloc(
            f"syn.private{cpu}",
            spec.n_private_lines * spec.line_size,
            DataClass.PRIVATE,
            shared=False,
            owner_cpu=cpu,
        )
    # Knob-gated segments go *after* the original layout so traces for
    # specs with the knobs off keep their exact historical addresses.
    if spec.w_upgrade > 0:
        aspace.alloc(
            "syn.upgrade",
            spec.n_upgrade_lines * spec.n_cpus * spec.line_size,
            DataClass.META,
            shared=True,
        )
    if spec.w_l2_reuse > 0:
        for cpu in range(spec.n_cpus):
            aspace.alloc(
                f"syn.l2pool{cpu}",
                spec.n_l2_pool_lines * spec.line_size,
                DataClass.PRIVATE,
                shared=False,
                owner_cpu=cpu,
            )
    return aspace


def generate(spec: SyntheticSpec) -> Tuple[AddressSpace, List[List[RefBatch]]]:
    """Generate ``(address_space, batches)``, ``batches[cpu]`` being the
    ordered :class:`RefBatch` stream CPU ``cpu`` executes.

    Each batch is drawn as whole columns: one vector of pattern picks,
    one of instruction counts, then per-pattern masked slot/write draws,
    with the lock/upgrade read-modify-write pairs expanded by
    ``np.repeat`` and the batch truncated to ``refs_per_batch``.  A
    single seeded :class:`numpy.random.Generator` drives every draw, so
    the trace remains a pure function of the spec.
    """
    aspace = build_address_space(spec)
    rng = np.random.default_rng(spec.seed)
    record = aspace.segment("syn.record")
    index = aspace.segment("syn.index")
    meta = aspace.segment("syn.meta")
    lock = aspace.segment("syn.lock")
    privates = [aspace.segment(f"syn.private{c}") for c in range(spec.n_cpus)]

    weights = [w for _, w in _PATTERNS]
    # Pattern codes: 0..4 = the legacy five, 5 = upgrade, 6 = l2_reuse.
    PRIVATE, STREAM, SHARED_READ, HOT_WRITE, LOCK, UPGRADE, L2_REUSE = range(7)
    if spec.w_upgrade > 0:
        upgrade_seg = aspace.segment("syn.upgrade")
        weights.append(spec.w_upgrade)
    else:
        weights.append(0)
    if spec.w_l2_reuse > 0:
        l2pools = [aspace.segment(f"syn.l2pool{c}") for c in range(spec.n_cpus)]
        weights.append(spec.w_l2_reuse)
    else:
        weights.append(0)
    probs = np.asarray(weights, dtype=np.float64)
    probs /= probs.sum()
    #: Pairs (lock, upgrade) emit two refs per pick.
    is_pair_code = np.zeros(7, dtype=np.bool_)
    is_pair_code[LOCK] = is_pair_code[UPGRADE] = True
    cls_of_code = np.array(
        [
            int(DataClass.PRIVATE),
            int(DataClass.RECORD),
            int(DataClass.INDEX),
            int(DataClass.META),
            int(DataClass.LOCK),
            int(DataClass.META),
            int(DataClass.PRIVATE),
        ],
        dtype=np.uint8,
    )
    step = spec.line_size
    B = spec.refs_per_batch
    n_shared = spec.n_shared_lines
    cursors = [0] * spec.n_cpus  # per-CPU streaming position
    l2_cursors = [0] * spec.n_cpus  # per-CPU l2_reuse walk position
    out: List[List[RefBatch]] = []
    for cpu in range(spec.n_cpus):
        batches: List[RefBatch] = []
        for _ in range(spec.n_batches):
            pats = rng.choice(7, size=B, p=probs)
            instrs = rng.integers(1, 7, size=B, dtype=np.int64)
            addrs = np.zeros(B, dtype=np.int64)
            writes = np.zeros(B, dtype=np.bool_)
            m = pats == PRIVATE
            k = int(np.count_nonzero(m))
            if k:
                addrs[m] = privates[cpu].base + step * rng.integers(
                    0, spec.n_private_lines, size=k
                )
                writes[m] = rng.random(k) < spec.p_write
            m = pats == STREAM
            k = int(np.count_nonzero(m))
            if k:
                # sequential walk: occurrence order continues the cursor
                pos = (cursors[cpu] + np.arange(k)) % n_shared
                cursors[cpu] += k
                addrs[m] = record.base + step * pos
            m = pats == SHARED_READ
            k = int(np.count_nonzero(m))
            if k:
                # Zipf-ish reuse near the "root" of the pool
                slot = np.minimum(
                    rng.integers(0, n_shared, size=k),
                    rng.integers(0, n_shared, size=k),
                )
                addrs[m] = index.base + step * slot
            m = pats == HOT_WRITE
            k = int(np.count_nonzero(m))
            if k:
                addrs[m] = meta.base + step * rng.integers(0, n_shared, size=k)
                writes[m] = rng.random(k) < 0.7
            m = pats == LOCK
            k = int(np.count_nonzero(m))
            if k:  # read-modify-write on a contended word (pair below)
                addrs[m] = lock.base + step * rng.integers(
                    0, spec.n_locks, size=k
                )
            m = pats == UPGRADE
            k = int(np.count_nonzero(m))
            if k:
                # Read-then-write: the read installs the line (E on the
                # private-slice picks, S on cross-CPU overlap), the
                # write then upgrades it — silently for E, through the
                # directory for S.
                own = cpu * spec.n_upgrade_lines + rng.integers(
                    0, spec.n_upgrade_lines, size=k
                )
                anyslot = rng.integers(
                    0, spec.n_upgrade_lines * spec.n_cpus, size=k
                )
                slot = np.where(rng.random(k) < 0.9, own, anyslot)
                addrs[m] = upgrade_seg.base + step * slot
            m = pats == L2_REUSE
            k = int(np.count_nonzero(m))
            if k:
                # Cyclic walk: once the pool has been visited, every
                # revisit has fallen out of a small L1 but sits in the
                # L2 — a clean L2 hit (or an occasional dirty one).
                pos = (l2_cursors[cpu] + np.arange(k)) % spec.n_l2_pool_lines
                l2_cursors[cpu] += k
                addrs[m] = l2pools[cpu].base + step * pos
                writes[m] = rng.random(k) < 0.15
            # Expand read-modify-write pairs: the second reference
            # repeats the address as a 2-instruction write.
            is_pair = is_pair_code[pats]
            counts = 1 + is_pair.astype(np.int64)
            e_addrs = np.repeat(addrs, counts)
            e_writes = np.repeat(writes, counts)
            e_instrs = np.repeat(instrs, counts)
            e_cls = np.repeat(cls_of_code[pats], counts)
            second = (np.cumsum(counts) - 1)[is_pair]
            e_writes[second] = True
            e_instrs[second] = 2
            batches.append(
                RefBatch.from_columns(
                    e_addrs[:B], e_writes[:B], e_instrs[:B], e_cls[:B]
                )
            )
        out.append(batches)
    return aspace, out


def batch_from_refs(refs: Sequence[Ref]) -> RefBatch:
    """Build a :class:`RefBatch` from ``(addr, write, instrs, cls)``
    tuples (also used by the shrinker to rebuild reduced batches)."""
    return RefBatch(
        [r[0] for r in refs],
        [r[1] for r in refs],
        [r[2] for r in refs],
        [r[3] for r in refs],
    )


def count_refs(trace: List[List[RefBatch]]) -> int:
    """Total references across every CPU's stream."""
    return sum(len(b) for batches in trace for b in batches)
