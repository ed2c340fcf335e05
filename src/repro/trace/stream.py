"""Memory-reference batches.

The DBMS executor is *execution driven*: it runs real query plans over
real generated data and, as a side effect, emits the memory references
a native PostgreSQL process would issue.  References are grouped into
small :class:`RefBatch` objects (typically one per heap/index page
visited) so the scheduler can interleave concurrent query processes at
a granularity fine enough for lock contention and cache coherence to be
causally meaningful.

A reference is the 4-tuple ``(byte address, is_write, instructions
executed since previous reference, data class)``.  The instruction count
is how CPI accounting works: the cost model charges base cycles for the
instructions and adds the memory stall the reference incurs.

A batch is *dual form*: it can be born from parallel Python lists (the
executor's per-page emission, where list appends beat per-element NumPy
indexing by a wide margin) or from NumPy columns (synthetic traces,
trace files, replay).  Whichever representation a consumer asks for —
:attr:`RefBatch.addrs` and friends for the scalar simulation loop,
:meth:`RefBatch.columns` for array consumers and the on-disk trace
format — is derived lazily from the other and cached, so a batch
that never crosses worlds never pays a conversion.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import TraceError
from .classify import DataClass

Ref = Tuple[int, bool, int, int]

#: Canonical dtypes of the four columns of :meth:`RefBatch.columns`.
COLUMN_DTYPES = (np.int64, np.bool_, np.int64, np.uint8)


class RefBatch:
    """An immutable batch of classified memory references.

    ``hints`` is an optional side channel for trace replay: a sequence
    of ``(ref_index, relid, row_idx)`` marks identifying the references
    whose *write* flag was decided by the shared first-toucher hint-bit
    race (:meth:`ExecContext.hint_bit_write`).  That decision is the
    one interleaving-dependent part of the executor's emission, so a
    replayed batch re-resolves the marked flags against a replay-side
    hint set instead of trusting the flags baked in at capture time.
    The simulation paths never read ``hints``.
    """

    __slots__ = (
        "_addrs", "_writes", "_instrs", "_classes", "_cols", "_total", "hints"
    )

    def __init__(
        self,
        addrs: Sequence[int],
        writes: Sequence[bool],
        instrs: Sequence[int],
        classes: Sequence[int],
    ) -> None:
        n = len(addrs)
        if not (len(writes) == len(instrs) == len(classes) == n):
            raise TraceError("RefBatch fields must have equal lengths")
        self._addrs: Optional[List[int]] = list(addrs)
        self._writes: Optional[List[bool]] = list(writes)
        self._instrs: Optional[List[int]] = list(instrs)
        self._classes: Optional[List[int]] = [int(c) for c in classes]
        self._cols = None
        self._total: Optional[int] = sum(self._instrs)
        self.hints: Optional[Sequence[Tuple[int, int, int]]] = None

    @classmethod
    def take(
        cls,
        addrs: List[int],
        writes: List[bool],
        instrs: List[int],
        classes: List[int],
        hints: Optional[List[Tuple[int, int, int]]] = None,
    ) -> "RefBatch":
        """Ownership-transfer constructor for the builder hot path.

        The caller hands over already-normalized parallel lists (ints
        in ``classes``, equal lengths) and must not mutate them
        afterwards; no copies or casts are performed.  The DBMS
        executor builds hundreds of thousands of batches per cell, so
        skipping the four defensive list copies of ``__init__`` is a
        measurable win.
        """
        batch = object.__new__(cls)
        batch._addrs = addrs
        batch._writes = writes
        batch._instrs = instrs
        batch._classes = classes
        batch._cols = None
        batch._total = sum(instrs)
        batch.hints = hints
        return batch

    @classmethod
    def from_columns(
        cls,
        addrs: np.ndarray,
        writes: np.ndarray,
        instrs: np.ndarray,
        classes: np.ndarray,
        hints: Optional[Sequence[Tuple[int, int, int]]] = None,
    ) -> "RefBatch":
        """Ownership-transfer constructor from NumPy columns.

        Arrays are normalized to the canonical dtypes (zero-copy when
        they already match, as slices of a loaded trace file do) and
        must not be mutated by the caller afterwards.  The Python-list
        form is only materialized if a consumer asks for it.
        """
        cols = tuple(
            np.ascontiguousarray(c, dtype=dt)
            for c, dt in zip((addrs, writes, instrs, classes), COLUMN_DTYPES)
        )
        n = cols[0].shape[0]
        if any(c.ndim != 1 or c.shape[0] != n for c in cols):
            raise TraceError("RefBatch columns must be 1-D of equal lengths")
        batch = object.__new__(cls)
        batch._addrs = batch._writes = batch._instrs = batch._classes = None
        batch._cols = cols
        batch._total = None
        batch.hints = hints
        return batch

    @classmethod
    def take_columns(
        cls,
        addrs: np.ndarray,
        writes: np.ndarray,
        instrs: np.ndarray,
        classes: np.ndarray,
        hints: Optional[Sequence[Tuple[int, int, int]]] = None,
        total: Optional[int] = None,
    ) -> "RefBatch":
        """Ownership-transfer constructor from already-canonical columns.

        The columnar counterpart of :meth:`take`: the caller guarantees
        the invariants (canonical dtypes, equal-length 1-D arrays, no
        later mutation) and no casts or checks are performed.  Replay
        hint resolution rebuilds one batch per marked batch on the
        tape, so even :meth:`from_columns`'s no-op normalization calls
        are a measurable cost there.
        """
        batch = object.__new__(cls)
        batch._addrs = batch._writes = batch._instrs = batch._classes = None
        batch._cols = (addrs, writes, instrs, classes)
        batch._total = total
        batch.hints = hints
        return batch

    # -- representation conversion (lazy, cached) -------------------------
    def _materialize_lists(self) -> None:
        a, w, i, c = self._cols
        self._addrs = a.tolist()
        self._writes = w.tolist()
        self._instrs = i.tolist()
        self._classes = c.tolist()

    @property
    def addrs(self) -> List[int]:
        if self._addrs is None:
            self._materialize_lists()
        return self._addrs

    @property
    def writes(self) -> List[bool]:
        if self._writes is None:
            self._materialize_lists()
        return self._writes

    @property
    def instrs(self) -> List[int]:
        if self._instrs is None:
            self._materialize_lists()
        return self._instrs

    @property
    def classes(self) -> List[int]:
        if self._classes is None:
            self._materialize_lists()
        return self._classes

    @property
    def is_columnar(self) -> bool:
        """True when the batch currently holds only its NumPy form.
        Consumers that can work in either representation should branch
        on this and stay in column space — touching a list property on
        a columnar batch materializes all four Python lists."""
        return self._addrs is None

    @property
    def total_instrs(self) -> int:
        if self._total is None:
            self._total = int(self._cols[2].sum())
        return self._total

    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(addrs, writes, instrs, classes)`` as NumPy arrays of the
        canonical dtypes.  Zero-copy for a NumPy-born batch; built once
        and cached for a list-born one.  Treat as read-only — the
        arrays may share storage with the batch itself."""
        if self._cols is None:
            self._cols = (
                np.asarray(self._addrs, dtype=np.int64),
                np.asarray(self._writes, dtype=np.bool_),
                np.asarray(self._instrs, dtype=np.int64),
                np.asarray(self._classes, dtype=np.uint8),
            )
        return self._cols

    def __len__(self) -> int:
        if self._addrs is not None:
            return len(self._addrs)
        return self._cols[0].shape[0]

    def __iter__(self) -> Iterator[Ref]:
        return zip(self.addrs, self.writes, self.instrs, self.classes)

    def to_numpy(self) -> dict:
        """Columnar NumPy form keyed by field name (analysis and trace
        files).  Copies, so callers may mutate freely."""
        a, w, i, c = self.columns()
        return {
            "addrs": a.copy(),
            "writes": w.copy(),
            "instrs": i.copy(),
            "classes": c.copy(),
        }

    @classmethod
    def from_numpy(cls, cols: dict) -> "RefBatch":
        return cls.from_columns(
            cols["addrs"], cols["writes"], cols["instrs"], cols["classes"]
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RefBatch(n={len(self)}, instrs={self.total_instrs})"


class RefBuilder:
    """Mutable accumulator used by the executor to assemble a RefBatch."""

    __slots__ = ("_addrs", "_writes", "_instrs", "_classes", "_hints")

    def __init__(self) -> None:
        self._addrs: List[int] = []
        self._writes: List[bool] = []
        self._instrs: List[int] = []
        self._classes: List[int] = []
        self._hints: List[Tuple[int, int, int]] = []

    def add(self, addr: int, write: bool, instrs: int, cls: DataClass) -> None:
        """Append one reference preceded by ``instrs`` instructions."""
        self._addrs.append(addr)
        self._writes.append(write)
        self._instrs.append(instrs)
        self._classes.append(int(cls))

    def mark_hint(self, relid: int, row_idx: int) -> None:
        """Tag the most recently added reference as a hint-bit decision.

        The mark travels on the built batch (:attr:`RefBatch.hints`) so
        trace replay can re-run the first-toucher race for tuple
        ``(relid, row_idx)`` in delivery order instead of trusting the
        write flag baked in at capture time.
        """
        self._hints.append((len(self._addrs) - 1, relid, row_idx))

    def add_many(
        self, addrs: Sequence[int], write: bool, instrs: int, cls: DataClass
    ) -> None:
        """Append several references sharing one write/instrs/class.

        Equivalent to calling :meth:`add` once per address, but
        bulk-extends the parallel lists — the shape of B+-tree probe
        and scratch-ring emission, which the index-heavy queries issue
        per tuple.
        """
        n = len(addrs)
        self._addrs.extend(addrs)
        self._writes.extend([write] * n)
        self._instrs.extend([instrs] * n)
        self._classes.extend([int(cls)] * n)

    def touch_range(
        self,
        base: int,
        nbytes: int,
        cls: DataClass,
        *,
        stride: int = 32,
        instrs_per_touch: int = 4,
        write: bool = False,
    ) -> None:
        """Touch ``nbytes`` starting at ``base`` once per ``stride`` bytes.

        Models a streaming access (e.g. scanning the bytes of a tuple);
        the default 32-byte stride matches the smallest line size of the
        machines under study, so every distinct line is referenced.
        """
        if nbytes <= 0:
            return
        # Align the walk so a range always touches the line containing
        # its last byte.  Bulk-extend the parallel lists instead of one
        # ``add`` call per touch: range scans dominate reference volume
        # for the scan-heavy DSS queries, so this is the builder's hot
        # path.
        touches = range(base, base + nbytes, stride)
        n = len(touches)
        self._addrs.extend(touches)
        self._writes.extend([write] * n)
        self._instrs.extend([instrs_per_touch] * n)
        self._classes.extend([int(cls)] * n)

    def __len__(self) -> int:
        return len(self._addrs)

    @property
    def total_instrs(self) -> int:
        return sum(self._instrs)

    def build(self) -> RefBatch:
        """Freeze into a RefBatch and reset the builder.

        Ownership of the accumulated lists transfers to the batch
        (:meth:`RefBatch.take`); the builder re-arms with fresh lists,
        so nothing else can alias the frozen batch's storage.
        """
        batch = RefBatch.take(
            self._addrs,
            self._writes,
            self._instrs,
            self._classes,
            hints=self._hints or None,
        )
        self._addrs, self._writes = [], []
        self._instrs, self._classes = [], []
        if self._hints:
            self._hints = []
        return batch


def single(addr: int, *, write: bool, instrs: int, cls: DataClass) -> RefBatch:
    """Convenience constructor for a one-reference batch."""
    return RefBatch([addr], [write], [instrs], [int(cls)])

