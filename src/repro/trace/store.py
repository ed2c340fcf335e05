"""Persistent, content-addressed workload-trace store.

An M-machine sweep executes every workload M times even though the
*executor's emission* — the per-process reference tapes captured by
:mod:`repro.trace.capture` — is identical on every machine (emission
depends only on the instruction-cost model and database state, never
on cache geometry or protocol).  :class:`TraceStore` persists each
captured :class:`~repro.trace.capture.WorkloadTrace` next to the
result cache so a grid executes each workload once and *replays* it on
every other machine.

Keying deliberately differs from :func:`repro.core.resultcache
.spec_fingerprint`: a trace is addressed by the **workload** alone
(query, process count, repetitions, parameter mode, dataset) plus the
code version — ``platform``, ``sim`` and ``verify_results`` are
excluded, because one tape serves both machines, either fast-path
setting, and any simulator configuration.  That exclusion is the whole
point of the store.

On-disk format: one ``<fingerprint>.trace.npz`` per workload.  Each
per-(rep, pid) tape is flattened to parallel event arrays (an op code
and an integer argument per event) with the reference columns of all
batches concatenated — addresses delta-encoded, which compresses the
executor's stride-heavy walks extremely well.  The codec lives in
:func:`tape_to_arrays`/:func:`arrays_to_tape` so the differential
fuzzer can round-trip synthetic tapes through literal store bytes.

Failure policy mirrors :class:`~repro.core.resultcache.ResultCache`:
truncated files, garbage bytes, bad headers and version-mismatched
entries all degrade to a miss (the sweep re-captures) with a counted
:class:`TraceStoreWarning` — never a crash, never a wrong result.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
import zipfile
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import TraceError
from ..tpch.datagen import TPCHConfig
from .capture import TapeOp, WorkloadTrace
from .stream import RefBatch

#: Trace store format version; bump on any codec change.
TRACE_FORMAT = 1

#: Event op codes (the ``ops`` array of the flattened tape).
OP_BATCH, OP_ACQUIRE, OP_RELEASE, OP_COMPUTE = 0, 1, 2, 3


class TraceStoreWarning(UserWarning):
    """A stored trace could not be used (corrupt, stale, or rejected
    at replay); the workload degrades to re-capture."""


def workload_fingerprint(spec) -> str:
    """Stable content address for one *workload* (not one cell).

    Hashes the trace format, the ``repro`` code version, and exactly
    the spec fields that shape the executor's emission.  ``platform``,
    ``sim``, and ``verify_results`` are deliberately absent — the same
    trace replays on every machine model.
    """
    from ..core.resultcache import code_version

    payload = {
        "kind": "workload-trace",
        "format": TRACE_FORMAT,
        "code": code_version(),
        "workload": {
            "query": spec.query,
            "n_procs": spec.n_procs,
            "repetitions": spec.repetitions,
            "param_mode": spec.param_mode,
            "tpch": asdict(spec.tpch),
        },
    }
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


# -- tape codec -------------------------------------------------------------

def tape_to_arrays(tape: List[TapeOp], lock_index: Dict[str, int]) -> Dict[str, np.ndarray]:
    """Flatten one per-process tape into parallel NumPy arrays.

    Returns ``ops`` (uint8 op code per event), ``args`` (int64: batch
    length / lock index / compute instructions), the four reference
    columns of every batch concatenated in tape order (``addrs``
    delta-encoded), and ``hints`` as ``(batch_ordinal, ref_idx, relid,
    row_idx)`` int64 rows.
    """
    ops: List[int] = []
    args: List[int] = []
    addrs: List[int] = []
    writes: List[bool] = []
    instrs: List[int] = []
    classes: List[int] = []
    hints: List[Tuple[int, int, int, int]] = []
    n_batches = 0
    for kind, arg in tape:
        if kind == "batch":
            ops.append(OP_BATCH)
            args.append(len(arg))
            addrs.extend(arg.addrs)
            writes.extend(arg.writes)
            instrs.extend(arg.instrs)
            classes.extend(arg.classes)
            if arg.hints:
                for ref_idx, relid, row_idx in arg.hints:
                    hints.append((n_batches, ref_idx, relid, row_idx))
            n_batches += 1
        elif kind == "acquire":
            ops.append(OP_ACQUIRE)
            args.append(lock_index[arg])
        elif kind == "release":
            ops.append(OP_RELEASE)
            args.append(lock_index[arg])
        elif kind == "compute":
            ops.append(OP_COMPUTE)
            args.append(arg)
        else:  # pragma: no cover - capture validates op kinds
            raise TraceError(f"unknown tape op {kind!r}")
    a = np.asarray(addrs, dtype=np.int64)
    return {
        "ops": np.asarray(ops, dtype=np.uint8),
        "args": np.asarray(args, dtype=np.int64),
        "addrs": np.diff(a, prepend=np.int64(0)),
        "writes": np.asarray(writes, dtype=np.bool_),
        "instrs": np.asarray(instrs, dtype=np.int64),
        "classes": np.asarray(classes, dtype=np.uint8),
        "hints": np.asarray(hints, dtype=np.int64).reshape(len(hints), 4),
    }


def arrays_to_tape(arrays: Dict[str, np.ndarray], lock_names: List[str]) -> List[TapeOp]:
    """Inverse of :func:`tape_to_arrays`.

    Rebuilt batches are NumPy-born (:meth:`RefBatch.from_columns` over
    zero-copy slices of the decoded columns); the Python-list form the
    batched engine iterates is materialized once, on first use.  Raises
    :class:`TraceError` on structural nonsense (op codes out of range,
    column lengths disagreeing with batch sizes) so the store can
    degrade to a miss.
    """
    ops = arrays["ops"]
    args = arrays["args"]
    if ops.ndim != 1 or ops.shape != args.shape:
        raise TraceError("tape event arrays must be parallel 1-D")
    addrs = np.cumsum(arrays["addrs"], dtype=np.int64)
    writes = arrays["writes"]
    instrs = arrays["instrs"]
    classes = arrays["classes"]
    n_refs = addrs.shape[0]
    if not (writes.shape[0] == instrs.shape[0] == classes.shape[0] == n_refs):
        raise TraceError("trace reference columns have unequal lengths")

    hint_rows = arrays["hints"]
    hints_by_batch: Dict[int, List[Tuple[int, int, int]]] = {}
    for b, ref_idx, relid, row_idx in hint_rows.tolist():
        hints_by_batch.setdefault(b, []).append((ref_idx, relid, row_idx))

    tape: List[TapeOp] = []
    pos = 0
    n_batches = 0
    for op, arg in zip(ops.tolist(), args.tolist()):
        if op == OP_BATCH:
            end = pos + arg
            if arg < 0 or end > n_refs:
                raise TraceError("batch length exceeds stored columns")
            batch = RefBatch.from_columns(
                addrs[pos:end],
                writes[pos:end],
                instrs[pos:end],
                classes[pos:end],
                hints=hints_by_batch.get(n_batches),
            )
            tape.append(("batch", batch))
            pos = end
            n_batches += 1
        elif op == OP_ACQUIRE or op == OP_RELEASE:
            if not 0 <= arg < len(lock_names):
                raise TraceError(f"lock index {arg} out of range")
            kind = "acquire" if op == OP_ACQUIRE else "release"
            tape.append((kind, lock_names[arg]))
        elif op == OP_COMPUTE:
            tape.append(("compute", arg))
        else:
            raise TraceError(f"unknown tape op code {op}")
    if pos != n_refs:
        raise TraceError("stored columns longer than batches account for")
    return tape


def trace_to_npz_dict(trace: WorkloadTrace) -> Dict[str, np.ndarray]:
    """Serialize a whole workload trace to ``np.savez``-able arrays."""
    from ..core.resultcache import code_version

    lock_names = sorted(trace.locks)
    lock_index = {name: i for i, name in enumerate(lock_names)}
    meta = {
        "format": TRACE_FORMAT,
        "code": code_version(),
        "query": trace.query,
        "n_procs": trace.n_procs,
        "repetitions": trace.repetitions,
        "param_mode": trace.param_mode,
        "tpch": asdict(trace.tpch),
        "query_rows": trace.query_rows,
        "locks": {name: trace.locks[name] for name in lock_names},
    }
    out: Dict[str, np.ndarray] = {
        "meta": np.asarray(json.dumps(meta, sort_keys=True))
    }
    for rep, procs in enumerate(trace.tapes):
        for pid, tape in enumerate(procs):
            for key, arr in tape_to_arrays(tape, lock_index).items():
                out[f"r{rep}p{pid}:{key}"] = arr
    return out


def trace_from_npz(data) -> WorkloadTrace:
    """Rebuild a :class:`WorkloadTrace` from a loaded ``.npz`` mapping.

    Raises :class:`TraceError` for anything structurally wrong and
    lets container-level errors (``zipfile.BadZipFile``, ``KeyError``
    for missing members, JSON errors) propagate for the store to
    classify.
    """
    meta = json.loads(str(data["meta"]))
    if not isinstance(meta, dict):
        raise TraceError("trace meta is not an object")
    lock_names = sorted(meta["locks"])
    tapes = [
        [
            arrays_to_tape(
                {k: data[f"r{rep}p{pid}:{k}"]
                 for k in ("ops", "args", "addrs", "writes", "instrs", "classes", "hints")},
                lock_names,
            )
            for pid in range(meta["n_procs"])
        ]
        for rep in range(meta["repetitions"])
    ]
    return WorkloadTrace(
        query=meta["query"],
        n_procs=meta["n_procs"],
        repetitions=meta["repetitions"],
        param_mode=meta["param_mode"],
        tpch=TPCHConfig(**meta["tpch"]),
        locks={str(k): int(v) for k, v in meta["locks"].items()},
        query_rows=[int(r) for r in meta["query_rows"]],
        tapes=tapes,
    )


class TraceStore:
    """On-disk workload-trace store: one ``.npz`` file per workload.

    Decoded traces are deliberately *not* memoized in memory.  A tape
    is hundreds of thousands of small objects; keeping every decoded
    workload resident makes each full (gen-2) garbage collection walk
    all of them for the rest of the sweep — measured at several
    seconds per grid, dwarfing the ~tens of milliseconds an ``.npz``
    decode costs.  Re-decoding per cell keeps the resident set one
    tape deep.
    """

    def __init__(self, directory: Optional[Path] = None) -> None:
        self.directory = Path(directory) if directory else default_trace_dir()
        self.hits = 0
        self.misses = 0
        #: Entries that existed but could not be decoded (truncated,
        #: garbage bytes, structural nonsense).
        self.corrupt = 0
        #: Well-formed entries written by a different code/format
        #: version, plus traces discarded after a replay-time rejection.
        self.stale = 0

    def _path(self, spec) -> Path:
        return self.directory / f"{workload_fingerprint(spec)}.trace.npz"

    def get(self, spec) -> Optional[WorkloadTrace]:
        """Load the stored trace for ``spec``'s workload, or ``None``.

        A broken entry is never fatal: truncated/garbage/stale files
        degrade to a miss with a counted :class:`TraceStoreWarning`,
        and the caller re-captures.
        """
        from ..core.resultcache import code_version

        fp = workload_fingerprint(spec)
        path = self.directory / f"{fp}.trace.npz"
        if not path.exists():
            self.misses += 1
            return None
        try:
            with np.load(path, allow_pickle=False) as data:
                meta = json.loads(str(data["meta"]))
                if not isinstance(meta, dict):
                    raise TraceError("trace meta is not an object")
                if (
                    meta.get("format") != TRACE_FORMAT
                    or meta.get("code") != code_version()
                ):
                    return self._reject(
                        path, "stale",
                        f"written by code={meta.get('code')!r} "
                        f"format={meta.get('format')!r}",
                    )
                trace = trace_from_npz(data)
        except (
            TraceError,
            OSError,
            ValueError,
            KeyError,
            IndexError,
            EOFError,
            TypeError,
            zipfile.BadZipFile,
        ) as exc:
            return self._reject(path, "corrupt", str(exc) or type(exc).__name__)
        if not trace.matches(spec):
            # A fingerprint collision or a file copied across cache
            # dirs; either way this tape is not this workload's.
            return self._reject(path, "corrupt", "trace does not match workload")
        self.hits += 1
        return trace

    def put(self, spec, trace: WorkloadTrace) -> Path:
        """Persist a captured trace (unique tmp + atomic rename).

        The tmp file is per-writer (``mkstemp`` opens it O_EXCL): two
        hosts capturing the same workload against a shared store race
        benignly — last rename wins with a complete archive — where a
        shared ``.tmp`` name would interleave their bytes into a torn
        file."""
        fp = workload_fingerprint(spec)
        path = self.directory / f"{fp}.trace.npz"
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as f:
                np.savez_compressed(f, **trace_to_npz_dict(trace))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def discard(self, spec, reason: str) -> None:
        """Drop a stored trace that was rejected at replay time (stale
        lock addresses, mismatched shape) so the re-capture that follows
        overwrites it."""
        fp = workload_fingerprint(spec)
        path = self.directory / f"{fp}.trace.npz"
        try:
            path.unlink()
        except OSError:
            pass
        self.stale += 1
        warnings.warn(
            f"trace store: discarded {path.name} ({reason}); re-capturing",
            TraceStoreWarning,
            stacklevel=2,
        )

    def _reject(self, path: Path, kind: str, why: str) -> None:
        """Count a bad entry as a miss; warn (stale entries warn only
        on the first occurrence — a code edit retires every trace at
        once, and one summary line beats thirty)."""
        self.misses += 1
        first_stale = kind == "stale" and self.stale == 0
        setattr(self, kind, getattr(self, kind) + 1)
        if kind == "corrupt" or first_stale:
            warnings.warn(
                f"trace store: {kind} entry {path.name} ignored ({why})",
                TraceStoreWarning,
                stacklevel=3,
            )
        return None

    @property
    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "stale": self.stale,
        }

    def describe(self) -> str:
        extra = ""
        if self.corrupt or self.stale:
            extra = f" ({self.corrupt} corrupt, {self.stale} stale)"
        return (
            f"trace store {self.directory}: "
            f"{self.hits} hits, {self.misses} misses{extra}"
        )

    def __len__(self) -> int:
        try:
            return sum(1 for _ in self.directory.glob("*.trace.npz"))
        except OSError:
            return 0


def default_trace_dir() -> Path:
    """``<result-cache dir>/traces`` — traces live next to results."""
    from ..core.resultcache import default_cache_dir

    return default_cache_dir() / "traces"
