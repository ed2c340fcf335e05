"""Persistent, content-addressed experiment-result cache.

Regenerating the paper's figures costs one pass over the (query x
platform x n_procs) grid; after an unrelated edit it costs the same
pass again.  :class:`ResultCache` makes re-runs incremental: every
finished :class:`~repro.core.experiment.ExperimentResult` is serialized
to JSON under a key derived from everything that can change its
numbers — the full :class:`ExperimentSpec` (which embeds ``SimConfig``
and ``TPCHConfig``) plus a content hash of the ``repro`` package's
sources.  Any code edit therefore invalidates the whole cache; any
config change invalidates exactly the affected cells.

The cache stores only results produced through the platform lookup
(``platform(spec.platform).scaled(...)``) — the path every sweep uses.
Ablation runs that inject a custom :class:`MachineConfig` bypass the
sweep layer and are never cached.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import asdict
from functools import lru_cache
from pathlib import Path
from typing import Optional

from ..atomicfile import atomic_write
from ..cpu.counters import CounterSnapshot
from ..mem.machine import platform
from ..obs.schema import SCHEMA_VERSION
from .experiment import ExperimentResult, ExperimentSpec, RunResult

#: Cache format version; bump on any serialization change.
FORMAT = 1


class ResultCacheWarning(UserWarning):
    """A persistent-cache entry could not be used (corrupt or stale)."""


def default_cache_dir() -> Path:
    """``$XDG_CACHE_HOME/repro`` (or ``~/.cache/repro``)."""
    root = os.environ.get("XDG_CACHE_HOME")
    base = Path(root) if root else Path.home() / ".cache"
    return base / "repro"


_code_version: Optional[str] = None


def code_version() -> str:
    """Content hash of every ``.py`` file in the ``repro`` package.

    Computed once per interpreter; editing any source file yields a new
    version and therefore a cold cache, which is what makes cached
    counters trustworthy without comparing simulator internals.
    """
    global _code_version
    if _code_version is None:
        pkg_root = Path(__file__).resolve().parent.parent
        h = hashlib.sha256()
        for path in sorted(pkg_root.rglob("*.py")):
            h.update(str(path.relative_to(pkg_root)).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
        _code_version = h.hexdigest()[:16]
    return _code_version


def spec_fingerprint(spec: ExperimentSpec) -> str:
    """Stable content address for one experiment cell.

    Mixes in the counter-schema version as well as the code hash, so a
    schema edit alone (reordered fields, a new counter) retires every
    persisted counter vector even if no ``.py`` content change slipped
    past ``code_version`` (e.g. a cache dir shared across checkouts).

    Computed once per spec: a sweep asks for the same cell's address
    several times (manifest, lookup, store, fetch) and the
    ``asdict`` deep copy dominated a warm lookup.  The versions are
    part of the memo key, so nothing that changes the address can be
    answered from a stale entry.  Specs that compare equal share one
    address (``n_procs=1`` and ``n_procs=True`` simulate the same
    cell)."""
    return _fingerprint(spec, FORMAT, SCHEMA_VERSION, code_version())


@lru_cache(maxsize=4096)
def _fingerprint(spec: ExperimentSpec, fmt: int, schema: int, code: str) -> str:
    payload = {
        "format": fmt,
        "schema": schema,
        "code": code,
        "spec": asdict(spec),
    }
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


def result_to_dict(result: ExperimentResult) -> dict:
    """JSON-serializable form of one result (machine omitted: it is a
    pure function of the spec on the sweep path)."""
    return {
        "format": FORMAT,
        "code": code_version(),
        "spec": asdict(result.spec),
        "runs": [
            {
                "per_process": [s.to_dict() for s in run.per_process],
                "wall_cycles": run.wall_cycles,
                "interconnect_queue_delay_mean": run.interconnect_queue_delay_mean,
                "n_backoffs": run.n_backoffs,
                "query_rows": run.query_rows,
            }
            for run in result.runs
        ],
    }


def result_from_dict(spec: ExperimentSpec, d: dict) -> ExperimentResult:
    """Rebuild a result for ``spec`` from its serialized form."""
    machine = platform(spec.platform).scaled(spec.sim.cache_scale_log2)
    runs = [
        RunResult(
            per_process=[CounterSnapshot.from_dict(s) for s in run["per_process"]],
            wall_cycles=run["wall_cycles"],
            interconnect_queue_delay_mean=run["interconnect_queue_delay_mean"],
            n_backoffs=run["n_backoffs"],
            query_rows=run["query_rows"],
        )
        for run in d["runs"]
    ]
    return ExperimentResult(spec=spec, machine=machine, runs=runs)


class ResultCache:
    """On-disk result store: one JSON file per experiment cell."""

    def __init__(self, directory: Optional[Path] = None) -> None:
        self.directory = Path(directory) if directory else default_cache_dir()
        self.hits = 0
        self.misses = 0
        #: Entries that existed but could not be parsed/rebuilt
        #: (truncated files, garbage bytes, missing fields).
        self.corrupt = 0
        #: Well-formed entries written by a different code/format
        #: version (the normal invalidate-on-edit path, but counted so
        #: an unexpectedly cold cache is explainable).
        self.stale = 0

    def _path(self, spec: ExperimentSpec) -> Path:
        return self.directory / f"{spec_fingerprint(spec)}.json"

    def get(self, spec: ExperimentSpec) -> Optional[ExperimentResult]:
        """Load a cached result, or ``None`` (a miss).  A broken entry
        is never fatal: truncated/garbage/stale files all degrade to a
        miss with a counted :class:`ResultCacheWarning`."""
        path = self._path(spec)
        try:
            text = path.read_text()
        except OSError:
            self.misses += 1  # plain miss: nothing cached for this cell
            return None
        except UnicodeDecodeError:
            return self._reject(path, "corrupt", "undecodable bytes")
        try:
            d = json.loads(text)
            if not isinstance(d, dict):
                raise ValueError("entry is not a JSON object")
        except ValueError:
            return self._reject(path, "corrupt", "unparsable JSON")
        if d.get("format") != FORMAT or d.get("code") != code_version():
            return self._reject(
                path, "stale",
                f"written by code={d.get('code')!r} format={d.get('format')!r}",
            )
        try:
            result = result_from_dict(spec, d)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return self._reject(path, "corrupt", f"bad structure ({exc})")
        self.hits += 1
        return result

    def _reject(self, path: Path, kind: str, why: str) -> None:
        """Count a bad entry as a miss; warn (stale entries warn only on
        the first occurrence — every code edit makes the whole cache
        stale, and one summary line beats thirty)."""
        self.misses += 1
        first_stale = kind == "stale" and self.stale == 0
        setattr(self, kind, getattr(self, kind) + 1)
        if kind == "corrupt" or first_stale:
            warnings.warn(
                f"result cache: {kind} entry {path.name} ignored ({why})",
                ResultCacheWarning,
                stacklevel=3,
            )
        return None

    def put(self, spec: ExperimentSpec, result: ExperimentResult) -> Path:
        path = self._path(spec)
        # Canonical key order: a result that crossed the wire (whose
        # dicts arrive sorted) must serialize to the same bytes as one
        # computed in-process, so distributed and serial sweeps stay
        # bitwise-comparable.
        text = json.dumps(result_to_dict(result), sort_keys=True)
        atomic_write(path, lambda fh: fh.write(text))
        return path

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
            f"result cache {self.directory}: "
            f"{self.hits} hits, {self.misses} misses{extra}"
        )

    def __len__(self) -> int:
        try:
            return sum(1 for _ in self.directory.glob("*.json"))
        except OSError:
            return 0
