"""Length-prefixed JSON frame protocol for sweep worker hosts.

A coordinator (:class:`~repro.core.executors.SubprocessHostExecutor`)
and a host worker (:mod:`repro.core.hostworker`) talk over a pair of
byte pipes — two ``os.pipe()`` pairs for a worker forked from the
coordinator, the stdin/stdout of a spawned ``repro worker``, which is
also exactly what an ``ssh host repro worker`` transport provides.
Every message is
one *frame*: a 4-byte big-endian payload length followed by that many
bytes of UTF-8 JSON.  The length prefix makes framing self-describing
(no sentinels inside payloads to escape) and makes desynchronization
loud: a stream position that does not start with a plausible length
fails the :data:`MAX_FRAME` bound instead of feeding garbage to the
JSON parser indefinitely.

Only JSON-scalar data crosses the wire — cell keys as 5-element lists,
configs via ``dataclasses.asdict``, results via the existing
:func:`~repro.core.resultcache.result_to_dict` codec.  Nothing is ever
pickled, so a worker can be a different interpreter, a different
architecture, or (over ssh) a different machine entirely.

Message vocabulary (``op`` field):

coordinator -> worker
    * ``config`` — the :class:`WorkerContext` (sim/tpch/cache dirs) and
      the coordinator's ``code`` version; sent once, immediately after
      the worker starts.
    * ``chunk`` — ``{token, cells: [[q, p, np, rep, mode], ...]}``; the
      worker runs the cells in order.
    * ``shutdown`` — clean exit request (EOF on stdin means the same).

worker -> coordinator
    * ``hello`` — ``{host_cpus, pid}``; first frame after start, the
      per-host topology record the scaling benchmarks publish.
    * ``heartbeat`` — ``{token, n_cells}`` at chunk start (liveness).
    * ``refused`` — ``{error}``: the worker's code version differs from
      the coordinator's, so it exits before running a cell.
    * ``cell_done`` — ``{token, index, source, result}`` streamed per
      finished cell, so a host lost mid-chunk only loses the cell in
      flight, never completed work.
    * ``chunk_done`` — ``{token, failure: [index, error] | null}``.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass
from typing import List, Optional

from ..config import SimConfig
from ..errors import ReproError
from ..tpch.datagen import TPCHConfig
from .experiment import ExperimentSpec
from .sweep import CellKey

#: Upper bound on one frame's payload.  Real frames are tiny (a chunk
#: of cell keys, one serialized result); anything larger means the
#: stream desynchronized or a stray print corrupted stdout.
MAX_FRAME = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")


class WireError(ReproError):
    """The host-worker byte stream is broken (truncated frame, garbage
    payload, implausible length) — the owning host must be declared
    lost, never limped along."""


class CodeVersionError(WireError):
    """A worker's code version differs from its coordinator's.  The
    worker refuses the sweep before it runs a cell, so a sweep never
    writes results under two code versions."""


def write_frame(stream, message: dict) -> None:
    """Write one framed JSON message and flush it."""
    blob = json.dumps(message, sort_keys=True).encode("utf-8")
    stream.write(_HEADER.pack(len(blob)) + blob)
    stream.flush()


def _read_exact(stream, n: int) -> bytes:
    chunks = []
    while n > 0:
        piece = stream.read(n)
        if not piece:
            break
        chunks.append(piece)
        n -= len(piece)
    return b"".join(chunks)


def read_frame(stream) -> Optional[dict]:
    """Read one framed message; ``None`` on clean EOF (stream closed
    exactly on a frame boundary).  Anything else malformed raises
    :class:`WireError`."""
    header = _read_exact(stream, _HEADER.size)
    if not header:
        return None
    if len(header) < _HEADER.size:
        raise WireError("truncated frame header")
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise WireError(
            f"frame length {length} exceeds {MAX_FRAME} — stream desynchronized"
        )
    blob = _read_exact(stream, length)
    if len(blob) < length:
        raise WireError(f"truncated frame body ({len(blob)}/{length} bytes)")
    try:
        message = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise WireError(f"undecodable frame payload ({exc})") from None
    if not isinstance(message, dict) or "op" not in message:
        raise WireError("frame payload is not an op message")
    return message


@dataclass(frozen=True)
class WorkerContext:
    """Everything a host worker needs to run cells: the sweep's
    configuration plus the *shared* cache/trace directories (the
    content-addressed stores double as the fleet-wide result bus)."""

    sim: SimConfig
    tpch: TPCHConfig
    verify_results: bool = False
    cache_dir: Optional[str] = None
    trace_dir: Optional[str] = None

    def spec(self, key: CellKey) -> ExperimentSpec:
        query, platform, n_procs, repetitions, param_mode = key
        return ExperimentSpec(
            query=query,
            platform=platform,
            n_procs=n_procs,
            repetitions=repetitions,
            param_mode=param_mode,
            sim=self.sim,
            tpch=self.tpch,
            verify_results=self.verify_results,
        )

    def to_message(self) -> dict:
        from .resultcache import code_version

        return {
            "op": "config",
            "code": code_version(),
            "sim": asdict(self.sim),
            "tpch": asdict(self.tpch),
            "verify_results": self.verify_results,
            "cache_dir": self.cache_dir,
            "trace_dir": self.trace_dir,
        }

    @classmethod
    def from_message(cls, message: dict) -> "WorkerContext":
        try:
            return cls(
                sim=SimConfig(**message["sim"]),
                tpch=TPCHConfig(**message["tpch"]),
                verify_results=bool(message.get("verify_results", False)),
                cache_dir=message.get("cache_dir"),
                trace_dir=message.get("trace_dir"),
            )
        except (KeyError, TypeError) as exc:
            raise WireError(f"bad config message ({exc!r})") from None


def cells_to_wire(cells) -> List[list]:
    """Cell keys as JSON rows (tuples do not survive JSON)."""
    return [list(key) for key in cells]


def cells_from_wire(rows) -> List[CellKey]:
    """JSON rows back to normalized cell keys (``WireError`` on junk)."""
    from .sweep import normalize_cell

    try:
        return [normalize_cell(tuple(row)) for row in rows]
    except (TypeError, ValueError, IndexError) as exc:
        raise WireError(f"bad cell rows ({exc!r})") from None
