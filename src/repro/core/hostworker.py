"""The sweep worker serve loop — one host's far end.

A host worker speaks the frame protocol of :mod:`repro.core.wire` over
a pair of byte streams.  A ``local`` host is a child forked from the
coordinator that serves over two pipes; any other host is ``repro
worker`` (spawned by a ``cmd:`` command, or the far end of ``ssh host
repro worker``) serving on its stdin/stdout.  Either way it receives a
``config`` frame and then ``chunk`` frames, runs each cell through the
same :func:`~repro.core.resilience.run_cell_guarded` choke point the
serial path uses, and streams back one ``cell_done`` frame per finished
cell.  Results are *also* written to the shared content-addressed
:class:`~repro.core.resultcache.ResultCache` (and tapes to the
:class:`~repro.trace.store.TraceStore`) when the sweep has one — that
is what makes a lost host cheap: everything it finished is already on
disk, and the retry on a surviving host is a cache hit.

The worker exits 0 on a ``shutdown`` frame or clean EOF, 3 when it
refuses a sweep of another code version, and nonzero on a broken
stream — the coordinator treats any surprise as a lost host.  EOF is
also how a worker outlives no coordinator: the coordinator holds the
only write end of its input.  ``REPRO_WORKER=1`` is set on entry so
``scope="worker"`` :class:`~repro.core.resilience.FaultPlan`\\ s arm
here and never in the coordinator.
"""

from __future__ import annotations

import os
import sys
from typing import Optional

from .resilience import run_cell_guarded
from .resultcache import ResultCache, code_version, result_to_dict
from .wire import WireError, WorkerContext, cells_from_wire, read_frame, write_frame


def serve(stdin, stdout) -> int:
    """Run the worker protocol on binary ``stdin``/``stdout`` streams.

    Returns the process exit code.  The first frame out is ``hello``
    (per-host topology); the first frame in must be ``config``.  A
    worker whose code version differs from the one in ``config`` sends
    ``refused`` and exits 3 before it runs a cell.
    """
    try:
        return _serve(stdin, stdout)
    except (WireError, OSError) as exc:  # BrokenPipeError is an OSError
        print(f"repro worker: stream broken ({exc})", file=sys.stderr)
        return 1


def _serve(stdin, stdout) -> int:
    os.environ["REPRO_WORKER"] = "1"  # arm worker-scoped fault plans
    write_frame(stdout, {
        "op": "hello",
        "host_cpus": os.cpu_count() or 1,
        "pid": os.getpid(),
    })
    message = read_frame(stdin)
    if message is None:
        return 0  # coordinator went away before configuring us
    if message.get("op") != "config":
        raise WireError(f"expected config frame, got {message.get('op')!r}")
    context = WorkerContext.from_message(message)
    if message.get("code") != code_version():
        write_frame(stdout, {"op": "refused", "error": (
            f"worker code version {code_version()} differs from the "
            f"coordinator's {message.get('code')}"
        )})
        return 3

    cache: Optional[ResultCache] = (
        ResultCache(context.cache_dir) if context.cache_dir is not None else None
    )
    trace_store = None
    if context.trace_dir is not None:
        from ..trace.store import TraceStore

        trace_store = TraceStore(context.trace_dir)

    while True:
        message = read_frame(stdin)
        if message is None or message.get("op") == "shutdown":
            return 0
        if message.get("op") != "chunk":
            raise WireError(f"unexpected frame op {message.get('op')!r}")
        token = message.get("token")
        keys = cells_from_wire(message.get("cells", []))
        write_frame(stdout, {
            "op": "heartbeat", "token": token, "n_cells": len(keys),
        })
        failure = None
        for index, key in enumerate(keys):
            spec = context.spec(key)
            try:
                result, source = run_cell_guarded(spec, cache, trace_store)
            except Exception as exc:  # deterministic cell error: report, stop
                failure = [index, repr(exc)]
                break
            write_frame(stdout, {
                "op": "cell_done",
                "token": token,
                "index": index,
                "source": source,
                "result": result_to_dict(result),
            })
        write_frame(stdout, {
            "op": "chunk_done", "token": token, "failure": failure,
        })


def main() -> int:
    """``repro worker`` entry point.

    The frame stream owns stdout, so the real stdout fd is duplicated
    privately for frames and fd 1 is re-pointed at stderr — a stray
    ``print`` anywhere in the simulator then lands in the worker's log
    instead of corrupting the protocol.
    """
    frames_fd = os.dup(sys.stdout.fileno())
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    return serve(sys.stdin.buffer, os.fdopen(frames_fd, "wb"))
