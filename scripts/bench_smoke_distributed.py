"""CI distributed smoke: tiny grid over two hosts, two transports.

Runs the complete figure grid at a very small scale factor twice —
once on the serial :class:`SweepRunner`, once distributed across a
``local`` host (forked from this process) and a ``cmd:`` host (a
spawned ``repro worker``, the transport ``ssh:`` hosts use) with a
checkpoint manifest and the sweep event bus attached — and asserts the
result caches agree bitwise.  Everything the run produces lands under
the output directory so CI can upload it when the check fails: the
engine/host event log, the checkpoint manifest, and the shared result
cache both hosts wrote into.

Usage: python scripts/bench_smoke_distributed.py [out_dir]
"""

from __future__ import annotations

import json
import logging
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.config import DEFAULT_SIM  # noqa: E402
from repro.core.executors import MultiHostExecutor  # noqa: E402
from repro.core.parallel import ParallelSweepRunner  # noqa: E402
from repro.core.resilience import CheckpointManifest  # noqa: E402
from repro.core.resultcache import ResultCache, spec_fingerprint  # noqa: E402
from repro.core.sweep import SweepRunner, figure_grid_cells  # noqa: E402
from repro.core.sweep import normalize_cell  # noqa: E402
from repro.obs.sinks import SweepEventRecorder  # noqa: E402
from repro.tpch.datagen import TPCHConfig  # noqa: E402

SMOKE_TPCH = TPCHConfig(sf=0.0004, seed=19920101)
HOSTS = f"local,cmd:{sys.executable} -m repro worker"


def snap(res):
    return [
        (run.wall_cycles, [s.cycles for s in run.per_process])
        for run in res.runs
    ]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    out_dir = Path(argv[0]) if argv else Path("distributed-smoke")
    out_dir.mkdir(parents=True, exist_ok=True)

    # every engine/host event (dispatch, heartbeat, lost, requeue)
    # goes to a log file CI uploads when the check fails
    handler = logging.FileHandler(out_dir / "distributed-events.log")
    handler.setFormatter(logging.Formatter("%(asctime)s %(name)s %(message)s"))
    logging.getLogger().addHandler(handler)
    logging.getLogger().setLevel(logging.INFO)

    cells = [normalize_cell(c) for c in figure_grid_cells()]

    serial = SweepRunner(sim=DEFAULT_SIM, tpch=SMOKE_TPCH)
    t0 = time.perf_counter()
    serial.prewarm(cells)
    serial_s = time.perf_counter() - t0

    cache_dir = out_dir / "cache"
    executor = MultiHostExecutor(HOSTS)
    distributed = ParallelSweepRunner(
        sim=DEFAULT_SIM, tpch=SMOKE_TPCH,
        cache=ResultCache(cache_dir), executor=executor,
    )
    manifest = CheckpointManifest.open(
        cache_dir, cells,
        [spec_fingerprint(distributed._spec(k)) for k in cells],
    )
    recorder = SweepEventRecorder()
    t0 = time.perf_counter()
    report = distributed.execute(cells, manifest=manifest, sinks=[recorder])
    distributed_s = time.perf_counter() - t0

    mismatches = [
        key
        for key in cells
        if snap(serial.cell(*key)) != snap(distributed.cell(*key))
    ]
    record = {
        "bench": "smoke_distributed_grid",
        "cells": len(cells),
        "hosts": HOSTS,
        "host_cpus": [
            recorder.host_cpus.get(h.label, 1) for h in executor.hosts
        ],
        "coordinator_cpus": os.cpu_count(),
        "sf": SMOKE_TPCH.sf,
        "serial_s": round(serial_s, 3),
        "distributed_s": round(distributed_s, 3),
        "cells_per_sec_serial": round(len(cells) / serial_s, 3),
        "hosts_lost": report.host_losses,
        "requeues": report.requeues,
        "degraded": report.degraded,
        "equal": not mismatches,
    }
    with open(out_dir / "BENCH_smoke_distributed.json", "w") as fh:
        json.dump(record, fh, indent=2)
    print(f"distributed smoke: {record}")
    for line in report.summary_lines():
        print(f"  {line}")
    if not report.ok:
        print("distributed sweep reported failure")
        return 1
    if report.degraded:
        print("distributed sweep fell off the multi-host path")
        return 1
    if mismatches:
        print(f"serial/distributed results DIVERGE for {len(mismatches)} cells:")
        for key in mismatches:
            print(f"  {key}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
