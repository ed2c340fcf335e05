"""CI benchmark smoke: tiny grid, executed vs trace-cached replay.

Runs the complete figure grid (3 queries x 2 platforms x 5 process
counts) at a very small scale factor twice — once directly on the
serial :class:`SweepRunner`, once through a cold
:class:`~repro.trace.store.TraceStore` so each workload is captured on
the first machine and replayed on the second — and asserts the two
grids are bitwise-equal.  A record goes into ``BENCH_smoke_replay.json``,
which the workflow uploads as an artifact; the trace store itself is written to
a separate directory that the workflow uploads only on failure, so a
divergence ships the exact tapes that produced it.

Usage: python scripts/bench_smoke_replay.py [out_dir] [store_dir]
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.config import DEFAULT_SIM  # noqa: E402
from repro.core.sweep import SweepRunner, figure_grid_cells  # noqa: E402
from repro.tpch.datagen import TPCHConfig  # noqa: E402
from repro.trace.store import TraceStore  # noqa: E402

SMOKE_TPCH = TPCHConfig(sf=0.0004, seed=19920101)


def snap(res):
    return [
        (run.wall_cycles, [s.cycles for s in run.per_process])
        for run in res.runs
    ]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    out_dir = Path(argv[0]) if argv else Path("bench-smoke")
    store_dir = Path(argv[1]) if len(argv) > 1 else Path("trace-smoke")
    out_dir.mkdir(parents=True, exist_ok=True)
    cells = figure_grid_cells()

    direct = SweepRunner(sim=DEFAULT_SIM, tpch=SMOKE_TPCH)
    t0 = time.perf_counter()
    direct.prewarm(cells)
    direct_s = time.perf_counter() - t0

    traced = SweepRunner(
        sim=DEFAULT_SIM, tpch=SMOKE_TPCH, trace_store=TraceStore(store_dir)
    )
    t0 = time.perf_counter()
    traced.prewarm(cells)
    traced_s = time.perf_counter() - t0

    mismatches = [
        key
        for key in cells
        if snap(direct.cell(*key)) != snap(traced.cell(*key))
    ]
    sources = dict(traced.trace_sources)
    record = {
        "bench": "smoke_replay_grid",
        "cells": len(cells),
        "host_cpus": os.cpu_count(),
        "sf": SMOKE_TPCH.sf,
        "direct_s": round(direct_s, 3),
        "traced_s": round(traced_s, 3),
        "trace_sources": sources,
        "equal": not mismatches,
    }
    with open(out_dir / "BENCH_smoke_replay.json", "w") as fh:
        json.dump(record, fh, indent=2)
    print(f"bench smoke: {record}")
    if mismatches:
        print(f"direct/replayed results DIVERGE for {len(mismatches)} cells:")
        for key in mismatches:
            print(f"  {key}")
        print(f"trace store kept at {store_dir} for the failure artifact")
        return 1
    if sources.get("replay", 0) == 0 or (
        sources.get("captured", 0) + sources.get("replay", 0) != len(cells)
    ):
        print(
            "trace cache was not exercised as expected: every cell must be "
            f"captured or replayed, with at least one replay (got {sources})"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
