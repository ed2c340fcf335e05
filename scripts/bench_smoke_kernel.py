"""CI benchmark smoke: tiny full_figure_grid, batched engine vs spec.

Runs the complete figure grid (3 queries x 2 platforms x 5 process
counts) plus Q6 and Q21 on both modern machine files (three levels,
prefetcher, islands) at 1, 2, 4 and 8 processes, at a very small scale
factor, twice — once through the batched engine (``fast_path=True``,
the default) and once through the per-reference specification
(``fast_path=False``, one ``MemorySystem.access`` call per reference) —
asserts every cell's counters and clocks are bitwise-equal, and appends
a datapoint to a bench JSON the workflow uploads as an artifact.  This
is a *smoke* check: it proves the engine's equivalence claim holds on
every push for real TPC-H traffic, not just synthetic fuzz traces;
throughput numbers come from ``bench/run.py``.

Usage: python scripts/bench_smoke_kernel.py [out_dir]
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "scripts"))

from bench_to_json import append_datapoint  # noqa: E402

from repro.config import DEFAULT_SIM  # noqa: E402
from repro.core.sweep import SweepRunner, figure_grid_cells  # noqa: E402
from repro.tpch.datagen import TPCHConfig  # noqa: E402

SMOKE_TPCH = TPCHConfig(sf=0.0004, seed=19920101)
MODERN_PLATFORMS = ("islands-2x8", "flat-smp-16")


def snap(res):
    return [
        (run.wall_cycles, [s.cycles for s in run.per_process])
        for run in res.runs
    ]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    out_dir = Path(argv[0]) if argv else Path("bench-smoke")
    out_dir.mkdir(parents=True, exist_ok=True)
    cells = figure_grid_cells() + figure_grid_cells(
        queries=("Q6", "Q21"),
        platforms=MODERN_PLATFORMS,
        nprocs=(1, 2, 4, 8),
    )

    fast = SweepRunner(sim=DEFAULT_SIM, tpch=SMOKE_TPCH)
    t0 = time.perf_counter()
    fast.prewarm(cells)
    fast_s = time.perf_counter() - t0

    slow_sim = dataclasses.replace(DEFAULT_SIM, fast_path=False)
    slow = SweepRunner(sim=slow_sim, tpch=SMOKE_TPCH)
    t0 = time.perf_counter()
    slow.prewarm(cells)
    slow_s = time.perf_counter() - t0

    mismatches = [
        key for key in cells if snap(fast.cell(*key)) != snap(slow.cell(*key))
    ]
    record = {
        "bench": "smoke_kernel_grid",
        "cells": len(cells),
        "host_cpus": os.cpu_count(),
        "sf": SMOKE_TPCH.sf,
        "fast_path_s": round(fast_s, 3),
        "slow_path_s": round(slow_s, 3),
        "cells_per_sec_fast": round(len(cells) / fast_s, 3),
        "equal": not mismatches,
    }
    append_datapoint("smoke_kernel", record, root=out_dir)
    print(f"bench smoke (batched engine): {record}")
    if mismatches:
        print(f"engine/spec results DIVERGE for {len(mismatches)} cells:")
        for key in mismatches:
            print(f"  {key}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
