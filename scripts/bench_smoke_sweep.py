"""CI benchmark smoke: tiny full_figure_grid, serial vs parallel.

Runs the complete figure grid (3 queries x 2 platforms x 5 process
counts) at a very small scale factor twice — once on the serial
:class:`SweepRunner`, once on a 2-job :class:`ParallelSweepRunner` —
asserts the results are bitwise-equal, and writes a record to
``BENCH_smoke_sweep.json`` the workflow uploads as an artifact.  This
is a *smoke* check: it proves the parallel machinery works and results
match on every push; throughput numbers come from ``bench/run.py``.

Usage: python scripts/bench_smoke_sweep.py [out_dir]
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
from repro.core.executors import select_executor  # noqa: E402
from repro.core.parallel import ParallelSweepRunner  # noqa: E402
from repro.core.sweep import SweepRunner, figure_grid_cells  # noqa: E402
from repro.tpch.datagen import TPCHConfig  # noqa: E402

SMOKE_TPCH = TPCHConfig(sf=0.0004, seed=19920101)
JOBS = 2


def snap(res):
    return [
        (run.wall_cycles, [s.cycles for s in run.per_process])
        for run in res.runs
    ]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    out_dir = Path(argv[0]) if argv else Path("bench-smoke")
    out_dir.mkdir(parents=True, exist_ok=True)
    cells = figure_grid_cells()

    serial = SweepRunner(sim=DEFAULT_SIM, tpch=SMOKE_TPCH)
    t0 = time.perf_counter()
    serial.prewarm(cells)
    serial_s = time.perf_counter() - t0

    parallel = ParallelSweepRunner(
        sim=DEFAULT_SIM, tpch=SMOKE_TPCH, executor=select_executor(jobs=JOBS)
    )
    t0 = time.perf_counter()
    parallel.prewarm(cells)
    parallel_s = time.perf_counter() - t0

    mismatches = [
        key
        for key in cells
        if snap(serial.cell(*key)) != snap(parallel.cell(*key))
    ]
    record = {
        "bench": "smoke_figure_grid",
        "cells": len(cells),
        "jobs": JOBS,
        "host_cpus": os.cpu_count(),
        "sf": SMOKE_TPCH.sf,
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "cells_per_sec_serial": round(len(cells) / serial_s, 3),
        "equal": not mismatches,
    }
    with open(out_dir / "BENCH_smoke_sweep.json", "w") as fh:
        json.dump(record, fh, indent=2)
    print(f"bench smoke: {record}")
    if mismatches:
        print(f"serial/parallel results DIVERGE for {len(mismatches)} cells:")
        for key in mismatches:
            print(f"  {key}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
