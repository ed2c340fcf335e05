"""Golden-metrics regression harness.

A *golden snapshot* freezes the full simulated counter vector of one
headline experiment cell — every :class:`CpuMemStats` field of every
active CPU, the wall clock, the interconnect's mean queue delay, and
the coherence engine's global counters — as a JSON file under
``tests/golden/``.  The harness re-runs each cell and demands bitwise
equality: the simulator is deterministic, so *any* drift is either an
intended behaviour change (re-bless with ``repro verify
--update-golden`` and review the diff in version control) or a bug.

The covered cells are the paper's three queries on both machines at 1,
2 and 4 processes, and on the two modern machine files at 1, 2, 4 and
8 — small enough to run in CI, wide enough that a change to any layer
(trace generation, caches, directory, interconnect, scheduler) moves at
least one snapshot.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import SimConfig
from ..obs import schema as _schema
from ..tpch.datagen import TPCHConfig

#: Bump when the snapshot schema changes (old files then read as diffs
#: with an explanatory detail, not as crashes).
GOLDEN_FORMAT = 1

#: Deterministic small configuration, spelled out literally so golden
#: runs cannot drift when the shared test defaults are tuned.
GOLDEN_SIM = SimConfig(
    time_slice_cycles=200_000,
    context_switch_cycles=500,
    backoff_cycles=10_000,
    spin_tries=2,
)

#: The tiny dataset every test session already builds (same sf/seed as
#: the test suite's ``TINY_TPCH``), so goldens share the database cache.
GOLDEN_TPCH = TPCHConfig(sf=0.0004, seed=20020411)

GOLDEN_QUERIES: Tuple[str, ...] = ("Q6", "Q21", "Q12")
GOLDEN_PLATFORMS: Tuple[str, ...] = ("hpv", "sgi")
GOLDEN_NPROCS: Tuple[int, ...] = (1, 2, 4)

#: The modern machine-file platforms (three levels, prefetcher, islands
#: charging) run the three queries at 1 to 8 processes: p8 is where
#: single-owner interventions and cross-socket traffic are densest.
GOLDEN_MODERN_PLATFORMS: Tuple[str, ...] = ("islands-2x8", "flat-smp-16")
GOLDEN_MODERN_NPROCS: Tuple[int, ...] = (1, 2, 4, 8)

Cell = Tuple[str, str, int]


def golden_cells() -> List[Cell]:
    """The full covered matrix, in stable order: the paper pair first,
    then the modern machine-file platforms."""
    cells = [
        (q, p, n)
        for q in GOLDEN_QUERIES
        for p in GOLDEN_PLATFORMS
        for n in GOLDEN_NPROCS
    ]
    cells += [
        (q, p, n)
        for q in GOLDEN_QUERIES
        for p in GOLDEN_MODERN_PLATFORMS
        for n in GOLDEN_MODERN_NPROCS
    ]
    return cells


def cell_name(cell: Cell) -> str:
    """Snapshot file stem for one cell, e.g. ``Q6_hpv_p1``."""
    q, p, n = cell
    return f"{q}_{p}_p{n}"


def default_golden_dir() -> Path:
    """``tests/golden`` next to the package's repo checkout."""
    return Path(__file__).resolve().parents[3] / "tests" / "golden"


def capture_cell(cell: Cell) -> Dict:
    """Run one cell and serialize everything the snapshot freezes.

    The cell runs against a **freshly built** database, never the
    shared :class:`DatabaseCache` instance: shared-memory segments
    (spinlock words, per-backend private areas) are bump-allocated
    lazily on first use, so a shared database's address-space layout —
    and therefore cache-set mapping and counters — would depend on
    whatever ran earlier in the process.  A fresh build makes every
    snapshot a pure function of the cell."""
    from ..core.workload import make_query_process
    from ..mem.machine import platform
    from ..mem.memsys import MemorySystem
    from ..osim.scheduler import Kernel
    from ..tpch.datagen import build_database
    from ..tpch.queries import QUERIES

    query, plat, n_procs = cell
    db = build_database(GOLDEN_TPCH)
    machine = platform(plat).scaled(GOLDEN_SIM.cache_scale_log2)
    memsys = MemorySystem(machine, db.aspace, fast_path=GOLDEN_SIM.fast_path)
    kernel = Kernel(machine, memsys, GOLDEN_SIM)
    qdef = QUERIES[query]
    params = qdef.params()
    for pid in range(n_procs):
        gen, _ = make_query_process(db, qdef, params, pid, cpu=pid)
        kernel.spawn(gen, cpu=pid)
    kernel.run()
    engine = memsys.engine
    return {
        "format": GOLDEN_FORMAT,
        "query": query,
        "platform": plat,
        "n_procs": n_procs,
        "sim": asdict(GOLDEN_SIM),
        "tpch": asdict(GOLDEN_TPCH),
        "wall_cycles": kernel.wall_cycles(),
        "mean_queue_delay": memsys.interconnect.mean_queue_delay,
        "engine": {
            key: getattr(engine, attr) for key, attr in _schema.ENGINE_FIELDS
        },
        "stats": [memsys.stats[cpu].to_dict() for cpu in range(n_procs)],
    }


def _diff_paths(expected, got, prefix: str, out: List[str], limit: int = 8) -> None:
    """Collect dotted paths where two JSON trees differ (bounded)."""
    if len(out) >= limit:
        return
    if isinstance(expected, dict) and isinstance(got, dict):
        for key in sorted(set(expected) | set(got)):
            _diff_paths(
                expected.get(key), got.get(key), f"{prefix}.{key}", out, limit
            )
        return
    if isinstance(expected, list) and isinstance(got, list) and len(expected) == len(got):
        for i, (a, b) in enumerate(zip(expected, got)):
            _diff_paths(a, b, f"{prefix}[{i}]", out, limit)
        return
    if expected != got:
        out.append(f"{prefix}: expected {expected!r}, got {got!r}")


@dataclass
class GoldenDiff:
    """One cell whose re-run does not match its snapshot."""

    cell: str
    path: str
    details: List[str]

    def describe(self) -> str:
        return "; ".join(self.details[:3]) + (
            f" (+{len(self.details) - 3} more)" if len(self.details) > 3 else ""
        )

    def to_dict(self) -> Dict:
        return {"cell": self.cell, "path": self.path, "details": self.details}


@dataclass
class GoldenReport:
    """Outcome of one golden verification (or update) pass."""

    golden_dir: Path
    checked: List[str] = field(default_factory=list)
    diffs: List[GoldenDiff] = field(default_factory=list)
    updated: bool = False

    @property
    def ok(self) -> bool:
        return not self.diffs


def run_golden(
    golden_dir: Path,
    update: bool = False,
    cells: Optional[Sequence[Cell]] = None,
) -> GoldenReport:
    """Re-run every golden cell and compare (or re-bless) snapshots.

    A missing snapshot file is a diff, not a crash — a fresh checkout
    without goldens fails loudly instead of vacuously passing.
    """
    golden_dir = Path(golden_dir)
    report = GoldenReport(golden_dir=golden_dir, updated=update)
    for cell in cells if cells is not None else golden_cells():
        name = cell_name(cell)
        path = golden_dir / f"{name}.json"
        got = capture_cell(cell)
        report.checked.append(name)
        if update:
            golden_dir.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
            continue
        try:
            expected = json.loads(path.read_text())
        except OSError:
            report.diffs.append(
                GoldenDiff(
                    cell=name,
                    path=str(path),
                    details=[
                        "snapshot missing — run `repro verify --update-golden`"
                    ],
                )
            )
            continue
        except ValueError as exc:
            report.diffs.append(
                GoldenDiff(
                    cell=name, path=str(path), details=[f"snapshot unreadable: {exc}"]
                )
            )
            continue
        if expected != got:
            details: List[str] = []
            _diff_paths(expected, got, name, details)
            report.diffs.append(
                GoldenDiff(cell=name, path=str(path), details=details)
            )
    return report
