"""Correctness-verification subsystem.

Three independent pillars, one goal: make simulator bugs loud.

* :mod:`repro.verify.invariants` — a transition observer that asserts
  MESI/directory/inclusion invariants after every coherence transition
  (zero-cost when detached: the unhooked memory system runs unchanged
  bytecode).
* :mod:`repro.verify.fuzz` — a seeded differential fuzzer that drives
  synthetic sharing traces through the fast path vs. the reference
  loop, with and without the checker, and shrinks any divergence to a
  small reproducer.
* :mod:`repro.verify.golden` — golden-metrics regression snapshots of
  full counter vectors for the paper's headline cells.

:func:`run_verification` composes all three for the ``repro verify``
CLI subcommand and CI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

from .fuzz import FuzzReport, fuzz
from .golden import GOLDEN_SIM, GOLDEN_TPCH, GoldenReport, default_golden_dir, run_golden
from .invariants import (
    BatchedInvariantChecker,
    InvariantChecker,
    InvariantViolation,
    checking,
    checking_batched,
)

__all__ = [
    "BatchedInvariantChecker",
    "InvariantChecker",
    "InvariantViolation",
    "checking",
    "checking_batched",
    "fuzz",
    "run_golden",
    "run_verification",
    "VerifyReport",
]

#: Small real-workload cells run end-to-end with the checker attached —
#: one per platform, two processes each so sharing actually happens.
SMOKE_CELLS: Tuple[Tuple[str, str, int], ...] = (
    ("Q6", "hpv", 2),
    ("Q12", "sgi", 2),
)


@dataclass
class VerifyReport:
    """Combined outcome of one ``repro verify`` invocation."""

    smoke_ok: bool
    smoke_detail: str
    fuzz: Optional[FuzzReport]
    golden: Optional[GoldenReport]
    updated: bool = False

    @property
    def ok(self) -> bool:
        return (
            self.smoke_ok
            and (self.fuzz is None or self.fuzz.ok)
            and (self.golden is None or self.golden.ok)
        )

    def summary_lines(self) -> List[str]:
        lines = []
        lines.append(
            f"invariant smoke: {'OK' if self.smoke_ok else 'FAIL'} "
            f"({self.smoke_detail})"
        )
        if self.fuzz is not None:
            f = self.fuzz
            status = "OK" if f.ok else f"FAIL ({len(f.failures)} failure)"
            lines.append(
                f"differential fuzz: {status} — {f.rounds} rounds, "
                f"{f.transitions_checked} transitions checked, "
                f"{f.parallel_checks} parallel cross-checks, "
                f"{f.replay_checks} replay cross-checks"
            )
            for fail in f.failures:
                lines.append(f"  {fail.describe()}")
        if self.golden is not None:
            g = self.golden
            if self.updated:
                lines.append(f"golden metrics: updated {len(g.checked)} snapshots")
            else:
                status = "OK" if g.ok else f"FAIL ({len(g.diffs)} diffs)"
                lines.append(
                    f"golden metrics: {status} — {len(g.checked)} cells checked"
                )
                for d in g.diffs[:20]:
                    lines.append(f"  {d.cell}: {d.describe()}")
        return lines


def _run_smoke() -> Tuple[bool, str]:
    """Run the smoke cells with the array-verification checker on the
    deferred observation channel — the batched engine stays active, so
    this checks the exact configuration the experiments run, at a ~1.4×
    overhead instead of the per-transition checker's ~5× (see
    ``docs/METHODOLOGY.md`` §6).  The fuzzer still exercises the
    per-transition checker on its ``slow/checked`` leg."""
    # Imported here so ``repro.verify`` stays importable without the
    # full experiment stack loaded at module import time.
    from ..core.experiment import DatabaseCache
    from ..core.workload import make_query_process
    from ..mem.machine import platform
    from ..mem.memsys import MemorySystem
    from ..osim.scheduler import Kernel
    from ..tpch.queries import QUERIES

    db = DatabaseCache.get(GOLDEN_TPCH)
    transitions = 0
    for query, plat, n_procs in SMOKE_CELLS:
        machine = platform(plat).scaled(GOLDEN_SIM.cache_scale_log2)
        db.reset_runtime()
        ms = MemorySystem(machine, db.aspace, fast_path=GOLDEN_SIM.fast_path)
        kernel = Kernel(machine, ms, GOLDEN_SIM)
        qdef = QUERIES[query]
        params = qdef.params()
        try:
            # close() (on clean exit) sweeps the residue and finishes
            # with the exact checker's at-rest pass.
            with checking_batched(ms, check_every=256) as chk:
                for pid in range(n_procs):
                    gen, _ = make_query_process(db, qdef, params, pid, cpu=pid)
                    kernel.spawn(gen, cpu=pid)
                kernel.run()
            transitions += chk.n_transitions
        except InvariantViolation as exc:
            return False, f"{query}/{plat}/p{n_procs}: {exc}"
    return True, (
        f"{len(SMOKE_CELLS)} cells, {transitions} transitions checked "
        f"(batched array sweeps)"
    )


def run_verification(
    *,
    fuzz_budget: int = 50,
    fuzz_seed: int = 0xF422,
    golden_dir: Optional[Path] = None,
    update_golden: bool = False,
    artifacts_dir: Optional[Path] = None,
) -> VerifyReport:
    """Run the full verification stack; never raises on a *finding*
    (the report's ``ok`` says whether everything passed)."""
    smoke_ok, smoke_detail = _run_smoke()
    fuzz_report = fuzz(budget=fuzz_budget, seed=fuzz_seed) if fuzz_budget > 0 else None
    golden_report = run_golden(
        golden_dir or default_golden_dir(), update=update_golden
    )
    report = VerifyReport(
        smoke_ok=smoke_ok,
        smoke_detail=smoke_detail,
        fuzz=fuzz_report,
        golden=golden_report,
        updated=update_golden,
    )
    if artifacts_dir is not None and not report.ok:
        _write_artifacts(report, Path(artifacts_dir))
    return report


def _write_artifacts(report: VerifyReport, out: Path) -> None:
    """Dump machine-readable failure detail for CI artifact upload."""
    out.mkdir(parents=True, exist_ok=True)
    if report.fuzz is not None and not report.fuzz.ok:
        (out / "fuzz_failure.json").write_text(
            json.dumps([f.to_dict() for f in report.fuzz.failures], indent=2)
        )
    if report.golden is not None and not report.golden.ok:
        (out / "golden_diff.json").write_text(
            json.dumps([d.to_dict() for d in report.golden.diffs], indent=2)
        )
    if not report.smoke_ok:
        (out / "smoke_failure.txt").write_text(report.smoke_detail + "\n")
