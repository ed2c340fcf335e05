"""Randomized differential fuzzer for the memory system.

Every round draws a random :class:`~repro.trace.synthetic.SyntheticSpec`
(seeded — the whole campaign is a pure function of its seed), generates
a synthetic sharing trace, and drives the *same* trace through five
legs of the simulator:

1. the per-reference specification (``fast_path=False``),
2. the batched engine,
3. the specification with the exact invariant checker attached (an
   exact sink routes batches through the specification whatever
   ``fast_path`` says, so there is no separate batched + exact leg),
4. the batched engine with the *batched* array-verification checker on
   the deferred observation channel,
5. the batched engine fed through the trace-store codec (flatten to
   delta-encoded arrays, decode back) — the persistence layer must be
   bitwise transparent.

All legs must produce identical *fingerprints* — every counter of every
CPU, the final resident set of every cache level, the full directory
image, the engine's global counters and the interconnect's request
count.  Any divergence is a bug in one of the paths (or in the checker
hooks, which must be observation-only); any
:class:`~repro.verify.invariants.InvariantViolation` is a protocol bug.
On failure the trace is shrunk with a greedy delta-debugging pass
before being reported, so the reproducer in the report is small.

A few rounds per campaign additionally cross-check the serial
:class:`~repro.core.sweep.SweepRunner` against the
:class:`~repro.core.parallel.ParallelSweepRunner` on a real (tiny)
experiment cell, covering the worker-host path the synthetic traces
cannot reach — and capture a real cell's workload tape with
:func:`~repro.trace.capture.capture_workload`, replaying it on both
machines against direct execution, covering the full capture → replay
pipeline end to end.

The caches are shrunk far below the experiment configuration
(:data:`FUZZ_SCALE_LOG2`) so short traces still generate evictions,
interventions and upgrades in quantity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..mem.machine import platform
from ..mem.memsys import MemorySystem
from ..trace.stream import RefBatch
from ..trace.synthetic import SyntheticSpec, batch_from_refs, count_refs, generate
from .invariants import InvariantViolation, checking, checking_batched

#: Extra cache shrink used by fuzz rounds: with the HPV D-cache at 4 KB
#: (128 lines) and the Origin L2 at 8 KB (64 lines), a few hundred
#: references already force capacity evictions and re-fetches.
FUZZ_SCALE_LOG2 = 9

#: Platforms every campaign alternates between (round-robin, so every
#: registered axis point — including the three-level islands machine
#: with its prefetcher — is exercised in any campaign of >= 4 rounds).
FUZZ_PLATFORMS: Tuple[str, ...] = ("hpv", "sgi", "islands-2x8", "flat-smp-16")


@dataclass
class FuzzFailure:
    """One minimized divergence."""

    round_index: int
    seed: int
    platform: str
    #: ``counter-divergence`` (legs disagree), ``invariant`` (checker
    #: fired), ``parallel-divergence`` (serial vs parallel results), or
    #: ``replay-divergence`` (captured tape replays differently than
    #: direct execution).
    kind: str
    detail: str
    n_batches: int
    n_refs: int

    def describe(self) -> str:
        return (
            f"round {self.round_index} ({self.platform}, seed {self.seed:#x}): "
            f"{self.kind} — {self.detail} "
            f"[shrunk to {self.n_refs} refs in {self.n_batches} batches]"
        )

    def to_dict(self) -> Dict:
        return {
            "round_index": self.round_index,
            "seed": self.seed,
            "platform": self.platform,
            "kind": self.kind,
            "detail": self.detail,
            "n_batches": self.n_batches,
            "n_refs": self.n_refs,
        }


@dataclass
class FuzzReport:
    """Outcome of one fuzz campaign."""

    budget: int
    seed: int
    rounds: int = 0
    parallel_checks: int = 0
    replay_checks: int = 0
    transitions_checked: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


# -- driving a trace ---------------------------------------------------------
def drive_trace(
    memsys: MemorySystem,
    trace: Sequence[Sequence[RefBatch]],
    base_cpi: float,
) -> List[int]:
    """Round-robin the per-CPU batch streams through ``memsys`` and
    return each CPU's final clock.

    Mirrors :meth:`Processor.run_batch`: every batch goes to
    ``memsys.access_batch`` (the batched engine, or the per-reference
    specification on a ``fast_path=False`` or exactly-observed memory
    system) and the clock is truncated once per batch, so the legs are
    comparable bit for bit.
    """
    n_cpus = len(trace)
    clocks = [0] * n_cpus
    depth = max((len(b) for b in trace), default=0)
    for i in range(depth):
        for cpu in range(n_cpus):
            if i >= len(trace[cpu]):
                continue
            batch = trace[cpu][i]
            now = clocks[cpu]
            cycles = memsys.access_batch(cpu, batch, now, base_cpi)
            clocks[cpu] = now + int(cycles)
    return clocks


def fingerprint(
    memsys: MemorySystem, clocks: List[int], n_active: int
) -> Dict:
    """Everything observable about a finished run, as comparable data."""
    engine = memsys.engine
    return {
        "clocks": list(clocks),
        "stats": [memsys.stats[cpu].to_dict() for cpu in range(n_active)],
        "coherent": [
            sorted(h.coherent.resident()) for h in memsys.hierarchies[:n_active]
        ],
        "inner_levels": [
            [sorted(c.resident()) for c in h.levels[:-1]] if h.has_l2 else None
            for h in memsys.hierarchies[:n_active]
        ],
        "prefetch_fills": memsys.n_prefetch_fills,
        "directory": sorted(
            (
                line,
                e.excl_owner,
                e.sharers,
                e.migratory,
                e.last_writer,
                e.written_since_transfer,
            )
            for line, e in engine.directory.items()
        ),
        "engine": {
            "interventions": engine.n_interventions,
            "migratory_transfers": engine.n_migratory_transfers,
            "migratory_detected": engine.n_migratory_detected,
            "invalidations": engine.n_invalidations,
            "writebacks": engine.n_writebacks,
            "downgrades": engine.n_downgrades,
        },
        "interconnect": memsys.interconnect.n_requests,
    }


def _first_diff(a: Dict, b: Dict) -> str:
    """Human-oriented pointer at the first differing fingerprint key."""
    for key in a:
        if a[key] != b[key]:
            return f"first divergent field: {key!r} ({a[key]!r} != {b[key]!r})"
    return "fingerprints differ"


@dataclass
class _RoundOutcome:
    """What running one trace through every leg produced."""

    kind: Optional[str] = None  # None = all legs agree, no violation
    detail: str = ""
    transitions: int = 0


def _run_round(
    plat: str,
    spec: SyntheticSpec,
    trace: Sequence[Sequence[RefBatch]],
    aspace,
    memsys_factory: Callable[..., MemorySystem],
) -> _RoundOutcome:
    """Drive one trace through all five legs; compare fingerprints."""
    machine = platform(plat, n_cpus=spec.n_cpus).scaled(FUZZ_SCALE_LOG2)
    out = _RoundOutcome()
    prints: List[Tuple[str, Dict]] = []
    for leg, fast in (("slow/plain", False), ("fast/plain", True)):
        ms = memsys_factory(machine, aspace, fast_path=fast)
        clocks = drive_trace(ms, trace, machine.base_cpi)
        prints.append((leg, fingerprint(ms, clocks, spec.n_cpus)))
    # Third leg: the exact checker must be observation-only.
    ms = memsys_factory(machine, aspace, fast_path=False)
    try:
        with checking(ms, full_every=16) as chk:
            clocks = drive_trace(ms, trace, machine.base_cpi)
            chk.check_all(at_rest=True)
        out.transitions += chk.n_transitions
    except InvariantViolation as exc:
        out.kind = "invariant"
        out.detail = f"leg slow/checked: {exc}"
        return out
    prints.append(("slow/checked", fingerprint(ms, clocks, spec.n_cpus)))
    # Fourth leg: the deferred-channel batched checker must also be
    # observation-only, and its array sweeps must agree with the scalar
    # checker about the trace being clean.
    ms = memsys_factory(machine, aspace, fast_path=True)
    try:
        with checking_batched(ms, check_every=64) as bchk:
            clocks = drive_trace(ms, trace, machine.base_cpi)
        out.transitions += bchk.n_transitions
    except InvariantViolation as exc:
        out.kind = "invariant"
        out.detail = f"leg fast/batched-checked: {exc}"
        return out
    prints.append(("fast/batched-checked", fingerprint(ms, clocks, spec.n_cpus)))
    # Fifth leg: round-trip every CPU's batch stream through the
    # trace-store codec (flatten → delta-encode → decode) exactly as
    # ``TraceStore`` persists workload tapes, then drive the decoded
    # refs through the fast path.  The codec must be invisible.
    from ..errors import TraceError
    from ..trace.store import arrays_to_tape, tape_to_arrays

    try:
        codec_trace = [
            [
                b
                for _kind, b in arrays_to_tape(
                    tape_to_arrays([("batch", b) for b in batches], {}), []
                )
            ]
            for batches in trace
        ]
    except TraceError as exc:
        out.kind = "counter-divergence"
        out.detail = f"leg fast/store-codec: codec rejected its own output: {exc}"
        return out
    ms = memsys_factory(machine, aspace, fast_path=True)
    clocks = drive_trace(ms, codec_trace, machine.base_cpi)
    prints.append(("fast/store-codec", fingerprint(ms, clocks, spec.n_cpus)))
    ref_leg, ref = prints[0]
    for leg, fp in prints[1:]:
        if fp != ref:
            out.kind = "counter-divergence"
            out.detail = f"legs {ref_leg} vs {leg}: {_first_diff(ref, fp)}"
            return out
    return out


# -- shrinking ---------------------------------------------------------------
def shrink_trace(
    plat: str,
    spec: SyntheticSpec,
    trace: List[List[RefBatch]],
    aspace,
    memsys_factory: Callable[..., MemorySystem],
    max_attempts: int = 200,
) -> List[List[RefBatch]]:
    """Greedy delta-debugging: repeatedly try dropping batch chunks and
    halving batches, keeping any reduction that still fails.  Bounded
    by ``max_attempts`` re-runs so shrinking can't dominate a campaign."""
    attempts = 0

    def still_fails(candidate: List[List[RefBatch]]) -> bool:
        nonlocal attempts
        attempts += 1
        return _run_round(plat, spec, candidate, aspace, memsys_factory).kind is not None

    # Phase 1: drop whole batches, halving chunk size each sweep.
    flat = [(cpu, i) for cpu, bs in enumerate(trace) for i in range(len(bs))]
    chunk = max(1, len(flat) // 2)
    while chunk >= 1 and attempts < max_attempts:
        i = 0
        progress = False
        while i < len(flat) and attempts < max_attempts:
            keep = set(flat[:i] + flat[i + chunk:])
            candidate = [
                [b for j, b in enumerate(bs) if (cpu, j) in keep]
                for cpu, bs in enumerate(trace)
            ]
            if still_fails(candidate):
                flat = flat[:i] + flat[i + chunk:]
                trace = candidate
                # Re-index: candidate compacted each CPU's list.
                flat = [
                    (cpu, i2)
                    for cpu, bs in enumerate(trace)
                    for i2 in range(len(bs))
                ]
                progress = True
            else:
                i += chunk
        if not progress:
            chunk //= 2

    # Phase 2: halve individual batches (front or back half).
    for cpu in range(len(trace)):
        for i in range(len(trace[cpu])):
            while len(trace[cpu][i]) > 1 and attempts < max_attempts:
                refs = list(trace[cpu][i])
                half = len(refs) // 2
                reduced = None
                for part in (refs[:half], refs[half:]):
                    candidate = [list(bs) for bs in trace]
                    candidate[cpu][i] = batch_from_refs(part)
                    if still_fails(candidate):
                        reduced = candidate
                        break
                if reduced is None:
                    break
                trace = reduced
    return trace


# -- the campaign ------------------------------------------------------------
def _parallel_cell_check(rng: random.Random) -> Optional[str]:
    """Run a random tiny cell and its other process count serially and
    over two forked worker hosts; return a description of any
    divergence (None = agreement).  Two cells, because the sweep engine
    runs a lone missing cell in-process."""
    import dataclasses

    from ..config import TEST_SIM
    from ..core.executors import select_executor
    from ..core.parallel import ParallelSweepRunner
    from ..core.sweep import SweepRunner
    from ..tpch.datagen import TPCHConfig

    tpch = TPCHConfig(sf=0.0004, seed=20020411)
    query = rng.choice(("Q6", "Q12"))
    plat = rng.choice(FUZZ_PLATFORMS)
    n_procs = rng.choice((1, 2))
    cells = [(query, plat, n_procs), (query, plat, 3 - n_procs)]
    serial = SweepRunner(sim=TEST_SIM, tpch=tpch)
    parallel = ParallelSweepRunner(
        sim=TEST_SIM, tpch=tpch, executor=select_executor(jobs=2)
    )
    parallel.prewarm(cells)

    def key(res):
        return [
            (
                run.wall_cycles,
                run.interconnect_queue_delay_mean,
                run.n_backoffs,
                run.query_rows,
                [dataclasses.astuple(s) for s in run.per_process],
            )
            for run in res.runs
        ]

    for cell in cells:
        if key(serial.cell(*cell)) != key(parallel.cell(*cell)):
            return f"cell {cell}: serial and parallel results diverge"
    return None


def _replay_cell_check(rng: random.Random) -> Optional[str]:
    """Capture one random tiny cell's workload tape, replay it on both
    machines, and compare each against direct execution; return a
    description of any divergence (None = agreement)."""
    import dataclasses

    from ..config import TEST_SIM
    from ..core.experiment import ExperimentSpec, run_experiment
    from ..tpch.datagen import TPCHConfig
    from ..trace.capture import capture_workload, replay_workload

    tpch = TPCHConfig(sf=0.0004, seed=20020411)
    query = rng.choice(("Q6", "Q12"))
    n_procs = rng.choice((1, 2))
    captured_on = rng.choice(FUZZ_PLATFORMS)

    def spec(plat):
        return ExperimentSpec(
            query=query, platform=plat, n_procs=n_procs,
            tpch=tpch, sim=TEST_SIM,
        )

    def key(res):
        return [
            (
                run.wall_cycles,
                run.interconnect_queue_delay_mean,
                run.n_backoffs,
                run.query_rows,
                [dataclasses.astuple(s) for s in run.per_process],
            )
            for run in res.runs
        ]

    direct_captured, trace = capture_workload(spec(captured_on))
    for plat in FUZZ_PLATFORMS:
        direct = (
            direct_captured if plat == captured_on
            else run_experiment(spec(plat))
        )
        if key(replay_workload(spec(plat), trace)) != key(direct):
            return (
                f"cell ({query}, {plat}, {n_procs}): replay of tape "
                f"captured on {captured_on} diverges from direct execution"
            )
    return None


def fuzz(
    budget: int = 50,
    seed: int = 0xF422,
    platforms: Sequence[str] = FUZZ_PLATFORMS,
    shrink: bool = True,
    parallel_checks: Optional[int] = None,
    replay_checks: Optional[int] = None,
    memsys_factory: Callable[..., MemorySystem] = MemorySystem,
) -> FuzzReport:
    """Run a fuzz campaign of ``budget`` rounds; stop at the first
    failure (shrunk if ``shrink``).

    ``parallel_checks`` (default ``max(1, budget // 100)``) serial-vs-
    parallel cross-checks run at the end of a clean campaign; pass 0 to
    skip them (they build a tiny TPC-H database).  ``replay_checks``
    capture-vs-replay cross-checks follow (default: same count as the
    parallel checks).  ``memsys_factory`` exists for the self-tests:
    injecting a deliberately broken :class:`MemorySystem` subclass must
    make the campaign fail.
    """
    report = FuzzReport(budget=budget, seed=seed)
    rng = random.Random(seed)
    for round_index in range(budget):
        round_seed = rng.getrandbits(32)
        plat = platforms[round_index % len(platforms)]
        spec = SyntheticSpec(
            seed=round_seed,
            n_cpus=rng.choice((2, 3, 4)),
            n_batches=rng.randint(4, 12),
            refs_per_batch=rng.randint(10, 60),
            n_shared_lines=rng.choice((8, 16, 24)),
            n_private_lines=rng.choice((16, 32)),
            p_write=rng.choice((0.1, 0.3, 0.5)),
            # Push the batched engine's inline L2-hit and upgrade
            # branches as hard as the L1 one: most rounds enable the
            # dedicated patterns (0 keeps a share of pure-legacy mixes).
            w_l2_reuse=rng.choice((0, 15, 30)),
            w_upgrade=rng.choice((0, 10, 20)),
        )
        aspace, trace = generate(spec)
        report.rounds += 1
        outcome = _run_round(plat, spec, trace, aspace, memsys_factory)
        report.transitions_checked += outcome.transitions
        if outcome.kind is None:
            continue
        if shrink:
            trace = shrink_trace(plat, spec, trace, aspace, memsys_factory)
            # Re-run the minimal trace for the freshest failure detail.
            final = _run_round(plat, spec, trace, aspace, memsys_factory)
            if final.kind is not None:
                outcome = final
        report.failures.append(
            FuzzFailure(
                round_index=round_index,
                seed=round_seed,
                platform=plat,
                kind=outcome.kind,
                detail=outcome.detail,
                n_batches=sum(len(b) for b in trace),
                n_refs=count_refs(trace),
            )
        )
        return report  # first failure ends the campaign

    n_par = parallel_checks if parallel_checks is not None else max(1, budget // 100)
    for _ in range(n_par):
        report.parallel_checks += 1
        diverged = _parallel_cell_check(rng)
        if diverged is not None:
            report.failures.append(
                FuzzFailure(
                    round_index=report.rounds,
                    seed=seed,
                    platform="-",
                    kind="parallel-divergence",
                    detail=diverged,
                    n_batches=0,
                    n_refs=0,
                )
            )
            return report

    n_replay = replay_checks if replay_checks is not None else n_par
    for _ in range(n_replay):
        report.replay_checks += 1
        diverged = _replay_cell_check(rng)
        if diverged is not None:
            report.failures.append(
                FuzzFailure(
                    round_index=report.rounds,
                    seed=seed,
                    platform="-",
                    kind="replay-divergence",
                    detail=diverged,
                    n_batches=0,
                    n_refs=0,
                )
            )
            return report
    return report
