"""Experiment runner — the paper's three-dimensional test matrix.

§2.3: "there are three orthogonal dimensions in our tests": the query
(Q6/Q21/Q12), the number of parallel query processes (1–8, each on its
own processor, all running the same query), and the platform (V-Class
or Origin 2000).  "For each configuration, we perform the same test
four times and use the average values."

:func:`run_experiment` executes one cell of that matrix; the sweep and
figure layers build the whole grid on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from ..config import DEFAULT_SIM, SimConfig
from ..cpu.counters import CounterSnapshot
from ..db.engine import Database
from ..errors import ConfigError
from ..mem.machine import MachineConfig, platform
from ..mem.memsys import MemorySystem
from ..obs.bus import observed_run
from ..osim.scheduler import Kernel
from ..tpch.datagen import TPCHConfig, build_database
from ..tpch.qgen import random_params
from ..tpch.queries import QUERIES
from .workload import make_query_process, snapshot_process

#: Default dataset used by experiments (chosen so that, together with
#: the default 1/32 cache scaling, the paper's footprint/cache ratios
#: hold: database >> V-Class D-cache >> hot index+meta set > Origin L1).
DEFAULT_TPCH = TPCHConfig(sf=0.002, seed=19920101)


@dataclass(frozen=True, kw_only=True)
class ExperimentSpec:
    """One cell of the paper's test matrix.

    Fields are keyword-only: the field order is not API.
    """

    query: str = "Q6"
    platform: str = "hpv"
    n_procs: int = 1
    #: The paper averaged 4 runs; with a deterministic simulator and
    #: fixed parameters repeated runs are identical, so the default is
    #: 1.  Use ``param_mode="random"`` with more repetitions to emulate
    #: the original averaging over qgen parameter draws.
    repetitions: int = 1
    param_mode: str = "default"  # "default" | "random"
    tpch: TPCHConfig = DEFAULT_TPCH
    sim: SimConfig = DEFAULT_SIM
    verify_results: bool = True

    def __post_init__(self) -> None:
        if self.query not in QUERIES:
            raise ConfigError(f"unknown query {self.query!r}")
        if self.n_procs < 1:
            raise ConfigError("n_procs must be >= 1")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.param_mode not in ("default", "random"):
            raise ConfigError("param_mode must be 'default' or 'random'")

    def with_(self, **kwargs) -> "ExperimentSpec":
        return replace(self, **kwargs)


@dataclass
class RunResult:
    """One repetition: per-process counters plus machine-level stats."""

    per_process: List[CounterSnapshot]
    wall_cycles: int
    interconnect_queue_delay_mean: float
    n_backoffs: int
    query_rows: int

    @property
    def mean(self) -> CounterSnapshot:
        out = CounterSnapshot()
        for s in self.per_process:
            out.add(s)
        return out.scaled(1.0 / len(self.per_process))


@dataclass
class ExperimentResult:
    """Averaged outcome of one experiment cell."""

    spec: ExperimentSpec
    machine: MachineConfig
    runs: List[RunResult] = field(default_factory=list)

    @property
    def mean(self) -> CounterSnapshot:
        """Per-process counters averaged over processes and repetitions."""
        out = CounterSnapshot()
        for run in self.runs:
            out.add(run.mean)
        return out.scaled(1.0 / len(self.runs))

    @property
    def total(self) -> CounterSnapshot:
        """Whole-machine counters for the first repetition."""
        out = CounterSnapshot()
        for s in self.runs[0].per_process:
            out.add(s)
        return out


class DatabaseCache:
    """Build each (sf, seed) database once per interpreter.

    Matches the original methodology: the database is loaded once, then
    queried under every configuration.
    """

    _cache: Dict[TPCHConfig, Database] = {}

    @classmethod
    def get(cls, cfg: TPCHConfig) -> Database:
        db = cls._cache.get(cfg)
        if db is None:
            db = build_database(cfg)
            cls._cache[cfg] = db
        return db

    @classmethod
    def clear(cls) -> None:
        cls._cache.clear()


def run_experiment(
    spec: ExperimentSpec,
    db: Optional[Database] = None,
    machine: Optional[MachineConfig] = None,
    sinks: Optional[List] = None,
    capture: Optional["WorkloadCaptureHook"] = None,
) -> ExperimentResult:
    """Run one experiment cell and return averaged counters.

    ``machine`` overrides the platform lookup with a custom (already
    scaled) machine model — the ablation benchmarks use this to study
    protocol and geometry variants the real vendors never shipped.

    ``sinks`` is an optional list of observer-bus sinks (profilers,
    trace exporters, invariant checkers — see :mod:`repro.obs`), each
    attached for the duration of every repetition's kernel run and
    routed to the memory system and/or scheduler by the events it
    implements.  With no sinks the run pays zero observation overhead.

    ``capture`` is an optional workload-capture hook
    (:class:`repro.trace.capture.WorkloadCapture`): each backend
    generator is wrapped by ``capture.record(rep, pid, gen)`` so its
    event stream is recorded as it executes, and
    ``capture.note_rep(rep, query_rows)`` is called after each
    repetition.  Capture is pure observation — the run's counters are
    identical with or without it.
    """
    qdef = QUERIES[spec.query]
    if qdef.mutates and spec.n_procs > 1:
        # Refresh streams are standalone in TPC-H (and their relation
        # locks are exclusive); concurrent mutating backends would just
        # deadlock on the lock manager.
        raise ConfigError(f"{spec.query} mutates the database; n_procs must be 1")
    if db is None and not qdef.mutates:
        db = DatabaseCache.get(spec.tpch)
    if machine is None:
        machine = platform(spec.platform).scaled(spec.sim.cache_scale_log2)
    if spec.n_procs > machine.n_cpus:
        raise ConfigError(
            f"{spec.n_procs} processes exceed {machine.name}'s {machine.n_cpus} CPUs"
        )
    result = ExperimentResult(spec=spec, machine=machine)

    for rep in range(spec.repetitions):
        if qdef.mutates and (db is None or rep > 0):
            # fresh instance per repetition so every repetition mutates
            # identical state (never the shared cache)
            db = build_database(spec.tpch)
        if spec.param_mode == "random":
            params = random_params(spec.query, spec.tpch.seed + rep)
        else:
            params = qdef.params()
        expected = (
            qdef.reference(db, params)
            if spec.verify_results and qdef.mutates
            else None
        )
        memsys = MemorySystem(machine, db.aspace, fast_path=spec.sim.fast_path)
        kernel = Kernel(machine, memsys, spec.sim)
        db.reset_runtime()
        backoffs_before = sum(l.n_backoffs for l in db.shmem._locks.values())
        for pid in range(spec.n_procs):
            gen, _ctx = make_query_process(db, qdef, params, pid, cpu=pid)
            if capture is not None:
                gen = capture.record(rep, pid, gen)
            kernel.spawn(gen, cpu=pid)
        if sinks:
            with observed_run(memsys, kernel, sinks):
                kernel.run()
        else:
            kernel.run()

        if spec.verify_results and (rep == 0 or qdef.mutates):
            if expected is None:
                expected = qdef.reference(db, params)
            for proc in kernel.processes:
                _check_result(spec.query, proc.result, expected)

        snaps = [
            snapshot_process(proc, memsys.stats[proc.cpu], machine)
            for proc in kernel.processes
        ]
        n_backoffs = (
            sum(lock.n_backoffs for lock in db.shmem._locks.values())
            - backoffs_before
        )
        query_rows = len(kernel.processes[0].result or [])
        if capture is not None:
            capture.note_rep(rep, query_rows)
        result.runs.append(
            RunResult(
                per_process=snaps,
                wall_cycles=kernel.wall_cycles(),
                interconnect_queue_delay_mean=memsys.interconnect.mean_queue_delay,
                n_backoffs=n_backoffs,
                query_rows=query_rows,
            )
        )
    return result


def _check_result(query: str, got, expected) -> None:
    from ..errors import ReproError

    if got is None:
        raise ReproError(f"{query}: process produced no result")
    if _normalize(got) != _normalize(expected):
        raise ReproError(
            f"{query}: executor result diverges from reference "
            f"(got {len(got)} rows, expected {len(expected)} rows)"
        )


def _round(v):
    return round(v, 4) if isinstance(v, float) else v


def _normalize(rows) -> List:
    return sorted(tuple(_round(v) for v in row) for row in rows)
