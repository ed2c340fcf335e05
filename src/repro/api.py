"""Stable public facade — ``from repro.api import ...``.

The package grew layer by layer (``repro.core.experiment``,
``repro.core.parallel``, ``repro.core.sweep``, ``repro.obs``, ...) and
every example and downstream script used to reach into whichever module
happened to define what it needed.  This module is the supported import
surface instead: one curated, snapshot-tested ``__all__`` covering the
experiment runner, the sweep engines (serial, parallel, resilient), the
persistent cache and checkpoint types, and the observer-bus attach
helpers.  Internal modules stay importable for power users, but only
the names below are API — ``tests/test_api_surface.py`` pins the exact
list so the surface cannot drift silently.

>>> from repro.api import ExperimentSpec, run_experiment
>>> result = run_experiment(ExperimentSpec(query="Q6", platform="hpv"))
>>> result.mean.cycles > 0
True
"""

from ._version import __version__
from .config import DEFAULT_SIM, TEST_SIM, SimConfig
from .core import metrics
from .core.executors import (
    MultiHostExecutor,
    SubprocessHostExecutor,
    SweepExecutor,
    select_executor,
)
from .core.experiment import ExperimentResult, ExperimentSpec, run_experiment
from .core.figures import FIGURES, regenerate_figure
from .core.parallel import ParallelSweepRunner
from .core.report import render_table
from .core.resilience import (
    CellFailure,
    CheckpointManifest,
    FaultPlan,
    RetryPolicy,
    SweepReport,
)
from .core.resultcache import ResultCache
from .core.sweep import NPROC_SWEEP, SweepRunner, figure_grid_cells
from .mem.machine import MachineConfig, hp_v_class, platform, sgi_origin_2000
from .mem.registry import (
    REGISTRY,
    MachineRegistry,
    load_machine_file,
    save_machine_file,
    validate_machine,
)
from .obs import (
    ChromeTraceExporter,
    PhaseProfiler,
    SweepEventJournal,
    SweepEventRecorder,
    observed_run,
)
from .service import (
    ENVELOPE_KINDS,
    SCHEMA_V1,
    EnvelopeError,
    JobSpec,
    ServiceError,
    SweepClient,
    error_envelope,
    make_envelope,
    serve,
    validate_envelope,
)
from .tpch.datagen import TPCHConfig
from .trace.capture import capture_workload, replay_workload
from .trace.store import TraceStore

#: The versioned machine contract every ``--json`` output and HTTP
#: response follows (see :mod:`repro.service.envelope`).
API_VERSION = SCHEMA_V1

__all__ = [
    "__version__",
    # configuration
    "SimConfig",
    "DEFAULT_SIM",
    "TEST_SIM",
    "TPCHConfig",
    # one experiment cell
    "ExperimentSpec",
    "ExperimentResult",
    "run_experiment",
    # sweeps: serial, parallel/resilient, persistence
    "SweepRunner",
    "ParallelSweepRunner",
    # execution backends (serial / host fleet)
    "select_executor",
    "SweepExecutor",
    "SubprocessHostExecutor",
    "MultiHostExecutor",
    "ResultCache",
    "RetryPolicy",
    "FaultPlan",
    "CheckpointManifest",
    "SweepReport",
    "CellFailure",
    "figure_grid_cells",
    "NPROC_SWEEP",
    # workload trace capture/replay
    "TraceStore",
    "capture_workload",
    "replay_workload",
    # figures and reporting
    "FIGURES",
    "regenerate_figure",
    "render_table",
    "metrics",
    # machine models: registry, loader, built-ins
    "platform",
    "MachineConfig",
    "MachineRegistry",
    "REGISTRY",
    "load_machine_file",
    "save_machine_file",
    "validate_machine",
    "hp_v_class",
    "sgi_origin_2000",
    # observer-bus attach helpers
    "observed_run",
    "PhaseProfiler",
    "ChromeTraceExporter",
    "SweepEventRecorder",
    "SweepEventJournal",
    # sweep-as-a-service: daemon, client, and the repro/v1 envelope
    "API_VERSION",
    "SCHEMA_V1",
    "ENVELOPE_KINDS",
    "EnvelopeError",
    "make_envelope",
    "error_envelope",
    "validate_envelope",
    "serve",
    "JobSpec",
    "SweepClient",
    "ServiceError",
]
