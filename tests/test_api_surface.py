"""The ``repro.api`` facade and the keyword-only construction contract.

``repro.api.__all__`` is the supported import surface; the snapshot
below must be edited *deliberately* whenever the API grows or shrinks
(that edit showing up in review is the point).  The facade must import
warning-free, and the config dataclasses — whose field order is
explicitly not API — must refuse positional construction.
"""

from __future__ import annotations

import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro
from repro import api
from repro.config import SimConfig
from repro.core.experiment import ExperimentSpec
from repro.core.sweep import SweepRunner
from tests.conftest import TINY_TPCH

from repro.config import TEST_SIM

#: The supported surface.  Adding or removing a name here is an API
#: change and should be called out in review.
EXPECTED_API = [
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
    # sweep-as-a-service (PR 10): daemon, client, and the repro/v1
    # envelope — the explicit v1 marker for the machine contract
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


class TestFacade:
    def test_all_is_the_exact_snapshot(self):
        assert api.__all__ == EXPECTED_API

    def test_every_name_resolves(self):
        for name in api.__all__:
            assert getattr(api, name) is not None, name

    def test_star_import_is_warning_free(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-W", "error::DeprecationWarning",
             "-c", "from repro.api import *"],
            env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_api_version_is_v1(self):
        # the explicit version marker: every --json output and HTTP
        # response carries this schema tag
        assert api.API_VERSION == "repro/v1"
        assert api.SCHEMA_V1 == api.API_VERSION
        assert "error" in api.ENVELOPE_KINDS

    def test_facade_names_are_the_canonical_objects(self):
        from repro.core.parallel import ParallelSweepRunner
        from repro.core.resilience import RetryPolicy

        assert api.ParallelSweepRunner is ParallelSweepRunner
        assert api.RetryPolicy is RetryPolicy
        assert api.SimConfig is SimConfig


class TestKeywordOnlyConstruction:
    def test_positional_simconfig_raises(self):
        with pytest.raises(TypeError):
            SimConfig(1)

    def test_positional_spec_raises(self):
        with pytest.raises(TypeError):
            ExperimentSpec("Q6")

    def test_keyword_construction_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            SimConfig(seed=1)
            ExperimentSpec(query="Q6", platform="hpv", n_procs=2)

    def test_frozen_and_post_init_survive_the_shim(self):
        """``kw_only`` keeps the frozen dataclass's guarantees."""
        from repro.errors import ConfigError

        spec = ExperimentSpec(query="Q6")
        with pytest.raises(Exception):
            spec.query = "Q12"  # still frozen
        with pytest.raises(ConfigError):
            ExperimentSpec(query="Q99")  # validation still runs


class TestCellTupleAcceptance:
    def test_cell_accepts_raw_tuples(self):
        runner = SweepRunner(sim=TEST_SIM, tpch=TINY_TPCH)
        a = runner.cell(("Q6", "hpv", 1))
        b = runner.cell("Q6", "hpv", 1)
        assert a is b  # same memo slot: the tuple was normalized

    def test_cell_accepts_padded_keys(self):
        runner = SweepRunner(sim=TEST_SIM, tpch=TINY_TPCH)
        a = runner.cell(("Q6", "hpv", 1, 2, "default"))
        assert a.spec.repetitions == 2

    def test_cell_rejects_mixed_forms(self):
        runner = SweepRunner(sim=TEST_SIM, tpch=TINY_TPCH)
        with pytest.raises(TypeError):
            runner.cell(("Q6", "hpv", 1), "hpv")
        with pytest.raises(TypeError):
            runner.cell("Q6")  # expanded form needs platform + n_procs
