"""Resilient sweep execution: retry policy, fault injection, engine.

Every cell is a deterministic function of its spec, so a sweep that
rides out injected crashes, hangs, and corrupted results must still
produce results bitwise-equal to an undisturbed serial sweep — these
tests inject each fault class through the production
:func:`~repro.core.resilience.run_cell_guarded` choke point and assert
exactly that, plus the engine's accounting (retries, host losses,
quarantine, graceful degradation) and the checkpoint manifest.
"""

from __future__ import annotations

import json
import logging
import sys

import pytest

from tests.conftest import TINY_TPCH
from tests.test_parallel_sweep import result_key

from repro.config import TEST_SIM
from repro.core.executors import MultiHostExecutor, select_executor
from repro.core.parallel import ParallelSweepRunner
from repro.core.resilience import (
    FAULT_ENV,
    CheckpointManifest,
    FaultPlan,
    RetryPolicy,
    cell_id,
    current_fault_plan,
    key_str,
    validate_result,
)
from repro.core.resultcache import ResultCache, spec_fingerprint
from repro.core.sweep import SweepRunner, normalize_cell
from repro.errors import ConfigError
from repro.obs.sinks import SweepEventRecorder

CELLS = [("Q6", "hpv", 1), ("Q6", "hpv", 2), ("Q6", "sgi", 1), ("Q6", "sgi", 2)]


def make_runner(jobs=2, cache=None):
    return ParallelSweepRunner(
        sim=TEST_SIM, tpch=TINY_TPCH, cache=cache,
        executor=select_executor(jobs=jobs),
    )


def serial_reference(cells):
    runner = SweepRunner(sim=TEST_SIM, tpch=TINY_TPCH)
    return {
        normalize_cell(c): result_key(runner.cell(normalize_cell(c)))
        for c in cells
    }


def assert_grid_matches_serial(runner, cells):
    """The resilience invariant: faults may change *how* a sweep ran,
    never *what* it computed."""
    reference = serial_reference(cells)
    for key, expected in reference.items():
        assert result_key(runner.cell(key)) == expected


def arm(monkeypatch, tmp_path, **kwargs):
    """Install a FaultPlan in the environment (ledger under tmp_path)."""
    plan = FaultPlan(ledger=str(tmp_path / "ledger"), **kwargs)
    monkeypatch.setenv(FAULT_ENV, plan.to_env())
    return plan


class TestRetryPolicy:
    def test_deterministic_and_bounded(self):
        a = RetryPolicy(seed=7)
        b = RetryPolicy(seed=7)
        for attempt in (1, 2, 3, 8):
            d = a.delay_s(attempt, "Q6:hpv:1:1:default")
            assert d == b.delay_s(attempt, "Q6:hpv:1:1:default")
            assert 0 < d <= a.max_delay_s

    def test_backoff_grows_then_caps(self):
        p = RetryPolicy(base_delay_s=0.1, max_delay_s=0.4, jitter_frac=0.0)
        assert p.delay_s(1, "t") == pytest.approx(0.1)
        assert p.delay_s(2, "t") == pytest.approx(0.2)
        assert p.delay_s(3, "t") == pytest.approx(0.4)
        assert p.delay_s(9, "t") == pytest.approx(0.4)  # capped

    def test_jitter_decorrelates_tokens(self):
        p = RetryPolicy(jitter_frac=0.5)
        delays = {p.delay_s(1, f"cell-{i}") for i in range(16)}
        assert len(delays) > 1  # not all identical
        cap = p.base_delay_s
        assert all(cap * 0.5 <= d <= cap for d in delays)

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(base_delay_s=1.0, max_delay_s=0.5)
        with pytest.raises(ConfigError):
            RetryPolicy(jitter_frac=2.0)


class TestFaultPlan:
    def test_env_round_trip(self, tmp_path):
        plan = FaultPlan(
            kind="hang", ledger=str(tmp_path), rate=0.5, seed=9,
            max_hits=3, scope="any", hang_s=1.5, match="Q6",
        )
        assert FaultPlan.from_env(plan.to_env()) == plan

    def test_from_env_rejects_garbage(self):
        with pytest.raises(ConfigError):
            FaultPlan.from_env("{not json")
        with pytest.raises(ConfigError):
            FaultPlan.from_env('"a string"')

    def test_rejects_bad_plans(self, tmp_path):
        with pytest.raises(ConfigError):
            FaultPlan(kind="meteor", ledger=str(tmp_path))
        with pytest.raises(ConfigError):
            FaultPlan(kind="crash", ledger="")
        with pytest.raises(ConfigError):
            FaultPlan(kind="crash", ledger=str(tmp_path), scope="everywhere")

    def test_worker_scope_not_armed_in_parent(self, tmp_path):
        plan = FaultPlan(kind="crash", ledger=str(tmp_path))
        assert not plan.armed()  # we are the main process
        assert FaultPlan(kind="crash", ledger=str(tmp_path), scope="any").armed()

    def test_match_and_ledger_gate_firing(self, tmp_path):
        runner = make_runner(jobs=1)
        spec = runner._spec(normalize_cell(("Q6", "hpv", 2)))
        plan = FaultPlan(
            kind="corrupt", ledger=str(tmp_path / "led"), scope="any",
            match="Q6:hpv:2", max_hits=2,
        )
        other = runner._spec(normalize_cell(("Q6", "sgi", 2)))
        assert plan.should_fire(spec)
        assert not plan.should_fire(other)  # match filter
        plan._record(cell_id(spec))
        assert plan.should_fire(spec)  # 1 hit < max_hits=2
        plan._record(cell_id(spec))
        assert not plan.should_fire(spec)  # ledger exhausted

    def test_corrupt_leaves_original_intact(self, tmp_path):
        runner = make_runner(jobs=1)
        key = normalize_cell(("Q6", "hpv", 1))
        result = runner.cell(key)
        plan = FaultPlan(kind="corrupt", ledger=str(tmp_path), scope="any")
        mangled = plan.inject_after(result.spec, result)
        assert mangled is not result
        assert validate_result(result.spec, result) is None
        assert validate_result(result.spec, mangled) is not None

    def test_current_fault_plan_tracks_env(self, monkeypatch, tmp_path):
        monkeypatch.delenv(FAULT_ENV, raising=False)
        assert current_fault_plan() is None
        plan = arm(monkeypatch, tmp_path, kind="hang", hang_s=0.0)
        assert current_fault_plan() == plan
        monkeypatch.delenv(FAULT_ENV)
        assert current_fault_plan() is None


class TestValidateResult:
    def test_accepts_good_and_flags_mismatch(self):
        runner = make_runner(jobs=1)
        good = runner.cell(("Q6", "hpv", 2))
        other = runner.cell(("Q6", "sgi", 2))
        assert validate_result(good.spec, good) is None
        assert validate_result(good.spec, None) is not None
        assert "spec" in validate_result(good.spec, other)

    def test_flags_wrong_shape(self):
        import copy

        runner = make_runner(jobs=1)
        good = runner.cell(("Q6", "hpv", 2, 2))
        assert validate_result(good.spec, good) is None
        truncated = copy.deepcopy(good)
        truncated.runs.pop()
        assert "repetition" in validate_result(good.spec, truncated)
        lost_proc = copy.deepcopy(good)
        lost_proc.runs[0].per_process.pop()
        assert "snapshots" in validate_result(good.spec, lost_proc)


class TestEngineUnderFaults:
    """End-to-end: each fault class injected into real worker hosts.

    ``jobs=2`` is two hosts forked from the test process; the crash
    case also runs over two spawned ``repro worker`` hosts, the
    transport ``ssh:``/``cmd:`` hosts use.  Worker-scoped fault plans
    arm inside the hosts (``REPRO_WORKER=1``), never in the
    coordinator."""

    def ride_out_crash(self, monkeypatch, tmp_path, executor):
        # the crash fires inside one worker and takes its host down
        # (os._exit), so the coordinator sees EOF mid-chunk
        arm(monkeypatch, tmp_path, kind="crash", match="Q6:sgi:2")
        runner = ParallelSweepRunner(
            sim=TEST_SIM, tpch=TINY_TPCH,
            cache=ResultCache(tmp_path / "cache"), executor=executor,
        )
        recorder = SweepEventRecorder()
        report = runner.execute(CELLS, sinks=[recorder])
        assert report.ok and report.ran == len(CELLS)
        assert report.crashes >= 1 and report.host_losses >= 1
        assert report.requeues >= 1
        assert recorder.counts["retry"] >= 1
        assert recorder.counts["hosts_lost"] >= 1
        assert recorder.counts["requeued"] >= 1
        # zero recomputed finished cells: each cell completed exactly once
        assert recorder.counts["done"] == len(CELLS)
        monkeypatch.delenv(FAULT_ENV)
        assert_grid_matches_serial(runner, CELLS)

    def test_worker_crash_is_ridden_out(self, monkeypatch, tmp_path):
        self.ride_out_crash(monkeypatch, tmp_path, select_executor(jobs=2))

    def test_host_lost_mid_chunk_requeues_to_survivor(
        self, monkeypatch, tmp_path
    ):
        spawned = f"cmd:{sys.executable} -m repro worker"
        self.ride_out_crash(
            monkeypatch, tmp_path, MultiHostExecutor([spawned, spawned])
        )

    def test_corrupt_result_is_retried_never_stored(self, monkeypatch, tmp_path):
        arm(monkeypatch, tmp_path, kind="corrupt", match="Q6:hpv:2")
        runner = make_runner(jobs=2, cache=ResultCache(tmp_path / "cache"))
        report = runner.execute(CELLS)
        assert report.ok and report.retries >= 1
        monkeypatch.delenv(FAULT_ENV)
        for cell in CELLS:
            res = runner.cell(cell)
            assert validate_result(res.spec, res) is None
        # nothing corrupt leaked into the shared cache
        assert len(ResultCache(tmp_path / "cache")) == len(CELLS)
        assert_grid_matches_serial(runner, CELLS)

    def test_hung_worker_hits_deadline(self, monkeypatch, tmp_path):
        arm(monkeypatch, tmp_path, kind="hang", hang_s=30.0, match="Q6:hpv:1")
        runner = make_runner(jobs=2)
        recorder = SweepEventRecorder()
        report = runner.execute(CELLS, timeout_s=1.5, sinks=[recorder])
        assert report.ok and report.ran == len(CELLS)
        # the hung host was killed and its cell re-queued long before
        # the hang would have ended on its own
        assert report.timeouts >= 1 and recorder.counts["requeued"] >= 1
        assert report.duration_s < 30.0
        assert recorder.counts["timeout"] >= 1
        monkeypatch.delenv(FAULT_ENV)
        assert_grid_matches_serial(runner, CELLS)

    def test_degrades_to_serial_when_pool_unhealthy(self, monkeypatch, tmp_path):
        # every cell crashes in every worker, forever: the fleet can
        # never become healthy, so the engine must fall back to serial
        # in-process execution — where the worker-scoped plan is unarmed.
        arm(monkeypatch, tmp_path, kind="crash", max_hits=10_000)
        runner = make_runner(jobs=2)
        recorder = SweepEventRecorder()
        report = runner.execute(
            CELLS[:3], policy=RetryPolicy(max_attempts=10),
            sinks=[recorder], max_pool_rebuilds=0,
        )
        assert report.degraded and report.ok
        assert report.ran == 3
        assert recorder.counts["degraded"] == 1
        monkeypatch.delenv(FAULT_ENV)
        assert_grid_matches_serial(runner, CELLS[:3])

    def test_persistent_corruption_quarantines_the_cell(
        self, monkeypatch, tmp_path
    ):
        # no shared cache and an inexhaustible fault ledger: every
        # attempt comes back mangled, so the cell must quarantine and
        # the rest of the grid must still complete
        arm(monkeypatch, tmp_path, kind="corrupt", match="Q6:hpv:2",
            max_hits=10_000)
        runner = make_runner(jobs=2)
        recorder = SweepEventRecorder()
        report = runner.execute(CELLS, sinks=[recorder])
        assert not report.ok
        (failure,) = report.failed
        assert failure.kind == "corrupt"
        assert failure.key == ("Q6", "hpv", 2, 1, "default")
        assert recorder.counts["quarantined"] == 1
        assert report.ran == len(CELLS) - 1
        monkeypatch.delenv(FAULT_ENV)
        good = [c for c in CELLS if c != ("Q6", "hpv", 2)]
        assert_grid_matches_serial(runner, good)

    def test_garbage_transport_degrades_to_local_fleet(self, monkeypatch):
        monkeypatch.delenv(FAULT_ENV, raising=False)
        # both "hosts" print junk instead of speaking the frame
        # protocol: the fleet is lost, and the degradation ladder
        # (configured fleet -> local fleet -> serial) must still
        # finish the grid
        junk = f'cmd:{sys.executable} -c "print(12345678)"'
        runner = ParallelSweepRunner(
            sim=TEST_SIM, tpch=TINY_TPCH,
            executor=MultiHostExecutor([junk, junk]),
        )
        recorder = SweepEventRecorder()
        report = runner.execute(
            CELLS, max_pool_rebuilds=0, sinks=[recorder]
        )
        assert report.ok and report.ran == len(CELLS)
        assert report.degraded
        assert recorder.counts["degraded"] >= 1
        assert_grid_matches_serial(runner, CELLS)

    def test_deterministic_error_quarantines_not_retries(self):
        # 64 procs exceeds the machine CPU count inside run_experiment:
        # a deterministic application error, so no retry budget is
        # burned and the rest of the sweep still completes.
        runner = make_runner(jobs=2)
        recorder = SweepEventRecorder()
        report = runner.execute(
            [("Q6", "hpv", 64)] + CELLS[:2], sinks=[recorder]
        )
        assert not report.ok
        assert report.ran == 2 and report.retries == 0
        (failure,) = report.failed
        assert failure.key == ("Q6", "hpv", 64, 1, "default")
        assert failure.kind == "error" and failure.attempts == 1
        assert failure.cause is not None
        assert recorder.counts["quarantined"] == 1
        d = failure.to_dict()
        assert d["cell"] == "Q6:hpv:64:1:default" and "cause" not in d

    def test_report_json_round_trips(self):
        runner = make_runner(jobs=1)
        report = runner.execute(CELLS[:2])
        d = json.loads(json.dumps(report.to_dict()))
        assert d["ok"] and d["total"] == 2 and d["failed_cells"] == []


class TestSerialRouting:
    """jobs=1 (or a single missing cell) must start no worker at all."""

    def test_jobs1_routes_serial(self, caplog):
        runner = make_runner(jobs=1)
        with caplog.at_level(logging.INFO, logger="repro.sweep"):
            report = runner.execute(CELLS[:2])
        assert report.ok and report.ran == 2
        assert any("routed to serial" in r.message for r in caplog.records)

    def test_single_missing_cell_routes_serial(self, caplog):
        runner = make_runner(jobs=4)
        with caplog.at_level(logging.INFO, logger="repro.sweep"):
            report = runner.execute([("Q6", "hpv", 1)])
        assert report.ok and report.ran == 1
        assert any("routed to serial" in r.message for r in caplog.records)

    def test_prewarm_contract_preserved(self):
        runner = make_runner(jobs=1)
        assert runner.prewarm(CELLS[:2]) == 2
        assert runner.prewarm(CELLS[:2]) == 0  # memoized


class TestCheckpointManifest:
    def fingerprints(self, runner, cells):
        return [
            spec_fingerprint(runner._spec(normalize_cell(c))) for c in cells
        ]

    def test_open_mark_reload(self, tmp_path):
        runner = make_runner(jobs=1)
        fps = self.fingerprints(runner, CELLS)
        keys = [normalize_cell(c) for c in CELLS]
        m = CheckpointManifest.open(tmp_path, keys, fps)
        assert m.n_done == 0 and m.status(keys[0]) == "pending"
        m.mark(keys[0], "done", attempts=1)
        m.mark(keys[1], "quarantined", attempts=3, error="crash: boom")
        reloaded = CheckpointManifest.open(tmp_path, keys, fps)
        assert reloaded.sweep_id == m.sweep_id
        assert reloaded.n_done == 1
        assert reloaded.status(keys[0]) == "done"
        assert reloaded.status(keys[1]) == "quarantined"
        assert reloaded.cells[key_str(keys[1])]["error"] == "crash: boom"

    def test_different_sweep_id_ignores_prior_progress(self, tmp_path):
        runner = make_runner(jobs=1)
        keys = [normalize_cell(c) for c in CELLS[:2]]
        m = CheckpointManifest.open(
            tmp_path, keys, self.fingerprints(runner, CELLS[:2])
        )
        m.mark(keys[0], "done")
        other = ParallelSweepRunner(
            sim=TEST_SIM.with_(cache_scale_log2=6), tpch=TINY_TPCH,
            executor=select_executor(jobs=1),
        )
        m2 = CheckpointManifest.open(
            tmp_path, keys, self.fingerprints(other, CELLS[:2])
        )
        assert m2.sweep_id != m.sweep_id and m2.n_done == 0

    def test_torn_manifest_degrades_to_fresh(self, tmp_path):
        runner = make_runner(jobs=1)
        keys = [normalize_cell(c) for c in CELLS[:2]]
        fps = self.fingerprints(runner, CELLS[:2])
        m = CheckpointManifest.open(tmp_path, keys, fps)
        m.mark(keys[0], "done")
        m.path.write_text("{torn")
        fresh = CheckpointManifest.open(tmp_path, keys, fps)
        assert fresh.n_done == 0

    def test_engine_checkpoints_progress(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        runner = make_runner(jobs=1, cache=cache)
        keys = [normalize_cell(c) for c in CELLS[:2]]
        fps = self.fingerprints(runner, CELLS[:2])
        m = CheckpointManifest.open(tmp_path / "cache", keys, fps)
        report = runner.execute(CELLS[:2], manifest=m)
        assert report.ok and m.n_done == 2
        reloaded = CheckpointManifest.open(tmp_path / "cache", keys, fps)
        assert reloaded.n_done == 2
        # a warm re-run marks everything done from the cache
        warm = make_runner(jobs=1, cache=ResultCache(tmp_path / "cache"))
        m2 = CheckpointManifest.open(tmp_path / "cache", keys, fps)
        report2 = warm.execute(CELLS[:2], manifest=m2)
        assert report2.memoized == 2 and report2.ran == 0
        assert m2.n_done == 2
