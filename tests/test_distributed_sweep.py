"""Distributed sweeps over subprocess hosts: equivalence and faults.

The distributed path changes *where* cells run — worker subprocesses
speaking the :mod:`repro.core.wire` frame protocol — and nothing else:
every grid must come back bitwise-identical to a serial sweep.  These
tests drive a real two-host fleet (``--hosts local,local``) through
the fault checklist: a host lost mid-chunk, a hung host against the
deadline, a corrupted payload, a garbage-speaking transport, and a
coordinator killed ``-9`` and resumed from its checkpoint manifest.
"""

from __future__ import annotations

import io
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from tests.conftest import TINY_TPCH
from tests.test_resilience import (
    CELLS,
    arm,
    assert_grid_matches_serial,
)
from tests.test_resume_kill import (
    FROZEN_CELL_MATCH,
    SWEEP_ARGS,
    result_files,
    wait_for_first_cell_done,
)

from repro.cli import main
from repro.config import TEST_SIM
from repro.core.executors import (
    LocalPoolExecutor,
    MultiHostExecutor,
    host_argv,
    parse_hosts,
    select_executor,
)
from repro.core.parallel import ParallelSweepRunner
from repro.core.resilience import FAULT_ENV, FaultPlan, validate_result
from repro.core.resultcache import ResultCache
from repro.core.wire import WireError, read_frame, write_frame
from repro.errors import ConfigError
from repro.obs.sinks import SweepEventRecorder

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

#: The full tiny grid: both platforms, two queries, two widths.
GRID = [
    ("Q6", "hpv", 1), ("Q6", "hpv", 2), ("Q6", "sgi", 1), ("Q6", "sgi", 2),
    ("Q12", "hpv", 1), ("Q12", "hpv", 2), ("Q12", "sgi", 1), ("Q12", "sgi", 2),
]


def make_distributed(hosts="local,local", cache=None):
    return ParallelSweepRunner(
        sim=TEST_SIM, tpch=TINY_TPCH, cache=cache,
        executor=MultiHostExecutor(hosts),
    )


class TestHostSpecs:
    def test_parse_hosts_forms(self):
        assert parse_hosts("local,local") == ["local", "local"]
        assert parse_hosts("2") == ["local", "local"]
        assert parse_hosts(" local , ssh:u@h ") == ["local", "ssh:u@h"]
        assert parse_hosts(["local", "2"]) == ["local", "local", "local"]

    def test_parse_hosts_rejects_empty(self):
        with pytest.raises(ConfigError):
            parse_hosts("")
        with pytest.raises(ConfigError):
            parse_hosts(" , ,")
        with pytest.raises(ConfigError):
            parse_hosts("0")

    def test_host_argv_transports(self):
        assert host_argv("local")[-2:] == ["repro", "worker"]
        assert host_argv("ssh:u@h")[0] == "ssh" and "u@h" in host_argv("ssh:u@h")
        assert host_argv("cmd:echo hi") == ["echo", "hi"]
        with pytest.raises(ConfigError):
            host_argv("ssh:")
        with pytest.raises(ConfigError):
            host_argv("teleport:somewhere")

    def test_select_executor_routes_hosts(self):
        ex = select_executor(jobs=4, hosts="2")
        assert isinstance(ex, MultiHostExecutor) and len(ex.hosts) == 2
        assert isinstance(select_executor(jobs=2), LocalPoolExecutor)
        assert select_executor(jobs=1) is None


class TestWireFrames:
    def test_round_trip(self):
        buf = io.BytesIO()
        write_frame(buf, {"op": "hello", "host_cpus": 2})
        buf.seek(0)
        assert read_frame(buf) == {"op": "hello", "host_cpus": 2}
        assert read_frame(buf) is None  # clean EOF

    def test_truncated_frame_is_wire_error(self):
        buf = io.BytesIO()
        write_frame(buf, {"op": "hello"})
        trimmed = io.BytesIO(buf.getvalue()[:-3])
        with pytest.raises(WireError):
            read_frame(trimmed)

    def test_garbage_bytes_are_wire_error(self):
        with pytest.raises(WireError):
            # "42\n..." read as a length prefix demands a huge frame
            read_frame(io.BytesIO(b"42\n" + b"x" * 64))


class TestDistributedEqualsSerial:
    def test_two_host_grid_bitwise_equal(self):
        runner = make_distributed()
        recorder = SweepEventRecorder()
        report = runner.execute(GRID, sinks=[recorder])
        assert report.ok and report.ran == len(GRID)
        assert report.host_losses == 0 and report.requeues == 0
        assert not report.degraded
        # both hosts said hello and did real work
        assert len(recorder.host_cpus) == 2
        assert recorder.counts["dispatched"] >= 2
        assert recorder.counts["done"] == len(GRID)
        assert_grid_matches_serial(runner, GRID)

    def test_cli_hosts_cache_bitwise_equal_to_serial(self, tmp_path, capsys):
        args = [
            "sweep", "--query", "Q6", "--query", "Q12",
            "--procs", "1", "--procs", "2", "--sf", "0.0004",
        ]
        dist_dir = tmp_path / "dist"
        rc = main(args + ["--hosts", "local,local",
                          "--cache-dir", str(dist_dir), "--json"])
        out = capsys.readouterr().out
        payload = json.loads(out)["data"]
        assert rc == 0 and payload["ok"]

        ref_dir = tmp_path / "serial"
        assert main(args + ["--cache-dir", str(ref_dir)]) == 0
        capsys.readouterr()
        assert result_files(dist_dir) == result_files(ref_dir)
        assert len(result_files(dist_dir)) == payload["total"]

    def test_hosts_env_var_routes_distributed(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.setenv("REPRO_HOSTS", "2")
        rc = main(["sweep", "--query", "Q6", "--platform", "hpv",
                   "--procs", "1", "--sf", "0.0004", "--json"])
        out = capsys.readouterr().out
        payload = json.loads(out)["data"]
        assert rc == 0 and payload["ok"] and payload["total"] == 1


class TestDistributedFaults:
    """The resilience contracts survive the hop across processes: the
    worker-scoped fault plans arm inside subprocess hosts (via
    ``REPRO_WORKER=1``), never in the coordinator."""

    def test_host_lost_mid_chunk_requeues_to_survivor(
        self, monkeypatch, tmp_path
    ):
        # the crash fires inside one worker and takes the whole host
        # down (os._exit), so the coordinator sees EOF mid-chunk
        arm(monkeypatch, tmp_path, kind="crash", match="Q6:sgi:2")
        cache = ResultCache(tmp_path / "cache")
        runner = make_distributed(cache=cache)
        recorder = SweepEventRecorder()
        report = runner.execute(CELLS, sinks=[recorder])
        assert report.ok and report.ran == len(CELLS)
        assert report.host_losses >= 1 and report.crashes >= 1
        assert report.requeues >= 1
        assert recorder.counts["hosts_lost"] >= 1
        assert recorder.counts["requeued"] >= 1
        # zero recomputed finished cells: each cell completed exactly once
        assert recorder.counts["done"] == len(CELLS)
        monkeypatch.delenv(FAULT_ENV)
        assert_grid_matches_serial(runner, CELLS)

    def test_hung_host_hits_deadline(self, monkeypatch, tmp_path):
        arm(monkeypatch, tmp_path, kind="hang", hang_s=30.0,
            match="Q6:hpv:1")
        runner = make_distributed()
        recorder = SweepEventRecorder()
        report = runner.execute(CELLS, timeout_s=1.5, sinks=[recorder])
        assert report.ok and report.ran == len(CELLS)
        assert report.timeouts >= 1
        assert recorder.counts["timeout"] >= 1
        monkeypatch.delenv(FAULT_ENV)
        assert_grid_matches_serial(runner, CELLS)

    def test_corrupt_payload_is_retried_never_stored(
        self, monkeypatch, tmp_path
    ):
        arm(monkeypatch, tmp_path, kind="corrupt", match="Q6:hpv:2")
        cache = ResultCache(tmp_path / "cache")
        runner = make_distributed(cache=cache)
        report = runner.execute(CELLS)
        assert report.ok and report.retries >= 1
        monkeypatch.delenv(FAULT_ENV)
        for cell in CELLS:
            res = runner.cell(cell)
            assert validate_result(res.spec, res) is None
        # nothing corrupt leaked into the shared cache
        reread = ResultCache(tmp_path / "cache")
        assert len(reread) == len(CELLS)
        assert_grid_matches_serial(runner, CELLS)

    def test_persistent_corruption_quarantines_the_cell(
        self, monkeypatch, tmp_path
    ):
        # no shared cache and an inexhaustible fault ledger: every
        # attempt comes back mangled, so the cell must quarantine and
        # the rest of the grid must still complete
        arm(monkeypatch, tmp_path, kind="corrupt", match="Q6:hpv:2",
            max_hits=10_000)
        runner = make_distributed()
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

    def test_garbage_transport_degrades_to_local_pool(self, monkeypatch):
        monkeypatch.delenv(FAULT_ENV, raising=False)
        # both "hosts" print junk instead of speaking the frame
        # protocol: the fleet is lost, and the degradation ladder
        # (multi-host -> local pool -> serial) must still finish the grid
        junk = f'cmd:{sys.executable} -c "print(12345678)"'
        runner = make_distributed(hosts=[junk, junk])
        recorder = SweepEventRecorder()
        report = runner.execute(
            CELLS, max_pool_rebuilds=0, sinks=[recorder]
        )
        assert report.ok and report.ran == len(CELLS)
        assert report.degraded
        assert recorder.counts["degraded"] >= 1
        assert_grid_matches_serial(runner, CELLS)


DIST_SWEEP_ARGS = SWEEP_ARGS + ["--hosts", "local,local"]


@pytest.fixture
def interrupted_distributed_cache(tmp_path):
    """A cache dir left behind by a 2-host sweep whose coordinator —
    and, via the process group, its worker fleet — died to SIGKILL."""
    cache_dir = tmp_path / "interrupted"
    plan = FaultPlan(
        kind="hang", ledger=str(tmp_path / "ledger"), scope="any",
        hang_s=600.0, match=FROZEN_CELL_MATCH,
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env[FAULT_ENV] = plan.to_env()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro"] + DIST_SWEEP_ARGS
        + ["--cache-dir", str(cache_dir)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,  # one process group: coordinator + hosts
    )
    try:
        wait_for_first_cell_done(cache_dir)
    finally:
        # SIGKILL the whole group: the machine-went-away case
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait(timeout=30)
    assert proc.returncode == -signal.SIGKILL
    return cache_dir


class TestDistributedResumeAfterKill:
    def test_resume_recomputes_only_unfinished_cells(
        self, interrupted_distributed_cache, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.delenv(FAULT_ENV, raising=False)
        cache_dir = interrupted_distributed_cache
        before = result_files(cache_dir)
        assert len(before) == 1  # exactly the pre-kill cell survived

        rc = main(DIST_SWEEP_ARGS
                  + ["--cache-dir", str(cache_dir), "--resume", "--json"])
        out = capsys.readouterr().out
        payload = json.loads(out)["data"]
        assert rc == 0 and payload["ok"]
        assert payload["memoized"] == 1 and payload["ran"] == 1
        assert payload["cache"]["hits"] == 1

        # the surviving pre-kill entry was reused byte-for-byte ...
        after = result_files(cache_dir)
        assert len(after) == 2
        for name, blob in before.items():
            assert after[name] == blob

        # ... and the resumed distributed cache is bitwise-identical
        # to an uninterrupted *serial* run of the same sweep
        ref_dir = tmp_path / "reference"
        assert main(SWEEP_ARGS + ["--cache-dir", str(ref_dir)]) == 0
        capsys.readouterr()
        assert result_files(ref_dir) == after
