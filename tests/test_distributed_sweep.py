"""Distributed sweeps over worker hosts: equivalence, wire, versions.

The distributed path changes *where* cells run — worker processes
speaking the :mod:`repro.core.wire` frame protocol — and nothing else:
every grid must come back bitwise-identical to a serial sweep.  These
tests drive a real two-host fleet (``--hosts local,local``) and check
host specs, wire frames, the one-code-version rule, and a coordinator
killed ``-9`` and resumed from its checkpoint manifest.  The fault
checklist every executor shares lives in ``tests/test_resilience.py``
(``TestEngineUnderFaults``); ``TestDistributedFaults`` runs its hang
and corrupt cases over spawned ``repro worker`` hosts as well.
"""

from __future__ import annotations

import io
import json
import os
import signal
import sys

import pytest

from tests.conftest import TINY_TPCH
from tests.test_resilience import CELLS, arm, assert_grid_matches_serial
from tests.test_resume_kill import (
    SWEEP_ARGS,
    result_files,
    start_frozen_sweep,
    wait_for_first_cell_done,
)

from repro.cli import main
from repro.config import TEST_SIM
from repro.core import hostworker, resultcache
from repro.core.executors import (
    MultiHostExecutor,
    SubprocessHostExecutor,
    host_argv,
    parse_hosts,
    select_executor,
)
from repro.core.parallel import ParallelSweepRunner
from repro.core.resilience import FAULT_ENV, validate_result
from repro.core.resultcache import ResultCache, code_version
from repro.core.wire import (
    CodeVersionError,
    WireError,
    WorkerContext,
    read_frame,
    write_frame,
)
from repro.errors import ConfigError
from repro.obs.sinks import SweepEventRecorder

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
        jobs = select_executor(jobs=2)
        assert isinstance(jobs, MultiHostExecutor)
        assert [h.host for h in jobs.hosts] == ["local", "local"]
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

    def test_local_hosts_spawn_where_fork_is_missing(self, monkeypatch):
        monkeypatch.delenv(FAULT_ENV, raising=False)
        monkeypatch.delattr(os, "fork")
        runner = make_distributed()
        recorder = SweepEventRecorder()
        report = runner.execute(CELLS, sinks=[recorder])
        assert report.ok and report.host_losses == 0 and not report.degraded
        # each host said hello from a `repro worker` interpreter of its own
        assert len(recorder.host_cpus) == 2
        assert_grid_matches_serial(runner, CELLS)

    def test_hosts_env_var_routes_distributed(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.setenv("REPRO_HOSTS", "2")
        rc = main(["sweep", "--query", "Q6", "--platform", "hpv",
                   "--procs", "1", "--sf", "0.0004", "--json"])
        out = capsys.readouterr().out
        payload = json.loads(out)["data"]
        assert rc == 0 and payload["ok"] and payload["total"] == 1


#: A host that starts ``repro worker`` in an interpreter of its own,
#: the transport ``ssh:`` and ``cmd:`` hosts use.
SPAWNED_HOST = f"cmd:{sys.executable} -m repro worker"


class TestDistributedFaults:
    """The resilience contracts survive the hop into spawned
    interpreters: the worker-scoped fault plans arm inside the ``repro
    worker`` hosts (via ``REPRO_WORKER=1``), never in the coordinator."""

    def test_hung_host_hits_deadline(self, monkeypatch, tmp_path):
        arm(monkeypatch, tmp_path, kind="hang", hang_s=30.0,
            match="Q6:hpv:1")
        runner = make_distributed(hosts=[SPAWNED_HOST, SPAWNED_HOST])
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
        runner = make_distributed(
            hosts=[SPAWNED_HOST, SPAWNED_HOST],
            cache=ResultCache(tmp_path / "cache"),
        )
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


#: A ``cmd:`` host whose worker reports a code version of its own.
OTHER_VERSION_HOST = (
    f'cmd:{sys.executable} -c "import repro.core.resultcache as rc; '
    "rc._code_version = '0' * 16; from repro.core.hostworker import main; "
    'raise SystemExit(main())"'
)


def cached_codes(cache_dir) -> set:
    """The code versions the result files under ``cache_dir`` carry."""
    return {json.loads(blob)["code"] for blob in result_files(cache_dir).values()}


class OneLoss:
    """A sink that fails a sweep at its second host loss, so a refused
    host started again fails the test instead of looping forever."""

    seen = 0

    def on_host_lost(self, host, error, n_requeued) -> None:
        self.seen += 1
        assert self.seen == 1, f"host lost again: {error}"


class TestOneCodeVersion:
    """A sweep writes every result under its coordinator's code version."""

    def test_local_hosts_write_under_the_coordinators_version(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.delenv(FAULT_ENV, raising=False)
        monkeypatch.setattr(resultcache, "_code_version", "sentinel-version")
        cache_dir = tmp_path / "cache"
        runner = ParallelSweepRunner(
            sim=TEST_SIM, tpch=TINY_TPCH, cache=ResultCache(cache_dir),
            executor=select_executor(hosts="2"),
        )
        report = runner.execute(CELLS[:2])
        assert report.ok and report.ran == 2
        assert cached_codes(cache_dir) == {"sentinel-version"}

    def test_worker_on_another_version_refuses_typed(self, tmp_path):
        executor = MultiHostExecutor([OTHER_VERSION_HOST])
        executor.start(WorkerContext(
            sim=TEST_SIM, tpch=TINY_TPCH, cache_dir=str(tmp_path),
        ))
        try:
            event = executor.next_event(60)
            while event is not None and event.kind != "lost":
                event = executor.next_event(60)
        finally:
            executor.abandon()
        assert event is not None and isinstance(event.cause, CodeVersionError)
        assert "code version" in event.error
        assert result_files(tmp_path) == {}

    def test_refused_fleet_falls_back_under_one_version(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.delenv(FAULT_ENV, raising=False)
        cache_dir = tmp_path / "cache"
        runner = make_distributed(
            hosts=[OTHER_VERSION_HOST, OTHER_VERSION_HOST],
            cache=ResultCache(cache_dir),
        )
        report = runner.execute(CELLS[:2])
        assert report.ok and report.ran == 2 and report.degraded
        # a refusal is the host's fault, not the cells'
        assert report.host_losses >= 1 and report.crashes == 0
        # one teardown, then no refused host is started again
        assert report.pool_rebuilds == 1
        assert cached_codes(cache_dir) == {code_version()}

    def test_refused_host_leaves_its_cells_to_the_fleet(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.delenv(FAULT_ENV, raising=False)
        cache_dir = tmp_path / "cache"
        runner = make_distributed(
            hosts=[OTHER_VERSION_HOST, "local"], cache=ResultCache(cache_dir),
        )
        report = runner.execute(CELLS, sinks=[OneLoss()])
        assert report.ok and report.ran == len(CELLS) and report.crashes == 0
        assert report.pool_rebuilds == 0 and not report.degraded
        assert runner.executor.hosts[0].refused
        assert cached_codes(cache_dir) == {code_version()}
        assert len(result_files(cache_dir)) == len(CELLS)


class TestForkedHosts:
    """A forked ``local`` host is as isolated as a spawned one."""

    def test_worker_reads_eof_while_another_host_lives(self):
        context = WorkerContext(sim=TEST_SIM, tpch=TINY_TPCH)
        first, second = SubprocessHostExecutor(), SubprocessHostExecutor()
        first.start(context)
        second.start(context)
        try:
            # the second worker must not hold the first one's input open
            first._proc.stdin.close()
            assert first._proc.wait(timeout=30) == 0
        finally:
            first.close()
            second.close()

    def test_stray_print_in_worker_stays_off_stdout(self, monkeypatch, capfd):
        monkeypatch.delenv(FAULT_ENV, raising=False)
        run_cell = hostworker.run_cell_guarded

        def chatty(*args):
            os.write(1, b"stray worker output\n")  # fd 1, as print reaches it
            return run_cell(*args)

        monkeypatch.setattr(hostworker, "run_cell_guarded", chatty)
        report = make_distributed().execute(CELLS[:2])
        assert report.ok and report.ran == 2
        out, err = capfd.readouterr()
        assert "stray worker output" not in out
        assert "stray worker output" in err


DIST_SWEEP_ARGS = SWEEP_ARGS + ["--hosts", "local,local"]


@pytest.fixture
def interrupted_distributed_cache(tmp_path):
    """A cache dir left behind by a 2-host sweep whose coordinator —
    and, via the process group, its worker fleet — died to SIGKILL."""
    cache_dir = tmp_path / "interrupted"
    proc = start_frozen_sweep(
        tmp_path, DIST_SWEEP_ARGS + ["--cache-dir", str(cache_dir)],
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
