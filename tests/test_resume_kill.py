"""Checkpoint/resume across a hard kill.

The headline resilience claim: a sweep killed with ``SIGKILL`` mid-run
and restarted with ``--resume`` recomputes only the unfinished cells
and ends with a result cache bitwise-identical to an uninterrupted
run.  The interrupted sweep is a real ``python -m repro`` subprocess,
frozen at a chosen cell by an ``"any"``-scoped hang
:class:`~repro.core.resilience.FaultPlan` so the kill lands at a
deterministic point.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.core.resilience import FAULT_ENV, FaultPlan

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

#: Two cells; the serial engine runs heaviest-first, so n_procs=2
#: completes before the fault plan freezes n_procs=1.
SWEEP_ARGS = [
    "sweep", "--query", "Q6", "--platform", "hpv",
    "--procs", "1", "--procs", "2", "--sf", "0.0004",
]
FIRST_CELL = "Q6:hpv:2:1:default"   # completes before the kill
FROZEN_CELL_MATCH = "Q6:hpv:1:1"    # the hang victim


def result_files(cache_dir: Path) -> dict:
    """Cache entries (manifest and tmp files excluded), name -> bytes."""
    return {
        p.name: p.read_bytes()
        for p in Path(cache_dir).glob("*.json")
        if not p.name.startswith("sweep-")
    }


def wait_for_first_cell_done(cache_dir: Path, timeout_s: float = 120.0) -> Path:
    """Poll the checkpoint manifest until FIRST_CELL is marked done."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        for path in Path(cache_dir).glob("sweep-*.manifest.json"):
            try:
                d = json.loads(path.read_text())  # writes are atomic
            except ValueError:
                continue
            if d.get("cells", {}).get(FIRST_CELL, {}).get("status") == "done":
                return path
        time.sleep(0.05)
    raise AssertionError("first cell never completed in the subprocess")


@pytest.fixture
def interrupted_cache(tmp_path):
    """A cache dir left behind by a sweep killed -9 mid-run."""
    cache_dir = tmp_path / "interrupted"
    plan = FaultPlan(
        kind="hang", ledger=str(tmp_path / "ledger"), scope="any",
        hang_s=600.0, match=FROZEN_CELL_MATCH,
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env[FAULT_ENV] = plan.to_env()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro"] + SWEEP_ARGS
        + ["--cache-dir", str(cache_dir)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        manifest_path = wait_for_first_cell_done(cache_dir)
    finally:
        # SIGKILL: no cleanup handlers, no atexit — the hard case
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    assert proc.returncode == -signal.SIGKILL
    return cache_dir, manifest_path


class TestResumeAfterKill:
    def test_resume_recomputes_only_unfinished_cells(
        self, interrupted_cache, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.delenv(FAULT_ENV, raising=False)
        cache_dir, _manifest = interrupted_cache
        before = result_files(cache_dir)
        assert len(before) == 1  # exactly the pre-kill cell survived

        rc = main(
            SWEEP_ARGS + ["--cache-dir", str(cache_dir), "--resume", "--json"]
        )
        out = capsys.readouterr().out
        payload = json.loads(out)["data"]
        assert rc == 0 and payload["ok"]
        # the completed cell came from the cache, only the frozen one ran
        assert payload["memoized"] == 1 and payload["ran"] == 1
        assert payload["cache"]["hits"] == 1
        assert payload["exit_code"] == 0

        # the surviving pre-kill entry was reused byte-for-byte
        after = result_files(cache_dir)
        assert len(after) == 2
        for name, blob in before.items():
            assert after[name] == blob

        # ... and the whole cache is bitwise-identical to an
        # uninterrupted run of the same command
        ref_dir = tmp_path / "reference"
        assert main(SWEEP_ARGS + ["--cache-dir", str(ref_dir)]) == 0
        capsys.readouterr()
        assert result_files(ref_dir) == after

    def test_second_resume_is_a_pure_noop(
        self, interrupted_cache, capsys, monkeypatch
    ):
        monkeypatch.delenv(FAULT_ENV, raising=False)
        cache_dir, _manifest = interrupted_cache
        assert main(SWEEP_ARGS + ["--cache-dir", str(cache_dir), "--resume"]) == 0
        capsys.readouterr()
        rc = main(
            SWEEP_ARGS + ["--cache-dir", str(cache_dir), "--resume", "--json"]
        )
        captured = capsys.readouterr()
        # progress goes to stderr: stdout is the envelope alone
        assert "resume: 2 of 2 cells already complete" in captured.err
        payload = json.loads(captured.out)["data"]
        assert rc == 0
        assert payload["ran"] == 0 and payload["memoized"] == 2
