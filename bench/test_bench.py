"""Checks of the benchmark itself: ``python -m pytest bench/``.

Not collected by the tier-1 suite (``testpaths = ["tests"]``); every run
here is a ``--smoke`` run of one workload.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import compare  # noqa: E402
from workloads import WORKLOADS, grid_axes, units_for  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
CONTRACT = json.loads((REPO / "BENCHMARK.json").read_text())


def run_bench(root: Path, out: Path, *extra):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke", "--out", str(out), *extra],
        cwd=str(root), capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None)


def test_contract_names_units_and_bounds():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["bench"]
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    names += [w["name"] for w in CONTRACT["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    for m in CONTRACT["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in CONTRACT["workloads"])


def test_units_scale_with_seconds_and_service_grid_is_canonical():
    assert units_for(CONTRACT["run_seconds"], False)["passes"] >= 1
    assert units_for(CONTRACT["run_seconds"], False)["warm_n"] >= 100  # >=10 beyond p90
    assert units_for(3, True) == {"passes": 1, "warm_n": 5, "cold_legs": 1, "setups": 1}
    assert len(grid_axes(WORKLOADS["service"].cells)["nprocs"]) == 3


@pytest.mark.parametrize("workload", ["index", "service"])
def test_result_line_schema_and_traced_equals_untraced(tmp_path, workload):
    proc, line = run_bench(REPO, tmp_path, "--workload", workload, "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}
    for m in CONTRACT["end_to_end"]:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0

    proc, line = run_bench(REPO, tmp_path, "--workload", workload, "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(line["metrics"]) == {m["name"] for m in CONTRACT["per_layer"]}
    assert line["metrics"]["cpu.instructions"]["value"] > 0
    trace = json.loads((tmp_path / f"trace_{workload}.json").read_text())
    assert {"name", "ts", "dur", "args"} <= set(trace["traceEvents"][0])

    plain = json.loads((tmp_path / f"{workload}.json").read_text())
    traced = json.loads((tmp_path / f"{workload}.traced.json").read_text())
    assert plain["comparable"] is False  # smoke
    a, b = plain["runs"][0], traced["runs"][0]
    assert a["digests"] == b["digests"] and a["digests"]
    assert a["extra"]["counts"] == b["extra"]["counts"]


def test_corrupted_pin_is_a_failed_operation(tmp_path):
    root = tmp_path / "checkout"
    shutil.copytree(BENCH_DIR, root / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", root)
    (root / "src").symlink_to(REPO / "src")
    pins_path = root / "bench" / "expected" / "index.json"
    pins = json.loads(pins_path.read_text())
    cell = next(iter(pins["cells"]))
    pins["cells"][cell] = "0" * 64
    pins_path.write_text(json.dumps(pins))
    proc, line = run_bench(root, tmp_path / "out", "--workload", "index")
    assert proc.returncode != 0
    assert line["correct"] is False and line["failed"] > 0
    doc = json.loads((tmp_path / "out" / "index.json").read_text())
    assert doc["runs"][0]["end_to_end"]["fail_frac"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    root = tmp_path / "bare"
    shutil.copytree(BENCH_DIR, root / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", root)
    proc, line = run_bench(root, tmp_path / "out", "--workload", "scan")
    assert proc.returncode != 0 and line is None


def test_compare_verdicts():
    assert compare.verdict([10.0], [11.5], "lower", 0.10) == "worse"
    assert compare.verdict([10.0], [8.5], "lower", 0.10) == "better"
    assert compare.verdict([10.0], [10.5], "lower", 0.10) == "same"
    assert compare.verdict([10.0], [8.5], "higher", 0.10) == "worse"
    assert compare.verdict([8, 10, 12, 14], [8.5, 10.5, 12.5, 14.5], "lower", 0.10) == "unresolved"
    assert compare.verdict([10, 11], [8, 9], "lower", 0.50) == "better"  # every run wins
