"""Golden-metrics harness: update/verify roundtrip, tamper detection,
and the committed snapshot set."""

import json

import pytest

from repro.verify.golden import (
    GOLDEN_FORMAT,
    GOLDEN_MODERN_PLATFORMS,
    capture_cell,
    cell_name,
    default_golden_dir,
    golden_cells,
    run_golden,
)

CELL = ("Q6", "hpv", 1)


class TestRoundtrip:
    def test_update_then_verify(self, tmp_path):
        up = run_golden(tmp_path, update=True, cells=[CELL])
        assert up.updated and up.ok
        assert (tmp_path / "Q6_hpv_p1.json").exists()
        check = run_golden(tmp_path, cells=[CELL])
        assert check.ok
        assert check.checked == ["Q6_hpv_p1"]
        assert not check.updated

    def test_capture_is_deterministic_in_process(self):
        assert capture_cell(CELL) == capture_cell(CELL)

    def test_snapshot_is_self_describing(self, tmp_path):
        run_golden(tmp_path, update=True, cells=[CELL])
        d = json.loads((tmp_path / "Q6_hpv_p1.json").read_text())
        assert d["format"] == GOLDEN_FORMAT
        assert (d["query"], d["platform"], d["n_procs"]) == CELL
        assert len(d["stats"]) == 1  # one active CPU => one stats vector
        assert d["wall_cycles"] > 0
        assert d["stats"][0]["reads"] > 0


class TestDetection:
    def test_tampered_counter_is_a_diff(self, tmp_path):
        run_golden(tmp_path, update=True, cells=[CELL])
        path = tmp_path / "Q6_hpv_p1.json"
        d = json.loads(path.read_text())
        d["wall_cycles"] += 1
        path.write_text(json.dumps(d))
        report = run_golden(tmp_path, cells=[CELL])
        assert not report.ok
        (diff,) = report.diffs
        assert diff.cell == "Q6_hpv_p1"
        assert any("wall_cycles" in s for s in diff.details)

    def test_tampered_nested_stat_is_a_diff(self, tmp_path):
        run_golden(tmp_path, update=True, cells=[CELL])
        path = tmp_path / "Q6_hpv_p1.json"
        d = json.loads(path.read_text())
        d["stats"][0]["level1_misses"] += 1
        path.write_text(json.dumps(d))
        report = run_golden(tmp_path, cells=[CELL])
        assert not report.ok
        assert any("level1_misses" in s for s in report.diffs[0].details)

    def test_missing_snapshot_is_a_diff(self, tmp_path):
        report = run_golden(tmp_path, cells=[CELL])
        assert not report.ok
        assert "missing" in report.diffs[0].details[0]

    def test_unreadable_snapshot_is_a_diff(self, tmp_path):
        (tmp_path / "Q6_hpv_p1.json").write_text("{nope")
        report = run_golden(tmp_path, cells=[CELL])
        assert not report.ok
        assert "unreadable" in report.diffs[0].details[0]


class TestCommittedGoldens:
    def test_full_matrix_is_committed(self):
        d = default_golden_dir()
        cells = golden_cells()
        # 3 queries x (2 paper platforms x 3 proc counts
        #              + 2 modern platforms x 4 proc counts)
        assert len(cells) == 42
        for cell in cells:
            assert (d / f"{cell_name(cell)}.json").exists(), cell_name(cell)

    def test_committed_cell_is_fresh(self):
        """One committed snapshot re-verified end to end; the full 42
        run under ``repro verify`` (CI), not per-test."""
        report = run_golden(default_golden_dir(), cells=[CELL])
        assert report.ok, [d.details for d in report.diffs]

    @pytest.mark.parametrize(
        "cell",
        [c for c in golden_cells() if c[1] in GOLDEN_MODERN_PLATFORMS],
        ids=cell_name,
    )
    def test_modern_cell_is_fresh(self, cell):
        """Every modern-machine snapshot re-verified in the suite: the
        batched engine's three-level, prefetch, islands and
        intervention lanes are pinned at every process count."""
        report = run_golden(default_golden_dir(), cells=[cell])
        assert report.ok, [d.details for d in report.diffs]
