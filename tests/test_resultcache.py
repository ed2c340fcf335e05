"""ResultCache corruption handling.

Every way a persistent entry can rot on disk — truncation, garbage
bytes, the wrong JSON shape, missing fields, another code version —
must degrade to a counted miss with a :class:`ResultCacheWarning`, and
never crash or serve wrong numbers."""

import json
import warnings

import pytest

from tests.conftest import TINY_TPCH
from tests.test_parallel_sweep import result_key

from repro.config import TEST_SIM
from repro.core import resultcache
from repro.core.experiment import ExperimentSpec
from repro.core.resultcache import (
    FORMAT,
    ResultCache,
    ResultCacheWarning,
    spec_fingerprint,
)
from repro.core.sweep import SweepRunner

CELL = ("Q6", "hpv", 1)


def seed_entry(tmp_path, cell=CELL):
    """Populate the cache with one real result; return its file."""
    cache = ResultCache(tmp_path)
    SweepRunner(sim=TEST_SIM, tpch=TINY_TPCH, cache=cache).cell(*cell)
    (entry,) = tmp_path.glob("*.json")
    return entry


def reread(tmp_path, cell=CELL):
    """Fresh cache + runner; returns (cache, result) after one cell."""
    cache = ResultCache(tmp_path)
    runner = SweepRunner(sim=TEST_SIM, tpch=TINY_TPCH, cache=cache)
    return cache, runner.cell(*cell)


class TestCorruptEntries:
    def test_truncated_entry_is_a_counted_miss(self, tmp_path):
        entry = seed_entry(tmp_path)
        text = entry.read_text()
        entry.write_text(text[: len(text) // 2])
        with pytest.warns(ResultCacheWarning, match="corrupt"):
            cache, result = reread(tmp_path)
        assert cache.stats == {"hits": 0, "misses": 1, "corrupt": 1, "stale": 0}
        assert result.runs  # the cell re-ran instead of crashing

    def test_garbage_bytes(self, tmp_path):
        entry = seed_entry(tmp_path)
        entry.write_bytes(b"\x00\xffnot json at all\x7f")
        with pytest.warns(ResultCacheWarning, match="corrupt"):
            cache, _ = reread(tmp_path)
        assert cache.stats["corrupt"] == 1

    def test_non_object_json(self, tmp_path):
        entry = seed_entry(tmp_path)
        entry.write_text("[1, 2, 3]")
        with pytest.warns(ResultCacheWarning, match="corrupt"):
            cache, _ = reread(tmp_path)
        assert cache.stats["corrupt"] == 1

    def test_missing_field_in_valid_json(self, tmp_path):
        entry = seed_entry(tmp_path)
        d = json.loads(entry.read_text())
        del d["runs"][0]["wall_cycles"]
        entry.write_text(json.dumps(d))
        with pytest.warns(ResultCacheWarning, match="bad structure"):
            cache, _ = reread(tmp_path)
        assert cache.stats["corrupt"] == 1


class TestStaleEntries:
    def test_stale_code_version_counts_but_warns_once(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = SweepRunner(sim=TEST_SIM, tpch=TINY_TPCH, cache=cache)
        runner.cell("Q6", "hpv", 1)
        runner.cell("Q6", "sgi", 1)
        for entry in tmp_path.glob("*.json"):
            d = json.loads(entry.read_text())
            d["code"] = "0" * 16
            entry.write_text(json.dumps(d))
        fresh = ResultCache(tmp_path)
        r2 = SweepRunner(sim=TEST_SIM, tpch=TINY_TPCH, cache=fresh)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            r2.cell("Q6", "hpv", 1)
            r2.cell("Q6", "sgi", 1)
        ours = [w for w in caught if issubclass(w.category, ResultCacheWarning)]
        assert len(ours) == 1  # every edit stales the whole cache: warn once
        assert "stale" in str(ours[0].message)
        assert fresh.stats == {"hits": 0, "misses": 2, "corrupt": 0, "stale": 2}

    def test_stale_format_version(self, tmp_path):
        entry = seed_entry(tmp_path)
        d = json.loads(entry.read_text())
        d["format"] = FORMAT + 1
        entry.write_text(json.dumps(d))
        with pytest.warns(ResultCacheWarning, match="stale"):
            cache, _ = reread(tmp_path)
        assert cache.stats["stale"] == 1

    def test_describe_mentions_bad_entries(self, tmp_path):
        entry = seed_entry(tmp_path)
        entry.write_text("{broken")
        with pytest.warns(ResultCacheWarning):
            cache, _ = reread(tmp_path)
        assert "1 corrupt" in cache.describe()


class TestFingerprintMemo:
    SPEC = ExperimentSpec(query="Q6", platform="hpv", n_procs=1,
                          tpch=TINY_TPCH, sim=TEST_SIM)

    def test_computed_once_per_spec(self, monkeypatch):
        calls = []
        real = resultcache.asdict
        monkeypatch.setattr(
            resultcache, "asdict", lambda s: calls.append(s) or real(s)
        )
        resultcache._fingerprint.cache_clear()
        first = spec_fingerprint(self.SPEC)
        equal_spec = ExperimentSpec(query="Q6", platform="hpv", n_procs=1,
                                    tpch=TINY_TPCH, sim=TEST_SIM)
        assert spec_fingerprint(equal_spec) == first
        assert len(calls) == 1
        other = spec_fingerprint(ExperimentSpec(
            query="Q6", platform="hpv", n_procs=2, tpch=TINY_TPCH, sim=TEST_SIM,
        ))
        assert other != first and len(calls) == 2

    def test_a_version_change_is_never_answered_from_the_memo(
        self, monkeypatch
    ):
        """Everything the address mixes in besides the spec is part of
        the memo key: a schema or code edit retires the memo with the
        entries it addressed."""
        current = spec_fingerprint(self.SPEC)
        with monkeypatch.context() as m:
            m.setattr(resultcache, "SCHEMA_VERSION",
                      resultcache.SCHEMA_VERSION + 1)
            assert spec_fingerprint(self.SPEC) != current
        with monkeypatch.context() as m:
            m.setattr(resultcache, "_code_version", "0" * 16)
            assert spec_fingerprint(self.SPEC) != current
        with monkeypatch.context() as m:
            m.setattr(resultcache, "FORMAT", FORMAT + 1)
            assert spec_fingerprint(self.SPEC) != current
        assert spec_fingerprint(self.SPEC) == current

    def test_bounded(self):
        bound = resultcache._fingerprint.cache_info().maxsize
        assert bound is not None
        for n in range(1, bound + 50):
            spec_fingerprint(ExperimentSpec(
                query="Q6", platform="hpv", n_procs=n,
                tpch=TINY_TPCH, sim=TEST_SIM,
            ))
        assert resultcache._fingerprint.cache_info().currsize == bound


class TestRecovery:
    def test_rerun_repopulates_with_correct_numbers(self, tmp_path):
        entry = seed_entry(tmp_path)
        baseline = SweepRunner(sim=TEST_SIM, tpch=TINY_TPCH).cell(*CELL)
        entry.write_text("{broken")
        with pytest.warns(ResultCacheWarning):
            _, recomputed = reread(tmp_path)
        assert result_key(recomputed) == result_key(baseline)
        # ...and the rewritten entry is whole again: next reader hits.
        cache, again = reread(tmp_path)
        assert cache.stats == {"hits": 1, "misses": 0, "corrupt": 0, "stale": 0}
        assert result_key(again) == result_key(baseline)

    def test_len_tolerates_missing_directory(self, tmp_path):
        assert len(ResultCache(tmp_path / "never-created")) == 0
