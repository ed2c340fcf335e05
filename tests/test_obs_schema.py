"""The declarative counter schema: generated classes, round-trips,
rounding, and drift checks.

These are the property tests the refactor leans on: the snapshot and
hot-path accumulator classes are *generated* from
:mod:`repro.obs.schema`, so the tests seed random counter vectors and
assert the algebra (add/scaled/serialize) instead of hand-picking
values per field.
"""

import pickle
import random

import pytest

from repro.cpu.counters import CounterSnapshot, PA8200Counters, R10000Counters
from repro.mem.memsys import CpuMemStats
from repro.obs import schema
from repro.trace.classify import CLASS_NAMES, NUM_CLASSES


def random_snapshot(rng: random.Random) -> CounterSnapshot:
    snap = CounterSnapshot()
    for name in schema.SCALAR_FIELD_NAMES:
        setattr(snap, name, rng.randrange(0, 1_000_000))
    for name in schema.BY_CLASS_FIELD_NAMES:
        setattr(
            snap,
            name,
            {c: rng.randrange(0, 10_000) for c in rng.sample(CLASS_NAMES, 3)},
        )
    return snap


def random_memstats(rng: random.Random) -> CpuMemStats:
    st = CpuMemStats()
    for f in schema.MEM_FIELDS:
        if f.shape == schema.SHAPE_SCALAR:
            setattr(st, f.name, rng.randrange(0, 1_000_000))
        elif f.shape == schema.SHAPE_KIND_MATRIX:
            setattr(
                st,
                f.name,
                [
                    [rng.randrange(0, 1000) for _ in range(schema.N_MISS_KINDS)]
                    for _ in range(NUM_CLASSES)
                ],
            )
        else:
            n = (
                schema.N_MISS_KINDS
                if f.shape == schema.SHAPE_KIND_VECTOR
                else NUM_CLASSES
            )
            setattr(st, f.name, [rng.randrange(0, 1000) for _ in range(n)])
    return st


class TestSnapshotProperties:
    @pytest.mark.parametrize("seed", [0, 1, 0xC0FFEE])
    def test_serialize_round_trip(self, seed):
        snap = random_snapshot(random.Random(seed))
        back = CounterSnapshot.from_dict(snap.to_dict())
        assert back == snap
        assert back is not snap

    @pytest.mark.parametrize("seed", [7, 42])
    def test_add_matches_fieldwise_sum(self, seed):
        rng = random.Random(seed)
        a, b = random_snapshot(rng), random_snapshot(rng)
        expected_cycles = a.cycles + b.cycles
        expected_classes = dict(a.level1_by_class)
        for k, v in b.level1_by_class.items():
            expected_classes[k] = expected_classes.get(k, 0) + v
        a.add(b)
        assert a.cycles == expected_cycles
        assert a.level1_by_class == expected_classes

    @pytest.mark.parametrize("seed", [3, 99])
    def test_scaled_uses_the_schema_rule_everywhere(self, seed):
        snap = random_snapshot(random.Random(seed))
        factor = 1 / 3
        out = snap.scaled(factor)
        for name in schema.SCALAR_FIELD_NAMES:
            assert getattr(out, name) == schema.scale_counter(
                getattr(snap, name), factor
            )
        for name in schema.BY_CLASS_FIELD_NAMES:
            assert getattr(out, name) == {
                k: schema.scale_counter(v, factor)
                for k, v in getattr(snap, name).items()
            }

    def test_from_dict_rejects_missing_keys(self):
        d = CounterSnapshot().to_dict()
        d.pop("cycles")
        with pytest.raises(ValueError, match="missing.*cycles"):
            CounterSnapshot.from_dict(d)

    def test_from_dict_rejects_extra_keys(self):
        d = CounterSnapshot().to_dict()
        d["bogus_counter"] = 1
        with pytest.raises(ValueError, match="extra.*bogus_counter"):
            CounterSnapshot.from_dict(d)

    def test_field_order_matches_schema(self):
        """Serialization order is declaration order; the golden files
        and cached results depend on it."""
        assert tuple(CounterSnapshot().to_dict()) == schema.SNAPSHOT_FIELD_NAMES

    def test_generated_class_pickles(self):
        """The generated class must pickle by reference, like a
        hand-written dataclass."""
        snap = random_snapshot(random.Random(11))
        assert pickle.loads(pickle.dumps(snap)) == snap


class TestMemStatsProperties:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_serialize_round_trip(self, seed):
        st = random_memstats(random.Random(seed))
        back = CpuMemStats.from_dict(st.to_dict())
        assert back.to_dict() == st.to_dict()

    def test_to_dict_does_not_alias(self):
        st = CpuMemStats()
        d = st.to_dict()
        d["miss_kind"][0] = 99
        d["miss_kind_by_class"][0][0] = 99
        assert st.miss_kind[0] == 0
        assert st.miss_kind_by_class[0][0] == 0

    @pytest.mark.parametrize("seed", [2, 13])
    def test_merge_matches_elementwise_sum(self, seed):
        rng = random.Random(seed)
        a, b = random_memstats(rng), random_memstats(rng)
        before = a.to_dict()
        other = b.to_dict()
        a.merge(b)
        after = a.to_dict()
        for f in schema.MEM_FIELDS:
            if f.shape == schema.SHAPE_SCALAR:
                assert after[f.name] == before[f.name] + other[f.name]
            elif f.shape == schema.SHAPE_KIND_MATRIX:
                for i in range(NUM_CLASSES):
                    for k in range(schema.N_MISS_KINDS):
                        assert (
                            after[f.name][i][k]
                            == before[f.name][i][k] + other[f.name][i][k]
                        )
            else:
                for i, v in enumerate(other[f.name]):
                    assert after[f.name][i] == before[f.name][i] + v

    def test_from_dict_missing_field_raises(self):
        d = CpuMemStats().to_dict()
        d.pop("upgrades")
        with pytest.raises(KeyError):
            CpuMemStats.from_dict(d)


class TestDrift:
    def test_schema_agrees_with_every_consumer(self):
        """The CI schema-drift gate, as a test: facades, accumulators,
        snapshot sources, engine counters, and metrics accessors."""
        assert schema.check_drift() == []

    def test_facade_maps_name_schema_fields(self):
        for attr in PA8200Counters.EVENTS.values():
            assert attr in schema.FIELD_BY_NAME
        for attr in R10000Counters.EVENTS_BY_NUMBER.values():
            assert attr in schema.FIELD_BY_NAME

    def test_metrics_accessors_detected_by_ast_walk(self):
        """counter_attrs_used sees through the annotation convention."""
        from repro.core import metrics

        used = schema.counter_attrs_used(metrics)
        assert "cycles" in used
        assert used <= set(schema.SNAPSHOT_FIELD_NAMES)

    def test_drift_detected_for_rogue_accessor(self):
        """A module reading a counter the schema dropped is reported.
        ``counter_attrs_used`` goes through ``inspect.getsource``, so
        the rogue module must be a real file."""
        import importlib.util
        import tempfile
        from pathlib import Path

        source = (
            "from repro.cpu.counters import CounterSnapshot\n"
            "def bad(snap: CounterSnapshot):\n"
            "    return snap.not_a_counter\n"
        )
        with tempfile.TemporaryDirectory() as td:
            path = Path(td) / "rogue_metrics.py"
            path.write_text(source)
            spec = importlib.util.spec_from_file_location("rogue_metrics", path)
            mod = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(mod)
            problems = schema.check_drift(extra_modules=(mod,))
        assert any("not_a_counter" in p for p in problems)

    def test_schema_version_is_in_cache_fingerprint(self):
        from repro.core.experiment import ExperimentSpec
        from repro.core.resultcache import spec_fingerprint

        assert isinstance(schema.SCHEMA_VERSION, int)
        # the fingerprint is a pure function of (format, schema, code, spec)
        a = spec_fingerprint(ExperimentSpec())
        b = spec_fingerprint(ExperimentSpec())
        assert a == b
