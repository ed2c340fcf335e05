"""Counter snapshots and the native counter-API façades."""

import pytest

from repro.cpu.counters import (
    CounterSnapshot,
    PA8200Counters,
    R10000Counters,
    facade_for,
)
from repro.errors import ConfigError


def snap(**kw):
    base = dict(cycles=1000, instructions=800, level1_misses=10, coherent_misses=4)
    base.update(kw)
    return CounterSnapshot(**base)


class TestSnapshot:
    def test_add(self):
        a = snap()
        a.level1_by_class = {"record": 5}
        b = snap(cycles=500)
        b.level1_by_class = {"record": 2, "meta": 1}
        a.add(b)
        assert a.cycles == 1500
        assert a.instructions == 1600
        assert a.level1_by_class == {"record": 7, "meta": 1}

    def test_scaled(self):
        s = snap().scaled(0.5)
        assert s.cycles == 500
        assert s.instructions == 400

    def test_scaled_classes(self):
        a = snap()
        a.coherent_by_class = {"index": 9}
        assert a.scaled(1 / 3).coherent_by_class == {"index": 3}

    def test_scaled_rounds_instead_of_truncating(self):
        """Regression: scaled() used int(), so averaging N repetitions
        silently dropped up to N-1 events per counter.  The schema's
        single rule is round-half-even."""
        s = snap(cycles=3, instructions=7)
        half = s.scaled(0.5)
        assert half.cycles == 2  # int() gave 1
        assert half.instructions == 4  # int() gave 3
        # half-to-even: .5 cases round to the even neighbour, no bias
        assert snap(cycles=5).scaled(0.5).cycles == 2
        assert snap(cycles=7).scaled(0.5).cycles == 4

    def test_scaled_rounding_rule_covers_class_dicts(self):
        a = snap()
        a.level1_by_class = {"record": 3}
        assert a.scaled(0.5).level1_by_class == {"record": 2}

    def test_third_scaling_error_bounded_by_half_event(self):
        """Averaging 3 runs of 100 events each now reports 100, and any
        scaled counter is within half an event of the exact value."""
        total = snap(cycles=300)
        assert total.scaled(1 / 3).cycles == 100
        for value in range(0, 50):
            got = snap(cycles=value).scaled(1 / 3).cycles
            assert abs(got - value / 3) <= 0.5


    def test_to_dict_is_asdict_without_sharing(self):
        import dataclasses

        a = snap()
        a.level1_by_class = {"record": 5, "index": 2}
        d = a.to_dict()
        assert d == dataclasses.asdict(a)
        assert list(d) == list(dataclasses.asdict(a))  # field order too
        d["level1_by_class"]["record"] = 0
        assert a.level1_by_class["record"] == 5  # a copy, like asdict's
        assert CounterSnapshot.from_dict(a.to_dict()) == a


class TestPA8200:
    def test_named_events(self):
        c = PA8200Counters(snap(), instr_skew=1.0)
        assert c.read_counter("PCNT_CYCLES") == 1000
        assert c.read_counter("PCNT_INSTRS") == 800
        assert c.read_counter("PCNT_DMISS") == 10

    def test_unknown_event(self):
        c = PA8200Counters(snap())
        with pytest.raises(ConfigError):
            c.read_counter("PCNT_BOGUS")


class TestR10000:
    def test_numbered_events(self):
        c = R10000Counters(snap(), instr_skew=1.0)
        assert c.ioctl_read(0) == 1000
        assert c.ioctl_read(17) == 800
        assert c.ioctl_read(25) == 10
        assert c.ioctl_read(26) == 4

    def test_instruction_skew_applied(self):
        # The paper's "little difference of the instruction event
        # counters" between the machines.
        c = R10000Counters(snap(), instr_skew=0.97)
        assert c.ioctl_read(17) == int(800 * 0.97)
        assert c.ioctl_read(0) == 1000  # only instructions are skewed

    def test_unknown_event(self):
        with pytest.raises(ConfigError):
            R10000Counters(snap()).ioctl_read(99)


class TestFacadeFactory:
    def test_dispatch(self):
        assert isinstance(facade_for("PA-8200", snap(), 1.0), PA8200Counters)
        assert isinstance(facade_for("MIPS R10000", snap(), 1.0), R10000Counters)

    def test_unknown_processor(self):
        with pytest.raises(ConfigError):
            facade_for("Alpha 21264", snap(), 1.0)
