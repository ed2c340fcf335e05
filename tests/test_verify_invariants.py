"""Invariant checker: attachment mechanics, clean runs, detection."""

import pytest

from tests.verify_helpers import SkippedInvalidationMemSys

from repro.mem.directory import NO_OWNER
from repro.obs.bus import SinkError
from repro.mem.machine import platform
from repro.mem.memsys import MemorySystem
from repro.trace.synthetic import SyntheticSpec, generate
from repro.verify.fuzz import FUZZ_SCALE_LOG2, drive_trace, fingerprint
from repro.verify.invariants import (
    BatchedInvariantChecker,
    InvariantChecker,
    InvariantViolation,
    attach,
    attach_batched,
    checking,
    checking_batched,
)

SPEC = SyntheticSpec(seed=0xBEEF, n_cpus=4, n_batches=6, refs_per_batch=40)


def build(plat, memsys_cls=MemorySystem, fast_path=True, spec=SPEC):
    aspace, trace = generate(spec)
    machine = platform(plat, n_cpus=spec.n_cpus).scaled(FUZZ_SCALE_LOG2)
    return memsys_cls(machine, aspace, fast_path=fast_path), machine, trace


class TestAttachment:
    def test_detached_memsys_has_no_instance_shadows(self):
        """The zero-cost claim, structurally: a memory system that never
        had a sink resolves every hook to the plain class method."""
        ms, _, _ = build("hpv")
        assert "_miss" not in ms.__dict__
        assert "_do_upgrade" not in ms.__dict__
        assert "note_silent_upgrade" not in ms.engine.__dict__
        assert ms._sinks.sinks == []

    def test_attach_shadows_and_detach_restores(self):
        ms, _, _ = build("hpv")
        chk = attach(ms)
        assert ms._sinks.sinks == [chk]
        assert "_miss" in ms.__dict__
        assert "_do_upgrade" in ms.__dict__
        assert "note_silent_upgrade" in ms.engine.__dict__
        ms.detach_sink(chk)
        assert ms._sinks.sinks == []
        assert "_miss" not in ms.__dict__
        assert "_do_upgrade" not in ms.__dict__
        assert "note_silent_upgrade" not in ms.engine.__dict__

    def test_second_sink_shares_the_shadows(self):
        """The bus upgrade over the PR 2 observer: several sinks can
        listen at once, and the wrappers installed for the first keep
        dispatching to all of them via the in-place callback lists."""
        ms, _, _ = build("hpv")
        first = attach(ms)
        second = attach(ms)
        assert ms._sinks.sinks == [first, second]
        ms.detach_sink(first)
        # the shadows stay while any sink remains
        assert "_miss" in ms.__dict__
        ms.detach_sink(second)
        assert "_miss" not in ms.__dict__

    def test_double_attach_of_same_sink_rejected(self):
        ms, _, _ = build("hpv")
        chk = attach(ms)
        with pytest.raises(SinkError, match="already attached"):
            ms.attach_sink(chk)

    def test_checking_detaches_even_on_error(self):
        ms, _, _ = build("hpv")
        with pytest.raises(RuntimeError):
            with checking(ms):
                raise RuntimeError("boom")
        assert ms._sinks.sinks == []
        assert "_miss" not in ms.__dict__

    def test_detach_without_attach_raises(self):
        ms, _, _ = build("sgi")
        with pytest.raises(SinkError, match="not attached"):
            ms.detach_sink(InvariantChecker(ms))


class TestCleanRuns:
    @pytest.mark.parametrize("plat", ["hpv", "sgi"])
    @pytest.mark.parametrize("fast", [False, True], ids=["slow", "fast"])
    def test_synthetic_trace_upholds_invariants(self, plat, fast):
        ms, machine, trace = build(plat, fast_path=fast)
        with checking(ms, full_every=32) as chk:
            drive_trace(ms, trace, machine.base_cpi)
            chk.check_all(at_rest=True)
        assert chk.n_transitions > 0
        assert chk.n_line_checks >= chk.n_transitions
        assert chk.n_full_checks >= 1

    @pytest.mark.parametrize("plat", ["hpv", "sgi"])
    def test_observation_does_not_perturb_counters(self, plat):
        """The checker is observation-only: every counter, clock, and
        resident set must be identical with and without it attached."""
        plain, machine, trace = build(plat)
        clocks_plain = drive_trace(plain, trace, machine.base_cpi)
        observed, _, _ = build(plat)
        with checking(observed, full_every=16):
            clocks_obs = drive_trace(observed, trace, machine.base_cpi)
        assert fingerprint(plain, clocks_plain, SPEC.n_cpus) == fingerprint(
            observed, clocks_obs, SPEC.n_cpus
        )


class TestDetection:
    def test_skipped_invalidation_is_caught(self):
        """The acceptance-criteria injection: an engine that skips cache
        invalidations must trip the SWMR check mid-run."""
        ms, machine, trace = build("hpv", SkippedInvalidationMemSys)
        with pytest.raises(InvariantViolation, match="writable"):
            with checking(ms):
                drive_trace(ms, trace, machine.base_cpi)

    def test_skipped_invalidation_caught_on_sgi_too(self):
        ms, machine, trace = build("sgi", SkippedInvalidationMemSys)
        with pytest.raises(InvariantViolation):
            with checking(ms):
                drive_trace(ms, trace, machine.base_cpi)

    def test_tampered_stats_are_caught(self):
        ms, machine, trace = build("sgi")
        drive_trace(ms, trace, machine.base_cpi)
        chk = InvariantChecker(ms)
        chk.check_all(at_rest=True)  # sanity: the run itself was clean
        ms.stats[0].coherent_misses += 1
        with pytest.raises(InvariantViolation, match="cpu0 stats"):
            chk.check_stats(0)

    def test_negative_counter_is_caught(self):
        ms, _, _ = build("hpv")
        ms.stats[1].reads = -1
        with pytest.raises(InvariantViolation, match="negative"):
            InvariantChecker(ms).check_stats(1)

    def test_tampered_directory_is_caught(self):
        ms, machine, trace = build("hpv")
        drive_trace(ms, trace, machine.base_cpi)
        chk = InvariantChecker(ms)
        chk.check_all(at_rest=True)
        line, entry = next(iter(ms.engine.directory.items()))
        # An entry can never have an owner and sharers simultaneously.
        entry.excl_owner, entry.sharers = 0, 0b10
        with pytest.raises(InvariantViolation, match="owner"):
            chk.check_line(line)

    def test_directory_out_of_range_owner_is_caught(self):
        ms, machine, trace = build("hpv")
        drive_trace(ms, trace, machine.base_cpi)
        chk = InvariantChecker(ms)
        for line, entry in ms.engine.directory.items():
            if entry.excl_owner != NO_OWNER:
                entry.excl_owner = SPEC.n_cpus + 7
                with pytest.raises(InvariantViolation):
                    chk.check_line(line)
                return
        pytest.fail("trace produced no owned directory entry")


class TestBatchedChecker:
    """Array-verification mode: deferred observation, sweep cadence,
    and detection parity with the exact checker on static corruption."""

    @pytest.mark.parametrize("plat", ["hpv", "sgi"])
    def test_clean_run_sweeps_and_passes(self, plat):
        ms, machine, trace = build(plat)
        with checking_batched(ms, check_every=32) as chk:
            drive_trace(ms, trace, machine.base_cpi)
        assert chk.n_transitions > 0
        assert chk.n_sweeps >= 1

    @pytest.mark.parametrize("fast", [False, True], ids=["slow", "fast"])
    def test_log_drained_at_every_batch_boundary(self, fast):
        """The per-reference path drains the deferred log per batch
        like the engine does, so the sweeps happen during the run —
        not only in ``close()`` — and the log cannot grow unbounded."""
        ms, machine, trace = build("hpv", fast_path=fast)
        with checking_batched(ms, check_every=32) as chk:
            drive_trace(ms, trace, machine.base_cpi)
            assert chk.n_transitions > 0
            assert chk.n_sweeps >= 2
            assert not ms._txlog

    @pytest.mark.parametrize("fast", [False, True], ids=["slow", "fast"])
    def test_skipped_invalidation_caught_mid_run(self, fast):
        ms, machine, trace = build(
            "hpv", SkippedInvalidationMemSys, fast_path=fast
        )
        attach_batched(ms, check_every=32)
        with pytest.raises(InvariantViolation, match="writable"):
            drive_trace(ms, trace, machine.base_cpi)  # not close()

    @pytest.mark.parametrize("plat", ["hpv", "sgi"])
    def test_deferred_sink_keeps_kernel_unshadowed(self, plat):
        """The whole point of the deferred channel: ``access_batch``
        must stay the plain class method, so the batched engine
        remains active while checking."""
        ms, _, _ = build(plat)
        with checking_batched(ms):
            assert "access_batch" not in ms.__dict__
            assert "_miss" not in ms.__dict__
        assert ms._deferred_sink is None

    @pytest.mark.parametrize("plat", ["hpv", "sgi"])
    def test_observation_does_not_perturb_counters(self, plat):
        plain, machine, trace = build(plat)
        clocks_plain = drive_trace(plain, trace, machine.base_cpi)
        observed, _, _ = build(plat)
        with checking_batched(observed, check_every=16):
            clocks_obs = drive_trace(observed, trace, machine.base_cpi)
        assert fingerprint(plain, clocks_plain, SPEC.n_cpus) == fingerprint(
            observed, clocks_obs, SPEC.n_cpus
        )

    def test_multiple_writable_copies_caught_by_sweep(self):
        """Static corruption: force a second M copy of an owned line
        into another CPU's cache and sweep — the SWMR array check must
        trip and the diagnosis must come from the exact checker."""
        ms, machine, trace = build("hpv")
        drive_trace(ms, trace, machine.base_cpi)
        chk = BatchedInvariantChecker(ms)
        chk._array_sweep()  # sanity: the run itself was clean
        for line, entry in ms.engine.directory.items():
            if entry.excl_owner != NO_OWNER:
                other = (entry.excl_owner + 1) % SPEC.n_cpus
                ms.hierarchies[other].fill(line, 3)  # MODIFIED
                with pytest.raises(InvariantViolation, match="writable"):
                    chk._array_sweep()
                return
        pytest.fail("trace produced no owned directory entry")

    def test_unknown_cached_line_caught_by_sweep(self):
        """A cached line the directory has never seen must trip the
        agreement check."""
        ms, machine, trace = build("sgi")
        drive_trace(ms, trace, machine.base_cpi)
        chk = BatchedInvariantChecker(ms)
        chk._array_sweep()
        rogue = 1 << 40  # far outside every allocated segment
        ms.hierarchies[0].fill(rogue, 1)  # SHARED, no directory entry
        with pytest.raises(InvariantViolation):
            chk._array_sweep()

    def test_close_runs_at_rest_check(self):
        ms, machine, trace = build("hpv")
        chk = BatchedInvariantChecker(ms)
        ms.attach_deferred_sink(chk)
        drive_trace(ms, trace, machine.base_cpi)
        ms.stats[0].coherent_misses += 1  # corrupt after the run
        with pytest.raises(InvariantViolation):
            chk.close()
        ms.detach_deferred_sink(chk)
