"""Integration tests: the paper's qualitative claims must hold.

Every claim comes from the registry in :mod:`repro.core.validate`, its
one definition; here each is evaluated at two small scales, running the
real pipeline (TPC-H data -> DBMS executor -> OS -> memory system) with
the production SimConfig on one memoized sweep per scale.  The
benchmark-scale scoreboard is ``python -m repro validate`` and
EXPERIMENTS.md.  The plain tests at the end check the mechanisms behind
Figs. 9 and 10 and the registry's own machinery.
"""

import pytest

from tests.conftest import SMALL_TPCH

from repro.config import DEFAULT_SIM
from repro.core.experiment import DatabaseCache
from repro.core.sweep import SweepRunner
from repro.core.validate import (
    CELLS, CLAIMS, ClaimResult, scoreboard, validate_all,
)
from repro.tpch.datagen import TPCHConfig

TPCH = TPCHConfig(sf=0.0005, seed=20020411)
CONFIGS = {"sf0.0005": TPCH, "sf0.0008": SMALL_TPCH}


@pytest.fixture(scope="module")
def runners():
    return {name: SweepRunner(sim=DEFAULT_SIM, tpch=tpch)
            for name, tpch in CONFIGS.items()}


@pytest.fixture(scope="module")
def runner(runners):
    return runners["sf0.0005"]


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("claim", CLAIMS, ids=lambda c: c.claim_id)
def test_claim_holds(runners, claim, config):
    measured = claim.measure(runners[config])
    assert claim.holds(measured), f"{claim.claim_id} at {config}: {measured}"


# ---------------------------------------------------------------------
# Per-query verdicts: one registry claim over one query's entries, so a
# failure names the query (at SF 0.0005)
# ---------------------------------------------------------------------

BY_ID = {c.claim_id: c for c in CLAIMS}


def _holds_for(runner, claim_id, *key):
    """Take ``claim_id``'s verdict over the measured entries whose
    dotted key starts with ``key`` (a query, or query/platform/pN)."""
    measured = BY_ID[claim_id].measure(runner)
    part = {k: v for k, v in measured.items()
            if tuple(k.split("."))[:len(key)] == key}
    assert part, f"{claim_id}: no {'.'.join(key)} entries in {measured}"
    assert BY_ID[claim_id].holds(part), f"{claim_id} for {'.'.join(key)}: {part}"


def _per_query(claim_id, queries=("Q6", "Q21", "Q12")):
    @pytest.mark.parametrize("q", queries)
    def test(runner, q):
        _holds_for(runner, claim_id, q)
    return test


test_fig2a_single_query_cycles_nearly_equal = _per_query("fig2a-equal-cycles")
test_fig2a_origin_faster_in_seconds = _per_query("fig2a-origin-faster-seconds")
test_fig2b_origin_needs_more_cycles_at_8 = _per_query("fig2b-origin-more-cycles")
test_fig3_cpi_grows_more_on_origin = _per_query("fig3-cpi-growth")
test_fig5_origin_thread_time_increases = _per_query("fig5-origin-growth")
test_fig5_vs_fig7_origin_degrades_more = _per_query("fig7-origin-degrades-more")
test_fig6_l2_misses_increase_with_procs = _per_query("fig6-l2-rises-with-procs")
test_fig7_vclass_slow_growth = _per_query("fig7-vclass-slow")
test_fig7_largest_step_is_1_to_2 = _per_query(
    "fig7-largest-step-1-to-2", ("Q6", "Q12"))
test_fig8_vclass_misses_moderate_increase = _per_query("fig8-moderate-misses")
test_fig8_cold_capacity_still_dominant_for_seq = _per_query(
    "fig8-cold-capacity-dominant", ("Q6", "Q12"))
test_fig9_latency_bump_at_2_then_relief = _per_query("fig9-latency-bump")
test_fig10_voluntary_dominate_under_concurrency = _per_query("fig10-voluntary")
test_fig10_voluntary_grow_with_procs = _per_query("fig10-voluntary-grow")


@pytest.mark.parametrize("q", ["Q6", "Q21", "Q12"])
@pytest.mark.parametrize("plat", ["hpv", "sgi"])
@pytest.mark.parametrize("n", [1, 8])
def test_fig3_cpi_in_band(runner, q, plat, n):
    _holds_for(runner, "fig3-cpi-band", q, plat, f"p{n}")


# ---------------------------------------------------------------------
# The registry's machinery
# ---------------------------------------------------------------------

class _CellRecorder:
    """A runner stand-in that records every cell a measure reads."""

    def __init__(self, runner):
        self.runner = runner
        self.read = set()

    def cell(self, query, platform, n_procs):
        self.read.add((query, platform, n_procs))
        return self.runner.cell(query, platform, n_procs)


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda c: c.claim_id)
def test_claim_declares_the_cells_it_reads(runner, claim):
    recorder = _CellRecorder(runner)
    claim.measure(recorder)
    assert recorder.read == set(claim.cells)


def test_prewarm_set_skips_cells_no_claim_reads():
    assert {n for _, _, n in CELLS} == {1, 2, 4, 8}


def test_claims_cover_every_figure():
    assert {c.figure for c in CLAIMS} == {
        "Fig. 2(a)", "Fig. 2(b)", "Fig. 3", "Fig. 4", "Fig. 5",
        "Fig. 6", "Fig. 7", "Fig. 8", "Fig. 9", "Fig. 10",
    }


def test_claim_ids_unique():
    ids = [c.claim_id for c in CLAIMS]
    assert len(ids) == len(set(ids))


def test_validate_all_measures_numbers(runners):
    results = validate_all(runners["sf0.0008"])
    assert [r.claim_id for r in results] == [c.claim_id for c in CLAIMS]
    for res in results:
        assert isinstance(res.holds, bool)
        assert res.measured
        assert all(isinstance(v, float) for v in res.measured.values())


def test_scoreboard_prints_numbers():
    text = scoreboard([
        ClaimResult("a", "Fig. 2(a)", "s", True, {"Q6": 0.0123}),
        ClaimResult("b", "Fig. 3", "s", False, {"Q21.hpv": 1.5, "Q21.sgi": 2.0}),
    ])
    assert "1/2 paper claims reproduced" in text
    assert "NO" in text
    assert "Q6=0.0123" in text
    assert "Q21.hpv=1.5, Q21.sgi=2" in text


# ---------------------------------------------------------------------
# Plain tests: mechanisms, and a shape no quoted sentence states
# ---------------------------------------------------------------------

def test_q21_is_the_heavyweight(runner):
    """Fig. 2: Q21 takes by far the most cycles of the three."""
    for plat in ("hpv", "sgi"):
        q21 = runner.cell("Q21", plat, 1).mean.cycles
        q6 = runner.cell("Q6", plat, 1).mean.cycles
        q12 = runner.cell("Q12", plat, 1).mean.cycles
        assert q21 > 1.5 * q6
        assert q21 > 1.5 * q12


def test_fig9_migratory_transfers_happen_on_vclass_only():
    """§4.2.3's lock behaviour needs the migratory optimization, which
    the V-Class protocol has and the Origin does not.  The counter lives
    inside the engine, so each platform's Q21/p4 cell is re-run by
    hand."""
    from repro.core.workload import make_query_process
    from repro.mem.machine import platform as plat_fn
    from repro.mem.memsys import MemorySystem
    from repro.osim.scheduler import Kernel
    from repro.tpch.queries import QUERIES

    db = DatabaseCache.get(TPCH)
    for plat, expect_migratory in (("hpv", True), ("sgi", False)):
        machine = plat_fn(plat).scaled(DEFAULT_SIM.cache_scale_log2)
        ms = MemorySystem(machine, db.aspace)
        kernel = Kernel(machine, ms, DEFAULT_SIM)
        db.reset_runtime()
        qdef = QUERIES["Q21"]
        for pid in range(4):
            gen, _ = make_query_process(db, qdef, qdef.params(), pid, pid)
            kernel.spawn(gen, cpu=pid)
        kernel.run()
        if expect_migratory:
            assert ms.engine.n_migratory_transfers > 0
        else:
            assert ms.engine.n_migratory_transfers == 0


def test_fig10_backoffs_drive_voluntary_switches(runner):
    """The voluntary switches must actually come from spinlock
    backoffs, the mechanism §4.2.4 identifies in PostgreSQL."""
    res = runner.cell("Q21", "hpv", 8)
    total_vol = sum(s.vol_switches for s in res.runs[0].per_process)
    assert res.runs[0].n_backoffs == total_vol
