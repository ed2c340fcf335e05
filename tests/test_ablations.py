"""Ablations and supplementary tables: the model's mechanisms must move
the numbers the way the paper's argument says they do.

Each ablation switches one mechanism (a protocol feature, a machine
parameter, a scheduler policy) and asserts the direction of the
effect; the supplementary tests cover the data-class breakdown, the
refresh functions, the Fig. 7 largest-step claim and the latency
staircase.
All run at ``TPCHConfig(sf=0.001, seed=19920101)`` with the production
``DEFAULT_SIM``.  Cells on the unmodified paper machines come from one
module-scoped :class:`SweepRunner`, so a baseline leg that several
tests share runs once; variant machines and configs run through
:func:`run_experiment` directly.
"""

from dataclasses import replace

import pytest

from tests.conftest import assert_claims

from repro.config import DEFAULT_SIM
from repro.core import metrics
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.figures import class_breakdown
from repro.core.sweep import SweepRunner
from repro.mem.cache import CacheConfig
from repro.mem.machine import hp_v_class, sgi_origin_2000
from repro.micro.latency import latency_curve
from repro.tpch.datagen import TPCHConfig

TPCH = TPCHConfig(sf=0.001, seed=19920101)
SCALE = DEFAULT_SIM.cache_scale_log2
KB = 1024


@pytest.fixture(scope="module")
def runner():
    return SweepRunner(sim=DEFAULT_SIM, tpch=TPCH, verify_results=True)


def _run(query, platform, n_procs, machine=None, sim=DEFAULT_SIM):
    spec = ExperimentSpec(
        query=query, platform=platform, n_procs=n_procs, sim=sim, tpch=TPCH
    )
    return run_experiment(spec, machine=machine)


# ---------------------------------------------------------------------
# §4.2.4 — s_lock select() backoff vs pure spinning
# ---------------------------------------------------------------------

def test_backoff_inflates_wall_time_over_pure_spin(runner):
    """'While backoff using the select() call is perfect for
    uniprocessor systems, it is not so efficient in multiprocessors
    ... This increases the wall time (response time) significantly.'
    Only the backoff policy context-switches voluntarily."""
    backoff = runner.cell("Q21", "hpv", 8)
    spin = _run("Q21", "hpv", 8, sim=DEFAULT_SIM.with_(backoff_cycles=0))
    assert backoff.runs[0].wall_cycles >= spin.runs[0].wall_cycles
    assert backoff.mean.vol_switches > 0
    assert spin.mean.vol_switches == 0


# ---------------------------------------------------------------------
# §3.3 — Origin L2 line size and capacity
# ---------------------------------------------------------------------

def _origin_l2(line=128, shrink_log2=0):
    base = sgi_origin_2000()
    l1, l2 = base.caches
    l2 = CacheConfig(l2.name, l2.size >> shrink_log2, line, l2.assoc)
    return replace(base, caches=(l1, l2)).scaled(SCALE)


def test_long_lines_cut_misses_and_capacity_hurts_the_index_query(runner):
    """'The longer cache lines (128-bytes) decrease the cache misses for
    both Q6 and Q21 while the larger size of L2 cache has a smaller
    effect on cache misses for Q6 than for Q21.'"""
    def l2_misses(query, machine=None):
        if machine is None:
            return runner.cell(query, "sgi", 1).mean.coherent_misses
        return _run(query, "sgi", 1, machine=machine).mean.coherent_misses

    base = {q: l2_misses(q) for q in ("Q6", "Q21")}
    for q in ("Q6", "Q21"):
        assert l2_misses(q, _origin_l2(line=32)) > base[q]
    q6_cap = l2_misses("Q6", _origin_l2(shrink_log2=2)) / base["Q6"]
    q21_cap = l2_misses("Q21", _origin_l2(shrink_log2=2)) / base["Q21"]
    assert q21_cap > q6_cap


# ---------------------------------------------------------------------
# §4.2.3 — the V-Class migratory optimization
# ---------------------------------------------------------------------

@pytest.mark.xfail(strict=True, reason=(
    "recorded finding: on Q21/hpv/p4 switching the migratory "
    "optimization off lowers open-request latency, 7,643,778 cycles "
    "with it on vs 7,365,812 off (an older model recorded on 7.38 M, "
    "off 7.71 M), so the mechanism the paper credits for Fig. 9 does "
    "not pay off in this model"
))
def test_migratory_optimization_lowers_handoff_latency(runner):
    """Without migration every read-then-write by a new owner pays an
    extra directory trip, so total open-request latency should rise."""
    on = runner.cell("Q21", "hpv", 4).mean
    machine = replace(hp_v_class(), migratory_enabled=False).scaled(SCALE)
    off = _run("Q21", "hpv", 4, machine=machine).mean
    assert off.mem_latency_cycles > on.mem_latency_cycles


# ---------------------------------------------------------------------
# §4.1.1 — Origin NUMA policies
# ---------------------------------------------------------------------

def test_spreading_dbms_memory_relieves_the_home_node_hot_spot():
    """Shared-memory requests all route 'to the same node or a couple
    of different nodes': spreading the DBMS home nodes from 1 to 4
    cuts both queueing delay and thread time at 8 processes."""
    def cell(nodes):
        machine = replace(sgi_origin_2000(), db_home_nodes=nodes).scaled(SCALE)
        return _run("Q6", "sgi", 8, machine=machine)

    one, four = cell((0,)), cell((0, 1, 2, 3))
    assert (one.runs[0].interconnect_queue_delay_mean
            > four.runs[0].interconnect_queue_delay_mean)
    assert one.mean.cycles > four.mean.cycles


def test_speculative_replies_hide_intervention_latency(runner):
    """The Origin's speculative memory reply is its recovery mechanism
    for dirty misses; without it every intervention pays the full
    three-leg trip."""
    on = runner.cell("Q21", "sgi", 8).mean
    base = sgi_origin_2000()
    machine = replace(
        base, latency=replace(base.latency, speculative_reply=False)
    ).scaled(SCALE)
    off = _run("Q21", "sgi", 8, machine=machine).mean
    assert off.mem_latency_cycles > on.mem_latency_cycles
    assert off.cycles >= on.cycles


# ---------------------------------------------------------------------
# Context-switch cache pollution
# ---------------------------------------------------------------------

def test_context_switch_pollution_shows_in_dcache_misses():
    """Displacing daemon footprints on every involuntary switch (short
    slices, to get more switches) must raise D-cache misses
    monotonically with the footprint."""
    misses = [
        _run("Q21", "hpv", 4, sim=DEFAULT_SIM.with_(
            cs_pollution_lines=lines, time_slice_cycles=400_000,
        )).mean.level1_misses
        for lines in (0, 256, 1024)
    ]
    assert misses[0] <= misses[1] <= misses[2]
    assert misses[2] > misses[0]


# ---------------------------------------------------------------------
# §3.3 — coherent-level misses by data class
# ---------------------------------------------------------------------

def test_class_breakdown(runner):
    """'there is record data, index data, metadata and private data in
    a DBMS': the sequential query misses on records, and at 8
    processes the metadata (communication) component grows."""
    one = class_breakdown(runner, queries=("Q6", "Q21"), n_procs=1)
    eight = class_breakdown(runner, queries=("Q21",), n_procs=8)
    q6 = one.select(query="Q6", platform="hpv")[0]
    assert q6["record"] > 10 * max(q6["index"], 1)
    q21_1 = one.select(query="Q21", platform="sgi")[0]
    assert q21_1["index"] >= 0  # present in the decomposition
    q21_8 = eight.select(query="Q21", platform="sgi")[0]
    assert q21_8["meta"] > q21_1["meta"]


# ---------------------------------------------------------------------
# Extension — TPC-H refresh functions RF1/RF2
# ---------------------------------------------------------------------

@pytest.mark.parametrize("fn", ["RF1", "RF2"])
@pytest.mark.parametrize("plat", ["hpv", "sgi"])
def test_refresh_functions_cpi_in_band(runner, fn, plat):
    """The write paths the read-only study avoids (heap inserts, B+-tree
    splits, index-entry deletes) keep CPI in the paper's band."""
    res = runner.cell(fn, plat, 1)
    assert 1.2 < metrics.cpi(res.mean, res.machine) < 2.0
    assert res.mean.cycles > 0


# ---------------------------------------------------------------------
# Fig. 7 / §4.2 for the index query
# ---------------------------------------------------------------------

def test_fig7_q21_largest_step_is_1_to_2(runner):
    """'the largest increase in thread time results from an increase in
    the number of query processors from 1 to 2': the registry claim, at
    this scale for Q21 as well as the sequential queries."""
    assert_claims(runner, "fig7-largest-step-1-to-2")


# ---------------------------------------------------------------------
# Calibration microbenchmark at experiment scale (the rest of the
# calibration set is in tests/test_micro.py)
# ---------------------------------------------------------------------

@pytest.mark.parametrize("factory", [hp_v_class, sgi_origin_2000])
def test_latency_staircase_is_monotone(factory):
    points = latency_curve(
        factory().scaled(SCALE), [512, 8 * KB, 64 * KB, 512 * KB], iterations=5
    )
    series = [p.cycles_per_access for p in points]
    assert series == sorted(series)

