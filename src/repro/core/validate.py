"""The paper's qualitative claims, defined once.

Each :class:`Claim` is one sentence of the paper, the figure it comes
from, the sweep ``cells`` it reads, a ``measure`` that turns those
cells into named numbers, and a ``holds`` verdict over those numbers
whose thresholds are the module constants below.  This registry is the
only place a claim is written down: ``repro validate``, EXPERIMENTS.md
and the tier-1 claim tests all evaluate it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from . import metrics
from .sweep import SweepRunner

#: The paper's UMA (HP V-Class) and NUMA (SGI Origin 2000) machines.
UMA, NUMA = "hpv", "sgi"
PAIR = (UMA, NUMA)
QUERIES = ("Q6", "Q21", "Q12")
SEQ = ("Q6", "Q12")  # the sequential-scan queries

Measured = Dict[str, float]
Cell = Tuple[str, str, int]

# Thresholds: where two encodings of a claim disagreed, the stricter.
GAP_1PROC = 0.15               # Fig. 2(a): |HPV - SGI| / max cycles, per query
CPI_BAND = (1.2, 1.9)          # Fig. 3: the paper's 1.3-1.6, slightly widened
Q6_L1_RATIO = (1.2, 4.0)       # Fig. 4: "only a little more than twice"
Q21_OVER_Q6_L1_RATIO = 3.0     # Fig. 4: ~12x against ~2.3x
Q21_L2_OVER_L1 = 0.2           # Fig. 4: the Origin L2 "greatly reduces" Q21's misses
L1_RATE_DRIFT = 0.10           # Fig. 4: Origin L1 rate "remains unaffected"
ORIGIN_OVER_VCLASS_GROWTH = 2.0  # Figs. 5 vs 7: 1->8 thread-time growth
L2_DENSITY_FACTOR = 0.5        # Fig. 6: Q21 "much less than" Q6 and Q12
COMM_MAJORITY = 0.5            # Fig. 6: "the major component"
VCLASS_GROWTH = 1.25           # Fig. 7: "a very slow increase", 1->8
DMISS_GROWTH = 3.0             # Fig. 8: "moderately increase", 1->8
LATENCY_BUMP = 1.1             # Fig. 9: "a big increase" 1->2
#: Fig. 9: p4 latency bound as a multiple of p2.  Q21's buffer-header
#: ping-pong nearly cancels the migratory relief, so it may flatten.
LATENCY_RELIEF = {"Q6": 1.0, "Q21": 1.06, "Q12": 1.0}
INVOL_SPREAD = 2.5             # Fig. 10: max/min involuntary rate per query
INVOL_RATE_FLOOR = 1e-9        # Fig. 10: clamp for that ratio's denominator


@dataclass
class ClaimResult:
    claim_id: str
    figure: str
    statement: str
    holds: bool
    measured: Measured


@dataclass(frozen=True)
class Claim:
    claim_id: str
    figure: str
    statement: str
    cells: Tuple[Cell, ...]
    measure: Callable[[SweepRunner], Measured]
    holds: Callable[[Measured], bool]

    def evaluate(self, runner: SweepRunner) -> ClaimResult:
        measured = self.measure(runner)
        return ClaimResult(
            self.claim_id, self.figure, self.statement,
            self.holds(measured), measured,
        )


def _cells(queries, platforms, nprocs) -> Tuple[Cell, ...]:
    return tuple((q, p, n) for q in queries for p in platforms for n in nprocs)


def _cpm(r: SweepRunner, q: str, p: str, n: int) -> float:
    res = r.cell(q, p, n)
    return metrics.cycles_per_million(res.mean, res.machine)


def _cpi(r: SweepRunner, q: str, p: str, n: int) -> float:
    res = r.cell(q, p, n)
    return metrics.cpi(res.mean, res.machine)


def _l2pm(r: SweepRunner, q: str, n: int) -> float:
    res = r.cell(q, NUMA, n)
    return metrics.l2_misses_per_million(res.mean, res.machine)


def _dpm(r: SweepRunner, q: str, n: int) -> float:
    res = r.cell(q, UMA, n)
    return metrics.dcache_misses_per_million(res.mean, res.machine)


def _l1_ratio(r: SweepRunner, q: str) -> float:
    """Origin-L1 over V-Class misses at one process."""
    return r.cell(q, NUMA, 1).mean.level1_misses / r.cell(q, UMA, 1).mean.level1_misses


def _l2_over_l1(r: SweepRunner, q: str) -> float:
    m = r.cell(q, NUMA, 1).mean
    return m.coherent_misses / m.level1_misses


def _count(r: SweepRunner, q: str, n: int, counter: str) -> float:
    """One raw V-Class counter."""
    return float(getattr(r.cell(q, UMA, n).mean, counter))


def _latency(r: SweepRunner, q: str, n: int) -> float:
    return metrics.mean_memory_latency_cycles(r.cell(q, UMA, n).mean)


def _comm(r: SweepRunner, q: str, n: int) -> float:
    return metrics.comm_miss_fraction(r.cell(q, NUMA, n).mean)


def _cycle_gap(r: SweepRunner, q: str) -> float:
    hpv = r.cell(q, UMA, 1).mean.cycles
    sgi = r.cell(q, NUMA, 1).mean.cycles
    return abs(hpv - sgi) / max(hpv, sgi)


def _seconds_ratio(r: SweepRunner, q: str) -> float:
    hpv, sgi = r.cell(q, UMA, 1), r.cell(q, NUMA, 1)
    return (metrics.thread_time_seconds(sgi.mean, sgi.machine)
            / metrics.thread_time_seconds(hpv.mean, hpv.machine))


def _miss_rates(r: SweepRunner) -> Measured:
    """Q21's coherent-level miss rate: the V-Class's only cache, the
    Origin's L2."""
    out = {}
    for n in (1, 8):
        out[f"{UMA}.p{n}"] = metrics.level1_miss_rate(r.cell("Q21", UMA, n).mean)
        m = r.cell("Q21", NUMA, n).mean
        out[f"{NUMA}.p{n}"] = m.coherent_misses / max(m.data_refs, 1)
    return out


def _l1_rate_drift(r: SweepRunner) -> Measured:
    r1 = metrics.level1_miss_rate(r.cell("Q6", NUMA, 1).mean)
    r8 = metrics.level1_miss_rate(r.cell("Q6", NUMA, 8).mean)
    return {"Q6": abs(r8 - r1) / r1}


def _steps(r: SweepRunner) -> Measured:
    out = {}
    for q in QUERIES:
        v = {n: _cpm(r, q, UMA, n) for n in (1, 2, 4, 8)}
        out.update({f"{q}.1-2": v[2] - v[1], f"{q}.2-4": v[4] - v[2],
                    f"{q}.4-8": v[8] - v[4]})
    return out


def _queries(m: Measured) -> List[str]:
    """The queries a measurement has entries for, in registry order, so
    a verdict can be taken over one query's entries alone."""
    present = {key.split(".")[0] for key in m}
    return [q for q in QUERIES if q in present]


def _largest_step_first(m: Measured) -> bool:
    return all(
        m[f"{q}.1-2"] > 0 and m[f"{q}.1-2"] >= max(m[f"{q}.2-4"], m[f"{q}.4-8"])
        for q in _queries(m)
    )


def _latency_bump(m: Measured) -> bool:
    return all(
        m[f"{q}.p2"] > LATENCY_BUMP * m[f"{q}.p1"]
        and m[f"{q}.p4"] < LATENCY_RELIEF[q] * m[f"{q}.p2"]
        for q in _queries(m)
    )


def _switches(r: SweepRunner) -> Measured:
    out = {}
    for q in QUERIES:
        out.update({f"{q}.vol1": _count(r, q, 1, "vol_switches"),
                    f"{q}.vol8": _count(r, q, 8, "vol_switches"),
                    f"{q}.inv8": _count(r, q, 8, "invol_switches")})
    return out


def _miss_kinds(r: SweepRunner) -> Measured:
    out = {}
    for q in SEQ:
        out[f"{q}.cold+capacity"] = (_count(r, q, 8, "miss_cold")
                                     + _count(r, q, 8, "miss_capacity"))
        out[f"{q}.comm"] = _count(r, q, 8, "miss_comm")
    return out


def _involuntary_rates(r: SweepRunner) -> Measured:
    out = {}
    for q in QUERIES:
        res = r.cell(q, UMA, 1)
        out[q] = metrics.switches_per_million(res.mean, res.machine)["involuntary"]
    return out


def _increasing(m: Measured, nprocs) -> bool:
    return all(
        all(m[f"{q}.p{b}"] > m[f"{q}.p{a}"] for a, b in zip(nprocs, nprocs[1:]))
        for q in _queries(m)
    )


CLAIMS: List[Claim] = [
    Claim(
        "fig2a-equal-cycles", "Fig. 2(a)",
        "when one query runs on the system, the number of running cycles on "
        "both machines are very close",
        _cells(QUERIES, PAIR, (1,)),
        lambda r: {q: _cycle_gap(r, q) for q in QUERIES},
        lambda m: max(m.values()) < GAP_1PROC,
    ),
    Claim(
        "fig2a-origin-faster-seconds", "Fig. 2(a)",
        "since the SGI Origin 2000 runs at a higher clock rate, the overall "
        "execution time on the SGI Origin 2000 is lower",
        _cells(QUERIES, PAIR, (1,)),
        lambda r: {q: _seconds_ratio(r, q) for q in QUERIES},
        lambda m: max(m.values()) < 1.0,
    ),
    Claim(
        "fig2b-origin-more-cycles", "Fig. 2(b)",
        "when 8 query processes run on the system, SGI Origin 2000 actually "
        "uses much more cycles to finish the query",
        _cells(QUERIES, PAIR, (8,)),
        lambda r: {q: r.cell(q, NUMA, 8).mean.cycles / r.cell(q, UMA, 8).mean.cycles
                   for q in QUERIES},
        lambda m: min(m.values()) > 1.0,
    ),
    Claim(
        "fig3-cpi-band", "Fig. 3",
        "On the whole, CPI for these 3 queries are not high, ranging from "
        "1.3 to 1.6",
        _cells(QUERIES, PAIR, (1, 8)),
        lambda r: {f"{q}.{p}.p{n}": _cpi(r, q, p, n)
                   for q, p, n in _cells(QUERIES, PAIR, (1, 8))},
        lambda m: CPI_BAND[0] <= min(m.values()) and max(m.values()) <= CPI_BAND[1],
    ),
    Claim(
        "fig3-cpi-growth", "Fig. 3",
        "CPI increases little on HP V-Class while more significant on SGI "
        "Origin",
        _cells(QUERIES, PAIR, (1, 8)),
        lambda r: {f"{q}.{p}": _cpi(r, q, p, 8) - _cpi(r, q, p, 1)
                   for q in QUERIES for p in PAIR},
        lambda m: all(m[f"{q}.{NUMA}"] > m[f"{q}.{UMA}"] for q in _queries(m)),
    ),
    Claim(
        "fig4-q6-ratio", "Fig. 4",
        "For Q6, the L1 Dcache misses on SGI are only a little more than "
        "twice the Dcache misses on HP V-Class",
        _cells(("Q6",), PAIR, (1,)),
        lambda r: {"Q6": _l1_ratio(r, "Q6")},
        lambda m: Q6_L1_RATIO[0] < m["Q6"] < Q6_L1_RATIO[1],
    ),
    Claim(
        "fig4-q21-ratio", "Fig. 4",
        "For Q21, the L1 Dcache misses in SGI Origin are roughly 12 times "
        "more than the Dcache misses in the HP V-Class",
        _cells(("Q6", "Q21"), PAIR, (1,)),
        lambda r: {q: _l1_ratio(r, q) for q in ("Q6", "Q21")},
        lambda m: m["Q21"] > Q21_OVER_Q6_L1_RATIO * m["Q6"],
    ),
    Claim(
        "fig4-q21-l2", "Fig. 4",
        "In Q21 the L2 cache in SGI Origin greatly reduces the cache misses "
        "... much less than the corresponding Dcache misses in HP V-Class",
        _cells(("Q21",), PAIR, (1,)),
        lambda r: {
            "sgi_l2/sgi_l1": _l2_over_l1(r, "Q21"),
            "sgi_l2/hpv_l1": r.cell("Q21", NUMA, 1).mean.coherent_misses
            / r.cell("Q21", UMA, 1).mean.level1_misses,
        },
        lambda m: m["sgi_l2/sgi_l1"] < Q21_L2_OVER_L1 and m["sgi_l2/hpv_l1"] < 1.0,
    ),
    Claim(
        "fig4-l2-helps-index", "Fig. 4",
        "The larger cache size and larger line size has a bigger effect on "
        "index queries than on sequential queries",
        _cells(("Q6", "Q21"), (NUMA,), (1,)),
        lambda r: {q: _l2_over_l1(r, q) for q in ("Q6", "Q21")},
        lambda m: m["Q21"] < m["Q6"] < 1.0,
    ),
    Claim(
        "fig4-miss-rates-rise", "Fig. 4",
        "when 8 query processes are running in the systems the miss rates on "
        "HP V-Class and on SGI Origin increase",
        _cells(("Q21",), PAIR, (1, 8)),
        _miss_rates,
        lambda m: all(m[f"{p}.p8"] > m[f"{p}.p1"] for p in PAIR),
    ),
    Claim(
        "fig4-origin-l1-rate-flat", "Fig. 4",
        "L1 miss ratio in SGI Origin remains unaffected",
        _cells(("Q6",), (NUMA,), (1, 8)),
        _l1_rate_drift,
        lambda m: m["Q6"] < L1_RATE_DRIFT,
    ),
    Claim(
        "fig5-origin-growth", "Fig. 5",
        "as number of query processes increases, the thread time increases "
        "for Q6, Q21 and Q12",
        _cells(QUERIES, (NUMA,), (1, 2, 4, 8)),
        lambda r: {f"{q}.p{n}": _cpm(r, q, NUMA, n)
                   for q in QUERIES for n in (1, 2, 4, 8)},
        lambda m: _increasing(m, (1, 2, 4, 8)),
    ),
    Claim(
        "fig6-l2-rises-with-procs", "Fig. 6",
        "as number of query processes increases from 1 to 8, L2 data cache "
        "misses increase significantly",
        _cells(QUERIES, (NUMA,), (1, 8)),
        lambda r: {f"{q}.p{n}": _l2pm(r, q, n) for q in QUERIES for n in (1, 8)},
        lambda m: _increasing(m, (1, 8)),
    ),
    Claim(
        "fig6-q21-low-density", "Fig. 6",
        "L2 data cache misses per 1M instructions of Q21 is much less than "
        "that of Q6 and Q12 ... because Q21 is an index query",
        _cells(QUERIES, (NUMA,), (1,)),
        lambda r: {q: _l2pm(r, q, 1) for q in QUERIES},
        lambda m: m["Q21"] < L2_DENSITY_FACTOR * min(m["Q6"], m["Q12"]),
    ),
    Claim(
        "fig6-comm-major", "Fig. 6",
        "for the index query Q21, as query processes increase from 1 to 8, "
        "misses caused by communication becomes the major component of L2 "
        "Dcache misses",
        (("Q21", NUMA, 1), ("Q21", NUMA, 8), ("Q6", NUMA, 8)),
        lambda r: {"Q21.p1": _comm(r, "Q21", 1), "Q21.p8": _comm(r, "Q21", 8),
                   "Q6.p8": _comm(r, "Q6", 8)},
        lambda m: (m["Q21.p8"] > COMM_MAJORITY > m["Q6.p8"]
                   and m["Q21.p1"] == 0.0),
    ),
    Claim(
        "fig7-vclass-slow", "Fig. 7",
        "an overall trend of a very slow increase in the thread time",
        _cells(QUERIES, (UMA,), (1, 8)),
        lambda r: {q: _cpm(r, q, UMA, 8) / _cpm(r, q, UMA, 1) for q in QUERIES},
        lambda m: all(1.0 < g < VCLASS_GROWTH for g in m.values()),
    ),
    Claim(
        "fig7-origin-degrades-more", "Fig. 7",
        "the lower communication overhead in the HP V-Class helps in keeping "
        "the increase in thread time to a minimum",
        _cells(QUERIES, PAIR, (1, 8)),
        lambda r: {f"{q}.{p}": _cpm(r, q, p, 8) / _cpm(r, q, p, 1) - 1
                   for q in QUERIES for p in PAIR},
        lambda m: all(m[f"{q}.{NUMA}"] > ORIGIN_OVER_VCLASS_GROWTH * m[f"{q}.{UMA}"]
                      for q in _queries(m)),
    ),
    Claim(
        "fig7-largest-step-1-to-2", "Fig. 7",
        "the largest increase in thread time results from an increase in the "
        "number of query processors from 1 to 2",
        _cells(QUERIES, (UMA,), (1, 2, 4, 8)),
        _steps,
        _largest_step_first,
    ),
    Claim(
        "fig8-moderate-misses", "Fig. 8",
        "the data cache misses in HP V-Class moderately increase as the "
        "number of query processes increases",
        _cells(QUERIES, (UMA,), (1, 8)),
        lambda r: {q: _dpm(r, q, 8) / _dpm(r, q, 1) for q in QUERIES},
        lambda m: all(1.0 < g < DMISS_GROWTH for g in m.values()),
    ),
    Claim(
        "fig8-cold-capacity-dominant", "Fig. 8",
        "cold start and capacity issues still remain the major contributor "
        "to Dcache misses",
        _cells(SEQ, (UMA,), (8,)),
        _miss_kinds,
        lambda m: all(m[f"{q}.cold+capacity"] > m[f"{q}.comm"] for q in _queries(m)),
    ),
    Claim(
        "fig9-latency-bump", "Fig. 9",
        "there is a big increase in memory latency as the number of query "
        "processes increases from 1 to 2. From 2 to 4, the memory latency "
        "however decreases",
        _cells(QUERIES, (UMA,), (1, 2, 4)),
        lambda r: {f"{q}.p{n}": _latency(r, q, n) for q in QUERIES for n in (1, 2, 4)},
        _latency_bump,
    ),
    Claim(
        "fig10-single-process-involuntary", "Fig. 10",
        "when only one query process runs in the system, almost all the "
        "context switches are involuntary",
        _cells(QUERIES, (UMA,), (1,)),
        lambda r: {f"{q}.{kind}": _count(r, q, 1, f"{kind}_switches")
                   for q in QUERIES for kind in ("vol", "invol")},
        lambda m: all(m[f"{q}.vol"] == 0 and m[f"{q}.invol"] > 0
                      for q in _queries(m)),
    ),
    Claim(
        "fig10-voluntary", "Fig. 10",
        "The majority of context switches beyond [2 processes] are voluntary "
        "context switches",
        _cells(QUERIES, (UMA,), (1, 8)),
        _switches,
        lambda m: all(m[f"{q}.vol1"] == 0 and m[f"{q}.vol8"] > m[f"{q}.inv8"]
                      for q in _queries(m)),
    ),
    Claim(
        "fig10-voluntary-grow", "Fig. 10",
        "the context switches increase rapidly and almost linearly",
        _cells(QUERIES, (UMA,), (1, 2, 4, 8)),
        lambda r: {f"{q}.p{n}": _count(r, q, n, "vol_switches")
                   for q in QUERIES for n in (1, 2, 4, 8)},
        lambda m: all(
            m[f"{q}.p1"] == 0 and m[f"{q}.p8"] > m[f"{q}.p2"]
            and m[f"{q}.p1"] <= m[f"{q}.p2"] <= m[f"{q}.p4"] <= m[f"{q}.p8"]
            for q in _queries(m)
        ),
    ),
    Claim(
        "fig10-involuntary", "Fig. 10",
        "the number of [involuntary] context switches per 1M instructions is "
        "not a function of the type of query",
        _cells(QUERIES, (UMA,), (1,)),
        _involuntary_rates,
        lambda m: max(m.values()) / max(min(m.values()), INVOL_RATE_FLOOR)
        < INVOL_SPREAD,
    ),
]

#: Every cell some claim reads: what ``repro validate`` prewarms.
CELLS: Tuple[Cell, ...] = tuple(sorted({c for claim in CLAIMS for c in claim.cells}))


def validate_all(runner: SweepRunner) -> List[ClaimResult]:
    """Evaluate every claim; the sweep is shared and memoized."""
    return [c.evaluate(runner) for c in CLAIMS]


def format_measured(measured: Measured) -> str:
    """``key=value`` pairs; values of 1,000 and above as grouped integers."""
    return ", ".join(
        f"{key}={value:,.0f}" if abs(value) >= 1000 else f"{key}={value:.4g}"
        for key, value in measured.items()
    )


def scoreboard(results: List[ClaimResult]) -> str:
    """Human-readable claim scoreboard with each claim's numbers."""
    lines = ["claim".ljust(34) + "figure".ljust(11) + "holds  measured"]
    lines.append("-" * 96)
    for res in results:
        lines.append(
            res.claim_id.ljust(34)
            + res.figure.ljust(11)
            + ("yes    " if res.holds else "NO     ")
            + format_measured(res.measured)
        )
    passed = sum(r.holds for r in results)
    lines.append(f"\n{passed}/{len(results)} paper claims reproduced")
    return "\n".join(lines)
