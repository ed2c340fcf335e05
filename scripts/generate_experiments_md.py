#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md from a live benchmark-scale sweep.

Runs every figure of the paper through the simulator, evaluates the
paper-claim scoreboard, and writes the paper-vs-measured record the
deliverables require.  Also refreshes the reports/fig*.txt tables.

Usage: python scripts/generate_experiments_md.py [--sf 0.001]
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

from repro.config import DEFAULT_SIM  # noqa: E402
from repro.core.figures import FIGURES  # noqa: E402
from repro.core.report import render_table  # noqa: E402
from repro.core.sweep import SweepRunner  # noqa: E402
from repro.core.validate import CLAIMS, validate_all  # noqa: E402
from repro.tpch.datagen import TPCHConfig  # noqa: E402
from repro.core.experiment import DatabaseCache  # noqa: E402

PAPER_NOTES = {
    "fig2": "Paper: 1-proc cycles nearly equal on both machines (a); at 8 "
            "procs the Origin needs clearly more cycles (b); Q21 is by far "
            "the most expensive query.",
    "fig3": "Paper: CPI between 1.3 and 1.6; rises with process count, only "
            "a little on the V-Class but significantly on the Origin (Q6: "
            "1.35->1.55).",
    "fig4": "Paper (1 proc): Q6 SGI-L1 misses ~2.3x HPV (9.4M vs 4.1M); Q21 "
            "~12x; SGI-L2 collapses Q21's misses (2.5M) below even HPV's "
            "2MB cache; at 8 procs miss rates rise on the big caches while "
            "the SGI L1 ratio is unaffected.",
    "fig5": "Paper: Origin thread time (cycles/1M instr) rises with process "
            "count for all three queries, with the steepest growth at 6-8.",
    "fig6": "Paper: Origin L2 misses/1M instr rise significantly 1->8; Q21's "
            "density is much lower than Q6/Q12; for Q21 communication misses "
            "become the major component by 8 procs.",
    "fig7": "Paper: V-Class thread time grows only very slowly; largest step "
            "is 1->2, and 2->4 even decreases.",
    "fig8": "Paper: V-Class D-cache misses/1M instr increase moderately; "
            "cold-start and capacity misses stay dominant.",
    "fig9": "Paper: memory latency jumps 1->2 procs then decreases 2->4 (the "
            "migratory-optimization/shared-state effect of the coherence "
            "protocol).",
    "fig10": "Paper: at 1 proc nearly all switches are involuntary; from 2 "
             "procs voluntary (s_lock select() backoff) switches dominate "
             "and grow nearly linearly; involuntary rates are query-type "
             "independent.",
}

DEVIATIONS = """\
## Known deviations

* **Absolute magnitudes** are not comparable: the paper ran a 200 MB
  database on real silicon for ~10^10 cycles per query; we run a
  proportionally scaled database (caches scaled with it) for ~10^7
  cycles.  Counts below are per *mean process* of the run.
* **Fig. 5 superlinearity**: the paper sees the Origin's thread-time
  growth steepen at 6-8 processes.  Our epoch-based bank-queueing model
  self-throttles (slowed processes issue requests more slowly), so the
  growth is strong but closer to linear.  The monotone rise and the
  V-Class contrast (the figure's point) reproduce.
* **Fig. 9 dip sensitivity**: the paper shows the 2->4-process latency
  dip for all three queries.  Our dip rests on the same mechanism (the
  first sharer of an exclusive line pays the intervention; later
  sharers are served from memory) and appears clearly at most scales,
  but it is delicate: for Q21 the growing buffer-header ping-pong
  nearly cancels it, and for the sequential queries the dip's size
  depends on how far the trailing scanner drifts behind the leader (if
  it escapes the leader's cache window, interventions stop on their
  own).  The scoreboard requires the 1->2 bump strictly and accepts a
  flat 2->4 within 3% as long as at least one sequential query dips
  strictly.
* **Fig. 4 ratios**: measured Q6 SGI-L1/HPV ~1.6x (paper 2.3x) and Q21
  ~7x (paper ~12x) — the orderings and the Q21>>Q6 relation hold, the
  exact multiples depend on private-working-set details we can only
  approximate.
* **Fig. 5 between 4 and 6 processes**: at SF 0.001 Q21's Origin
  thread time dips from 1.66 M to 1.63 M cycles/1M instr between 4
  and 6 processes before rising again at 8.  The
  `fig5-origin-growth` claim reads 1, 2, 4 and 8 processes and holds.
* **Fig. 9 for Q12**: at SF 0.001 Q12's V-Class mean latency rises
  from 132.7 to 134.6 cycles between 2 and 4 processes instead of
  dipping.  That flattening is within the 3% the `fig9-latency-bump`
  claim allows; Q6 dips strictly.
* **Migratory ablation**: switching the V-Class migratory
  optimization off *lowers* Q21's open-request latency at 4 processes
  (7,643,778 cycles with it on, 7,365,812 off), and on the ping-pong
  microbenchmark the optimization costs 375 vs 362 cycles per handoff.
  The mechanism the paper credits for Fig. 9 does not pay off in this
  model; `tests/test_ablations.py` keeps the paper's direction as a
  strict xfail.
"""


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf", type=float, default=0.001)
    ap.add_argument("--seed", type=int, default=19920101)
    args = ap.parse_args()

    tpch = TPCHConfig(sf=args.sf, seed=args.seed)
    runner = SweepRunner(sim=DEFAULT_SIM, tpch=tpch)
    db = DatabaseCache.get(tpch)

    out = []
    out.append("# EXPERIMENTS — paper vs. measured\n")
    out.append(
        "Regenerated by `python scripts/generate_experiments_md.py "
        f"--sf {args.sf}`.\n"
    )
    out.append("## Setup\n")
    out.append("```")
    out.append(f"TPC-H scale factor : {args.sf} (seed {args.seed})")
    out.append(db.describe())
    out.append(f"cache scale        : 1/{1 << DEFAULT_SIM.cache_scale_log2} "
               "(both machines)")
    out.append(f"time slice         : {DEFAULT_SIM.time_slice_cycles:,} cycles")
    out.append(f"s_lock backoff     : {DEFAULT_SIM.backoff_cycles:,} cycles, "
               f"{DEFAULT_SIM.spin_tries} spin tries")
    out.append("```\n")

    out.append("## Claim scoreboard\n")
    results = validate_all(runner)
    out.append("| claim | figure | holds | measured |")
    out.append("|---|---|---|---|")
    for res in results:
        mark = "✅" if res.holds else "❌"
        out.append(
            f"| {res.claim_id} — {res.statement} | {res.figure} | {mark} "
            f"| {res.measured} |"
        )
    passed = sum(r.holds for r in results)
    out.append(f"\n**{passed}/{len(results)} claims reproduced.**\n")

    out.append("## Per-figure record\n")
    reports = ROOT / "reports"
    reports.mkdir(exist_ok=True)
    for fig_id in sorted(FIGURES, key=lambda f: int(f[3:])):
        fig = FIGURES[fig_id](runner)
        table = render_table(fig)
        (reports / f"{fig_id}.txt").write_text(table + "\n")
        out.append(f"### {fig_id}: {fig.title}\n")
        out.append(PAPER_NOTES[fig_id] + "\n")
        out.append("```")
        out.append(table)
        out.append("```\n")

    out.append(DEVIATIONS)
    out.append(
        "\n## Ablations and microbenchmarks\n\n"
        "`tests/test_ablations.py` (tier-1) asserts the direction of every\n"
        "ablation (L2 line size and capacity, migratory protocol, select()\n"
        "backoff vs pure spin, DBMS home nodes, speculative replies,\n"
        "context-switch pollution), the data-class breakdown, the RF1/RF2\n"
        "refresh CPI band and the calibration microbenchmarks.\n"
    )

    (ROOT / "EXPERIMENTS.md").write_text("\n".join(out))
    print(f"wrote EXPERIMENTS.md ({passed}/{len(results)} claims hold)")
    return 0 if passed == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
