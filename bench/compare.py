"""Compare two result sets of ``bench/run.py``.

    python bench/compare.py bench/out/A bench/out/B

A and B are directories written with ``--out`` (one ``<workload>.json``
each, holding one or more runs).  For every (workload, end-to-end metric)
the medians are compared with the metric's bound and direction from
``BENCHMARK.json``:

    worse       B's median is worse than A's by more than the bound
    better      every run of B beats every run of A, or B's median is
                better by more than the bound
    unresolved  neither, and the run-to-run spread (interquartile range
                as a share of the median) is wider than the bound
    same        otherwise

``fail_frac`` has no tolerance: any rise is worse.  Runs of the same seed
must also agree exactly on digests and simulated counts.  Exits non-zero
on a worse metric, a higher ``fail_frac`` or a count that differs; the
metrics ``run.REPORTED_ONLY`` lists are shown and do not decide the exit.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from run import REPORTED_ONLY, load_contract  # noqa: E402


def load_set(directory: Path) -> dict:
    """``{workload: [run, ...]}`` for the untraced result files."""
    out = {}
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith(".traced.json") or path.name.startswith("trace_"):
            continue
        doc = json.loads(path.read_text())
        out[doc["workload"]] = doc["runs"]
    return out


def spread(values) -> float:
    """Interquartile range as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def verdict(a, b, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worsening = sign * (med_b - med_a) / med_a
    if worsening > bound:
        return "worse"
    all_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if all_better and len(a) > 1 and len(b) > 1:
        return "better"
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    return "better" if worsening < -bound else "same"


def exact_differences(runs_a, runs_b) -> list:
    """Digests and simulated counts of same-seed runs must be equal."""
    by_seed = {r["seed"]: r for r in runs_b}
    out = []
    for ra in runs_a:
        rb = by_seed.get(ra["seed"])
        if rb is None:
            continue
        if ra["digests"] != rb["digests"]:
            out.append(f"seed {ra['seed']}: digests differ")
        if ra["extra"].get("counts") != rb["extra"].get("counts"):
            out.append(f"seed {ra['seed']}: simulated counts differ")
        if ra["attempted"] != rb["attempted"]:
            out.append(f"seed {ra['seed']}: attempted {ra['attempted']} != {rb['attempted']}")
    return out


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    contract = load_contract()
    set_a, set_b = load_set(Path(argv[1])), load_set(Path(argv[2]))
    bad = False
    print("%-8s %-26s %12s %12s %8s %8s %8s  %s" % (
        "workload", "metric", "A median", "B median", "change", "spread", "bound", "verdict"))
    for w in contract["workloads"]:
        name = w["name"]
        if name not in set_a or name not in set_b:
            print(f"{name:8s} missing from one set")
            bad = True
            continue
        runs_a, runs_b = set_a[name], set_b[name]
        for m in contract["end_to_end"] + REPORTED_ONLY:
            binding = m not in REPORTED_ONLY
            a = [r["end_to_end"][m["name"]] for r in runs_a if m["name"] in r["end_to_end"]]
            b = [r["end_to_end"][m["name"]] for r in runs_b if m["name"] in r["end_to_end"]]
            if not a or not b:
                print("%-8s %-26s not reported" % (name, m["name"]))
                bad |= binding
                continue
            v = verdict(a, b, m["better"], m["bound"])
            bad |= binding and v == "worse"
            med_a, med_b = statistics.median(a), statistics.median(b)
            print("%-8s %-26s %12.4f %12.4f %+7.1f%% %7.1f%% %7.0f%%  %s (n=%d,%d)%s" % (
                name, m["name"], med_a, med_b, 100 * (med_b - med_a) / med_a,
                100 * max(spread(a), spread(b)), 100 * m["bound"], v, len(a), len(b),
                "" if binding else " reported only"))
        fail_a = sum(r["failed"] for r in runs_a) / max(1, sum(r["attempted"] for r in runs_a))
        fail_b = sum(r["failed"] for r in runs_b) / max(1, sum(r["attempted"] for r in runs_b))
        v = "worse" if fail_b > fail_a else "same"
        bad |= v == "worse"
        print("%-8s %-26s %12.6f %12.6f %8s %8s %8s  %s" % (
            name, "fail_frac", fail_a, fail_b, "", "", "exact", v))
        diffs = exact_differences(runs_a, runs_b)
        bad |= bool(diffs)
        print("%-8s digests and counts: %s" % (name, "; ".join(diffs) or "identical"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
