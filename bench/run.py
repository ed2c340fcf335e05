"""The repo's benchmark: simulator, sweep engine and service in one command.

    python bench/run.py                 # five workloads, end-to-end metrics
    python bench/run.py --trace         # per-layer metrics + Chrome traces
    python bench/run.py --smoke         # one cell per workload, < 20 s
    python bench/run.py --bless         # rewrite bench/expected/*.json
    python bench/run.py --workload scan --seed 7 --seconds 16 --trace 0

Each workload runs in its own subprocess (``bench/worker.py``).  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; see ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import (  # noqa: E402
    DAEMON_JOBS, DEFAULT_SECONDS, DEFAULT_SEED, SF, WORKLOADS, smoke, units_for,
)

CONTRACT = REPO / "BENCHMARK.json"
WORKER_TIMEOUT_S = 120
#: End-to-end metrics every run reports and ``bench/out`` records, but that
#: BENCHMARK.json does not hold the driver to: a p90 of sub-millisecond
#: requests follows the host's bursts, and the cold seconds grow with the
#: seed's data where ``sim_minstr_per_s`` does not.  ``fail_frac`` is also
#: reported only (it is 0 on every good run; the result line's ``failed``
#: and ``attempted`` carry it).
REPORTED_ONLY = [
    {"name": "warm_submit_fetch_ms_p90", "unit": "ms", "better": "lower", "bound": 0.15},
    {"name": "cold_submit_fetch_s", "unit": "s", "better": "lower", "bound": 0.15},
]


def load_contract() -> dict:
    return json.loads(CONTRACT.read_text())


def host_record() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(REPO), capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "loadavg_1m_before": os.getloadavg()[0],
    }


def spawn_worker(workload: str, args, out_dir: Path, setup_only: bool) -> dict:
    """Run one worker process to completion and return its document."""
    tmp = out_dir / "tmp" / f"{workload}-{os.getpid()}"
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--trace-out", str(out_dir / f"trace_{workload}.json"),
        "--tmp", str(tmp),
    ]
    for flag in ("smoke", "bless"):
        if getattr(args, flag):
            cmd.append(f"--{flag}")
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t0", repr(time.monotonic())]
    # its own process group, so that a hung worker's daemon dies with it
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=str(REPO),
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(workload: str, args, out_dir: Path) -> dict:
    """Set-up ``setups`` times (the last one goes on to measure)."""
    units = units_for(args.seconds, args.smoke)
    setups = 1 if (args.trace or args.bless) else units["setups"]
    setup_samples = [
        spawn_worker(workload, args, out_dir, setup_only=True)["end_to_end"]["setup_s"]
        for _ in range(setups - 1)
    ]
    doc = spawn_worker(workload, args, out_dir, setup_only=False)
    setup_samples.append(doc["end_to_end"]["setup_s"])
    doc["end_to_end"]["setup_s"] = statistics.median(setup_samples)
    doc["extra"]["setup_s"] = setup_samples
    doc["end_to_end"]["fail_frac"] = doc["failed"] / max(1, doc["attempted"])
    return doc


def contract_metrics(doc: dict, contract: dict) -> dict:
    """The metrics object of the result line: every ``end_to_end`` metric
    of BENCHMARK.json, or with ``--trace`` every ``per_layer`` metric
    (0 where the workload does not exercise the layer)."""
    if doc["trace"]:
        return {
            m["name"]: {"value": doc["per_layer"].get(m["name"], 0), "unit": m["unit"]}
            for m in contract["per_layer"]
        }
    return {
        m["name"]: {"value": doc["end_to_end"][m["name"]], "unit": m["unit"]}
        for m in contract["end_to_end"]
        if m["name"] in doc["end_to_end"]
    }


def fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.4g}" if abs(value) < 1e6 else f"{value:.6e}"


def print_report(doc: dict, contract: dict) -> None:
    w = WORKLOADS[doc["workload"]]
    if doc["smoke"]:
        w = smoke(w)
    u, x = doc["units"], doc["extra"]
    checks = ("pinned digests" if doc["pinned"] else
              "no pins for this seed: verify_results cells + one cell run again directly")
    print(f"\n== {w.name}: {len(w.cells)} cells, seed {doc['seed']}, {checks}")
    units = {m["name"]: m["unit"]
             for m in REPORTED_ONLY + contract["end_to_end"] + contract["per_layer"]}
    notes = {
        "setup_s": "median of n=%d set-ups, %s..%s s" % (
            len(x["setup_s"]), fmt(min(x["setup_s"])), fmt(max(x["setup_s"]))),
        "fail_frac": "%d failed / %d attempted" % (doc["failed"], doc["attempted"]),
    }
    for key, what in (("pass", "passes"), ("cold", "fresh daemons")):
        if key + "_s" in x:
            notes["cold_submit_fetch_s"] = notes["sim_minstr_per_s"] = (
                "median of n=%d %s, reference-host s; raw %s s at host slowdown %s" % (
                    len(x[key + "_s"]), what,
                    "/".join(fmt(v) for v in x[key + "_raw_s"]),
                    "/".join(fmt(v) for v in x[key + "_slowdown"])))
    warm = "n=%d" % u["warm_n"]
    if "warm_raw_ms" in x:
        warm += ", reference-host ms; raw p50 %s p90 %s ms at host slowdown %s" % (
            *(fmt(v) for v in x["warm_raw_ms"]), fmt(x["warm_slowdown"]))
    notes["warm_submit_fetch_ms_p50"] = notes["warm_submit_fetch_ms_p90"] = warm
    title = "per-layer, traced run" if doc["trace"] else "end-to-end, untraced run"
    print(f"  {title}:")
    rows = doc["per_layer"] if doc["trace"] else doc["end_to_end"]
    for name, value in rows.items():
        note = notes.get(name)
        print("    %-30s %12s %-12s %s" % (
            name, fmt(value), units.get(name, ""), f"({note})" if note else ""))
    if doc["trace"] and "shares" in x:
        s, p = x["shares"], x["probe"]
        print("    bases: cell %.3f s, replay %.3f s, capture %.3f s, untraced pass %.3f s"
              % (s["cell_s"], s["replay_s"], s["capture_s"], s["untraced_pass_s"]))
        print("    probe %s: cell %.3f, capture %.3f, replay %.3f, exec1 %.3f, mem1 %.3f s; "
              "%d events, %d refs" % (p["cell_id"], *(p[k] for k in (
                  "cell", "capture", "replay", "exec1", "mem1")), p["events"], p["refs"]))
    for err in doc["errors"]:
        print("    FAILED", err)


def write_pins(doc: dict) -> None:
    path = BENCH_DIR / "expected" / f"{doc['workload']}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(
        {"seed": doc["seed"], "sf": SF, "cells": doc["digests"]},
        indent=2, sort_keys=True) + "\n")
    print(f"blessed {path.relative_to(REPO)} ({len(doc['digests'])} cells)")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                    help="one workload (default: all five)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="TPC-H data seed; only the default has pinned digests")
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                    help="measured time asked for; rounded to whole passes "
                         "and warm requests (see workloads.units_for)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                    help="traced run: per-layer metrics and bench/out/trace_<workload>.json")
    ap.add_argument("--smoke", action="store_true",
                    help="one cell per workload, 5 warm requests; not comparable")
    ap.add_argument("--bless", action="store_true",
                    help="rewrite bench/expected/ from this run (default seed only)")
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per workload, with seeds seed, seed+1, ...")
    ap.add_argument("--out", default=str(BENCH_DIR / "out"),
                    help="directory for <workload>.json (default bench/out)")
    args = ap.parse_args()

    if not (REPO / "src" / "repro" / "api.py").is_file():
        print("bench/run.py: src/repro is not here; nothing to measure", file=sys.stderr)
        return 2
    if args.bless and (args.seed != DEFAULT_SEED or args.smoke or args.trace):
        ap.error("--bless takes the default seed and the full, untraced workloads")
    contract = load_contract()
    names = [args.workload] if args.workload else list(WORKLOADS)
    out_dir = Path(args.out).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)

    host = host_record()
    units = units_for(args.seconds, args.smoke)
    host.update(jobs=DAEMON_JOBS, passes=units["passes"], seed=args.seed, seconds=args.seconds)
    comparable = host["nproc"] >= 2 and not args.smoke
    print("host: %(nproc)d cpus, %(cpu_model)s, python %(python)s, numpy %(numpy)s, "
          "commit %(git_commit)s, load %(loadavg_1m_before).2f" % host)
    print("model validated qualitatively only (the paper's 15 claims); simulated "
          "results are checked bit for bit, host time is what is measured.")
    print("simulated caches start empty in every cell; service is a closed loop "
          "with one client; daemon jobs=%d." % DAEMON_JOBS)
    if host["nproc"] < 2:
        print("WARNING: fewer than 2 cpus: the cold service leg needs two workers; "
              "results are NOT comparable")
    if host["loadavg_1m_before"] > host["nproc"]:
        print("WARNING: load average exceeds the cpu count; timings will be noisy")
    if args.smoke:
        print("smoke mode: metrics are NOT comparable")

    base_seed = args.seed
    docs = {name: [] for name in names}
    for i in range(args.repeat):
        args.seed = base_seed + i
        for name in names:
            doc = run_workload(name, args, out_dir)
            docs[name].append(doc)
            print_report(doc, contract)
            if args.bless and not doc["failed"]:
                write_pins(doc)
    host["loadavg_1m_after"] = os.getloadavg()[0]

    suffix = ".traced.json" if args.trace else ".json"
    for name, runs in docs.items():
        (out_dir / (name + suffix)).write_text(json.dumps(
            {"workload": name, "host": host, "comparable": comparable, "runs": runs},
            indent=1) + "\n")

    attempted = sum(d["attempted"] for runs in docs.values() for d in runs)
    failed = sum(d["failed"] for runs in docs.values() for d in runs)
    wanted = contract["per_layer"] if args.trace else contract["end_to_end"]
    per = {name: contract_metrics(runs[-1], contract) for name, runs in docs.items()}
    complete = all(len(m) == len(wanted) for m in per.values())
    if args.workload:
        metrics = per[args.workload]
    else:
        metrics = {f"{name}:{k}": v for name, m in per.items() for k, v in m.items()}
    print()
    print(json.dumps({
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 and complete else 1


if __name__ == "__main__":
    sys.exit(main())
