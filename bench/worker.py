"""One workload in its own process: set-up, measured passes, checks.

Started by ``bench/run.py``; prints one JSON document as the last line of
its standard output.  Every layer is measured from outside, by timing
calls into the program's public functions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(BENCH_DIR))

import repro.api as api  # noqa: E402
from repro.core.experiment import DatabaseCache  # noqa: E402
from repro.core.resilience import key_str  # noqa: E402
from repro.core.resultcache import result_to_dict  # noqa: E402
from repro.core.sweep import normalize_cell  # noqa: E402
from repro.core.wire import read_frame, write_frame  # noqa: E402
from repro.service.envelope import dump_envelope  # noqa: E402
from repro.tpch.queries import QUERIES  # noqa: E402
from repro.trace.capture import capture_query, replay_trace  # noqa: E402

from hostspeed import Slowdown  # noqa: E402
from spans import Spans  # noqa: E402
from workloads import (  # noqa: E402
    DAEMON_JOBS,
    DEFAULT_SEED,
    SF,
    WARMUP_CELL,
    WORKLOADS,
    cell_id,
    grid_axes,
    smoke,
    units_for,
)

#: The probe cell is short (0.1 s on ``scan``); its spans are medians.
PROBE_REPEATS = 3


class Mismatch(Exception):
    """An output differed from what the benchmark expects."""


def percentile(values, q):
    """Nearest-rank percentile: with n=120, 12 samples lie beyond p90."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def runs_digest(label: str, runs) -> str:
    """sha256 over the simulated statistics of one cell.

    ``runs`` is the ``"runs"`` list of ``result_to_dict``; its ``code``
    and ``spec`` fields are left out because they change with any source
    or config edit while the simulated numbers stay the same."""
    blob = json.dumps({"cell": label, "runs": runs}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def runs_of(result):
    return result_to_dict(result)["runs"]


def counts_from_runs(all_runs) -> dict:
    """Exact simulated counts summed over cells (first repetition)."""
    keys = (
        "instructions", "cycles", "data_refs", "level1_misses",
        "coherent_misses", "miss_comm", "upgrades", "mem_accesses",
        "stall_cycles", "vol_switches", "invol_switches",
    )
    tot = dict.fromkeys(keys, 0)
    backoffs = wall = 0
    qdelay = []
    for runs in all_runs:
        run = runs[0]
        for snap in run["per_process"]:
            for k in keys:
                tot[k] += snap[k]
        backoffs += run["n_backoffs"]
        wall += run["wall_cycles"]
        qdelay.append(run["interconnect_queue_delay_mean"])
    return {
        "cpu.instructions": tot["instructions"],
        "cpu.cycles": tot["cycles"],
        "cpu.cpi": tot["cycles"] / tot["instructions"],
        "mem.data_refs": tot["data_refs"],
        "mem.level1_misses": tot["level1_misses"],
        "mem.coherent_misses": tot["coherent_misses"],
        "mem.miss_comm": tot["miss_comm"],
        "mem.upgrades": tot["upgrades"],
        "mem.mem_accesses": tot["mem_accesses"],
        "mem.stall_cycles": tot["stall_cycles"],
        "mem.l1_hit_ratio": 1.0 - tot["level1_misses"] / tot["data_refs"],
        "mem.queue_delay_mean": statistics.fmean(qdelay),
        "osim.vol_switches": tot["vol_switches"],
        "osim.invol_switches": tot["invol_switches"],
        "osim.backoffs": backoffs,
        "osim.wall_cycles": wall,
    }


def tape_stats(trace) -> dict:
    events = batches = refs = 0
    for rep in trace.tapes:
        for tape in rep:
            events += len(tape)
            for kind, arg in tape:
                if kind == "batch":
                    batches += 1
                    refs += len(arg)
    return {"events": events, "batches": batches, "refs": refs}


@contextmanager
def gc_paused():
    """As ``repro.trace.capture._gc_paused``: a tape is millions of small
    objects and nothing in a kernel run needs cycle collection."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class Bench:
    """State shared by the phases of one workload run."""

    def __init__(self, args) -> None:
        self.args = args
        self.w = WORKLOADS[args.workload]
        if args.smoke:
            self.w = smoke(self.w)
        self.units = units_for(args.seconds, args.smoke)
        self.spans = Spans(self.w.name, keep=bool(args.trace))
        self.tmp = Path(args.tmp)
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.e2e = {}
        self.layer = {}
        self.extra = {}
        self.digests = {}
        self.cfg = api.TPCHConfig(sf=SF, seed=args.seed)
        self.pinned = args.seed == DEFAULT_SEED and not args.bless
        self.expected = self._load_pins() if self.pinned else {}
        self.daemons = []
        self.n_daemons = 0

    # -- correctness ---------------------------------------------------------
    def _load_pins(self) -> dict:
        path = BENCH_DIR / "expected" / f"{self.w.name}.json"
        pins = json.loads(path.read_text())
        if pins["seed"] != DEFAULT_SEED or pins["sf"] != SF:
            raise SystemExit(f"{path} was blessed for another dataset")
        return pins["cells"]

    @contextmanager
    def op(self, what: str):
        """One attempted operation; an exception inside is a failure."""
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # boundary: count it and keep measuring
            self.failed += 1
            self.errors.append(f"{what}: {exc!r}")

    def check_digest(self, label: str, runs) -> None:
        """Against the pin, or against the first digest seen for
        ``label`` in this run when the seed has no pins."""
        got = runs_digest(label, runs)
        if self.pinned:
            want = self.expected.get(label)
            self.digests[label] = got
        else:
            want = self.digests.setdefault(label, got)
        if got != want:
            raise Mismatch(f"{label}: digest {got[:12]} != {str(want)[:12]}")

    # -- the program's public surface ----------------------------------------
    def spec(self, cell, verify=False):
        q, p, n = cell
        return api.ExperimentSpec(
            query=q, platform=p, n_procs=n, tpch=self.cfg,
            sim=api.DEFAULT_SIM, verify_results=verify,
        )

    def setup_common(self):
        with self.spans.span("build"):
            self.db = DatabaseCache.get(self.cfg)
        with self.spans.span("warmup"), gc_paused():
            api.run_experiment(self.spec(WARMUP_CELL), db=self.db)

    # -- simulator workloads -------------------------------------------------
    def setup_replay(self):
        """Capture each tape once on ``hpv`` and persist it."""
        self.store_dir = self.tmp / "traces"
        store = api.TraceStore(self.store_dir)
        self.tape_stats = {}
        for q, n in self.w.tapes:
            spec = self.spec((q, "hpv", n), verify=True)
            label = cell_id((q, "hpv", n))
            with self.spans.span("capture", label):
                _result, trace = api.capture_workload(spec, db=self.db)
            with self.spans.span("store_put", label):
                store.put(spec, trace)
            self.tape_stats[(q, n)] = tape_stats(trace)
        self.extra["store_bytes"] = sum(
            p.stat().st_size for p in self.store_dir.glob("*.trace.npz"))

    def replay_runner(self):
        return api.SweepRunner(
            sim=api.DEFAULT_SIM, tpch=self.cfg, verify_results=False,
            trace_store=api.TraceStore(self.store_dir),
        )

    def untraced_pass(self):
        """All cells once.  Only the calls are timed; the calibration
        kernel runs between them.  Returns ``(seconds, host slowdown,
        [result or exception per cell])``."""
        out, seconds, slow = [], 0.0, Slowdown()
        with gc_paused():
            slow.sample()
            t = time.perf_counter()
            runner = self.replay_runner() if self.w.tapes else None
            seconds += time.perf_counter() - t
            for cell in self.w.cells:
                t = time.perf_counter()
                try:
                    if runner is not None:
                        out.append(runner.cell(*cell))
                    else:
                        out.append(api.run_experiment(self.spec(cell), db=self.db))
                except Exception as exc:  # counted as a failed cell below
                    out.append(exc)
                seconds += time.perf_counter() - t
                slow.sample()
        if runner is not None and runner.trace_sources != {"replay": len(self.w.cells)}:
            out = [Mismatch(f"trace_sources {runner.trace_sources}")] * len(out)
        return seconds, slow.value, out

    def check_pass(self, results, tag=""):
        """One operation per cell; returns the runs of the good ones."""
        good = []
        for cell, result in zip(self.w.cells, results):
            with self.op(cell_id(cell) + tag):
                if isinstance(result, Exception):
                    raise result
                runs = runs_of(result)
                self.check_digest(cell_id(cell), runs)
                good.append(runs)
        return good

    def traced_pass(self):
        """Each cell three ways, so that layer shares are differences of
        spans: ``cell`` runs everything, ``replay`` skips the executor."""
        sp = self.spans
        stats = {"events": 0, "batches": 0, "refs": 0}
        with gc_paused(), sp.span("pass"):
            runner = self.replay_runner() if self.w.tapes else None
            for cell in self.w.cells:
                cid, spec = cell_id(cell), self.spec(cell)
                with self.op(cid + " traced"):
                    results = []
                    if runner is not None:
                        with sp.span("cell", cid):
                            results.append(runner.cell(*cell))
                        store = api.TraceStore(self.store_dir)
                        with sp.span("store_get", cid):
                            trace = store.get(spec)
                        ts = self.tape_stats[(cell[0], cell[2])]
                    else:
                        with sp.span("cell", cid):
                            results.append(api.run_experiment(spec, db=self.db))
                        with sp.span("capture", cid):
                            captured, trace = api.capture_workload(spec, db=self.db)
                        results.append(captured)
                        ts = tape_stats(trace)
                    with sp.span("replay", cid):
                        results.append(api.replay_workload(spec, trace, db=self.db))
                    del trace
                    for k in stats:
                        stats[k] += ts[k]
                    for r in results:
                        self.check_digest(cid, runs_of(r))
        return stats

    def direct_cells(self, cells):
        """Direct execution of a cell must give the digest already seen
        for it (from a pass, a replayed tape or the daemon)."""
        for cell in cells:
            cid = cell_id(cell)
            with self.op(cid + " direct"), gc_paused():
                with self.spans.span("direct", cid):
                    r = api.run_experiment(self.spec(cell), db=self.db)
                self.check_digest(cid, runs_of(r))

    def verified_cells(self):
        """Without pins: every query's rows against the reference
        implementation (rows do not depend on machine or process count)."""
        seen = set()
        for q, p, n in self.w.cells:
            if q not in seen:
                seen.add(q)
                with self.op(f"{q} verify_results"), gc_paused():
                    api.run_experiment(self.spec((q, p, 1), verify=True), db=self.db)

    def probe(self):
        """One p1 cell of the first query/platform, five ways:
        ``exec1`` is one backend's iterators and ref emission with no
        kernel, ``mem1`` is cpu.Processor + mem with no osim.  Runs after
        the passes, so that it cannot change what they allocate."""
        sp = self.spans
        q, plat, _n = self.w.cells[0]
        cell = (q, plat, 1)
        cid, spec = cell_id(cell) + " probe", self.spec(cell)
        qdef = QUERIES[q]
        machine = api.platform(plat).scaled(api.DEFAULT_SIM.cache_scale_log2)
        for _ in range(PROBE_REPEATS):
            with gc_paused(), sp.span("probe"):
                with sp.span("probe.cell", cid):
                    api.run_experiment(spec, db=self.db)
                with sp.span("probe.capture", cid):
                    _r, trace = api.capture_workload(spec, db=self.db)
                with sp.span("probe.replay", cid):
                    api.replay_workload(spec, trace, db=self.db)
                with sp.span("probe.exec1", cid):
                    batches, _rows = capture_query(self.db, qdef, qdef.params())
                with sp.span("probe.mem1", cid):
                    replay_trace(self.db, batches, machine)
        ts = tape_stats(trace)
        d = {name: statistics.median(sp.durations("probe." + name))
             for name in ("cell", "capture", "replay", "exec1", "mem1")}
        d.update(cell_id=cell_id(cell), **ts)
        return d

    def warm_refetch(self, results):
        """The workload's finished grid fetched again by a fresh
        ``SweepRunner`` over a warm ``ResultCache`` (the in-process
        counterpart of a warm resubmission to the daemon)."""
        cache_dir = self.tmp / "results"
        cache = api.ResultCache(cache_dir)
        for r in results:
            cache.put(r.spec, r)
        samples, slow = [], Slowdown()
        with gc_paused():
            for i in range(self.units["warm_n"]):
                if i % 10 == 0:
                    slow.sample()
                with self.op(f"warm refetch {i}"):
                    t = time.perf_counter()
                    runner = api.SweepRunner(
                        sim=api.DEFAULT_SIM, tpch=self.cfg, verify_results=False,
                        cache=api.ResultCache(cache_dir),
                    )
                    got = [runner.cell(*cell) for cell in self.w.cells]
                    samples.append(time.perf_counter() - t)
                    if runner.cache_stats["hits"] != len(self.w.cells):
                        raise Mismatch(f"cache {runner.cache_stats}")
                    for cell, r in zip(self.w.cells, got):
                        self.check_digest(cell_id(cell), runs_of(r))
        self.extra["warm_raw_ms"] = [statistics.median(samples) * 1e3,
                                     percentile(samples, 0.9) * 1e3]
        self.extra["warm_slowdown"] = slow.value
        return [x / slow.value for x in samples]

    def run_sim(self):
        self.setup_common()
        if self.w.tapes:
            self.setup_replay()
        self.e2e["setup_s"] = time.monotonic() - self.args.t0
        if self.args.setup_only:
            return

        raw, slows, first, all_runs = [], [], None, []
        for i in range(1 if self.args.trace else self.units["passes"]):
            seconds, slowdown, results = self.untraced_pass()
            raw.append(seconds)
            slows.append(slowdown)
            runs = self.check_pass(results, tag=f" pass {i}")
            if first is None:
                first, all_runs = results, runs
        if len(all_runs) != len(self.w.cells):
            return  # a failed cell: no rate to report
        counts = counts_from_runs(all_runs)
        self.extra["counts"] = counts
        self.extra["pass_raw_s"] = raw
        self.extra["pass_slowdown"] = slows
        self.extra["pass_s"] = [r / s for r, s in zip(raw, slows)]
        pass_s = statistics.median(self.extra["pass_s"])
        self.e2e["sim_minstr_per_s"] = counts["cpu.instructions"] / pass_s / 1e6
        self.e2e["cold_submit_fetch_s"] = pass_s

        if not self.pinned:
            self.verified_cells()
            # one cell again, directly: the run repeats itself and, on
            # ``replay``, a replayed tape equals execution
            fewest = min(self.w.cells, key=lambda cell: cell[2])
            self.direct_cells(self.w.cells if self.args.bless else [fewest])

        if self.args.trace:
            self.trace_account(raw[0], counts)
        warm = self.warm_refetch(first)
        self.e2e["warm_submit_fetch_ms_p50"] = statistics.median(warm) * 1e3
        self.e2e["warm_submit_fetch_ms_p90"] = percentile(warm, 0.9) * 1e3

    def trace_account(self, untraced_wall, counts):
        """The traced pass and the layer account it gives."""
        sp = self.spans
        stats = self.traced_pass()
        if self.w.tapes:
            self.direct_cells(self.w.cells)
        probe = self.probe()
        self.extra["probe"] = probe
        cell_s, replay_s = sp.total("cell"), sp.total("replay")
        layer = self.layer
        layer.update(counts)
        layer["tpch.build_s"] = sp.total("build")
        layer["tpch.db_bytes"] = self.db.footprint_bytes()
        exec_s = 0.0 if self.w.tapes else cell_s - replay_s
        layer["db.exec_s"] = exec_s
        layer["db.events"] = stats["events"]
        layer["db.exec_us_per_event"] = exec_s / stats["events"] * 1e6
        layer["db.exec_share"] = exec_s / cell_s
        layer["trace.refs"] = stats["refs"]
        layer["trace.refs_per_batch"] = stats["refs"] / stats["batches"]
        if self.w.tapes:
            layer["trace.capture_overhead_frac"] = probe["capture"] / probe["cell"] - 1
            layer["trace.store_put_s"] = sp.total("store_put")
            layer["trace.store_get_s"] = sp.total("store_get")
            layer["trace.store_bytes"] = self.extra["store_bytes"]
        else:
            layer["trace.capture_overhead_frac"] = sp.total("capture") / cell_s - 1
        sched_s = probe["replay"] - probe["mem1"]
        layer["osim.sched_s"] = sched_s
        layer["osim.sched_us_per_event"] = sched_s / probe["events"] * 1e6
        layer["mem.replay_s"] = replay_s
        layer["mem.ns_per_ref"] = probe["mem1"] / probe["refs"] * 1e9
        layer["mem.replay_share"] = replay_s / cell_s
        layer["bench.trace_overhead_frac"] = cell_s / untraced_wall - 1
        layer["bench.host_slowdown"] = statistics.fmean(self.extra["pass_slowdown"])
        self.extra["shares"] = {
            "cell_s": cell_s, "replay_s": replay_s, "capture_s": sp.total("capture"),
            "untraced_pass_s": untraced_wall,
        }

    # -- the service workload ------------------------------------------------
    def start_daemon(self):
        """``repro serve`` as a child process; returns its client."""
        self.n_daemons += 1
        data_dir = self.tmp / f"daemon{self.n_daemons}"
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        with self.spans.span("daemon_start"):
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--data-dir", str(data_dir),
                 "--port", "0", "--jobs", str(DAEMON_JOBS),
                 "--rate", "1e6", "--burst", "1000000"],
                env=env, stdout=subprocess.DEVNULL, cwd=str(REPO),
            )
            self.daemons.append(proc)
            discovery = data_dir / "service.json"
            deadline = time.monotonic() + 60
            while True:
                try:
                    url = json.loads(discovery.read_text())["url"]
                    client = api.SweepClient(url, tenant="bench")
                    client.info()
                    return client
                except (OSError, ValueError, KeyError):
                    if proc.poll() is not None or time.monotonic() > deadline:
                        raise RuntimeError("daemon did not start")
                    time.sleep(0.005)

    def stop_daemons(self):
        for proc in self.daemons:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in self.daemons:
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.daemons = []

    def roundtrip(self, client, payload):
        """submit -> SSE ``end`` -> results, as ``repro submit --wait``
        followed by ``repro fetch``.  Each request is one operation."""
        sp, parts = self.spans, {}
        job_id = final = doc = None
        with sp.span("roundtrip") as whole:
            with self.op("submit"), sp.span("submit") as s:
                job_id = client.submit(payload)["data"]["id"]
            parts["submit"] = s.duration
            if job_id is None:
                return None
            with self.op("events"), sp.span("events") as s:
                for ev in client.events(job_id):
                    parts.setdefault("first_event", time.perf_counter() - s.start)
                    final = ev
                if final is None or final["event"] != "end":
                    raise Mismatch("event stream ended without `end`")
                if final["data"]["data"]["state"] != "done":
                    raise Mismatch(f"job {final['data']['data']['state']}")
            parts["events"] = s.duration
            with self.op("fetch"), sp.span("fetch") as s:
                doc = client.results(job_id)
                if "missing" in doc["data"]:
                    raise Mismatch(f"missing cells {doc['data']['missing']}")
            parts["fetch"] = s.duration
        parts["total"] = whole.duration
        if final is None or doc is None:
            return None
        parts["report"] = final["data"]["data"]["report"]
        parts["doc"] = doc
        return parts

    def check_document(self, doc):
        """Every cell of a results document against its digest."""
        cells = doc["data"]["cells"]
        for cell in self.w.cells:
            self.check_digest(cell_id(cell), cells[key_str(normalize_cell(cell))]["runs"])
        if not self.args.smoke:
            self.check_digest("document", {
                "spec": doc["data"]["spec"],
                "cells": {key: cell["runs"] for key, cell in cells.items()},
            })

    def run_service(self):
        self.setup_common()
        sp = self.spans
        client = self.start_daemon()
        self.e2e["setup_s"] = time.monotonic() - self.args.t0
        if self.args.setup_only:
            return

        payload = dict(grid_axes(self.w.cells), sf=SF, seed=self.args.seed)
        n_cells = len(self.w.cells)
        legs = 1 if self.args.trace else self.units["cold_legs"]
        cold, cold_doc = [], None
        for leg in range(legs):
            if leg:
                self.stop_daemons()
                client = self.start_daemon()
            slow = Slowdown()
            slow.sample()
            slow.sample()
            rt = self.roundtrip(client, payload)
            slow.sample()
            slow.sample()
            with self.op(f"cold grid {leg}"):
                if rt is None:
                    raise Mismatch("cold submission failed")
                rt["slowdown"] = slow.value
                if rt["report"]["ran"] != n_cells or not rt["report"]["ok"]:
                    raise Mismatch(f"cold report {rt['report']}")
                self.check_document(rt["doc"])
                cold.append(rt)
                cold_doc = rt["doc"]
        if cold_doc is None:
            return

        warm = []
        warm_n = self.units["warm_n"]
        for i in range(warm_n):
            # a traced run keeps spans for the second half only, and the
            # difference between the halves is the tracing overhead
            sp.keep = bool(self.args.trace) and i >= warm_n // 2
            rt = self.roundtrip(client, payload)
            with self.op(f"warm grid {i}"):
                if rt is None:
                    raise Mismatch("warm submission failed")
                if rt["report"]["ran"] or rt["report"]["memoized"] != n_cells:
                    raise Mismatch(f"warm report {rt['report']}")
                if rt["doc"] != cold_doc:
                    raise Mismatch("warm fetch differs from the cold fetch")
                warm.append(rt)
        sp.keep = bool(self.args.trace)
        info = client.info()["data"]["queue"]
        self.stop_daemons()
        if not warm:
            return

        all_runs = [cold_doc["data"]["cells"][key_str(normalize_cell(c))]["runs"]
                    for c in self.w.cells]
        counts = counts_from_runs(all_runs)
        self.extra["counts"] = counts
        self.extra["cold_raw_s"] = [rt["total"] for rt in cold]
        self.extra["cold_slowdown"] = [rt["slowdown"] for rt in cold]
        self.extra["cold_s"] = [rt["total"] / rt["slowdown"] for rt in cold]
        cold_s = statistics.median(self.extra["cold_s"])
        totals = [rt["total"] for rt in warm]
        self.e2e["cold_submit_fetch_s"] = cold_s
        self.e2e["sim_minstr_per_s"] = counts["cpu.instructions"] / cold_s / 1e6
        self.e2e["warm_submit_fetch_ms_p50"] = statistics.median(totals) * 1e3
        self.e2e["warm_submit_fetch_ms_p90"] = percentile(totals, 0.9) * 1e3

        if not self.pinned:
            self.verified_cells()
        if not (self.args.trace or self.args.bless):
            return
        # the same grid serially in this process: the digests the daemon
        # must reproduce, and the base of the parallel speed-up
        results = []
        for cell in self.w.cells:
            cid = cell_id(cell)
            with self.op(cid + " direct"), gc_paused():
                with sp.span("serial_cell", cid):
                    r = api.run_experiment(self.spec(cell), db=self.db)
                self.check_digest(cid, runs_of(r))
                results.append(r)
        if not self.args.trace or len(results) != n_cells:
            return
        self.service_account(cold, warm, counts, info, results)

    def service_account(self, cold, warm, counts, info, results):
        """The layer account of a traced ``service`` run."""
        sp, cold_doc = self.spans, cold[-1]["doc"]
        totals = [rt["total"] for rt in warm]
        layer = self.layer
        layer.update(counts)
        layer["tpch.build_s"] = sp.total("build")
        layer["tpch.db_bytes"] = self.db.footprint_bytes()
        layer["core.parallel_speedup"] = (
            sp.total("serial_cell") / statistics.median(self.extra["cold_raw_s"]))
        layer["bench.host_slowdown"] = statistics.fmean(self.extra["cold_slowdown"])
        layer["core.cells_ran"] = sum(rt["report"]["ran"] for rt in cold + warm)
        layer["core.cells_cache_hit"] = sum(
            rt["report"]["cache"]["hits"] for rt in cold + warm)
        layer["core.retries"] = sum(rt["report"]["retries"] for rt in cold + warm)
        self.resultcache_and_wire(results)
        layer["service.daemon_start_s"] = statistics.median(sp.durations("daemon_start"))
        for part in ("submit", "events", "fetch"):
            layer[f"service.{part}_ms"] = statistics.median(rt[part] for rt in warm) * 1e3
        layer["service.first_event_ms"] = statistics.median(
            rt["first_event"] for rt in cold) * 1e3
        layer["service.fetch_bytes"] = len(dump_envelope(cold_doc).encode()) + 1
        layer["service.rejected"] = (
            info["rejected_rate_limited"] + info["rejected_queue_full"])
        half = len(warm) // 2
        layer["bench.trace_overhead_frac"] = (
            statistics.median(totals[half:]) / statistics.median(totals[:half]) - 1)

    def resultcache_and_wire(self, results):
        """``ResultCache`` and wire-frame costs on this grid's results."""
        layer = self.layer
        cache_dir = self.tmp / "results"
        cache = api.ResultCache(cache_dir)
        put_s, get_s, wire_s = [], [], []
        for _ in range(5):
            for r in results:
                t = time.perf_counter()
                cache.put(r.spec, r)
                put_s.append(time.perf_counter() - t)
            for r in results:
                t = time.perf_counter()
                cache.get(r.spec)
                get_s.append(time.perf_counter() - t)
            for r in results:
                message = {"op": "cell_done", "result": result_to_dict(r)}
                t = time.perf_counter()
                stream = io.BytesIO()
                write_frame(stream, message)
                stream.seek(0)
                read_frame(stream)
                wire_s.append(time.perf_counter() - t)
        files = list(cache_dir.glob("*.json"))
        layer["core.resultcache_put_ms"] = statistics.median(put_s) * 1e3
        layer["core.resultcache_get_ms"] = statistics.median(get_s) * 1e3
        layer["core.result_bytes"] = sum(p.stat().st_size for p in files) / len(files)
        layer["core.wire_roundtrip_ms"] = statistics.median(wire_s) * 1e3

    # -- driver --------------------------------------------------------------
    def run(self) -> dict:
        try:
            if self.w.name == "service":
                self.run_service()
            else:
                self.run_sim()
        finally:
            self.stop_daemons()
            shutil.rmtree(self.tmp, ignore_errors=True)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if self.w.name == "service":
            rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        self.e2e["peak_rss_mb"] = rss_kb / 1024
        if self.args.trace and not self.args.setup_only:
            self.spans.write_chrome_trace(Path(self.args.trace_out))
        return {
            "workload": self.w.name,
            "seed": self.args.seed,
            "trace": bool(self.args.trace),
            "smoke": self.args.smoke,
            "pinned": self.pinned,
            "units": self.units,
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors[:20],
            "end_to_end": self.e2e,
            "per_layer": self.layer,
            "digests": self.digests,
            "extra": self.extra,
        }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--trace-out", default="")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--bless", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the parent just before the spawn")
    ap.add_argument("--tmp", required=True)
    args = ap.parse_args()
    print(json.dumps(Bench(args).run()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
