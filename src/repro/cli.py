"""Command-line interface.

``python -m repro <command>``:

* ``run``        — run one experiment cell and print its counters
* ``sweep``      — run sweep cells resiliently (checkpoint/resume)
* ``figures``    — regenerate paper figures (all or a selection)
* ``validate``   — evaluate the paper-claim scoreboard
* ``verify``     — coherence invariants + differential fuzz + goldens
* ``microbench`` — run the calibration microbenchmarks
* ``describe``   — print machine and database configurations
* ``machines``   — ``machines list``/``describe``/``validate``: inspect
  the platform registry; anywhere a ``--platform`` is accepted, any
  registered name or a machine file path (``.toml``/``.json``) works
* ``trace``      — ``trace capture``/``trace replay``: record a whole
  workload's per-process tapes into the trace store, or replay them
  through any machine model (bitwise-identical counters)
* ``worker``     — sweep host worker: speak the length-prefixed JSON
  frame protocol on stdin/stdout (spawned by ``--hosts``, locally or
  as the remote end of ``ssh host repro worker``; not for interactive
  use)
* ``serve``      — run the experiment daemon: a versioned HTTP API
  (``POST /v1/sweeps``, SSE events, shared result store) over the
  distributed sweep engine (see :mod:`repro.service`)
* ``submit``     — send a sweep spec to a running daemon
* ``status``     — show one daemon job (or all of them)
* ``fetch``      — download a finished job's results

Exit codes (the machine contract):

* ``0`` — success
* ``1`` — the command ran but work failed (quarantined sweep cells, a
  failed verification, a missed paper claim, a failed service job)
* ``2`` — bad usage (unknown flags, invalid configuration, a sweep
  spec the daemon rejected)

Every ``--json`` output is a ``repro/v1`` envelope —
``{"schema": "repro/v1", "kind": ..., "data": {...}}`` — the same
contract the HTTP API speaks (:mod:`repro.service.envelope`).
Under ``--json`` stdout carries only that envelope; progress lines go
to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .config import DEFAULT_SIM
from .core import metrics
from .core.experiment import ExperimentSpec, run_experiment
from .core.executors import select_executor
from .core.figures import FIGURES, cells_for, regenerate_figure
from .core.parallel import ParallelSweepRunner
from .core.report import render_table
from .core.resilience import CheckpointManifest, RetryPolicy
from .core.resultcache import ResultCache, spec_fingerprint
from .core.sweep import SweepRunner, figure_grid_cells
from .core.validate import scoreboard, validate_all
from .errors import ConfigError
from .mem.machine import platform
from .mem.registry import REGISTRY, validate_machine
from .obs.sinks import SweepEventRecorder
from .service.envelope import dump_envelope, error_envelope, make_envelope
from .tpch.datagen import TPCHConfig, build_database
from .tpch.queries import QUERIES


def _print_envelope(kind: str, data: dict) -> None:
    """Print one ``repro/v1`` envelope — the single choke point every
    ``--json`` path goes through, so CLI output and HTTP responses
    cannot drift apart."""
    print(dump_envelope(make_envelope(kind, data)))


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sf", type=float, default=0.001, help="TPC-H scale factor")
    p.add_argument("--seed", type=int, default=19920101, help="data seed")


def _tpch(args) -> TPCHConfig:
    return TPCHConfig(sf=args.sf, seed=args.seed)


def _add_sweep_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run sweep cells on N worker processes (default: serial)",
    )
    p.add_argument(
        "--hosts", default=None, metavar="H1,H2,...",
        help="distribute sweep cells across hosts (comma-separated: "
             "'local', 'ssh:user@host', 'cmd:...', or an integer N for "
             "N local subprocess hosts); default: $REPRO_HOSTS; "
             "overrides --jobs",
    )
    p.add_argument(
        "--cache-dir", nargs="?", const="", default=None, metavar="DIR",
        help="persist results on disk; with no DIR uses ~/.cache/repro",
    )
    p.add_argument(
        "--trace-cache", nargs="?", const="", default=None, metavar="DIR",
        help="capture each workload's reference tape once and replay it "
             "for every other machine (bitwise-identical results); with "
             "no DIR uses <result cache>/traces",
    )


def _trace_store(args):
    """The :class:`~repro.trace.store.TraceStore` the --trace-cache
    flag describes (``None`` when the flag is absent)."""
    if getattr(args, "trace_cache", None) is None:
        return None
    from .trace.store import TraceStore

    return TraceStore(args.trace_cache or None)


def _executor(args):
    """The :class:`~repro.core.executors.SweepExecutor` the
    ``--hosts``/``--jobs`` flags describe (``None`` = serial).
    ``--hosts`` falls back to the ``REPRO_HOSTS`` environment variable
    and takes precedence over ``--jobs``."""
    hosts = getattr(args, "hosts", None) or os.environ.get("REPRO_HOSTS")
    return select_executor(jobs=args.jobs, hosts=hosts or None)


def _make_runner(args) -> SweepRunner:
    """Build the sweep runner the --jobs/--hosts/--cache-dir/
    --trace-cache flags describe."""
    cache = None
    if args.cache_dir is not None:
        cache = ResultCache(args.cache_dir or None)
    trace_store = _trace_store(args)
    executor = _executor(args)
    if executor is not None:
        return ParallelSweepRunner(
            sim=DEFAULT_SIM, tpch=_tpch(args), cache=cache,
            executor=executor, trace_store=trace_store,
        )
    return SweepRunner(
        sim=DEFAULT_SIM, tpch=_tpch(args), cache=cache, trace_store=trace_store
    )


def _report_cache(runner: SweepRunner) -> None:
    if runner.cache is not None:
        print(runner.cache.describe())


def cmd_run(args) -> int:
    """``repro run``: one experiment cell, counters printed."""
    spec = ExperimentSpec(
        query=args.query,
        platform=args.platform,
        n_procs=args.procs,
        tpch=_tpch(args),
        sim=DEFAULT_SIM,
    )
    result = run_experiment(spec)
    m = result.mean
    machine = result.machine
    print(machine.describe())
    print(f"query={args.query} procs={args.procs} rows={result.runs[0].query_rows}")
    print(f"thread time   : {m.cycles:,} cycles "
          f"({metrics.thread_time_seconds(m, machine) * 1e3:.2f} ms)")
    print(f"instructions  : {m.instructions:,}")
    print(f"CPI           : {metrics.cpi(m, machine):.3f}")
    print(f"L1 misses     : {m.level1_misses:,}  "
          f"coherent misses: {m.coherent_misses:,}")
    print(f"miss kinds    : cold={m.miss_cold} capacity={m.miss_capacity} "
          f"comm={m.miss_comm}")
    print(f"ctx switches  : voluntary={m.vol_switches} "
          f"involuntary={m.invol_switches}")
    print(f"mem latency   : {metrics.mean_memory_latency_cycles(m):.1f} "
          f"cycles/transaction")
    return 0


def cmd_sweep(args) -> int:
    """``repro sweep``: run a selection of grid cells resiliently.

    The sweep survives worker crashes, stragglers, and corrupted
    results (see :mod:`repro.core.resilience`); cells whose retries are
    exhausted are quarantined and reported, and the exit code is ``1``
    when any cell failed.  With ``--cache-dir`` a checkpoint manifest
    is persisted next to the result cache, so after a ``kill -9`` the
    same command with ``--resume`` recomputes only unfinished cells.
    ``--json`` prints a machine-readable summary instead of prose.

    With ``--profile FILE`` the first selected cell runs alone under
    :mod:`cProfile` and the stats are dumped to ``FILE`` (load them
    with ``pstats.Stats(FILE)``), so perf work starts from data
    instead of guesses.

    With ``--trace-out FILE`` the first selected cell runs with a
    :class:`~repro.obs.sinks.ChromeTraceExporter` attached, the sweep
    then continues with the exporter listening to the sweep engine's
    retry/timeout/degradation events, and the combined Chrome-trace
    JSON is written to ``FILE`` — open it at ``chrome://tracing`` (or
    in Perfetto's legacy loader).
    """
    from .core.sweep import NPROC_SWEEP, normalize_cell
    from .tpch.queries import PAPER_QUERIES

    queries = tuple(args.query) if args.query else tuple(PAPER_QUERIES)
    if args.platforms:
        platforms = tuple(
            s for s in (x.strip() for x in args.platforms.split(",")) if s
        )
    elif args.platform:
        platforms = tuple(args.platform)
    else:
        platforms = REGISTRY.paper_platforms()
    nprocs = tuple(args.procs) if args.procs else NPROC_SWEEP
    cells = figure_grid_cells(queries, platforms, nprocs)

    cache = None
    if args.cache_dir is not None:
        cache = ResultCache(args.cache_dir or None)
    if args.resume and cache is None:
        print("error: --resume needs --cache-dir (that is where the "
              "checkpoint manifest lives)", file=sys.stderr)
        return 2
    runner = ParallelSweepRunner(
        sim=DEFAULT_SIM, tpch=_tpch(args), cache=cache,
        executor=_executor(args), trace_store=_trace_store(args),
    )

    if args.profile:
        import cProfile
        import pstats

        spec = runner._spec(normalize_cell(cells[0]))
        prof = cProfile.Profile()
        prof.enable()
        run_experiment(spec)
        prof.disable()
        prof.dump_stats(args.profile)
        print(f"profiled cell {cells[0]} -> {args.profile}")
        pstats.Stats(prof).sort_stats("cumulative").print_stats(12)
        return 0

    # under --json, stdout is the envelope alone
    progress = sys.stderr if args.json else sys.stdout
    exporter = None
    sinks: List = [SweepEventRecorder()]
    if args.trace_out:
        from .mem.machine import platform as _platform
        from .obs.sinks import ChromeTraceExporter

        key = normalize_cell(cells[0])
        spec = runner._spec(key)
        machine = _platform(spec.platform).scaled(spec.sim.cache_scale_log2)
        exporter = ChromeTraceExporter(cycles_per_us=machine.clock_hz / 1e6)
        result = run_experiment(spec, sinks=[exporter])
        runner._store(key, result)  # the sweep reuses the traced run
        sinks.append(exporter)

    manifest = None
    if cache is not None:
        manifest = CheckpointManifest.open(
            cache.directory,
            [normalize_cell(c) for c in cells],
            [spec_fingerprint(runner._spec(normalize_cell(c))) for c in cells],
        )
        if args.resume:
            print(
                f"resume: {manifest.n_done} of {len(cells)} cells already "
                f"complete in {manifest.path}",
                file=progress,
            )

    report = runner.execute(
        cells,
        policy=RetryPolicy(max_attempts=args.retries),
        timeout_s=args.timeout,
        manifest=manifest,
        sinks=sinks,
    )

    if exporter is not None:
        path = exporter.write(args.trace_out)
        dropped = exporter.to_json()["otherData"]["dropped_events"]
        note = f" ({dropped} dropped)" if dropped else ""
        print(
            f"traced cell {cells[0]} + sweep events -> {path} "
            f"({exporter.n_events} events{note}); open in chrome://tracing",
            file=progress,
        )

    rc = 0 if report.ok else 1
    if args.json:
        payload = report.to_dict()
        payload["cache"] = runner.cache_stats
        payload["trace_sources"] = dict(runner.trace_sources)
        if runner.trace_store is not None:
            payload["trace_store"] = runner.trace_store.stats
        if manifest is not None:
            payload["manifest"] = str(manifest.path)
        payload["exit_code"] = rc
        _print_envelope("sweep-report", payload)
        return rc

    rate = report.ran / report.duration_s if report.duration_s > 0 else float("inf")
    print(
        f"sweep: {report.ran} of {report.total} cells ran "
        f"({report.memoized} memoized) "
        f"in {report.duration_s:.2f}s — {rate:.2f} cells/sec"
    )
    for line in report.summary_lines():
        print(line)
    srcs = runner.trace_sources
    if srcs.get("captured") or srcs.get("replay"):
        print(
            f"trace cache: {srcs.get('captured', 0)} workload(s) captured, "
            f"{srcs.get('replay', 0)} cell(s) replayed"
        )
    _report_cache(runner)
    return rc


def cmd_figures(args) -> int:
    """``repro figures``: regenerate the selected paper figures."""
    runner = _make_runner(args)
    fig_ids = args.fig if args.fig else sorted(FIGURES)
    # fan the needed cells out first; the builders then only read memos
    runner.prewarm(cells_for(fig_ids))
    for fig_id in fig_ids:
        fig = regenerate_figure(fig_id, runner)
        print(render_table(fig))
        print()
    _report_cache(runner)
    return 0


def cmd_validate(args) -> int:
    """``repro validate``: claim scoreboard; exit 1 on any miss."""
    runner = _make_runner(args)
    if isinstance(runner, ParallelSweepRunner):
        # the claim checks read all over the matrix; warm it in parallel
        runner.prewarm(figure_grid_cells())
    results = validate_all(runner)
    print(scoreboard(results))
    _report_cache(runner)
    return 0 if all(r.holds for r in results) else 1


def cmd_verify(args) -> int:
    """``repro verify``: run the correctness-verification stack and
    exit nonzero on any invariant violation, fuzz divergence, or golden
    drift."""
    from pathlib import Path

    from .verify import run_verification

    report = run_verification(
        fuzz_budget=args.fuzz_budget,
        fuzz_seed=args.fuzz_seed,
        golden_dir=Path(args.golden_dir) if args.golden_dir else None,
        update_golden=args.update_golden,
        artifacts_dir=Path(args.artifacts_dir) if args.artifacts_dir else None,
    )
    rc = 0 if report.ok else 1
    if args.json:
        _print_envelope("verify-report", {
            "ok": report.ok,
            "smoke_ok": report.smoke_ok,
            "fuzz_ok": report.fuzz.ok if report.fuzz is not None else None,
            "golden_ok": report.golden.ok if report.golden is not None else None,
            "updated_golden": report.updated,
            "summary": report.summary_lines(),
            "exit_code": rc,
        })
        return rc
    for line in report.summary_lines():
        print(line)
    print("verification: PASS" if report.ok else "verification: FAIL")
    return rc


def cmd_microbench(args) -> int:
    """``repro microbench``: latency + ping-pong calibration runs."""
    from .micro.latency import latency_curve
    from .micro.sharing import pingpong

    for name in ("hpv", "sgi"):
        machine = platform(name).scaled(DEFAULT_SIM.cache_scale_log2)
        print(machine.describe())
        points = latency_curve(
            machine, [512, 8 * 1024, 64 * 1024, 512 * 1024], iterations=5
        )
        for p in points:
            print(f"  ws={p.working_set:>8}B  {p.cycles_per_access:7.2f} "
                  f"cycles/access  miss={p.miss_ratio:.2f}")
        r = pingpong(machine, n_cpus=2, rounds=200)
        print(f"  pingpong: {r.cycles_per_handoff:.1f} cycles/handoff, "
              f"{r.migratory_transfers} migratory transfers")
        print()
    return 0


def _workload_spec(args) -> ExperimentSpec:
    return ExperimentSpec(
        query=args.query,
        platform=getattr(args, "platform", "hpv"),
        n_procs=args.procs,
        tpch=_tpch(args),
        sim=DEFAULT_SIM,
    )


def cmd_trace_capture(args) -> int:
    """``repro trace capture``: execute one workload, record its
    per-process reference tapes, and persist them in the trace store."""
    from .trace.capture import capture_workload, workload_replayable
    from .trace.store import TraceStore

    spec = _workload_spec(args)
    if not workload_replayable(spec):
        print(f"error: {args.query} mutates the database and cannot be "
              f"captured for replay", file=sys.stderr)
        return 2
    store = TraceStore(args.store or None)
    result, trace = capture_workload(spec)
    path = store.put(spec, trace)
    if args.json:
        _print_envelope("trace-capture", {
            "query": args.query,
            "procs": args.procs,
            "platform": spec.platform,
            "n_events": trace.n_events,
            "n_refs": trace.n_refs,
            "result_rows": result.runs[0].query_rows,
            "path": str(path),
            "exit_code": 0,
        })
        return 0
    print(
        f"captured {args.query} x {args.procs} proc(s): "
        f"{trace.n_events:,} events, {trace.n_refs:,} refs, "
        f"{result.runs[0].query_rows} result rows -> {path}"
    )
    return 0


def cmd_trace_replay(args) -> int:
    """``repro trace replay``: replay a stored workload tape through a
    machine model (bitwise-identical counters, executor skipped)."""
    from .core import metrics
    from .trace.capture import replay_workload
    from .trace.store import TraceStore

    spec = _workload_spec(args)
    store = TraceStore(args.store or None)
    trace = store.get(spec)
    if trace is None:
        print(f"error: no stored trace for {args.query} x {args.procs} "
              f"proc(s) (run `repro trace capture` first)", file=sys.stderr)
        return 1
    result = replay_workload(spec, trace)
    m = result.mean
    machine = result.machine
    if args.json:
        _print_envelope("trace-replay", {
            "query": args.query,
            "procs": args.procs,
            "platform": args.platform,
            "cycles": m.cycles,
            "instructions": m.instructions,
            "cpi": metrics.cpi(m, machine),
            "level1_misses": m.level1_misses,
            "coherent_misses": m.coherent_misses,
            "exit_code": 0,
        })
        return 0
    print(machine.describe())
    print(f"replayed {args.query} x {args.procs} proc(s) on {args.platform}")
    print(f"thread time   : {m.cycles:,} cycles "
          f"({metrics.thread_time_seconds(m, machine) * 1e3:.2f} ms)")
    print(f"CPI           : {metrics.cpi(m, machine):.3f}")
    print(f"L1 misses     : {m.level1_misses:,}  "
          f"coherent misses: {m.coherent_misses:,}")
    return 0


def cmd_worker(args) -> int:
    """``repro worker``: serve the sweep host protocol on stdio."""
    from .core.hostworker import main as worker_main

    return worker_main()


def _service_data_dir(args):
    from pathlib import Path

    from .core.resultcache import default_cache_dir

    if getattr(args, "data_dir", None):
        return Path(args.data_dir)
    return default_cache_dir() / "service"


def _service_url(args) -> str:
    """The daemon URL: ``--url`` verbatim, else the discovery file a
    running ``repro serve`` leaves in its data directory."""
    if getattr(args, "url", None):
        return args.url
    discovery = _service_data_dir(args) / "service.json"
    if discovery.exists():
        return json.loads(discovery.read_text())["url"]
    raise ConfigError(
        f"no --url given and no discovery file at {discovery} — is "
        f"`repro serve` running (with the same --data-dir)?"
    )


def _service_client(args):
    from .service.client import SweepClient

    return SweepClient(_service_url(args), tenant=args.tenant)


def _service_error(exc, as_json: bool) -> int:
    """Print a daemon rejection and map it onto the CLI exit-code
    contract: spec/usage rejections (4xx except backpressure) are exit
    2, everything else exit 1."""
    if as_json:
        print(dump_envelope(error_envelope(exc.code, exc.error, exc.detail or None)))
    else:
        print(f"error: {exc}", file=sys.stderr)
        if exc.retry_after_s:
            print(f"retry after {exc.retry_after_s:.0f}s", file=sys.stderr)
    if exc.code in ("bad-request", "bad-spec", "unknown-platform",
                    "unknown-query"):
        return 2
    return 1


def cmd_serve(args) -> int:
    """``repro serve``: run the experiment daemon until SIGTERM.

    Binds the versioned HTTP API (see :mod:`repro.service.daemon`) and
    drains submitted sweeps through the same
    ``select_executor(--jobs/--hosts)`` machinery the ``sweep`` command
    uses, against a shared content-addressed result cache under
    ``--data-dir``.  Restarting after a crash (even ``kill -9``)
    recovers journaled jobs and resumes from the checkpoint manifest.
    """
    from .service.daemon import serve

    hosts = args.hosts or os.environ.get("REPRO_HOSTS") or None
    return serve(
        _service_data_dir(args),
        bind=args.bind,
        port=args.port,
        jobs=args.jobs,
        hosts=hosts,
        trace_cache=args.trace_cache is not None,
        max_depth=args.max_depth,
        rate_per_s=args.rate,
        burst=args.burst,
        retries=args.retries,
        timeout_s=args.timeout,
    )


def cmd_submit(args) -> int:
    """``repro submit``: send one sweep spec to a running daemon.

    Prints the job id (or the full ``job`` envelope with ``--json``).
    ``--wait`` blocks on the job's event stream until it finishes;
    ``--follow`` also prints the sweep events as they happen.  A
    rejected spec exits 2 with the daemon's typed error.
    """
    from .core.sweep import NPROC_SWEEP
    from .service.client import ServiceError
    from .tpch.queries import PAPER_QUERIES

    if args.platforms:
        platforms = [
            s for s in (x.strip() for x in args.platforms.split(",")) if s
        ]
    elif args.platform:
        platforms = list(args.platform)
    else:
        platforms = list(REGISTRY.paper_platforms())
    payload = {
        "queries": list(args.query) if args.query else list(PAPER_QUERIES),
        "platforms": platforms,
        "nprocs": list(args.procs) if args.procs else list(NPROC_SWEEP),
        "repetitions": args.reps,
        "sf": args.sf,
        "seed": args.seed,
    }
    try:
        client = _service_client(args)
        envelope = client.submit(payload)
        job = envelope["data"]
        if args.follow:
            for record in client.events(job["id"]):
                if record["event"] == "end":
                    job = record["data"].get("data", job)
                    break
                data = record["data"].get("data", {})
                args_d = data.get("args", {})
                detail = " ".join(
                    f"{k}={v}" for k, v in sorted(args_d.items())
                )
                if not args.json:
                    print(f"{record['event']} {detail}".rstrip())
            envelope = client.status(job["id"])
            job = envelope["data"]
        elif args.wait:
            envelope = client.wait(job["id"], timeout=args.wait_timeout)
            job = envelope["data"]
    except ServiceError as exc:
        return _service_error(exc, args.json)
    rc = 0 if job["state"] in ("queued", "running", "done") else 1
    if args.json:
        print(dump_envelope(envelope))
        return rc
    line = f"job {job['id']}: {job['state']}"
    if job.get("error"):
        line += f" ({job['error']})"
    print(line)
    if job["state"] == "done":
        print(f"fetch results: repro fetch {job['id']}")
    return rc


def cmd_status(args) -> int:
    """``repro status``: one daemon job (or, with no id, all of them)."""
    from .service.client import ServiceError

    try:
        client = _service_client(args)
        if args.job_id:
            envelope = client.status(args.job_id)
            jobs = [envelope["data"]]
        else:
            envelope = client.jobs()
            jobs = envelope["data"]["jobs"]
    except ServiceError as exc:
        return _service_error(exc, args.json)
    if args.json:
        print(dump_envelope(envelope))
        return 0
    if not jobs:
        print("no jobs")
        return 0
    for job in jobs:
        line = (
            f"{job['id']}  {job['state']:<8} tenant={job['tenant']} "
            f"cells={job['n_cells']}"
        )
        if job.get("error"):
            line += f"  error: {job['error']}"
        print(line)
    return 0


def cmd_fetch(args) -> int:
    """``repro fetch``: download a finished job's results.

    The output is always a ``sweep-results`` envelope whose ``data``
    is purely spec-determined — identical specs fetch identical bytes,
    whichever job (or daemon restart) produced them.  Exits 1 while
    the job is still running (``not-ready``).
    """
    from .service.client import ServiceError

    try:
        client = _service_client(args)
        envelope = client.results(args.job_id)
    except ServiceError as exc:
        return _service_error(exc, args.json)
    print(dump_envelope(envelope))
    return 0


def cmd_machines_list(args) -> int:
    """``repro machines list``: one line per registered platform."""
    paper = set(REGISTRY.paper_platforms())
    rows = [
        {
            "key": name,
            "name": cfg.name,
            "n_cpus": cfg.n_cpus,
            "cache_levels": len(cfg.caches),
            "topology": cfg.topology_kind,
            "source": "paper" if name in paper else "data file",
        }
        for name, cfg in REGISTRY.items()
    ]
    if args.json:
        _print_envelope("machine-list", {"machines": rows, "exit_code": 0})
        return 0
    for row in rows:
        print(
            f"{row['key']:<14} {row['name']:<22} {row['n_cpus']:>3} CPUs  "
            f"{row['cache_levels']}-level  {row['topology']:<9} "
            f"[{row['source']}]"
        )
    return 0


def cmd_machines_describe(args) -> int:
    """``repro machines describe``: full description of one machine
    (a registered name or a machine file path)."""
    machine = platform(args.name)
    if args.json:
        import dataclasses

        _print_envelope("machine", {
            "key": args.name,
            "config": dataclasses.asdict(machine),
            "exit_code": 0,
        })
        return 0
    print(machine.describe())
    return 0


def cmd_machines_validate(args) -> int:
    """``repro machines validate``: build every named machine (or all
    registered ones) end to end; exit 1 on the first invalid one."""
    targets = list(args.name) if args.name else list(REGISTRY.names())
    rc = 0
    results = []
    for name in targets:
        try:
            cfg = platform(name)
            validate_machine(cfg)
        except ConfigError as exc:
            results.append({"name": name, "ok": False, "error": str(exc)})
            rc = 1
        else:
            results.append({
                "name": name, "ok": True, "error": None,
                "machine": cfg.name, "n_cpus": cfg.n_cpus,
                "cache_levels": len(cfg.caches),
                "topology": cfg.topology_kind,
            })
    if args.json:
        _print_envelope("machine-validation", {
            "ok": rc == 0, "results": results, "exit_code": rc,
        })
        return rc
    for r in results:
        if r["ok"]:
            print(f"{r['name']}: ok ({r['machine']}, {r['n_cpus']} CPUs, "
                  f"{r['cache_levels']} cache level(s), {r['topology']})")
        else:
            print(f"{r['name']}: INVALID — {r['error']}")
    return rc


def cmd_describe(args) -> int:
    """``repro describe``: machine and database configurations."""
    for name in REGISTRY.names():
        machine = platform(name)
        print(machine.describe())
        print("  at experiment scale:")
        for c in machine.scaled(DEFAULT_SIM.cache_scale_log2).caches:
            print("    " + c.describe())
        print()
    db = build_database(_tpch(args))
    print(db.describe())
    print("\nqueries:", ", ".join(sorted(QUERIES)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for the tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DSS memory-system characterization "
        "(HP V-Class vs SGI Origin 2000 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one experiment cell")
    p.add_argument("--query", choices=sorted(QUERIES), default="Q6")
    p.add_argument("--platform", default="hpv", metavar="NAME",
                   help="registered machine name or machine file path "
                        "(see `repro machines list`; default hpv)")
    p.add_argument("--procs", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="run sweep cells (optionally profiled)")
    p.add_argument("--query", action="append", choices=sorted(QUERIES),
                   help="query (repeatable); default: the paper's three")
    p.add_argument("--platform", action="append", metavar="NAME",
                   help="platform (repeatable; any registered name or "
                        "machine file path); default: the paper pair")
    p.add_argument("--platforms", default=None, metavar="A,B,C",
                   help="comma-separated platform list; overrides "
                        "--platform")
    p.add_argument("--procs", action="append", type=int, metavar="N",
                   help="process count (repeatable); default: 1 2 4 6 8")
    p.add_argument("--profile", default=None, metavar="FILE",
                   help="cProfile the first selected cell into FILE and stop")
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="export the first selected cell plus the sweep "
                        "engine's retry/timeout events as Chrome-trace "
                        "JSON (chrome://tracing) into FILE")
    p.add_argument("--retries", type=int, default=3, metavar="N",
                   help="attempts per cell before quarantine (default 3)")
    p.add_argument("--timeout", type=float, default=None, metavar="S",
                   help="per-unit-cost chunk deadline in host seconds "
                        "(default: no deadline)")
    p.add_argument("--resume", action="store_true",
                   help="skip cells the checkpoint manifest already marks "
                        "done (needs --cache-dir)")
    p.add_argument("--json", action="store_true",
                   help="print a machine-readable sweep summary")
    _add_common(p)
    _add_sweep_opts(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("figures", help="regenerate paper figures")
    p.add_argument("--fig", action="append", choices=sorted(FIGURES),
                   help="figure id (repeatable); default: all")
    _add_common(p)
    _add_sweep_opts(p)
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("validate", help="evaluate the paper-claim scoreboard")
    _add_common(p)
    _add_sweep_opts(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "verify",
        help="run coherence invariants, differential fuzz, and golden checks",
    )
    p.add_argument(
        "--fuzz-budget", type=int, default=50, metavar="N",
        help="differential fuzz rounds (0 disables fuzzing; default 50)",
    )
    p.add_argument(
        "--fuzz-seed", type=lambda s: int(s, 0), default=0xF422,
        help="campaign seed (the whole campaign is deterministic in it)",
    )
    p.add_argument(
        "--golden-dir", default=None, metavar="DIR",
        help="golden snapshot directory (default: tests/golden)",
    )
    p.add_argument(
        "--update-golden", action="store_true",
        help="re-bless the golden snapshots instead of comparing",
    )
    p.add_argument(
        "--artifacts-dir", default=None, metavar="DIR",
        help="write machine-readable failure detail here (for CI upload)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="print a machine-readable verification summary",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("microbench", help="run calibration microbenchmarks")
    _add_common(p)
    p.set_defaults(func=cmd_microbench)

    p = sub.add_parser("describe", help="print machine/database configs")
    _add_common(p)
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser(
        "machines",
        help="inspect the platform registry (list/describe/validate)",
    )
    machines_sub = p.add_subparsers(dest="machines_command", required=True)
    mp = machines_sub.add_parser("list", help="one line per registered machine")
    mp.add_argument("--json", action="store_true",
                    help="print a repro/v1 machine-list envelope")
    mp.set_defaults(func=cmd_machines_list)
    mp = machines_sub.add_parser(
        "describe", help="full description of one machine"
    )
    mp.add_argument("name", metavar="NAME",
                    help="registered machine name or machine file path")
    mp.add_argument("--json", action="store_true",
                    help="print a repro/v1 machine envelope")
    mp.set_defaults(func=cmd_machines_describe)
    mp = machines_sub.add_parser(
        "validate",
        help="build the named machines (default: all registered) end to end",
    )
    mp.add_argument("name", nargs="*", metavar="NAME",
                    help="registered machine names or machine file paths")
    mp.add_argument("--json", action="store_true",
                    help="print a repro/v1 machine-validation envelope")
    mp.set_defaults(func=cmd_machines_validate)

    p = sub.add_parser(
        "trace",
        help="capture/replay whole workloads through the trace store",
    )
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    for name, func in (("capture", cmd_trace_capture), ("replay", cmd_trace_replay)):
        tp = trace_sub.add_parser(
            name,
            help=(
                "execute a workload and store its per-process tapes"
                if name == "capture"
                else "replay a stored workload tape on a machine model"
            ),
        )
        tp.add_argument("--query", choices=sorted(QUERIES), default="Q6")
        tp.add_argument("--procs", type=int, default=1)
        tp.add_argument("--platform", default="hpv", metavar="NAME",
                        help="registered machine name or machine file path")
        tp.add_argument(
            "--store", nargs="?", const="", default="", metavar="DIR",
            help="trace store directory (default: <result cache>/traces)",
        )
        tp.add_argument("--json", action="store_true",
                        help=f"print a repro/v1 trace-{name} envelope")
        _add_common(tp)
        tp.set_defaults(func=func)

    p = sub.add_parser(
        "worker",
        help="sweep host worker (frame protocol on stdin/stdout; "
             "spawned by --hosts, not for interactive use)",
    )
    p.set_defaults(func=cmd_worker)

    p = sub.add_parser(
        "serve",
        help="run the experiment daemon (versioned HTTP API over the "
             "sweep engine)",
    )
    p.add_argument("--data-dir", default=None, metavar="DIR",
                   help="service state root: job journal, shared result "
                        "cache, event journals, discovery file "
                        "(default: ~/.cache/repro/service)")
    p.add_argument("--bind", default="127.0.0.1", metavar="ADDR",
                   help="address to listen on (default: 127.0.0.1)")
    p.add_argument("--port", type=int, default=8642, metavar="N",
                   help="port to listen on (0 = ephemeral; default 8642)")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes per job (default: serial)")
    p.add_argument("--hosts", default=None, metavar="H1,H2,...",
                   help="distribute each job across hosts (same syntax as "
                        "`repro sweep --hosts`; default: $REPRO_HOSTS)")
    p.add_argument("--trace-cache", nargs="?", const="", default=None,
                   help="capture each workload's tape once and replay it "
                        "across machines")
    p.add_argument("--max-depth", type=int, default=64, metavar="N",
                   help="queue depth before 429 queue-full (default 64)")
    p.add_argument("--rate", type=float, default=10.0, metavar="R",
                   help="per-tenant submissions/second (default 10)")
    p.add_argument("--burst", type=int, default=20, metavar="N",
                   help="per-tenant burst allowance (default 20)")
    p.add_argument("--retries", type=int, default=3, metavar="N",
                   help="attempts per cell before quarantine (default 3)")
    p.add_argument("--timeout", type=float, default=None, metavar="S",
                   help="per-unit-cost chunk deadline in host seconds")
    p.set_defaults(func=cmd_serve)

    def _client_opts(cp, with_json: bool = True) -> None:
        cp.add_argument("--url", default=None, metavar="URL",
                        help="daemon URL (default: the service.json "
                             "discovery file under --data-dir)")
        cp.add_argument("--data-dir", default=None, metavar="DIR",
                        help="daemon data dir for discovery "
                             "(default: ~/.cache/repro/service)")
        cp.add_argument("--tenant", default="cli", metavar="NAME",
                        help="tenant name for rate limiting (default: cli)")
        if with_json:
            cp.add_argument("--json", action="store_true",
                            help="print the repro/v1 envelope instead of prose")

    p = sub.add_parser("submit", help="send a sweep spec to a running daemon")
    p.add_argument("--query", action="append", choices=sorted(QUERIES),
                   help="query (repeatable); default: the paper's three")
    p.add_argument("--platform", action="append", metavar="NAME",
                   help="registered platform (repeatable); default: the "
                        "paper pair")
    p.add_argument("--platforms", default=None, metavar="A,B,C",
                   help="comma-separated platform list; overrides --platform")
    p.add_argument("--procs", action="append", type=int, metavar="N",
                   help="process count (repeatable); default: 1 2 4 6 8")
    p.add_argument("--reps", type=int, default=1, metavar="N",
                   help="repetitions per cell (default 1)")
    p.add_argument("--wait", action="store_true",
                   help="block until the job reaches a terminal state")
    p.add_argument("--wait-timeout", type=float, default=600.0, metavar="S",
                   help="--wait deadline in seconds (default 600)")
    p.add_argument("--follow", action="store_true",
                   help="stream the job's sweep events until it finishes")
    _add_common(p)
    _client_opts(p)
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("status", help="show one daemon job (or all of them)")
    p.add_argument("job_id", nargs="?", default=None, metavar="JOB",
                   help="job id (omit for the full list)")
    _client_opts(p)
    p.set_defaults(func=cmd_status)

    p = sub.add_parser("fetch", help="download a finished job's results")
    p.add_argument("job_id", metavar="JOB", help="job id")
    _client_opts(p, with_json=False)
    p.set_defaults(func=cmd_fetch, json=True)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro``."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
