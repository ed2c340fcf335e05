"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_commands_present(self):
        parser = build_parser()
        sub = next(
            a for a in parser._actions if a.dest == "command"
        )
        assert set(sub.choices) == {
            "run", "sweep", "figures", "validate", "microbench", "describe",
            "verify", "trace", "worker", "machines",
            "serve", "submit", "status", "fetch",
        }

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bad_query_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--query", "Q99"])

    def test_bad_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "--fig", "fig1"])

    def test_sweep_flags(self):
        args = build_parser().parse_args(
            ["sweep", "--query", "Q6", "--platform", "sgi",
             "--procs", "1", "--procs", "2", "--profile", "out.prof",
             "--jobs", "2"]
        )
        assert args.query == ["Q6"]
        assert args.procs == [1, 2]
        assert args.profile == "out.prof"

    def test_sweep_resilience_flags(self):
        args = build_parser().parse_args(
            ["sweep", "--retries", "5", "--timeout", "2.5",
             "--resume", "--json", "--cache-dir", "d"]
        )
        assert args.retries == 5 and args.timeout == 2.5
        assert args.resume and args.json and args.cache_dir == "d"
        defaults = build_parser().parse_args(["sweep"])
        assert defaults.retries == 3 and defaults.timeout is None
        assert not defaults.resume and not defaults.json

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(["sweep", "--no-such-flag"])
        assert exc_info.value.code == 2
        capsys.readouterr()


class TestCommands:
    def test_run(self, capsys):
        rc = main(["run", "--query", "Q6", "--platform", "hpv",
                   "--procs", "1", "--sf", "0.0004"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "CPI" in out
        assert "thread time" in out

    def test_sweep(self, capsys):
        rc = main(["sweep", "--query", "Q6", "--platform", "hpv",
                   "--procs", "1", "--sf", "0.0004"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1 of 1 cells ran" in out

    def test_sweep_profile(self, capsys, tmp_path):
        prof = tmp_path / "cell.prof"
        rc = main(["sweep", "--query", "Q6", "--platform", "hpv",
                   "--procs", "1", "--sf", "0.0004",
                   "--profile", str(prof)])
        out = capsys.readouterr().out
        assert rc == 0
        assert prof.exists() and prof.stat().st_size > 0
        assert "profiled cell" in out
        import pstats

        assert pstats.Stats(str(prof)).total_tt > 0

    def test_machines_list(self, capsys):
        rc = main(["machines", "list"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in ("hpv", "sgi", "islands-2x8", "flat-smp-16"):
            assert name in out

    def test_machines_describe(self, capsys):
        rc = main(["machines", "describe", "islands-2x8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "L3" in out and "sockets" in out

    def test_machines_validate_all(self, capsys):
        rc = main(["machines", "validate"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "hpv: ok" in out

    def test_machines_unknown_name_suggests(self, capsys):
        rc = main(["machines", "describe", "island-2x8"])
        err = capsys.readouterr().err
        assert rc != 0
        assert "islands-2x8" in err

    def test_run_with_machine_file(self, capsys, tmp_path):
        from repro.mem.machine import platform
        from repro.mem.registry import save_machine_file

        path = save_machine_file(platform("hpv"), tmp_path / "mine.toml")
        rc = main(["run", "--query", "Q6", "--platform", str(path),
                   "--procs", "1", "--sf", "0.0004"])
        assert rc == 0
        assert "CPI" in capsys.readouterr().out

    def test_run_sgi_multiproc(self, capsys):
        rc = main(["run", "--query", "Q6", "--platform", "sgi",
                   "--procs", "2", "--sf", "0.0004"])
        assert rc == 0
        assert "coherent misses" in capsys.readouterr().out

    def test_figures_single(self, capsys):
        rc = main(["figures", "--fig", "fig3", "--sf", "0.0004"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Cycles Per Instruction" in out

    def test_describe(self, capsys):
        rc = main(["describe", "--sf", "0.0004"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "HP V-Class" in out and "SGI Origin 2000" in out
        assert "lineitem" in out

    def test_microbench(self, capsys):
        rc = main(["microbench", "--sf", "0.0004"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "pingpong" in out

    def test_sweep_json_payload(self, capsys):
        rc = main(["sweep", "--query", "Q6", "--platform", "hpv",
                   "--procs", "1", "--sf", "0.0004", "--json"])
        out = capsys.readouterr().out
        payload = json.loads(out)["data"]
        assert rc == 0
        assert payload["ok"] and payload["exit_code"] == 0
        assert payload["total"] == 1 and payload["failed_cells"] == []
        assert "cache" in payload

    def test_sweep_failed_cell_exits_1(self, capsys):
        # 64 procs exceeds the machine CPU count: the cell quarantines
        # and the exit-code contract says 1, with the failure named in
        # the JSON payload.
        rc = main(["sweep", "--query", "Q6", "--platform", "hpv",
                   "--procs", "64", "--sf", "0.0004", "--json"])
        out = capsys.readouterr().out
        payload = json.loads(out)["data"]
        assert rc == 1
        assert not payload["ok"] and payload["exit_code"] == 1
        (failed,) = payload["failed_cells"]
        assert failed["cell"] == "Q6:hpv:64:1:default"
        assert failed["kind"] == "error"

    def test_sweep_resume_needs_cache_dir(self, capsys):
        rc = main(["sweep", "--query", "Q6", "--platform", "hpv",
                   "--procs", "1", "--sf", "0.0004", "--resume"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "--cache-dir" in err

    def test_config_error_exits_2(self, capsys):
        # a structurally valid command line whose configuration is
        # rejected downstream: refresh streams cannot run multi-process
        rc = main(["run", "--query", "RF1", "--procs", "2",
                   "--sf", "0.0004"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "error:" in err and "RF1" in err

    def test_sweep_json_stdout_is_the_envelope_alone(self, capsys, tmp_path):
        """``--resume`` and ``--trace-out`` progress lines go to stderr
        under ``--json``, so all of stdout parses as one envelope."""
        argv = ["sweep", "--query", "Q6", "--platform", "hpv", "--procs",
                "1", "--sf", "0.0004", "--cache-dir", str(tmp_path / "c")]
        assert main(argv) == 0
        capsys.readouterr()
        rc = main(argv + ["--resume", "--json",
                          "--trace-out", str(tmp_path / "t.json")])
        captured = capsys.readouterr()
        assert rc == 0
        assert json.loads(captured.out)["data"]["ok"]
        assert "resume: 1 of 1 cells" in captured.err
        assert "traced cell" in captured.err

    def test_sweep_trace_out_includes_sweep_events(self, capsys, tmp_path):
        trace = tmp_path / "cell.trace.json"
        rc = main(["sweep", "--query", "Q6", "--platform", "hpv",
                   "--procs", "1", "--sf", "0.0004",
                   "--trace-out", str(trace)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "traced cell" in out and "sweep events" in out
        d = json.loads(trace.read_text())
        cats = {e.get("cat") for e in d["traceEvents"]}
        assert "sweep" in cats  # engine events share the timeline

    def test_all_json_paths_speak_the_v1_envelope(self, capsys, tmp_path):
        """Every ``--json`` output is a valid ``repro/v1`` envelope of
        the right kind — the CLI and the HTTP API share one contract."""
        from repro.service.envelope import validate_envelope

        cases = [
            (["sweep", "--query", "Q6", "--platform", "hpv", "--procs",
              "1", "--sf", "0.0004", "--json"], "sweep-report"),
            (["machines", "list", "--json"], "machine-list"),
            (["machines", "describe", "hpv", "--json"], "machine"),
            (["machines", "validate", "hpv", "sgi", "--json"],
             "machine-validation"),
            (["trace", "capture", "--query", "Q6", "--procs", "1",
              "--sf", "0.0004", "--store", str(tmp_path / "ts"),
              "--json"], "trace-capture"),
            (["trace", "replay", "--query", "Q6", "--procs", "1",
              "--platform", "sgi", "--sf", "0.0004",
              "--store", str(tmp_path / "ts"), "--json"], "trace-replay"),
        ]
        for argv, kind in cases:
            rc = main(argv)
            out = capsys.readouterr().out
            assert rc == 0, (argv, out)
            env = validate_envelope(out, kind=kind)
            assert env["schema"] == "repro/v1"

    def test_machines_json_payloads(self, capsys):
        from repro.service.envelope import validate_envelope

        main(["machines", "list", "--json"])
        env = validate_envelope(capsys.readouterr().out)
        keys = {m["key"] for m in env["data"]["machines"]}
        assert {"hpv", "sgi"} <= keys
        main(["machines", "describe", "hpv", "--json"])
        env = validate_envelope(capsys.readouterr().out)
        assert env["data"]["config"]["n_cpus"] >= 1
        rc = main(["machines", "validate", "hpv", "--json"])
        env = validate_envelope(capsys.readouterr().out)
        assert rc == 0 and env["data"]["ok"]
