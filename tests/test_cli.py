"""Tests for the command-line interface."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_no_numpy():
    """The simulator is standard-library Python: importing the CLI, which
    reaches the machine, kernel, VM, trace, and orchestration layers, must
    not pull NumPy into a fresh interpreter."""
    probe = "import sys, repro.cli; print(sorted(m for m in sys.modules if m.startswith('numpy')))"
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--benchmark", "NOPE"])

    def test_benchmark_case_insensitive(self):
        args = build_parser().parse_args(["run", "--benchmark", "matvec"])
        assert args.benchmark == "MATVEC"

    def test_version_case_insensitive(self):
        args = build_parser().parse_args(
            ["run", "--benchmark", "MATVEC", "--version", "b"]
        )
        assert args.version == "B"

    def test_scale_default(self):
        args = build_parser().parse_args(["list"])
        assert args.scale == "small"

    def test_figure_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "12"])
        args = build_parser().parse_args(["figure", "10bc"])
        assert args.number == "10bc"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list", "--scale", "tiny"]) == 0
        output = capsys.readouterr().out
        assert "MATVEC" in output
        assert "FFTPDE" in output

    def test_compile(self, capsys):
        assert main(["compile", "--benchmark", "MATVEC", "--scale", "tiny"]) == 0
        output = capsys.readouterr().out
        assert "prefetch" in output
        assert "priority=1 " in output or "priority=1" in output

    def test_table_1(self, capsys):
        assert main(["table", "1", "--scale", "tiny"]) == 0
        assert "swap_disks" in capsys.readouterr().out

    def test_table_2(self, capsys):
        assert main(["table", "2", "--scale", "tiny"]) == 0
        assert "hazard" in capsys.readouterr().out

    def test_run(self, capsys):
        assert (
            main(
                [
                    "run",
                    "--benchmark",
                    "MATVEC",
                    "--version",
                    "R",
                    "--scale",
                    "tiny",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "elapsed_s" in output
        assert "pages_released" in output

    def test_suite(self, capsys):
        assert (
            main(
                [
                    "suite",
                    "--benchmark",
                    "MATVEC",
                    "--versions",
                    "PR",
                    "--scale",
                    "tiny",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "daemon_stole" in output

    def test_table_3(self, capsys):
        assert main(["table", "3", "--scale", "tiny"]) == 0
        assert "stolen_O" in capsys.readouterr().out


class TestTraceCommands:
    @pytest.fixture()
    def recorded(self, tmp_path, capsys):
        """One tiny MATVEC/B recording; returns the trace path."""
        rc = main(
            [
                "trace",
                "record",
                "--benchmark",
                "MATVEC",
                "--version",
                "B",
                "--scale",
                "tiny",
                "--out",
                str(tmp_path / "traces"),
            ]
        )
        assert rc == 0
        assert "recorded MATVEC" in capsys.readouterr().out
        return tmp_path / "traces" / "MATVEC.trace"

    def test_record_replay_diff_round_trip(self, recorded, tmp_path, capsys):
        rc = main(
            [
                "trace",
                "replay",
                str(recorded),
                "--interactive",
                "--scale",
                "tiny",
                "--record-to",
                str(tmp_path / "replayed"),
            ]
        )
        assert rc == 0
        assert "trace replay" in capsys.readouterr().out
        rc = main(
            [
                "trace",
                "diff",
                str(recorded),
                str(tmp_path / "replayed" / "MATVEC.trace"),
            ]
        )
        assert rc == 0
        assert "identical" in capsys.readouterr().out

    def test_diff_exit_1_on_difference(self, recorded, tmp_path, capsys):
        from repro.trace import read_trace, write_trace

        header, ops = read_trace(recorded)
        index = next(i for i, op in enumerate(ops) if op[0] == "t")
        ops[index] = ("t", ops[index][1] + 1, ops[index][2], 0.0)
        other = tmp_path / "tampered.trace"
        write_trace(other, header, ops)
        assert main(["trace", "diff", str(recorded), str(other)]) == 1
        assert "differ at index" in capsys.readouterr().out

    def test_info_text_and_json(self, recorded, capsys):
        assert main(["trace", "info", str(recorded)]) == 0
        assert "MATVEC" in capsys.readouterr().out
        assert main(["trace", "info", "--json", str(recorded)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["workload"] == "MATVEC"
        assert data["ops"] > 0

    def test_verify(self, recorded, capsys):
        assert main(["trace", "verify", str(recorded)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_import(self, tmp_path, capsys):
        source = tmp_path / "scan.txt"
        source.write_text("0 r\n1 w prefetch=2\n2 r\n")
        out = tmp_path / "scan.trace"
        assert main(["trace", "import", str(source), "--out", str(out)]) == 0
        assert "imported" in capsys.readouterr().out
        assert main(["trace", "info", str(out)]) == 0
        assert "source=import" in capsys.readouterr().out

    def test_run_spec_with_trace_entry(self, recorded, capsys):
        scenario = json.dumps(
            {
                "scenario": 1,
                "scale": "tiny",
                "processes": [
                    {"trace": str(recorded)},
                    {"workload": "interactive"},
                ],
            }
        )
        assert main(["run", "--scenario", scenario]) == 0
        output = capsys.readouterr().out
        assert "MATVEC" in output

    def test_record_scenario(self, tmp_path, capsys):
        out = tmp_path / "traces"
        assert main(["trace", "record", "--scenario", "standard-mix", "--out", str(out)]) == 0
        assert "recorded MATVEC" in capsys.readouterr().out
        assert (out / "MATVEC.trace").is_file()

    def test_record_needs_a_one_spec_scenario(self, tmp_path, capsys):
        argv = ["trace", "record", "--scenario", "version-suite", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "one-spec scenario; 'version-suite' compiles to 4 specs" in capsys.readouterr().err


#: Scale overrides that used to reach the simulator: NaN as a misleading
#: deadlock, "abc" as a raw TypeError mid-run, -1 with different physics.
BAD_OVERRIDES = [("max_engine_steps", math.nan), ("time_quantum_s", "abc"), ("time_quantum_s", -1)]


class TestStructuredErrors:
    """Bad input exits 2 with a one-line message, never a traceback."""

    def assert_error(self, argv, capsys, needle):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro: error:")
        assert needle in captured.err
        assert "Traceback" not in captured.err

    def test_missing_spec_file(self, capsys):
        self.assert_error(
            ["run", "--scenario", "/nonexistent/mix.json"], capsys, "no such scenario file"
        )

    def test_bad_inline_spec_json(self, capsys):
        self.assert_error(["run", "--scenario", "{broken"], capsys, "invalid")

    def test_spec_entry_without_workload_or_trace(self, capsys):
        self.assert_error(
            ["run", "--scenario", '{"scenario": 1, "processes": [{"version": "B"}]}'],
            capsys,
            "'workload' or 'trace'",
        )

    @pytest.mark.parametrize("knob, value", BAD_OVERRIDES)
    def test_bad_scale_override_in_spec(self, knob, value, capsys):
        scenario = json.dumps(
            {"scenario": 1, "overrides": {knob: value}, "processes": [{"workload": "MATVEC"}]}
        )
        self.assert_error(["run", "--scenario", scenario], capsys, f"overrides.{knob}: ")

    @pytest.mark.parametrize("knob, value", BAD_OVERRIDES)
    def test_bad_scale_override_in_sweep_grid(self, knob, value, tmp_path, capsys):
        sweep = {"axes": {"benchmark": ["MATVEC"]}}
        scenario = json.dumps({"scenario": 1, "overrides": {knob: value}, "sweep": sweep})
        argv = ["sweep", "run", "--state-dir", str(tmp_path / "s"), "--scenario", scenario]
        self.assert_error(argv, capsys, f"overrides.{knob}: ")

    # Each of these shapes used to end in a raw traceback instead.
    @pytest.mark.parametrize(
        "document, needle",
        [
            (
                {"scenario": 1, "overrides": [1], "benchmark": "MATVEC"},
                "overrides: expected an object",
            ),
            ({"scenario": 1, "processes": [1]}, "processes[0]: expected an object"),
            ({"scenario": 1, "processes": {"workload": "MATVEC"}}, "processes: expected a list"),
            ({"scenario": 1, "scale": 5, "benchmark": "MATVEC"}, "scale: expected a string"),
            ([{"workload": "MATVEC"}], "expected an object, got [{"),
        ],
        ids=["overrides-list", "process-int", "processes-object", "scale-int", "top-level-list"],
    )
    def test_malformed_scenario_shape(self, document, needle, capsys):
        self.assert_error(["run", "--scenario", json.dumps(document)], capsys, needle)

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--benchmark", "BUK"),
            ("--version", "R"),
            ("--sleep", "0"),
            ("--policy", "global-clock"),
            ("--faults", '{"disk": {"io_error_prob": 0.05}}'),
            ("--fault-seed", "0"),
            ("--scale", "paper"),
        ],
    )
    def test_run_scenario_refuses_benchmark_flag(self, flag, value, capsys):
        argv = ["run", "--scenario", "standard-mix", flag, value]
        self.assert_error(argv, capsys, f"run --scenario ignores {flag}\n")

    def test_run_scenario_names_every_ignored_flag(self, capsys):
        argv = [
            "run", "--scenario", "standard-mix", "--digest", "--policy", "global-clock",
            "--faults", '{"disk": {"io_error_prob": 0.05}}', "--benchmark", "BUK",
            "--scale", "paper",
        ]
        self.assert_error(
            argv, capsys, "ignores --benchmark, --policy, --faults, --scale\n"
        )

    @pytest.mark.parametrize(
        "flags", [["--digest"], ["--cache-dir", "cache"], ["--scenario-dir", "templates"]]
    )
    def test_run_benchmark_refuses_scenario_flag(self, flags, capsys):
        argv = ["run", "--benchmark", "MATVEC", "--scale", "tiny", *flags]
        self.assert_error(argv, capsys, f"run without --scenario ignores {flags[0]}\n")

    def test_run_trace_refuses_cache_dir(self, tmp_path, capsys):
        argv = ["run", "--scenario", "standard-mix", "--trace", "--cache-dir", str(tmp_path)]
        self.assert_error(argv, capsys, "ignores --cache-dir\n")
        assert not any(tmp_path.iterdir())

    def test_run_trace_needs_a_one_spec_scenario(self, capsys):
        argv = ["run", "--scenario", "version-suite", "--trace"]
        self.assert_error(argv, capsys, "run --trace takes a one-spec scenario")

    def test_missing_trace_file(self, capsys):
        self.assert_error(
            ["trace", "info", "/nonexistent.trace"], capsys, "cannot read"
        )

    def test_corrupt_trace_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace"
        bad.write_bytes(b"RPROTRC1" + b"\xff" * 64)
        self.assert_error(["trace", "info", str(bad)], capsys, "corrupt")

    def test_truncated_trace_file(self, tmp_path, capsys):
        from repro.trace import TraceHeader, write_trace

        path = tmp_path / "full.trace"
        header = TraceHeader(
            process="x",
            workload="x",
            version="O",
            scale="tiny",
            page_size=0,
            layout=(("data", 4),),
        )
        write_trace(path, header, [("t", 1, False, 0.0)])
        cut = tmp_path / "cut.trace"
        cut.write_bytes(path.read_bytes()[:-6])
        assert main(["trace", "replay", str(cut), "--scale", "tiny"]) == 2

    def test_bad_import_source(self, tmp_path, capsys):
        source = tmp_path / "bad.txt"
        source.write_text("not-a-vpn r\n")
        self.assert_error(
            ["trace", "import", str(source), "--out", str(tmp_path / "o.trace")],
            capsys,
            "line 1",
        )

    def test_record_without_target(self, capsys):
        self.assert_error(
            ["trace", "record", "--out", "/tmp/x"],
            capsys,
            "give --benchmark or --scenario",
        )

    def test_bad_fault_plan_file(self, capsys):
        self.assert_error(
            [
                "run",
                "--benchmark",
                "MATVEC",
                "--scale",
                "tiny",
                "--faults",
                "/nonexistent/faults.json",
            ],
            capsys,
            "no such file",
        )


class TestSweepCommands:
    """`repro sweep run|resume|status` and `repro ensemble`."""

    def test_synthetic_run_resume_status(self, tmp_path, capsys):
        state = str(tmp_path / "sweep")
        assert main(["sweep", "run", "--state-dir", state, "--synthetic", "8"]) == 0
        first = capsys.readouterr().out
        assert "8/8 ok" in first
        assert main(["sweep", "status", "--state-dir", state, "--digest"]) == 0
        status = capsys.readouterr().out
        assert "pending" in status
        # Both surfaces agree on the merged digest.
        digest = [
            line for line in first.splitlines() if line.startswith("merged digest:")
        ][0]
        assert digest in status
        assert main(["sweep", "resume", "--state-dir", state]) == 0
        assert digest in capsys.readouterr().out

    def test_failures_exit_nonzero(self, tmp_path, capsys):
        state = str(tmp_path / "sweep")
        code = main(
            [
                "sweep", "run", "--state-dir", state,
                "--synthetic", "6", "--synthetic-fail-every", "3",
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "4/6 ok" in captured.out
        assert "synthetic failure" in captured.err

    def test_rerun_without_resume_is_an_error(self, tmp_path, capsys):
        state = str(tmp_path / "sweep")
        assert main(["sweep", "run", "--state-dir", state, "--synthetic", "2"]) == 0
        capsys.readouterr()
        assert main(["sweep", "run", "--state-dir", state, "--synthetic", "2"]) == 2
        assert "resume" in capsys.readouterr().err

    def test_grid_run(self, tmp_path, capsys):
        state = str(tmp_path / "sweep")
        grid = '{"scenario": 1, "sweep": {"axes": {"benchmark": ["MATVEC"], "version": ["R"]}}}'
        code = main(["sweep", "run", "--state-dir", state, "--scenario", grid])
        assert code == 0
        assert "1/1 ok" in capsys.readouterr().out
        # The recorded scenario lets resume rebuild the specs by itself.
        assert main(["sweep", "resume", "--state-dir", state]) == 0
        assert "1/1 ok" in capsys.readouterr().out

    def test_record_trace_scenario_traces_under_state_dir(self, tmp_path, capsys, monkeypatch):
        """A recording spec is keyed by its trace directory, which is
        resolved, so the checkpoint reads back from any relative path."""
        monkeypatch.chdir(tmp_path)
        scenario = json.dumps(
            {"scenario": 1, "benchmark": "MATVEC", "version": "B", "record_trace": True}
        )
        assert main(["sweep", "run", "--state-dir", "sv", "--scenario", scenario]) == 0
        out = capsys.readouterr().out
        digest = out.split("merged digest: ")[1].split()[0]
        assert [path.name for path in (tmp_path / "sv" / "traces" / "0").iterdir()] == [
            "MATVEC.trace"
        ]
        assert main(["sweep", "status", "--state-dir", "sv", "--digest", "--expect", digest]) == 0
        monkeypatch.chdir(tmp_path / "sv" / "traces")
        argv = ["sweep", "status", "--state-dir", "..", "--digest", "--expect", digest]
        assert main(argv) == 0

    def test_ensemble_deterministic_table(self, tmp_path, capsys):
        argv = [
            "ensemble", "--benchmark", "MATVEC", "--scale", "tiny",
            "--seeds", "3", "--resamples", "50",
            "--faults", '{"disk": {"io_error_prob": 0.02}}',
            "--fault-seed", "5",
        ]
        assert main(argv + ["--state-dir", str(tmp_path / "a")]) == 0
        first = capsys.readouterr().out
        assert "3/3 fault seeds" in first
        assert "ci95_lo" in first
        assert main(argv + ["--state-dir", str(tmp_path / "b")]) == 0
        # Fixed --fault-seed: the whole table (members + CIs) reproduces.
        assert capsys.readouterr().out == first


class TestComparePoliciesExit:
    def test_failed_cells_exit_nonzero(self, capsys):
        code = main(
            [
                "compare-policies", "--benchmark", "MATVEC", "--scale", "tiny",
                "--timeout", "0.0001",
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "FAILED(timeout)" in captured.out
        assert "policy cells failed" in captured.err


class TestVersionFlag:
    def test_version_matches_package(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out


class TestScenarioCommands:
    def test_validate_template_ok(self, capsys):
        assert main(["validate", "standard-mix"]) == 0
        output = capsys.readouterr().out
        assert "OK" in output
        assert "digest" in output

    def test_validate_bad_file_exits_2_with_path(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"scenario": 1, "benchmark": "MATVEC", "version": "Z"}),
            encoding="utf-8",
        )
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: version:")
        assert "Z" in err

    def test_validate_template_file_and_inline_json_alike(self, tmp_path, capsys):
        """One resolver: a template name, a file and inline JSON."""
        from repro.scenarios import builtin_registry

        document = json.dumps(builtin_registry().get("standard-mix"))
        path = tmp_path / "standard-mix.json"
        path.write_text(document, encoding="utf-8")
        assert main(["validate", "standard-mix", str(path), document]) == 0
        digests = {line.split("digest ")[1] for line in capsys.readouterr().out.splitlines()}
        assert len(digests) == 1

    def test_validate_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2
        assert "no such scenario file" in capsys.readouterr().err

    def test_scenarios_listing(self, capsys):
        assert main(["scenarios"]) == 0
        assert "standard-mix" in capsys.readouterr().out

    def test_scenarios_json(self, capsys):
        assert main(["scenarios", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = {row["name"] for row in payload["scenarios"]}
        assert "version-suite" in names

    def test_run_scenario_digest_matches_service_formula(self, capsys):
        from repro.scenarios import builtin_registry, compile_scenario
        from repro.service import run_direct

        assert main(["run", "--scenario", "standard-mix", "--digest"]) == 0
        output = capsys.readouterr().out
        registry = builtin_registry()
        compiled = compile_scenario(
            registry.get("standard-mix"), registry=registry, name="standard-mix"
        )
        _outcomes, digest = run_direct(compiled)
        assert f"scenario digest: {digest}" in output


class TestJsonOutputs:
    def test_cache_list_json(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert (
            main(
                [
                    "run", "--scenario", "standard-mix",
                    "--cache-dir", str(cache),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["cache", "list", "--cache-dir", str(cache), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"]
        assert payload["entries"][0]["status"] == "ok"

    def test_sweep_status_json_and_expect_gate(self, tmp_path, capsys):
        state = str(tmp_path / "sweep")
        assert main(["sweep", "run", "--state-dir", state, "--synthetic", "2"]) == 0
        capsys.readouterr()
        assert (
            main(["sweep", "status", "--state-dir", state, "--digest", "--json"])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["done"] == 2
        digest = payload["digest"]
        # The gate: matching digest exits 0, anything else exits non-zero.
        assert (
            main(
                [
                    "sweep", "status", "--state-dir", state,
                    "--digest", "--expect", digest,
                ]
            )
            == 0
        )
        capsys.readouterr()
        code = main(
            [
                "sweep", "status", "--state-dir", state,
                "--digest", "--expect", "0" * 64,
            ]
        )
        assert code == 1
        assert "digest mismatch" in capsys.readouterr().err

    def test_sweep_status_expect_requires_digest(self, tmp_path, capsys):
        state = str(tmp_path / "sweep")
        assert main(["sweep", "run", "--state-dir", state, "--synthetic", "1"]) == 0
        capsys.readouterr()
        assert (
            main(["sweep", "status", "--state-dir", state, "--expect", "x"]) == 2
        )
        assert "--expect needs --digest" in capsys.readouterr().err

    def test_compare_policies_json(self, capsys):
        code = main(
            [
                "compare-policies", "--benchmark", "MATVEC", "--scale", "tiny",
                "--policy", "paging-directed", "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"][0]["policy"] == "paging-directed"
        assert payload["rows"][0]["failed"] is False


class TestServiceCommands:
    def test_submit_requires_server_location(self, capsys):
        assert main(["submit", "standard-mix"]) == 2
        assert "--url or --state-dir" in capsys.readouterr().err

    def test_unreachable_server_exits_2(self, capsys):
        assert main(["jobs", "--url", "http://127.0.0.1:1"]) == 2
        assert "cannot reach" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "document",
        [
            {"extends": "version-suite"},
            {"extends": "standard-mix", "record_trace": True},
        ],
        ids=["version-suite", "record-trace"],
    )
    def test_sweep_commands_read_a_service_job(self, document, tmp_path, capsys, monkeypatch):
        """A job's meta.json records its scenario, so `sweep status` and
        `sweep resume` rebuild its specs, trace directories included."""
        from repro.service import JobManager

        monkeypatch.chdir(tmp_path)
        with JobManager(Path("state"), workers=1, fsync=False) as manager:
            snap = manager.submit(document={"scenario": 1, **document})
            served = manager.wait(snap["id"], timeout=180).digest
        job_dir = str(tmp_path / "state" / "jobs" / snap["id"])
        argv = ["sweep", "status", "--state-dir", job_dir, "--digest", "--expect", served]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["sweep", "resume", "--state-dir", job_dir]) == 0
        assert f"merged digest: {served}" in capsys.readouterr().out

    def test_serve_submit_watch_fetch_roundtrip(self, tmp_path, capsys):
        from repro.service import ExperimentServer

        state = tmp_path / "state"
        with ExperimentServer(state, workers=1) as server:
            url = server.url
            assert main(["submit", "standard-mix", "--url", url, "--json"]) == 0
            snap = json.loads(capsys.readouterr().out)
            assert main(["watch", snap["id"], "--url", url]) == 0
            watched = capsys.readouterr().out
            assert "job.finished" in watched
            assert main(["jobs", "--url", url]) == 0
            assert "standard-mix" in capsys.readouterr().out
            assert (
                main(["fetch", snap["id"], "--url", url, "--what", "result"])
                == 0
            )
            payload = json.loads(capsys.readouterr().out)
            assert payload["status"] == "done"
            assert payload["digest"]
