"""Tests for the command-line tools."""

import pytest

from repro.tools import memory_report, plan


class TestPlanCLI:
    def test_plan_runs_and_prints_table(self, capsys):
        rc = plan.main(["GPT-5B", "64", "frontier", "--top", "3", "--batch", "64"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "planning GPT-5B on 64" in out
        assert "Gx=" in out
        # Exactly 3 ranked rows.
        rows = [l for l in out.splitlines() if l.strip().startswith(("1 ", "2 ", "3 ", "4 "))]
        assert len(rows) == 3

    def test_plan_infeasible_model(self, capsys):
        rc = plan.main(["GPT-640B", "8", "perlmutter", "--batch", "8"])
        assert rc == 1
        assert "no feasible configuration" in capsys.readouterr().out

    def test_plan_bad_model(self):
        with pytest.raises(KeyError):
            plan.main(["GPT-7B", "64", "frontier"])


class TestMemoryReportCLI:
    def test_fits(self, capsys):
        rc = memory_report.main(
            ["GPT-5B", "1,1,8,1", "frontier", "--batch", "8"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "FITS" in out
        assert "weights (bf16)" in out
        assert "largest per-replica batch" in out

    def test_does_not_fit(self, capsys):
        rc = memory_report.main(["GPT-80B", "1,1,1,8", "perlmutter"])
        assert rc == 1
        assert "DOES NOT FIT" in capsys.readouterr().out

    def test_no_checkpointing_flag(self, capsys):
        memory_report.main(
            ["GPT-5B", "1,1,8,1", "frontier", "--batch", "8", "--no-checkpointing"]
        )
        assert "checkpointing off" in capsys.readouterr().out

    def test_bad_grid_string(self):
        with pytest.raises(SystemExit):
            memory_report.main(["GPT-5B", "1,2,3", "frontier"])


class TestTraceViewCLI:
    def test_renders_gantt_and_breakdown(self, capsys):
        from repro.tools import trace_view

        rc = trace_view.main(
            ["GPT-5B", "2,1,4,2", "frontier", "--batch", "32", "--width", "40"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "compute" in out and "#" in out
        assert "hidden comm" in out

    def test_no_overlap_flag(self, capsys):
        from repro.tools import trace_view

        trace_view.main(
            ["GPT-5B", "1,1,4,2", "frontier", "--batch", "16", "--no-overlap"]
        )
        assert "overlap OFF" in capsys.readouterr().out

    def test_bad_grid(self):
        from repro.tools import trace_view

        with pytest.raises(SystemExit):
            trace_view.main(["GPT-5B", "2,2", "frontier"])


class TestApiDocsGenerator:
    def test_generates_reference(self, tmp_path):
        from repro.tools import gen_api_docs

        out = tmp_path / "API.md"
        rc = gen_api_docs.main([str(out)])
        assert rc == 0
        text = out.read_text()
        assert "# API reference" in text
        assert "## `repro.core`" in text
        assert "`ParallelGPT`" in text
        # Every listed package appears.
        for name in gen_api_docs.PACKAGES:
            assert f"## `{name}`" in text

    def test_render_covers_all_exports(self):
        import importlib

        from repro.tools.gen_api_docs import PACKAGES, render

        text = render()
        for name in PACKAGES:
            mod = importlib.import_module(name)
            for sym in getattr(mod, "__all__", []):
                assert f"`{sym}`" in text

    def test_committed_reference_is_current(self):
        from pathlib import Path

        from repro.tools.gen_api_docs import render

        committed = Path(__file__).resolve().parent.parent / "docs" / "API.md"
        assert committed.read_text() == render(), (
            "docs/API.md is stale: python -m repro.tools gen-api-docs "
            "--out docs/API.md"
        )

    def test_covers_new_subsystems(self):
        from repro.tools.gen_api_docs import PACKAGES

        assert "repro.telemetry" in PACKAGES
        assert "repro.tools" in PACKAGES


class TestDispatcher:
    def test_every_subcommand_resolves_to_a_main(self):
        import importlib

        from repro.tools import SUBCOMMANDS

        for sub, (module_name, _) in SUBCOMMANDS.items():
            mod = importlib.import_module(f"repro.tools.{module_name}")
            assert callable(mod.main), f"{sub} -> {module_name} lacks main()"

    def test_dispatch_forwards_argv(self, capsys):
        from repro.tools import main

        rc = main(["memory", "GPT-5B", "1,1,8,1", "frontier", "--batch", "8"])
        assert rc == 0
        assert "FITS" in capsys.readouterr().out

    def test_unknown_subcommand_rejected(self):
        from repro.tools import main

        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_deprecated_entry_is_gone(self):
        """The per-module ``python -m repro.tools.<module>`` forwarders
        are deleted: the dispatcher is the one way in."""
        import importlib
        import inspect

        import repro.tools
        from repro.tools import SUBCOMMANDS

        assert not hasattr(repro.tools, "_deprecated_entry")
        for module_name, _ in SUBCOMMANDS.values():
            mod = importlib.import_module(f"repro.tools.{module_name}")
            assert "__main__" not in inspect.getsource(mod)


class TestInputErrors:
    """Bad input ends in one ``error:`` line and rc 2, not a traceback."""

    @staticmethod
    def _run(argv):
        from repro.tools import main

        try:
            return main(argv.split())
        except SystemExit as exc:  # the subcommand's own parser.error
            return exc.code

    @pytest.mark.parametrize("argv", [
        "memory GPT-XX 1,1,1,1 frontier",
        "memory GPT-5B 1,1,1,1 nosuch",
        "goodput GPT-5B 0",
        "goodput GPT-5B 64 --node-mtbf-hours 0",
        "goodput GPT-5B 64 --iter-time 0",
        "plan GPT-5B 0 frontier",
        "serve-report GPT-5B 0 frontier",
    ])
    def test_ends_in_a_message(self, argv, capsys):
        assert self._run(argv) == 2
        err = capsys.readouterr().err
        assert ": error: " in err.strip().splitlines()[-1]
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["trace", "memory"])
    def test_grid_breaking_the_rule_is_refused(self, command, capsys):
        assert self._run(f"{command} GPT-5B 3,1,1,1 frontier") == 2
        err = capsys.readouterr().err
        assert err.strip().endswith("error: num_heads 32 not divisible by Gx=3")


class TestProfileRun:
    def test_profile_run_tiny_emits_artifacts(self, tmp_path, capsys):
        import json

        from repro.telemetry import BENCH_SCHEMA, validate_chrome_trace
        from repro.tools import profile_run

        rc = profile_run.main(
            ["run", "--config", "tiny", "--out", str(tmp_path),
             "--steps", "2", "--name", "unit"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "telemetry overhead" in out
        assert "==" in out  # volume cross-check printed as equal

        trace = json.loads((tmp_path / "trace_unit.json").read_text())
        assert validate_chrome_trace(trace) == []
        assert trace["otherData"]["volume_ok"] is True

        bench = json.loads((tmp_path / "BENCH_unit.json").read_text())
        assert bench["schema"] == BENCH_SCHEMA
        assert bench["metrics"]["comm.calls.all_reduce"] > 0
        assert bench["metrics"]["profile.steps"] == 2
        # The trainer's step is timed as three spans, twice each, all
        # inside a train.step span (under its micro_step); the printed
        # summary gives the three-way split.
        steps = [e for e in trace["traceEvents"] if e["name"] == "train.step"]
        assert len(steps) == 2
        for span in profile_run.STEP_SPANS:
            assert bench["metrics"][f"profile.step_ms.{span}"] > 0
            events = [e for e in trace["traceEvents"] if e.get("name") == span]
            assert len(events) == 2
            for e in events:
                assert e["args"]["depth"] == 2
                assert any(
                    p["ts"] <= e["ts"] + 1e-3
                    and e["ts"] + e["dur"] <= p["ts"] + p["dur"] + 1e-3
                    for p in steps
                ), f"{span} outside every train.step"
        assert "| backward " in out and "| optimizer.step " in out
        # Byte counters in the artifact equal the analytic volumes.
        check = bench["meta"]["volume_check"]
        for entry in check.values():
            assert entry["traced"] == pytest.approx(entry["analytic"])

    def test_requires_subcommand(self):
        from repro.tools import profile_run

        with pytest.raises(SystemExit):
            profile_run.main([])

    def test_absurd_overhead_gate_fails(self, tmp_path, capsys):
        from repro.tools import profile_run

        rc = profile_run.main(
            ["run", "--config", "tiny", "--out", str(tmp_path),
             "--steps", "1", "--max-overhead-pct", "-1000"]
        )
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out


class TestOutFlags:
    def test_trace_view_out_writes_valid_chrome_trace(self, tmp_path, capsys):
        import json

        from repro.telemetry import validate_chrome_trace
        from repro.tools import trace_view

        out = tmp_path / "sim.json"
        rc = trace_view.main(
            ["GPT-5B", "1,1,4,2", "frontier", "--batch", "16",
             "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) == []
        assert doc["otherData"]["machine"] == "frontier"
        tids = {e["tid"] for e in doc["traceEvents"]}
        assert "compute" in tids

    def test_memory_report_out_writes_bench_json(self, tmp_path):
        import json

        from repro.tools import memory_report

        memory_report.main(
            ["GPT-5B", "1,1,8,1", "frontier", "--batch", "8",
             "--out", str(tmp_path)]
        )
        doc = json.loads((tmp_path / "BENCH_memory.json").read_text())
        assert doc["metrics"]["mem.bytes.total"] > 0
        assert doc["meta"]["fits"] is True
