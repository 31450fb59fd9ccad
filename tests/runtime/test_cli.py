"""The ``python -m repro`` command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.runtime.cli import main

COMMON = ["--duration", "4"]


class TestExplore:
    def test_grid_smoke(self, capsys):
        assert main(["explore", "--max-designs", "4", *COMMON]) == 0
        out = capsys.readouterr().out
        assert "grid exploration: 4 designs evaluated" in out
        assert "runtime statistics" in out
        assert "evaluations/s" in out

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_negative_max_designs_is_a_usage_error(self, json_flag):
        with pytest.raises(SystemExit) as exit_info:
            main(["explore", "--max-designs", "-1", *json_flag, *COMMON])
        assert exit_info.value.code == "error: max_designs must be >= 1"

    def test_grid_with_persistent_cache_warm_second_run(self, capsys, tmp_path):
        cache = str(tmp_path / "cli-cache.sqlite")
        args = ["explore", "--max-designs", "3", "--cache", cache, *COMMON]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "(0 evaluated, 100.0% cache hits)" in out

    def test_one_file_backs_both_tiers(self, capsys, tmp_path):
        store = str(tmp_path / "both.sqlite")
        args = ["explore", "--max-designs", "3", "--cache", store,
                "--signal-store", store, *COMMON]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "(0 evaluated, 100.0% cache hits)" in out
        # The accurate reference chain comes back from the signal store.
        assert "(0 cross-record, 5 warm)" in out

    def test_algorithm1_method_runs_the_methodology(self, capsys):
        # Constrain to the two pre-processing stages' default flow; a 4 s
        # record keeps this affordable (~50 evaluations).
        assert main(["explore", "--method", "algorithm1", *COMMON]) == 0
        out = capsys.readouterr().out
        assert "XBioSiP design generation result" in out
        assert "designs evaluated" in out

    def test_verbose_progress_lines(self, capsys):
        assert main(["explore", "--max-designs", "2", "--verbose", *COMMON]) == 0
        out = capsys.readouterr().out
        assert "[1/2]" in out and "[2/2]" in out


class TestEvaluate:
    def test_named_configuration(self, capsys):
        assert main(["evaluate", "--config", "B9", *COMMON]) == 0
        out = capsys.readouterr().out
        assert "B9:" in out
        assert "record 16265" in out

    def test_explicit_lsbs(self, capsys):
        assert main(["evaluate", "--lsbs", "lpf=4,hpf=8", *COMMON]) == 0
        out = capsys.readouterr().out
        assert "lpf=4 hpf=8" in out

    def test_rejects_ambiguous_design_choice(self):
        with pytest.raises(SystemExit):
            main(["evaluate", *COMMON])
        with pytest.raises(SystemExit):
            main(["evaluate", "--config", "B9", "--lsbs", "lpf=4", *COMMON])
        with pytest.raises(SystemExit):
            main(["evaluate", "--lsbs", "lpf=oops", *COMMON])


class TestResilience:
    def test_single_stage_sweep(self, capsys):
        assert main(["resilience", "--stages", "der", *COMMON]) == 0
        out = capsys.readouterr().out
        assert "stage derivative" in out
        assert "error-resilience threshold" in out


class TestServiceValidation:
    """The workload commands validate through the service's JobRequest."""

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--lsbs", "lpf=-3", *COMMON],
        ["stream", "--lsbs", "lpf=-2", "--duration", "4"],
        ["explore", "--lsb-step", "0", "--max-designs", "1", *COMMON],
        ["explore", "--lsb-step", "-2", "--max-designs", "1", *COMMON],
        ["resilience", "--stages", "foo", *COMMON],
        ["evaluate", "--config", "B9", "--duration", "0"],
        ["stream", "--duration", "0"],
        ["explore", "--threshold", "nan", "--max-designs", "1", *COMMON],
        ["stream", "--duration", "0.001"],
        ["evaluate", "--duration", "0.001", "--config", "B9"],
        # One sample: the accurate pre-processed output is constant.
        ["evaluate", "--duration", "0.005", "--config", "B9"],
        ["explore", "--method", "algorithm1", "--duration", "0.005"],
        ["explore", "--max-designs", "1", "--duration", "0.005"],
        ["resilience", "--stages", "der", "--duration", "0.005"],
    ], ids=lambda argv: " ".join(argv[:3]))
    def test_rejected_input_is_a_one_line_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        message = exit_info.value.code
        # A string code exits with status 1 and prints the message.
        assert isinstance(message, str) and message.startswith("error: ")
        assert "\n" not in message
        assert capsys.readouterr().out == ""

    def test_rejected_serve_default_workload_starts_nothing(
        self, tmp_path, monkeypatch
    ):
        import asyncio

        def started(coroutine):
            coroutine.close()
            raise AssertionError("serve started with a rejected workload")

        monkeypatch.setattr(asyncio, "run", started)
        cache, signals = tmp_path / "c.sqlite", tmp_path / "s.sqlite"
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--cache", str(cache), "--signal-store",
                  str(signals), "--duration", "0"])
        assert exit_info.value.code == "error: duration_s must be in (0, 3600]"
        assert not cache.exists() and not signals.exists()

    # One sample of record 16265: refused once the stores are open.
    TOO_SHORT = ["evaluate", "--config", "B9", "--duration", "0.005"]

    def test_refused_record_leaves_no_store_file(self, tmp_path):
        cache, signals = tmp_path / "c.sqlite", tmp_path / "s.sqlite"
        with pytest.raises(SystemExit) as exit_info:
            main([*self.TOO_SHORT, "--cache", str(cache),
                  "--signal-store", str(signals)])
        assert exit_info.value.code.startswith(
            "error: record 16265 is too short to score"
        )
        assert list(tmp_path.iterdir()) == []

    def test_refused_record_keeps_an_earlier_store_file(self, tmp_path):
        import numpy as np

        from repro.runtime import SQLiteSignalStore

        cache, signals = tmp_path / "c.sqlite", tmp_path / "s.sqlite"
        earlier = SQLiteSignalStore(str(signals))
        earlier.put("earlier-node", np.arange(4))
        earlier.close()
        with pytest.raises(SystemExit):
            main([*self.TOO_SHORT, "--cache", str(cache),
                  "--signal-store", str(signals)])
        assert [path.name for path in tmp_path.iterdir()] == ["s.sqlite"]
        reopened = SQLiteSignalStore(str(signals))
        try:
            np.testing.assert_array_equal(
                reopened.get("earlier-node"), np.arange(4)
            )
        finally:
            reopened.close()

    def test_grid_text_renders_the_service_document(self, capsys):
        from repro.core import QualityConstraint
        from repro.runtime import ExplorationRuntime
        from repro.runtime.cache import deserialize_evaluation
        from repro.service.jobs import execute_explore
        from repro.signals import load_record

        assert main(["explore", "--max-designs", "4", "--threshold", "0",
                     *COMMON]) == 0
        lines = capsys.readouterr().out.splitlines()
        record = load_record("16265", duration_s=4.0)
        constraint = QualityConstraint("psnr", 0.0)
        runtime = ExplorationRuntime([record])
        document = execute_explore(runtime, constraint, max_designs=4)
        best = deserialize_evaluation(document["best"]).summary()
        assert lines[:2] == [
            f"grid exploration: 4 designs evaluated, 4 satisfy {constraint}",
            f"best feasible design: {best}",
        ]
        # RuntimeStatistics.report() is the whole statistics block.
        assert not any("measured vs" in line for line in lines)


class TestStream:
    def test_verify_on_b6(self, capsys):
        assert main(["stream", "--config", "B6", "--duration", "4",
                     "--verify"]) == 0
        out = capsys.readouterr().out
        assert "verified: streamed beats == offline pipeline beats" in out
        assert "beat #  1" in out

    def test_json_is_the_service_stream_result(self, capsys):
        import json

        from repro.service.jobs import JobRequest, execute_stream

        assert main(["stream", "--lsbs", "lpf=6,mwi=8", "--duration", "4",
                     "--chunk-samples", "64", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        request = JobRequest.from_payload({
            "kind": "stream",
            "records": ["16265"],
            "duration_s": 4.0,
            "chunk_samples": 64,
            "design": {"name": "cli", "lsbs": {"lpf": 6, "mwi": 8}},
        })
        expected = execute_stream(request)
        del document["latency"], expected["latency"]
        assert document == expected
        assert document["design"]["name"] == "cli"

    @pytest.mark.parametrize("bad", [
        ["--chunk-samples", "0"],
        ["--realtime-factor", "-1"],
        ["--realtime-factor", "inf"],
        ["--config", "B6", "--lsbs", "lpf=2"],
        ["--duration", "3601"],
    ])
    def test_rejected_stream_options(self, capsys, bad):
        with pytest.raises(SystemExit) as exit_info:
            main(["stream", "--duration", "4", *bad])
        assert str(exit_info.value.code).startswith("error: ")
        assert capsys.readouterr().out == ""


class TestModuleEntryPoint:
    def test_importing_repro_or_the_cli_loads_no_service_module(self):
        repo_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env = dict(os.environ)
        src = os.path.join(repo_root, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        # scipy.signal (which loads scipy.stats) more than doubled the
        # import time; the float reference loads it on first call.
        code = (
            "import sys, repro, repro.runtime.cli; print(sorted(m for m in "
            "sys.modules if m.startswith(('repro.service', 'scipy.signal', "
            "'scipy.stats'))))"
        )
        completed = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "[]"

    def test_python_dash_m_repro_smoke(self):
        """The issue's smoke test: ``python -m repro explore --max-designs 4``."""
        repo_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env = dict(os.environ)
        src = os.path.join(repo_root, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "explore", "--max-designs", "4",
             "--duration", "4"],
            capture_output=True,
            text=True,
            env=env,
            cwd=repo_root,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        assert "grid exploration: 4 designs evaluated" in completed.stdout


class TestJsonOutput:
    def test_evaluate_json_is_the_canonical_shape(self, capsys):
        import json

        assert main(["evaluate", "--config", "B9", "--json", *COMMON]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["kind"] == "evaluate"
        (evaluation,) = document["evaluations"]
        assert evaluation["design"]["name"] == "B9"
        assert set(evaluation) >= {
            "psnr_db", "ssim_value", "peak_accuracy", "energy_reduction",
            "per_record_accuracy",
        }
        assert document["statistics"]["evaluations"] == 1

    def test_evaluate_json_matches_the_result_cache_serializer(self, capsys):
        """One canonical DesignEvaluation JSON shape across CLI and caches."""
        import json

        from repro.core import paper_configuration
        from repro.runtime import ExplorationRuntime
        from repro.runtime.cache import serialize_evaluation
        from repro.signals import load_record

        assert main(["evaluate", "--config", "B9", "--json", *COMMON]) == 0
        document = json.loads(capsys.readouterr().out)
        record = load_record("16265", duration_s=4.0)
        runtime = ExplorationRuntime([record])
        direct = serialize_evaluation(
            runtime.evaluate(paper_configuration("B9"))
        )
        assert document["evaluations"][0] == direct

    def test_explore_json_document(self, capsys):
        import json

        assert main(["explore", "--max-designs", "3", "--json", *COMMON]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["kind"] == "explore"
        assert document["designs_evaluated"] == 3
        assert len(document["evaluations"]) == 3
        assert document["constraint"] == {"metric": "psnr", "threshold": 15.0}

    def test_explore_json_rejects_algorithm1(self):
        with pytest.raises(SystemExit):
            main(["explore", "--method", "algorithm1", "--json", *COMMON])

    def test_statistics_keys_are_stable(self, capsys):
        import json

        assert main(["evaluate", "--config", "B9", "--json", *COMMON]) == 0
        statistics = json.loads(capsys.readouterr().out)["statistics"]
        assert set(statistics) == {
            "evaluations", "cache_hits", "designs_resolved", "cache_hit_rate",
            "batches", "busy_s", "wall_clock_s", "evaluations_per_second",
            "stage_hit_rate", "stage_cross_record_hits", "stage_warm_hits",
            "stage_stats",
        }
        # The stage figures count the run itself: five accurate reference
        # nodes plus B9's approximate ones.
        assert sum(
            row["computes"] for row in statistics["stage_stats"].values()
        ) > 5


class TestExecutorFlags:
    @pytest.mark.parametrize("flag", [
        ["--executor", "serial"], ["--executor", "thread"], ["--workers", "2"],
    ], ids=" ".join)
    @pytest.mark.parametrize("command", [
        ["explore"], ["evaluate", "--config", "B9"], ["resilience"], ["serve"],
    ], ids=lambda command: command[0])
    def test_pool_flags_are_usage_errors(self, capsys, command, flag):
        # Designs run serially; no flag chooses an executor or a pool size.
        with pytest.raises(SystemExit) as exit_info:
            main([*command, *flag, *COMMON])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in (
            capsys.readouterr().err
        )

    def test_chunk_size_is_a_usage_error(self, capsys):
        # Once a ValueError traceback for 0; now argparse knows no such flag.
        with pytest.raises(SystemExit) as exit_info:
            main(["evaluate", "--config", "B9", "--chunk-size", "0", *COMMON])
        assert exit_info.value.code == 2
        assert "--chunk-size" in capsys.readouterr().err


class TestByteBudgetFlags:
    def test_byte_budgets_require_persistent_backends(self):
        with pytest.raises(SystemExit):
            main(["evaluate", "--config", "B9", "--cache-max-bytes", "1024",
                  *COMMON])
        with pytest.raises(SystemExit):
            main(["evaluate", "--config", "B9", "--signal-store-max-bytes",
                  "1024", *COMMON])

    def test_nonpositive_byte_budget_is_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["evaluate", "--config", "B9",
                  "--cache", str(tmp_path / "c.sqlite"),
                  "--cache-max-bytes", "0", *COMMON])

    def test_cache_byte_budget_runs_end_to_end(self, capsys, tmp_path):
        cache = str(tmp_path / "cache.sqlite")
        args = ["explore", "--max-designs", "3", "--cache", cache,
                "--cache-max-bytes", "100000000", *COMMON]
        assert main(args) == 0
        assert "grid exploration" in capsys.readouterr().out


class TestStorePaths:
    """A path SQLite cannot open ends the command cleanly, never a traceback."""

    @staticmethod
    def _error(argv) -> str:
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        message = exit_info.value.code
        assert isinstance(message, str) and message.startswith("error: ")
        return message

    @pytest.mark.parametrize("flag", ["--cache", "--signal-store"])
    def test_file_that_is_not_a_database(self, tmp_path, flag):
        path = tmp_path / "notdb.sqlite"
        path.write_text("plain text, not a database\n" * 100)
        message = self._error(["evaluate", "--config", "B9", flag, str(path),
                               *COMMON])
        assert flag in message

    @pytest.mark.parametrize("command", [
        ["evaluate", "--config", "B9"], ["serve"],
    ], ids=lambda command: command[0])
    @pytest.mark.parametrize("good, bad", [
        ("--signal-store", "--cache"), ("--cache", "--signal-store"),
    ], ids=lambda flag: flag)
    def test_existing_directory(self, tmp_path, monkeypatch, command, good,
                                bad):
        import asyncio

        def started(coroutine):
            coroutine.close()
            raise AssertionError("serve started with a store it cannot open")

        monkeypatch.setattr(asyncio, "run", started)
        directory = tmp_path / "adir"
        directory.mkdir()
        message = self._error([*command, good, str(tmp_path / "store.sqlite"),
                               bad, str(directory), *COMMON])
        assert message.startswith(f"error: {bad} {directory}: cannot open")
        # The other store, opened first or not at all, left no file.
        assert [path.name for path in tmp_path.iterdir()] == ["adir"]

    def test_trailing_slash_after_an_existing_file(self, tmp_path, capsys):
        from repro.runtime.cache import SQLiteResultCache

        path = tmp_path / "c.sqlite"
        path.write_bytes(b"")
        # SQLite drops the trailing slash and opens the file itself.
        assert main(["explore", "--max-designs", "1", "--cache", f"{path}/",
                     *COMMON]) == 0
        cache = SQLiteResultCache(str(path))
        assert len(cache) == 1
        cache.close()


class TestServeParser:
    def test_serve_rejects_bad_options(self):
        parser_args = ["serve", "--concurrency", "0", *COMMON]
        with pytest.raises(SystemExit):
            main(parser_args)
        with pytest.raises(SystemExit):
            main(["serve", "--port", "70000", *COMMON])

    @pytest.mark.parametrize("bad", [
        ["--event-backlog", "0"], ["--job-ttl", "0"], ["--port", "-1"],
    ])
    def test_rejected_serve_leaves_no_store_files(self, tmp_path, bad):
        cache, signals = tmp_path / "c.sqlite", tmp_path / "s.sqlite"
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--cache", str(cache), "--signal-store", str(signals),
                  *bad, *COMMON])
        assert str(exit_info.value.code).startswith("error: ")
        assert not cache.exists() and not signals.exists()
