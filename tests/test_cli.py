"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_workloads_and_presets(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("EP", "CG", "TC no st", "SCG"):
            assert name in out
        assert "ap1000+" in out


class TestRun:
    def test_run_and_trace(self, tmp_path, capsys):
        trace = tmp_path / "mm.jsonl"
        code = main(["run", "MatMul", "--cells", "4",
                     "--trace", str(trace), "--no-replay"])
        assert code == 0
        out = capsys.readouterr().out
        assert "VERIFIED" in out
        assert trace.exists()

    def test_run_with_replay_summary(self, capsys):
        assert main(["run", "EP", "--cells", "4"]) == 0
        out = capsys.readouterr().out
        assert "AP1000+ 8.00" in out

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "LU"])

    def test_trace_overflow_is_a_clean_error_not_a_traceback(self, capsys):
        code = main(["run", "MatMul", "--cells", "4",
                     "--trace-capacity", "10", "--no-replay"])
        assert code == 2
        captured = capsys.readouterr()
        assert "repro: error:" in captured.err
        assert "trace buffer full" in captured.err
        assert "Traceback" not in captured.err


    def test_run_says_which_engine_ran(self, capsys):
        import json
        argv = ["run", "EP", "--cells", "4", "--shards", "2",
                "--no-replay"]
        assert main([*argv, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["engine"] == {"loop": "sharded", "fallback": None}
        assert doc["shard_report"]["shards"] == 2
        # An armed checkpoint gate keeps the run serial; one line says so.
        assert main([*argv, "--checkpoint-every", "1"]) == 0
        assert ("sharded engine not used (armed checkpoint)"
                in capsys.readouterr().out)
        assert main(argv[:4] + ["--no-replay"]) == 0
        assert "sharded engine" not in capsys.readouterr().out


class TestChaos:
    def test_plan_file_sweep(self, tmp_path, capsys):
        import json
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(
            {"name": "mini", "seed": 9, "drop_rate": 0.05,
             "delay_rate": 0.1}))
        code = main(["chaos", "MatMul", "--cells", "4",
                     "--plan", str(plan), "--no-check"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ok   MatMul    mini" in out
        assert "all survived" in out

    def test_json_output(self, tmp_path, capsys):
        import json
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"name": "mini", "seed": 9,
                                    "dup_rate": 0.2}))
        code = main(["chaos", "MatMul", "--cells", "4",
                     "--plan", str(plan), "--no-check", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        (case,) = report["cases"]
        assert case["app"] == "MatMul" and case["results_match"]

    def test_bad_plan_file_is_a_clean_error(self, tmp_path, capsys):
        import json
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"name": "bad", "drop_rat": 0.5}))
        code = main(["chaos", "MatMul", "--plan", str(plan)])
        assert code == 2
        assert "repro: error:" in capsys.readouterr().err

    @pytest.mark.parametrize(("plan", "key"), [
        ({"stalls": [{"pe": 1, "at_resume": 1, "passes": 5}]}, "stalls"),
        ({"watchdog_passes": 6}, "watchdog_passes"),
        ({"kills": [{"pe": 1, "at_resume": 3}]}, "kills[].at_resume"),
        ({"kills": [{"pe": 1, "at_evnt": 3}]}, "at_evnt"),
    ])
    def test_old_or_malformed_plan_is_a_clean_error(
            self, plan, key, tmp_path, capsys):
        import json
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        code = main(["chaos", "MatMul", "--cells", "4", "--no-check",
                     "--plan", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:") and key in err
        assert "Traceback" not in err


class TestRunCheckpoint:
    def test_checkpoint_run_and_cli_resume(self, tmp_path, capsys):
        ckpts = tmp_path / "ckpts"
        assert main(["run", "MatMul", "--cells", "4", "--no-replay",
                     "--checkpoint-dir", str(ckpts),
                     "--checkpoint-every", "1"]) == 0
        capsys.readouterr()
        snaps = sorted(p.name for p in ckpts.iterdir()
                       if p.name.startswith("ckpt_"))
        assert snaps, "no gate snapshots were written"
        # --resume-from a directory picks the newest snapshot; the
        # resumed tail still verifies.
        assert main(["run", "MatMul", "--cells", "4", "--no-replay",
                     "--resume-from", str(ckpts)]) == 0
        assert "VERIFIED" in capsys.readouterr().out

    #: Every other ``repro run`` option beside ``--resume-from``: what it
    #: adds to the plain resume, and the option a refusal must name
    #: (None: the resume honours it and records the same trace).
    RESUME_PAIRS = [
        (["--trace", "{tmp}/t.trc"], None),
        (["--no-replay"], None),
        (["--json"], None),
        (["--shards", "2"], None),
        (["--checkpoint-dir", "{tmp}/more"], None),
        (["--checkpoint-every", "2"], None),
        (["--cells", "8"], "--cells"),
        (["--paper-scale"], "--paper-scale"),
        (["--sanitize"], "--sanitize"),
        (["--trace-capacity", "5"], "--trace-capacity"),
        (["--observe"], "--observe"),
        (["--stream", "{tmp}/s.trc"], "--stream"),
    ]

    @pytest.fixture(scope="class")
    def matmul_ckpts(self, tmp_path_factory):
        ckpts = tmp_path_factory.mktemp("resume") / "ckpts"
        assert main(["run", "MatMul", "--cells", "4", "--no-replay",
                     "--checkpoint-dir", str(ckpts),
                     "--checkpoint-every", "1"]) == 0
        return ckpts

    @pytest.mark.parametrize(("extra", "refused"), RESUME_PAIRS,
                             ids=[pair[0][0] for pair in RESUME_PAIRS])
    def test_resume_honours_or_refuses_every_option(
            self, extra, refused, matmul_ckpts, tmp_path, capsys,
            monkeypatch):
        """A resumed run's identity settings are its snapshot's: an
        option that would change them exits 2 naming both options,
        never a run that silently ignores it."""
        from repro.apps.workloads import Workload
        from repro.faults.chaos import trace_digest

        digests = []
        run = Workload.run

        def recording(self, **kwargs):
            result = run(self, **kwargs)
            digests.append(trace_digest(result.trace))
            return result

        monkeypatch.setattr(Workload, "run", recording)
        plain = ["run", "MatMul", "--cells", "4",
                 "--resume-from", str(matmul_ckpts)]
        assert main(plain) == 0
        code = main(plain + [arg.format(tmp=tmp_path) for arg in extra])
        err = capsys.readouterr().err
        assert "ambient" not in err
        if refused is None:
            assert code == 0, err
            assert digests[1] == digests[0]
        else:
            assert code == 2
            assert refused in err and "--resume-from" in err, err
            assert len(digests) == 1

    def test_resume_from_missing_dir_is_a_clean_error(
            self, tmp_path, capsys):
        assert main(["run", "MatMul", "--cells", "4", "--no-replay",
                     "--resume-from", str(tmp_path / "nowhere")]) == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err and "Traceback" not in err

    def test_sigterm_exits_resumable_with_snapshot(self, tmp_path):
        # The real kill: a subprocess run is SIGTERMed mid-flight, must
        # park at its next gate, save a final snapshot, exit 75, and
        # print the resume command — which must then complete.
        import os
        import signal as signal_mod
        import subprocess
        import sys
        import time

        from repro.cli import EXIT_RESUMABLE

        # Paper-scale CG crosses ~15 gates over a few seconds, leaving
        # a wide window between the first snapshot and completion for
        # the signal to land deterministically.
        ckpts = tmp_path / "ckpts"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "run", "CG",
             "--cells", "16", "--paper-scale", "--no-replay",
             "--checkpoint-dir", str(ckpts), "--checkpoint-every", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=dict(os.environ))
        try:
            deadline = time.monotonic() + 120
            while not (ckpts / "ckpt_000001").exists():
                assert proc.poll() is None, (
                    "run finished before its first snapshot: "
                    + proc.communicate()[0])
                assert time.monotonic() < deadline, "no snapshot in 120s"
                time.sleep(0.05)
            proc.send_signal(signal_mod.SIGTERM)
            out, _ = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == EXIT_RESUMABLE, out
        assert "snapshot saved to" in out
        assert "resume with: repro run CG" in out
        assert "--resume-from" in out
        # An interrupt snapshot resumes to a correct (verified) finish.
        code = main(["run", "CG", "--cells", "16", "--paper-scale",
                     "--no-replay", "--resume-from", str(ckpts)])
        assert code == 0


class TestChaosRecover:
    def test_recover_sweep_single_app(self, tmp_path, capsys):
        import json
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(
            {"name": "mini", "seed": 9, "drop_rate": 0.05}))
        snaps = tmp_path / "snaps"
        code = main(["chaos", "MatMul", "--recover", "--smoke",
                     "--plan", str(plan), "--snapshot-dir", str(snaps)])
        assert code == 0
        out = capsys.readouterr().out
        assert "killed at site" in out
        assert "all resumed byte-identical" in out
        # --snapshot-dir retains the per-case snapshots for upload.
        assert (snaps / "MatMul-none").is_dir()
        assert (snaps / "MatMul-mini").is_dir()

    def test_recover_divergence_exits_3_with_json(
            self, monkeypatch, capsys):
        import json

        from repro.cli import EXIT_DIVERGED
        from repro.faults import chaos as chaos_mod

        def fake_sweep(*args, **kwargs):
            report = chaos_mod.RecoverReport()
            report.cases.append(chaos_mod.RecoverCase(
                app="MatMul", plan="storm", seed=1, site=2, ok=False,
                results_match=False))
            return report

        monkeypatch.setattr(chaos_mod, "recover_sweep", fake_sweep)
        code = main(["chaos", "--recover", "--smoke"])
        assert code == EXIT_DIVERGED
        out = capsys.readouterr().out
        # The machine-readable report rides the text output too.
        payload = out[out.index("{"):]
        doc = json.loads(payload)
        assert doc["diverged"] is True

    def test_chaos_divergence_exits_3_crash_exits_1(
            self, monkeypatch, capsys):
        from repro.cli import EXIT_DIVERGED
        from repro.faults import chaos as chaos_mod

        def report_with(case):
            report = chaos_mod.ChaosReport()
            report.cases.append(case)
            return report

        diverged = chaos_mod.ChaosCase(
            app="MatMul", plan="storm", seed=1, ok=False,
            results_match=False)
        monkeypatch.setattr(chaos_mod, "chaos_sweep",
                            lambda *a, **k: report_with(diverged))
        assert main(["chaos", "--smoke"]) == EXIT_DIVERGED
        capsys.readouterr()

        crashed = chaos_mod.ChaosCase(
            app="MatMul", plan="storm", seed=1, ok=False,
            error="CommTimeoutError: gave up")
        monkeypatch.setattr(chaos_mod, "chaos_sweep",
                            lambda *a, **k: report_with(crashed))
        assert main(["chaos", "--smoke"]) == 1
        capsys.readouterr()


class TestBenchResume:
    def test_abort_exits_resumable_then_resume_completes(
            self, tmp_path, monkeypatch, capsys):
        from repro.cli import EXIT_RESUMABLE

        journal = tmp_path / "journal.json"
        monkeypatch.setenv("REPRO_BENCH_ABORT_AFTER", "1")
        code = main(["bench", "run", "--smoke", "--no-cache",
                     "--journal", str(journal),
                     "--output-dir", str(tmp_path)])
        assert code == EXIT_RESUMABLE
        out = capsys.readouterr().out
        assert "completed rows journaled" in out
        assert "resume with: repro bench run" in out
        assert "--resume" in out

        monkeypatch.delenv("REPRO_BENCH_ABORT_AFTER")
        code = main(["bench", "run", "--smoke", "--no-cache",
                     "--journal", str(journal), "--resume",
                     "--output-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "resume: 1/2 rows already journaled" in out
        (artifact,) = tmp_path.glob("BENCH_*.json")
        assert artifact.stat().st_size > 0

    def test_default_journal_lands_in_cache_dir(
            self, tmp_path, monkeypatch, capsys):
        from pathlib import Path

        from repro.cli import EXIT_RESUMABLE

        seen = {}

        def fake_run_bench(specs, presets, **kwargs):
            seen.update(kwargs)
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.bench.runner.run_bench", fake_run_bench)
        code = main(["bench", "run", "--smoke",
                     "--cache-dir", str(tmp_path)])
        assert code == EXIT_RESUMABLE
        assert seen["journal_path"] == Path(tmp_path) / "journal-smoke.json"
        capsys.readouterr()

    def test_interrupt_without_journal_exits_130(
            self, monkeypatch, capsys):
        def fake_run_bench(specs, presets, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.bench.runner.run_bench", fake_run_bench)
        code = main(["bench", "run", "--smoke", "--no-cache"])
        assert code == 130
        assert "no journal" in capsys.readouterr().out


class TestReplay:
    @pytest.fixture
    def trace_file(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        main(["run", "MatMul", "--cells", "4", "--trace", str(path),
              "--no-replay"])
        capsys.readouterr()
        return path

    def test_replay_default_preset(self, trace_file, capsys):
        assert main(["replay", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "AP1000+" in out and "elapsed" in out

    def test_replay_each_preset(self, trace_file, capsys):
        for preset in ("ap1000", "ap1000-fast", "ap1000+"):
            assert main(["replay", str(trace_file),
                         "--preset", preset]) == 0
        assert "mean idle" in capsys.readouterr().out

    def test_replay_from_columns_prints_what_the_reference_prints(
            self, trace_file, tmp_path, capsys):
        """`replay` goes file -> columns -> engine without building an
        event; text and --json output carry the numbers of the
        event-object oracle on v2, stream and (imported) v1 files."""
        import json

        from repro.mlsim.params import preset
        from repro.trace.io import load_trace
        from tests.mlsim.reference_engine import MLSimEngine
        from tests.trace.reference import reference_v1_text
        v1, stream = tmp_path / "t.v1.jsonl", tmp_path / "t.stream.trc"
        v1.write_text(reference_v1_text(load_trace(trace_file)))
        main(["run", "MatMul", "--cells", "4", "--no-replay",
              "--stream", str(stream)])
        capsys.readouterr()
        for path in (trace_file, v1, stream):
            for name in ("ap1000+", "ap1000"):
                trace = load_trace(path)
                trace.coalesce_compute()
                ref = MLSimEngine(trace, preset(name),
                                  collect_metrics=True).run()
                argv = ["replay", str(path), "--preset", name]
                assert main(argv) == 0
                assert (f"elapsed {ref.elapsed_us:.1f} us, "
                        f"{ref.messages} messages"
                        in capsys.readouterr().out)
                assert main([*argv, "--json"]) == 0
                doc = json.loads(capsys.readouterr().out)
                assert doc["elapsed_us"] == ref.elapsed_us
                assert doc["mean_idle_us"] == ref.mean_idle
                assert doc["metrics"] == json.loads(
                    json.dumps(ref.metrics))

    def test_replay_timeline(self, trace_file, capsys):
        assert main(["replay", str(trace_file), "--timeline"]) == 0
        out = capsys.readouterr().out
        assert "timeline, 0 .." in out
        assert "PE   0 |" in out

    def test_replay_custom_params(self, trace_file, tmp_path, capsys):
        params = tmp_path / "model.params"
        main(["params", "ap1000"])
        params.write_text(capsys.readouterr().out, encoding="utf-8")
        assert main(["replay", str(trace_file),
                     "--params", str(params)]) == 0

    def test_models_ordered(self, trace_file, capsys):
        elapsed = {}
        for preset in ("ap1000", "ap1000+"):
            main(["replay", str(trace_file), "--preset", preset])
            out = capsys.readouterr().out
            elapsed[preset] = float(out.split("elapsed")[1].split("us")[0])
        assert elapsed["ap1000+"] < elapsed["ap1000"]


class TestParams:
    def test_prints_figure6_format(self, capsys):
        assert main(["params", "ap1000+"]) == 0
        out = capsys.readouterr().out
        assert "computation_factor 0.125" in out
        assert "put_prolog_time 1" in out

    def test_roundtrips_through_parser(self, capsys):
        from repro.mlsim.params import ap1000_params, parse_params
        main(["params", "ap1000"])
        text = capsys.readouterr().out
        assert parse_params(text, name="AP1000") == ap1000_params()


class TestReport:
    def test_subset_report(self, capsys):
        assert main(["report", "--apps", "EP", "MatMul"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "ALL PASSED" in out

    def test_parallel_report_matches_serial(self, capsys):
        assert main(["report", "--apps", "EP", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert main(["report", "--apps", "EP"]) == 0
        assert capsys.readouterr().out == parallel


class TestBench:
    @pytest.fixture
    def smoke_artifact(self, tmp_path, capsys):
        path = tmp_path / "BENCH_smoke.json"
        code = main(["bench", "run", "--smoke", "--no-cache",
                     "--output", str(path)])
        capsys.readouterr()
        assert code == 0
        return path

    def test_smoke_run_writes_artifact(self, smoke_artifact, capsys):
        import json
        data = json.loads(smoke_artifact.read_text(encoding="utf-8"))
        assert data["schema"] == "repro-bench-v1"
        assert data["grid"] == "smoke"
        assert set(data["results"]["apps"]) == {"EP", "MatMul"}
        assert data["run"]["jobs"] == 1

    def test_run_reports_summary(self, tmp_path, capsys):
        assert main(["bench", "run", "--smoke", "--no-cache",
                     "--output", str(tmp_path / "b.json")]) == 0
        out = capsys.readouterr().out
        assert "VERIFIED" in out
        assert "artifact written to" in out

    def test_default_output_is_timestamped(self, tmp_path, capsys):
        assert main(["bench", "run", "--smoke", "--no-cache",
                     "--output-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        (artifact,) = tmp_path.glob("BENCH_*.json")
        assert artifact.stat().st_size > 0

    def test_run_uses_cache_dir(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        for _ in range(2):
            assert main(["bench", "run", "--smoke",
                         "--cache-dir", str(cache),
                         "--output-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cached" in out

    def test_compare_passes_against_itself(self, smoke_artifact, capsys):
        assert main(["bench", "compare", str(smoke_artifact),
                     "--baseline", str(smoke_artifact)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_compare_fails_on_injected_regression(
            self, smoke_artifact, tmp_path, capsys):
        import json
        data = json.loads(smoke_artifact.read_text(encoding="utf-8"))
        metrics = data["results"]["apps"]["MatMul"]["presets"]["ap1000+"]
        metrics["elapsed_us"] *= 1.5
        regressed = tmp_path / "regressed.json"
        regressed.write_text(json.dumps(data), encoding="utf-8")
        assert main(["bench", "compare", str(regressed),
                     "--baseline", str(smoke_artifact),
                     "--tolerance", "5"]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "FAIL" in out


class TestJsonDocuments:
    """`--json` on run/replay/top: schema-stable, parseable round trips."""

    @pytest.fixture
    def trace_file(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        main(["run", "MatMul", "--cells", "4", "--trace", str(path),
              "--no-replay"])
        capsys.readouterr()
        return path

    def test_run_json_roundtrip(self, tmp_path, capsys):
        import json
        trace = tmp_path / "mm.jsonl"
        assert main(["run", "MatMul", "--cells", "4", "--observe",
                     "--trace", str(trace), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro-run-v1"
        assert doc["app"] == "MatMul"
        assert doc["verified"] is True
        assert doc["cells"] == 4
        assert doc["trace_file"] == str(trace)
        assert doc["metrics"]["observed"] is True
        assert doc["metrics"]["network"]["links"]
        assert doc["speedups_vs_ap1000"]["ap1000+"] > 1.0
        assert doc["statistics"]["num_pes"] == 4

    def test_run_json_without_observe(self, capsys):
        import json
        assert main(["run", "EP", "--cells", "4", "--no-replay",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["metrics"]["observed"] is False
        assert doc["speedups_vs_ap1000"] is None

    def test_replay_json_roundtrip(self, trace_file, capsys):
        import json
        assert main(["replay", str(trace_file), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro-replay-v1"
        assert doc["model"] == "AP1000+"
        assert doc["elapsed_us"] > 0
        assert doc["metrics"]["schema"] == "repro-obs-replay-v1"
        assert doc["metrics"]["links"]

    def test_top_json_trace_mode(self, trace_file, capsys):
        import json
        assert main(["top", str(trace_file), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro-top-v1"
        assert len(doc["per_pe"]) == 4

    def test_top_json_micro(self, capsys):
        import json
        assert main(["top", "--micro", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro-top-v1"

    def test_top_artifact_mode(self, tmp_path, capsys):
        import json
        artifact = tmp_path / "BENCH_t.json"
        assert main(["bench", "run", "--smoke", "--no-cache",
                     "--output", str(artifact)]) == 0
        capsys.readouterr()
        assert main(["top", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "bench artifact" in out and "EP" in out
        assert main(["top", str(artifact), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro-top-bench-v1"
        assert doc["apps"]["EP"]["metrics"]["machine"]["observed"] is True

    def test_top_without_source_is_clean_error(self, capsys):
        assert main(["top"]) == 2
        assert "no trace source" in capsys.readouterr().err


class TestTraceExport:
    def test_micro_export_matches_golden(self, tmp_path, capsys):
        from pathlib import Path
        out = tmp_path / "micro.json"
        assert main(["trace", "export", "--micro",
                     "--format", "perfetto", "-o", str(out)]) == 0
        capsys.readouterr()
        golden = (Path(__file__).parent / "obs" / "golden"
                  / "micro.perfetto.json")
        assert out.read_text() == golden.read_text()

    def test_export_to_stdout(self, capsys):
        import json
        assert main(["trace", "export", "--micro",
                     "--format", "chrome"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["otherData"]["model"] == "AP1000+"

    def test_export_saved_trace(self, tmp_path, capsys):
        import json
        trace = tmp_path / "t.jsonl"
        main(["run", "EP", "--cells", "4", "--trace", str(trace),
              "--no-replay"])
        capsys.readouterr()
        assert main(["trace", "export", str(trace),
                     "--format", "perfetto"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert any(e["ph"] == "X" for e in doc["traceEvents"])


class TestStreamAndFollow:
    """`run --stream` + `top --follow`: live observability end-to-end."""

    @pytest.fixture
    def stream_file(self, tmp_path, capsys):
        path = tmp_path / "ep.stream.jsonl"
        assert main(["run", "EP", "--cells", "4", "--no-replay",
                     "--stream", str(path)]) == 0
        capsys.readouterr()
        return path

    def test_stream_file_replays_like_a_trace(self, stream_file, capsys):
        assert main(["replay", str(stream_file)]) == 0
        assert "AP1000+" in capsys.readouterr().out

    def test_follow_complete_stream(self, stream_file, capsys):
        assert main(["top", str(stream_file), "--follow",
                     "--interval", "0"]) == 0
        out = capsys.readouterr().out
        assert "complete (footer landed)" in out
        assert "PE   0" in out

    def test_follow_json_document(self, stream_file, capsys):
        import json
        assert main(["top", str(stream_file), "--follow", "--json",
                     "--interval", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro-top-follow-v1"
        assert doc["complete"] is True

    def test_stream_refuses_shards(self, tmp_path, capsys):
        assert main(["run", "EP", "--cells", "4", "--shards", "2",
                     "--stream", str(tmp_path / "s.jsonl")]) == 2
        assert "--stream" in capsys.readouterr().err

    def test_stream_refuses_resume(self, tmp_path, capsys):
        """A restored run continues the buffer it saved, which no sink
        binds to: refused, not a sealed stream of zero events."""
        ckpts, stream = tmp_path / "ckpts", tmp_path / "s.trc"
        assert main(["run", "MatMul", "--cells", "4", "--no-replay",
                     "--checkpoint-dir", str(ckpts),
                     "--checkpoint-every", "1"]) == 0
        capsys.readouterr()
        assert main(["run", "MatMul", "--cells", "4", "--no-replay",
                     "--resume-from", str(ckpts),
                     "--stream", str(stream)]) == 2
        err = capsys.readouterr().err
        assert "--stream" in err and "--resume-from" in err
        assert not stream.exists()

    def test_follow_without_file_is_clean_error(self, capsys):
        assert main(["top", "--follow"]) == 2
        assert "--follow needs" in capsys.readouterr().err

    def test_follow_missing_file_is_clean_error(self, tmp_path, capsys):
        assert main(["top", str(tmp_path / "nope.jsonl"),
                     "--follow"]) == 2
        assert "does not exist" in capsys.readouterr().err


class TestTornTraces:
    """Truncated/torn trace files: clean `repro: error`, no traceback."""

    def make_torn(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        main(["run", "EP", "--cells", "4", "--trace", str(path),
              "--no-replay"])
        capsys.readouterr()
        path.write_bytes(path.read_bytes()[:-7])  # tear the last line
        return path

    def test_top_on_torn_trace(self, tmp_path, capsys):
        torn = self.make_torn(tmp_path, capsys)
        assert main(["top", str(torn)]) == 2
        captured = capsys.readouterr()
        assert "repro: error:" in captured.err
        assert "truncated" in captured.err
        assert "Traceback" not in captured.err

    def test_replay_on_torn_trace(self, tmp_path, capsys):
        torn = self.make_torn(tmp_path, capsys)
        assert main(["replay", str(torn)]) == 2
        assert "truncated" in capsys.readouterr().err

    def test_top_on_empty_trace(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["top", str(empty)]) == 2
        captured = capsys.readouterr()
        assert "repro: error:" in captured.err
        assert "Traceback" not in captured.err


class TestIngest:
    """`repro ingest`: foreign traces land in the cache and feed the
    stock verbs unmodified."""

    EXAMPLES = "examples/ingest"

    def test_ingest_vef_sample(self, tmp_path, capsys):
        assert main(["ingest", f"{self.EXAMPLES}/ring4.vef",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "24 foreign records" in out
        assert "trace published at" in out

    def test_ingest_json_roundtrip(self, tmp_path, capsys):
        import json
        assert main(["ingest", f"{self.EXAMPLES}/pingpong.jsonl",
                     "--cache-dir", str(tmp_path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro-ingest-v1"
        assert doc["num_ranks"] == 2
        assert doc["trace_path"]

    def test_published_trace_feeds_stock_verbs(self, tmp_path, capsys):
        import json
        assert main(["ingest", f"{self.EXAMPLES}/ring4.vef",
                     "--cache-dir", str(tmp_path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        trace = doc["trace_path"]
        assert main(["replay", trace, "--preset", "ap1000+"]) == 0
        assert main(["top", trace]) == 0
        capsys.readouterr()

    def test_no_cache_with_output(self, tmp_path, capsys):
        out = tmp_path / "converted.jsonl"
        assert main(["ingest", f"{self.EXAMPLES}/ring4.vef",
                     "--no-cache", "-o", str(out)]) == 0
        capsys.readouterr()
        assert out.exists()
        assert main(["replay", str(out)]) == 0
        capsys.readouterr()

    def test_malformed_trace_is_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.vef"
        bad.write_text("VEFT 2\n0.0 0 put\n")
        assert main(["ingest", str(bad), "--no-cache"]) == 2
        captured = capsys.readouterr()
        assert "repro: error:" in captured.err
        assert "bad.vef:2" in captured.err
        assert "Traceback" not in captured.err

    def test_unknown_reader_is_clean_error(self, capsys):
        assert main(["ingest", f"{self.EXAMPLES}/ring4.vef",
                     "--reader", "otf", "--no-cache"]) == 2
        assert "no reader named" in capsys.readouterr().err


class TestChunkedExport:
    def test_chunked_files_written(self, tmp_path, capsys):
        import json
        out = tmp_path / "micro.json"
        assert main(["trace", "export", "--micro", "--cells", "4",
                     "--chunk-events", "10", "-o", str(out)]) == 0
        assert "chunk(s)" in capsys.readouterr().out
        chunks = sorted(tmp_path.glob("micro.chunk*.json"))
        assert len(chunks) > 1
        for index, chunk in enumerate(chunks):
            doc = json.loads(chunk.read_text())
            assert doc["otherData"]["chunk"] == index

    def test_chunks_merge_to_monolithic(self, tmp_path, capsys):
        from repro.obs.export import merge_chunks
        out = tmp_path / "m.json"
        mono = tmp_path / "mono.json"
        assert main(["trace", "export", "--micro", "--cells", "4",
                     "--chunk-events", "16", "-o", str(out)]) == 0
        assert main(["trace", "export", "--micro", "--cells", "4",
                     "-o", str(mono)]) == 0
        capsys.readouterr()
        chunks = [p.read_text()
                  for p in sorted(tmp_path.glob("m.chunk*.json"))]
        assert merge_chunks(chunks) == mono.read_text()

    def test_chunk_events_requires_output(self, capsys):
        assert main(["trace", "export", "--micro",
                     "--chunk-events", "10"]) == 2
        assert "-o" in capsys.readouterr().err
