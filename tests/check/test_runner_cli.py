"""The checker's drivers: app checking with cache reuse, the seeded-bug
gate, JSON output, and the ``repro check`` CLI."""

import json

import pytest

from repro.bench.grid import BenchSpec
from repro.bench.cache import TraceCache
from repro.check.diagnostics import report_json
from repro.check.runner import (
    check_app,
    check_buggy,
    check_trace,
    trace_is_annotated,
)
from repro.cli import main
from repro.machine.config import MachineConfig
from repro.apps.workloads import workload


SPEC = BenchSpec(app="MatMul", num_cells=4, params={"n": 32})


class TestCheckApp:
    def test_clean_app_without_cache(self):
        report = check_app(SPEC, cache=None)
        assert report.clean
        assert report.stats["cache_hit"] == 0
        assert report.stats["accesses"] > 0

    def test_cache_round_trip(self, tmp_path):
        cache = TraceCache(tmp_path)
        first = check_app(SPEC, cache=cache)
        second = check_app(SPEC, cache=cache)
        assert first.stats["cache_hit"] == 0
        assert second.stats["cache_hit"] == 1
        assert [d.to_dict() for d in first.diagnostics] == \
               [d.to_dict() for d in second.diagnostics]
        assert first.stats["accesses"] == second.stats["accesses"]

    def test_unannotated_cache_entry_is_rerecorded(self, tmp_path):
        cache = TraceCache(tmp_path)
        # Seed the cache with an unannotated trace (sanitizer off).
        run = SPEC.run()
        cache.put(SPEC.app, SPEC.config(), run, 0.0)
        assert not trace_is_annotated(cache.get(SPEC.app,
                                                SPEC.config()).trace)
        report = check_app(SPEC, cache=cache)
        assert report.stats["cache_hit"] == 0  # cache entry was unusable
        assert trace_is_annotated(cache.get(SPEC.app,
                                            SPEC.config()).trace)
        assert report.clean


class TestAnnotation:
    def test_sanitized_run_is_annotated(self):
        run = workload("MatMul").run(num_cells=4,
                                     config=MachineConfig(sanitize=True))
        assert trace_is_annotated(run.trace)

    def test_default_run_is_not_annotated(self):
        run = workload("MatMul").run(num_cells=4)
        assert not trace_is_annotated(run.trace)


class TestBuggyGate:
    def test_every_seeded_bug_is_caught(self):
        reports, ok = check_buggy()
        assert ok, "\n".join(r.render() for r in reports)
        assert len(reports) >= 4
        # Between them the fixtures must cover the headline codes.  Only
        # the static analyzer sees scale_dependent_barrier's bug: its
        # recorded run at P = 4 is clean.
        union = set()
        for report in reports:
            scale_only = report.subject == "buggy/scale_dependent_barrier"
            assert report.clean == scale_only, report.subject
            union |= report.codes()
        for code in ("RACE-PUT-PUT", "RACE-PUT-GET", "FLAG-DEADLOCK",
                     "BARRIER-MISMATCH", "SPMD001", "SPMD002"):
            assert code in union, code

    def test_fixture_expecting_nothing_fails_on_a_finding(self, tmp_path):
        """An empty ``EXPECT`` asks for a clean report: a finding fails
        the gate instead of passing as "0/0 caught"."""
        fixtures = tmp_path / "examples" / "buggy"
        fixtures.mkdir(parents=True)
        (fixtures / "quiet_deadlock.py").write_text(
            "from repro.trace.buffer import TraceBuffer\n"
            "from repro.trace.events import EventKind, TraceEvent\n"
            "EXPECT = set()\n"
            "def build_trace():\n"
            "    trace = TraceBuffer(num_pes=2)\n"
            "    trace.record(TraceEvent(EventKind.FLAG_WAIT, pe=0, flag=1,\n"
            "                            target=1))\n"
            "    return trace\n")
        [report], ok = check_buggy(tmp_path)
        assert not ok
        assert report.codes() == {"FLAG-DEADLOCK"}
        assert report.notes == [
            "UNEXPECTED diagnostics on a fixture expected clean: "
            "['FLAG-DEADLOCK']"]
        (fixtures / "quiet_deadlock.py").write_text(
            "from repro.trace.buffer import TraceBuffer\n"
            "EXPECT = set()\n"
            "def build_trace():\n"
            "    return TraceBuffer(num_pes=2)\n")
        [report], ok = check_buggy(tmp_path)
        assert ok and report.notes == ["clean, as expected: no diagnostics"]


class TestJson:
    def test_schema_and_determinism(self):
        run = workload("MatMul").run(num_cells=4,
                                     config=MachineConfig(sanitize=True))
        reports = [check_trace(run.trace, "MatMul")]
        payload = json.loads(report_json(reports))
        assert payload["schema"] == "repro-check-v1"
        assert payload["clean"] is True
        assert payload["reports"][0]["subject"] == "MatMul"
        assert report_json(reports) == report_json(reports)


class TestCli:
    def test_check_single_app(self, capsys):
        assert main(["check", "MatMul", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "MatMul: clean" in out
        assert "check: clean" in out

    def test_check_lint_only(self, capsys):
        assert main(["check", "--lint-only"]) == 0
        assert "lint: clean" in capsys.readouterr().out

    def test_check_buggy_passes(self, capsys):
        assert main(["check", "--buggy", "--quiet"]) == 0
        assert "all seeded bugs caught" in capsys.readouterr().out

    def test_conform_is_an_unknown_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--conform"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --conform" in capsys.readouterr().err

    def test_check_json_output(self, capsys):
        assert main(["check", "--lint-only", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-check-v1"
        assert payload["clean"] is True

    def test_check_trace_file(self, tmp_path, capsys):
        trace_path = tmp_path / "mm.jsonl"
        assert main(["run", "MatMul", "--cells", "4", "--sanitize",
                     "--trace", str(trace_path), "--no-replay"]) == 0
        capsys.readouterr()
        assert main(["check", "--trace", str(trace_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_diagnostics_fail_the_exit_code(self, tmp_path, capsys,
                                            monkeypatch):
        # A raced trace checked via --trace must exit non-zero.
        from repro.machine.config import MachineConfig
        from repro.machine.machine import Machine
        from repro.trace.io import save_trace

        def program(ctx):
            victim = ctx.alloc(16)
            src = ctx.alloc(16)
            flag = ctx.alloc_flag()
            yield from ctx.barrier()
            if ctx.pe in (1, 2):
                ctx.put(0, victim, src, count=8, recv_flag=flag)
            yield from ctx.barrier()

        machine = Machine(MachineConfig(
            num_cells=3, memory_per_cell=1 << 20, sanitize=True))
        machine.run(program)
        path = tmp_path / "raced.jsonl"
        save_trace(machine.trace, path)
        assert main(["check", "--trace", str(path)]) == 1
        out = capsys.readouterr().out
        assert "RACE-PUT-PUT" in out
