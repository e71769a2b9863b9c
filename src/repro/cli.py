"""Command-line interface: run workloads, record/replay traces, print
parameter files, and reproduce the full evaluation.

Usage::

    python -m repro.cli run CG --cells 16 --trace cg.trc [--json]
    python -m repro.cli run CG --observe
    python -m repro.cli replay cg.trc --preset ap1000+ [--json]
    python -m repro.cli replay cg.trc --params my_model.params
    python -m repro.cli trace export --micro --format perfetto -o out.json
    python -m repro.cli trace export cg.trc --format chrome
    python -m repro.cli trace export cg.trc --chunk-events 5000 -o out.json
    python -m repro.cli top cg.trc [--json]
    python -m repro.cli top BENCH_20260101T000000Z.json
    python -m repro.cli run CG --stream cg.stream.trc
    python -m repro.cli top cg.stream.trc --follow
    python -m repro.cli ingest foreign.vef [--reader vef] [--json]
    python -m repro.cli params ap1000
    python -m repro.cli report [--paper-scale] [--apps EP MatMul ...]
    python -m repro.cli check --all [--json]
    python -m repro.cli check --buggy [--static]
    python -m repro.cli check --static [APP ...]
    python -m repro.cli check --conform [APP ...]
    python -m repro.cli run CG --checkpoint-dir ckpts --checkpoint-every 2
    python -m repro.cli run CG --resume-from ckpts
    python -m repro.cli chaos --recover --smoke
    python -m repro.cli bench run [--smoke] [--jobs 4] [--check]
    python -m repro.cli bench run --smoke --resume
    python -m repro.cli bench compare BENCH_x.json --baseline base.json
    python -m repro.cli list

The ``run``/``replay`` split mirrors the paper's methodology: traces are
recorded once on the (functional) machine, then replayed through MLSim
under as many parameter files as desired.  ``check`` runs the race
detector / synchronization sanitizer over recorded traces and the SPMD
lint over application source (see ``docs/checker.md``).  ``trace
export`` and ``top`` surface the observability layer (``repro.obs``,
see ``docs/observability.md``): Perfetto/Chrome timeline exports and an
ASCII utilization dashboard over a trace or bench artifact.  ``ingest``
translates foreign traces (VEF text, MPI JSON-lines; see
``docs/ingest.md``) into the native format, and ``run --stream`` / ``top
--follow`` stream a live run into a tailable dashboard.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import sys
from collections.abc import Iterator, Sequence
from pathlib import Path

# Argument parsing needs these (choices, the error type main() reports);
# everything else is imported by the verb that uses it, so `repro
# replay` pays for no grid runner, checker or report generator.
from repro.apps.workloads import ORDER, WORKLOADS, workload
from repro.core.errors import (
    CheckpointInterrupt,
    ConfigurationError,
    ReproError,
)
from repro.mlsim.params import PRESETS, format_params, parse_params, preset

#: Exit status of a run interrupted but resumable from a checkpoint or
#: journal (EX_TEMPFAIL: "try again later").
EXIT_RESUMABLE = 75
#: Exit status of a chaos sweep whose runs completed but diverged from
#: the golden digests (distinct from 1 = crashed case, 2 = usage/error).
EXIT_DIVERGED = 3


@contextlib.contextmanager
def _graceful_interrupt(enabled: bool) -> Iterator[None]:
    """Convert the first SIGINT/SIGTERM into a checkpoint request.

    The machine parks at its next safe point, saves one final snapshot,
    and the run exits with :data:`EXIT_RESUMABLE` and a resume command.
    A second signal falls through to the previous handlers (normally: a
    KeyboardInterrupt / process kill).
    """
    if not enabled:
        yield
        return
    from repro.ckpt import policy as ckpt_policy

    previous: dict[int, object] = {}

    def _handler(signum, frame):
        ckpt_policy.request_interrupt()
        for sig, old in previous.items():
            signal.signal(sig, old)
        print("interrupt: saving a checkpoint at the next safe point "
              "(signal again to kill immediately)", file=sys.stderr)

    try:
        for sig in (signal.SIGINT, signal.SIGTERM):
            previous[sig] = signal.signal(sig, _handler)
    except ValueError:  # not the main thread: run unguarded
        yield
        return
    try:
        yield
    finally:
        ckpt_policy.clear_interrupt()
        for sig, old in previous.items():
            with contextlib.suppress(ValueError, TypeError):
                signal.signal(sig, old)


@contextlib.contextmanager
def _shard_env(shards: int):
    """Shard count for machines built inside the block."""
    saved = os.environ.get("REPRO_MACHINE_SHARDS")
    os.environ["REPRO_MACHINE_SHARDS"] = str(shards)
    try:
        yield
    finally:
        if saved is None:
            del os.environ["REPRO_MACHINE_SHARDS"]
        else:
            os.environ["REPRO_MACHINE_SHARDS"] = saved


def _cmd_list(args: argparse.Namespace) -> int:
    print("workloads (section 5.2):")
    for name in ORDER:
        w = workload(name)
        print(f"  {name:10s} {w.language:12s} default {w.default_pes:3d} "
              f"cells, paper {w.paper_pes:3d} cells")
    print("\nparameter presets (Figure 6):", ", ".join(sorted(PRESETS)))
    return 0


def _print_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _run_resume_command(args: argparse.Namespace, snapshot: str) -> str:
    """The exact command that resumes an interrupted ``repro run``."""
    parts = ["repro run", args.app]
    if args.cells is not None:
        parts.append(f"--cells {args.cells}")
    if args.paper_scale:
        parts.append("--paper-scale")
    if args.trace_capacity is not None:
        parts.append(f"--trace-capacity {args.trace_capacity}")
    if args.checkpoint_dir:
        parts.append(f"--checkpoint-dir {args.checkpoint_dir}")
    if args.checkpoint_every is not None:
        parts.append(f"--checkpoint-every {args.checkpoint_every}")
    parts.append(f"--resume-from {snapshot}")
    return " ".join(parts)


def _cmd_run(args: argparse.Namespace) -> int:
    from dataclasses import asdict

    from repro.bench.cache import jsonify
    from repro.ckpt import policy as ckpt_policy
    from repro.mlsim.simulator import simulate_models
    from repro.obs import observer as obs
    from repro.trace import sanitize
    from repro.trace.io import save_trace
    from repro.trace.stats import format_table3_row

    w = workload(args.app)
    overrides = {}
    if args.trace_capacity is not None:
        overrides["trace_capacity"] = args.trace_capacity
    if (args.checkpoint_dir or args.checkpoint_every
            or args.resume_from):
        policy_ctx = ckpt_policy.applied(ckpt_policy.CheckpointPolicy(
            every=args.checkpoint_every,
            directory=args.checkpoint_dir,
            resume_from=args.resume_from,
        ))
    else:
        policy_ctx = contextlib.nullcontext()
    if args.shards is not None:
        shard_ctx = _shard_env(args.shards)
    else:
        shard_ctx = contextlib.nullcontext()
    stream_writer = None
    if args.stream:
        if args.shards is not None:
            raise ConfigurationError(
                "--stream tails the live trace buffer; the sharded "
                "engine records per-worker and merges at the end, so "
                "the combination would not stream anything live — "
                "drop one of --stream/--shards")
        if args.resume_from:
            raise ConfigurationError(
                "--stream binds to a trace buffer as the run creates "
                "it; a run restored by --resume-from continues the "
                "buffer it saved, so nothing would be streamed — drop "
                "one of --stream/--resume-from")
        from repro.trace.buffer import streaming_to
        from repro.trace.io import StreamTraceWriter

        stream_writer = StreamTraceWriter(args.stream)
        stream_ctx = streaming_to(stream_writer)
    else:
        stream_ctx = contextlib.nullcontext()
    try:
        with _graceful_interrupt(bool(args.checkpoint_dir)), policy_ctx, \
                sanitize.enabled(args.sanitize), obs.enabled(args.observe), \
                shard_ctx, stream_ctx:
            run = w.run(paper_scale=args.paper_scale,
                        num_cells=args.cells, **overrides)
    except CheckpointInterrupt as exc:
        print(f"{args.app}: interrupted; snapshot saved to "
              f"{exc.snapshot_path}")
        print("resume with: "
              + _run_resume_command(args, str(exc.snapshot_path)))
        return EXIT_RESUMABLE
    finally:
        # On success this lands the footer; on a crash or
        # checkpoint interrupt it flushes what was recorded so the file
        # stays tailable/loadable.
        if stream_writer is not None:
            stream_writer.close()
    # Statistics and the trace file must be taken before any replay:
    # replays coalesce (mutate) the trace buffer.
    statistics = run.statistics
    total_events = run.trace.total_events
    if args.trace:
        save_trace(run.trace, args.trace)
    speedups = None
    if not args.no_replay:
        cmp = simulate_models(run.trace)
        plus, fast = cmp.table2_row()
        speedups = {"ap1000+": plus, "ap1000-fast": fast}
    if args.json:
        _print_json({
            "schema": "repro-run-v1",
            "app": run.name,
            "cells": run.machine.config.num_cells,
            "verified": bool(run.verified),
            "checks": jsonify(run.checks),
            "total_events": total_events,
            "statistics": jsonify(asdict(statistics)),
            "speedups_vs_ap1000": speedups,
            "metrics": jsonify(obs.machine_metrics(run.machine)),
            "engine": run.machine.engine,
            "shard_report": jsonify(
                getattr(run.machine, "shard_report", None)),
            "trace_file": args.trace,
        })
        return 0 if run.verified else 1
    status = "VERIFIED" if run.verified else "FAILED"
    print(f"{run.name}: functional run {status} on "
          f"{run.machine.config.num_cells} cells, "
          f"{total_events} trace events")
    report = getattr(run.machine, "shard_report", None)
    if report is not None:
        busy = max(report["worker_busy_s"])
        print(f"  sharded over {report['shards']} workers: critical path "
              f"{report['critical_path_s']:.3f}s (slowest worker "
              f"{busy:.3f}s + replay {report['replay_s']:.3f}s)")
    engine = run.machine.engine
    if engine["fallback"] is not None:
        print(f"  sharded engine not used ({engine['fallback']}): ran "
              f"the serial {engine['loop']} loop")
    for name, value in run.checks.items():
        print(f"  check {name}: {value}")
    print(format_table3_row(run.name, statistics))
    if args.trace:
        print(f"trace written to {args.trace}")
    if args.stream:
        print(f"stream trace written to {args.stream}")
    if speedups is not None:
        print(f"Table 2 speedups vs AP1000: AP1000+ "
              f"{speedups['ap1000+']:.2f}, "
              f"AP1000/SuperSPARC {speedups['ap1000-fast']:.2f}")
    return 0 if run.verified else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    if args.params:
        params = parse_params(args.params, name=args.params)
    else:
        params = preset(args.preset)
    # File -> columns -> replay: no TraceEvent is built on the way (the
    # bench runner's path for cached traces), timeline or not.
    from repro.mlsim.engine_soa import replay_columns
    from repro.trace.io import load_trace_columns
    result = replay_columns(load_trace_columns(args.trace), params,
                            record_timeline=args.timeline,
                            collect_metrics=args.json)
    if args.timeline and not args.json:
        from repro.mlsim.timeline import render_timeline
        print(render_timeline(result.timeline))
    if args.json:
        _print_json({
            "schema": "repro-replay-v1",
            "trace_file": args.trace,
            "model": result.model_name,
            "elapsed_us": result.elapsed_us,
            "messages": result.messages,
            "bytes_on_wire": result.bytes_on_wire,
            "mean_execution_us": result.mean_execution,
            "mean_rtsys_us": result.mean_rtsys,
            "mean_overhead_us": result.mean_overhead,
            "mean_idle_us": result.mean_idle,
            "metrics": result.metrics,
        })
        return 0
    print(f"model {result.model_name}: elapsed {result.elapsed_us:.1f} us, "
          f"{result.messages} messages, "
          f"{result.bytes_on_wire} payload bytes")
    print(f"  mean execution {result.mean_execution:12.1f} us")
    print(f"  mean rtsys     {result.mean_rtsys:12.1f} us")
    print(f"  mean overhead  {result.mean_overhead:12.1f} us")
    print(f"  mean idle      {result.mean_idle:12.1f} us")
    return 0


def _source_trace(args: argparse.Namespace):
    """The trace named by a ``trace export``/``top`` invocation."""
    from repro.obs.micro import MICRO_CELLS, micro_trace
    from repro.trace.io import load_trace

    if args.micro:
        return micro_trace(args.cells or MICRO_CELLS)
    if getattr(args, "app", None):
        run = workload(args.app).run(num_cells=args.cells)
        return run.trace
    if args.trace:
        return load_trace(args.trace)
    raise ConfigurationError(
        "no trace source: name a trace file, or pass --micro or --app")


def _chunk_path(output: Path, index: int) -> Path:
    """``out.json`` -> ``out.chunk000.json`` (chunked trace export)."""
    suffix = output.suffix or ".json"
    return output.with_name(f"{output.stem}.chunk{index:03d}{suffix}")


def _cmd_trace_export(args: argparse.Namespace) -> int:
    from repro.obs.export import export_trace, export_trace_chunked

    trace = _source_trace(args)
    params = (parse_params(args.params, name=args.params) if args.params
              else preset(args.preset))
    if args.chunk_events is not None:
        if not args.output:
            raise ConfigurationError(
                "--chunk-events writes one file per chunk; name the "
                "base path with -o/--output")
        out = Path(args.output)
        paths = []
        for index, text in enumerate(export_trace_chunked(
                trace, params, args.format,
                chunk_events=args.chunk_events)):
            path = _chunk_path(out, index)
            path.write_text(text, encoding="utf-8")
            paths.append(path)
        print(f"{args.format} export written to {len(paths)} chunk(s): "
              f"{paths[0]} .. {paths[-1]}")
        return 0
    text = export_trace(trace, params, args.format)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"{args.format} export written to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_top_follow(args: argparse.Namespace) -> int:
    """Live dashboard: tail a stream trace or a bench journal."""
    import time

    from repro.obs.follow import (
        FollowState,
        follow_document,
        read_journal_snapshot,
        render_follow,
        render_journal_follow,
    )

    if not args.trace:
        raise ConfigurationError(
            "--follow needs a file to tail: a stream trace from "
            "`repro run --stream` or a bench campaign journal")
    path = Path(args.trace)
    if not path.exists():
        raise ConfigurationError(f"nothing to follow: {path} does not "
                                 "exist (start the run first)")
    frame = 0
    if read_journal_snapshot(path) is not None:
        # Journal mode: the file is rewritten atomically per row, so
        # each tick re-reads the whole (small) document.
        while True:
            doc = read_journal_snapshot(path)
            if doc is not None:
                if args.json:
                    _print_json(doc)
                else:
                    print(render_journal_follow(doc))
            frame += 1
            done = (doc is not None
                    and set(doc.get("app_order", []))
                    <= set(doc.get("apps", {})))
            if done or (args.frames is not None
                        and frame >= args.frames):
                return 0
            time.sleep(args.interval)
    state = FollowState(path)
    try:
        while True:
            state.poll()
            if args.json:
                _print_json(follow_document(state))
            else:
                print(render_follow(state))
            frame += 1
            if state.complete or (args.frames is not None
                                  and frame >= args.frames):
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        print()
        return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.bench.schema import SCHEMA_NAME, BenchArtifact
    from repro.mlsim.simulator import simulate
    from repro.obs import top as obs_top

    if args.follow:
        return _cmd_top_follow(args)
    artifact_data = None
    if args.trace and not args.micro:
        try:
            data = json.loads(Path(args.trace).read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            data = None
        if isinstance(data, dict) and data.get("schema") == SCHEMA_NAME:
            artifact_data = data
    if artifact_data is not None:
        artifact = BenchArtifact.from_dict(artifact_data)
        if args.json:
            _print_json(obs_top.bench_top_document(artifact))
        else:
            print(obs_top.render_bench_top(artifact))
        return 0
    trace = _source_trace(args)
    result = simulate(trace, preset(args.preset), collect_metrics=True)
    if args.json:
        _print_json(obs_top.top_document(result))
    else:
        print(obs_top.render_top(result))
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    """Translate a foreign trace and land it in the bench trace cache."""
    import time

    from repro.ingest.cache import land_in_cache
    from repro.ingest.mapper import ingest_file
    from repro.trace.io import save_trace

    t0 = time.perf_counter()
    result = ingest_file(args.source, reader=args.reader,
                         cells=args.cells, time_unit=args.time_unit)
    wall_s = time.perf_counter() - t0
    trace_path: Path | None = None
    cache_hit = False
    if not args.no_cache:
        cached = land_in_cache(result, args.source, reader=args.reader,
                               cache_dir=args.cache_dir, wall_s=wall_s)
        trace_path = cached.trace_path
        cache_hit = cached.cache_hit
    if args.output:
        save_trace(result.trace, args.output)
        trace_path = Path(args.output)
    if args.json:
        _print_json({
            "schema": "repro-ingest-v1",
            "source": str(args.source),
            "reader": args.reader or "auto",
            "num_ranks": result.num_ranks,
            "num_cells": result.num_cells,
            "source_events": result.source_events,
            "synthesized_compute": result.synthesized_compute,
            "total_events": result.trace.total_events,
            "op_counts": dict(result.op_counts),
            "trace_path": str(trace_path) if trace_path else None,
            "cache_hit": cache_hit,
        })
        return 0
    print(f"ingested {args.source}: {result.source_events} foreign "
          f"records -> {result.trace.total_events} trace events on "
          f"{result.num_cells} cells ({result.num_ranks} ranks)")
    if result.synthesized_compute:
        print(f"  synthesized {result.synthesized_compute} COMPUTE "
              "events from timestamp gaps")
    counts = "  ".join(f"{op}={n}"
                       for op, n in sorted(result.op_counts.items()))
    print(f"  foreign op mix: {counts}")
    if trace_path is not None:
        hit = " (cache hit)" if cache_hit else ""
        print(f"  trace published at {trace_path}{hit}")
        print(f"  next: repro replay {trace_path} --preset ap1000+")
    return 0


def _cmd_params(args: argparse.Namespace) -> int:
    sys.stdout.write(format_params(preset(args.preset)))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import run_experiments

    report = run_experiments(paper_scale=args.paper_scale,
                             names=tuple(args.apps), jobs=args.jobs)
    if args.format == "markdown":
        from repro.analysis.markdown import report_markdown
        print(report_markdown(report))
    else:
        print(report.render())
    if args.validate:
        from repro.analysis.validate import format_checks, validate_report
        checks = validate_report(report)
        print()
        print(format_checks(checks))
        if not all(c.passed for c in checks):
            return 1
    return 0 if report.all_verified else 1


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.bench.cache import DEFAULT_CACHE_DIR
    from repro.check.diagnostics import report_json
    from repro.check.runner import (
        check_apps,
        check_buggy,
        check_conform,
        check_static_apps,
        check_static_buggy,
        check_trace,
        lint_report,
    )
    from repro.trace.io import load_trace

    reports = []
    ok = True
    if args.trace:
        trace = load_trace(args.trace)
        reports.append(check_trace(trace, args.trace))
    elif args.buggy:
        if args.static:
            reports, ok = check_static_buggy()
        else:
            reports, ok = check_buggy()
        # The buggy gate *passes* when the seeded diagnostics are found:
        # report cleanliness is inverted relative to every other mode.
        for report in reports:
            print(f"== {report.subject}: "
                  f"{report.stats.get('caught', 0)}"
                  f"/{report.stats.get('expected', 0)} expected "
                  f"diagnostics caught")
            if not args.quiet:
                body = report.render()
                if body:
                    print(body)
        if args.json:
            print(report_json(reports))
        print("buggy fixtures: "
              + ("all seeded bugs caught" if ok
                 else "SOME SEEDED BUGS MISSED"))
        return 0 if ok else 1
    elif args.static:
        names = tuple(args.apps) if args.apps else None
        reports.extend(check_static_apps(
            names, log=None if args.json else print))
    elif args.conform:
        names = tuple(args.apps) if args.apps else None
        reports.extend(check_conform(
            names,
            cache_dir=args.cache_dir or DEFAULT_CACHE_DIR,
            use_cache=not args.no_cache,
            log=None if args.json else print,
        ))
    else:
        if not args.lint_only:
            names = tuple(args.apps) if args.apps else None
            reports.extend(check_apps(
                names,
                cache_dir=args.cache_dir or DEFAULT_CACHE_DIR,
                use_cache=not args.no_cache,
                paper_scale=args.paper_scale,
                log=None if args.json else print,
            ))
        reports.append(lint_report())
    if args.json:
        print(report_json(reports))
    else:
        for report in reports:
            status = "clean" if report.clean else (
                f"{len(report.diagnostics)} diagnostic(s)")
            print(f"== {report.subject}: {status}")
            body = report.render()
            if body:
                print(body)
    clean = all(r.clean for r in reports)
    if not args.json:
        print("check: " + ("clean" if clean else "DIAGNOSTICS FOUND"))
    return 0 if clean else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults.chaos import SMOKE_APPS, chaos_sweep, recover_sweep
    from repro.faults.plan import FaultPlan, full_plans, smoke_plans

    if args.plan:
        plans = tuple(FaultPlan.load(args.plan))
    elif args.smoke:
        plans = smoke_plans(args.seed)
    else:
        plans = full_plans(args.seed)
    if args.recover:
        # Kill-and-resume sweep over the checkpoint-enabled apps.
        report = recover_sweep(
            tuple(args.apps) if args.apps else None, plans,
            seed=args.seed, cells=args.cells, smoke=args.smoke,
            snapshot_root=args.snapshot_dir,
            log=None if args.json else print)
    else:
        if args.apps:
            apps = tuple(args.apps)
        elif args.smoke:
            apps = SMOKE_APPS
        else:
            apps = None
        report = chaos_sweep(apps, plans, cells=args.cells,
                             check=not args.no_check,
                             log=None if args.json else print)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
        if not report.ok:
            # Structured summary for tooling even in text mode, so a CI
            # log always carries the machine-readable failure detail.
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    if report.ok:
        return 0
    return EXIT_DIVERGED if report.diverged else 1


def _bench_resume_command(args: argparse.Namespace) -> str:
    """The exact command that resumes an interrupted bench campaign."""
    parts = ["repro bench run"]
    if args.micro:
        parts.append("--micro")
    if args.smoke:
        parts.append("--smoke")
    if args.apps:
        parts.append("--apps " + " ".join(args.apps))
    if args.presets:
        parts.append("--presets " + " ".join(args.presets))
    if args.jobs != 1:
        parts.append(f"--jobs {args.jobs}")
    if args.cache_dir:
        parts.append(f"--cache-dir {args.cache_dir}")
    if args.no_cache:
        parts.append("--no-cache")
    if args.check:
        parts.append("--check")
    if args.output:
        parts.append(f"--output {args.output}")
    if args.output_dir != ".":
        parts.append(f"--output-dir {args.output_dir}")
    if args.journal:
        parts.append(f"--journal {args.journal}")
    parts.append("--resume")
    return " ".join(parts)


def _cmd_bench_run(args: argparse.Namespace) -> int:
    from repro.bench.cache import DEFAULT_CACHE_DIR
    from repro.bench.grid import (
        ALL_PRESETS,
        SMOKE_PRESETS,
        bench_specs,
        micro_specs,
        smoke_specs,
    )
    from repro.bench.runner import run_bench
    from repro.bench.schema import artifact_filename

    if args.smoke and args.micro:
        print("choose one of --smoke / --micro", file=sys.stderr)
        return 2
    if args.micro:
        specs = micro_specs()
        preset_names = tuple(args.presets or ALL_PRESETS)
        grid_name = "micro"
    elif args.smoke:
        specs = smoke_specs()
        preset_names = tuple(args.presets or SMOKE_PRESETS)
        grid_name = "smoke"
    else:
        specs = bench_specs(tuple(args.apps) if args.apps else None)
        preset_names = tuple(args.presets or ALL_PRESETS)
        grid_name = "bench"
    journal_path = Path(args.journal) if args.journal else None
    if journal_path is None and not args.no_cache:
        cache_root = (Path(args.cache_dir) if args.cache_dir
                      else DEFAULT_CACHE_DIR)
        journal_path = cache_root / f"journal-{grid_name}.json"
    # A SIGTERM (CI timeout, scheduler preemption) takes the same clean
    # path as Ctrl-C: the journal already holds every completed row.
    def _term_handler(signum, frame):
        raise KeyboardInterrupt

    previous_term = None
    with contextlib.suppress(ValueError):
        previous_term = signal.signal(signal.SIGTERM, _term_handler)
    try:
        outcome = run_bench(
            specs,
            preset_names,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            use_cache=not args.no_cache,
            grid_name=grid_name,
            log=print,
            check=args.check,
            journal_path=journal_path,
            resume=args.resume,
        )
    except KeyboardInterrupt:
        print()
        if journal_path is not None:
            print(f"interrupted: completed rows journaled in "
                  f"{journal_path}")
            print("resume with: " + _bench_resume_command(args))
            return EXIT_RESUMABLE
        print("interrupted (no journal: rerun without --no-cache, or "
              "pass --journal, to make campaigns resumable)")
        return 130
    finally:
        if previous_term is not None:
            with contextlib.suppress(ValueError, TypeError):
                signal.signal(signal.SIGTERM, previous_term)
    artifact = outcome.artifact
    for app in artifact.app_order:
        result = artifact.apps[app]
        status = "VERIFIED" if result.verified else "FAILED"
        elapsed = "  ".join(
            f"{p}={result.presets[p].elapsed_us:.1f}us"
            for p in preset_names
        )
        print(f"{app:10s} {status:8s} {elapsed}")
    print(
        f"grid {grid_name}: {len(specs)} apps x {len(preset_names)} "
        f"presets, jobs={args.jobs}, wall {artifact.run['wall_s']:.2f}s "
        f"(functional {artifact.run['stage_wall_s']['functional']:.2f}s, "
        f"replay {artifact.run['stage_wall_s']['replay']:.2f}s, "
        f"cache hits {artifact.run['cache']['hits']})"
    )
    if args.check:
        for app, report in outcome.check_reports.items():
            if not report.clean:
                print(f"check {app}:")
                print(report.render())
        status = "clean" if outcome.all_check_clean else "DIAGNOSTICS FOUND"
        print(f"check stage: {status}")
    if args.output:
        path = artifact.save(args.output)
    else:
        path = artifact.save(Path(args.output_dir) / artifact_filename())
    print(f"artifact written to {path}")
    ok = artifact.all_verified and (not args.check
                                    or outcome.all_check_clean)
    return 0 if ok else 1


def _cmd_bench_perf(args: argparse.Namespace) -> int:
    from repro.bench.perf import baseline_from_report, run_perf

    baseline = None if args.no_baseline else args.baseline
    report = run_perf(
        cache_dir=args.cache_dir,
        baseline_path=baseline,
        tolerance_pct=args.tolerance,
        log=print,
    )
    doc = report.document
    print(f"sharded speedup: {doc['sharded']['speedup']:.1f}x over "
          f"serial at {doc['sharded']['config']['num_cells']} cells "
          f"(critical path, floor "
          f"{doc['gates']['sharded_min_speedup']:g}x); wall-clock "
          f"{doc['sharded']['wall_ratio']:.1f}x (not gated)")
    path = report.save(args.output)
    print(f"perf report written to {path}")
    if args.write_baseline:
        base_path = Path(args.baseline)
        base_path.parent.mkdir(parents=True, exist_ok=True)
        base_path.write_text(
            json.dumps(baseline_from_report(doc), indent=2, sort_keys=True)
            + "\n",
            encoding="utf-8",
        )
        print(f"baseline written to {base_path}")
    if report.passed:
        print("PASS: perf gates hold")
        return 0
    for failure in report.failures:
        print(f"FAIL: {failure}")
    return 1


def _cmd_bench_weak(args: argparse.Namespace) -> int:
    from repro.bench.weak import WEAK_SHARDS, run_weak

    kwargs = {}
    if args.points:
        kwargs["points"] = tuple(args.points)
    if args.apps:
        kwargs["apps"] = tuple(args.apps)
    document = run_weak(shards=args.shards or WEAK_SHARDS,
                        log=print, **kwargs)
    path = Path(args.output)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"weak-scaling artifact written to {path} "
          f"({len(document['rows'])} rows, byte-identity asserted)")
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from repro.bench.compare import compare_artifacts
    from repro.bench.schema import BenchArtifact

    current = BenchArtifact.load(args.current)
    baseline = BenchArtifact.load(args.baseline)
    comparison = compare_artifacts(
        current,
        baseline,
        tolerance_pct=args.tolerance,
        wall_tolerance_pct=args.wall_tolerance,
    )
    print(comparison.render())
    if comparison.passed:
        print(f"PASS: within {args.tolerance:g}% of baseline")
        return 0
    print(f"FAIL: regression(s) beyond {args.tolerance:g}% tolerance")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AP1000+ PUT/GET reproduction (ASPLOS VI, 1994)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list workloads and presets")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="run one workload functionally")
    p_run.add_argument("app", choices=list(ORDER))
    p_run.add_argument("--cells", type=int, default=None,
                       help="override the cell count")
    p_run.add_argument("--paper-scale", action="store_true",
                       help="use the paper's problem size")
    p_run.add_argument("--trace", metavar="FILE",
                       help="write the recorded trace (a v2 column "
                            "file) to FILE")
    p_run.add_argument("--stream", metavar="FILE",
                       help="stream the trace to FILE incrementally "
                            "while the run executes (bounded memory; "
                            "tail it live with `repro top FILE "
                            "--follow`)")
    p_run.add_argument("--no-replay", action="store_true",
                       help="skip the MLSim replay summary")
    p_run.add_argument("--sanitize", action="store_true",
                       help="annotate the trace with byte-range "
                            "footprints for `repro check`")
    p_run.add_argument("--trace-capacity", type=int, default=None,
                       metavar="N",
                       help="override the trace buffer's event capacity "
                            "(the AP1000 probes had the same limit)")
    p_run.add_argument("--shards", type=int, default=None, metavar="N",
                       help="run on the sharded multiprocess engine with "
                            "N worker processes (byte-identical traces; "
                            "see docs/sharding.md)")
    p_run.add_argument("--observe", action="store_true",
                       help="attach the repro.obs machine observer "
                            "(per-link traffic, queue occupancy)")
    p_run.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                       help="save machine snapshots here; also makes "
                            "SIGINT/SIGTERM park at the next safe "
                            "point, save a final snapshot, and exit "
                            f"{EXIT_RESUMABLE} with a resume command "
                            "(docs/checkpoint.md)")
    p_run.add_argument("--checkpoint-every", type=int, default=None,
                       metavar="N",
                       help="checkpoint every N safe points per cell")
    p_run.add_argument("--resume-from", metavar="SNAPSHOT", default=None,
                       help="resume from a snapshot directory (or a "
                            "--checkpoint-dir, which picks its latest "
                            "snapshot) instead of starting fresh")
    p_run.add_argument("--json", action="store_true",
                       help="machine-readable repro-run-v1 output")
    p_run.set_defaults(func=_cmd_run)

    p_replay = sub.add_parser("replay",
                              help="replay a recorded trace through MLSim")
    p_replay.add_argument("trace", help="trace file from `run --trace`")
    p_replay.add_argument("--preset", default="ap1000+",
                          choices=sorted(PRESETS),
                          help="parameter preset (default: ap1000+)")
    p_replay.add_argument("--params", metavar="FILE",
                          help="custom Figure 6 style parameter file")
    p_replay.add_argument("--timeline", action="store_true",
                          help="print a per-PE ASCII Gantt chart")
    p_replay.add_argument("--json", action="store_true",
                          help="machine-readable repro-replay-v1 output "
                               "(includes the replay metric document)")
    p_replay.set_defaults(func=_cmd_replay)

    p_trace = sub.add_parser(
        "trace", help="trace tooling (Perfetto/Chrome timeline export)")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_trace_exp = trace_sub.add_parser(
        "export",
        help="export a trace's replay as Perfetto/Chrome JSON")
    p_trace_exp.add_argument("trace", nargs="?",
                             help="trace file from `run --trace`")
    p_trace_exp.add_argument("--micro", action="store_true",
                             help="export the built-in micro workload "
                                  "(the CI golden-fixture subject)")
    p_trace_exp.add_argument("--app", choices=list(ORDER), default=None,
                             help="record and export a workload instead")
    p_trace_exp.add_argument("--cells", type=int, default=None,
                             help="cell count for --micro/--app")
    p_trace_exp.add_argument("--format", default="perfetto",
                             choices=("perfetto", "chrome"),
                             help="output format (default: perfetto)")
    p_trace_exp.add_argument("--preset", default="ap1000+",
                             choices=sorted(PRESETS),
                             help="replay preset (default: ap1000+)")
    p_trace_exp.add_argument("--params", metavar="FILE",
                             help="custom parameter file for the replay")
    p_trace_exp.add_argument("-o", "--output", metavar="FILE",
                             help="write here instead of stdout")
    p_trace_exp.add_argument("--chunk-events", type=int, default=None,
                             metavar="N",
                             help="split the export into standalone "
                                  "documents of <= N timeline events "
                                  "each (requires -o; flow arrows stay "
                                  "linked across chunks)")
    p_trace_exp.set_defaults(func=_cmd_trace_export)

    p_top = sub.add_parser(
        "top",
        help="ASCII utilization dashboard for a trace or bench artifact")
    p_top.add_argument("trace", nargs="?",
                       help="trace file or BENCH_*.json artifact")
    p_top.add_argument("--micro", action="store_true",
                       help="show the built-in micro workload")
    p_top.add_argument("--cells", type=int, default=None,
                       help="cell count for --micro")
    p_top.add_argument("--preset", default="ap1000+",
                       choices=sorted(PRESETS),
                       help="replay preset (default: ap1000+)")
    p_top.add_argument("--follow", action="store_true",
                       help="live mode: tail an in-progress stream "
                            "trace (`repro run --stream`) or bench "
                            "journal and redraw until it completes")
    p_top.add_argument("--interval", type=float, default=1.0,
                       metavar="SEC",
                       help="--follow redraw interval (default: 1s)")
    p_top.add_argument("--frames", type=int, default=None, metavar="N",
                       help="--follow: stop after N frames instead of "
                            "following to completion")
    p_top.add_argument("--json", action="store_true",
                       help="machine-readable repro-top-v1 output")
    p_top.set_defaults(func=_cmd_top)

    p_ingest = sub.add_parser(
        "ingest",
        help="translate a foreign trace (VEF text, MPI JSON-lines) "
             "into the native format and land it in the trace cache")
    p_ingest.add_argument("source", metavar="FILE",
                          help="foreign trace file (see docs/ingest.md)")
    p_ingest.add_argument("--reader", default=None, metavar="NAME",
                          help="trace reader plugin (default: sniff "
                               "from the file; `repro list` readers: "
                               "vef, mpijson)")
    p_ingest.add_argument("--cells", type=int, default=None,
                          help="machine size to map onto (default: the "
                               "trace's rank count)")
    p_ingest.add_argument("--time-unit", type=float, default=1.0,
                          metavar="US",
                          help="microseconds per foreign time unit "
                               "(default: 1.0)")
    p_ingest.add_argument("--cache-dir", metavar="DIR", default=None,
                          help="trace cache root (default: "
                               "benchmarks/.trace_cache)")
    p_ingest.add_argument("--no-cache", action="store_true",
                          help="skip the cache; use with -o to just "
                               "convert the file")
    p_ingest.add_argument("-o", "--output", metavar="FILE",
                          help="also write the translated trace here")
    p_ingest.add_argument("--json", action="store_true",
                          help="machine-readable repro-ingest-v1 output")
    p_ingest.set_defaults(func=_cmd_ingest)

    p_params = sub.add_parser("params",
                              help="print a parameter file (Figure 6)")
    p_params.add_argument("preset", choices=sorted(PRESETS))
    p_params.set_defaults(func=_cmd_params)

    p_report = sub.add_parser("report", help="regenerate the evaluation")
    p_report.add_argument("--paper-scale", action="store_true")
    p_report.add_argument("--apps", nargs="*", default=list(ORDER),
                          choices=list(ORDER))
    p_report.add_argument("--format", default="text",
                          choices=("text", "markdown"))
    p_report.add_argument("--validate", action="store_true",
                          help="check the paper's qualitative results")
    p_report.add_argument("--jobs", type=int, default=1,
                          help="worker processes for the sweep")
    p_report.set_defaults(func=_cmd_report)

    p_check = sub.add_parser(
        "check",
        help="race detector, synchronization sanitizer, and SPMD lint")
    p_check.add_argument("apps", nargs="*", metavar="APP",
                         choices=list(WORKLOADS) + [[]],
                         help="applications to check (default: all)")
    p_check.add_argument("--all", action="store_true", dest="check_all",
                         help="check every shipped application "
                              "(the default when no apps are named)")
    p_check.add_argument("--buggy", action="store_true",
                         help="verify the checker against the seeded "
                              "bugs in examples/buggy/ (with --static: "
                              "the static analyzer's own gate)")
    p_check.add_argument("--lint-only", action="store_true",
                         help="run only the static SPMD lint")
    p_check.add_argument("--static", action="store_true",
                         help="static communication-graph analysis: "
                              "concolically execute the apps at "
                              "P = 4, 16, 64 and report scale-generic "
                              "findings (no traces recorded)")
    p_check.add_argument("--conform", action="store_true",
                         help="check recorded traces are "
                              "linearizations of the static graph and "
                              "match its predicted message counts at "
                              "P = 4, 16, 64")
    p_check.add_argument("--trace", metavar="FILE",
                         help="check one recorded trace file instead")
    p_check.add_argument("--json", action="store_true",
                         help="machine-readable repro-check-v1 output")
    p_check.add_argument("--quiet", action="store_true",
                         help="suppress per-diagnostic detail (--buggy)")
    p_check.add_argument("--paper-scale", action="store_true",
                         help="check the paper-scale configurations")
    p_check.add_argument("--cache-dir", metavar="DIR", default=None,
                         help="trace cache location (default: "
                              "benchmarks/.trace_cache)")
    p_check.add_argument("--no-cache", action="store_true",
                         help="always re-record, never touch the cache")
    p_check.set_defaults(func=_cmd_check)

    p_chaos = sub.add_parser(
        "chaos",
        help="sweep fault-injection plans over the shipped apps and "
             "demand bit-identical results (docs/faults.md)")
    p_chaos.add_argument("apps", nargs="*", metavar="APP",
                         choices=list(ORDER) + [[]],
                         help="applications to torture (default: all; "
                              "--smoke defaults to EP MatMul)")
    p_chaos.add_argument("--smoke", action="store_true",
                         help="small CI sweep: 2 apps x 2 plans")
    p_chaos.add_argument("--seed", type=int, default=1994,
                         help="base seed for the built-in plan sets")
    p_chaos.add_argument("--plan", metavar="FILE",
                         help="JSON fault plan (or list of plans) to use "
                              "instead of the built-in sets")
    p_chaos.add_argument("--cells", type=int, default=None,
                         help="override every app's cell count")
    p_chaos.add_argument("--no-check", action="store_true",
                         help="skip the repro.check pass over each "
                              "faulted trace")
    p_chaos.add_argument("--json", action="store_true",
                         help="machine-readable sweep report")
    p_chaos.add_argument("--recover", action="store_true",
                         help="kill-and-resume sweep instead: "
                              "checkpoint, die after the capture, "
                              "resume, and demand byte-identical "
                              "completion (exit "
                              f"{EXIT_DIVERGED} on digest divergence)")
    p_chaos.add_argument("--snapshot-dir", metavar="DIR", default=None,
                         help="keep --recover snapshots here instead "
                              "of temp dirs (CI artifact upload)")
    p_chaos.set_defaults(func=_cmd_chaos)

    p_bench = sub.add_parser(
        "bench", help="parallel benchmark sweeps with JSON artifacts")
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)

    p_bench_run = bench_sub.add_parser(
        "run", help="run the (application x preset) grid")
    p_bench_run.add_argument("--apps", nargs="*", metavar="APP",
                             choices=list(ORDER),
                             help="subset of the benchmark grid")
    p_bench_run.add_argument("--presets", nargs="*", metavar="PRESET",
                             choices=sorted(PRESETS),
                             help="parameter presets to replay under")
    p_bench_run.add_argument("--micro", action="store_true",
                             help="run the perf-lane micro grid "
                                  "(latency microbenchmarks + small CG)")
    p_bench_run.add_argument("--smoke", action="store_true",
                             help="small CI grid: EP + MatMul, 2 presets")
    p_bench_run.add_argument("--jobs", type=int, default=1,
                             help="worker processes (default: 1, serial)")
    p_bench_run.add_argument("--output", metavar="FILE",
                             help="artifact path (default: "
                                  "BENCH_<timestamp>.json)")
    p_bench_run.add_argument("--output-dir", metavar="DIR", default=".",
                             help="directory for the default artifact name")
    p_bench_run.add_argument("--cache-dir", metavar="DIR", default=None,
                             help="trace cache location (default: "
                                  "benchmarks/.trace_cache)")
    p_bench_run.add_argument("--no-cache", action="store_true",
                             help="ignore and do not write the trace cache")
    p_bench_run.add_argument("--check", action="store_true",
                             help="run the race/synchronization checker "
                                  "over every recorded trace")
    p_bench_run.add_argument("--journal", metavar="FILE", default=None,
                             help="campaign journal path (default: "
                                  "<cache-dir>/journal-<grid>.json; "
                                  "every completed row is recorded "
                                  "atomically)")
    p_bench_run.add_argument("--resume", action="store_true",
                             help="resume a killed campaign from its "
                                  "journal, re-simulating only the "
                                  "missing rows (byte-identical "
                                  "results section)")
    p_bench_run.set_defaults(func=_cmd_bench_run)

    p_bench_perf = bench_sub.add_parser(
        "perf",
        help="measure scheduler/engine speedups and gate on regressions")
    p_bench_perf.add_argument("--output", metavar="FILE",
                              default="perf_report.json",
                              help="perf report path "
                                   "(default perf_report.json)")
    p_bench_perf.add_argument("--baseline", metavar="FILE",
                              default="benchmarks/perf_baseline.json",
                              help="checked-in speedup baseline to gate "
                                   "against")
    p_bench_perf.add_argument("--no-baseline", action="store_true",
                              help="skip the baseline comparison (hard "
                                   "floors still apply)")
    p_bench_perf.add_argument("--write-baseline", action="store_true",
                              help="record this run's speedups as the "
                                   "new baseline")
    p_bench_perf.add_argument("--tolerance", type=float, default=25.0,
                              metavar="PCT",
                              help="allowed %% drop below the baseline "
                                   "speedups (default 25)")
    p_bench_perf.add_argument("--cache-dir", metavar="DIR", default=None,
                              help="trace cache directory (default "
                                   "benchmarks/.trace_cache)")
    p_bench_perf.set_defaults(func=_cmd_bench_perf)

    p_bench_weak = bench_sub.add_parser(
        "weak",
        help="weak-scaling study: Figure 8 extended to 256-4096 cells "
             "on the sharded engine")
    p_bench_weak.add_argument("--points", nargs="*", type=int,
                              metavar="CELLS", default=None,
                              help="machine sizes (default 256 1024 4096; "
                                   "sizes past 1024 use extended=True)")
    p_bench_weak.add_argument("--shards", type=int, default=None,
                              metavar="N",
                              help="worker processes per sharded run "
                                   "(default 4)")
    p_bench_weak.add_argument("--apps", nargs="*", metavar="APP",
                              choices=["EP", "RingShift"], default=None,
                              help="restrict the study's apps")
    p_bench_weak.add_argument("--output", metavar="FILE",
                              default="BENCH_weak_scaling.json",
                              help="artifact path (default "
                                   "BENCH_weak_scaling.json)")
    p_bench_weak.set_defaults(func=_cmd_bench_weak)

    p_bench_cmp = bench_sub.add_parser(
        "compare", help="compare an artifact against a baseline")
    p_bench_cmp.add_argument("current", help="BENCH_*.json to check")
    p_bench_cmp.add_argument("--baseline", required=True, metavar="FILE",
                             help="baseline BENCH_*.json")
    p_bench_cmp.add_argument("--tolerance", type=float, default=5.0,
                             metavar="PCT",
                             help="allowed simulated-metric drift "
                                  "(default: 5%%)")
    p_bench_cmp.add_argument("--wall-tolerance", type=float, default=None,
                             metavar="PCT",
                             help="also gate wall-clock stage times "
                                  "(off by default: noisy across hosts)")
    p_bench_cmp.set_defaults(func=_cmd_bench_compare)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        # Simulator-domain failures (trace buffer overflow, deadlock,
        # communication timeout, bad configuration...) are reported as
        # one clean message, not a traceback.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
