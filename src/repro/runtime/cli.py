"""Command-line interface of the exploration runtime (``python -m repro``).

Four subcommands drive the :class:`~repro.runtime.ExplorationRuntime`:

``explore``
    Design-space exploration of the pre-processing stages.  The default
    method enumerates the Table 2 grid through the runtime (optionally capped
    with ``--max-designs``) and reports the best feasible design; ``--method
    algorithm1`` runs the full XBioSiP methodology instead.
``evaluate``
    Evaluate one design point — a named Fig. 12 configuration (``--config
    B9``) or an explicit per-stage assignment (``--lsbs lpf=10,hpf=12``).
``resilience``
    Per-stage error-resilience sweeps (Figs. 2 and 8), batched through the
    runtime so the sweep points spread over the worker pool.
``serve``
    Start the job-orchestration service (:mod:`repro.service`): a JSON/HTTP
    API accepting the same three workloads (plus live ``stream`` sessions)
    as concurrent, cancellable, coalescing jobs (``--host``/``--port``/
    ``--concurrency``; the runtime options configure the shared caches and
    pool, and ``--records`` / ``--duration`` become the default workload for
    requests that omit them; ``--event-backlog`` bounds per-job event
    history, ``--job-ttl`` garbage-collects finished jobs).
``stream``
    Run a live streaming session locally (:mod:`repro.streaming`): the named
    record is replayed chunk by chunk through the online Pan-Tompkins
    pipeline, printing each beat as it is detected together with
    quality-so-far and cumulative energy.  The final beat list is
    bit-identical to the offline pipeline on the same record
    (``--verify`` asserts it).

All subcommands except ``stream`` share the runtime options: ``--records``,
``--duration``, ``--executor``, ``--workers``, ``--cache`` (a SQLite file
persisted across invocations; any path), ``--cache-max-entries`` and
``--cache-max-bytes`` (entry- and byte-budget eviction for the result
cache), ``--signal-store`` (a SQLite file for the stage graph's intermediate
signals — it may be the ``--cache`` file — with its own
``--signal-store-max-entries``/``--signal-store-max-bytes`` budgets) and
``--verbose`` for per-design progress lines.  A store path SQLite cannot
open ends the command with ``error: ...`` and exit status 1.  Every run ends
with the runtime's execution and cache statistics — the per-stage hit rates
of the stage-graph signal store broken down by reuse class (classic
same-record hits, cross-record hits, warm hits from persistent or
stream-published nodes — the stage graph is input-addressed, so reuse spans
designs, records and runs),
the compiled-LUT registry footprint, and the measured speedup over the
paper's ~300 s per-evaluation serial cost model.

``explore`` and ``evaluate`` also take ``--json``, which replaces the human
report with a machine-readable document built on the canonical
``DesignEvaluation`` serializer — the exact shape the service API returns.

``explore``, ``evaluate`` and ``stream`` additionally take the observability
options (:mod:`repro.obs`): ``--metrics-out PATH`` dumps the process metrics
registry when the command finishes (Prometheus text for ``.prom``/``.txt``
paths, canonical JSON otherwise), ``--trace-out PATH`` enables span tracing
and writes the spans on exit (live JSONL for ``.jsonl`` paths, a Chrome
``chrome://tracing`` / Perfetto ``trace_event`` JSON file otherwise), and
``--profile`` prints the five slowest spans plus a metrics digest to stderr.
"""

from __future__ import annotations

import argparse
import json
import sqlite3
import sys
from typing import List, Optional, Sequence

from ..core.configurations import DesignPoint, paper_configuration
from ..core.design_space import exhaustive_search, preprocessing_design_space
from ..core.exploration_time import measure_exploration
from ..core.methodology import XBioSiP
from ..core.quality import QualityConstraint
from ..core.resilience import analyze_stage_resilience
from ..signals.records import load_record
from .cache import open_cache
from .engine import EXECUTOR_KINDS, ExplorationRuntime
from .signal_store import open_signal_store
from .telemetry import ProgressEvent

__all__ = ["build_parser", "main"]


# ------------------------------------------------------------------ helpers
def _add_runtime_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("runtime")
    group.add_argument(
        "--records", default="16265",
        help="comma-separated NSRDB-style record names (default: 16265)")
    group.add_argument(
        "--duration", type=float, default=10.0,
        help="record length in seconds (default: 10)")
    group.add_argument(
        "--executor", choices=EXECUTOR_KINDS, default="thread",
        help="execution backend (default: thread)")
    group.add_argument(
        "--workers", type=int, default=None,
        help="worker pool size (default: 1 for serial, else all CPUs)")
    group.add_argument(
        "--cache", default=None, metavar="PATH",
        help="persistent result cache: a SQLite file, created if missing "
             "(default: in-memory)")
    group.add_argument(
        "--cache-max-entries", type=int, default=None, metavar="N",
        help="size cap of the result cache; oldest entries are evicted "
             "(default: unbounded)")
    group.add_argument(
        "--cache-max-bytes", type=int, default=None, metavar="BYTES",
        help="byte budget of a persistent result cache; oldest entries are "
             "evicted once the payload bytes exceed it (default: unbounded)")
    group.add_argument(
        "--signal-store", default=None, metavar="PATH",
        help="persistent store for memoized intermediate stage signals: "
             "a SQLite file, created if missing; may be the --cache file "
             "(default: bounded in-memory store)")
    group.add_argument(
        "--signal-store-max-entries", type=int, default=None, metavar="N",
        help="size cap of the persistent signal store; oldest nodes are "
             "evicted (default: unbounded)")
    group.add_argument(
        "--signal-store-max-bytes", type=int, default=None, metavar="BYTES",
        help="byte budget of the persistent signal store; oldest nodes are "
             "evicted once the payload bytes exceed it (default: unbounded)")
    group.add_argument(
        "--verbose", action="store_true",
        help="print one progress line per resolved design")


def _add_obs_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the metrics registry on exit: Prometheus text for "
             ".prom/.txt paths, canonical JSON otherwise")
    group.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="enable span tracing and write the spans on exit: live JSONL "
             "for .jsonl paths, Chrome trace_event JSON otherwise")
    group.add_argument(
        "--profile", action="store_true",
        help="print the five slowest spans and a metrics digest to stderr "
             "when the command finishes (implies tracing)")


def _configure_observability(args: argparse.Namespace) -> None:
    """Enable tracing before the handler runs when the obs flags ask for it."""
    trace_out = getattr(args, "trace_out", None)
    profile = getattr(args, "profile", False)
    if trace_out is None and not profile:
        return
    from ..obs import configure_tracing

    jsonl_path = None
    if trace_out is not None and trace_out.endswith(".jsonl"):
        jsonl_path = trace_out
    configure_tracing(enabled=True, capacity=65536, jsonl_path=jsonl_path)


def _finalize_observability(args: argparse.Namespace) -> None:
    """Write --metrics-out / --trace-out and print the --profile report."""
    metrics_out = getattr(args, "metrics_out", None)
    trace_out = getattr(args, "trace_out", None)
    profile = getattr(args, "profile", False)
    if metrics_out is None and trace_out is None and not profile:
        return
    from ..obs import get_registry, get_tracer
    from ..obs import metrics as obs_metrics

    registry = get_registry()
    tracer = get_tracer()
    if metrics_out is not None:
        if metrics_out.endswith((".prom", ".txt")):
            text = registry.render_prometheus()
        else:
            text = registry.render_json()
        with open(metrics_out, "w", encoding="utf-8") as sink:
            sink.write(text)
    if trace_out is not None:
        if trace_out.endswith(".jsonl"):
            # The live JSONL sink already wrote every span; detach it so the
            # file is flushed and closed.
            tracer.configure(jsonl_path=None)
        else:
            tracer.write_chrome_trace(trace_out)
    if profile:
        print("\nprofile: slowest spans", file=sys.stderr)
        for entry in tracer.top_spans(5):
            print(
                f"  {entry['duration_s'] * 1e3:10.3f} ms  {entry['name']}",
                file=sys.stderr,
            )
        print("profile: metrics digest", file=sys.stderr)
        for line in obs_metrics.render_digest(registry):
            print(f"  {line}", file=sys.stderr)


def _record_names(args: argparse.Namespace) -> List[str]:
    names = [name.strip() for name in args.records.split(",") if name.strip()]
    if not names:
        raise SystemExit("error: --records needs at least one record name")
    return names


def _validate_runtime_options(args: argparse.Namespace) -> None:
    if args.workers is not None and args.workers < 1:
        raise SystemExit(f"error: --workers must be >= 1, got {args.workers}")
    for flag in (
        "cache_max_entries",
        "cache_max_bytes",
        "signal_store_max_entries",
        "signal_store_max_bytes",
    ):
        value = getattr(args, flag)
        if value is not None and value < 1:
            name = "--" + flag.replace("_", "-")
            raise SystemExit(f"error: {name} must be >= 1, got {value}")
    if args.cache_max_bytes is not None and args.cache is None:
        raise SystemExit("error: --cache-max-bytes needs a persistent --cache")
    if args.signal_store_max_bytes is not None and args.signal_store is None:
        raise SystemExit(
            "error: --signal-store-max-bytes needs a persistent --signal-store"
        )


def _open_store(opener, flag: str, path: Optional[str], max_entries, max_bytes):
    """``opener(path, ...)``, or a clean exit when SQLite cannot open ``path``."""
    try:
        return opener(path, max_entries=max_entries, max_bytes=max_bytes)
    except (sqlite3.Error, OSError) as error:
        raise SystemExit(f"error: {flag} {path}: cannot open as SQLite: {error}")


def _open_backends(args: argparse.Namespace):
    """The (cache, signal_store) configured by the CLI flags."""
    signal_store = None
    if args.signal_store is not None:
        # Persistent stores default to unbounded (like --cache); pass
        # --signal-store-max-entries / --signal-store-max-bytes to cap them.
        signal_store = _open_store(
            open_signal_store, "--signal-store", args.signal_store,
            args.signal_store_max_entries, args.signal_store_max_bytes,
        )
    cache = _open_store(
        open_cache, "--cache", args.cache,
        args.cache_max_entries, args.cache_max_bytes,
    )
    return cache, signal_store


def _make_runtime(args: argparse.Namespace) -> ExplorationRuntime:
    names = _record_names(args)
    _validate_runtime_options(args)
    records = [load_record(name, duration_s=args.duration) for name in names]
    progress = None
    if args.verbose:
        def progress(event: ProgressEvent) -> None:
            print(event.describe())
    cache, signal_store = _open_backends(args)
    return ExplorationRuntime(
        records,
        executor=args.executor,
        max_workers=args.workers,
        cache=cache,
        progress=progress,
        signal_store=signal_store,
    )


def _constraint(args: argparse.Namespace) -> QualityConstraint:
    return QualityConstraint(args.metric, args.threshold)


def _parse_lsbs(text: str) -> DesignPoint:
    lsbs = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise SystemExit(
                f"error: bad --lsbs entry {item!r} (expected stage=count)"
            )
        stage, _, value = item.partition("=")
        try:
            lsbs[stage.strip()] = int(value)
        except ValueError:
            raise SystemExit(f"error: bad LSB count in --lsbs entry {item!r}")
    if not lsbs:
        raise SystemExit("error: --lsbs needs at least one stage=count entry")
    return DesignPoint.from_lsbs(lsbs, name="cli")


def _print_statistics(runtime: ExplorationRuntime, strategy: str) -> None:
    print()
    print("runtime statistics")
    print("------------------")
    print(runtime.statistics().report())
    telemetry = runtime.telemetry
    measured = measure_exploration(
        strategy,
        telemetry.evaluations,
        telemetry.busy_s,
        cache_hits=telemetry.cache_hits,
    )
    print(measured.summary())


# --------------------------------------------------------------- subcommands
def _cmd_explore(args: argparse.Namespace) -> int:
    if args.json and args.method == "algorithm1":
        raise SystemExit("error: --json supports the grid method only")
    if args.max_designs is not None and args.max_designs < 0:
        raise SystemExit(
            f"error: --max-designs must be >= 0, got {args.max_designs}"
        )
    runtime = _make_runtime(args)
    constraint = _constraint(args)
    with runtime:
        if args.method == "algorithm1":
            result = XBioSiP(
                runtime.records,
                preprocessing_constraint=constraint,
                runtime=runtime,
            ).run()
            print(result.report())
        elif args.json:
            # The canonical machine-readable shape: exactly what the service
            # API returns for an "explore" job, plus the runtime telemetry.
            from ..service.jobs import execute_explore

            document = execute_explore(
                runtime,
                constraint,
                max_designs=args.max_designs,
                lsb_step=args.lsb_step,
            )
            document["statistics"] = runtime.telemetry.snapshot()
            print(json.dumps(document, indent=2, sort_keys=True))
            return 0
        else:
            evaluations = exhaustive_search(
                preprocessing_design_space(lsb_step=args.lsb_step),
                runtime,
                args.max_designs,
            )
            feasible = [e for e in evaluations if constraint.satisfied_by(e)]
            print(
                f"grid exploration: {len(evaluations)} designs evaluated, "
                f"{len(feasible)} satisfy {constraint}"
            )
            if feasible:
                best = max(feasible, key=lambda e: e.energy_reduction)
                print(f"best feasible design: {best.summary()}")
            else:
                print("no feasible design in the explored grid")
        _print_statistics(runtime, args.method)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    if (args.config is None) == (args.lsbs is None):
        raise SystemExit("error: evaluate needs exactly one of --config / --lsbs")
    if args.config is not None:
        try:
            design = paper_configuration(args.config)
        except KeyError as error:
            raise SystemExit(f"error: {error.args[0]}")
    else:
        design = _parse_lsbs(args.lsbs)
    runtime = _make_runtime(args)
    with runtime:
        if args.json:
            from ..service.jobs import execute_evaluate

            document = execute_evaluate(runtime, [design])
            document["statistics"] = runtime.telemetry.snapshot()
            print(json.dumps(document, indent=2, sort_keys=True))
            return 0
        evaluation = runtime.evaluate(design)
        print(evaluation.summary())
        for name, accuracy in sorted(evaluation.per_record_accuracy.items()):
            print(f"  record {name}: peak accuracy {accuracy * 100:.1f}%")
        _print_statistics(runtime, "evaluate")
    return 0


def _cmd_resilience(args: argparse.Namespace) -> int:
    stages = [name.strip() for name in args.stages.split(",") if name.strip()]
    if not stages:
        raise SystemExit("error: --stages needs at least one stage name")
    runtime = _make_runtime(args)
    with runtime:
        for stage in stages:
            profile = analyze_stage_resilience(stage, runtime)
            threshold = profile.error_resilience_threshold()
            print(
                f"stage {profile.stage} (adder {profile.adder}, "
                f"multiplier {profile.multiplier})"
            )
            print(
                f"  error-resilience threshold: {threshold} LSBs, max energy "
                f"reduction x{profile.max_energy_reduction(0.0):.1f}"
            )
            for row in profile.as_table():
                print(
                    f"  lsbs={int(row['lsbs']):2d}  "
                    f"energy x{row['energy_reduction']:.2f}  "
                    f"psnr {row['psnr_db']:6.1f} dB  "
                    f"accuracy {row['peak_accuracy'] * 100:5.1f}%"
                )
        _print_statistics(runtime, "resilience")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from ..service.scheduler import JobScheduler, RuntimeProvider
    from ..service.server import DEFAULT_PORT, ServiceServer

    _validate_runtime_options(args)
    if args.concurrency < 1:
        raise SystemExit(f"error: --concurrency must be >= 1, got {args.concurrency}")
    port = DEFAULT_PORT if args.port is None else args.port
    if port < 0 or port > 65535:
        raise SystemExit(f"error: --port must be in [0, 65535], got {port}")
    if args.event_backlog < 1:
        raise SystemExit(
            f"error: --event-backlog must be >= 1, got {args.event_backlog}"
        )
    if args.job_ttl is not None and args.job_ttl <= 0:
        raise SystemExit(f"error: --job-ttl must be positive, got {args.job_ttl}")
    names = _record_names(args)
    # Every flag is checked above, so a rejected command creates no store file.
    cache, signal_store = _open_backends(args)
    provider = RuntimeProvider(
        executor=args.executor,
        max_workers=args.workers,
        cache=cache,
        signal_store=signal_store,
        default_records=tuple(names),
        default_duration_s=args.duration,
    )
    scheduler = JobScheduler(
        provider,
        max_concurrency=args.concurrency,
        event_backlog=args.event_backlog,
        job_ttl_s=args.job_ttl,
    )
    server = ServiceServer(scheduler, host=args.host, port=port)

    async def _serve() -> None:
        host, port = await server.start()
        print(f"repro service listening on http://{host}:{port}", flush=True)
        print(
            f"default workload: records {','.join(names)} "
            f"({args.duration:g} s), executor {args.executor}, "
            f"{args.concurrency} concurrent jobs",
            flush=True,
        )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("repro service stopped")
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from ..core.configurations import DesignPoint as _DesignPoint
    from ..signals.records import load_record
    from ..streaming import ReplaySource, StreamSession

    if args.config is not None and args.lsbs is not None:
        raise SystemExit("error: stream takes at most one of --config / --lsbs")
    if args.config is not None:
        try:
            design = paper_configuration(args.config)
        except KeyError as error:
            raise SystemExit(f"error: {error.args[0]}")
    elif args.lsbs is not None:
        design = _parse_lsbs(args.lsbs)
    else:
        design = _DesignPoint.accurate()
    if args.chunk_samples < 1:
        raise SystemExit(
            f"error: --chunk-samples must be >= 1, got {args.chunk_samples}"
        )
    if args.realtime_factor < 0:
        raise SystemExit(
            f"error: --realtime-factor must be >= 0, got {args.realtime_factor}"
        )

    record = load_record(args.record, duration_s=args.duration)
    source = ReplaySource(
        record,
        chunk_samples=args.chunk_samples,
        realtime_factor=args.realtime_factor,
    )
    session = StreamSession(
        design=design,
        sample_rate_hz=record.sample_rate_hz,
        true_peaks=record.r_peak_indices,
    )
    if not args.json:
        print(
            f"streaming record {args.record} ({args.duration:g} s) through "
            f"{design.summary()}"
        )
        print(
            f"  {source.chunk_count} chunks of {args.chunk_samples} samples"
            + (
                f", paced at {args.realtime_factor:g}x real time"
                if args.realtime_factor > 0
                else " (unpaced)"
            )
        )
    for chunk in source:
        report = session.push(chunk)
        if args.json:
            continue
        for beat in report.beats_added:
            quality = report.quality or {}
            f1 = quality.get("f1_score")
            print(
                f"  t={beat / record.sample_rate_hz:7.2f}s  beat #{report.beat_count:3d}"
                f"  hr {report.heart_rate_bpm:5.1f} bpm"
                + (f"  f1-so-far {f1:.3f}" if f1 is not None else "")
            )
        for beat in report.beats_removed:
            print(f"  t={beat / record.sample_rate_hz:7.2f}s  beat revoked")
    result = session.finalize()

    if args.verify:
        from ..dsp.pan_tompkins import PanTompkinsPipeline

        offline = PanTompkinsPipeline(backends=design.backends()).process(
            record.samples
        )
        if list(offline.detection.peak_indices) != list(
            result.detection.peak_indices
        ):
            raise SystemExit(
                "error: streamed beat list differs from the offline pipeline"
            )
        if not args.json:
            print("verified: streamed beats == offline pipeline beats")

    last = session.reports[-1] if session.reports else None
    if args.json:
        document = {
            "record": args.record,
            "design": {"name": design.name, "lsbs": design.lsbs_map()},
            "samples": record.samples.size,
            "chunks": session.chunk_count,
            "beats": [int(b) for b in result.detection.peak_indices],
            "heart_rate_bpm": result.heart_rate_bpm(),
            "quality": last.quality if last else None,
            "energy": last.energy if last else {},
        }
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    print(
        f"stream finished: {len(result.detection.peak_indices)} beats, "
        f"mean heart rate {result.heart_rate_bpm():.1f} bpm"
    )
    if last is not None:
        energy = last.energy
        print(
            f"  energy: {energy['cumulative_fj'] / 1e6:.2f} nJ "
            f"(x{energy['reduction_factor']:.2f} vs accurate)"
        )
        if last.quality:
            print(
                f"  quality vs ground truth: sensitivity "
                f"{last.quality['sensitivity']:.3f}, f1 "
                f"{last.quality['f1_score']:.3f}"
            )
    return 0


# -------------------------------------------------------------------- parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="XBioSiP reproduction: parallel, cached design-space "
                    "exploration of approximate bio-signal processors.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    explore = subparsers.add_parser(
        "explore", help="explore the pre-processing design space")
    explore.add_argument(
        "--method", choices=("grid", "algorithm1"), default="grid",
        help="grid enumeration (default) or the full XBioSiP methodology")
    explore.add_argument(
        "--max-designs", type=int, default=None,
        help="cap on the number of grid designs to evaluate")
    explore.add_argument(
        "--lsb-step", type=int, default=2,
        help="LSB granularity of the grid (default: 2, the Table 2 setting)")
    explore.add_argument(
        "--metric", choices=("psnr", "ssim", "peak_accuracy"), default="psnr",
        help="constraint metric (default: psnr)")
    explore.add_argument(
        "--threshold", type=float, default=15.0,
        help="constraint threshold (default: 15.0, the paper's PSNR bound)")
    explore.add_argument(
        "--json", action="store_true",
        help="emit the canonical machine-readable JSON document (the same "
             "DesignEvaluation shape the service API returns)")
    _add_runtime_options(explore)
    _add_obs_options(explore)
    explore.set_defaults(handler=_cmd_explore)

    evaluate = subparsers.add_parser(
        "evaluate", help="evaluate one design point")
    evaluate.add_argument(
        "--config", default=None,
        help="named Fig. 12 configuration (A2, B1..B14)")
    evaluate.add_argument(
        "--lsbs", default=None,
        help="explicit design, e.g. lpf=10,hpf=12,mwi=16")
    evaluate.add_argument(
        "--json", action="store_true",
        help="emit the canonical machine-readable JSON document (the same "
             "DesignEvaluation shape the service API returns)")
    _add_runtime_options(evaluate)
    _add_obs_options(evaluate)
    evaluate.set_defaults(handler=_cmd_evaluate)

    resilience = subparsers.add_parser(
        "resilience", help="per-stage error-resilience sweeps")
    resilience.add_argument(
        "--stages", default="lpf,hpf,der,sqr,mwi",
        help="comma-separated stage names (default: all five)")
    _add_runtime_options(resilience)
    resilience.set_defaults(handler=_cmd_resilience)

    serve = subparsers.add_parser(
        "serve",
        help="start the HTTP job-orchestration service over the runtime")
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default: 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=None,
        help="TCP port; 0 picks a free ephemeral port (default: 8377)")
    serve.add_argument(
        "--concurrency", type=int, default=2,
        help="number of jobs executed concurrently (default: 2); each job "
             "additionally parallelises over the runtime's worker pool")
    serve.add_argument(
        "--event-backlog", type=int, default=1024, metavar="N",
        help="per-job event history bound; older events are dropped from "
             "the ring buffer (default: 1024)")
    serve.add_argument(
        "--job-ttl", type=float, default=3600.0, metavar="SECONDS",
        help="age after which finished jobs are garbage-collected from the "
             "job table (default: 3600)")
    _add_runtime_options(serve)
    serve.set_defaults(handler=_cmd_serve)

    stream = subparsers.add_parser(
        "stream",
        help="run a live chunked Pan-Tompkins session locally")
    stream.add_argument(
        "--record", default="16265",
        help="record name to synthesize and replay (default: 16265)")
    stream.add_argument(
        "--duration", type=float, default=10.0,
        help="record length in seconds (default: 10)")
    stream.add_argument(
        "--config", default=None,
        help="named Fig. 12 configuration (A2, B1..B14; default: accurate)")
    stream.add_argument(
        "--lsbs", default=None,
        help="explicit design, e.g. lpf=10,hpf=12,mwi=16")
    stream.add_argument(
        "--chunk-samples", type=int, default=50,
        help="samples per chunk (default: 50, i.e. 250 ms at 200 Hz)")
    stream.add_argument(
        "--realtime-factor", type=float, default=0.0,
        help="replay pacing: 1.0 = real time, 2.0 = twice as fast, "
             "0 = unpaced (default: 0)")
    stream.add_argument(
        "--verify", action="store_true",
        help="also run the offline pipeline and assert the streamed beat "
             "list is bit-identical")
    stream.add_argument(
        "--json", action="store_true",
        help="emit a machine-readable session summary instead of the live log")
    _add_obs_options(stream)
    stream.set_defaults(handler=_cmd_stream)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro`` and the ``repro`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_observability(args)
    try:
        return args.handler(args)
    finally:
        _finalize_observability(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
