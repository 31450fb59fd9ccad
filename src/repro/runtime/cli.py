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
    runtime.
``serve``
    Start the job-orchestration service (:mod:`repro.service`): a JSON/HTTP
    API accepting the same three workloads (plus live ``stream`` sessions)
    as concurrent, cancellable, coalescing jobs (``--host``/``--port``/
    ``--concurrency``; the runtime options configure the shared caches,
    and ``--records`` / ``--duration`` become the default workload for
    requests that omit them; ``--event-backlog`` bounds per-job event
    history, ``--job-ttl`` garbage-collects finished jobs).
``stream``
    Run a live streaming session locally (:mod:`repro.streaming`): the named
    record is replayed chunk by chunk through the online Pan-Tompkins
    pipeline, printing each beat as it is detected together with
    quality-so-far and cumulative energy.  The final beat list is
    bit-identical to the offline pipeline on the same record
    (``--verify`` asserts it).

The four workload commands (``explore`` on the grid, ``evaluate``,
``resilience`` and ``stream``) build the payload ``POST /jobs`` takes,
validate it with the service's :class:`~repro.service.jobs.JobRequest` and
run it with the same ``execute`` helpers a job runs, so the CLI refuses
exactly what the API refuses: a rejected request ends the command with
``error: <the service's message>`` and exit status 1.

All subcommands except ``stream`` share the runtime options: ``--records``,
``--duration``, ``--cache`` (a SQLite file persisted across invocations; any
path), ``--cache-max-entries`` and ``--cache-max-bytes`` (entry- and
byte-budget eviction for the result cache), ``--signal-store`` (a SQLite
file for the stage graph's intermediate signals — it may be the ``--cache``
file — with its own ``--signal-store-max-entries``/
``--signal-store-max-bytes`` budgets) and ``--verbose`` for per-design
progress lines.  A store path SQLite cannot open ends the command with
``error: ...`` and exit status 1, and leaves no store file the command
created.  Every run ends with the runtime's execution and cache statistics
— the per-stage hit rates of the stage-graph signal store broken down by
reuse class (classic same-record hits, cross-record hits, warm hits from
nodes a persistent store already held — the stage graph is input-addressed,
so reuse spans designs, records and runs), the compiled-LUT registry
footprint, and the measured speedup over the paper's ~300 s per-evaluation
serial cost model.

``explore`` and ``evaluate`` also take ``--json``, which replaces the human
report with a machine-readable document built on the canonical
``DesignEvaluation`` serializer — the exact shape the service API returns
(plus the runtime statistics); ``stream --json`` prints the service's
``stream`` result.

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
import os
import sqlite3
import sys
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set

from ..core.configurations import DesignPoint
from ..core.methodology import XBioSiP
from ..core.quality import QualityConstraint
from ..core.store import SQLiteStore
from ..signals.records import load_record
from .cache import deserialize_evaluation, open_cache
from .engine import ExplorationRuntime
from .signal_store import open_signal_store
from .telemetry import ProgressEvent

if TYPE_CHECKING:  # the service loads only when a command runs
    from ..service.jobs import JobRequest

__all__ = ["build_parser", "main"]


# ------------------------------------------------------------------ helpers
def _add_runtime_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("runtime")
    group.add_argument(
        "--records", default="16265",
        help="comma-separated NSRDB-style record names (default: 16265)")
    group.add_argument(
        "--duration", type=float, default=10.0,
        help="record length in seconds, at most 3600 (default: 10)")
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
    return [name.strip() for name in args.records.split(",") if name.strip()]


def _job_request(payload: Dict[str, object]) -> "JobRequest":
    """``payload`` validated by the service's request model.

    The one validator of the workload commands: a
    :exc:`~repro.service.jobs.BadRequest` reaches :func:`main`, which ends
    the command with ``error: <message>``.
    """
    from ..service.jobs import JobRequest

    return JobRequest.from_payload(payload)


def _workload(args: argparse.Namespace) -> Dict[str, object]:
    """The payload fields of the runtime options' record workload."""
    return {"records": _record_names(args), "duration_s": args.duration}


def _design(args: argparse.Namespace) -> Dict[str, object]:
    """The payload design of ``--config`` / ``--lsbs``; the service refuses
    one that names both, and an evaluation that names neither."""
    design: Dict[str, object] = {}
    if args.lsbs is not None:
        design.update(name="cli", lsbs=_parse_lsbs(args.lsbs))
    if args.config is not None:
        design["config"] = args.config
    return design


def _validate_runtime_options(args: argparse.Namespace) -> None:
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


def _discard_stores(created: Set[str], *stores) -> None:
    """Close ``stores`` and delete the store files in ``created``.

    A refused command leaves no store file behind: SQLite removes its -wal
    and -shm files on close, and a file that existed before the command
    keeps its rows.
    """
    for store in stores:
        if isinstance(store, SQLiteStore):
            store.close()
    for path in created:
        if os.path.exists(path):
            os.remove(path)


def _open_backends(args: argparse.Namespace):
    """The (cache, signal_store) configured by the CLI flags, and the set of
    store files opening them creates."""
    created = {
        path
        for path in (args.cache, args.signal_store)
        if path is not None and not os.path.exists(path)
    }
    signal_store = None
    try:
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
    except SystemExit:  # one store cannot be opened
        _discard_stores(created, signal_store)
        raise
    return cache, signal_store, created


def _make_runtime(
    args: argparse.Namespace, request: "JobRequest"
) -> ExplorationRuntime:
    _validate_runtime_options(args)
    records = [
        load_record(name, duration_s=request.duration_s) for name in request.records
    ]
    progress = None
    if args.verbose:
        def progress(event: ProgressEvent) -> None:
            print(event.describe())
    cache, signal_store, created = _open_backends(args)
    try:
        return ExplorationRuntime(
            records, cache=cache, progress=progress, signal_store=signal_store
        )
    except ValueError as error:  # a record too short to score
        _discard_stores(created, cache, signal_store)
        raise SystemExit(f"error: {error}") from None


def _parse_lsbs(text: str) -> Dict[str, str]:
    """``stage=count,...`` as the payload's ``lsbs`` mapping (counts unparsed)."""
    lsbs = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise SystemExit(
                f"error: bad --lsbs entry {item!r} (expected stage=count)"
            )
        stage, _, count = item.partition("=")
        lsbs[stage.strip()] = count.strip()
    return lsbs


def _print_document(document: Dict[str, object], runtime: ExplorationRuntime) -> None:
    """``--json``: the service's result document plus the runtime telemetry."""
    document["statistics"] = runtime.telemetry.snapshot()
    print(json.dumps(document, indent=2, sort_keys=True))


def _print_statistics(runtime: ExplorationRuntime) -> None:
    print()
    print("runtime statistics")
    print("------------------")
    print(runtime.statistics().report())


# --------------------------------------------------------------- subcommands
def _cmd_explore(args: argparse.Namespace) -> int:
    if args.json and args.method == "algorithm1":
        raise SystemExit("error: --json supports the grid method only")
    request = _job_request({
        "kind": "explore", **_workload(args), "metric": args.metric,
        "threshold": args.threshold, "max_designs": args.max_designs,
        "lsb_step": args.lsb_step,
    })
    constraint = QualityConstraint(request.metric, request.threshold)
    runtime = _make_runtime(args, request)
    if args.method == "algorithm1":
        result = XBioSiP(
            runtime.records,
            preprocessing_constraint=constraint,
            runtime=runtime,
        ).run()
        print(result.report())
    else:
        document = request.execute(runtime)
        if args.json:
            _print_document(document, runtime)
            return 0
        print(
            f"grid exploration: {document['designs_evaluated']} designs "
            f"evaluated, {document['feasible']} satisfy {constraint}"
        )
        if document["best"] is not None:
            best = deserialize_evaluation(document["best"])
            print(f"best feasible design: {best.summary()}")
        else:
            print("no feasible design in the explored grid")
    _print_statistics(runtime)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    request = _job_request(
        {"kind": "evaluate", **_workload(args), "designs": [_design(args)]}
    )
    runtime = _make_runtime(args, request)
    document = request.execute(runtime)
    if args.json:
        _print_document(document, runtime)
        return 0
    evaluation = deserialize_evaluation(document["evaluations"][0])
    print(evaluation.summary())
    for name, accuracy in sorted(evaluation.per_record_accuracy.items()):
        print(f"  record {name}: peak accuracy {accuracy * 100:.1f}%")
    _print_statistics(runtime)
    return 0


def _cmd_resilience(args: argparse.Namespace) -> int:
    stages = [name.strip() for name in args.stages.split(",") if name.strip()]
    request = _job_request(
        {"kind": "resilience", **_workload(args), "stages": stages}
    )
    runtime = _make_runtime(args, request)
    document = request.execute(runtime)
    for profile in document["stages"].values():
        print(
            f"stage {profile['stage']} (adder {profile['adder']}, "
            f"multiplier {profile['multiplier']})"
        )
        print(
            "  error-resilience threshold: "
            f"{profile['error_resilience_threshold']} LSBs, max energy "
            f"reduction x{profile['max_energy_reduction']:.1f}"
        )
        for row in profile["table"]:
            print(
                f"  lsbs={int(row['lsbs']):2d}  "
                f"energy x{row['energy_reduction']:.2f}  "
                f"psnr {row['psnr_db']:6.1f} dB  "
                f"accuracy {row['peak_accuracy'] * 100:5.1f}%"
            )
    _print_statistics(runtime)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from ..service.jobs import check_workload
    from ..service.scheduler import JobScheduler, RuntimeProvider
    from ..service.server import DEFAULT_PORT, ServiceServer

    # The default workload must pass the check every job's payload passes.
    names, duration_s = check_workload(_record_names(args), args.duration)
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
    # Every flag is checked above, so a rejected command creates no store file.
    cache, signal_store, _ = _open_backends(args)
    provider = RuntimeProvider(
        cache=cache,
        signal_store=signal_store,
        default_records=names,
        default_duration_s=duration_s,
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
            f"({duration_s:g} s), {args.concurrency} concurrent jobs",
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
    from ..dsp.pan_tompkins import PanTompkinsPipeline
    from ..service.jobs import execute_stream

    payload: Dict[str, object] = {
        "kind": "stream", "records": [args.record], "duration_s": args.duration,
        "chunk_samples": args.chunk_samples,
        "realtime_factor": args.realtime_factor,
    }
    if args.config is not None or args.lsbs is not None:
        payload["design"] = _design(args)
    request = _job_request(payload)
    design = request.designs[0] if request.designs else DesignPoint.accurate()
    record = load_record(request.records[0], duration_s=request.duration_s)
    rate = record.sample_rate_hz

    def show(event: Dict[str, object]) -> None:
        f1 = (event["quality"] or {}).get("f1_score")
        for beat in event["beats_added"]:
            print(
                f"  t={beat / rate:7.2f}s  beat #{event['beat_count']:3d}"
                f"  hr {event['heart_rate_bpm']:5.1f} bpm"
                + (f"  f1-so-far {f1:.3f}" if f1 is not None else "")
            )
        for beat in event["beats_removed"]:
            print(f"  t={beat / rate:7.2f}s  beat revoked")

    if not args.json:
        print(
            f"streaming record {request.records[0]} ({request.duration_s:g} s) "
            f"through {design.summary()}"
        )
        pace = request.realtime_factor
        paced = f"paced at {pace:g}x real time" if pace > 0 else "unpaced"
        print(f"  {request.chunk_samples}-sample chunks ({paced})")
    document = execute_stream(request, progress=None if args.json else show)

    if args.verify:
        offline = PanTompkinsPipeline(backends=design.backends()).process(
            record.samples
        )
        if document["beats"] != [int(b) for b in offline.detection.peak_indices]:
            raise SystemExit(
                "error: streamed beat list differs from the offline pipeline"
            )
        if not args.json:
            print("verified: streamed beats == offline pipeline beats")
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    print(
        f"stream finished: {document['beat_count']} beats in "
        f"{document['chunks']} chunks, mean heart rate "
        f"{document['heart_rate_bpm']:.1f} bpm"
    )
    energy = document["energy"]
    print(
        f"  energy: {energy['cumulative_fj'] / 1e6:.2f} nJ "
        f"(x{energy['reduction_factor']:.2f} vs accurate)"
    )
    quality = document["quality"]
    if quality:
        print(
            f"  quality vs ground truth: sensitivity "
            f"{quality['sensitivity']:.3f}, f1 {quality['f1_score']:.3f}"
        )
    return 0


# -------------------------------------------------------------------- parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="XBioSiP reproduction: cached design-space exploration "
                    "of approximate bio-signal processors.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    explore = subparsers.add_parser(
        "explore", help="explore the pre-processing design space")
    explore.add_argument(
        "--method", choices=("grid", "algorithm1"), default="grid",
        help="grid enumeration (default) or the full XBioSiP methodology")
    explore.add_argument(
        "--max-designs", type=int, default=None,
        help="cap (>= 1) on the number of grid designs to evaluate")
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
        help="number of jobs executed concurrently (default: 2)")
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
        help="record length in seconds, at most 3600 (default: 10)")
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
        help="print the service API's stream result instead of the live log")
    _add_obs_options(stream)
    stream.set_defaults(handler=_cmd_stream)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro`` and the ``repro`` console script."""
    from ..service.jobs import BadRequest

    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_observability(args)
    try:
        return args.handler(args)
    except BadRequest as error:
        raise SystemExit(f"error: {error}") from None
    finally:
        _finalize_observability(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
