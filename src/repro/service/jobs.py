"""Job model of the exploration service.

A *job* is one unit of work submitted over the HTTP API: an ``evaluate``
batch, an ``explore`` sweep or a ``resilience`` analysis, bound to a record
workload.  Two properties make jobs first-class cache citizens:

* **Content-addressed job keys** — :meth:`JobRequest.job_key` collapses the
  request into a SHA-256 digest built from the same fingerprints the runtime
  caches use (:mod:`repro.core.fingerprint`): design points hash by content
  (labels excluded), record workloads by name set, and the library version is
  folded in so a pipeline change invalidates old jobs.  Identical in-flight
  requests therefore coalesce onto one execution, and repeat submissions of a
  completed job are served from the scheduler's result cache without touching
  the runtime.
* **Canonical result payloads** — every result is JSON built on
  :func:`repro.runtime.cache.serialize_evaluation`, the exact serializer the
  persistent result caches use.  The CLI's workload commands validate their
  flags as a payload with :meth:`JobRequest.from_payload` and run it through
  the same :meth:`JobRequest.execute` / :func:`execute_stream` helpers, so
  the CLI refuses what the API refuses and there is one canonical
  ``DesignEvaluation`` JSON shape across the CLI, the caches and the service.

The scheduler (:mod:`repro.service.scheduler`) owns job *state*; this module
owns job *meaning*: request validation (:exc:`BadRequest` maps to HTTP 4xx),
key derivation and execution against an
:class:`~repro.runtime.engine.ExplorationRuntime`.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import numbers
import queue
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..core.configurations import DesignPoint, paper_configuration
from ..core.design_space import exhaustive_search, preprocessing_design_space
from ..core.fingerprint import design_point_key, library_version
from ..core.quality import QualityConstraint
from ..core.resilience import analyze_stage_resilience
from ..dsp.stages import DEFAULT_SAMPLE_RATE_HZ, stage_by_name
from ..runtime.cache import serialize_evaluation
from ..runtime.engine import ExplorationRuntime
from ..runtime.telemetry import ProgressEvent

__all__ = [
    "JOB_KINDS",
    "JOB_STATES",
    "TERMINAL_STATES",
    "SUBMITTED",
    "RUNNING",
    "SUCCEEDED",
    "FAILED",
    "CANCELLED",
    "BadRequest",
    "ServiceBusy",
    "JobCancelled",
    "EventLog",
    "JobRequest",
    "Job",
    "check_workload",
    "execute_evaluate",
    "execute_explore",
    "execute_resilience",
    "execute_stream",
]

#: Work kinds the service accepts (the three batch CLI workloads plus the
#: long-lived streaming sessions of :mod:`repro.streaming`).
JOB_KINDS = ("evaluate", "explore", "resilience", "stream")

#: Sources a stream job can consume: server-side replay of a synthesized
#: record, or chunks pushed by the client over ``POST /jobs/{id}/chunks``.
STREAM_SOURCES = ("replay", "push")

SUBMITTED = "submitted"
RUNNING = "running"
SUCCEEDED = "succeeded"
FAILED = "failed"
CANCELLED = "cancelled"

#: Every state a job can be in, in lifecycle order.
JOB_STATES = (SUBMITTED, RUNNING, SUCCEEDED, FAILED, CANCELLED)
#: States a job never leaves.
TERMINAL_STATES = (SUCCEEDED, FAILED, CANCELLED)

#: Valid quality-constraint metrics (mirrors QualityConstraint._VALID).
_METRICS = ("psnr", "ssim", "peak_accuracy")

#: Shortest record a request may ask for: one sample at the records' rate.
_SAMPLE_PERIOD_S = 1.0 / DEFAULT_SAMPLE_RATE_HZ


class BadRequest(ValueError):
    """A malformed job request; the HTTP layer answers it with a 400."""


class ServiceBusy(RuntimeError):
    """The scheduler cannot take more jobs; the HTTP layer answers 503."""


class JobCancelled(Exception):
    """Raised inside a job's execution thread when cancellation was requested."""


# ------------------------------------------------------------------ requests
def _require(condition: bool, message: str) -> None:
    if not condition:
        raise BadRequest(message)


def _number(name: str, value: object) -> float:
    """``value`` as a finite float; JSON admits ``NaN`` and ``Infinity``."""
    try:
        number = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise BadRequest(f"{name} must be a number")
    _require(math.isfinite(number), f"{name} must be a finite number")
    return number


def _integer(name: str, value: object) -> int:
    """``value`` as an int: an integer, an integral float or a decimal
    string (the CLI passes ``--lsbs`` counts as text).  Booleans and
    fractions are refused: ``int()`` would read ``true`` as 1 and ``2.7``
    as 2."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise BadRequest(f"{name} must be an integer, got {value!r}")


def check_workload(
    records: object, duration_s: object
) -> Tuple[Tuple[str, ...], float]:
    """The validated ``(record names, duration)`` of a request's workload.

    ``repro serve`` checks its default workload with it too, so a default
    that every job would be refused for stops the server at start-up.
    """
    _require(
        isinstance(records, (list, tuple))
        and bool(records)
        and all(isinstance(name, str) and name.strip() for name in records),
        "records must be a non-empty list of record names",
    )
    duration = _number("duration_s", duration_s)
    _require(0 < duration <= 3600, "duration_s must be in (0, 3600]")
    # A shorter record can round to no sample at all.
    _require(
        duration >= _SAMPLE_PERIOD_S,
        f"duration_s must be at least one sample period ({_SAMPLE_PERIOD_S:g} s)",
    )
    names = tuple(name.strip() for name in records)  # type: ignore[union-attr]
    return names, duration


def _parse_design(payload: object, index: int) -> DesignPoint:
    """One design from a submission payload: named config or LSB mapping."""
    _require(
        isinstance(payload, dict),
        f"designs[{index}] must be an object, got {type(payload).__name__}",
    )
    has_config = "config" in payload
    has_lsbs = "lsbs" in payload
    _require(
        has_config != has_lsbs,
        f"designs[{index}] needs exactly one of 'config' / 'lsbs'",
    )
    if has_config:
        try:
            return paper_configuration(str(payload["config"]))
        except KeyError as error:
            raise BadRequest(f"designs[{index}]: {error.args[0]}")
    lsbs = payload["lsbs"]
    _require(
        isinstance(lsbs, dict) and lsbs,
        f"designs[{index}].lsbs must be a non-empty object of stage: count",
    )
    counts = {
        str(stage): _integer(f"designs[{index}].lsbs.{stage}", count)
        for stage, count in lsbs.items()
    }
    # from_lsbs silently drops non-positive counts, so reject them here: a
    # negative count is a malformed request, not an accurate stage.
    _require(
        all(count >= 0 for count in counts.values()),
        f"designs[{index}].lsbs counts must be >= 0",
    )
    try:
        return DesignPoint.from_lsbs(
            counts, name=str(payload.get("name", f"job-design-{index}"))
        )
    except (KeyError, TypeError, ValueError) as error:
        raise BadRequest(f"designs[{index}]: {error}")


@dataclass(frozen=True)
class JobRequest:
    """A validated, immutable unit of service work.

    Build instances with :meth:`from_payload`, which validates the wire
    payload and raises :exc:`BadRequest` on anything malformed.
    """

    kind: str
    records: Tuple[str, ...]
    duration_s: float
    priority: int = 0
    # evaluate
    designs: Tuple[DesignPoint, ...] = ()
    # explore
    metric: str = "psnr"
    threshold: float = 15.0
    max_designs: Optional[int] = None
    lsb_step: int = 2
    # resilience
    stages: Tuple[str, ...] = ()
    # stream
    source: str = "replay"
    chunk_samples: int = 50
    realtime_factor: float = 0.0
    idle_timeout_s: float = 30.0
    #: Uniqueness nonce: every stream session is its own live resource, so
    #: stream jobs never coalesce and are never served from cache.
    nonce: str = ""

    @classmethod
    def from_payload(
        cls,
        payload: object,
        default_records: Tuple[str, ...] = ("16265",),
        default_duration_s: float = 10.0,
    ) -> "JobRequest":
        """Validate a wire payload into a request (raises :exc:`BadRequest`)."""
        _require(isinstance(payload, dict), "request body must be a JSON object")
        kind = payload.get("kind")
        _require(
            kind in JOB_KINDS, f"kind must be one of {list(JOB_KINDS)}, got {kind!r}"
        )

        records, duration_s = check_workload(
            payload.get("records", list(default_records)),
            payload.get("duration_s", default_duration_s),
        )
        fields: Dict[str, object] = {
            "kind": kind,
            "records": records,
            "duration_s": duration_s,
            "priority": _integer("priority", payload.get("priority", 0)),
        }
        if kind == "evaluate":
            designs = payload.get("designs")
            _require(
                isinstance(designs, (list, tuple)) and designs,
                "evaluate needs a non-empty 'designs' list",
            )
            fields["designs"] = tuple(
                _parse_design(design, index) for index, design in enumerate(designs)
            )
        elif kind == "explore":
            metric = payload.get("metric", "psnr")
            _require(
                metric in _METRICS,
                f"metric must be one of {list(_METRICS)}, got {metric!r}",
            )
            lsb_step = _integer("lsb_step", payload.get("lsb_step", 2))
            max_designs = payload.get("max_designs")
            if max_designs is not None:
                max_designs = _integer("max_designs", max_designs)
            _require(lsb_step >= 1, "lsb_step must be >= 1")
            _require(
                max_designs is None or max_designs >= 1,
                "max_designs must be >= 1",
            )
            fields.update(
                metric=metric,
                threshold=_number("threshold", payload.get("threshold", 15.0)),
                lsb_step=lsb_step,
                max_designs=max_designs,
            )
        elif kind == "resilience":
            stages = payload.get("stages")
            _require(
                isinstance(stages, (list, tuple)) and stages,
                "resilience needs a non-empty 'stages' list",
            )
            canonical = []
            for stage in stages:
                try:
                    canonical.append(stage_by_name(str(stage)).name)
                except KeyError as error:
                    raise BadRequest(str(error.args[0]))
            fields["stages"] = tuple(canonical)
        else:  # stream
            source = payload.get("source", "replay")
            _require(
                source in STREAM_SOURCES,
                f"source must be one of {list(STREAM_SOURCES)}, got {source!r}",
            )
            design = payload.get("design")
            if design is not None:
                fields["designs"] = (_parse_design(design, 0),)
            chunk_samples = _integer("chunk_samples", payload.get("chunk_samples", 50))
            realtime_factor = _number(
                "realtime_factor", payload.get("realtime_factor", 0.0)
            )
            idle_timeout_s = _number(
                "idle_timeout_s", payload.get("idle_timeout_s", 30.0)
            )
            _require(chunk_samples >= 1, "chunk_samples must be >= 1")
            _require(realtime_factor >= 0, "realtime_factor must be >= 0")
            _require(idle_timeout_s > 0, "idle_timeout_s must be > 0")
            _require(
                len(fields["records"]) == 1,  # type: ignore[arg-type]
                "stream jobs take exactly one record",
            )
            fields.update(
                source=source,
                chunk_samples=chunk_samples,
                realtime_factor=realtime_factor,
                idle_timeout_s=idle_timeout_s,
                nonce=uuid.uuid4().hex,
            )
        return cls(**fields)  # type: ignore[arg-type]

    # ------------------------------------------------------------------ keys
    @property
    def workload_key(self) -> Tuple[Tuple[str, ...], float]:
        """Hashable identity of the runtime this request evaluates on."""
        return (tuple(sorted(set(self.records))), self.duration_s)

    def job_key(self) -> str:
        """Content-addressed identity of this request's *work*.

        Two requests share a key exactly when they compute the same result:
        the priority label is excluded, design points hash by content, and
        the library version is folded in so stale results cannot be reused
        across a pipeline change.
        """
        payload: Dict[str, object] = {
            "library": library_version(),
            "kind": self.kind,
            "records": sorted(set(self.records)),
            "duration_s": self.duration_s,
        }
        if self.kind == "evaluate":
            payload["designs"] = [design_point_key(d) for d in self.designs]
        elif self.kind == "explore":
            payload["explore"] = {
                "metric": self.metric,
                "threshold": self.threshold,
                "max_designs": self.max_designs,
                "lsb_step": self.lsb_step,
            }
        elif self.kind == "resilience":
            payload["stages"] = list(self.stages)
        else:  # stream: the nonce makes every session unique (no coalescing)
            payload["stream"] = {
                "designs": [design_point_key(d) for d in self.designs],
                "source": self.source,
                "chunk_samples": self.chunk_samples,
                "realtime_factor": self.realtime_factor,
                "nonce": self.nonce,
            }
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------- execution
    def execute(
        self,
        runtime: ExplorationRuntime,
        progress: Optional[Callable[[Dict[str, object]], None]] = None,
        cancelled: Optional[Callable[[], bool]] = None,
    ) -> Dict[str, object]:
        """Run this request's work on ``runtime`` and return its result JSON.

        ``progress`` receives one plain-dict event per resolved design (or
        per completed resilience stage); ``cancelled`` is polled at every
        progress point and after every design of a resilience sweep, and
        raises :exc:`JobCancelled` mid-run when true.
        """
        if self.kind == "stream":
            # Streams never touch the exploration runtime; chunk intake for
            # push sessions is supplied by the scheduler.
            return execute_stream(self, progress=progress, cancelled=cancelled)
        if self.kind == "evaluate":
            return execute_evaluate(
                runtime, list(self.designs), progress=progress, cancelled=cancelled
            )
        if self.kind == "explore":
            constraint = QualityConstraint(self.metric, self.threshold)
            return execute_explore(
                runtime,
                constraint,
                max_designs=self.max_designs,
                lsb_step=self.lsb_step,
                progress=progress,
                cancelled=cancelled,
            )
        return execute_resilience(
            runtime, list(self.stages), progress=progress, cancelled=cancelled
        )

    def describe(self) -> Dict[str, object]:
        """Wire rendering of the request (echoed in job status documents)."""
        doc: Dict[str, object] = {
            "kind": self.kind,
            "records": list(self.records),
            "duration_s": self.duration_s,
            "priority": self.priority,
        }
        if self.kind == "evaluate":
            doc["designs"] = [
                {"name": design.name, "lsbs": design.lsbs_map()}
                for design in self.designs
            ]
        elif self.kind == "explore":
            doc.update(
                metric=self.metric,
                threshold=self.threshold,
                max_designs=self.max_designs,
                lsb_step=self.lsb_step,
            )
        elif self.kind == "resilience":
            doc["stages"] = list(self.stages)
        else:  # stream
            doc.update(
                source=self.source,
                chunk_samples=self.chunk_samples,
                realtime_factor=self.realtime_factor,
                idle_timeout_s=self.idle_timeout_s,
                design=(
                    {
                        "name": self.designs[0].name,
                        "lsbs": self.designs[0].lsbs_map(),
                    }
                    if self.designs
                    else None
                ),
            )
        return doc


# ----------------------------------------------------------------- execution
def _runtime_progress(
    progress: Optional[Callable[[Dict[str, object]], None]],
    cancelled: Optional[Callable[[], bool]],
) -> Optional[Callable[[ProgressEvent], None]]:
    """Adapt the job-level callbacks into a runtime progress callback.

    The callback runs inside the job's execution thread after every resolved
    design; raising :exc:`JobCancelled` here aborts the batch cooperatively.
    """
    if progress is None and cancelled is None:
        return None

    def callback(event: ProgressEvent) -> None:
        if cancelled is not None and cancelled():
            raise JobCancelled()
        if progress is not None:
            progress(
                {
                    "type": "progress",
                    "completed": event.completed,
                    "total": event.total,
                    "cache_hit": event.cache_hit,
                    "elapsed_s": event.elapsed_s,
                    "summary": event.evaluation.summary(),
                }
            )

    return callback


def _check_cancelled(cancelled: Optional[Callable[[], bool]]) -> None:
    if cancelled is not None and cancelled():
        raise JobCancelled()


def execute_evaluate(
    runtime: ExplorationRuntime,
    designs: List[DesignPoint],
    progress: Optional[Callable[[Dict[str, object]], None]] = None,
    cancelled: Optional[Callable[[], bool]] = None,
) -> Dict[str, object]:
    """Evaluate a batch of designs; the canonical ``evaluate`` result JSON."""
    _check_cancelled(cancelled)
    evaluations = runtime.evaluate_many(
        designs, progress=_runtime_progress(progress, cancelled)
    )
    return {
        "kind": "evaluate",
        "evaluations": [serialize_evaluation(e) for e in evaluations],
    }


def execute_explore(
    runtime: ExplorationRuntime,
    constraint: QualityConstraint,
    max_designs: Optional[int] = None,
    lsb_step: int = 2,
    progress: Optional[Callable[[Dict[str, object]], None]] = None,
    cancelled: Optional[Callable[[], bool]] = None,
) -> Dict[str, object]:
    """Grid-explore the pre-processing space; the canonical ``explore`` JSON."""
    _check_cancelled(cancelled)
    evaluations = exhaustive_search(
        preprocessing_design_space(lsb_step=lsb_step),
        runtime,
        max_designs,
        progress=_runtime_progress(progress, cancelled),
    )
    feasible = [e for e in evaluations if constraint.satisfied_by(e)]
    best = max(feasible, key=lambda e: e.energy_reduction) if feasible else None
    return {
        "kind": "explore",
        "constraint": {"metric": constraint.metric, "threshold": constraint.threshold},
        "lsb_step": lsb_step,
        "designs_evaluated": len(evaluations),
        "feasible": len(feasible),
        "best": serialize_evaluation(best) if best is not None else None,
        "evaluations": [serialize_evaluation(e) for e in evaluations],
    }


def execute_resilience(
    runtime: ExplorationRuntime,
    stages: List[str],
    progress: Optional[Callable[[Dict[str, object]], None]] = None,
    cancelled: Optional[Callable[[], bool]] = None,
) -> Dict[str, object]:
    """Per-stage resilience sweeps; the canonical ``resilience`` result JSON."""
    profiles: Dict[str, object] = {}
    # Cancellation is polled after every design of a sweep; progress events
    # stay one per stage.
    poll = _runtime_progress(None, cancelled)
    for index, stage in enumerate(stages):
        _check_cancelled(cancelled)
        profile = analyze_stage_resilience(stage, runtime, progress=poll)
        profiles[profile.stage] = {
            "stage": profile.stage,
            "adder": profile.adder,
            "multiplier": profile.multiplier,
            "error_resilience_threshold": profile.error_resilience_threshold(),
            "max_energy_reduction": profile.max_energy_reduction(0.0),
            "table": profile.as_table(),
        }
        if progress is not None:
            progress(
                {
                    "type": "progress",
                    "completed": index + 1,
                    "total": len(stages),
                    "stage": profile.stage,
                }
            )
    return {"kind": "resilience", "stages": profiles}


def execute_stream(
    request: "JobRequest",
    chunks: Optional[Iterable[np.ndarray]] = None,
    progress: Optional[Callable[[Dict[str, object]], None]] = None,
    cancelled: Optional[Callable[[], bool]] = None,
) -> Dict[str, object]:
    """Run one streaming session; the canonical ``stream`` result JSON.

    With ``chunks=None`` (replay sessions and the CLI) the record named by
    the request is synthesized and self-replayed at the requested real-time
    factor; push sessions pass the scheduler's chunk-queue iterator instead.
    One ``{"type": "chunk", ...}`` progress event is emitted per chunk — the
    live beat/quality/energy telemetry of :class:`~repro.streaming.session.
    StreamSession` — so beats stream out while the signal is still arriving.
    """
    from ..dsp.stages import total_group_delay_samples
    from ..metrics.peaks import match_peaks
    from ..signals.records import load_record
    from ..streaming.replay import ReplaySource
    from ..streaming.session import StreamSession

    design = request.designs[0] if request.designs else DesignPoint.accurate()
    record = None
    true_peaks = None
    sample_rate_hz = 200
    if request.source == "replay":
        record = load_record(request.records[0], duration_s=request.duration_s)
        true_peaks = record.r_peak_indices
        sample_rate_hz = record.sample_rate_hz
    session = StreamSession(
        design=design, sample_rate_hz=sample_rate_hz, true_peaks=true_peaks
    )
    if chunks is None:
        _require(
            request.source == "replay",
            "push streams need a chunk feed (scheduler-only)",
        )
        chunks = ReplaySource(
            record,
            chunk_samples=request.chunk_samples,
            realtime_factor=request.realtime_factor,
        ).chunks()

    for chunk in chunks:
        _check_cancelled(cancelled)
        report = session.push(np.asarray(chunk, dtype=np.int64))
        if progress is not None:
            event: Dict[str, object] = {"type": "chunk"}
            event.update(report.to_document())
            progress(event)
    _check_cancelled(cancelled)
    if session.chunk_count == 0:
        raise BadRequest("stream session received no samples")
    result = session.finalize()

    beats = [int(index) for index in result.detection.peak_indices]
    quality: Optional[Dict[str, float]] = None
    if true_peaks is not None and len(true_peaks):
        match = match_peaks(
            true_peaks,
            beats,
            expected_delay_samples=total_group_delay_samples(),
        )
        quality = {
            "sensitivity": match.sensitivity,
            "positive_predictivity": match.positive_predictivity,
            "f1_score": match.f1_score,
        }
    last = session.last_report
    return {
        "kind": "stream",
        "source": request.source,
        "record": request.records[0] if request.source == "replay" else None,
        "design": {"name": design.name, "lsbs": design.lsbs_map()},
        "samples": last.total_samples,
        "chunks": session.chunk_count,
        "beats": beats,
        "beat_count": len(beats),
        "heart_rate_bpm": result.heart_rate_bpm(),
        "quality": quality,
        "energy": last.energy,
        "latency": {
            "mean_chunk_ms": session.processing_ms_total / session.chunk_count,
            "max_chunk_ms": session.processing_ms_max,
        },
    }


# --------------------------------------------------------------------- jobs
class EventLog:
    """Bounded per-job event backlog (ring buffer with stable sequence ids).

    Long-lived stream jobs emit one event per chunk; an unbounded list would
    grow for the lifetime of the session.  The log keeps the newest
    ``capacity`` events, assigns every event a monotonically increasing
    ``seq``, and counts what it had to drop — consumers that fell behind a
    drop simply resume at the oldest retained event (``seq`` makes the gap
    visible), and ``/stats`` surfaces the total drop count.
    """

    def __init__(
        self,
        capacity: int = 1024,
        on_drop: Optional[Callable[[int], None]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._events: "deque[Dict[str, object]]" = deque()
        #: Total events ever appended; the next event's ``seq``.
        self.total = 0
        #: Events discarded to honour the capacity bound.
        self.dropped = 0
        #: Called with the drop count delta whenever events are discarded —
        #: the scheduler keeps an O(1) running total across all jobs (alive
        #: or expired) instead of rescanning the job table per ``/stats``.
        self.on_drop = on_drop

    def append(self, event: Dict[str, object]) -> None:
        """Stamp ``event["seq"]`` and retain it (evicting the oldest)."""
        event["seq"] = self.total
        self.total += 1
        self._events.append(event)
        if len(self._events) > self.capacity:
            self._events.popleft()
            self.dropped += 1
            if self.on_drop is not None:
                self.on_drop(1)

    def since(self, after: int) -> List[Dict[str, object]]:
        """Retained events with ``seq >= after``, oldest first."""
        if not self._events:
            return []
        first = int(self._events[0]["seq"])  # type: ignore[arg-type]
        if after <= first:
            return list(self._events)
        offset = after - first
        if offset >= len(self._events):
            return []
        return list(self._events)[offset:]

    def __iter__(self) -> "Iterator[Dict[str, object]]":
        """Iterate the retained events, oldest first."""
        return iter(list(self._events))

    def __len__(self) -> int:
        """Number of retained (not total) events."""
        return len(self._events)


@dataclass
class Job:
    """One submitted job and its full lifecycle state.

    The scheduler mutates jobs only from the event-loop thread (progress
    events produced in execution threads are marshalled across with
    ``call_soon_threadsafe``), so readers on the loop always see a
    consistent snapshot.  ``cancel_requested`` is the one cross-thread
    field: a ``threading.Event`` polled cooperatively by the execution
    thread at every progress point.
    """

    id: str
    request: JobRequest
    key: str
    state: str = SUBMITTED
    #: Wall-clock timestamps (``time.time``) — for humans and status
    #: documents only.  Durations and TTL expiry use the ``*_monotonic``
    #: twins below, which cannot jump with NTP steps or DST.
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    submitted_monotonic: float = field(default_factory=time.monotonic)
    started_monotonic: Optional[float] = None
    finished_monotonic: Optional[float] = None
    result: Optional[Dict[str, object]] = None
    error: Optional[str] = None
    events: EventLog = field(default_factory=EventLog)
    #: Additional submissions answered by this job (in-flight coalescing).
    coalesced: int = 0
    #: True when the job was answered from a completed job's result.
    from_cache: bool = False
    cancel_requested: threading.Event = field(
        default_factory=threading.Event, repr=False
    )
    changed: asyncio.Event = field(default_factory=asyncio.Event, repr=False)
    #: Inbound sample chunks of a push-mode stream job (``None`` sentinel =
    #: end of stream).  Thread-safe: the HTTP layer produces on the loop
    #: thread, the execution thread consumes.
    chunk_queue: "queue.Queue[Optional[np.ndarray]]" = field(
        default_factory=queue.Queue, repr=False
    )
    #: True once a push carrying ``final`` was accepted: the stream has
    #: ended, so the scheduler refuses any later push.
    final_received: bool = False

    @property
    def done(self) -> bool:
        """True once the job reached a terminal state."""
        return self.state in TERMINAL_STATES

    def append_event(self, event: Dict[str, object]) -> None:
        """Record one event and wake any long-poll waiters (loop thread only)."""
        self.events.append(dict(event))
        self.changed.set()

    def describe(self, include_result: bool = True) -> Dict[str, object]:
        """JSON status document served by ``GET /jobs/{id}``."""
        doc: Dict[str, object] = {
            "id": self.id,
            "key": self.key,
            "state": self.state,
            "request": self.request.describe(),
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "events": self.events.total,
            "events_dropped": self.events.dropped,
            "coalesced": self.coalesced,
            "from_cache": self.from_cache,
            "error": self.error,
        }
        if include_result:
            doc["result"] = self.result
        return doc
