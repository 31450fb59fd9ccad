"""Stage-graph execution: memoized, input-addressed pipeline stage runs.

The Pan-Tompkins pipeline is a chain of five deterministic stages, and the
paper's design space (Section 6.2) only varies the arithmetic of a few of
them — so across a design-space sweep most stage runs are *identical*: every
design with the same LPF/HPF settings produces bit-identical low-pass and
high-pass signals.  Rather than recomputing those signals once per design,
the executor here treats each stage run as a node in a content-addressed
graph:

* A node's key (:func:`~repro.core.fingerprint.stage_node_key`) is
  **input-addressed**: it digests the content hash of the signal the stage
  actually consumes together with the stage definition and backend
  fingerprints.  Two stage runs share a node exactly when they perform the
  same computation on the same bits — across designs, across records and
  across runs that share a store.  The input hash of stage N+1 is the
  content hash of stage N's resolved *output*, computed once per node and
  cached on the memo, so a chain of N stages costs N incremental hashes.
* Node outputs live in a signal store: the default is the in-process
  :class:`MemoryStageStore`, and :mod:`repro.runtime.signal_store` opens
  the persistent SQLite store; both are the stores of
  :mod:`repro.core.store` with the signal codec.  A SQLite hit comes with
  its row's verified checksum, which is the signal's content hash, so a
  warm node's output is hashed once, by the store.
* Two more node kinds sit past the chain, in the same store: the decision
  stage (``detect``, keyed by the MWI and HPF output hashes) and the
  pre-processing quality scores (``quality``, PSNR and SSIM keyed by the
  accurate and the design HPF output hashes).  A warm rerun then detects no
  peak and scores no signal.
* Per-stage hit/compute accounting (:class:`StageGraphStats`) feeds the
  runtime telemetry and the stage-memoization benchmark.  Hits are further
  classified by *reuse class*: ``classic`` (node computed by this memo under
  the same root recording), ``cross_record`` (computed under a different
  root), and ``warm`` (never computed by this memo — served from a shared or
  persistent store that another memo filled).

:class:`StageGraphMemo` is the object threaded through
:meth:`~repro.dsp.pan_tompkins.PanTompkinsPipeline.process`, the offline
exploration's executor.  Its :meth:`~StageGraphMemo.walk` derives every
stage node key and returns the content hash of each output it visited;
:meth:`~StageGraphMemo.resolve_detection` and
:meth:`~StageGraphMemo.resolve_quality` key the two nodes past the chain by
those hashes.  Callers only say what to compute at a node, so they stay
oblivious to fingerprinting and storage.  Streams keep no memo: the edge
path processes each sample once.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from ..arithmetic.library import ArithmeticBackend
from ..dsp.detection import PeakDetectionResult
from ..dsp.stages import STAGE_HPF, STAGE_MWI, StageDefinition
from ..obs import metrics as obs_metrics
from ..obs.tracing import span as obs_span
from .fingerprint import (
    detection_node_key,
    quality_node_key,
    signal_content_hash,
    signal_root_key,
    stage_node_key,
)
from .store import MemoryStore

__all__ = [
    "DETECT",
    "QUALITY",
    "ROOT",
    "StageGraphStats",
    "MemoryStageStore",
    "StageGraphMemo",
]

#: The stage names of the two nodes past the stage chain: the decision
#: stage and the pre-processing quality scores.
DETECT = "detect"
QUALITY = "quality"
_PAST_THE_CHAIN = (DETECT, QUALITY)

#: The entry of a walk's hashes that holds the root key (the content hash
#: of the samples the chain started from), beside one entry per stage.
ROOT = "root"

#: Capacity of the memo's per-node bookkeeping maps (output hashes and
#: computed-root provenance).  Entries are tiny (two hex strings), the cap
#: only guards against unbounded growth over very long-lived memos.
_BOOKKEEPING_ENTRIES = 4096

#: Stage-node resolution latency, labelled by stage name (a pipeline stage,
#: ``detect`` or ``quality``) and hit class (``classic`` / ``cross_record`` /
#: ``warm`` for store hits, ``miss`` for actual node computations).
#: Process-wide across every memo instance.
_RESOLVE_SECONDS = obs_metrics.histogram(
    "repro_stage_resolve_seconds",
    "Stage-graph node resolution latency by stage and hit class.",
    labelnames=("stage", "result"),
)


def _remember(bookkeeping: "OrderedDict[str, str]", key: str, value: str) -> None:
    """Set ``key`` in one of the memo's FIFO-capped maps (under its lock)."""
    bookkeeping[key] = value
    while len(bookkeeping) > _BOOKKEEPING_ENTRIES:
        bookkeeping.popitem(last=False)


# ------------------------------------------------------------- accounting
#: The ``result`` labels of a store hit, one per reuse class.
_HITS = ("classic", "cross_record", "warm")


def _count(
    counts: Dict[Tuple[str, str], int],
    results: Tuple[str, ...],
    stage: Optional[str] = None,
) -> int:
    """Resolutions in ``counts`` with one of ``results``, of ``stage`` or of
    every pipeline stage (the ``detect`` and ``quality`` nodes excluded)."""
    return sum(
        n for (name, result), n in counts.items()
        if result in results
        and (name == stage if stage is not None else name not in _PAST_THE_CHAIN)
    )


def _hit_rate(counts: Dict[Tuple[str, str], int], stage: Optional[str]) -> float:
    """Fraction of ``stage``'s (or all stages') resolutions that hit."""
    hits = _count(counts, _HITS, stage)
    resolved = hits + _count(counts, ("miss",), stage)
    return hits / resolved if resolved else 0.0


@dataclass
class StageGraphStats:
    """Per-stage resolution counts of one stage-graph memo.

    ``counts`` is keyed by ``(stage, result)``, where ``result`` is the
    label the memo observes ``repro_stage_resolve_seconds`` under: ``miss``
    for a stage run, or a hit's reuse class.  The ``detect`` and ``quality``
    nodes have rows of their own; the ``total_*`` figures and
    :meth:`hit_rate` count the pipeline stages only.  The memo counts under
    its lock while readers (``/stats``) run on other threads, so each read
    below works from one ``dict`` copy of ``counts``, never the live Counter.
    """

    counts: Counter = field(default_factory=Counter)

    def computes_for(self, stage_name: str) -> int:
        """Number of times ``stage_name`` was actually executed."""
        return _count(dict(self.counts), ("miss",), stage_name)

    def hits_for(self, stage_name: str) -> int:
        """Number of times ``stage_name`` was served from the store."""
        return _count(dict(self.counts), _HITS, stage_name)

    @property
    def total_computes(self) -> int:
        """Stage executions summed over all stages."""
        return _count(dict(self.counts), ("miss",))

    @property
    def total_hits(self) -> int:
        """Store hits summed over all stages."""
        return _count(dict(self.counts), _HITS)

    @property
    def total_cross_record_hits(self) -> int:
        """Hits on nodes computed under a different root recording."""
        return _count(dict(self.counts), ("cross_record",))

    @property
    def total_warm_hits(self) -> int:
        """Hits on nodes this memo never computed (shared / persistent store)."""
        return _count(dict(self.counts), ("warm",))

    def hit_rate(self, stage_name: Optional[str] = None) -> float:
        """Fraction of stage runs served from the store (0.0 when unused)."""
        return _hit_rate(dict(self.counts), stage_name)

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """Per-stage snapshot (telemetry / CLI reporting), the pipeline
        stages by name, then ``detect`` and ``quality``."""
        counts = dict(self.counts)
        names = {name for name, _ in counts}
        return {
            name: {
                "computes": _count(counts, ("miss",), name),
                "hits": _count(counts, _HITS, name),
                "cross_record_hits": _count(counts, ("cross_record",), name),
                "warm_hits": _count(counts, ("warm",), name),
                "hit_rate": _hit_rate(counts, name),
            }
            for name in sorted(names, key=lambda name: (name in _PAST_THE_CHAIN, name))
        }


# ------------------------------------------------------------------ store
#: The default node store: the memory LRU with the signal codec, which
#: stores a frozen copy of each signal and hands it out read-only.
MemoryStageStore = MemoryStore


# ------------------------------------------------------------------- memo
class StageGraphMemo:
    """Memoization context threaded through pipeline runs.

    One memo instance represents one stage graph: all pipeline runs sharing
    the memo share its node store.  Because nodes are input-addressed, reuse
    is *global*: designs whose computations coincide share nodes even when
    their settings chains differ (e.g. suffix stages downstream of an
    approximation that was a bit-exact no-op), and records with identical
    sample windows share the whole chain.

    Parameters
    ----------
    store:
        Signal store holding node outputs.  Defaults to a bounded
        :class:`MemoryStageStore`; pass a persistent store from
        :mod:`repro.runtime.signal_store` to share nodes across processes
        and runs.
    """

    #: Number of single-flight lock stripes.  Concurrent resolutions of
    #: *different* nodes only contend when their keys hash to the same
    #: stripe (1/32 chance), while resolutions of the *same* node serialize,
    #: so every node is computed exactly once even under concurrent callers.
    _N_STRIPES = 32

    def __init__(self, store: Optional[object] = None) -> None:
        self.store = store if store is not None else MemoryStageStore()
        #: Hit/compute accounting of this memo's resolutions.
        self.stats = StageGraphStats()
        self._lock = threading.Lock()
        self._stripes = [threading.Lock() for _ in range(self._N_STRIPES)]
        # node key -> content hash of the node's output (computed at most
        # once per node; this is what makes a chain of N stages cost N
        # incremental hashes instead of N^2 rehashes).
        self._hashes: "OrderedDict[str, str]" = OrderedDict()
        # node key -> root content hash the node was *computed* under by
        # this memo.  Absent for nodes served purely from a shared or
        # persistent store entry, which is how warm hits are recognised.
        self._computed_roots: "OrderedDict[str, str]" = OrderedDict()

    # ------------------------------------------------------------- keying
    def root_key(self, samples: np.ndarray) -> str:
        """Content hash of the raw input samples (the graph's root)."""
        return signal_root_key(samples)

    def node_key(
        self, input_hash: str, stage: StageDefinition, backend: ArithmeticBackend
    ) -> str:
        """Key of the node running ``stage``/``backend`` on ``input_hash``.

        ``input_hash`` is the content hash of the signal the stage consumes:
        the root key for the first stage, :meth:`output_hash` of the upstream
        node for every later stage.
        """
        return stage_node_key(input_hash, stage, backend)

    def output_hash(self, key: str, signal: np.ndarray) -> str:
        """Content hash of node ``key``'s output, computed at most once."""
        with self._lock:
            cached = self._hashes.get(key)
        if cached is not None:
            return cached
        digest = signal_content_hash(signal)
        with self._lock:
            _remember(self._hashes, key, digest)
        return digest

    def walk(
        self,
        samples: np.ndarray,
        plan: Iterable[Tuple[StageDefinition, ArithmeticBackend]],
        visit: Callable[..., Optional[np.ndarray]],
    ) -> Tuple[Dict[str, np.ndarray], Dict[str, str]]:
        """Walk a stage plan's node chain from ``samples``, node by node.

        The one place stage node keys are derived: the root key of
        ``samples`` (the int64 signal the first stage consumes) keys the
        first node, and the content hash of each node's output keys the
        next.  ``visit(stage, backend, key, signal, root)`` is called once
        per ``(stage, backend)`` pair of ``plan`` with the node's input
        ``signal`` and the root key, and returns the node's output, or
        ``None`` to stop the walk (a lookup that misses).  Returns the
        outputs visited and their content hashes, each by stage name in plan
        order; the hashes also hold the root key under :data:`ROOT`.
        """
        root = self.root_key(samples)
        input_hash, signal = root, samples
        outputs: Dict[str, np.ndarray] = {}
        hashes = {ROOT: root}
        for stage, backend in plan:
            key = self.node_key(input_hash, stage, backend)
            signal = visit(stage, backend, key, signal, root)
            if signal is None:
                break
            outputs[stage.name] = signal
            input_hash = hashes[stage.name] = self.output_hash(key, signal)
        return outputs, hashes

    def resolve_detection(
        self,
        hashes: Mapping[str, str],
        detect: Callable[[], PeakDetectionResult],
    ) -> PeakDetectionResult:
        """The decision stage of a walked chain, resolved as its ``detect`` node.

        ``hashes`` is what :meth:`walk` returned for the chain, and
        ``detect()`` runs the decision stage on its MWI and HPF outputs.
        The node holds the result packed (:meth:`PeakDetectionResult.pack`),
        so a hit returns it bit for bit.
        """
        key = detection_node_key(hashes[STAGE_MWI.name], hashes[STAGE_HPF.name])
        packed = self.resolve(
            DETECT, key, lambda: detect().pack(), root_hash=hashes[ROOT]
        )
        return PeakDetectionResult.unpack(packed)

    def resolve_quality(
        self,
        reference: Mapping[str, str],
        hashes: Mapping[str, str],
        score: Callable[[], Tuple[float, float]],
    ) -> Tuple[float, float]:
        """``score()``, the (PSNR, SSIM) of two walked chains' HPF outputs,
        resolved as their ``quality`` node.

        ``reference`` and ``hashes`` are what :meth:`walk` returned for the
        accurate chain and the design's.  The node holds the two float64s.
        """
        key = quality_node_key(reference[STAGE_HPF.name], hashes[STAGE_HPF.name])
        scores = self.resolve(
            QUALITY,
            key,
            lambda: np.array(score(), dtype=np.float64),
            root_hash=hashes[ROOT],
        )
        return float(scores[0]), float(scores[1])

    # ------------------------------------------------------------ traffic
    def fetch(
        self, stage_name: str, key: str, root_hash: Optional[str] = None
    ) -> Optional[np.ndarray]:
        """Look up one node's output, accounting a hit when present.

        A miss is *not* accounted here — :meth:`resolve` accounts the compute
        once the stage has actually run, so the counters always sum to the
        number of stage runs resolved.  ``root_hash`` (the content hash of
        the recording the current run started from) classifies the hit: a
        node this memo never computed is a *warm* hit, one computed under a
        different root is a *cross-record* hit.
        """
        started = time.perf_counter()
        found = self.store.get(key, with_checksum=True)
        if found is None:
            return None
        signal, checksum = found
        with self._lock:
            if checksum is not None:
                # A SQLite row's verified checksum is the content hash of
                # its signal, so the walk keys the next node without
                # hashing the output again.
                _remember(self._hashes, key, checksum)
            computed_root = self._computed_roots.get(key)
            if computed_root is None:
                reuse = "warm"
            elif root_hash is not None and computed_root != root_hash:
                reuse = "cross_record"
            else:
                reuse = "classic"
            self.stats.counts[stage_name, reuse] += 1
        _RESOLVE_SECONDS.labels(stage_name, reuse).observe(
            time.perf_counter() - started
        )
        return signal

    def resolve(
        self,
        stage_name: str,
        key: str,
        compute,
        root_hash: Optional[str] = None,
    ) -> np.ndarray:
        """Resolve one node: from the store, or by running ``compute()``.

        Single-flight semantics: when several threads miss the same node
        concurrently, exactly one runs ``compute()`` while the others wait on
        the node's lock stripe and are then served the stored output (and
        accounted as hits) — so per-stage compute counts equal the number of
        distinct nodes however many callers share the memo.
        """
        signal = self.fetch(stage_name, key, root_hash)
        if signal is not None:
            return signal
        stripe = self._stripes[hash(key) % self._N_STRIPES]
        with stripe:
            signal = self.fetch(stage_name, key, root_hash)
            if signal is not None:
                return signal
            with obs_span("stage.compute", stage=stage_name):
                started = time.perf_counter()
                signal = compute()
                with self._lock:
                    self.stats.counts[stage_name, "miss"] += 1
                    if root_hash is not None:
                        _remember(self._computed_roots, key, root_hash)
                checksum = self.store.put(key, signal)
                if checksum is not None:
                    # As in fetch: the SQLite row's checksum is the content
                    # hash of the output just computed.
                    with self._lock:
                        _remember(self._hashes, key, checksum)
                _RESOLVE_SECONDS.labels(stage_name, "miss").observe(
                    time.perf_counter() - started
                )
        return signal
