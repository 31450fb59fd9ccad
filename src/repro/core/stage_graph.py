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
  same computation on the same bits — across designs, across records, and
  across offline/streaming execution.  The input hash of stage N+1 is the
  content hash of stage N's resolved *output*, computed once per node and
  cached on the memo, so a chain of N stages costs N incremental hashes.
* Node outputs live in a pluggable signal store (any object with
  ``get(key) -> Optional[ndarray]`` / ``put(key, ndarray)``): the default is
  the in-process :class:`MemoryStageStore`, and
  :mod:`repro.runtime.signal_store` opens the persistent SQLite store; both
  are the stores of :mod:`repro.core.store` with the signal codec.
* Per-stage hit/compute accounting (:class:`StageGraphStats`) feeds the
  runtime telemetry and the stage-memoization benchmark.  Hits are further
  classified by *reuse class*: ``classic`` (node computed by this memo under
  the same root recording), ``cross_record`` (computed under a different
  root), and ``warm`` (never computed by this memo — served from a shared or
  persistent store, or published there by a stream).

:class:`StageGraphMemo` is the object threaded through
:meth:`~repro.dsp.pan_tompkins.PanTompkinsPipeline.process`; the pipeline
stays oblivious to fingerprinting and storage, it just asks the memo before
running a stage and tells it afterwards.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from ..arithmetic.library import ArithmeticBackend
from ..dsp.stages import StageDefinition
from ..obs import metrics as obs_metrics
from ..obs.tracing import span as obs_span
from .fingerprint import signal_content_hash, signal_root_key, stage_node_key
from .store import MemoryStore

__all__ = [
    "StageGraphStats",
    "MemoryStageStore",
    "StageGraphMemo",
]

#: Capacity of the memo's per-node bookkeeping maps (output hashes and
#: computed-root provenance).  Entries are tiny (two hex strings), the cap
#: only guards against unbounded growth over very long-lived memos.
_BOOKKEEPING_ENTRIES = 4096

#: Stage-node resolution latency, labelled by stage name and hit class
#: (``classic`` / ``cross_record`` / ``warm`` for store hits, ``miss`` for
#: actual stage executions).  Process-wide across every memo instance.
_RESOLVE_SECONDS = obs_metrics.histogram(
    "repro_stage_resolve_seconds",
    "Stage-graph node resolution latency by stage and hit class.",
    labelnames=("stage", "result"),
)


# ------------------------------------------------------------- accounting
@dataclass
class StageGraphStats:
    """Per-stage hit/compute counters of one stage-graph memo.

    Hits are additionally broken down by reuse class: ``cross_record_hits``
    counts hits on nodes this memo computed under a *different* root
    recording, ``warm_hits`` counts hits on nodes this memo never computed at
    all (adopted, or found in a shared/persistent store).  Both are subsets of
    ``hits``.
    """

    computes: Dict[str, int] = field(default_factory=dict)
    hits: Dict[str, int] = field(default_factory=dict)
    cross_record_hits: Dict[str, int] = field(default_factory=dict)
    warm_hits: Dict[str, int] = field(default_factory=dict)

    def record(self, stage_name: str, hit: bool, reuse: str = "classic") -> None:
        """Account one stage-node resolution.

        ``reuse`` classifies a hit as ``"classic"``, ``"cross_record"`` or
        ``"warm"``; it is ignored for computes.
        """
        bucket = self.hits if hit else self.computes
        bucket[stage_name] = bucket.get(stage_name, 0) + 1
        if hit and reuse == "cross_record":
            self.cross_record_hits[stage_name] = (
                self.cross_record_hits.get(stage_name, 0) + 1
            )
        elif hit and reuse == "warm":
            self.warm_hits[stage_name] = self.warm_hits.get(stage_name, 0) + 1

    def computes_for(self, stage_name: str) -> int:
        """Number of times ``stage_name`` was actually executed."""
        return self.computes.get(stage_name, 0)

    def hits_for(self, stage_name: str) -> int:
        """Number of times ``stage_name`` was served from the store."""
        return self.hits.get(stage_name, 0)

    @property
    def total_computes(self) -> int:
        """Stage executions summed over all stages."""
        return sum(self.computes.values())

    @property
    def total_hits(self) -> int:
        """Store hits summed over all stages."""
        return sum(self.hits.values())

    @property
    def total_cross_record_hits(self) -> int:
        """Hits on nodes computed under a different root recording."""
        return sum(self.cross_record_hits.values())

    @property
    def total_warm_hits(self) -> int:
        """Hits on nodes this memo never computed (adopted / persistent store)."""
        return sum(self.warm_hits.values())

    def hit_rate(self, stage_name: Optional[str] = None) -> float:
        """Fraction of stage runs served from the store (0.0 when unused)."""
        if stage_name is None:
            hits, computes = self.total_hits, self.total_computes
        else:
            hits = self.hits_for(stage_name)
            computes = self.computes_for(stage_name)
        resolved = hits + computes
        return hits / resolved if resolved else 0.0

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """Per-stage snapshot (telemetry / CLI reporting)."""
        stages = sorted(
            set(self.computes)
            | set(self.hits)
            | set(self.cross_record_hits)
            | set(self.warm_hits)
        )
        return {
            name: {
                "computes": self.computes_for(name),
                "hits": self.hits_for(name),
                "cross_record_hits": self.cross_record_hits.get(name, 0),
                "warm_hits": self.warm_hits.get(name, 0),
                "hit_rate": self.hit_rate(name),
            }
            for name in stages
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
    approximation that was a bit-exact no-op), records with identical sample
    windows share the whole chain, and streaming runs warm-start from nodes
    an offline sweep computed.

    Parameters
    ----------
    store:
        Signal store holding node outputs.  Defaults to a bounded
        :class:`MemoryStageStore`; pass a persistent store from
        :mod:`repro.runtime.signal_store` to share nodes across processes
        and runs.
    stats:
        Hit/compute accounting; a fresh :class:`StageGraphStats` by default.
    """

    #: Number of single-flight lock stripes.  Concurrent resolutions of
    #: *different* nodes only contend when their keys hash to the same
    #: stripe (1/32 chance), while resolutions of the *same* node serialize,
    #: so every node is computed exactly once even under a thread pool.
    _N_STRIPES = 32

    def __init__(
        self,
        store: Optional[object] = None,
        stats: Optional[StageGraphStats] = None,
    ) -> None:
        self.store = store if store is not None else MemoryStageStore()
        self.stats = stats if stats is not None else StageGraphStats()
        self._lock = threading.Lock()
        self._stripes = [threading.Lock() for _ in range(self._N_STRIPES)]
        # node key -> content hash of the node's output (computed at most
        # once per node; this is what makes a chain of N stages cost N
        # incremental hashes instead of N^2 rehashes).
        self._hashes: "OrderedDict[str, str]" = OrderedDict()
        # node key -> root content hash the node was *computed* under by
        # this memo.  Absent for nodes served purely from an adopted or
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
            self._hashes[key] = digest
            while len(self._hashes) > _BOOKKEEPING_ENTRIES:
                self._hashes.popitem(last=False)
        return digest

    def chain_keys(
        self,
        samples: np.ndarray,
        stages: Sequence[StageDefinition],
        backends: Mapping[str, ArithmeticBackend],
    ) -> Dict[str, str]:
        """Node keys of a full pipeline chain, by stage name.

        Used by tests and benchmarks to reason about node identity.  Because
        keys are input-addressed, walking the chain needs the actual stage
        outputs: each is taken from the store when present and recomputed
        otherwise.  No hit/compute statistics are recorded.
        """
        keys: Dict[str, str] = {}
        current = np.asarray(samples, dtype=np.int64)
        input_hash = self.root_key(current)
        for stage in stages:
            backend = backends[stage.name]
            key = self.node_key(input_hash, stage, backend)
            keys[stage.name] = key
            output = self.store.get(key)
            if output is None:
                # Imported here: core -> dsp.fir at module scope would be
                # fine today, but the late import keeps this helper the only
                # coupling point.
                from ..dsp.fir import run_stage

                output = run_stage(current, stage, backend)
                self.adopt(key, output)
            current = output
            input_hash = self.output_hash(key, current)
        return keys

    # ------------------------------------------------------------ traffic
    def fetch(
        self, stage_name: str, key: str, root_hash: Optional[str] = None
    ) -> Optional[np.ndarray]:
        """Look up one node's output, accounting a hit when present.

        A miss is *not* accounted here — the pipeline reports the compute via
        :meth:`put` once the stage has actually run, so the counters always
        sum to the number of stage runs resolved.  ``root_hash`` (the content
        hash of the recording the current run started from) classifies the
        hit: a node this memo never computed is a *warm* hit, one computed
        under a different root is a *cross-record* hit.
        """
        started = time.perf_counter()
        signal = self.store.get(key)
        if signal is not None:
            with self._lock:
                computed_root = self._computed_roots.get(key)
                if computed_root is None:
                    reuse = "warm"
                elif root_hash is not None and computed_root != root_hash:
                    reuse = "cross_record"
                else:
                    reuse = "classic"
                self.stats.record(stage_name, hit=True, reuse=reuse)
            _RESOLVE_SECONDS.labels(stage_name, reuse).observe(
                time.perf_counter() - started
            )
        return signal

    def put(
        self,
        stage_name: str,
        key: str,
        signal: np.ndarray,
        root_hash: Optional[str] = None,
    ) -> None:
        """Store one freshly computed node output (accounted as a compute)."""
        with self._lock:
            self.stats.record(stage_name, hit=False)
            if root_hash is not None:
                self._computed_roots[key] = root_hash
                while len(self._computed_roots) > _BOOKKEEPING_ENTRIES:
                    self._computed_roots.popitem(last=False)
        self.store.put(key, signal)

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
        distinct nodes regardless of executor parallelism.
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
                self.put(stage_name, key, signal, root_hash)
                _RESOLVE_SECONDS.labels(stage_name, "miss").observe(
                    time.perf_counter() - started
                )
        return signal

    # ----------------------------------------------------------- adoption
    def adopt(self, key: str, signal: np.ndarray) -> None:
        """Inject one precomputed node output, without any accounting.

        Used by :meth:`chain_keys` and by the streaming pipeline when it
        publishes finalized stage outputs: the work happened elsewhere, so
        neither a hit nor a compute is recorded, and the node is *not*
        marked as computed under any root — later lookups classify as warm
        hits.
        """
        self.store.put(key, signal)
        self.output_hash(key, signal)
