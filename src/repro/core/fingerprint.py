"""Stable content fingerprints for design points and evaluation workloads.

Every caching layer in the reproduction — the result caches of
:mod:`repro.runtime.cache` (in memory or persistent) and the stage-graph
memoization of :mod:`repro.core.stage_graph` — keys results by *content*,
not by object identity.  A cached evaluation is only reusable when all of the following
match:

* the design point (per-stage LSB counts and elementary cells; the free-form
  ``name``/``description`` labels are deliberately excluded),
* the record set the design is evaluated on (names, sampling rates and the
  actual sample/annotation data),
* the evaluation parameters (peak-detection configuration, peak matching
  tolerance), and
* the library version (a pipeline change invalidates old results).

The combination is collapsed into SHA-256 hex digests, so keys are portable
across processes, runtime instances and (via the on-disk caches) runs.

Besides the whole-evaluation keys, this module also fingerprints the *nodes*
of the stage graph: one node is one stage run, keyed **input-addressed** as
``digest(content hash of the actual input signal, stage definition, backend,
library version)``.  Two stage runs share a node exactly when they would
perform the same computation on the same bits — regardless of *how* those
input bits were produced (which design, which record, offline or streamed).
The input content hash of a downstream stage is the content hash of its
upstream node's *output*, so a chain of N stages costs N incremental hashes
(each output hashed once), not N² rehashes.

The key schema is versioned (:data:`STAGE_KEY_SCHEMA`): persistent signal
stores tag themselves with the schema they were written under, so entries
from the older prefix-chain scheme are detected and purged instead of being
silently mixed with input-addressed nodes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, is_dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

from ..arithmetic.library import ArithmeticBackend
from ..dsp.stages import StageDefinition
from ..signals.records import ECGRecord
from .configurations import DesignPoint

__all__ = [
    "STAGE_KEY_SCHEMA",
    "design_point_key",
    "record_fingerprint",
    "workload_fingerprint",
    "evaluation_cache_key",
    "library_version",
    "stage_fingerprint",
    "backend_fingerprint",
    "signal_content_hash",
    "signal_root_key",
    "stage_node_key",
]

#: Version tag of the stage-node key scheme.  Persistent signal stores are
#: stamped with this tag; a store written under a different schema (e.g. the
#: pre-1.1 prefix-chain keys) is purged on open rather than mixed.
STAGE_KEY_SCHEMA = "input-addressed-v1"


def library_version() -> str:
    """Version of the repro library (part of every cache key)."""
    # Imported lazily: ``repro.__version__`` is assigned after the subpackage
    # imports in ``repro/__init__`` have run.
    from .. import __version__

    return __version__


def _digest(payload: object) -> str:
    """SHA-256 hex digest of a canonical-JSON rendering of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def design_point_key(design: DesignPoint) -> str:
    """Content hash of a design point.

    Two designs with the same per-stage settings hash identically even when
    their ``name``/``description`` labels differ (the labels are cosmetic), and
    stages left accurate (0 LSBs) do not contribute.
    """
    settings = sorted(
        (s.stage, s.lsbs, s.adder, s.multiplier)
        for s in design.stages
        if s.lsbs > 0
    )
    return _digest(settings)


def record_fingerprint(record: ECGRecord) -> str:
    """Content hash of one record (name, rate, samples and annotations).

    A self-describing JSON header carries every variable-length field's size
    and dtype, so field boundaries are unambiguous: two records whose
    concatenated bytes happen to coincide still hash differently.
    """
    header = json.dumps(
        {
            "name": record.name,
            "sample_rate_hz": int(record.sample_rate_hz),
            "samples": [str(record.samples.dtype), int(record.samples.size)],
            "r_peaks": [
                str(record.r_peak_indices.dtype),
                int(record.r_peak_indices.size),
            ],
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    hasher = hashlib.sha256()
    hasher.update(header.encode("utf-8"))
    hasher.update(b"\x00")
    hasher.update(record.samples.tobytes())
    hasher.update(b"\x00")
    hasher.update(record.r_peak_indices.tobytes())
    return hasher.hexdigest()


def workload_fingerprint(
    records: Sequence[ECGRecord],
    detection_config: Optional[object] = None,
    peak_tolerance_samples: int = 40,
) -> str:
    """Content hash of everything an evaluation depends on besides the design.

    The record *order* is irrelevant (quality metrics are averaged), so the
    per-record fingerprints are sorted before hashing.
    """
    if detection_config is None:
        config_payload: object = None
    elif is_dataclass(detection_config) and not isinstance(detection_config, type):
        config_payload = asdict(detection_config)
    else:  # pragma: no cover - defensive for exotic config objects
        config_payload = repr(detection_config)
    payload = {
        "library": library_version(),
        "records": sorted(record_fingerprint(record) for record in records),
        "detection_config": config_payload,
        "peak_tolerance_samples": int(peak_tolerance_samples),
    }
    return _digest(payload)


def evaluation_cache_key(design: DesignPoint, workload: str) -> str:
    """Cache key of one (design, workload) evaluation."""
    return _digest({"design": design_point_key(design), "workload": workload})


# ------------------------------------------------------- stage-graph nodes
@lru_cache(maxsize=None)
def stage_fingerprint(stage: StageDefinition) -> str:
    """Content hash of everything a stage's computation depends on.

    Covers the stage kind, the exact floating-point coefficients, the
    fixed-point parameters and the MWI window — but not the cosmetic
    ``description``/``label`` fields or the exploration bound
    ``max_approx_lsbs``, none of which influence the output signal.

    Computed once per stage definition: equal definitions quantise to the
    same coefficients and run the same computation, so they share one
    fingerprint.  Definitions are built by code, never from a request.
    """
    return _digest(
        {
            "name": stage.name,
            "kind": stage.kind,
            "coefficients": [float(c) for c in stage.coefficients],
            "coefficient_frac_bits": int(stage.coefficient_frac_bits),
            "output_shift": int(stage.output_shift),
            "window": int(stage.window),
        }
    )


#: Entries of the backend-fingerprint memo.  Fixed, because the LSB count in
#: a backend comes from requests and may take any value >= 0.
BACKEND_FINGERPRINT_ENTRIES = 1024


def backend_fingerprint(backend: ArithmeticBackend) -> str:
    """Content hash of an arithmetic backend's observable behaviour.

    Any backend that computes bit-exactly (zero approximated LSBs, or exact
    elementary cells) collapses onto a single "accurate" fingerprint, so the
    accurate reference chain is shared no matter how the accurate backend was
    spelled.
    """
    if backend.is_accurate:
        return _backend_digest(
            True, 0, "", "", int(backend.adder_width), int(backend.multiplier_width)
        )
    return _backend_digest(
        False,
        int(backend.approx_lsbs),
        backend.resolved_adder.name,
        backend.resolved_multiplier.name,
        int(backend.adder_width),
        int(backend.multiplier_width),
    )


@lru_cache(maxsize=BACKEND_FINGERPRINT_ENTRIES)
def _backend_digest(
    accurate: bool,
    approx_lsbs: int,
    adder: str,
    multiplier: str,
    adder_width: int,
    multiplier_width: int,
) -> str:
    """The digest behind :func:`backend_fingerprint`, memoised on its fields."""
    if accurate:
        payload: object = {
            "accurate": True,
            "adder_width": adder_width,
            "multiplier_width": multiplier_width,
        }
    else:
        payload = {
            "approx_lsbs": approx_lsbs,
            "adder": adder,
            "multiplier": multiplier,
            "adder_width": adder_width,
            "multiplier_width": multiplier_width,
        }
    return _digest(payload)


def signal_content_hash(signal: np.ndarray) -> str:
    """Pure content hash of one signal (dtype/size header + sample bytes).

    This is the currency of the input-addressed stage graph: a stage node's
    input is identified by this hash of the upstream output, nothing else.
    Deliberately *excludes* the library version — it is a statement about the
    bits, not about the code; the node key folds the version in separately.
    """
    signal = np.asarray(signal)
    header = json.dumps(
        {"dtype": str(signal.dtype), "size": int(signal.size)},
        sort_keys=True,
        separators=(",", ":"),
    )
    hasher = hashlib.sha256()
    hasher.update(header.encode("utf-8"))
    hasher.update(b"\x00")
    hasher.update(np.ascontiguousarray(signal).tobytes())
    return hasher.hexdigest()


def signal_root_key(samples: np.ndarray) -> str:
    """Content hash of the raw input recording (the graph's root).

    Under input-addressed keys the root carries no special structure: it is
    simply the content hash of the samples, i.e. the first stage's input
    hash.  Kept as a named function because the memo API and the streaming
    warm start both speak in terms of "the root".
    """
    return signal_content_hash(samples)


def stage_node_key(
    input_hash: str, stage: StageDefinition, backend: ArithmeticBackend
) -> str:
    """Input-addressed key of one stage-run node.

    ``input_hash`` is the content hash (:func:`signal_content_hash`) of the
    signal the stage actually consumes — for the first stage the raw samples,
    for every later stage the upstream node's *output*.  Because the key
    names the input bits rather than the settings chain that produced them,
    two designs (or two records, or a stream and an offline run) share a node
    whenever their computations coincide — e.g. suffix stages downstream of
    an approximation that happened to be a bit-exact no-op.  The library
    version and schema tag are folded in so a pipeline change or a key-scheme
    change invalidates every node.
    """
    return _digest(
        {
            "schema": STAGE_KEY_SCHEMA,
            "library": library_version(),
            "input": input_hash,
            "stage": stage_fingerprint(stage),
            "backend": backend_fingerprint(backend),
        }
    )
