"""Content-addressed result caches for the exploration runtime.

Design evaluations are expensive (one approximate pipeline run per record),
deterministic and keyed by content (:mod:`repro.core.fingerprint`), which
makes them ideal cache citizens.  The caches are the two stores of
:mod:`repro.core.store` bound to the :data:`EVALUATIONS` codec (canonical
JSON of :func:`serialize_evaluation`):

* :class:`MemoryResultCache` — the in-process LRU.
* :class:`SQLiteResultCache` — the ``evaluations`` table of a SQLite file;
  the right choice when runs or processes share one cache.

Both are unbounded by default; ``max_entries`` caps either and
``max_bytes`` budgets the SQLite one, with oldest-first eviction.  SQLite
rows are checksummed, and a corrupt row is dropped, counted in
``stats.corrupt`` and reported as a miss, so the runtime simply recomputes
it.  The cache keys already fold in the library version through the
workload fingerprint.
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from ..core.configurations import DesignPoint, StageApproximation
from ..core.quality import DesignEvaluation
from ..core.store import Codec, MemoryStore, SQLiteStore

__all__ = [
    "EVALUATIONS",
    "MemoryResultCache",
    "SQLiteResultCache",
    "open_cache",
    "serialize_evaluation",
    "deserialize_evaluation",
]


# ------------------------------------------------------------ serialization
def serialize_evaluation(evaluation: DesignEvaluation) -> Dict[str, object]:
    """JSON-serialisable rendering of one :class:`DesignEvaluation`."""
    return {
        "design": {
            "name": evaluation.design.name,
            "description": evaluation.design.description,
            "stages": [
                {
                    "stage": s.stage,
                    "lsbs": s.lsbs,
                    "adder": s.adder,
                    "multiplier": s.multiplier,
                }
                for s in evaluation.design.stages
            ],
        },
        "psnr_db": float(evaluation.psnr_db),
        "ssim_value": float(evaluation.ssim_value),
        "peak_accuracy": float(evaluation.peak_accuracy),
        "detected_peaks": int(evaluation.detected_peaks),
        "true_peaks": int(evaluation.true_peaks),
        "energy_reduction": float(evaluation.energy_reduction),
        "per_record_accuracy": {
            name: float(value)
            for name, value in evaluation.per_record_accuracy.items()
        },
    }


def deserialize_evaluation(payload: Dict[str, object]) -> DesignEvaluation:
    """Inverse of :func:`serialize_evaluation`."""
    design_payload = payload["design"]
    design = DesignPoint(
        stages=tuple(
            StageApproximation(
                stage=s["stage"],
                lsbs=int(s["lsbs"]),
                adder=s["adder"],
                multiplier=s["multiplier"],
            )
            for s in design_payload["stages"]
        ),
        name=design_payload.get("name", ""),
        description=design_payload.get("description", ""),
    )
    return DesignEvaluation(
        design=design,
        psnr_db=float(payload["psnr_db"]),
        ssim_value=float(payload["ssim_value"]),
        peak_accuracy=float(payload["peak_accuracy"]),
        detected_peaks=int(payload["detected_peaks"]),
        true_peaks=int(payload["true_peaks"]),
        energy_reduction=float(payload["energy_reduction"]),
        per_record_accuracy=dict(payload["per_record_accuracy"]),
    )


def _encode_evaluation(evaluation: DesignEvaluation) -> bytes:
    document = serialize_evaluation(evaluation)
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _decode_evaluation(payload: bytes) -> DesignEvaluation:
    return deserialize_evaluation(json.loads(payload))


#: Whole design evaluations as canonical JSON.
EVALUATIONS = Codec(
    tier="result_cache",
    table="evaluations",
    tag="design-evaluation-json-v1",
    encode=_encode_evaluation,
    decode=_decode_evaluation,
)


# ------------------------------------------------------------------- caches
class MemoryResultCache(MemoryStore):
    """In-process LRU of design evaluations (unbounded by default)."""

    def __init__(self, max_entries: Optional[int] = None) -> None:
        super().__init__(max_entries, codec=EVALUATIONS)


class SQLiteResultCache(SQLiteStore):
    """Design evaluations in a SQLite file (unbounded by default)."""

    def __init__(
        self,
        path: str,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        super().__init__(path, max_entries, max_bytes, codec=EVALUATIONS)


def open_cache(
    path: Optional[str] = None,
    max_entries: Optional[int] = None,
    max_bytes: Optional[int] = None,
):
    """A result cache: in memory for ``path=None``, else the SQLite file at
    ``path``.  ``None`` caps leave it unbounded; ``max_bytes`` needs a path."""
    if path is None:
        if max_bytes is not None:
            raise ValueError("max_bytes requires a persistent cache backend")
        return MemoryResultCache(max_entries)
    return SQLiteResultCache(path, max_entries, max_bytes)
