"""Replay sources: drive a stream session from a synthesized record.

A :class:`ReplaySource` slices an :class:`~repro.signals.records.ECGRecord`
(or any sample array) into fixed-size chunks and optionally paces their
delivery against the wall clock: at ``realtime_factor=1.0`` chunks arrive at
the record's own sampling rate (the wearable scenario), larger factors
replay faster, and ``0`` disables pacing entirely (as-fast-as-possible, the
mode tests and benchmarks use).

Pacing uses an absolute schedule (chunk *k* is due at ``start + k·period /
factor``) rather than per-chunk sleeps, so delivery does not drift when a
consumer is slow: a late consumer simply gets the next chunk immediately.
"""

from __future__ import annotations

import time
from typing import Iterator

import numpy as np

from ..signals.records import ECGRecord

__all__ = ["ReplaySource"]


class ReplaySource:
    """Chunked, optionally real-time-paced iteration over a record."""

    def __init__(
        self,
        record: ECGRecord,
        chunk_samples: int = 50,
        realtime_factor: float = 0.0,
    ) -> None:
        if chunk_samples <= 0:
            raise ValueError("chunk_samples must be positive")
        if realtime_factor < 0:
            raise ValueError("realtime_factor must be non-negative")
        self.record = record
        self.chunk_samples = int(chunk_samples)
        self.realtime_factor = float(realtime_factor)
        self.samples = np.asarray(record.samples, dtype=np.int64)
        self.sample_rate_hz = record.sample_rate_hz

    @property
    def chunk_count(self) -> int:
        """Number of chunks this source will deliver."""
        size = self.samples.size
        return (size + self.chunk_samples - 1) // self.chunk_samples

    @property
    def chunk_period_s(self) -> float:
        """Signal time covered by one full chunk, in seconds."""
        return self.chunk_samples / float(self.sample_rate_hz)

    def chunks(self) -> Iterator[np.ndarray]:
        """Yield the record's chunks, paced when a real-time factor is set."""
        start = time.monotonic()
        for index in range(self.chunk_count):
            if self.realtime_factor > 0:
                due = start + index * self.chunk_period_s / self.realtime_factor
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
            lo = index * self.chunk_samples
            yield self.samples[lo : lo + self.chunk_samples]

    def __iter__(self) -> Iterator[np.ndarray]:
        return self.chunks()
