"""The full Pan-Tompkins QRS detection pipeline on a configurable datapath.

:class:`PanTompkinsPipeline` chains the five processing stages defined in
:mod:`repro.dsp.stages` and the decision stage of :mod:`repro.dsp.detection`.
Each stage can be given its own :class:`~repro.arithmetic.library.
ArithmeticBackend`, which is exactly how XBioSiP deploys different numbers of
approximated LSBs per stage (the B1..B14 configurations of Fig. 12).

The pipeline exposes every intermediate signal in its result object because
the methodology evaluates quality at two points: the pre-processing output
(high-pass-filtered signal, judged by PSNR/SSIM) and the final output (QRS
peaks, judged by peak-detection accuracy).

Execution is decomposed into *stage nodes*: :meth:`PanTompkinsPipeline.
process` runs the stage plan one node at a time and, when given a stage
memo (:class:`~repro.core.stage_graph.StageGraphMemo`), resolves each node
through the memo's content-addressed store before computing it.  The memo
protocol is deliberately tiny — ``walk(samples, plan, visit)`` derives every
node key and ``resolve(stage_name, key, compute, root_hash)`` serves or
computes one node — so this module stays free of fingerprinting and storage
concerns.  Node keys are *input-addressed*: the walk threads the content
hash of each resolved output into the next stage's key, so any two runs
that perform the same computation on the same bits share a node, whatever
design, record or execution mode produced those bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple, Union

import numpy as np

from ..arithmetic.library import ArithmeticBackend, accurate_backend
from ..signals.adc import adc_codes
from .detection import PeakDetectionResult, detect_peaks
from .fir import run_stage
from .stages import (
    DEFAULT_SAMPLE_RATE_HZ,
    STAGE_NAMES,
    StageDefinition,
    pan_tompkins_stages,
    stage_by_name,
)

__all__ = ["PanTompkinsResult", "PanTompkinsPipeline"]

BackendSpec = Union[ArithmeticBackend, Mapping[str, ArithmeticBackend], None]


@dataclass
class PanTompkinsResult:
    """All intermediate and final outputs of one pipeline run.

    Attributes
    ----------
    stage_outputs:
        Mapping from stage name to its 16-bit integer output signal.
    detection:
        Result of the adaptive-threshold decision stage.
    sample_rate_hz:
        Sampling rate of the processed record.
    """

    stage_outputs: Dict[str, np.ndarray] = field(default_factory=dict)
    detection: PeakDetectionResult = field(default_factory=PeakDetectionResult)
    sample_rate_hz: int = DEFAULT_SAMPLE_RATE_HZ

    @property
    def preprocessed(self) -> np.ndarray:
        """Output of the data pre-processing section (high-pass stage)."""
        return self.stage_outputs["high_pass"]

    @property
    def integrated(self) -> np.ndarray:
        """Output of the moving-window integrator."""
        return self.stage_outputs["moving_window_integral"]

    @property
    def peak_indices(self) -> np.ndarray:
        """Accepted QRS peak locations (MWI time axis)."""
        return self.detection.peak_array()

    @property
    def peak_count(self) -> int:
        """Number of QRS peaks detected."""
        return self.detection.peak_count

    def heart_rate_bpm(self) -> float:
        """Mean heart rate estimated from the detected RR intervals."""
        peaks = self.peak_indices
        if peaks.size < 2:
            return 0.0
        rr_seconds = np.diff(peaks) / float(self.sample_rate_hz)
        mean_rr = float(np.mean(rr_seconds))
        return 60.0 / mean_rr if mean_rr > 0 else 0.0


class PanTompkinsPipeline:
    """Pan-Tompkins QRS detector with per-stage arithmetic configuration.

    Parameters
    ----------
    backends:
        Either a single backend applied to every stage, a mapping from stage
        name (or alias, e.g. ``"lpf"``) to backend, or ``None`` for the fully
        accurate datapath.  Stages without an entry default to accurate.
    sample_rate_hz:
        Sampling rate of the input records (the filter designs assume 200 Hz).

    Examples
    --------
    >>> from repro.arithmetic import ArithmeticBackend
    >>> pipeline = PanTompkinsPipeline(
    ...     backends={"low_pass": ArithmeticBackend(approx_lsbs=8,
    ...                                             adder_cell="ApproxAdd5",
    ...                                             multiplier_cell="AppMultV1")})
    """

    def __init__(
        self,
        backends: BackendSpec = None,
        sample_rate_hz: int = DEFAULT_SAMPLE_RATE_HZ,
    ) -> None:
        self.stages = pan_tompkins_stages()
        self.sample_rate_hz = sample_rate_hz
        self._backends = self._normalise_backends(backends)

    # ------------------------------------------------------------ plumbing
    @staticmethod
    def _normalise_backends(backends: BackendSpec) -> Dict[str, ArithmeticBackend]:
        resolved: Dict[str, ArithmeticBackend] = {
            name: accurate_backend() for name in STAGE_NAMES
        }
        if backends is None:
            return resolved
        if isinstance(backends, ArithmeticBackend):
            return {name: backends for name in STAGE_NAMES}
        for key, backend in backends.items():
            stage = stage_by_name(key)
            resolved[stage.name] = backend
        return resolved

    def backend_for(self, stage: Union[str, StageDefinition]) -> ArithmeticBackend:
        """Return the backend configured for a stage."""
        name = stage.name if isinstance(stage, StageDefinition) else stage_by_name(stage).name
        return self._backends[name]

    def describe(self) -> Dict[str, str]:
        """Per-stage human-readable approximation summary."""
        return {name: self._backends[name].describe() for name in STAGE_NAMES}

    def stage_plan(self) -> Tuple[Tuple[StageDefinition, ArithmeticBackend], ...]:
        """The execution plan: (stage, backend) pairs in pipeline order.

        This is the linear stage graph one pipeline run traverses; the
        memoized executor keys each node off this plan.
        """
        return tuple(
            (stage, self._backends[stage.name]) for stage in self.stages
        )

    # ----------------------------------------------------------------- run
    def process(
        self, samples: np.ndarray, memo: Optional[object] = None
    ) -> PanTompkinsResult:
        """Run the full pipeline on a 16-bit integer ECG recording.

        Parameters
        ----------
        samples:
            One-dimensional array of ADC codes; anything else raises a
            ``ValueError`` (:func:`~repro.signals.adc.adc_codes`).
        memo:
            Optional stage memo (:class:`~repro.core.stage_graph.
            StageGraphMemo` or anything with its ``walk`` and ``resolve``).
            Each stage node is looked up in the memo before being computed,
            and fresh outputs are stored back — runs through a memo are
            bit-identical to memo-less runs, they just skip recomputing
            nodes the memo has already seen.
        """
        samples = adc_codes(samples)
        if samples.ndim != 1:
            raise ValueError("expected a one-dimensional sample array")
        if samples.size == 0:
            raise ValueError("cannot process an empty recording")

        result = PanTompkinsResult(sample_rate_hz=self.sample_rate_hz)
        if memo is None:
            current = samples
            for stage, backend in self.stage_plan():
                current = run_stage(current, stage, backend)
                result.stage_outputs[stage.name] = current
        else:

            def resolve(stage, backend, key, signal, root):
                return memo.resolve(
                    stage.name, key, lambda: run_stage(signal, stage, backend), root
                )

            result.stage_outputs = memo.walk(samples, self.stage_plan(), resolve)

        result.detection = detect_peaks(result.integrated, result.preprocessed)
        return result

    def process_stage(
        self, samples: np.ndarray, stage: Union[str, StageDefinition]
    ) -> np.ndarray:
        """Run a single stage in isolation on this pipeline's backend."""
        definition = stage if isinstance(stage, StageDefinition) else stage_by_name(stage)
        return run_stage(np.asarray(samples, dtype=np.int64), definition, self._backends[definition.name])
