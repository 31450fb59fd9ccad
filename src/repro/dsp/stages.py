"""Definitions of the five Pan-Tompkins processing stages.

Each stage is described by a :class:`StageDefinition` carrying:

* the floating-point filter design (for FIR stages),
* the fixed-point quantisation parameters used by the hardware datapath,
* the operator inventory (number of adders / multipliers / registers) used by
  the hardware cost model, and
* the per-stage approximation limits the paper applies in its design-space
  exploration (Section 6.2 restricts the differentiator, squarer and
  moving-window-integrator to 4, 8 and 16 approximable LSBs respectively).

The concrete designs follow the paper's description of its FIR implementation
of the classic Pan-Tompkins algorithm at a 200 Hz sampling rate:

``low_pass``
    10th-order, 11-tap low-pass FIR with a 12 Hz cut-off
    (10 adders, 11 multipliers, 10 registers).
``high_pass``
    32-tap FIR selecting the 5-12 Hz QRS band.  A true even-length linear-
    phase high-pass cannot have a non-zero response at Nyquist, so the 32-tap
    design is realised as a 5-45 Hz band-pass; together with the preceding
    12 Hz low-pass it implements the paper's 5 Hz high-pass behaviour while
    preserving the 31-adder / 32-multiplier structure.
``derivative``
    Five-tap differentiator with coefficients (2, 1, 0, -1, -2)/8 — the
    "coefficients 2 and 1" the paper refers to.
``squarer``
    Point-wise squaring (a single 16x16 multiplier).
``moving_window_integral``
    150 ms (30-sample) moving-window integrator built from adders only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..arithmetic.library import ADDER_WIDTH_BITS, MULTIPLIER_WIDTH_BITS
from .fixed_point import coefficient_headroom_bits, quantize_coefficients

__all__ = [
    "StageDefinition",
    "STAGE_LPF",
    "STAGE_HPF",
    "STAGE_DERIVATIVE",
    "STAGE_SQUARER",
    "STAGE_MWI",
    "STAGE_NAMES",
    "pan_tompkins_stages",
    "stage_by_name",
    "DEFAULT_SAMPLE_RATE_HZ",
    "MWI_WINDOW_SAMPLES",
]

#: Sampling rate assumed by the original Pan-Tompkins design (and the paper).
DEFAULT_SAMPLE_RATE_HZ = 200

#: 150 ms moving-window integration window at 200 Hz.
MWI_WINDOW_SAMPLES = 30


@dataclass(frozen=True)
class StageDefinition:
    """Static description of one Pan-Tompkins processing stage.

    Parameters
    ----------
    name:
        Short identifier (``"low_pass"``, ``"high_pass"``, ``"derivative"``,
        ``"squarer"``, ``"moving_window_integral"``).
    kind:
        ``"fir"`` for coefficient-based filters, ``"squarer"`` for the
        point-wise square, ``"mwi"`` for the moving-window integrator.
    coefficients:
        Floating-point FIR coefficients (empty for non-FIR stages).
    coefficient_frac_bits:
        Number of fractional bits used when quantising the coefficients.
    output_shift:
        Right shift applied to the 32-bit accumulator to produce the 16-bit
        stage output.
    window:
        Window length in samples (only used by the MWI stage).
    max_approx_lsbs:
        Upper bound on the number of LSBs the paper allows to be approximated
        in this stage during design-space exploration.
    description:
        Human-readable stage summary.
    """

    name: str
    kind: str
    coefficients: Tuple[float, ...] = ()
    coefficient_frac_bits: int = 0
    output_shift: int = 0
    window: int = 0
    max_approx_lsbs: int = 16
    description: str = ""
    label: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("fir", "squarer", "mwi"):
            raise ValueError(f"unknown stage kind {self.kind!r}")
        if self.kind == "fir" and not self.coefficients:
            raise ValueError(f"FIR stage {self.name!r} needs coefficients")
        if self.kind == "mwi" and self.window < 2:
            raise ValueError(f"MWI stage {self.name!r} needs a window >= 2")

    # --------------------------------------------------------- fixed point
    def datapath_lsbs(self, output_lsbs: int) -> int:
        """Translate "output LSBs approximated" into datapath LSBs.

        The paper counts approximated LSBs at the *stage output* (Fig. 2:
        "the number of output LSBs approximated in the LPF").  The stage
        output is the 32-bit accumulator right-shifted by ``output_shift``,
        so approximating ``k`` output LSBs means the datapath operators are
        approximated up to bit ``k + output_shift``.
        """
        if output_lsbs <= 0:
            return 0
        return min(ADDER_WIDTH_BITS, output_lsbs + self.output_shift)

    def quantized_coefficients(self) -> np.ndarray:
        """Coefficients quantised to signed 16-bit fixed point.

        Quantised once per definition: every call returns the same
        read-only array, because every FIR stage run and every stage-cost
        evaluation reads it.
        """
        return _quantized_coefficients(self)

    # ------------------------------------------------------------ hardware
    @property
    def n_multipliers(self) -> int:
        """Number of 16x16 multipliers the stage instantiates."""
        if self.kind == "fir":
            return len(self.coefficients)
        if self.kind == "squarer":
            return 1
        return 0

    @property
    def n_adders(self) -> int:
        """Number of 32-bit accumulation adders the stage instantiates."""
        if self.kind == "fir":
            return max(0, len(self.coefficients) - 1)
        if self.kind == "mwi":
            return max(0, self.window - 1)
        return 0

    @property
    def n_registers(self) -> int:
        """Number of delay registers (tap-line storage) in the stage."""
        if self.kind == "fir":
            return max(0, len(self.coefficients) - 1)
        if self.kind == "mwi":
            return max(0, self.window - 1)
        return 0

    @property
    def n_taps(self) -> int:
        """Number of taps for FIR stages (0 otherwise)."""
        return len(self.coefficients) if self.kind == "fir" else 0

    @property
    def group_delay_samples(self) -> float:
        """Group delay contributed by the (linear-phase) stage, in samples."""
        if self.kind == "fir":
            return (len(self.coefficients) - 1) / 2.0
        if self.kind == "mwi":
            return (self.window - 1) / 2.0
        return 0.0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.label or self.name


@lru_cache(maxsize=None)
def _quantized_coefficients(stage: StageDefinition) -> np.ndarray:
    # Keyed on the definition's value: equal definitions hold equal
    # coefficients, so they share one array.  Definitions are built by code,
    # never from a request, so the memo stays small.
    if stage.kind != "fir":
        quantised = np.zeros(0, dtype=np.int64)
    else:
        quantised = quantize_coefficients(
            stage.coefficients, stage.coefficient_frac_bits, MULTIPLIER_WIDTH_BITS
        )
    quantised.setflags(write=False)
    return quantised


#: Pass-band gain applied to the two pre-processing filters.  The original
#: Pan-Tompkins integer implementation gives its filters large gains (36 for
#: the low-pass, 32 for the high-pass) so that the filtered signal uses the
#: full word width; a modest gain of two serves the same purpose here and
#: keeps the "k output LSBs approximated" axis commensurate with the paper's.
PREPROCESSING_GAIN = 2.0


def _frac_bits_for(coefficients: Sequence[float], cap: int = 14) -> int:
    """Fractional bits: as many as overflow headroom allows, capped at ``cap``."""
    return min(cap, coefficient_headroom_bits(coefficients))


# firwin(11, 12.0, fs=200) * PREPROCESSING_GAIN, written out (repr is exact).
_LPF_COEFFS = (
    0.01627731127240351, 0.044798712660250234, 0.1283578479883604,
    0.24975155297342766, 0.35918349178894715, 0.4032621666332228,
    0.35918349178894715, 0.24975155297342766, 0.1283578479883604,
    0.044798712660250234, 0.01627731127240351,
)
# firwin(32, [5.0, 45.0], fs=200, pass_zero=False) * PREPROCESSING_GAIN.
_HPF_COEFFS = (
    -0.0018749954122835707, 0.0009279286281125503, -0.0034223900719863934,
    -0.015277985611239898, -0.018448908857094902, -0.004251676022828725,
    -0.006022820996983705, -0.05262755158589916, -0.08829517641407786,
    -0.03971626834238399, 0.020316437660287765, -0.06632439842431899,
    -0.24158221331289081, -0.18352139673606904, 0.2570930790329555,
    0.7248459581329295, 0.7248459581329295, 0.2570930790329555,
    -0.18352139673606904, -0.24158221331289081, -0.06632439842431896,
    0.020316437660287758, -0.03971626834238399, -0.08829517641407783,
    -0.05262755158589915, -0.006022820996983703, -0.004251676022828725,
    -0.018448908857094902, -0.015277985611239898, -0.0034223900719863934,
    0.0009279286281125503, -0.0018749954122835707,
)
_DERIVATIVE_COEFFS = (0.25, 0.125, 0.0, -0.125, -0.25)

STAGE_LPF = StageDefinition(
    name="low_pass",
    kind="fir",
    coefficients=_LPF_COEFFS,
    coefficient_frac_bits=_frac_bits_for(_LPF_COEFFS),
    output_shift=_frac_bits_for(_LPF_COEFFS),
    max_approx_lsbs=16,
    description="11-tap 12 Hz low-pass FIR (noise/EMI removal).",
    label="Low Pass Filter",
)

STAGE_HPF = StageDefinition(
    name="high_pass",
    kind="fir",
    coefficients=_HPF_COEFFS,
    coefficient_frac_bits=_frac_bits_for(_HPF_COEFFS),
    output_shift=_frac_bits_for(_HPF_COEFFS),
    max_approx_lsbs=16,
    description="32-tap 5 Hz high-pass stage (baseline wander removal).",
    label="High Pass Filter",
)

STAGE_DERIVATIVE = StageDefinition(
    name="derivative",
    kind="fir",
    coefficients=_DERIVATIVE_COEFFS,
    # Three fractional bits make the quantised coefficients exactly
    # (2, 1, 0, -1, -2), the values the paper quotes for this stage.
    coefficient_frac_bits=3,
    output_shift=3,
    max_approx_lsbs=4,
    description="Five-tap differentiator extracting QRS slope information.",
    label="Differentiator",
)

STAGE_SQUARER = StageDefinition(
    name="squarer",
    kind="squarer",
    # The square of a full-scale 16-bit derivative sample occupies ~30 bits;
    # dropping 12 bits maps typical QRS slopes back into the 16-bit range
    # without saturating, which preserves the contrast between QRS energy and
    # the (approximation) noise floor.
    output_shift=12,
    max_approx_lsbs=8,
    description="Point-wise squaring (single 16x16 multiplier).",
    label="Squarer",
)

STAGE_MWI = StageDefinition(
    name="moving_window_integral",
    kind="mwi",
    window=MWI_WINDOW_SAMPLES,
    # Dividing by 32 (shift of 5) approximates the 1/30 window average with
    # shift-only hardware.
    output_shift=5,
    max_approx_lsbs=16,
    description="150 ms moving-window integrator (adders only).",
    label="Moving Window Integration",
)

#: Pipeline order used throughout the package.
STAGE_NAMES: Tuple[str, ...] = (
    "low_pass",
    "high_pass",
    "derivative",
    "squarer",
    "moving_window_integral",
)

_STAGES_BY_NAME: Dict[str, StageDefinition] = {
    stage.name: stage
    for stage in (STAGE_LPF, STAGE_HPF, STAGE_DERIVATIVE, STAGE_SQUARER, STAGE_MWI)
}

#: Short aliases accepted by :func:`stage_by_name`.
_ALIASES: Dict[str, str] = {
    "lpf": "low_pass",
    "hpf": "high_pass",
    "der": "derivative",
    "diff": "derivative",
    "sqr": "squarer",
    "swi": "moving_window_integral",
    "mwi": "moving_window_integral",
}


@lru_cache(maxsize=1)
def pan_tompkins_stages() -> Tuple[StageDefinition, ...]:
    """The five stages in pipeline order."""
    return tuple(_STAGES_BY_NAME[name] for name in STAGE_NAMES)


def stage_by_name(name: str) -> StageDefinition:
    """Look up a stage definition by name or common alias (case-insensitive)."""
    key = name.lower()
    key = _ALIASES.get(key, key)
    if key not in _STAGES_BY_NAME:
        known = ", ".join(list(_STAGES_BY_NAME) + sorted(_ALIASES))
        raise KeyError(f"unknown stage {name!r}; known stages/aliases: {known}")
    return _STAGES_BY_NAME[key]


def total_group_delay_samples(upto: Optional[str] = None) -> float:
    """Cumulative group delay of the pipeline up to (and including) a stage."""
    delay = 0.0
    for stage in pan_tompkins_stages():
        delay += stage.group_delay_samples
        if upto is not None and stage.name == stage_by_name(upto).name:
            break
    return delay


def stage_operator_summary() -> List[Dict[str, int]]:
    """Adder/multiplier/register inventory per stage (for reports and tests)."""
    return [
        {
            "stage": stage.name,
            "adders": stage.n_adders,
            "multipliers": stage.n_multipliers,
            "registers": stage.n_registers,
        }
        for stage in pan_tompkins_stages()
    ]
