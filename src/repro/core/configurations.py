"""Design-point representation and the paper's named hardware configurations.

A *design point* assigns, to each Pan-Tompkins stage, the number of
approximated output LSBs and the elementary adder / multiplier cells deployed
in that region.  Design points are what the error-resilience analysis sweeps,
what Algorithm 1 searches over, and what Fig. 12 tabulates as configurations
``A1``, ``A2`` and ``B1``..``B14``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Tuple

from ..arithmetic.library import ArithmeticBackend
from ..dsp.stages import STAGE_NAMES, stage_by_name
from ..energy.stage_costs import accurate_stage_cost, stage_cost

__all__ = [
    "StageApproximation",
    "DesignPoint",
    "PAPER_CONFIGURATIONS",
    "paper_configuration",
    "paper_configuration_names",
]

#: Default cells: the ones the paper restricts itself to in Section 6
#: "for the sake of simplicity".
DEFAULT_ADDER = "ApproxAdd5"
DEFAULT_MULTIPLIER = "AppMultV1"


@dataclass(frozen=True)
class StageApproximation:
    """Approximation setting of a single stage."""

    stage: str
    lsbs: int
    adder: str = DEFAULT_ADDER
    multiplier: str = DEFAULT_MULTIPLIER

    def __post_init__(self) -> None:
        canonical = stage_by_name(self.stage).name
        object.__setattr__(self, "stage", canonical)
        if self.lsbs < 0:
            raise ValueError(f"lsbs must be >= 0, got {self.lsbs}")

    def backend(self) -> ArithmeticBackend:
        """Arithmetic backend implementing this stage setting."""
        return ArithmeticBackend(
            approx_lsbs=self.lsbs,
            adder_cell=self.adder,
            multiplier_cell=self.multiplier,
        )

    @property
    def is_accurate(self) -> bool:
        """True when the stage is left untouched."""
        return self.lsbs == 0


@dataclass(frozen=True)
class DesignPoint:
    """A complete approximate processing-unit configuration.

    Stages not present in ``stages`` are accurate.  The ``name`` is free-form
    and used in reports (e.g. ``"B9"``).
    """

    stages: Tuple[StageApproximation, ...] = ()
    name: str = ""
    description: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        seen = set()
        for setting in self.stages:
            if setting.stage in seen:
                raise ValueError(f"duplicate stage {setting.stage!r} in design {self.name!r}")
            seen.add(setting.stage)

    # --------------------------------------------------------- constructors
    @staticmethod
    def from_lsbs(
        lsbs: Mapping[str, int],
        adder: str = DEFAULT_ADDER,
        multiplier: str = DEFAULT_MULTIPLIER,
        name: str = "",
        description: str = "",
    ) -> "DesignPoint":
        """Build a design point from a ``{stage: lsbs}`` mapping."""
        settings = tuple(
            StageApproximation(stage, k, adder, multiplier)
            for stage, k in lsbs.items()
            if k > 0
        )
        return DesignPoint(stages=settings, name=name, description=description)

    @staticmethod
    def accurate(name: str = "A2") -> "DesignPoint":
        """The accurate (zero approximation) hardware configuration."""
        return DesignPoint(stages=(), name=name, description="Accurate ASIC datapath")

    def replacing(self, setting: StageApproximation) -> "DesignPoint":
        """Return a copy with one stage's setting replaced (or added)."""
        others = tuple(s for s in self.stages if s.stage != setting.stage)
        kept = others + ((setting,) if setting.lsbs > 0 else ())
        return DesignPoint(stages=kept, name=self.name, description=self.description)

    # --------------------------------------------------------------- views
    def setting_for(self, stage: str) -> Optional[StageApproximation]:
        """The setting of ``stage`` (``None`` when the stage is accurate)."""
        canonical = stage_by_name(stage).name
        for setting in self.stages:
            if setting.stage == canonical:
                return setting
        return None

    def lsbs_for(self, stage: str) -> int:
        """Number of approximated output LSBs in ``stage``."""
        setting = self.setting_for(stage)
        return setting.lsbs if setting else 0

    def lsbs_map(self) -> Dict[str, int]:
        """Per-stage LSB assignment over all five stages."""
        return {name: self.lsbs_for(name) for name in STAGE_NAMES}

    def backends(self) -> Dict[str, ArithmeticBackend]:
        """Per-stage backends, ready for :class:`PanTompkinsPipeline`."""
        return {setting.stage: setting.backend() for setting in self.stages}

    @property
    def is_accurate(self) -> bool:
        """True when no stage is approximated."""
        return all(setting.is_accurate for setting in self.stages)

    # -------------------------------------------------------------- energy
    def energy_fj(self) -> float:
        """Per-activation energy of the full pipeline under this design."""
        total = 0.0
        for stage_name in STAGE_NAMES:
            setting = self.setting_for(stage_name)
            if setting is None or setting.lsbs == 0:
                total += accurate_stage_cost(stage_name).energy_fj
            else:
                total += stage_cost(
                    stage_name, setting.lsbs, setting.adder, setting.multiplier
                ).energy_fj
        return total

    def energy_reduction(self) -> float:
        """Energy-reduction factor relative to the accurate design (A2)."""
        accurate_energy = sum(
            accurate_stage_cost(name).energy_fj for name in STAGE_NAMES
        )
        approximate_energy = self.energy_fj()
        if approximate_energy <= 0.0:
            return float("inf")
        return accurate_energy / approximate_energy

    def summary(self) -> str:
        """One-line description, e.g. ``"B9: lpf=10 hpf=12 der=2 sqr=8 mwi=16"``."""
        short = {"low_pass": "lpf", "high_pass": "hpf", "derivative": "der",
                 "squarer": "sqr", "moving_window_integral": "mwi"}
        parts = [f"{short[name]}={self.lsbs_for(name)}" for name in STAGE_NAMES]
        label = self.name or "design"
        return f"{label}: " + " ".join(parts)


def _paper_design(name: str, lpf: int, hpf: int, der: int, sqr: int, mwi: int) -> DesignPoint:
    return DesignPoint.from_lsbs(
        {"lpf": lpf, "hpf": hpf, "der": der, "sqr": sqr, "mwi": mwi},
        name=name,
        description="Fig. 12 configuration",
    )


#: The hardware configurations of Fig. 12.  ``A1`` is the software execution
#: on a Raspberry Pi (handled by :mod:`repro.energy.software_energy`); ``A2``
#: is the accurate hardware; ``B1``..``B14`` are the approximate designs with
#: per-stage LSB assignments exactly as tabulated in the figure.
PAPER_CONFIGURATIONS: Dict[str, DesignPoint] = {
    "A2": DesignPoint.accurate("A2"),
    "B1": _paper_design("B1", 10, 8, 0, 0, 0),
    "B2": _paper_design("B2", 10, 12, 0, 0, 0),
    "B3": _paper_design("B3", 12, 8, 0, 0, 0),
    "B4": _paper_design("B4", 12, 12, 0, 0, 0),
    "B5": _paper_design("B5", 0, 0, 2, 8, 16),
    "B6": _paper_design("B6", 0, 0, 4, 8, 16),
    "B7": _paper_design("B7", 10, 8, 2, 8, 16),
    "B8": _paper_design("B8", 10, 8, 4, 8, 16),
    "B9": _paper_design("B9", 10, 12, 2, 8, 16),
    "B10": _paper_design("B10", 10, 12, 4, 8, 16),
    "B11": _paper_design("B11", 12, 8, 2, 8, 16),
    "B12": _paper_design("B12", 12, 8, 4, 8, 16),
    "B13": _paper_design("B13", 12, 12, 2, 8, 16),
    "B14": _paper_design("B14", 12, 12, 4, 8, 16),
}


def paper_configuration(name: str) -> DesignPoint:
    """Look up one of the Fig. 12 hardware configurations by name."""
    key = name.upper()
    if key not in PAPER_CONFIGURATIONS:
        raise KeyError(
            f"unknown configuration {name!r}; known: {', '.join(PAPER_CONFIGURATIONS)}"
        )
    return PAPER_CONFIGURATIONS[key]


def paper_configuration_names() -> Iterable[str]:
    """Names of the Fig. 12 hardware configurations (A2, B1..B14)."""
    return list(PAPER_CONFIGURATIONS)
