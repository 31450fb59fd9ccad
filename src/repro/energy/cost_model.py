"""Compositional hardware cost model for the larger arithmetic blocks.

The paper's higher-level numbers (per-stage energies, the reduction curves of
Fig. 2 and Fig. 8, the design energies of Table 2 and Fig. 12) are obtained by
synthesising the composed blocks.  This module provides the analytic
counterpart: the cost of an ``N``-bit approximate ripple-carry adder and of an
``N x N`` recursive multiplier is computed by enumerating their elementary
modules (exactly the structures of Figs. 6 and 7) and summing the Table 1
costs of each module.

Two first-order synthesis effects are modelled because they materially change
the numbers and the paper relies on them:

* **Dead-cone elimination.**  When the approximate adder cell is a pure
  pass-through (e.g. ``ApproxAdd5``: ``Sum = Cout = B``), the partial products
  feeding the approximated low-order columns are never consumed, so any
  elementary multiplier block whose entire output lies below the approximation
  boundary is removed by synthesis (the paper observes the same effect:
  "approximating more than 4 LSBs truncates all active paths").
* **Constant-coefficient folding.**  FIR tap multipliers multiply by a known
  constant; elementary blocks whose coefficient digits are zero, or that only
  produce bits above the largest possible product bit, are synthesised away.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, List, Optional, Tuple

from ..arithmetic.full_adders import adder_cell as _adder_cell
from .synthesis import ModuleCost, adder_cost, multiplier_cost

__all__ = [
    "ElementaryModule",
    "ripple_carry_adder_cost",
    "enumerate_multiplier_modules",
    "recursive_multiplier_cost",
    "reduction_factors",
    "ReductionReport",
]


@dataclass(frozen=True)
class ElementaryModule:
    """One elementary module inside a composed block.

    Attributes
    ----------
    kind:
        ``"mult2x2"`` or ``"full_adder"``.
    offset:
        Bit position of the module's least-significant output within the
        composed block's output word.
    coefficient_bits:
        For multiplier blocks: the 2-bit slice of the B operand this block
        consumes, as ``(low_bit, high_bit_exclusive)``.  ``None`` for adders.
    """

    kind: str
    offset: int
    coefficient_bits: Optional[Tuple[int, int]] = None


@lru_cache(maxsize=None)
def _cell_is_pass_through(adder_name: str) -> bool:
    """True when the approximate adder cell ignores its A and carry inputs."""
    cell = _adder_cell(adder_name)
    for b in (0, 1):
        outputs = {cell.evaluate(a, b, cin) for a in (0, 1) for cin in (0, 1)}
        if len(outputs) != 1:
            return False
    return True


@lru_cache(maxsize=None)
def ripple_carry_adder_cost(
    width: int,
    approx_lsbs: int,
    approx_adder: str = "ApproxAdd5",
    accurate_adder: str = "Accurate",
) -> ModuleCost:
    """Cost of an ``N``-bit ripple-carry adder with ``k`` approximated slices.

    Area, power and energy are sums over the slices; delay is the ripple path,
    i.e. the sum of the per-slice delays.

    The result is memoised: :class:`ModuleCost` is an immutable value object
    and the cost is a pure function of its arguments, so design-space sweeps
    pay for each distinct configuration once per process.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    k = max(0, min(approx_lsbs, width))
    approx = adder_cost(approx_adder)
    accurate = adder_cost(accurate_adder)
    total = ModuleCost.zero()
    for _ in range(k):
        total = total.chained(approx)
    for _ in range(width - k):
        total = total.chained(accurate)
    return total


@lru_cache(maxsize=None)
def enumerate_multiplier_modules(width: int) -> Tuple[ElementaryModule, ...]:
    """Enumerate every elementary module of an ``N x N`` recursive multiplier.

    The enumeration mirrors :class:`repro.arithmetic.recursive_multiplier.
    RecursiveMultiplier`: four sub-multipliers plus three ``2w``-bit
    accumulation adders per recursion level, bottoming out at 2x2 blocks.

    The module list depends only on ``width``, so it is enumerated once per
    process and returned as an immutable tuple.
    """
    if width < 2 or width & (width - 1):
        raise ValueError(f"width must be a power of two >= 2, got {width}")

    modules: List[ElementaryModule] = []

    def _walk(block_width: int, offset: int, b_low_bit: int) -> None:
        if block_width == 2:
            modules.append(
                ElementaryModule(
                    kind="mult2x2",
                    offset=offset,
                    coefficient_bits=(b_low_bit, b_low_bit + 2),
                )
            )
            return
        half = block_width // 2
        _walk(half, offset, b_low_bit)                       # AL x BL
        _walk(half, offset + half, b_low_bit + half)         # AL x BH
        _walk(half, offset + half, b_low_bit)                # AH x BL
        _walk(half, offset + block_width, b_low_bit + half)  # AH x BH
        # Three 2*block_width-bit accumulation adders at this level.
        for _ in range(3):
            for slice_index in range(2 * block_width):
                modules.append(
                    ElementaryModule(kind="full_adder", offset=offset + slice_index)
                )

    _walk(width, 0, 0)
    return tuple(modules)


def _coefficient_digit_is_zero(coefficient: int, bit_range: Tuple[int, int]) -> bool:
    magnitude = abs(int(coefficient))
    low, high = bit_range
    digit = (magnitude >> low) & ((1 << (high - low)) - 1)
    return digit == 0


@lru_cache(maxsize=None)
def recursive_multiplier_cost(
    width: int,
    approx_lsbs: int,
    mult_cell: str = "AppMultV1",
    adder_cell: str = "ApproxAdd5",
    coefficient: Optional[int] = None,
) -> ModuleCost:
    """Cost of an ``N x N`` recursive multiplier with ``k`` approximated LSBs.

    Memoised like :func:`ripple_carry_adder_cost`: an exploration sweep asks
    for the same (width, lsbs, cells, coefficient) combinations over and over,
    and each is a pure function of its arguments.

    Parameters
    ----------
    width:
        Operand width (16 in the paper's case study).
    approx_lsbs:
        Number of product LSBs whose generating logic is approximated.
    mult_cell / adder_cell:
        Elementary cells deployed inside the approximated region.
    coefficient:
        When the multiplier multiplies by a known constant (an FIR tap), pass
        the quantised coefficient so constant folding can prune dead blocks.
    """
    k = max(0, min(approx_lsbs, 2 * width))
    approx_mult = multiplier_cost(mult_cell)
    approx_add = adder_cost(adder_cell)
    accurate_mult = multiplier_cost("AccMult")
    accurate_add = adder_cost("Accurate")
    pass_through = _cell_is_pass_through(adder_cell)

    coefficient_magnitude = abs(int(coefficient)) if coefficient is not None else None
    if coefficient_magnitude is not None:
        # A constant multiplication by zero or by a power of two synthesises
        # to pure wiring (a shift), so the tap costs nothing.  This is what
        # makes the differentiator stage (coefficients 2, 1, 0, -1, -2) so
        # cheap in hardware.
        if coefficient_magnitude == 0 or (
            coefficient_magnitude & (coefficient_magnitude - 1)
        ) == 0:
            return ModuleCost.zero()
    if coefficient_magnitude is not None:
        product_msb = width + max(1, coefficient_magnitude.bit_length())
    else:
        product_msb = 2 * width

    area = power = energy = 0.0
    adder_delay = 0.0
    mult_delay = 0.0
    for module in enumerate_multiplier_modules(width):
        if module.kind == "mult2x2":
            if coefficient_magnitude is not None:
                if _coefficient_digit_is_zero(coefficient_magnitude, module.coefficient_bits):
                    continue  # partial product is constant zero: synthesised away
                if module.offset >= product_msb:
                    continue  # cannot produce a live product bit
            if pass_through and module.offset + 4 <= k:
                continue  # entire output is inside the unread approximated cone
            cost = approx_mult if module.offset < k else accurate_mult
            mult_delay = max(mult_delay, cost.delay_ns)
        else:
            if coefficient_magnitude is not None and module.offset >= product_msb:
                continue
            cost = approx_add if module.offset < k else accurate_add
            adder_delay += cost.delay_ns
        area += cost.area_um2
        power += cost.power_uw
        energy += cost.energy_fj

    # Critical path: one elementary multiply followed by the accumulation
    # adder chain.  Dividing the summed adder delay by the recursion depth
    # approximates the fact that the three adders per level operate on
    # progressively wider words but in parallel branches.
    depth = max(1, (width).bit_length() - 1)
    delay = mult_delay + adder_delay / depth
    return ModuleCost(area_um2=area, delay_ns=delay, power_uw=power, energy_fj=energy)


@dataclass(frozen=True)
class ReductionReport:
    """Reduction factors of an approximate block relative to the accurate one."""

    area: float
    delay: float
    power: float
    energy: float

    def as_dict(self) -> dict:
        """Plain-dict view (handy for tabular reports)."""
        return {
            "area": self.area,
            "delay": self.delay,
            "power": self.power,
            "energy": self.energy,
        }


def _ratio(accurate: float, approximate: float) -> float:
    if approximate <= 0.0:
        return float("inf") if accurate > 0.0 else 1.0
    return accurate / approximate


def reduction_factors(accurate: ModuleCost, approximate: ModuleCost) -> ReductionReport:
    """Area/delay/power/energy reduction factors (accurate / approximate)."""
    return ReductionReport(
        area=_ratio(accurate.area_um2, approximate.area_um2),
        delay=_ratio(accurate.delay_ns, approximate.delay_ns),
        power=_ratio(accurate.power_uw, approximate.power_uw),
        energy=_ratio(accurate.energy_fj, approximate.energy_fj),
    )
