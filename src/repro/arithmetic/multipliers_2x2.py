"""Behavioural models of the elementary 2x2 unsigned multipliers.

The paper constructs its larger approximate multipliers recursively from
elementary 2x2 blocks: the accurate 2x2 multiplier, the Kulkarni et al.
underdesigned multiplier (``AppMultV1``) and a more aggressive variant from
Rehman et al.'s architectural-space exploration (``AppMultV2``).

Each block multiplies two 2-bit unsigned operands (values 0..3) and produces a
4-bit unsigned product, described here by an explicit 16-entry table.

``AccMult``
    Exact product.
``AppMultV1`` (Kulkarni)
    The classic underdesigned multiplier: ``3 x 3`` yields ``7`` (``0b111``)
    instead of ``9`` (``0b1001``); every other product is exact.  This saves
    the fourth output bit entirely.
``AppMultV2``
    More aggressive variant with two further low-magnitude errors
    (``2 x 3`` and ``3 x 2`` yield ``7`` instead of ``6``), trading a little
    more accuracy for the shorter critical path / lower energy reported in
    Table 1 of the paper.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

__all__ = [
    "Multiplier2x2Cell",
    "ACCURATE_MULT",
    "APP_MULT_V1",
    "APP_MULT_V2",
    "MULTIPLIER_CELLS",
    "multiplier_cell",
]

_OPERANDS: Tuple[Tuple[int, int], ...] = tuple((a, b) for a in range(4) for b in range(4))


@dataclass(frozen=True)
class Multiplier2x2Cell:
    """An elementary 2-bit x 2-bit (possibly approximate) multiplier.

    Parameters
    ----------
    name:
        Library name (``"AccMult"``, ``"AppMultV1"``, ``"AppMultV2"``).
    product_table:
        Mapping from ``(a, b)`` with ``a, b in 0..3`` to the 4-bit product.
    description:
        Human-readable description of the approximation.
    """

    name: str
    product_table: Mapping[Tuple[int, int], int]
    description: str = ""
    error_count: int = field(default=0, compare=False)
    max_error_magnitude: int = field(default=0, compare=False)
    # Lazily memoized derived tables (see FullAdderCell for the rationale).
    _flat_table: Optional[Tuple[int, ...]] = field(
        default=None, init=False, compare=False, repr=False
    )
    _np_table: Optional[np.ndarray] = field(
        default=None, init=False, compare=False, repr=False
    )
    _content_key: Optional[str] = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        missing = [op for op in _OPERANDS if op not in self.product_table]
        if missing:
            raise ValueError(
                f"product table for {self.name} is missing operand pairs: {missing}"
            )
        errors = 0
        max_err = 0
        for a, b in _OPERANDS:
            product = self.product_table[(a, b)]
            if not 0 <= product <= 15:
                raise ValueError(
                    f"product table for {self.name} has out-of-range output "
                    f"{product} for operands ({a}, {b})"
                )
            err = abs(product - a * b)
            if err:
                errors += 1
                max_err = max(max_err, err)
        object.__setattr__(self, "error_count", errors)
        object.__setattr__(self, "max_error_magnitude", max_err)

    # ------------------------------------------------------------------ API
    def evaluate(self, a: int, b: int) -> int:
        """Return the (possibly approximate) product of two 2-bit operands."""
        return self.product_table[(a & 0b11, b & 0b11)]

    @property
    def is_exact(self) -> bool:
        """True when every product matches the exact multiplication."""
        return self.error_count == 0

    @property
    def mean_error(self) -> float:
        """Mean absolute product error over all 16 operand pairs."""
        total = sum(
            abs(self.product_table[(a, b)] - a * b) for a, b in _OPERANDS
        )
        return total / len(_OPERANDS)

    def error_operands(self) -> List[Tuple[int, int]]:
        """Operand pairs whose product deviates from the exact value."""
        return [
            (a, b) for a, b in _OPERANDS if self.product_table[(a, b)] != a * b
        ]

    def output_table(self) -> Tuple[int, ...]:
        """Flat product table indexed by ``a*4 + b`` (for array lookups).

        Memoized: the instance is frozen, so the derived table never changes.
        """
        cached = self._flat_table
        if cached is None:
            cached = tuple(self.product_table[(a, b)] for a, b in _OPERANDS)
            object.__setattr__(self, "_flat_table", cached)
        return cached

    def numpy_table(self) -> np.ndarray:
        """Memoized 16-entry product table as a NumPy int64 array."""
        cached = self._np_table
        if cached is None:
            cached = np.asarray(self.output_table(), dtype=np.int64)
            object.__setattr__(self, "_np_table", cached)
        return cached

    def content_key(self) -> str:
        """Content hash of the cell's product table (canonical JSON/SHA-256).

        Used to key compiled LUTs in the process-wide registry, matching the
        content-addressing idiom of :mod:`repro.core.fingerprint`.
        """
        cached = self._content_key
        if cached is None:
            payload = json.dumps(
                {"kind": "mult2x2", "products": list(self.output_table())},
                sort_keys=True,
                separators=(",", ":"),
            )
            cached = hashlib.sha256(payload.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_content_key", cached)
        return cached

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Multiplier2x2Cell(name={self.name!r}, errors={self.error_count}, "
            f"max_error={self.max_error_magnitude})"
        )


def _exact_table() -> Dict[Tuple[int, int], int]:
    return {(a, b): a * b for a, b in _OPERANDS}


ACCURATE_MULT = Multiplier2x2Cell(
    name="AccMult",
    product_table=_exact_table(),
    description="Exact elementary 2x2 multiplier.",
)

_V1_TABLE = _exact_table()
_V1_TABLE[(3, 3)] = 7  # 0b111 instead of 0b1001 — the Kulkarni simplification.
APP_MULT_V1 = Multiplier2x2Cell(
    name="AppMultV1",
    product_table=_V1_TABLE,
    description=(
        "Kulkarni underdesigned 2x2 multiplier: 3*3 -> 7, all other products "
        "exact; drops the most-significant product bit."
    ),
)

_V2_TABLE = dict(_V1_TABLE)
_V2_TABLE[(2, 3)] = 7  # additional low-magnitude errors for a shorter path
_V2_TABLE[(3, 2)] = 7
APP_MULT_V2 = Multiplier2x2Cell(
    name="AppMultV2",
    product_table=_V2_TABLE,
    description=(
        "More aggressive 2x2 multiplier (Rehman-style variant): inherits the "
        "Kulkarni 3*3 -> 7 error and additionally maps 2*3 and 3*2 to 7."
    ),
)

#: All elementary multiplier cells keyed by their library name.
MULTIPLIER_CELLS: Dict[str, Multiplier2x2Cell] = {
    cell.name: cell for cell in (ACCURATE_MULT, APP_MULT_V1, APP_MULT_V2)
}


def multiplier_cell(name: str) -> Multiplier2x2Cell:
    """Look up an elementary multiplier cell by name (case-insensitive)."""
    for key, cell in MULTIPLIER_CELLS.items():
        if key.lower() == name.lower():
            return cell
    known = ", ".join(sorted(MULTIPLIER_CELLS))
    raise KeyError(f"unknown multiplier cell {name!r}; known cells: {known}")
