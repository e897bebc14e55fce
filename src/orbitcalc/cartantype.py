"""The name of a split reductive group: series, rank and isogeny.

Kept apart from rootdata so that validating a system, as every command
does first, loads none of the root-system code.  It defines no public
function: perfbench/tracer.py keeps self time only for the modules in its
MODULES list and fails on a traced call from any other.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

SERIES = ("A", "B", "C", "D", "G")


class RootDataError(ValueError):
    pass


@dataclass(frozen=True)
class CartanType:
    series: str
    rank: int
    isogeny: str = "adjoint"

    def __post_init__(self):
        if self.series not in SERIES:
            raise RootDataError(f"unknown series {self.series!r}")
        if self.isogeny not in ("adjoint", "simply_connected"):
            raise RootDataError(f"unknown isogeny {self.isogeny!r}")
        if self.rank < 1:
            raise RootDataError("rank must be positive")
        if self.series == "G" and self.rank != 2:
            raise RootDataError("series G requires rank 2")
        if self.series == "D" and self.rank < 2:
            raise RootDataError("series D requires rank >= 2")
        if self.series in ("B", "C") and self.rank < 2:
            # B1 and C1 have the same root datum as A1
            warnings.warn(f"{self.series}1 normalized to A1", stacklevel=3)
            object.__setattr__(self, "series", "A")

    @property
    def dual(self) -> "CartanType":
        dual_series = {"A": "A", "B": "C", "C": "B", "D": "D", "G": "G"}[self.series]
        dual_isogeny = {"adjoint": "simply_connected",
                        "simply_connected": "adjoint"}[self.isogeny]
        return CartanType(dual_series, self.rank, dual_isogeny)

    def __str__(self):
        return f"{self.series}{self.rank}"
