"""The name of a split reductive group: series, rank and isogeny; and the
rank cap of the affine Bala-Carter enumeration.

Kept apart from rootdata so that validating a system, as every command
does first, loads none of the root-system code.  The cap lives here so
that the pair enumeration (balacarter) and the partition path of
arthur-wf (_classical) read one value at call time without loading the
character layer.  It defines no public function: perfbench/tracer.py
keeps self time only for the modules in its MODULES list and fails on a
traced call from any other.
"""

from __future__ import annotations

import warnings
from collections import namedtuple

SERIES = ("A", "B", "C", "D", "G")

ABC_RANK_CAP = 5


class RootDataError(ValueError):
    pass


class ABCError(ValueError):
    pass


def _check_abc_rank(ct):
    """Raise ABCError past ABC_RANK_CAP, read at call time."""
    if ct.rank > ABC_RANK_CAP:
        raise ABCError(f"rank {ct.rank} exceeds the enumeration cap {ABC_RANK_CAP}")


class CartanType(namedtuple("CartanType", "series rank isogeny")):
    __slots__ = ()

    def __new__(cls, series, rank, isogeny="adjoint"):
        return cls._validated(series, rank, isogeny)

    @classmethod
    def _make(cls, iterable):  # namedtuple's _make skips __new__
        return cls._validated(*iterable)

    def _replace(self, /, **kwds):  # namedtuple's would add its own frame
        result = self._validated(*map(kwds.pop, self._fields, self))
        if kwds:
            raise ValueError(f"Got unexpected field names: {list(kwds)!r}")
        return result

    @classmethod
    def _validated(cls, series, rank, isogeny="adjoint"):
        """The checked record.  Each entry point above calls this directly,
        so stacklevel=3 names the line that called the entry point."""
        if series not in SERIES:
            raise RootDataError(f"unknown series {series!r}")
        if isogeny not in ("adjoint", "simply_connected"):
            raise RootDataError(f"unknown isogeny {isogeny!r}")
        if rank < 1:
            raise RootDataError("rank must be positive")
        if series == "G" and rank != 2:
            raise RootDataError("series G requires rank 2")
        if series == "D" and rank < 2:
            raise RootDataError("series D requires rank >= 2")
        if series in ("B", "C") and rank < 2:
            # B1 and C1 have the same root datum as A1
            warnings.warn(f"{series}1 normalized to A1", stacklevel=3)
            series = "A"
        return super().__new__(cls, series, rank, isogeny)

    @property
    def dual(self) -> "CartanType":
        dual_series = {"A": "A", "B": "C", "C": "B", "D": "D", "G": "G"}[self.series]
        dual_isogeny = {"adjoint": "simply_connected",
                        "simply_connected": "adjoint"}[self.isogeny]
        return CartanType(dual_series, self.rank, dual_isogeny)

    def __str__(self):
        return f"{self.series}{self.rank}"
