"""The name of a split reductive group: series, rank and isogeny; the
caps of the affine Bala-Carter enumeration and of the character layer;
and UsageError, the command line's error for input that cannot be parsed.

Kept apart from rootdata so that validating a system, as every command
but a store hit does first, loads none of the root-system code.  The
caps live here so that every path reads one value at call time without
loading the character layer.  It defines no public function:
perfbench/tracer.py keeps self time only for the modules in its MODULES
list and fails on a traced call from any other.
"""

import math
import warnings
from collections import namedtuple
from functools import lru_cache, wraps

SERIES = ("A", "B", "C", "D", "G")

ABC_RANK_CAP = 5

GROUP_ORDER_CAP = 10 ** 6


class UsageError(ValueError):
    """An argument or a data file that cannot be parsed: exit code 2."""


class RootDataError(ValueError):
    pass


class ABCError(ValueError):
    pass


class CharError(ValueError):
    pass


def _check_abc_rank(ct):
    """Raise ABCError past ABC_RANK_CAP, read at call time."""
    if ct.rank > ABC_RANK_CAP:
        raise ABCError(f"rank {ct.rank} exceeds the enumeration cap {ABC_RANK_CAP}")


def _capped_cache(fn, check=_check_abc_rank):
    """lru_cache(fn) behind a cap: check(ct), the rank cap's unless given,
    runs at every call, before the cache, so a value built under a higher
    cap is never served past a lower one.  __wrapped__ is fn, the
    uncached body."""
    cached = lru_cache(maxsize=None)(fn)

    @wraps(fn)
    def call(ct):
        check(ct)
        return cached(ct)

    call.cache_info, call.cache_clear = cached.cache_info, cached.cache_clear
    return call


def _weyl_order(series, rank) -> int:
    if series == "A":
        return math.factorial(rank + 1)
    if series == "G":
        return 12
    order = 2 ** rank * math.factorial(rank)  # W(B_n) = W(C_n)
    return order // 2 if series == "D" else order


def _check_group_order(order):
    """Raise CharError past GROUP_ORDER_CAP, read at call time."""
    if order > GROUP_ORDER_CAP:
        raise CharError(f"group of order {order} exceeds cap {GROUP_ORDER_CAP}")


def _check_weyl_order(ct):
    """Raise CharError when ct's Weyl group is past GROUP_ORDER_CAP."""
    _check_group_order(_weyl_order(ct.series, ct.rank))


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
