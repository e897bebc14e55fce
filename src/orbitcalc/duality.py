"""The Sommers dual of lifted data, Achar's d_A(-, 1), the invariant pair
encoding of unramified orbit classes, and the A-order.

An unramified class is recorded as the faithful pair

    (orbit of G, dual orbit of G^vee) = (saturation, Sommers dual)

and two invariants compare in the A-order when the first components compare
in closure order and the second components compare the other way.

achar_dual_one checks that (d(O^vee), O^vee) is attained.  For types A-D
it reads partitions (_classical, imported on first use); G2 and the
queries that partitions do not decide run sommers_dual, through the
faces' Weyl groups (balacarter, weylrep), which stays the oracle.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

# balacarter and weylrep run on first use (see __init__): a classical
# achar_dual_one never runs them, nor the character layer under them
from . import balacarter as bc
from . import weylrep as wr
from .cartantype import CartanType
from .orbits import (NilpotentOrbit, closure_leq, covers, dual_bv, dual_ls,
                     springer_rep_label)


class DualityError(ValueError):
    pass


class UnramifiedClassInvariant(namedtuple("UnramifiedClassInvariant",
                                          "orbit dual_orbit")):
    __slots__ = ()

    def to_json(self):
        return {"orbit": self.orbit.to_json(),
                "dual_orbit": self.dual_orbit.to_json()}

    def __str__(self):
        return f"({self.orbit.label()}, {self.dual_orbit.label()}^v)"


def sommers_dual(ct: CartanType, j, factor_orbits) -> NilpotentOrbit:
    """d_S of the lift of (J, O_J): dualize inside the pseudo-Levi, take the
    attached special representation, j-induce, and read the Springer orbit
    on the dual side.

    Raises weylrep.JInductionTie when a degenerate type-D special
    representation has no unique minimal-b constituent; the tie carries
    both candidates.
    """
    ctx = bc.pair_context(ct, frozenset(j))
    if len(factor_orbits) != len(ctx.factors):
        raise DualityError("factor orbits do not match the pseudo-Levi")
    e = ctx._irrep(tuple(springer_rep_label(dual_ls(orb)) for orb in factor_orbits))
    jim = wr.j_induce(ctx, e)
    return wr.springer_orbit(wr.ambient_context(ct), jim, target=ct.dual)


def invariant_of(ct: CartanType, j, factor_orbits) -> UnramifiedClassInvariant:
    return UnramifiedClassInvariant(
        bc.saturation(ct, frozenset(j), factor_orbits),
        sommers_dual(ct, j, factor_orbits))


def pair_invariant(ct: CartanType, pair: bc.ABCPair) -> UnramifiedClassInvariant:
    return invariant_of(ct, pair.J, bc.distinguished_factor_orbits(ct, pair))


def leq_A(i1: UnramifiedClassInvariant, i2: UnramifiedClassInvariant) -> bool:
    if i1.orbit.system != i2.orbit.system:
        raise DualityError("cannot compare invariants across systems")
    return closure_leq(i1.orbit, i2.orbit) and \
        closure_leq(i2.dual_orbit, i1.dual_orbit)


@lru_cache(maxsize=None)
def enumerate_nobc(ct: CartanType) -> tuple:
    """Deduplicated invariants over all affine Bala-Carter classes, each with
    the number of classes realizing it: ((invariant, count, representative)...)."""
    rows = {}
    for cls in bc.classes(ct):
        rep = cls[0]
        inv = pair_invariant(ct, rep)
        if inv in rows:
            cnt, first_rep = rows[inv]
            rows[inv] = (cnt + 1, min(first_rep, rep, key=lambda p: p.sort_key()))
        else:
            rows[inv] = (1, rep)
    out = [(inv, cnt, rep) for inv, (cnt, rep) in rows.items()]
    out.sort(key=lambda row: row[2].sort_key())
    return tuple(out)


def achar_dual_one(ct: CartanType, dual_orbit: NilpotentOrbit) -> UnramifiedClassInvariant:
    """d_A(O^vee, 1) as an invariant pair: (d(O^vee), O^vee).

    Checks that the pair is attained by some affine Bala-Carter class;
    failure would contradict the surjectivity of the Sommers dual.  The
    invariant is constant on classes, so the check runs over pairs: the
    Sommers dual is computed only for pairs saturating to d(O^vee).

    For types A-D the check reads partitions (_classical, imported here
    on first use); G2, and the queries that partitions do not decide (a
    very even O^vee or d(O^vee) in type D), take the path through the
    faces' Weyl groups and j-induction, up to the first hit.
    """
    if dual_orbit.system.series != ct.dual.series or \
            dual_orbit.system.rank != ct.rank:
        raise DualityError(f"{dual_orbit} is not an orbit of the dual of {ct}")
    inv = UnramifiedClassInvariant(dual_bv(dual_orbit), dual_orbit)
    attained = None
    if ct.series != "G":
        from . import _classical
        attained = _classical.attained(ct, dual_orbit, inv.orbit)
    if attained is None:
        attained = any(
            sommers_dual(ct, p.J, bc.distinguished_factor_orbits(ct, p)) == dual_orbit
            for p in bc.enumerate_pairs(ct) if bc.pair_saturation(ct, p) == inv.orbit)
    if not attained:
        raise DualityError(f"invariant {inv} not realized by any class")
    return inv


# ---------------------------------------------------------------------
# the G2 display table
# ---------------------------------------------------------------------

def g2_class_name(inv: UnramifiedClassInvariant) -> str:
    """Conjugacy-class name in the component group S3 of the subregular
    orbit, as display metadata for the seven G2 rows."""
    if inv.orbit.g2_label != "G2(a1)":
        return "1"
    return {"G2(a1)": "1", "A1~": "(12)", "A1": "(123)"}[inv.dual_orbit.g2_label]


def hasse_edges_A(ct: CartanType):
    """Cover relations of the A-order on the enumerated invariants."""
    return covers([row[0] for row in enumerate_nobc(ct)], leq_A)
