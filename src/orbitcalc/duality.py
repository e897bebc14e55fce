"""The Sommers dual of lifted data, Achar's d_A(-, 1), the invariant pair
encoding of unramified orbit classes, and the A-order.

An unramified class is recorded as the faithful pair

    (orbit of G, dual orbit of G^vee) = (saturation, Sommers dual)

and two invariants compare in the A-order when the first components compare
in closure order and the second components compare the other way.

achar_dual_one checks that (d(O^vee), O^vee) is attained, and
face_invariant gives the invariant of a face with an orbit on each
factor, local-wf's lift of each face character.  For types A-D both
read partitions (_classical, imported on first use), very even marks
included; G2 runs invariant_of and sommers_dual, through the faces'
Weyl groups (balacarter, weylrep), which stay the oracle.

The unramified table of types A-D is built from coordinate blocks
(_unramified); G2 takes balacarter's classes, which stay the oracle.
Both group their rows in _rows.
"""

from __future__ import annotations

from collections import namedtuple

# balacarter and weylrep run on first use (see __init__): a classical
# achar_dual_one or face_invariant never runs them, nor the character
# layer under them
from . import balacarter as bc
from . import weylrep as wr
from .cartantype import ABCError, CartanType, _capped_cache
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


class ABCPair(namedtuple("ABCPair", "J Jprime")):
    """A face J and its nodes J' weighted 0 (balacarter), as frozensets;
    here so that _unramified builds it without running balacarter."""
    __slots__ = ()

    def __new__(cls, J, Jprime):
        if not Jprime <= J:
            raise ABCError("J' must be a subset of J")
        return super().__new__(cls, J, Jprime)

    @classmethod
    def _make(cls, iterable):  # validated, as CartanType._make
        return cls(*iterable)

    def sort_key(self):
        return (len(self.J), tuple(sorted(self.J)), len(self.Jprime),
                tuple(sorted(self.Jprime)))

    def to_json(self):
        return {"J": sorted(self.J), "Jprime": sorted(self.Jprime)}


def sommers_dual(ct: CartanType, j, factor_orbits) -> NilpotentOrbit:
    """d_S of the lift of (J, O_J): dualize inside the pseudo-Levi, take the
    attached special representation, j-induce, and read the Springer orbit
    on the dual side.

    Raises weylrep.JInductionTie, carrying the candidates, if the
    induced character has no unique minimal-b constituent; the tests
    meet none on the pairs and face characters they compare.
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


def face_invariant(ct: CartanType, j, factor_orbits) -> UnramifiedClassInvariant:
    """The invariant of the lift of (J, O_J), O_J an orbit on each factor.
    For types A-D it is read from partitions (_classical, imported here
    on first use) on the block key (_labels.block_key), which reads J's
    factors off the nodes' coordinates, with no root system; G2 takes
    invariant_of, which stays the oracle."""
    if ct.series == "G":
        return invariant_of(ct, j, factor_orbits)
    from . import _classical, _labels
    return UnramifiedClassInvariant(*_classical.invariant(
        ct, _labels.block_key(ct, frozenset(j), tuple(factor_orbits))))


def leq_A(i1: UnramifiedClassInvariant, i2: UnramifiedClassInvariant) -> bool:
    if i1.orbit.system != i2.orbit.system:
        raise DualityError("cannot compare invariants across systems")
    return closure_leq(i1.orbit, i2.orbit) and \
        closure_leq(i2.dual_orbit, i1.dual_orbit)


def _block_table(ct: CartanType):
    """_unramified.table(ct) for types A-D, else None: G2 never imports
    _unramified."""
    if ct.series != "G":
        from . import _unramified
        return _unramified.table(ct)
    return None


@_capped_cache  # cartantype.ABC_RANK_CAP, before the cache
def enumerate_nobc(ct: CartanType) -> tuple:
    """Deduplicated invariants over all affine Bala-Carter classes, each with
    the number of classes realizing it: ((invariant, count, representative)...)."""
    table = _block_table(ct)
    if table is not None:
        return table[0]
    return _rows((invariant_of(ct, p.J, bc.distinguished_factor_orbits(ct, p)), i, p)
                 for i, (p, *_) in enumerate(bc.classes(ct)))


def _rows(entries) -> tuple:
    """The rows of an unramified table from (invariant, class, pair)
    entries, one per pair or one per class: ((invariant, number of
    classes, least pair), ...), sorted by the least pair.  Private:
    perfbench's tracer wraps duality's public functions."""
    rows = {}  # invariant -> (classes, least pair)
    for inv, cls, pair in entries:
        classes, least = rows.setdefault(inv, (set(), pair))
        classes.add(cls)
        if pair.sort_key() < least.sort_key():
            rows[inv] = classes, pair
    return tuple(sorted(((inv, len(classes), rep) for inv, (classes, rep) in rows.items()),
                        key=lambda row: row[2].sort_key()))


def abc_counts(ct: CartanType) -> tuple:
    """(pairs, classes) of ct, from the table enumerate_nobc reads."""
    table = _block_table(ct)
    if table is not None:
        return table[1:]
    return len(bc.enumerate_pairs(ct)), len(bc.classes(ct))


def achar_dual_one(ct: CartanType, dual_orbit: NilpotentOrbit) -> UnramifiedClassInvariant:
    """d_A(O^vee, 1) as an invariant pair: (d(O^vee), O^vee).

    Checks that the pair is attained by some affine Bala-Carter class;
    failure would contradict the surjectivity of the Sommers dual.  The
    invariant is constant on classes, so the check runs over pairs: the
    Sommers dual is computed only for pairs saturating to d(O^vee).

    For types A-D the check reads partitions (_classical, imported here
    on first use); G2 takes the path through the faces' Weyl groups and
    j-induction, up to the first hit.
    """
    if dual_orbit.system.series != ct.dual.series or \
            dual_orbit.system.rank != ct.rank:
        raise DualityError(f"{dual_orbit} is not an orbit of the dual of {ct}")
    inv = UnramifiedClassInvariant(dual_bv(dual_orbit), dual_orbit)
    if ct.series == "G":
        attained = any(
            sommers_dual(ct, p.J, bc.distinguished_factor_orbits(ct, p)) == dual_orbit
            for p in bc.enumerate_pairs(ct) if bc.pair_saturation(ct, p) == inv.orbit)
    else:
        from . import _classical
        attained = _classical.attained(ct, dual_orbit, inv.orbit)
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
