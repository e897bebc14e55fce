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
included.

The unramified table of types A-D is built from coordinate blocks
(_unramified).  G2's answers, its table, its faces' invariants and so
what it attains, are read from the frozen table _g2.  Neither path
builds a root system or a Weyl group; the path through the faces'
Weyl groups (the pairs and classes off the root system, the Sommers
dual by j-induction) is the test suite's oracle.
"""

from __future__ import annotations

from collections import namedtuple

from .cartantype import ABCError, CartanType, _check_abc_rank
from .orbits import NilpotentOrbit, closure_leq, covers, dual_bv


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
    """A face J and its nodes J' weighted 0, as frozensets: the nodes
    where the dominant neutral element of the orbit on J's factors
    vanishes.  Both table paths, _unramified and G2's, build it."""
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


def _g2_invariant(ct: CartanType, labels) -> UnramifiedClassInvariant:
    """The invariant named by G2's (saturation, Sommers dual) labels."""
    orbit, dual_orbit = labels
    return UnramifiedClassInvariant(NilpotentOrbit(ct, g2_label=orbit),
                                    NilpotentOrbit(ct.dual, g2_label=dual_orbit))


def face_invariant(ct: CartanType, j, factor_orbits) -> UnramifiedClassInvariant:
    """The invariant of the lift of (J, O_J), O_J an orbit on each factor.
    For types A-D it is read from partitions (_classical, imported here
    on first use) on the block key (_labels.block_key), which reads J's
    factors off the nodes' coordinates, with no root system; G2's is
    read from its frozen table (_g2)."""
    if ct.series == "G":
        from . import _g2
        face = tuple(sorted(j))
        if face not in _g2.FACES:
            raise ABCError(f"J={list(face)} is not a face type of {ct}")
        labels = _g2.INVARIANTS.get((face, tuple(o.label() for o in factor_orbits)))
        if labels is None:
            raise DualityError("factor orbits do not match the pseudo-Levi")
        return _g2_invariant(ct, labels)
    from . import _classical, _labels
    return UnramifiedClassInvariant(*_classical.invariant(
        ct, _labels.block_key(ct, frozenset(j), tuple(factor_orbits))))


def leq_A(i1: UnramifiedClassInvariant, i2: UnramifiedClassInvariant) -> bool:
    if i1.orbit.system != i2.orbit.system:
        raise DualityError("cannot compare invariants across systems")
    return closure_leq(i1.orbit, i2.orbit) and \
        closure_leq(i2.dual_orbit, i1.dual_orbit)


def _table(ct: CartanType) -> tuple:
    """(rows, pairs, classes) of the unramified table of ct: G2's frozen
    one (_g2), else the one built from coordinate blocks (_unramified).
    Each is imported here on first use, so G2 never imports _unramified,
    and each checks the rank cap first, at call time (_unramified.table
    before its cache)."""
    if ct.series == "G":
        from . import _g2
        _check_abc_rank(ct)
        rows = tuple((_g2_invariant(ct, labels), count, ABCPair(frozenset(j), frozenset(jp)))
                     for labels, count, (j, jp) in _g2.ROWS)
        return (rows, *_g2.COUNTS)
    from . import _unramified
    return _unramified.table(ct)


def enumerate_nobc(ct: CartanType) -> tuple:
    """Deduplicated invariants over all affine Bala-Carter classes, each with
    the number of classes realizing it: ((invariant, count, representative)...),
    sorted by the representative, the least pair."""
    return _table(ct)[0]


def abc_counts(ct: CartanType) -> tuple:
    """(pairs, classes) of ct, from the table enumerate_nobc reads."""
    return _table(ct)[1:]


def achar_dual_one(ct: CartanType, dual_orbit: NilpotentOrbit) -> UnramifiedClassInvariant:
    """d_A(O^vee, 1) as an invariant pair: (d(O^vee), O^vee).

    Checks that the pair is attained by some affine Bala-Carter class;
    failure would contradict the surjectivity of the Sommers dual.  The
    invariant is constant on classes, so the check runs over pairs: the
    Sommers dual is computed only for pairs saturating to d(O^vee).

    For types A-D the check reads partitions (_classical, imported here
    on first use); G2's reads the rows of its frozen table (_g2).
    """
    if dual_orbit.system.series != ct.dual.series or \
            dual_orbit.system.rank != ct.rank:
        raise DualityError(f"{dual_orbit} is not an orbit of the dual of {ct}")
    inv = UnramifiedClassInvariant(dual_bv(dual_orbit), dual_orbit)
    if ct.series == "G":
        attained = any(row[0] == inv for row in enumerate_nobc(ct))
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
