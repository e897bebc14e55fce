"""G2's frozen table (orbitcalc._g2) against the path through the faces'
Weyl groups that it replaced and that stays its oracle: balacarter's
faces, pairs and classes, and invariant_of, the saturation with the
Sommers dual by j-induction (oracles).

g2_data reads the module's four tables off the oracle, in the module's
own form; the test compares each with the module in both isogenies (G2's
center is trivial, so they agree), so any edit to the data fails it.
The library's readers of the table (duality, wavefront) are compared
with the oracle as well.
"""

from itertools import product

import pytest

from orbitcalc import _g2
from orbitcalc import duality as du
from orbitcalc import wavefront as wf
from orbitcalc.cartantype import ABCError
from orbitcalc.orbits import enumerate_orbits
from orbitcalc.rootdata import CartanType

import balacarter as bc
from oracles import invariant_of, table_by_classes

ISOGENIES = ("adjoint", "simply_connected")


def g2_data(ct):
    """(FACES, COUNTS, ROWS, INVARIANTS) of ct, read off the oracle."""
    affs = bc.build_root_system(ct).affine_simples
    faces, invariants = {}, {}
    for j in bc.proper_subsets(ct):
        node = {affs[i][0]: i for i in j}
        factors = bc._face_factors(ct, j)
        face = tuple(sorted(j))
        faces[face] = tuple((f.kind, f.series, f.rank, tuple(node[b] for b in f.basis))
                            for f in factors)
        for orbs in product(*(enumerate_orbits(f.cartan_type()) for f in factors)):
            inv = invariant_of(ct, j, orbs)
            invariants[face, tuple(o.label() for o in orbs)] = \
                (inv.orbit.label(), inv.dual_orbit.label())
    rows, pairs, classes = table_by_classes(ct)
    rows = tuple(((inv.orbit.label(), inv.dual_orbit.label()), count,
                  (tuple(sorted(p.J)), tuple(sorted(p.Jprime))))
                 for inv, count, p in rows)
    return faces, (pairs, classes), rows, invariants


@pytest.mark.parametrize("iso", ISOGENIES)
def test_g2_data_is_the_oracles(iso):
    """7 faces in proper_subsets' order with their factors in its frames,
    8 pairs in 7 classes, the 7 rows, and the invariants of all 19
    (face, factor orbit tuple)."""
    faces, counts, rows, invariants = g2_data(CartanType("G", 2, iso))
    assert list(_g2.FACES.items()) == list(faces.items())
    assert _g2.COUNTS == counts == (8, 7)
    assert _g2.ROWS == rows
    assert _g2.INVARIANTS == invariants and len(invariants) == 19


@pytest.mark.parametrize("iso", ISOGENIES)
def test_g2_readers_match_the_oracle(iso):
    """duality's table, lifts and attainment and wavefront's faces read
    from _g2 give the oracle's answers."""
    ct = CartanType("G", 2, iso)
    assert (du.enumerate_nobc(ct), *du.abc_counts(ct)) == table_by_classes(ct)
    for j in bc.proper_subsets(ct):
        assert wf._face_factors(ct, j) == _g2.FACES[tuple(sorted(j))]
        factors = bc._face_factors(ct, j)
        for orbs in product(*(enumerate_orbits(f.cartan_type()) for f in factors)):
            assert du.face_invariant(ct, j, orbs) == invariant_of(ct, j, orbs), (j, orbs)
    # each of the 5 dual orbits attains its row: arthur-wf answers them all
    rows = {row[0] for row in table_by_classes(ct)[0]}
    assert {du.achar_dual_one(ct, o) for o in enumerate_orbits(ct.dual)} <= rows


def test_g2_lifts_refuse_what_the_table_lacks():
    ct = CartanType("G", 2)
    a1 = enumerate_orbits(CartanType("A", 1))
    with pytest.raises(ABCError, match=r"^J=\[0, 1, 2\] is not a face type of G2$"):
        du.face_invariant(ct, {0, 1, 2}, ())
    with pytest.raises(du.DualityError, match="do not match the pseudo-Levi"):
        du.face_invariant(ct, {0, 2}, a1[:1])
