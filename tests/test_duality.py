import itertools

import pytest

from orbitcalc import balacarter as bc
from orbitcalc import duality as du
from orbitcalc import weylrep as wr
from orbitcalc.orbits import (NilpotentOrbit, closure_leq, dual_bv,
                              enumerate_orbits, is_special, regular_orbit,
                              zero_orbit)
from orbitcalc.rootdata import CartanType, build_root_system

from oracles import alcove_symmetries, pair_invariant

ADJ = lambda s, r: CartanType(s, r, "adjoint")


def test_sommers_dual_zero_lift():
    for ct in [ADJ("A", 2), ADJ("B", 2), ADJ("G", 2)]:
        d = du.sommers_dual(ct, frozenset(), ())
        assert d == regular_orbit(ct.dual)


def test_sommers_dual_richardson_is_bv_dual():
    """For J inside Delta and the zero orbit of the Levi, d_S of the
    Richardson-type data equals d of the saturation."""
    for ct in [ADJ("B", 3), ADJ("C", 3), ADJ("A", 3), ADJ("D", 4)]:
        n = ct.rank
        for j in bc.proper_subsets(ct):
            if 0 in j:
                continue
            ctx = bc.pair_context(ct, j)
            zeros = tuple(zero_orbit(f.cartan_type()) for f in ctx.factors)
            lifted = bc.saturation(ct, j, zeros)
            # d_S(O, 1) = d(O) when the class datum is trivial (Levi case)
            # the zero orbit of a Levi has trivial class datum
            got = du.sommers_dual(ct, j, zeros)
            want_inv = du.UnramifiedClassInvariant(lifted, got)
            assert closure_leq(lifted, dual_bv(got)), (ct, j)


def test_bala_carter_rows_give_bv_duality():
    """Prop. about J inside Delta: invariant = (O_BC, d(O_BC)) exactly."""
    for ct in [ADJ("A", 2), ADJ("A", 3), ADJ("B", 2), ADJ("B", 3),
               ADJ("C", 3), ADJ("D", 4), ADJ("G", 2)]:
        for pair in bc.enumerate_pairs(ct):
            if 0 in pair.J:
                continue
            inv = pair_invariant(ct, pair)
            orbit = bc.pair_saturation(ct, pair)
            assert inv.orbit == orbit
            want = dual_bv(_into_dual(orbit))
            got_back = dual_bv(_into_dual(inv.dual_orbit, dual=True))
            assert inv.dual_orbit.system.series == ct.dual.series
            assert inv.dual_orbit == _same_orbit_in(ct.dual, want), (ct, pair)


def _into_dual(orbit, dual=False):
    """View an orbit of G as input of dual_bv (living in the dual of the
    target), keeping the partition/label."""
    src = orbit.system
    tgt = CartanType(src.series, src.rank,
                     "simply_connected" if src.isogeny == "adjoint" else "adjoint")
    if src.series == "G":
        return NilpotentOrbit(tgt, g2_label=orbit.g2_label)
    return NilpotentOrbit(tgt, partition=orbit.partition, mark=orbit.mark)


def _same_orbit_in(ct, orbit):
    if orbit.system.series == "G":
        return NilpotentOrbit(ct, g2_label=orbit.g2_label)
    return NilpotentOrbit(ct, partition=orbit.partition, mark=orbit.mark)


def test_g2_seven_invariants_and_class_names():
    ct = ADJ("G", 2)
    rows = du.enumerate_nobc(ct)
    assert len(rows) == 7
    assert all(cnt == 1 for _, cnt, _ in rows)
    by_pair = {}
    for inv, _, rep in rows:
        by_pair[(tuple(sorted(rep.J)), tuple(sorted(rep.Jprime)))] = inv
    inv_01 = by_pair[((0, 1), ())]
    inv_02 = by_pair[((0, 2), ())]
    assert inv_01.orbit.g2_label == "G2(a1)"
    assert inv_02.orbit.g2_label == "G2(a1)"
    assert {inv_01.dual_orbit.g2_label, inv_02.dual_orbit.g2_label} == {"A1", "A1~"}
    # the long-A2 pseudo-Levi carries the order-3 class
    assert du.g2_class_name(inv_01) == "(123)"
    assert du.g2_class_name(inv_02) == "(12)"
    assert inv_01.dual_orbit.g2_label == "A1"
    assert inv_02.dual_orbit.g2_label == "A1~"
    # the two subregular rows are strictly comparable in the A-order
    assert du.leq_A(inv_02, inv_01) != du.leq_A(inv_01, inv_02)


def test_leq_a_extremes_and_partial_order():
    for ct in [ADJ("G", 2), ADJ("A", 2), ADJ("B", 2)]:
        rows = du.enumerate_nobc(ct)
        invs = [r[0] for r in rows]
        bottom = du.UnramifiedClassInvariant(zero_orbit(ct), regular_orbit(ct.dual))
        top = du.UnramifiedClassInvariant(regular_orbit(ct), zero_orbit(ct.dual))
        assert bottom in invs and top in invs
        for i in invs:
            assert du.leq_A(bottom, i) and du.leq_A(i, top)
            assert du.leq_A(i, i)
        # antisymmetry on the deduplicated invariants
        for a in invs:
            for b in invs:
                if du.leq_A(a, b) and du.leq_A(b, a):
                    assert a == b


def test_ds_surjectivity():
    for ct in [ADJ("B", 2), ADJ("C", 2), ADJ("B", 3), ADJ("C", 3),
               ADJ("A", 1), ADJ("A", 2), ADJ("A", 3), ADJ("G", 2)]:
        hit = {row[0].dual_orbit for row in du.enumerate_nobc(ct)}
        assert hit == set(enumerate_orbits(ct.dual)), ct


def test_canoninv_part1():
    for ct in [ADJ("B", 2), ADJ("B", 3), ADJ("C", 3), ADJ("A", 3),
               ADJ("G", 2), ADJ("D", 4)]:
        for inv, _, _ in du.enumerate_nobc(ct):
            assert closure_leq(inv.orbit, dual_bv(inv.dual_orbit)), (ct, inv)


def test_achar_dual_one():
    for ct in [ADJ("B", 2), ADJ("G", 2), ADJ("A", 2)]:
        assert du.achar_dual_one(ct, zero_orbit(ct.dual)) == \
            du.UnramifiedClassInvariant(regular_orbit(ct), zero_orbit(ct.dual))
        assert du.achar_dual_one(ct, regular_orbit(ct.dual)) == \
            du.UnramifiedClassInvariant(zero_orbit(ct), regular_orbit(ct.dual))
        for o in enumerate_orbits(ct.dual):
            inv = du.achar_dual_one(ct, o)
            assert inv.dual_orbit == o
            assert inv.orbit == dual_bv(o)


def test_monotonicity_lemma():
    """Fixed face, growing orbits: invariants grow in the A-order."""
    for ct in [ADJ("A", 2), ADJ("B", 2), ADJ("C", 3), ADJ("B", 3), ADJ("G", 2)]:
        for j in bc.proper_subsets(ct):
            ctx = bc.pair_context(ct, j)
            lists = [enumerate_orbits(f.cartan_type()) for f in ctx.factors]
            tuples = list(itertools.product(*lists))
            invs = {}
            for t in tuples:
                try:
                    invs[t] = du.invariant_of(ct, j, t)
                except wr.JInductionTie:
                    pytest.skip("degenerate tie")
            for t1 in tuples:
                for t2 in tuples:
                    if all(closure_leq(a, b) for a, b in zip(t1, t2)):
                        assert du.leq_A(invs[t1], invs[t2]), (ct, j, t1, t2)


def test_omega_equivariance_of_invariant():
    for ct in [ADJ("A", 2), ADJ("B", 2), ADJ("D", 2)]:
        rs = build_root_system(ct)
        for sigma in alcove_symmetries(ct):
            perm = sigma.node_permutation(rs)
            for pair in bc.enumerate_pairs(ct):
                moved = bc.ABCPair(frozenset(perm[d] for d in pair.J),
                                   frozenset(perm[d] for d in pair.Jprime))
                assert pair_invariant(ct, pair) == pair_invariant(ct, moved)


def test_adjoint_an_invariant_count_is_partition_count():
    from orbitcalc.partitions import partitions_of
    for n in (1, 2, 3):
        rows = du.enumerate_nobc(ADJ("A", n))
        assert len(rows) == len(partitions_of(n + 1))
