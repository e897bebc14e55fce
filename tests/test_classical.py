"""The partition path (orbitcalc._classical) against the path through the
faces' Weyl groups and j-induction, which it replaces for types A-D in
arthur-wf, in the unramified tables and in local-wf, and which stays the
oracle.

A face's pairs are compared as a multiset of (saturation, Sommers dual),
very even marks included.  A pair's invariant, as the unramified tables
read it (_classical.invariant on _labels.block_key), is compared with
invariant_of pair by pair.  The tests marked slow run the same
comparisons at ranks 6-8 with the caps raised inside the test (pytest
-m slow).  So are the lifts of every
character of every face group (duality.face_invariant, as local-wf reads
them), up to rank 4 in tier-1 and at ranks 5 and 6 in the slow tier.
The faces' factors, as local-wf and the key read them off the nodes'
coordinates (_labels.face_factors), are compared with balacarter's,
read off the root system, on every face up to rank 5 in tier-1 and at
ranks 6-8 in the slow tier; the key with the key read through the root
system (oracles.block_key_by_roots) on every face and tuple of factor
orbits up to rank 5.
"""

import warnings
from collections import Counter
from functools import lru_cache
from itertools import product

import pytest

from orbitcalc import _classical as cl
from orbitcalc import _labels
from orbitcalc import orbits
from orbitcalc import balacarter as bc
from orbitcalc import cartantype
from orbitcalc import duality as du
from orbitcalc.cartantype import CartanType
from orbitcalc import partitions as pt
from orbitcalc.orbits import (NilpotentOrbit, dual_bv, dual_ls, enumerate_orbits,
                              springer_rep_label)

from oracles import block_key_by_roots, block_partition


def pair_key(ct, pair):
    return _labels.block_key(ct, pair.J, bc.distinguished_factor_orbits(ct, pair))


def face_blocks(series, rank, j):
    """The sorted (kind, m) of J's blocks, free coordinates included."""
    return tuple(sorted((kind, m) for kind, m, _ in cl.blocks(series, rank, j)))


@lru_cache(maxsize=None)
def keys_by_face(series, rank):
    out = {}
    for face, _, _, key in cl.pair_choices(series, rank):
        out.setdefault(face, []).append(key)
    return out


def face_pairs(ct, j):
    """The block keys of the pairs on the face J."""
    return tuple(keys_by_face(ct.series, ct.rank)[j])


def todays_face(ct, j):
    return Counter(tuple(du.invariant_of(ct, p.J, bc.distinguished_factor_orbits(ct, p)))
                   for p in bc.enumerate_pairs(ct) if p.J == j)


def partition_face(ct, j):
    return Counter(cl.invariant(ct, key) for key in face_pairs(ct, j))


def compare_faces(ct):
    """(faces, pairs, very even duals) of ct, after checking that the two
    paths agree on every face."""
    faces = bc.proper_subsets(ct)
    assert set(faces) == set(cl.faces(ct.series, ct.rank)), ct
    pairs = very_even = 0
    for j in faces:
        rows = partition_face(ct, j)
        assert rows == todays_face(ct, j), (ct, sorted(j))
        pairs += sum(rows.values())
        very_even += sum(n for (_, dual), n in rows.items() if dual.very_even)
    return len(faces), pairs, very_even


def outcome(fn):
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the outcome is the error
        return type(exc), str(exc)


def attained_by_pairs(ct, dual_orbit, target):
    """achar_dual_one's check through the faces' Weyl groups, which G2
    takes: some pair saturates to target with Sommers dual dual_orbit."""
    return any(du.sommers_dual(ct, p.J, bc.distinguished_factor_orbits(ct, p)) == dual_orbit
               for p in bc.enumerate_pairs(ct) if bc.pair_saturation(ct, p) == target)


def compare_queries(monkeypatch, systems):
    """(queries, errors) of achar_dual_one on every dual orbit of the
    systems, after checking that the partition path and the path through
    the faces' Weyl groups give the same answer or the same error."""
    queries = [(ct, o) for ct in systems for o in enumerate_orbits(ct.dual)]
    partition_path = [outcome(lambda: du.achar_dual_one(ct, o)) for ct, o in queries]
    with monkeypatch.context() as m:
        m.setattr(cl, "attained", attained_by_pairs)
        todays_path = [outcome(lambda: du.achar_dual_one(ct, o)) for ct, o in queries]
    for query, new, old in zip(queries, partition_path, todays_path):
        assert new == old, query
    errors = sum(not isinstance(r, du.UnramifiedClassInvariant) for r in partition_path)
    return len(queries), errors


def test_d2_face_is_a1_x_a1():
    """{a0, a1} of D4 is one D2 block on e_0, e_1, where today's path sees
    two A1 factors; one pair either way, with the same invariants."""
    ct = CartanType("D", 4)
    j = frozenset({0, 1})
    assert face_blocks("D", 4, j) == (("A", 1), ("A", 1), ("D", 2))
    assert [(f.series, f.rank) for f in bc._face_factors(ct, j)] == [("A", 1), ("A", 1)]
    assert face_pairs(ct, j) == (((("A", 1), (1,)), (("A", 1), (1,)),
                                     (("D", 2), (3, 1))),)
    assert partition_face(ct, j) == todays_face(ct, j)
    # the same block in B_n, and D2 itself
    assert face_blocks("B", 3, j) == (("A", 1), ("D", 2))
    assert face_blocks("D", 2, frozenset({0, 2})) == (("D", 2),)


def test_d3_face_is_a3():
    """{a0, a1, a2} of D5 is one D3 block, where today's path sees A3."""
    ct = CartanType("D", 5)
    j = frozenset({0, 1, 2})
    assert face_blocks("D", 5, j) == (("A", 1), ("A", 1), ("D", 3))
    assert [(f.series, f.rank) for f in bc._face_factors(ct, j)] == [("A", 3)]
    assert partition_face(ct, j) == todays_face(ct, j)
    assert face_blocks("B", 4, j) == (("A", 1), ("D", 3))


def compare_pairs(ct):
    """(pairs, pairs with a very even saturation) of ct, after checking
    that partitions give every pair's invariant as invariant_of does,
    marks included."""
    pairs = bc.enumerate_pairs(ct)
    very_even = 0
    for p in pairs:
        oracle = du.invariant_of(ct, p.J, bc.distinguished_factor_orbits(ct, p))
        assert cl.invariant(ct, pair_key(ct, p)) == tuple(oracle), (ct, p)
        very_even += oracle.orbit.very_even
    return len(pairs), very_even


def test_block_key_d2_is_two_a1_factors():
    """D4's {a0, a1} is two A1 factors and one D2 block, whose one
    distinguished orbit (3, 1) the key takes."""
    ct = CartanType("D", 4)
    pair = bc.ABCPair(frozenset({0, 1}), frozenset())
    assert pair_key(ct, pair) == ((("A", 1), (1,)), (("A", 1), (1,)),
                                      (("D", 2), (3, 1)))
    assert pair_key(ct, pair) in face_pairs(ct, pair.J)
    assert compare_pairs(CartanType("D", 2)) == (9, 4)


def test_key_carries_a_very_even_saturations_mark():
    """D4's faces {a1, a3} and {a1, a4} are two A1 blocks each, on e_0, e_1
    and e_2, e_3, and both pairs saturate to (2,2,2,2).  h placed with the
    roots' signs is (1, -1, 1, -1) on e_0 - e_1 and e_2 - e_3, a positive
    product, mark II; and (1, -1, 1, 1) on e_0 - e_1 and e_2 + e_3, whose
    frame is e_2, -e_3, a negative product, mark I."""
    ct = CartanType("D", 4)
    blocks = ((("A", 2), (2,)), (("A", 2), (2,)))
    for j, mark in [({1, 3}, "II"), ({1, 4}, "I")]:
        pair = bc.ABCPair(frozenset(j), frozenset())
        assert pair_key(ct, pair) == blocks + (mark,)
        assert cl.saturation(ct, pair_key(ct, pair)) == bc.pair_saturation(ct, pair) == \
            NilpotentOrbit(ct, partition=(2, 2, 2, 2), mark=mark)
    assert cl.saturation(ct, blocks[:1] + ((("D", 2), (3, 1)),)).mark is None


def test_block_key_d3_is_an_a3_factor():
    ct = CartanType("D", 5)
    pair = bc.ABCPair(frozenset({0, 1, 2}), frozenset())
    assert [(f.series, f.rank) for f in bc._face_factors(ct, pair.J)] == [("A", 3)]
    assert pair_key(ct, pair) == ((("A", 1), (1,)), (("A", 1), (1,)),
                                      (("D", 3), (5, 1)))


def test_block_key_b1_c1_and_c2_from_a1_and_b2_factors():
    """An A1 factor on e_2 is a B1 block, on 2e_0 a C1 block; C3's {a2, a3}
    is a factor normalized to B2 and a C2 block."""
    b3, c3 = CartanType("B", 3), CartanType("C", 3)
    assert pair_key(b3, bc.ABCPair(frozenset({3}), frozenset())) == \
        ((("A", 1), (1,)), (("A", 1), (1,)), (("B", 1), (3,)))
    assert pair_key(c3, bc.ABCPair(frozenset({0}), frozenset())) == \
        ((("A", 1), (1,)), (("A", 1), (1,)), (("C", 1), (2,)))
    j = frozenset({2, 3})
    assert [(f.series, f.rank) for f in bc._face_factors(c3, j)] == [("B", 2)]
    assert pair_key(c3, bc.ABCPair(j, frozenset())) == \
        ((("A", 1), (1,)), (("C", 2), (4,)))


def test_block_key_reads_the_factor_orbit_where_a_block_has_several():
    """B4's finite nodes are one B4 factor; its two distinguished orbits
    give the face's two pairs two keys."""
    ct = CartanType("B", 4)
    j = frozenset({1, 2, 3, 4})
    keys = {pair_key(ct, p) for p in bc.enumerate_pairs(ct) if p.J == j}
    assert keys == {((("B", 4), (9,)),), ((("B", 4), (5, 3, 1)),)}
    assert keys == set(face_pairs(ct, j))


def test_pair_invariants_match_todays_path_to_rank_5():
    """All 1024 pairs of A1-A5, B2-B5, C2-C5 and D2-D5 in both isogenies,
    marks included.  24 of them have a very even saturation: 4 of D2 and
    8 of D4 in each isogeny."""
    totals, very_even = Counter(), Counter()
    for iso in ("adjoint", "simply_connected"):
        for s in "ABCD":
            for r in range(1 if s == "A" else 2, 6):
                pairs, n = compare_pairs(CartanType(s, r, iso))
                totals[iso] += pairs
                if n:
                    very_even[f"{s}{r} {iso}"] = n
    assert totals == {"adjoint": 512, "simply_connected": 512}
    assert very_even == {"D2 adjoint": 4, "D4 adjoint": 8,
                         "D2 simply_connected": 4, "D4 simply_connected": 8}


def test_unramified_tables_run_invariant_of_for_g2_only(monkeypatch):
    """On the unramified tables of A-D at ranks 2-4 and G2, in both
    isogenies, invariant_of runs for 14 of the 293 classes, those of G2.
    With every class on invariant_of (the coordinate-block tables
    switched off) the tables are the same."""
    systems = [CartanType(s, r, iso) for iso in ("adjoint", "simply_connected")
               for s, r in [(s, r) for s in "ABCD" for r in (2, 3, 4)] + [("G", 2)]]
    calls = Counter()
    oracle = du.invariant_of

    def counted(ct, j, factor_orbits):
        calls[ct.series] += 1
        return oracle(ct, j, factor_orbits)

    with monkeypatch.context() as m:
        m.setattr(du, "invariant_of", counted)
        tables = [du.enumerate_nobc.__wrapped__(ct) for ct in systems]
    assert sum(len(bc.classes(ct)) for ct in systems) == 293
    assert calls == {"G": 14}
    with monkeypatch.context() as m:
        m.setattr(du, "_block_table", lambda ct: None)
        assert [du.enumerate_nobc.__wrapped__(ct) for ct in systems] == tables


def test_littlewood_richardson_products():
    assert dict(cl._lr((2, 1), (2, 1))) == {
        (4, 2): 1, (4, 1, 1): 1, (3, 3): 1, (3, 2, 1): 2, (3, 1, 1, 1): 1,
        (2, 2, 2): 1, (2, 2, 1, 1): 1}
    assert dict(cl._lr((1,), (1,))) == {(2,): 1, (1, 1): 1}
    assert dict(cl._lr((), (2, 1))) == {(2, 1): 1}
    # sign of S_2 induced to W(B_2)
    assert dict(cl._to_bc((1, 1))) == {((1, 1), ()): 1, ((1,), (1,)): 1, ((), (1, 1)): 1}


def test_face_multisets_match_todays_path_to_rank_5():
    """All 466 faces of adjoint A2-A5, B2-B5, C2-C5 and D2-D5, marks
    included.  12 pairs have a very even Sommers dual, all in D2 and D4."""
    totals = Counter()
    very_even = {}
    for s in "ABCD":
        for r in range(2, 6):
            ct = CartanType(s, r)
            faces, pairs, ve = compare_faces(ct)
            totals.update(faces=faces, pairs=pairs)
            if ve:
                very_even[str(ct)] = ve
    assert totals == {"faces": 466, "pairs": 509}
    assert very_even == {"D2": 4, "D4": 8}


def compare_face_characters(ct):
    """(characters, characters with a very even saturation) of ct, over
    every character of every face group, after checking that
    face_invariant, which reads partitions, gives invariant_of's answer
    on each, marks included."""
    characters = very_even = 0
    for j in bc.proper_subsets(ct):
        factors = bc._face_factors(ct, j)
        for label in product(*(_labels.factor_irrep_labels(f.kind, f.rank)
                               for f in factors)):
            orbs = _labels.orbit_s_factors(factors, label)
            oracle = du.invariant_of(ct, j, orbs)
            assert du.face_invariant(ct, j, orbs) == oracle, (ct, sorted(j), label)
            very_even += oracle.orbit.very_even
            characters += 1
    return characters, very_even


def test_face_characters_match_invariant_of_to_rank_4():
    """All 2158 characters of the face groups of A-D at ranks 2-4 in both
    isogenies, as local-wf lifts them.  52 in each isogeny have a very
    even saturation, all in D2 and D4."""
    totals, very_even = Counter(), Counter()
    for iso in ("adjoint", "simply_connected"):
        for s in "ABCD":
            for r in (2, 3, 4):
                characters, n = compare_face_characters(CartanType(s, r, iso))
                totals[iso] += characters
                if n:
                    very_even[f"{s}{r} {iso}"] = n
    assert totals == {"adjoint": 1079, "simply_connected": 1079}
    assert very_even == {"D2 adjoint": 12, "D4 adjoint": 40,
                         "D2 simply_connected": 12, "D4 simply_connected": 40}


def test_undecided_answers_raise_char_error(monkeypatch):
    """sommers_dual raises CharError for a least-b constituent off the
    Springer image or not single, and for a very even Sommers dual of a
    saturation that is not very even; no pair or face character of A-D
    meets any of them, so the test makes them."""
    b3 = CartanType("B", 3)
    key = min(cl._pairs(b3))
    with monkeypatch.context() as m:
        m.setattr(orbits, "_springer_image", lambda ct: {})
        with pytest.raises(cartantype.CharError, match="not the Springer label"):
            cl.sommers_dual.__wrapped__(b3, key)
        m.setattr(cl, "_times_bc", lambda x, y, bound: {((1,), (1, 1)): 2})
        with pytest.raises(cartantype.CharError, match="no single least-b constituent"):
            cl.sommers_dual.__wrapped__(b3, key)
    # D2's (3,1) block, given the degenerate label {(1), (1)}+
    monkeypatch.setattr(cl, "_block_label", lambda kind, m, p: ((((1,), (1,)), 1), 1))
    with pytest.raises(cartantype.CharError, match="is very even, its saturation is not$"):
        cl.sommers_dual.__wrapped__(CartanType("D", 2), ((("D", 2), (3, 1)),))


def test_block_label_reads_the_orbit_of_b1_c1_and_a_blocks():
    """A B1 or C1 block is A1, whose W(A1) = W(B1) labels its characters
    (2,) = ((1,), ()) and (1, 1) = ((), (1,)): the regular orbit takes the
    sign character and the zero orbit the trivial one, as
    springer_rep_label(dual_ls(.)) gives them on A1.  An A block with
    partition p takes springer_rep_label(dual_ls(p)), p's transpose."""
    a1 = CartanType("A", 1)
    as_bc = {(2,): ((1,), ()), (1, 1): ((), (1,))}
    for kind, regular, zero in [("B", (3,), (1, 1, 1)), ("C", (2,), (1, 1))]:
        for p, on_a1 in [(regular, (2,)), (zero, (1, 1))]:
            lab = as_bc[springer_rep_label(dual_ls(NilpotentOrbit(a1, partition=on_a1)))]
            assert cl._block_label(kind, 1, p) == (lab, _labels.b_invariant("BC", lab))
    assert cl._block_label("C", 1, (1, 1)) == (((1,), ()), 0)
    for m in range(2, 7):
        for p in pt.partitions_of(m):
            lab = springer_rep_label(dual_ls(NilpotentOrbit(CartanType("A", m - 1), partition=p)))
            assert cl._block_label("A", m, p) == (lab, _labels.b_invariant("A", lab)), p
    assert cl._block_label("A", 4, (3, 1)) == ((2, 1, 1), 3)


def test_block_orbits_match_the_solve_oracle_to_rank_6():
    """On every orbit of every B, C or D block of every face of B2-B6,
    C2-C6 and D2-D6, both marks of a very even one included: block_orbits
    reads the orbit back off its node values, and one solve of those
    values for h's eigenvalues gives the same partition."""
    checked = 0
    for s in "BCD":
        for r in range(2, 7):
            roots, _ = orbits.node_roots(s, r)
            for j in cl.faces(s, r):
                for kind, m, nodes in cl.blocks(s, r, j):
                    if kind == "A":
                        continue
                    table = cl.block_orbits(s, r, kind, m, nodes)
                    ordered = tuple(sorted(nodes))
                    for p in pt.valid_partitions(kind, m):
                        very_even = kind == "D" and all(x % 2 == 0 for x in p)
                        for flip in (False, True) if very_even else (False,):
                            values = orbits.node_values(s, r, ordered, p, flip)
                            assert table[values] == p, (s, r, sorted(j), p)
                            assert block_partition(kind, [roots[i] for i in ordered],
                                                   values) == p, (s, r, sorted(j), p)
                            checked += 1
                    assert len(set(table.values())) == len(pt.valid_partitions(kind, m))
    assert checked == 2879


def test_block_orbits_refuses_two_orbits_with_one_value(monkeypatch):
    monkeypatch.setattr(orbits, "node_values", lambda *args: (0, 0, 0))
    with pytest.raises(cartantype.ABCError,
                       match=r"^orbits \(7,\) and \(5, 1, 1\) of a B3 block share "
                             r"the node values \(0, 0, 0\)$"):
        cl.block_orbits.__wrapped__("B", 3, "B", 3, frozenset({1, 2, 3}))


def test_block_key_reads_a_d4_block_off_its_coordinates():
    """On the D4 face {a0, a1, a2, a3} of B4 and D4, the factor's frame
    (a0 first) differs from the block's coordinates by triality: the
    factor's (5,1,1,1) is the block's (4,4), its (4,4)-I the block's
    (5,1,1,1) and its (3,1^5) the block's (2,2,2,2).  The orbits that
    triality fixes key as themselves.  In D4 a very even saturation
    carries its mark, which triality moves too: the factor's mark II is
    the coordinates' mark I."""
    d4 = CartanType("D", 4)
    j = frozenset({0, 1, 2, 3})
    for ct in (CartanType("B", 4), d4):
        assert _labels.face_factors(ct.series, ct.rank, j) == (("D", "D", 4, (0, 2, 3, 1)),)
        moved, marks = {}, {}
        for o in enumerate_orbits(d4):
            (_, p), *mark = _labels.block_key(ct, j, (o,))
            if p != o.partition:
                moved[o.label()] = p
            if mark:
                marks[o.label()] = mark[0]
        assert moved == {"5,1,1,1": (4, 4), "4,4-I": (5, 1, 1, 1),
                         "3,1,1,1,1,1": (2, 2, 2, 2), "2,2,2,2-I": (3, 1, 1, 1, 1, 1)}
        assert marks == ({} if ct.series == "B" else {
            "5,1,1,1": "II", "4,4-II": "I", "3,1,1,1,1,1": "II", "2,2,2,2-II": "I"})


def face_factors_by_roots(ct, j):
    """balacarter._face_factors in the form of _labels.face_factors: each
    factor's nodes are its basis roots' nodes, in its frame's order."""
    affs = bc.build_root_system(ct).affine_simples
    node = {affs[i][0]: i for i in j}
    return tuple((f.kind, f.series, f.rank, tuple(node[b] for b in f.basis))
                 for f in bc._face_factors(ct, j))


def compare_face_factors(ranks):
    """The number of faces of A-D at the given ranks in both isogenies,
    after checking that _labels.face_factors reads every face's factors,
    in balacarter's order and frames, off the nodes' coordinates."""
    faces = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # B1 and C1 normalized to A1
        systems = [CartanType(s, r, iso) for iso in ("adjoint", "simply_connected")
                   for s in "ABCD" for r in ranks if r >= (2 if s == "D" else 1)]
    for ct in systems:
        for j in bc.proper_subsets(ct):
            assert _labels.face_factors(ct.series, ct.rank, j) == \
                face_factors_by_roots(ct, j), (ct, sorted(j))
            faces += 1
    return faces


def test_face_factors_match_the_root_system_to_rank_5():
    """Every face of A1-A5, B1-B5, C1-C5 and D2-D5 in both isogenies (B1
    and C1 are A1).  Among them: D2's two components, each an A1 with its
    affine node; D4's triality-framed faces, whose frame takes the first
    of the fork's three tips as the chain; B2 = C2 long root first, C3's
    {a2, a3} included; and single nodes, long or short, as A1."""
    ff = _labels.face_factors
    assert ff("D", 2, frozenset({0, 2})) == (("A", "A", 1, (0,)), ("A", "A", 1, (2,)))
    assert ff("D", 2, frozenset({1, 3})) == (("A", "A", 1, (3,)), ("A", "A", 1, (1,)))
    assert ff("D", 4, frozenset({1, 2, 3, 4})) == (("D", "D", 4, (4, 2, 3, 1)),)
    assert ff("D", 4, frozenset({0, 2, 3, 4})) == (("D", "D", 4, (0, 2, 4, 3)),)
    assert ff("C", 3, frozenset({2, 3})) == (("BC", "B", 2, (3, 2)),)
    assert ff("C", 2, frozenset({0, 1})) == (("BC", "B", 2, (0, 1)),)
    assert ff("B", 2, frozenset({1, 2})) == (("BC", "B", 2, (1, 2)),)
    assert ff("C", 3, frozenset({0, 1, 2})) == (("BC", "C", 3, (2, 1, 0)),)
    assert ff("B", 3, frozenset({3})) == (("A", "A", 1, (3,)),)
    assert ff("C", 3, frozenset({0})) == (("A", "A", 1, (0,)),)
    assert compare_face_factors(range(1, 6)) == 2 * 475


def test_block_key_matches_the_root_system_oracle_to_rank_5():
    """On every face of A1-A5, B2-B5, C2-C5 and D2-D5 in both isogenies
    and every tuple of orbits on its factors, the key read through
    face_factors is the one read through the root system
    (block_key_by_roots)."""
    tuples = Counter()
    for iso in ("adjoint", "simply_connected"):
        for s in "ABCD":
            for r in range(1 if s == "A" else 2, 6):
                ct = CartanType(s, r, iso)
                for j in bc.proper_subsets(ct):
                    factors = _labels.face_factors(s, r, j)
                    for orbs in product(*(enumerate_orbits(CartanType(series, rank))
                                          for _, series, rank, _ in factors)):
                        assert _labels.block_key(ct, j, orbs) == \
                            block_key_by_roots(ct, j, orbs), (ct, sorted(j), orbs)
                        tuples[iso] += 1
    assert tuples == {"adjoint": 2913, "simply_connected": 2913}


def test_achar_queries_match_todays_path(monkeypatch):
    """All 570 achar_dual_one queries on A1-A6, B1-B6, C1-C6 and D2-D6, in
    both isogenies: 328 answers and 242 rank-cap errors, the same on
    both paths."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # B1 and C1 normalized to A1
        systems = [CartanType(s, r, iso) for iso in ("adjoint", "simply_connected")
                   for s in "ABCD" for r in range(2 if s == "D" else 1, 7)]
    assert compare_queries(monkeypatch, systems) == (570, 242)


def test_one_rank_cap_for_both_paths(monkeypatch):
    """Both paths read cartantype.ABC_RANK_CAP at call time and raise the
    same error: B4 and a very even D4 query through partitions, G2
    through the faces' Weyl groups."""
    b4, d4, g2 = CartanType("B", 4), CartanType("D", 4), CartanType("G", 2)
    very_even = NilpotentOrbit(d4.dual, partition=(2, 2, 2, 2), mark="I")
    assert cl.attained(d4, very_even, dual_bv(very_even))
    monkeypatch.setattr(cartantype, "ABC_RANK_CAP", 3)
    for ct, orbit in [(b4, enumerate_orbits(b4.dual)[3]), (d4, very_even)]:
        with pytest.raises(cartantype.ABCError,
                           match=r"^rank 4 exceeds the enumeration cap 3$"):
            du.achar_dual_one(ct, orbit)
    monkeypatch.setattr(cartantype, "ABC_RANK_CAP", 1)
    with pytest.raises(cartantype.ABCError, match=r"^rank 2 exceeds the enumeration cap 1$"):
        du.achar_dual_one(g2, enumerate_orbits(g2)[1])
    assert bc.ABCError is cartantype.ABCError


# ---------------------------------------------------------------------
# the slow tier: ranks 6-8, caps raised in the test
# ---------------------------------------------------------------------

@pytest.fixture
def raised_caps(monkeypatch):
    """Both caps raised for one test; the pairs it enumerated past the
    rank cap leave enumerate_pairs' cache with it, so that a later test
    still meets the cap."""
    monkeypatch.setattr(cartantype, "ABC_RANK_CAP", 8)
    monkeypatch.setattr(cartantype, "GROUP_ORDER_CAP", 10 ** 8)
    yield
    bc.enumerate_pairs.cache_clear()


SLOW_FACES = {("A", 6): 0, ("A", 7): 0, ("A", 8): 0, ("B", 6): 0, ("B", 7): 0,
              ("B", 8): 0, ("C", 6): 0, ("C", 7): 0, ("C", 8): 0, ("D", 6): 16,
              ("D", 7): 0, ("D", 8): 32}


@pytest.mark.slow
def test_face_factors_match_the_root_system_ranks_6_8():
    assert compare_face_factors(range(6, 9)) == 7144


@pytest.mark.slow
@pytest.mark.parametrize("series,rank", sorted(SLOW_FACES))
def test_face_multisets_match_todays_path_ranks_6_8(raised_caps, series, rank):
    _, _, very_even = compare_faces(CartanType(series, rank))
    assert very_even == SLOW_FACES[series, rank]


# per system, the pairs with a very even saturation
SLOW_PAIRS_VERY_EVEN = {("A", 6): 0, ("A", 7): 0, ("A", 8): 0, ("B", 6): 0, ("B", 7): 0,
                   ("B", 8): 0, ("C", 6): 0, ("C", 7): 0, ("C", 8): 0, ("D", 6): 16,
                   ("D", 7): 0, ("D", 8): 32}


@pytest.mark.slow
@pytest.mark.parametrize("series,rank", sorted(SLOW_PAIRS_VERY_EVEN))
def test_pair_invariants_match_todays_path_ranks_6_8(raised_caps, series, rank):
    _, very_even = compare_pairs(CartanType(series, rank))
    assert very_even == SLOW_PAIRS_VERY_EVEN[series, rank]


# per rank, the queries that raise DualityError ("not realized by any
# class") on both paths
VERY_EVEN_D6_FAULTS = {6: 0, 7: 0}


# per system at ranks 5 and 6, the face characters with a very even
# saturation
SLOW_CHARACTERS_VERY_EVEN = {("A", 5): 0, ("B", 5): 0, ("C", 5): 0, ("D", 5): 0,
                        ("A", 6): 0, ("B", 6): 0, ("C", 6): 0, ("D", 6): 116}


@pytest.mark.slow
@pytest.mark.parametrize("series,rank", sorted(SLOW_CHARACTERS_VERY_EVEN))
@pytest.mark.parametrize("iso", ["adjoint", "simply_connected"])
def test_face_characters_match_invariant_of_ranks_5_6(raised_caps, series, rank, iso):
    _, very_even = compare_face_characters(CartanType(series, rank, iso))
    assert very_even == SLOW_CHARACTERS_VERY_EVEN[series, rank]


@pytest.mark.slow
@pytest.mark.parametrize("rank", [6, 7])
@pytest.mark.parametrize("iso", ["adjoint", "simply_connected"])
def test_achar_queries_match_todays_path_ranks_6_7(raised_caps, monkeypatch, rank, iso):
    systems = [CartanType(s, rank, iso) for s in "ABCD"]
    queries, errors = compare_queries(monkeypatch, systems)
    assert queries == sum(len(enumerate_orbits(ct.dual)) for ct in systems)
    assert errors == VERY_EVEN_D6_FAULTS[rank]
