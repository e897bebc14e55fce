import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcalc import partitions as pt
from orbitcalc.orbits import (NilpotentOrbit, OrbitError, WeightedDynkinDiagram,
                              closure_leq, covers, dual_bv, dual_ls, enumerate_orbits,
                              hasse_edges, is_special, maxima, orbit_dimension,
                              orbit_from_wdd, regular_orbit, weighted_dynkin,
                              zero_orbit)
from orbitcalc.rootdata import CartanType

from oracles import orbit_dimension_by_roots, wdd_values

ALL_SMALL = [CartanType(s, r) for s, r in
             [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2),
              ("C", 3), ("D", 2), ("D", 3), ("D", 4), ("G", 2)]]


def test_enumerate_g2():
    orbs = enumerate_orbits(CartanType("G", 2))
    assert [o.g2_label for o in orbs] == ["0", "A1", "A1~", "G2(a1)", "G2"]


def test_enumerate_a2():
    orbs = enumerate_orbits(CartanType("A", 2))
    assert {o.partition for o in orbs} == {(3,), (2, 1), (1, 1, 1)}


def test_enumerate_b3_matches_recursive_generation():
    orbs = enumerate_orbits(CartanType("B", 3))
    # independent recursive generation: filter all partitions of 7 by the rule
    expected = set()
    for p in pt.partitions_of(7):
        if all(p.count(x) % 2 == 0 for x in set(p) if x % 2 == 0):
            expected.add(p)
    assert {o.partition for o in orbs} == expected


def test_very_even_orbits_carry_marks():
    orbs = enumerate_orbits(CartanType("D", 4))
    ve = [o for o in orbs if o.very_even]
    assert {(o.partition, o.mark) for o in ve} == {
        ((4, 4), "I"), ((4, 4), "II"),
        ((2, 2, 2, 2), "I"), ((2, 2, 2, 2), "II")}
    with pytest.raises(OrbitError):
        NilpotentOrbit(CartanType("D", 4), partition=(4, 4))
    with pytest.raises(OrbitError):
        NilpotentOrbit(CartanType("D", 4), partition=(5, 3), mark="I")


def test_closure_order():
    g2 = CartanType("G", 2)
    a1 = NilpotentOrbit(g2, g2_label="A1")
    a1t = NilpotentOrbit(g2, g2_label="A1~")
    assert closure_leq(a1, a1t) and not closure_leq(a1t, a1)
    assert orbit_dimension(a1) == 6 < orbit_dimension(a1t) == 8
    d4 = CartanType("D", 4)
    i = NilpotentOrbit(d4, partition=(4, 4), mark="I")
    ii = NilpotentOrbit(d4, partition=(4, 4), mark="II")
    assert closure_leq(i, i) and not closure_leq(i, ii) and not closure_leq(ii, i)
    with pytest.raises(OrbitError):
        closure_leq(a1, i)


def test_closure_leq_is_dominance_to_rank_8():
    """On every ordered pair of orbits of A1-A8, B2-B8, C2-C8 and D2-D8,
    closure_leq, which compares the stored partitions' prefix sums, is
    partitions.dominance_leq, which normalizes and checks both, with the
    two marks of a very even partition incomparable."""
    pairs = 0
    for s in "ABCD":
        for r in range(1 if s == "A" else 2, 9):
            orbs = enumerate_orbits(CartanType(s, r))
            for a in orbs:
                for b in orbs:
                    same = a.partition == b.partition and a.very_even
                    want = a.mark == b.mark if same else pt.dominance_leq(a.partition, b.partition)
                    assert closure_leq(a, b) == want, (a, b)
                    pairs += 1
    assert pairs == 39562


@pytest.mark.parametrize("ct", ALL_SMALL, ids=str)
def test_wdd_extremes_and_roundtrip(ct):
    assert weighted_dynkin(zero_orbit(ct)).values == (0,) * ct.rank
    assert weighted_dynkin(regular_orbit(ct)).values == (2,) * ct.rank
    for o in enumerate_orbits(ct):
        assert orbit_from_wdd(weighted_dynkin(o)) == o


def test_wdd_b2_example():
    # h for [2,2,1] is (1,1,0,-1,-1); top coordinates (1,1)
    o = NilpotentOrbit(CartanType("B", 2), partition=(2, 2, 1))
    assert weighted_dynkin(o).values == (0, 1)


def test_wdd_injective():
    for ct in ALL_SMALL:
        orbs = enumerate_orbits(ct)
        assert len({weighted_dynkin(o).values for o in orbs}) == len(orbs)


def test_diagrams_and_dimensions_match_the_oracles_to_rank_8():
    """On every orbit of A1-A8, B2-B8, C2-C8 and D2-D8, both marks of a
    very even one included, the diagram read off node_values is the
    series formula's, and the dimension read off the partition is the
    count of the roots on which h is neither 0 nor 1."""
    checked = 0
    for s in "ABCD":
        for r in range(1 if s == "A" else 2, 9):
            ct = CartanType(s, r)
            for o in enumerate_orbits(ct):
                assert weighted_dynkin(o).values == wdd_values(ct, o), o
                assert orbit_dimension(o) == orbit_dimension_by_roots(o), o
                checked += 1
    assert checked == 756


def test_orbit_from_wdd_rejects_garbage():
    with pytest.raises(OrbitError):
        orbit_from_wdd(WeightedDynkinDiagram(CartanType("B", 2), (2, 1)))


def test_dual_ls_examples():
    for ct in ALL_SMALL:
        assert dual_ls(regular_orbit(ct)) == zero_orbit(ct)
        assert dual_ls(zero_orbit(ct)) == regular_orbit(ct)
    b3 = CartanType("B", 3)
    o = NilpotentOrbit(b3, partition=(3, 2, 2))
    assert dual_ls(o).partition == (3, 3, 1)


def test_dual_ls_output_special_and_triality():
    for ct in ALL_SMALL:
        for o in enumerate_orbits(ct):
            d = dual_ls(o)
            assert is_special(d), (ct, o)
            assert dual_ls(dual_ls(d)) == d


def test_dual_bv_type_a_is_transpose():
    for n in range(1, 9):
        ct = CartanType("A", n)
        for o in enumerate_orbits(ct):
            assert dual_bv(o).partition == pt.transpose(o.partition)


def test_dual_bv_extremes_and_bc_swap():
    for ct in ALL_SMALL:
        d = dual_bv(zero_orbit(ct.dual))
        assert d == regular_orbit(ct.dual.dual) or d.partition == regular_orbit(CartanType(ct.dual.dual.series, ct.rank)).partition
    b2 = CartanType("B", 2)
    o = dual_bv(NilpotentOrbit(CartanType("C", 2, "simply_connected"), partition=(2, 2)))
    assert o.system.series == "B" and o.partition == (3, 1, 1)


def test_dual_bv_always_special():
    for ct in ALL_SMALL:
        for o in enumerate_orbits(ct.dual):
            assert is_special(dual_bv(o))


def test_duality_order_reversing():
    for ct in ALL_SMALL:
        orbs = enumerate_orbits(ct)
        for a in orbs:
            for b in orbs:
                if closure_leq(a, b):
                    assert closure_leq(dual_ls(b), dual_ls(a)), (ct, a, b)
                    assert closure_leq(dual_bv(b), dual_bv(a)), (ct, a, b)


def test_special_g2():
    g2 = CartanType("G", 2)
    specials = {o.g2_label for o in enumerate_orbits(g2) if is_special(o)}
    assert specials == {"0", "G2(a1)", "G2"}


def test_hasse_edges_b2():
    ct = CartanType("B", 2)
    edges = {(a.label(), b.label()) for a, b in hasse_edges(ct)}
    assert edges == {("1,1,1,1,1", "2,2,1"), ("2,2,1", "3,1,1"), ("3,1,1", "5")}


def reference_covers(items, leq):
    """The covers by definition: a < b and no c with a < c < b."""
    edges = []
    for a in items:
        for b in items:
            if a == b or not leq(a, b):
                continue
            if any(c != a and c != b and leq(a, c) and leq(c, b) for c in items):
                continue
            edges.append((a, b))
    return tuple(edges)


@st.composite
def _closed_dags(draw):
    """A random DAG on range(n), transitively closed, with its nodes in a
    random order: (items, set of pairs a < b)."""
    n = draw(st.integers(0, 9))
    less = {(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())}
    for k in range(n):
        less |= {(i, j) for i, m in less if m == k for l, j in less if l == k}
    return draw(st.permutations(range(n))), less


@given(_closed_dags())
@settings(max_examples=300, deadline=None)
def test_covers_matches_reference(dag):
    items, less = dag
    leq = lambda a, b: a == b or (a, b) in less
    assert covers(items, leq) == reference_covers(items, leq)


@pytest.mark.parametrize("ct", [CartanType("A", 6), CartanType("B", 4)], ids=str)
def test_covers_calls_leq_at_most_n_squared(ct):
    items = enumerate_orbits(ct)
    calls = 0

    def leq(a, b):
        nonlocal calls
        calls += 1
        return closure_leq(a, b)

    assert covers(items, leq) == reference_covers(items, closure_leq)
    assert calls <= len(items) ** 2


def reference_maxima(items, leq):
    """By definition: each item above no other, once, in the order of
    first appearance."""
    out = []
    for a in items:
        if a not in out and not any(b != a and leq(a, b) for b in items):
            out.append(a)
    return out


def test_maxima_calls_leq_once_per_ordered_pair_of_distinct_items():
    """Repeats are dropped before the quadratic scan."""
    items = [2, 3, 2, 6, 3, 1, 6, 5, 1, 2]
    calls = []

    def divides(a, b):
        calls.append((a, b))
        return b % a == 0

    assert maxima(items, divides) == [6, 5]
    assert len(calls) == len(set(calls))
    assert all(a != b for a, b in calls)


@given(_closed_dags(), st.data())
@settings(max_examples=200, deadline=None)
def test_maxima_matches_reference_with_repeats(dag, data):
    nodes, less = dag
    items = data.draw(st.lists(st.sampled_from(nodes), max_size=20)) if nodes else []
    leq = lambda a, b: a == b or (a, b) in less
    assert maxima(items, leq) == reference_maxima(items, leq)
