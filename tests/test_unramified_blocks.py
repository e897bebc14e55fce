"""The unramified table from coordinate blocks (orbitcalc._unramified)
against the path that it replaces for types A-D, which stays the oracle: balacarter's pairs (enumerate_pairs) and classes (the
equivalence through the faces' diagrams), and the table that duality
builds from them (enumerate_nobc with _block_table switched off).

On every system the block path serves, its pairs are balacarter's, its
class keys partition them as balacarter.classes does, and its rows, its
counts and its Hasse edges are today's.  Tier-1 checks every A-D system
up to rank 5 in both isogenies; the slow tier (pytest -m slow) adjoint
A-D at ranks 6-8 and simply connected A-D at ranks 6-7 (D6 and D7), with
the caps raised inside the test.
"""

import warnings
from collections import defaultdict

import pytest

from orbitcalc import _classical as cl
from orbitcalc import _labels
from orbitcalc import _unramified as un
from orbitcalc import balacarter as bc
from orbitcalc import cartantype
from orbitcalc import duality as du
from orbitcalc.cartantype import CartanType
from orbitcalc.orbits import covers

ISOGENIES = ("adjoint", "simply_connected")


def systems(ranks, isogenies=ISOGENIES, series="ABCD"):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # B1 and C1 normalized to A1
        return [CartanType(s, r, iso) for iso in isogenies for s in series
                for r in ranks if s == "A" or r >= 2]


def key_classes(ct) -> set:
    """balacarter's pairs of ct, after checking that the block path lists
    each once, grouped by class key."""
    found = list(un.pairs(ct))
    pairs = [p for p, _, _ in found]
    assert len(pairs) == len(set(pairs)) and set(pairs) == set(bc.enumerate_pairs(ct)), ct
    groups = defaultdict(set)
    for p, key, cls in found:
        assert key == _labels.block_key(ct, p.J, bc.distinguished_factor_orbits(ct, p)), (ct, p)
        groups[cls].add(p)
    return {frozenset(g) for g in groups.values()}


def compare_table(ct, monkeypatch):
    """The number of classes of ct, after checking the block path's pairs,
    class keys, rows, counts and Hasse edges against today's path."""
    classes = {frozenset(c) for c in bc.classes(ct)}
    assert key_classes(ct) == classes, ct
    table = du._block_table(ct)
    assert table is not None, ct
    with monkeypatch.context() as m:
        m.setattr(du, "_block_table", lambda ct: None)
        rows = du.enumerate_nobc.__wrapped__(ct)
        counts = du.abc_counts(ct)
    assert table == (rows, *counts), ct
    assert counts == (len(bc.enumerate_pairs(ct)), len(classes))
    edges = covers([row[0] for row in rows], du.leq_A)
    assert covers([row[0] for row in table[0]], du.leq_A) == edges
    return len(classes)


def test_block_tables_match_todays_path_to_rank_5(monkeypatch):
    """Every A-D system up to rank 5 in both isogenies; the tables of A1-A5
    hold 76 classes, B2-B5 162, C2-C5 187, D2-D5 120: 4 and 9 in D2, 13
    and 28 in D4 (adjoint and simply connected)."""
    totals = defaultdict(int)
    for ct in systems(range(1, 6)):
        totals[ct.series] += compare_table(ct, monkeypatch)
    assert totals == {"A": 76, "B": 162, "C": 187, "D": 120}
    assert du._block_table(CartanType("G", 2)) is None


def markless_keys(ct) -> int:
    """The number of adjoint class keys of ct with the saturation's mark
    left out: the block keys alone."""
    return len({cl._split(key)[0] for _, key, _ in un.pairs(ct)})


def test_even_rank_d_block_keys_need_the_mark():
    """At even rank a type-D block key alone merges classes whose very even
    saturations differ in their marks: D2's 4 adjoint classes have 3 block
    keys and D4's 13 have 11.  The class key adds the mark; D2's simply
    connected key is J (SL2 x SL2, each of its 9 pairs its own class)."""
    merged = {n: (markless_keys(CartanType("D", n)), len(bc.classes(CartanType("D", n))))
              for n in (2, 4)}
    assert merged == {2: (3, 4), 4: (11, 13)}
    d2 = CartanType("D", 2, "simply_connected")
    assert sorted(cls for _, _, cls in un.pairs(d2)) == sorted(
        tuple(sorted(p.J)) for p in bc.enumerate_pairs(d2))


def test_simply_connected_keys_split_omega_orbits():
    """What each simply connected key adds to the block key: t on SL4's
    faces of three nodes (one block of size 4; {a0, a2, a3} has t =
    1 + 2); Spin(5)'s {a0} against {a1}; Sp(6)'s C blocks at node 0 and
    at node 3; Spin(10)'s D5 faces without a0, a1, a4 or a5."""
    def cls(ct, j):  # of the pair (J, {})
        (key,) = {c for p, _, c in un.pairs(ct) if p == (frozenset(j), frozenset())}
        return key

    a3 = CartanType("A", 3, "simply_connected")
    assert [cls(a3, {0, 1, 2, 3} - {i})[-1] for i in range(4)] == [0, 3, 2, 1]
    assert cls(a3, {0, 2})[-1] == 1  # blocks {e3, e0} and {e1, e2}: g = 2
    b2 = CartanType("B", 2, "simply_connected")
    assert cls(b2, {0}) != cls(b2, {1})
    assert cls(CartanType("B", 2), {0}) == cls(CartanType("B", 2), {1})
    c3 = CartanType("C", 3, "simply_connected")
    assert cls(c3, {0}) != cls(c3, {3})
    d5 = CartanType("D", 5, "simply_connected")
    assert len({cls(d5, set(range(6)) - {i}) for i in (0, 1, 4, 5)}) == 4


def test_block_table_checks_the_rank_cap_first(monkeypatch):
    """The block path raises the enumeration cap's error, as balacarter's
    pairs do, before it lists a face."""
    monkeypatch.setattr(cartantype, "ABC_RANK_CAP", 3)

    def refuse(*args):
        raise AssertionError("listed the faces")

    monkeypatch.setattr(cl, "faces", refuse)
    for ct in (CartanType("B", 4), CartanType("D", 5, "simply_connected")):
        with pytest.raises(cartantype.ABCError,
                           match=r"^rank \d exceeds the enumeration cap 3$"):
            du.enumerate_nobc.__wrapped__(ct)
        with pytest.raises(cartantype.ABCError):
            du.abc_counts(ct)


def test_no_cache_serves_a_table_past_a_lowered_cap(monkeypatch):
    """Each cached table checks the rank cap before its cache: B4's
    tables, built under the cap of 5, are refused once it is 3."""
    b4 = CartanType("B", 4)
    cached = (un.table, bc.enumerate_pairs, bc.classes, du.enumerate_nobc)
    for fn in cached:
        assert fn(b4)
    monkeypatch.setattr(cartantype, "ABC_RANK_CAP", 3)
    for fn in cached:
        with pytest.raises(cartantype.ABCError,
                           match=r"^rank 4 exceeds the enumeration cap 3$"):
            fn(b4)
        assert fn.cache_info().currsize


# ---------------------------------------------------------------------
# the slow tier: ranks 6-8, caps raised in the test
# ---------------------------------------------------------------------

@pytest.fixture
def raised_caps(monkeypatch):
    """The rank cap raised for one test, and the group-order cap for the
    oracle's invariant_of; what was enumerated past the rank cap leaves
    the caches with it, so that a later test still meets the cap."""
    monkeypatch.setattr(cartantype, "ABC_RANK_CAP", 8)
    monkeypatch.setattr(cartantype, "GROUP_ORDER_CAP", 10 ** 8)
    yield
    for cached in (bc.enumerate_pairs, bc.classes, un.table):
        cached.cache_clear()


# the classes of each system the block path serves at ranks 6-8
SLOW_TABLES = {("A", 6, "adjoint"): 15, ("A", 7, "adjoint"): 22, ("A", 8, "adjoint"): 30,
               ("B", 6, "adjoint"): 70, ("B", 7, "adjoint"): 120, ("B", 8, "adjoint"): 205,
               ("C", 6, "adjoint"): 66, ("C", 7, "adjoint"): 112, ("C", 8, "adjoint"): 190,
               ("D", 6, "adjoint"): 37, ("D", 7, "adjoint"): 55, ("D", 8, "adjoint"): 101,
               ("A", 6, "simply_connected"): 21, ("A", 7, "simply_connected"): 35,
               ("B", 6, "simply_connected"): 80, ("B", 7, "simply_connected"): 131,
               ("C", 6, "simply_connected"): 112, ("C", 7, "simply_connected"): 197,
               ("D", 6, "simply_connected"): 77, ("D", 7, "simply_connected"): 105}


@pytest.mark.slow
@pytest.mark.parametrize("series,rank,iso", sorted(SLOW_TABLES))
def test_block_tables_match_todays_path_ranks_6_8(raised_caps, monkeypatch, series, rank, iso):
    ct = CartanType(series, rank, iso)
    assert compare_table(ct, monkeypatch) == SLOW_TABLES[series, rank, iso]


@pytest.mark.slow
@pytest.mark.parametrize("rank", [6, 8])
def test_even_rank_d_block_keys_need_the_mark_ranks_6_8(raised_caps, rank):
    """Adjoint D6's and D8's block keys alone give 34 and 96 classes where
    balacarter finds 37 and 101."""
    ct = CartanType("D", rank)
    assert (markless_keys(ct), len(bc.classes(ct))) == {6: (34, 37), 8: (96, 101)}[rank]
