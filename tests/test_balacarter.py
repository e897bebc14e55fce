import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbitcalc import cartantype
from orbitcalc import rootdata as rd
from orbitcalc import weylrep as wr
from orbitcalc.linalg import (hermite_row_basis, identity, integer_kernel,
                              mat_vec, solve, transpose)
from orbitcalc.orbits import (NilpotentOrbit, closure_leq, enumerate_orbits,
                              regular_orbit, weighted_dynkin, zero_orbit)
from orbitcalc.rootdata import CartanType, build_root_system, subsystem_roots
from orbitcalc.weylrep import ambient_context

import balacarter as bc
from oracles import (alcove_symmetries, conjugate_root_tuples, coset_reps,
                     enumerate_pairs_by_masks, pair_invariant, weyl_group)

SMALL = [("A", 1)] + [(s, r) for s in "ABCD" for r in (2, 3, 4)] + [("G", 2)]
ISOGENIES = ("adjoint", "simply_connected")


def J(*nodes):
    return frozenset(nodes)


def test_proper_subsets_g2():
    ct = CartanType("G", 2)
    subs = bc.proper_subsets(ct)
    assert len(subs) == 7  # all proper subsets of a 3-node diagram
    assert frozenset({0, 1, 2}) not in subs


def test_enumerate_pairs_g2_matches_known_list():
    ct = CartanType("G", 2)
    pairs = bc.enumerate_pairs(ct)
    got = {(tuple(sorted(p.J)), tuple(sorted(p.Jprime))) for p in pairs}
    want = {
        ((), ()),
        ((0,), ()), ((1,), ()), ((2,), ()),
        ((1, 2), ()), ((1, 2), (2,)),
        ((0, 2), ()), ((0, 1), ()),
    }
    assert got == want
    assert len(pairs) == 8


def test_enumerate_pairs_a1_adjoint():
    ct = CartanType("A", 1, "adjoint")
    pairs = bc.enumerate_pairs(ct)
    got = {(tuple(sorted(p.J)), tuple(sorted(p.Jprime))) for p in pairs}
    assert got == {((), ()), ((0,), ()), ((1,), ())}


def test_enumerate_pairs_a2_all_jprime_empty():
    ct = CartanType("A", 2, "adjoint")
    pairs = bc.enumerate_pairs(ct)
    assert all(p.Jprime == frozenset() for p in pairs)
    assert {tuple(sorted(p.J)) for p in pairs} == {
        (), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2)}


def _xstar_functional(rs, root):
    """The root as an integer functional on X_*-basis coordinates."""
    return mat_vec(rs.cochar_basis, root)


def _at(rs, root, point):
    """root(point), the point in X_*-basis coordinates."""
    return sum(c * x for c, x in zip(_xstar_functional(rs, root), point))


def test_face_hull_extremes():
    ct = CartanType("G", 2)
    rs = build_root_system(ct)
    d, vals, grads, _, congruences = bc.face_hull(ct, frozenset())
    assert (grads, congruences) == ((), ())  # the whole plane
    base, _ = reference_face_hull(ct, frozenset())
    assert vals == tuple(d * _at(rs, r, base) for r in rs.roots)
    d, vals, _, _, _ = bc.face_hull(ct, frozenset({1, 2}))
    assert (d, vals) == (1, (0,) * len(rs.roots))  # the origin
    d, vals, grads, offs, _ = bc.face_hull(ct, frozenset({0, 1}))  # a vertex
    base, _ = reference_face_hull(ct, frozenset({0, 1}))
    assert vals == tuple(d * _at(rs, r, base) for r in rs.roots)
    # the hull point must kill both affine roots of J
    for i, g, off in zip((0, 1), grads, offs):
        alpha, a_off = rs.affine_simples[i]
        assert (rs.roots[g], off) == (alpha, a_off)
        assert _at(rs, alpha, base) + off == 0
        assert vals[g] + off * d == 0


def test_equivalent_reflexive_and_g2_identification():
    ct = CartanType("G", 2)
    pairs = bc.enumerate_pairs(ct)
    for p in pairs:
        assert bc.equivalent(ct, p, p)
    p0 = bc.ABCPair(J(0), frozenset())
    p1 = bc.ABCPair(J(1), frozenset())
    p2 = bc.ABCPair(J(2), frozenset())
    assert bc.equivalent(ct, p0, p1)
    assert not bc.equivalent(ct, p0, p2)
    assert not bc.equivalent(ct, p1, p2)


def test_classes_g2_has_size_seven():
    ct = CartanType("G", 2)
    cls = bc.classes(ct)
    assert len(cls) == 7
    nontrivial = [c for c in cls if len(c) > 1]
    assert len(nontrivial) == 1
    members = {tuple(sorted(p.J)) for p in nontrivial[0]}
    assert members == {(0,), (1,)}


def test_classes_a1_and_a2_adjoint():
    assert len(bc.classes(CartanType("A", 1, "adjoint"))) == 2
    assert len(bc.classes(CartanType("A", 2, "adjoint"))) == 3


def test_classes_a2_simply_connected():
    # no identifications beyond W-conjugacy for the simply connected form:
    # X_* = Q^vee gives trivial Omega, classes count pseudo-Levi data
    cls = bc.classes(CartanType("A", 2, "simply_connected"))
    assert len(cls) >= 3


def test_equivalence_invariant_under_alcove_symmetries():
    for ct in [CartanType("A", 2, "adjoint"), CartanType("A", 1, "adjoint"),
               CartanType("B", 2, "adjoint"), CartanType("D", 2, "adjoint")]:
        rs = build_root_system(ct)
        pairs = bc.enumerate_pairs(ct)
        for sigma in alcove_symmetries(ct):
            perm = sigma.node_permutation(rs)
            for p in pairs:
                q = bc.ABCPair(frozenset(perm[d] for d in p.J),
                               frozenset(perm[d] for d in p.Jprime))
                assert bc.equivalent(ct, p, q), (ct, p, q)


def test_saturation_extremes():
    for ct in [CartanType("B", 3), CartanType("G", 2), CartanType("A", 3)]:
        # J = Delta: full system; regular distinguished orbit lifts to regular
        n = ct.rank
        delta = frozenset(range(1, n + 1))
        pair = bc.ABCPair(delta, frozenset())
        orbs = bc.distinguished_factor_orbits(ct, pair)
        assert bc.saturation(ct, delta, orbs) == regular_orbit(ct)
        # zero orbits lift to zero
        ctx = bc.pair_context(ct, delta)
        zeros = tuple(zero_orbit(f.cartan_type()) for f in ctx.factors)
        assert bc.saturation(ct, delta, zeros) == zero_orbit(ct)
        assert bc.saturation(ct, frozenset(), ()) == zero_orbit(ct)


def test_g2_saturation_long_a2_regular_is_subregular():
    ct = CartanType("G", 2)
    pair = bc.ABCPair(J(0, 1), frozenset())
    ctx = bc.pair_context(ct, pair.J)
    assert [f.series for f in ctx.factors] == ["A"]
    assert ctx.factors[0].rank == 2
    orb = bc.pair_saturation(ct, pair)
    assert orb.g2_label == "G2(a1)"


def test_g2_pair_saturations_known_table():
    ct = CartanType("G", 2)
    sat = {}
    for p in bc.enumerate_pairs(ct):
        sat[(tuple(sorted(p.J)), tuple(sorted(p.Jprime)))] = \
            bc.pair_saturation(ct, p).g2_label
    assert sat[((), ())] == "0"
    assert sat[((1,), ())] == "A1"
    assert sat[((0,), ())] == "A1"
    assert sat[((2,), ())] == "A1~"
    assert sat[((1, 2), (2,))] == "G2(a1)"
    assert sat[((1, 2), ())] == "G2"
    assert sat[((0, 1), ())] == "G2(a1)"
    assert sat[((0, 2), ())] == "G2(a1)"


def test_monotone_lifting():
    """Fixed J: closure order of factor orbits is preserved by saturation."""
    for ct in [CartanType("B", 2), CartanType("G", 2), CartanType("A", 2)]:
        for j in bc.proper_subsets(ct):
            ctx = bc.pair_context(ct, j)
            factor_orbit_lists = [enumerate_orbits(f.cartan_type())
                                  for f in ctx.factors]
            import itertools
            tuples = list(itertools.product(*factor_orbit_lists))
            for t1 in tuples:
                for t2 in tuples:
                    le = all(closure_leq(a, b) for a, b in zip(t1, t2))
                    lt = le and t1 != t2
                    if not lt:
                        continue
                    s1 = bc.saturation(ct, j, t1)
                    s2 = bc.saturation(ct, j, t2)
                    assert closure_leq(s1, s2) and s1 != s2, (ct, j, t1, t2)


def test_rank_cap():
    with pytest.raises(bc.ABCError):
        bc.enumerate_pairs(CartanType("B", 6))


def test_transitivity_of_equivalence():
    for ct in [CartanType("A", 2, "adjoint"), CartanType("B", 2, "adjoint"),
               CartanType("B", 3, "adjoint"), CartanType("C", 3, "adjoint"),
               CartanType("G", 2)]:
        pairs = bc.enumerate_pairs(ct)
        for a in pairs:
            for b in pairs:
                if not bc.equivalent(ct, a, b):
                    continue
                for c in pairs:
                    if bc.equivalent(ct, b, c):
                        assert bc.equivalent(ct, a, c)


def test_bc_pairs_in_distinct_w_classes_not_identified():
    """Finite pairs (J inside Delta) with different saturations never merge."""
    ct = CartanType("B", 3, "adjoint")
    finite = [p for p in bc.enumerate_pairs(ct) if 0 not in p.J]
    for a in finite:
        for b in finite:
            if bc.pair_saturation(ct, a) != bc.pair_saturation(ct, b):
                assert not bc.equivalent(ct, a, b), (a, b)


# ---------------------------------------------------------------------
# distinguished diagrams per factor type
# ---------------------------------------------------------------------

PAIR_SYSTEMS = ([("A", n) for n in range(1, 9)]
                + [(s, n) for s in "BCD" for n in range(2, 9)] + [("G", 2)])
SIMPLE_TYPES = ([("A", n) for n in range(1, 9)]
                + [(s, n) for s in "BC" for n in range(2, 9)]
                + [("D", n) for n in range(3, 9)] + [("G", 2)])


@pytest.mark.parametrize("series,rank", PAIR_SYSTEMS)
def test_enumerate_pairs_matches_mask_oracle(monkeypatch, series, rank):
    """The per-type tables give the pairs that all 2^|J| masks of every face
    give.  Pairs do not depend on the isogeny."""
    monkeypatch.setattr(cartantype, "ABC_RANK_CAP", 8)
    ct = CartanType(series, rank)
    assert bc.enumerate_pairs.__wrapped__(ct) == enumerate_pairs_by_masks(ct)


def test_enumerate_pairs_needs_no_weyl_group(monkeypatch):
    """Pairs read each face's factors, never a WeylContext: B8 has faces
    whose Weyl groups exceed GROUP_ORDER_CAP, and with only the rank cap
    raised its 595 pairs still come out."""
    monkeypatch.setattr(cartantype, "ABC_RANK_CAP", 8)
    ct = CartanType("B", 8)
    assert any(math.prod(map(wr._factor_order, bc._face_factors(ct, j))) > cartantype.GROUP_ORDER_CAP
               for j in bc.proper_subsets(ct))
    pairs = bc.enumerate_pairs.__wrapped__(ct)
    assert len(pairs) == 595
    assert pairs == enumerate_pairs_by_masks(ct)


def test_pair_saturation_needs_no_weyl_group(monkeypatch):
    """saturation reads each face's factors, never a WeylContext: with only
    the rank cap raised, every B8 pair on a face whose Weyl group exceeds
    GROUP_ORDER_CAP saturates to the orbit whose weighted diagram is the
    dominant conjugate of the pair's neutral element h.  The test solves
    for h itself, over QQ on the whole face: beta(h) = 0 on J' and 2 on
    the rest of J, h in the span of J's coroots."""
    monkeypatch.setattr(cartantype, "ABC_RANK_CAP", 8)
    ct = CartanType("B", 8)
    rs = build_root_system(ct)
    big = {j for j in bc.proper_subsets(ct)
           if math.prod(map(wr._factor_order, bc._face_factors(ct, j))) > cartantype.GROUP_ORDER_CAP}
    pairs = [p for p in bc.enumerate_pairs.__wrapped__(ct) if p.J in big]
    assert len(pairs) == 15
    for p in pairs:
        nodes = sorted(p.J)
        basis = [rs.affine_simples[i][0] for i in nodes]
        labels = [0 if i in p.Jprime else 2 for i in nodes]
        t = mat_vec(mat_inv(tuple(tuple(rs.pairing(b, c) for c in basis) for b in basis)),
                    labels)
        h = [sum(tk * rs.coroot_coweight_coords(c)[i] for tk, c in zip(t, basis))
             for i in range(rs.rank)]
        assert all(Fraction(x).denominator == 1 for x in h), p
        want = rd.dominant_conjugate(rs, tuple(int(x) for x in h))
        assert weighted_dynkin(bc.pair_saturation(ct, p)).values == want, p


def _distinct_parts(total, parity):
    """Partitions of total into distinct parts of the given parity."""
    def parts(rest, largest):
        if rest == 0:
            yield ()
        for p in range(min(rest, largest), 0, -1):
            if p % 2 == parity:
                yield from ((p,) + tail for tail in parts(rest - p, p - 1))
    return set(parts(total, total))


def test_distinguished_tables_match_classification():
    """Collingwood-McGovern 1993, par. 8.2: in A the regular orbit only; in B
    and D the partitions into distinct odd parts, in C into distinct even
    parts; in G2 the orbits G2 and G2(a1)."""
    classical = {"A": lambda n: {(n + 1,)},
                 "B": lambda n: _distinct_parts(2 * n + 1, 1),
                 "C": lambda n: _distinct_parts(2 * n, 0),
                 "D": lambda n: _distinct_parts(2 * n, 1),
                 "G": lambda n: {"G2", "G2(a1)"}}
    for series, rank in PAIR_SYSTEMS:
        table = bc._distinguished(series, rank)
        got = {o.g2_label or o.partition for o in table.values()}
        assert got == classical[series](rank), (series, rank)
        for wdd, orbit in table.items():
            assert set(wdd) <= {0, 2} and weighted_dynkin(orbit).values == wdd


def test_distinguished_count_bounds_every_simple_type():
    """rank + #{alpha(h)=0} >= #{alpha(h)=2} for every 0/2 weighting of a
    simple type.  A pseudo-Levi's counts are sums over its factors, so
    equality on J holds exactly when it holds on every factor."""
    seen = 0
    for series, rank in SIMPLE_TYPES:
        roots = build_root_system(CartanType(series, rank)).roots
        for wdd in itertools.product((0, 2), repeat=rank):
            vals = [sum(c * v for c, v in zip(r, wdd)) for r in roots]
            assert rank + vals.count(0) >= vals.count(2), (series, rank, wdd)
            seen += 1
    assert seen == 2034


def test_non_distinguished_jprime_raises():
    """(2,0,0) on B3 is no distinguished diagram, so the pair names no orbit."""
    ct = CartanType("B", 3, "adjoint")
    pair = bc.ABCPair(J(1, 2, 3), J(2, 3))
    for f in (bc.distinguished_factor_orbits, bc.pair_saturation, pair_invariant):
        with pytest.raises(bc.ABCError, match="not distinguished"):
            f(ct, pair)


# ---------------------------------------------------------------------
# reference procedures (QQ eliminations, the Smith form, the slack-variable
# hull), kept as oracles for the integer closure, the Hermite lattice code,
# the closed-form hull and the integer equivalence tests
# ---------------------------------------------------------------------

def _swap_rows(m, i, j):
    m[i], m[j] = m[j], m[i]


def smith_normal_form(a):
    """Return (d, u, v) with u*a*v = d diagonal, u and v unimodular.

    Standard elementary-operation algorithm; entries must be ints.
    """
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    u = [list(r) for r in identity(rows)]
    v = [list(r) for r in identity(cols)]

    def pivot_at(t):
        # move a nonzero entry of minimal absolute value to (t, t)
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(rows, cols):
        pos = pivot_at(t)
        if pos is None:
            break
        i, j = pos
        _swap_rows(m, t, i)
        _swap_rows(u, t, i)
        for r in m:
            r[t], r[j] = r[j], r[t]
        for r in v:
            r[t], r[j] = r[j], r[t]
        dirty = False
        for i in range(t + 1, rows):
            q = m[i][t] // m[t][t]
            if q:
                m[i] = [x - q * y for x, y in zip(m[i], m[t])]
                u[i] = [x - q * y for x, y in zip(u[i], u[t])]
            if m[i][t]:
                dirty = True
        for j in range(t + 1, cols):
            q = m[t][j] // m[t][t]
            if q:
                for r in m:
                    r[j] -= q * r[t]
                for r in v:
                    r[j] -= q * r[t]
            if m[t][j]:
                dirty = True
        if dirty:
            continue
        # divisibility condition d_t | all later entries
        bad = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if m[i][j] % m[t][t] != 0:
                    bad = (i, j)
                    break
            if bad:
                break
        if bad:
            i, _ = bad
            m[t] = [x + y for x, y in zip(m[t], m[i])]
            u[t] = [x + y for x, y in zip(u[t], u[i])]
            continue
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return (tuple(tuple(r) for r in m), tuple(tuple(r) for r in u),
            tuple(tuple(r) for r in v))


def smith_kernel(a):
    """Hermite basis of {x : a x = 0} from the last columns of V."""
    rows, cols = len(a), len(a[0])
    d, _, v = smith_normal_form(a)
    rank = sum(1 for i in range(min(rows, cols)) if d[i][i] != 0)
    ker = tuple(tuple(v[i][j] for i in range(cols)) for j in range(rank, cols))
    return hermite_row_basis(ker) if ker else ()


def mat_inv(a):
    """Inverse of a square matrix over QQ (entries int or Fraction)."""
    n = len(a)
    aug = [[Fraction(a[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("matrix not invertible")
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


@functools.lru_cache(maxsize=None)
def reference_face_hull(ct, j):
    """The hull (base, direction) in X_*-basis coordinates, by one solve
    over QQ with a slack t_k per component: a_i = 0 on J and a_i = t_k off
    J, a_i the affine simple roots.  The solve is the Gauss-Jordan
    mat_inv, so this shares no elimination with face_hull."""
    rs = build_root_system(ct)
    affs = rs.affine_simples
    comps = rs.node_components
    n = rs.rank
    ncomp = len(comps)
    rows, rhs = [], []
    for i in sorted(j):
        alpha, off = affs[i]
        rows.append(list(_xstar_functional(rs, alpha)) + [0] * ncomp)
        rhs.append(Fraction(-off))
    for k, comp in enumerate(comps):
        for i in sorted(comp - j):
            alpha, off = affs[i]
            trow = [0] * ncomp
            trow[k] = -1
            rows.append(list(_xstar_functional(rs, alpha)) + trow)
            rhs.append(Fraction(-off))
    sol = mat_vec(mat_inv(tuple(tuple(r) for r in rows)), tuple(rhs))
    assert all(t > 0 for t in sol[n:])
    jrows = tuple(_xstar_functional(rs, affs[i][0]) for i in sorted(j))
    direction = smith_kernel(jrows) if j else identity(n)
    return tuple(sol[:n]), direction


def span_solve(basis, target):
    """Coefficients of target in the QQ-span of the basis rows, or None."""
    cols = len(basis)
    rows = len(target)
    aug = [[Fraction(basis[j][i]) for j in range(cols)] + [Fraction(target[i])]
           for i in range(rows)]
    piv_cols = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
    if any(aug[i][cols] != 0 for i in range(r, rows)):
        return None
    coeffs = [Fraction(0)] * cols
    for row_idx, c in enumerate(piv_cols):
        coeffs[c] = aug[row_idx][cols]
    return tuple(coeffs)


def reference_subsystem_roots(rs, basis):
    """Ambient roots with integer coordinates in the basis."""
    out = []
    for beta in rs.roots:
        coeffs = span_solve(basis, beta)
        if coeffs is not None and all(c.denominator == 1 for c in coeffs):
            out.append(beta)
    return tuple(out)


def in_lattice_plus_span(vec, direction_rows):
    """Is vec in ZZ^n + QQ-span(direction rows), the rows a basis of a
    saturated lattice?  Integrality of the complementary Smith coordinates."""
    n = len(vec)
    if not direction_rows:
        return all(Fraction(x).denominator == 1 for x in vec)
    d, u, _ = smith_normal_form(transpose(direction_rows))
    rank = sum(1 for i in range(min(n, len(direction_rows))) if d[i][i] != 0)
    w = mat_vec(u, [Fraction(x) for x in vec])
    return all(Fraction(w[i]).denominator == 1 for i in range(rank, n))


def xstar_matrix(rs, w):
    """The oracle's own integer matrix of w on X_*-basis coordinates.

    Adjoint: X_* is the coweight lattice, and row i is the root vector of
    w^{-1}(alpha_i).  Simply connected: X_* has the simple coroots as
    basis, and column j holds the coroot coordinates of w(alpha_j)^vee.
    """
    if rs.cartan_type.isogeny == "adjoint":
        return tuple(rs.roots[w.index(rs._root_index[b])] for b in rs.simple_roots)
    return tuple(zip(*(rs._coroot_of[rs.roots[w[rs._root_index[b]]]]
                       for b in rs.simple_roots)))


def reference_factor_table(ct, pair):
    """frozenset(root indices of a factor of J) -> (series, rank, orbit
    key) of the pair's orbit on that factor."""
    rs = build_root_system(ct)
    return {frozenset(rs._root_index[r] for r in f.roots):
            (f.series, f.rank, o.g2_label if o.system.series == "G" else o.partition)
            for f, o in zip(bc._face_factors(ct, pair.J),
                            bc.distinguished_factor_orbits(ct, pair))}


def reference_equivalent(ct, p1, p2):
    """The hull test on the reference hulls, by an HNF of each image
    direction and a Smith form; w must map each factor of J1 onto a
    factor of J2 that carries the same orbit."""
    base1, direction1 = reference_face_hull(ct, p1.J)
    base2, direction2 = reference_face_hull(ct, p2.J)
    table1 = reference_factor_table(ct, p1)
    table2 = reference_factor_table(ct, p2)
    if sorted(table1.values()) != sorted(table2.values()) \
            or len(direction1) != len(direction2):
        return False
    rs = build_root_system(ct)
    for w in weyl_group(ct):
        mx = xstar_matrix(rs, w)
        wdir = tuple(mat_vec(mx, row) for row in direction1)
        if hermite_row_basis(wdir) != direction2:
            continue
        wbase = mat_vec(mx, base1)
        diff = tuple(b - c for b, c in zip(base2, wbase))
        if not in_lattice_plus_span(diff, direction2):
            continue
        if all(table2.get(frozenset(w[i] for i in idx)) == data
               for idx, data in table1.items()):
            return True
    return False


@pytest.mark.parametrize("iso", ISOGENIES)
def test_equivalent_matches_reference_hull_test(iso):
    """Both orientations: equivalent scans w^-1, the reference scans w."""
    compared = 0
    for s, r in SMALL:
        ct = CartanType(s, r, iso)
        buckets = {}
        for p in bc.enumerate_pairs(ct):
            buckets.setdefault(bc._pair_data(ct, p)[1], []).append(p)
        for ps in buckets.values():
            for a in range(len(ps)):
                for b in range(a + 1, len(ps)):
                    for x, y in ((ps[a], ps[b]), (ps[b], ps[a])):
                        want = reference_equivalent(ct, x, y)
                        assert bc.equivalent(ct, x, y) == want, (ct, x, y)
                        compared += 1
    assert compared == 584


@pytest.mark.parametrize("iso", ISOGENIES)
def test_conjugate_root_tuples_matches_weyl_orbit_oracle(iso):
    """For every face pair that test_equivalent_matches_reference_hull_test
    compares, in both orders, and every ordering of the first face's
    gradients: conjugate_root_tuples finds the second face's gradients
    conjugate to that ordering exactly when some element of the
    enumerated Weyl group maps the one onto the other."""
    compared = 0
    for s, r in SMALL:
        ct = CartanType(s, r, iso)
        rs = build_root_system(ct)
        buckets = {}
        for p in bc.enumerate_pairs(ct):
            buckets.setdefault(bc._pair_data(ct, p)[1], []).append(p)
        faces = {(x.J, y.J) for ps in buckets.values() for x in ps for y in ps
                 if x != y}
        for j1, j2 in faces:
            grads1, grads2 = bc.face_hull(ct, j1)[2], bc.face_hull(ct, j2)[2]
            orbit = {tuple(w[g] for g in grads2) for w in weyl_group(ct)}
            for image in itertools.permutations(grads1):
                assert conjugate_root_tuples(rs, grads2, image) == (image in orbit), \
                    (ct, grads2, image)
                compared += 1
    assert compared == 2354


@pytest.mark.parametrize("series,rank,iso,count", [
    ("B", 6, "adjoint", 70), ("C", 6, "simply_connected", 112),
    ("D", 6, "simply_connected", 77), ("A", 6, "simply_connected", 21)])
def test_rank6_class_counts(monkeypatch, series, rank, iso, count):
    """The class counts that the scan over all of W gave at rank 6.  The
    cap is raised here only, and nothing rank-6 is left in the cached
    enumerate_pairs or classes."""
    monkeypatch.setattr(cartantype, "ABC_RANK_CAP", 6)
    monkeypatch.setattr(bc, "enumerate_pairs", bc.enumerate_pairs.__wrapped__)
    assert len(bc.classes.__wrapped__(CartanType(series, rank, iso))) == count


@pytest.mark.parametrize("iso", ISOGENIES)
def test_subsystem_roots_match_reference_span_test(iso):
    factors = 0
    for s, r in SMALL + [(s, 5) for s in "ABCD"]:
        ct = CartanType(s, r, iso)
        rs = build_root_system(ct)
        contexts = [ambient_context(ct)]
        contexts += [bc.pair_context(ct, j) for j in bc.proper_subsets(ct)]
        for ctx in contexts:
            for f in ctx.factors:
                assert f.roots == reference_subsystem_roots(rs, f.basis), (ct, f)
                for root, coeffs in zip(f.roots, f.coords):
                    assert root == tuple(sum(c * b[t] for c, b in zip(coeffs, f.basis))
                                         for t in range(rs.rank))
                factors += 1
    assert factors == 740


@pytest.mark.parametrize("iso", ISOGENIES)
def test_face_hull_matches_reference_slack_system(iso):
    """d * alpha(b) against the reference base, each root read as the
    test's own X_* functional."""
    faces = 0
    for s, r in [("A", 1)] + [(s, r) for s in "ABCD" for r in range(2, 7)] + [("G", 2)]:
        ct = CartanType(s, r, iso)
        rs = build_root_system(ct)
        for j in bc.proper_subsets(ct):
            d, vals, grads, offs, _ = bc.face_hull(ct, j)
            base, _ = reference_face_hull(ct, j)
            assert d > 0, (ct, j)
            assert vals == tuple(d * _at(rs, root, base) for root in rs.roots), (ct, j)
            assert tuple((rs.roots[g], off) for g, off in zip(grads, offs)) == \
                tuple(rs.affine_simples[i] for i in sorted(j)), (ct, j)
            faces += 1
    assert faces == 984


@pytest.mark.parametrize("ct", [CartanType("G", 2), CartanType("A", 1),
                                CartanType("D", 2), CartanType("B", 3)], ids=str)
def test_face_hull_of_a_whole_component_raises(ct):
    rs = build_root_system(ct)
    for comp in rs.node_components:
        with pytest.raises(bc.ABCError):
            bc.face_hull(ct, comp)
        with pytest.raises(bc.ABCError):
            bc.face_hull(ct, frozenset(range(rs.node_count())))


@pytest.mark.parametrize("ct", [CartanType("G", 2), CartanType("A", 1),
                                CartanType("D", 2), CartanType("B", 3)], ids=str)
def test_nodes_outside_the_diagram_raise(ct):
    """Node numbers below 0 or past the last node do not wrap around."""
    for node in (-1, build_root_system(ct).node_count()):
        j = frozenset({node})
        with pytest.raises(bc.ABCError):
            bc.face_hull(ct, j)
        with pytest.raises(bc.ABCError):
            bc.pair_context(ct, j)
        with pytest.raises(bc.ABCError):
            bc.saturation(ct, j, ())
        with pytest.raises(bc.ABCError):
            bc.pair_saturation(ct, bc.ABCPair(j, frozenset()))


def _int_matrices(max_rows, max_cols, bound):
    return st.integers(1, max_rows).flatmap(lambda r: st.integers(1, max_cols).flatmap(
        lambda c: st.lists(st.lists(st.integers(-bound, bound), min_size=c, max_size=c),
                           min_size=r, max_size=r)))


@given(_int_matrices(4, 5, 6))
@settings(max_examples=300, deadline=None)
def test_integer_kernel_matches_smith_kernel(a):
    a = tuple(map(tuple, a))
    ker = integer_kernel(a)
    assert ker == smith_kernel(a)
    for x in ker:
        assert not any(mat_vec(a, x))


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
             min_size=n, max_size=n),
    st.lists(st.integers(-9, 9), min_size=n, max_size=n))))
@settings(max_examples=300, deadline=None)
def test_solve_matches_gauss_jordan(ab):
    """a x = d b with d > 0 and gcd(x, d) = 1: x / d is the oracle's
    a^-1 b in lowest terms."""
    a, b = tuple(map(tuple, ab[0])), tuple(ab[1])
    try:
        want = mat_vec(mat_inv(a), b)
    except ValueError:
        with pytest.raises(ValueError, match="matrix not invertible"):
            solve(a, b)
        return
    x, d = solve(a, b)
    assert mat_vec(a, x) == tuple(d * v for v in b)
    assert d > 0 and math.gcd(*x, d) == 1
    assert tuple(Fraction(v, d) for v in x) == want


@pytest.mark.parametrize("a, b", [(((0,),), (1,)), (((0,),), (0,)),
                                  (((1, 2), (2, 4)), (1, 2)),
                                  (((1, 2), (2, 4)), (1, 0))])
def test_solve_singular_raises(a, b):
    with pytest.raises(ValueError, match="matrix not invertible"):
        solve(a, b)


def _det(a):
    n = len(a)
    tot = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[k] for i in range(n) for k in range(i + 1, n))
        term = (-1) ** inversions
        for i in range(n):
            term *= a[i][perm[i]]
        tot += term
    return tot


@given(st.integers(1, 3).flatmap(lambda n: st.lists(
    st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n)))
@settings(max_examples=300, deadline=None)
def test_hermite_box_coset_reps(a):
    """Pairwise inequivalent mod the row lattice, |det| of them.  With
    U A V = D, x is in the row lattice iff (x V)_i = 0 mod D_ii."""
    a = tuple(map(tuple, a))
    det = _det(a)
    assume(det != 0)
    reps = coset_reps(a)
    assert len(reps) == abs(det)
    d, _, v = smith_normal_form(a)
    n = len(a)
    residues = {tuple(sum(x[k] * v[k][i] for k in range(n)) % d[i][i] for i in range(n))
                for x in reps}
    assert len(residues) == len(reps)
