import warnings
from fractions import Fraction

import pytest

from orbitcalc import rootdata as rd


def test_cartan_type_validation():
    with pytest.raises(rd.RootDataError):
        rd.CartanType("G", 3)
    with pytest.raises(rd.RootDataError):
        rd.CartanType("D", 1)
    with pytest.raises(rd.RootDataError):
        rd.CartanType("A", 0)
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        ct = rd.CartanType("B", 1)
    assert ct.series == "A"
    normalized = [x for x in w if "normalized" in str(x.message)]
    # the warning names the caller's line, not the library's
    assert normalized and normalized[0].filename == __file__


def test_duals():
    assert rd.CartanType("B", 3).dual.series == "C"
    assert rd.CartanType("B", 3, "adjoint").dual.isogeny == "simply_connected"
    assert rd.CartanType("A", 2).dual.series == "A"


# every series up to rank 8, in both isogenies
SYSTEMS = [rd.CartanType(s, r, iso)
           for iso in ("adjoint", "simply_connected")
           for s, r in [("A", 1), ("G", 2)] + [(s, r) for s in "ABCD" for r in range(2, 9)]]


def test_root_counts():
    count = {"A": lambda n: n * (n + 1), "B": lambda n: 2 * n * n,
             "C": lambda n: 2 * n * n, "D": lambda n: 2 * n * (n - 1),
             "G": lambda n: 12}
    for ct in SYSTEMS:
        rs = rd.build_root_system(ct)
        assert len(rs.roots) == count[ct.series](ct.rank), ct
        assert len(rs.positive_roots) * 2 == len(rs.roots), ct


def epsilon_model(series, n):
    """(simple roots, set of roots) in orthonormal coordinates, from the
    plates of Bourbaki, Lie Groups and Lie Algebras, ch. VI."""
    def e(*pairs, dim=n):
        v = [0] * dim
        for i, x in pairs:
            v[i] += x
        return tuple(v)

    if series == "A":
        simples = [e((i, 1), (i + 1, -1), dim=n + 1) for i in range(n)]
        roots = {e((i, 1), (j, -1), dim=n + 1)
                 for i in range(n + 1) for j in range(n + 1) if i != j}
        return simples, roots
    if series == "G":
        # the plane x + y + z = 0; alpha_1 long, alpha_2 short
        simples = [e((0, -2), (1, 1), (2, 1), dim=3), e((0, 1), (1, -1), dim=3)]
        roots = set()
        for i in range(3):
            for j in range(3):
                if i != j:
                    k = 3 - i - j
                    roots |= {e((i, 1), (j, -1), dim=3),
                              e((i, 2), (j, -1), (k, -1), dim=3),
                              e((i, -2), (j, 1), (k, 1), dim=3)}
        return simples, roots
    long_pairs = {e((i, a), (j, b)) for i in range(n) for j in range(n) if i != j
                  for a in (1, -1) for b in (1, -1)}
    simples = [e((i, 1), (i + 1, -1)) for i in range(n - 1)]
    if series == "B":
        return simples + [e((n - 1, 1))], long_pairs | {e((i, a)) for i in range(n)
                                                         for a in (1, -1)}
    if series == "C":
        return simples + [e((n - 1, 2))], long_pairs | {e((i, 2 * a)) for i in range(n)
                                                         for a in (1, -1)}
    return simples + [e((n - 2, 1), (n - 1, 1))], long_pairs


def in_epsilon(coeffs, simples):
    return tuple(sum(c * v[t] for c, v in zip(coeffs, simples))
                 for t in range(len(simples[0])))


def test_roots_match_epsilon_model():
    for ct in SYSTEMS:
        rs = rd.build_root_system(ct)
        simples, roots = epsilon_model(ct.series, ct.rank)
        assert {in_epsilon(r, simples) for r in rs.roots} == roots, ct


def test_highest_root_is_highest():
    """theta is a root, and theta + alpha_i is none for every simple root
    alpha_i of theta's component; root membership from the epsilon model."""
    for ct in SYSTEMS:
        rs = rd.build_root_system(ct)
        simples, roots = epsilon_model(ct.series, ct.rank)
        assert len(rs.highest_roots) == len(rs.node_components), ct
        for theta, nodes in zip(rs.highest_roots, rs.node_components):
            assert in_epsilon(theta, simples) in roots, ct
            for i in nodes:
                alpha, off = rs.affine_simples[i]
                if off:
                    continue
                up = tuple(t + a for t, a in zip(theta, alpha))
                assert in_epsilon(up, simples) not in roots, (ct, theta, i)


def test_affine_simple_counts():
    assert len(rd.build_root_system(rd.CartanType("A", 1)).affine_simples) == 2
    assert len(rd.build_root_system(rd.CartanType("G", 2)).affine_simples) == 3
    assert len(rd.build_root_system(rd.CartanType("D", 4)).affine_simples) == 5
    # D2 falls apart into two components, each with its own affine node
    assert len(rd.build_root_system(rd.CartanType("D", 2)).affine_simples) == 4


def test_pairing_is_cartan_matrix():
    for ct in SYSTEMS:
        rs = rd.build_root_system(ct)
        for i in range(rs.rank):
            for j in range(rs.rank):
                assert rs.pairing(rs.simple_roots[i], rs.simple_roots[j]) == rs.cartan[i][j]
        for alpha in rs.roots:
            assert rs.pairing(alpha, alpha) == 2, (ct, alpha)


def test_weyl_orders():
    assert len(rd.weyl_group(rd.CartanType("A", 1))) == 2
    assert len(rd.weyl_group(rd.CartanType("G", 2))) == 12
    assert len(rd.weyl_group(rd.CartanType("B", 3))) == 48
    assert len(rd.weyl_group(rd.CartanType("D", 4))) == 192
    with pytest.raises(rd.RootDataError):
        rd.weyl_group(rd.CartanType("A", 7))


@pytest.mark.parametrize("ct", [rd.CartanType(s, r, iso)
                                for iso in ("adjoint", "simply_connected")
                                for s, r in [("B", 2), ("G", 2), ("D", 4)]],
                         ids=lambda ct: f"{ct}-{ct.isogeny}")
def test_weyl_permutes_roots_and_composition(ct):
    """A Weyl element permutes the root indices, apply_root_coords sends
    each root to the root at its image index, and tuple(s[i] for i in t)
    acts as s after t on points and on coefficient vectors."""
    rs = rd.build_root_system(ct)
    for w in rd.weyl_group(ct):
        assert sorted(w) == list(range(len(rs.roots)))
        for i, beta in enumerate(rs.roots):
            assert rd.apply_root_coords(rs, w, beta) == rs.roots[w[i]]
    v = tuple(Fraction(3 * k - 2, k + 1) for k in range(rs.rank))
    c = tuple(2 * k - 3 for k in range(rs.rank))
    gens = [rd.simple_reflection(rs, i) for i in range(rs.rank)]
    for s in gens:
        for t in gens:
            w = tuple(s[i] for i in t)
            assert rd.apply_point(rs, w, v) == \
                rd.apply_point(rs, s, rd.apply_point(rs, t, v))
            assert rd.apply_root_coords(rs, w, c) == \
                rd.apply_root_coords(rs, s, rd.apply_root_coords(rs, t, c))


def test_dominant_conjugate():
    ct = rd.CartanType("B", 2)
    rs = rd.build_root_system(ct)
    v = (Fraction(1), Fraction(2))
    assert rd.dominant_conjugate(rs, v) == v
    a1 = rd.build_root_system(rd.CartanType("A", 1))
    # -alpha^vee maps to alpha^vee
    assert rd.dominant_conjugate(a1, (-2,)) == (2,)
    # W-invariance: every conjugate of a dominant h re-dominates to h
    h = (Fraction(2), Fraction(1))
    for w in rd.weyl_group(ct):
        assert rd.dominant_conjugate(rs, rd.apply_point(rs, w, h)) == h


def test_alcove_symmetry_orders():
    assert len(rd.alcove_symmetries(rd.CartanType("A", 1, "adjoint"))) == 2
    assert len(rd.alcove_symmetries(rd.CartanType("A", 2, "adjoint"))) == 3
    assert len(rd.alcove_symmetries(rd.CartanType("G", 2, "adjoint"))) == 1
    assert len(rd.alcove_symmetries(rd.CartanType("A", 2, "simply_connected"))) == 1
    assert len(rd.alcove_symmetries(rd.CartanType("D", 4, "adjoint"))) == 4
    assert len(rd.alcove_symmetries(rd.CartanType("B", 3, "adjoint"))) == 2


def test_alcove_symmetry_a1_swaps_nodes():
    ct = rd.CartanType("A", 1, "adjoint")
    rs = rd.build_root_system(ct)
    syms = rd.alcove_symmetries(ct)
    ident = tuple(range(len(rs.roots)))
    nontriv = [s for s in syms if not (s.finite_part == ident and not any(s.translation))]
    assert len(nontriv) == 1
    assert nontriv[0].node_permutation(rs) == (1, 0)


def test_alcove_symmetry_a2_rotates():
    ct = rd.CartanType("A", 2, "adjoint")
    rs = rd.build_root_system(ct)
    perms = {s.node_permutation(rs) for s in rd.alcove_symmetries(ct)}
    # identity plus two 3-cycles of the affine diagram
    assert (0, 1, 2) in perms
    assert len(perms) == 3
    for p in perms:
        if p != (0, 1, 2):
            assert sorted(p) == [0, 1, 2] and p != (0, 1, 2)


def test_alcove_symmetries_form_group():
    ct = rd.CartanType("A", 2, "adjoint")
    rs = rd.build_root_system(ct)
    syms = rd.alcove_symmetries(ct)
    # composition stays in the set (compare via node permutation + action on a point)
    b = (Fraction(1, 7), Fraction(2, 7))
    images = {s.apply_point(rs, b) for s in syms}
    for s in syms:
        for t in syms:
            comp = s.apply_point(rs, t.apply_point(rs, b))
            assert comp in images


def test_display_indexing():
    """Node 0 is (-theta, 1), node i is (alpha_i, 0); a component's affine
    node precedes its finite nodes, and the marks are 1 at the affine
    node and theta's coefficients elsewhere."""
    for ct in SYSTEMS:
        if ct.series == "D" and ct.rank == 2:
            continue
        rs = rd.build_root_system(ct)
        theta, = rs.highest_roots
        assert rs.affine_simples[0] == (tuple(-x for x in theta), 1), ct
        assert rs.affine_simples[1:] == tuple((a, 0) for a in rs.simple_roots), ct
        assert rs.marks == (1, *theta), ct
        assert rs.node_components == (frozenset(range(rs.rank + 1)),), ct
    # D2 = A1 x A1: nodes a0, a1 on alpha_1's component, a2, a3 on alpha_2's
    rs = rd.build_root_system(rd.CartanType("D", 2))
    assert rs.affine_simples == (((-1, 0), 1), ((1, 0), 0), ((0, -1), 1), ((0, 1), 0))
    assert rs.marks == (1, 1, 1, 1)
    assert rs.node_components == (frozenset({0, 1}), frozenset({2, 3}))
