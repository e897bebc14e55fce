import functools
from fractions import Fraction
from types import MappingProxyType

import pytest

from orbitcalc import _labels
from orbitcalc import cartantype
from orbitcalc import chartab as ch
from orbitcalc import partitions as pt
from orbitcalc import weylrep as wr
from orbitcalc.orbits import (NilpotentOrbit, _springer_image, dual_bv, dual_ls,
                              enumerate_orbits, orbit_dimension,
                              regular_orbit, springer_rep_label, weighted_dynkin,
                              zero_orbit)
from orbitcalc.rootdata import (CartanType, build_factor, build_root_system,
                                reflection_closure, reflection_in_root)

import balacarter as bc
from oracles import (class_counts, dim, factor_is_special, families,
                     induce_multiplicity, induce_multiplicity_by_pairs,
                     is_special_rep, j_induce_by_pairs, orbit_s_factors,
                     orbit_springer_irrep, special_member, tensor_sgn)

CTS = [CartanType(s, r) for s, r in
       [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3),
        ("D", 4), ("B", 4), ("G", 2)]]


def ctx_of(ct):
    return wr.ambient_context(ct)


def _closure(rs, roots):
    """The subgroup generated by the reflections in the given roots, by
    breadth-first closure (the test's own enumeration of W_J)."""
    gens = [reflection_in_root(rs, r) for r in roots]
    ident = tuple(range(len(rs.roots)))
    seen = {ident: None}
    frontier = [ident]
    while frontier:
        new = []
        for w in frontier:
            for g in gens:
                x = tuple(g[i] for i in w)
                if x not in seen:
                    seen[x] = None
                    new.append(x)
        frontier = new
    return tuple(seen)


def _elements(ctx):
    out = _closure(ctx.rs, [b for f in ctx.factors for b in f.basis])
    assert len(out) == ctx.order
    return out


def test_irrep_counts():
    assert len(ctx_of(CartanType("A", 1)).irreps()) == 2
    assert len(ctx_of(CartanType("G", 2)).irreps()) == 6
    assert len(ctx_of(CartanType("B", 2)).irreps()) == 5
    # W(D4) has 13 irreducibles (11 pairs, two of them split into two)
    assert len(ctx_of(CartanType("D", 4)).irreps()) == 13


def test_triv_sgn_b_invariants():
    for ct in CTS:
        ctx = ctx_of(ct)
        reps = ctx.irreps()
        n_pos = len(build_root_system(ct).positive_roots)
        bs = sorted(e.b for e in reps)
        assert bs[0] == 0 and bs.count(0) == 1
        assert bs[-1] == n_pos and bs.count(n_pos) == 1


# the face D4xA1 of B5: split D4-classes times a non-trivial A1 part
B5_D4XA1 = (CartanType("B", 5), frozenset({0, 1, 2, 3, 5}))

ORTHOGONALITY_CONTEXTS = [pytest.param(lambda ct=ct: ctx_of(ct), id=str(ct))
                          for ct in CTS]
ORTHOGONALITY_CONTEXTS.append(pytest.param(lambda: bc.pair_context(*B5_D4XA1),
                                           id="B5-J01235"))


@pytest.mark.parametrize("make_ctx", ORTHOGONALITY_CONTEXTS)
def test_character_orthogonality(make_ctx):
    ctx = make_ctx()
    reps = ctx.irreps()
    for i, e1 in enumerate(reps):
        for e2 in reps[i:]:
            want = 1 if e1 == e2 else 0
            assert ctx.inner_product(e1, e2) == want, (e1, e2)


@pytest.mark.parametrize("ct", CTS, ids=str)
def test_sum_of_squares(ct):
    ctx = ctx_of(ct)
    assert sum(dim(ctx, e) ** 2 for e in ctx.irreps()) == ctx.order


@functools.lru_cache(maxsize=None)
def _molien_class_series(ctx, nmax):
    """Per class of W, the sum of 1/det(1-qw) over its elements, to q^nmax."""
    rs = ctx.rs
    n = rs.rank
    out = {}
    for w in _elements(ctx):
        imgs = [rs.roots[w[rs._root_index[b]]] for b in rs.simple_roots]
        mat = [[imgs[j][i] for j in range(n)] for i in range(n)]
        poly = [Fraction(c) for c in _det_one_minus_q(mat)]
        inv = _poly_inv(poly, nmax)
        acc = out.setdefault(ctx.class_of(w), [Fraction(0)] * nmax)
        for d in range(nmax):
            acc[d] += inv[d]
    return out


def _molien_b(ctx, irrep, nmax=40):
    """Fake-degree valuation oracle: lowest degree of (1/|W|) sum chi(w)/det(1-qw)."""
    total = [Fraction(0)] * nmax
    for cls, series in _molien_class_series(ctx, nmax).items():
        chi = ctx.char_value(irrep, cls)
        for d in range(nmax):
            total[d] += chi * series[d]
    coeffs = [c / ctx.order for c in total]
    for d, c in enumerate(coeffs):
        assert c.denominator == 1 and c >= 0
        if c:
            return d
    raise AssertionError("no nonzero coefficient")


def _det_one_minus_q(mat):
    """det(I - q*mat) as coefficients in q: mat's characteristic
    polynomial reversed, by Faddeev-LeVerrier (exact integer division)."""
    n = len(mat)
    coeffs = [1]
    aux = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        aux = [[sum(mat[i][t] * aux[t][j] for t in range(n)) + (coeffs[-1] if i == j else 0)
                for j in range(n)] for i in range(n)]
        tr = sum(mat[i][t] * aux[t][i] for i in range(n) for t in range(n))
        c, r = divmod(-tr, k)
        assert r == 0
        coeffs.append(c)
    return coeffs


def _poly_inv(p, nmax):
    assert p[0] == 1
    inv = [Fraction(0)] * nmax
    inv[0] = Fraction(1)
    for k in range(1, nmax):
        acc = Fraction(0)
        for i in range(1, min(k, len(p) - 1) + 1):
            acc += p[i] * inv[k - i]
        inv[k] = -acc
    return inv


@pytest.mark.parametrize("ct", [CartanType("A", 2), CartanType("B", 2),
                                CartanType("B", 3), CartanType("D", 4),
                                CartanType("G", 2)], ids=str)
def test_b_invariant_matches_molien_oracle(ct):
    ctx = ctx_of(ct)
    for e in ctx.irreps():
        assert e.b == _molien_b(ctx, e), e


def test_tensor_sgn_involution_and_values():
    for ct in CTS:
        ctx = ctx_of(ct)
        reps = ctx.irreps()
        sgn = max(reps, key=lambda e: e.b)
        images = set()
        for e in reps:
            t = tensor_sgn(ctx, e)
            images.add(t)
            assert tensor_sgn(ctx, t) == e
            # value check: chi_t = chi_e * chi_sgn on every class
            for cls in class_counts(ctx):
                assert ctx.char_value(t, cls) == \
                    ctx.char_value(e, cls) * ctx.char_value(sgn, cls), (ct, e, cls)
        assert len(images) == len(reps)


@pytest.mark.parametrize("ct", [CartanType("B", 3), CartanType("C", 2),
                                CartanType("D", 4)], ids=str)
def test_induce_identity_and_regular(ct):
    ctx = ctx_of(ct)
    for e in ctx.irreps():
        for f in ctx.irreps():
            assert induce_multiplicity(ctx, e, f) == (e == f), (e, f)
    trivial = wr.subgroup_context(ct, ())
    e0 = trivial.irreps()[0]
    for e in ctx.irreps():
        assert induce_multiplicity(trivial, e0, e) == dim(ctx, e)


def test_induce_s2_in_s3():
    ct = CartanType("A", 2)
    rs = build_root_system(ct)
    sub = wr.subgroup_context(ct, (rs.simple_roots[0],))
    ctx = ctx_of(ct)
    sgn_sub = next(e for e in sub.irreps() if e.b == 1)
    std = next(e for e in ctx.irreps() if e.label[0] == (2, 1))
    assert induce_multiplicity(sub, sgn_sub, std) == 1
    assert wr.j_induce(sub, sgn_sub) == std


def test_j_induce_identity_and_triv():
    for ct in [CartanType("B", 3), CartanType("G", 2)]:
        ctx = ctx_of(ct)
        for e in ctx.irreps():
            assert wr.j_induce(ctx, e) == e
        rs = build_root_system(ct)
        sub = wr.subgroup_context(ct, rs.simple_roots[:1])
        triv_sub = next(e for e in sub.irreps() if e.b == 0)
        assert wr.j_induce(sub, triv_sub).b == 0


def test_g2_pseudo_levi_j_induction():
    """j from the long A2 and from A1 x A1~ inside G2."""
    ct = CartanType("G", 2)
    rs = build_root_system(ct)
    theta = rs.highest_roots[0]
    neg_theta = tuple(-x for x in theta)
    # long A2: {-theta, alpha_1}; A1 x A1~: {-theta, alpha_2}
    a2 = wr.subgroup_context(ct, (neg_theta, rs.simple_roots[0]))
    a11 = wr.subgroup_context(ct, (neg_theta, rs.simple_roots[1]))
    assert a2.order == 6 and [f.series for f in a2.factors] == ["A"]
    assert a11.order == 4 and sorted(f.series for f in a11.factors) == ["A", "A"]
    sgn_a2 = max(a2.irreps(), key=lambda e: e.b)
    j1 = wr.j_induce(a2, sgn_a2)
    assert j1.label == ("phi(1,3)s",)
    sgn_a11 = max(a11.irreps(), key=lambda e: e.b)
    j2 = wr.j_induce(a11, sgn_a11)
    assert j2.label == ("phi(2,2)",)


INDUCTION_SYSTEMS = ([("A", n) for n in range(1, 6)]
                     + [(s, n) for s in "BCD" for n in range(2, 6)] + [("G", 2)])


def _outcome(fn, *args):
    """fn's value, or the type, message and candidates of its CharError."""
    try:
        return fn(*args)
    except ch.CharError as exc:
        return type(exc), str(exc), getattr(exc, "candidates", None)


@pytest.mark.parametrize("iso", ["adjoint", "simply_connected"])
def test_folded_induction_matches_pairwise_oracle(iso):
    """The induced class function, folded once per source character, gives
    the multiplicity that summing over the fusion pairs gives, for every
    ambient character with b <= b(E) (those j-induction weighs), and the
    same j-induced character or the same JInductionTie, for every
    character of every face context."""
    outcomes = {}
    for s, r in INDUCTION_SYSTEMS:
        ct = CartanType(s, r, iso)
        amb = wr.ambient_context(ct)
        for j in bc.proper_subsets(ct):
            sub = bc.pair_context(ct, j)
            for e in sub.irreps():
                for a in amb.irreps():
                    if a.b <= e.b:
                        assert induce_multiplicity(sub, e, a) == \
                            induce_multiplicity_by_pairs(sub, e, a), (ct, j, e, a)
                got = _outcome(wr.j_induce, sub, e)
                assert got == _outcome(j_induce_by_pairs, sub, e), (ct, j, e)
                kind = "single" if isinstance(got, wr.WeylIrrep) else got[0].__name__
                outcomes[kind] = outcomes.get(kind, 0) + 1
    assert outcomes == {"single": 3276, "JInductionTie": 6}


def test_families_unique_special():
    for ct in CTS:
        ctx = ctx_of(ct)
        fams = families(ctx)
        assert sum(len(m) for m, _ in fams) == len(ctx.irreps())
        for members, special in fams:
            assert special in members


def test_g2_family_shape():
    ctx = ctx_of(CartanType("G", 2))
    fams = families(ctx)
    sizes = sorted(len(m) for m, _ in fams)
    assert sizes == [1, 1, 4]
    big = next(m for m, _ in fams if len(m) == 4)
    labels = {e.label[0] for e in big}
    assert labels == {"phi(2,1)", "phi(2,2)", "phi(1,3)l", "phi(1,3)s"}
    special = next(s for m, s in fams if len(m) == 4)
    assert special.label == ("phi(2,1)",)


def test_springer_anchors():
    for ct in CTS:
        ctx = ctx_of(ct)
        reps = ctx.irreps()
        triv = next(e for e in reps if e.b == 0)
        sgn = max(reps, key=lambda e: e.b)
        assert wr.springer_orbit(ctx, triv) == regular_orbit(ct)
        assert wr.springer_orbit(ctx, sgn) == zero_orbit(ct)


def test_springer_b_is_fiber_dimension():
    for ct in CTS:
        ctx = ctx_of(ct)
        n_roots = len(build_root_system(ct).roots)
        for o in enumerate_orbits(ct):
            lab = springer_rep_label(o)
            b = _labels.b_invariant(ctx.factors[0].kind, lab) if len(ctx.factors) == 1 \
                else None
            if b is None:
                continue
            assert b == (n_roots - orbit_dimension(o)) // 2, (ct, o)


def test_springer_special_bijection():
    for ct in CTS:
        ctx = ctx_of(ct)
        if len(ctx.factors) != 1:
            continue
        specials = [o for o in enumerate_orbits(ct) if dual_ls(dual_ls(o)) == o]
        images = set()
        for o in specials:
            lab = springer_rep_label(o)
            assert factor_is_special(ctx.factors[0], lab), (ct, o)
            images.add(lab)
        assert len(images) == len(specials)
        # and conversely special reps hit special orbits
        for e in ctx.irreps():
            if is_special_rep(ctx, e):
                o = wr.springer_orbit(ctx, e)
                assert dual_ls(dual_ls(o)) == o


# characters off the trivial-local-system image that a symbol-and-collapse
# recipe once sent four at a time onto one orbit: (5,3,3,1,1) in B6 and
# (4,4,2,2) in C6, whose component groups leave room for fewer
OFF_IMAGE = [("B", ((2, 2), (1, 1))), ("B", ((2, 1, 1), (2,))),
             ("B", ((2, 2, 1), (1,))), ("B", ((2, 2, 2), ())),
             ("C", ((), (3, 3))), ("C", ((1,), (3, 2))),
             ("C", ((2,), (2, 2))), ("C", ((1, 1), (3, 1)))]


@pytest.mark.parametrize("series, lab", OFF_IMAGE, ids=str)
def test_springer_orbit_off_the_image_raises(series, lab):
    ct = CartanType(series, 6)
    assert lab in {e.label[0] for e in ctx_of(ct).irreps()}
    assert lab not in _springer_image(ct)
    with pytest.raises(ch.CharError, match="trivial local system"):
        _labels.springer_orbit_label(ct, lab)


def test_springer_orbit_g2_nontrivial_system():
    ct = CartanType("G", 2)
    assert _labels.springer_orbit_label(ct, "phi(1,3)l") == NilpotentOrbit(ct, g2_label="G2(a1)")


def richardson_label(ct, orbit):
    """The W(D_n) label of j_{W_L}^W(sgn), L the nodes where the weighted
    diagram of the even orbit is 0.  The orbit is Richardson for that
    parabolic, so this is its Springer character (Lusztig-Spaltenstein,
    Induced unipotent classes, J. London Math. Soc. 1979)."""
    rs = build_root_system(ct)
    levi = [i for i, v in enumerate(weighted_dynkin(orbit).values) if v == 0]
    sub = wr.subgroup_context(ct, tuple(rs.simple_roots[i] for i in levi))
    induced = wr.j_induce(sub, max(sub.irreps(), key=lambda e: e.b))
    if ct.rank > 2:
        (label,) = induced.label
        return label
    # W(D2) = W(A1) x W(A1) on alpha_1 = e1 - e2 and alpha_2 = e1 + e2.
    # s_{alpha_1} permutes e1, e2 with no sign change, so it lies in the
    # '+' split class, where {(1), (1)}+ takes the value +1.
    assert ch._split_sign((1, 0), (1, 1)) == 1
    assert ch.d_char(((1,), (1,)), 1, (2,), (), 1) == 1
    value = {f.basis: 1 if lab == (2,) else -1
             for f, lab in zip(wr.ambient_context(ct).factors, induced.label)}
    at_1, at_2 = value[rs.simple_roots[:1]], value[rs.simple_roots[1:]]
    if at_1 == at_2:
        return (((2,), ()), 0) if at_1 == 1 else (((1, 1), ()), 0)
    return (((1,), (1,)), at_1)


# very even orbits of D_n whose Springer label disagrees with the
# Richardson oracle
RICHARDSON_FAULTS = {2: 0, 4: 0, 6: 0, 8: 0}


def test_very_even_springer_labels_against_richardson(monkeypatch):
    """Every very even orbit of D2, D4, D6 and D8 (2, 4, 6 and 10 of
    them): its Springer label against the Richardson oracle.  D8's
    ambient context is built with GROUP_ORDER_CAP raised; once the cap is
    back, ambient_context refuses it before its cache."""
    monkeypatch.setattr(cartantype, "GROUP_ORDER_CAP", 10 ** 7)
    very_even, faults = {}, {}
    for n in RICHARDSON_FAULTS:
        ct = CartanType("D", n)
        orbs = [o for o in enumerate_orbits(ct) if o.very_even]
        very_even[n] = len(orbs)
        faults[n] = sum(richardson_label(ct, o) != springer_rep_label(o) for o in orbs)
    assert very_even == {2: 2, 4: 4, 6: 6, 8: 10}
    assert faults == RICHARDSON_FAULTS


def test_ambient_context_checks_the_cap_before_its_cache(monkeypatch):
    """A context built under a higher GROUP_ORDER_CAP is not served past a
    lower one: B4's (order 384) is refused once the cap is 383, though it
    stays cached."""
    b4 = CartanType("B", 4)
    assert wr.ambient_context(b4).order == 384
    monkeypatch.setattr(cartantype, "GROUP_ORDER_CAP", 383)
    with pytest.raises(ch.CharError, match="^group of order 384 exceeds cap 383$"):
        wr.ambient_context(b4)
    assert wr.ambient_context.cache_info().currsize


def test_orbit_s_extremes():
    for ct in CTS:
        ctx = ctx_of(ct)
        reps = ctx.irreps()
        triv = next(e for e in reps if e.b == 0)
        sgn = max(reps, key=lambda e: e.b)
        sat_sgn = wr.ambient_orbit_from_factor_orbits(
            ctx.rs, ctx.factors, orbit_s_factors(ctx, sgn))
        sat_triv = wr.ambient_orbit_from_factor_orbits(
            ctx.rs, ctx.factors, orbit_s_factors(ctx, triv))
        assert sat_sgn == regular_orbit(ct)
        assert sat_triv == zero_orbit(ct)


def test_g2_orbit_s_big_family():
    ctx = ctx_of(CartanType("G", 2))
    hits = {}
    for e in ctx.irreps():
        orb = wr.ambient_orbit_from_factor_orbits(ctx.rs, ctx.factors,
                                                  orbit_s_factors(ctx, e))
        hits[e.label[0]] = orb.g2_label
    assert hits["phi(1,6)"] == "G2"
    assert hits["phi(1,0)"] == "0"
    for lab in ("phi(2,1)", "phi(2,2)", "phi(1,3)l", "phi(1,3)s"):
        assert hits[lab] == "G2(a1)"


def dual_bv_pipeline(o_dual: NilpotentOrbit) -> NilpotentOrbit:
    """Barbasch-Vogan duality through the Springer/j machinery."""
    src = o_dual.system
    ctx = ctx_of(CartanType(src.series, src.rank))
    e = orbit_springer_irrep(ctx, o_dual, source=src)
    twisted = tensor_sgn(ctx, e)
    special = special_member(ctx, twisted)
    return wr.springer_orbit(ctx, special, target=src.dual)


@pytest.mark.parametrize("ct", [CartanType("A", 2), CartanType("A", 3),
                                CartanType("B", 2), CartanType("B", 3),
                                CartanType("C", 3), CartanType("D", 4),
                                CartanType("G", 2)], ids=str)
def test_dual_bv_matches_springer_pipeline(ct):
    for o in enumerate_orbits(ct.dual):
        got = dual_bv_pipeline(o)
        want = dual_bv(o)
        if got.system.series == "D" and got.partition == want.partition:
            continue  # marks follow a separate convention
        assert got == want, (ct, o, got, want)


def test_induction_from_d4_into_b4_is_consistent():
    """Split-class handling: Frobenius reciprocity integrality both ways."""
    ct = CartanType("B", 4)
    rs = build_root_system(ct)
    # D4 basis inside B4: e1-e2, e2-e3, e3-e4, e3+e4
    e12, e23, e34 = rs.simple_roots[0], rs.simple_roots[1], rs.simple_roots[2]
    e4 = rs.simple_roots[3]
    e3p4 = tuple(a + 2 * b for a, b in zip(e34, e4))  # e3+e4
    sub = wr.subgroup_context(ct, (e12, e23, e34, e3p4))
    assert [f.series for f in sub.factors] == ["D"]
    ctx = ctx_of(ct)
    for e_sub in sub.irreps():
        total = 0
        for e in ctx.irreps():
            m = induce_multiplicity(sub, e_sub, e)
            assert m >= 0
            total += m * dim(ctx, e)
        assert total == (ctx.order // sub.order) * dim(sub, e_sub)


def test_j_preserves_b_from_d4():
    ct = CartanType("B", 4)
    rs = build_root_system(ct)
    e12, e23, e34 = rs.simple_roots[0], rs.simple_roots[1], rs.simple_roots[2]
    e3p4 = tuple(a + 2 * b for a, b in zip(e34, rs.simple_roots[3]))
    sub = wr.subgroup_context(ct, (e12, e23, e34, e3p4))
    for e_sub in sub.irreps():
        if not is_special_rep(sub, e_sub):
            continue
        j = wr.j_induce(sub, e_sub)
        assert j.b == e_sub.b


def _split_sign_by_search(ctx, f, w, alpha):
    """Oracle for the split-class sign: +1 iff some u in W(f) conjugates w
    onto the element with positive consecutive cycles of lengths alpha on
    the frame of f (compared on f's frame, so other factors of w do not
    matter)."""
    pi, pos = [], 0
    for ln in alpha:
        pi += [pos + (t + 1) % ln for t in range(ln)]
        pos += ln
    target = (tuple(pi), (1,) * pos)
    for u in _closure(ctx.rs, f.basis):
        inv = [0] * len(u)
        for i, j in enumerate(u):
            inv[j] = i
        if ch._signed_perm(ctx.rs, f, tuple(u[w[k]] for k in inv)) == target:
            return 1
    return -1


def _d_factor_contexts():
    out = []
    for iso in ("adjoint", "simply_connected"):
        d4, b4 = CartanType("D", 4, iso), CartanType("B", 4, iso)
        out.append(ctx_of(d4))
        out += [bc.pair_context(b4, j) for j in bc.proper_subsets(b4)]
    out.append(bc.pair_context(*B5_D4XA1))
    return out


def test_split_sign_matches_conjugacy_search():
    checked = 0
    for ctx in _d_factor_contexts():
        for f, cl in zip(ctx.factors, ctx.classifiers):
            if f.kind != "D":
                continue
            for w in _elements(ctx):
                alpha, beta, sign = cl.label(w)
                if sign:
                    assert sign == _split_sign_by_search(ctx, f, w, alpha), (f.basis, w)
                    checked += 1
    assert checked > 0


# ---------------------------------------------------------------------
# the class sums against sums over the elements of W_J
# ---------------------------------------------------------------------

def _class_counts_by_elements(ctx, elements):
    counts = {}
    for w in elements:
        cls = ctx.class_of(w)
        counts[cls] = counts.get(cls, 0) + 1
    return counts


def _fusion_by_elements(sub, elements):
    amb = wr.ambient_context(sub.cartan_type)
    counts = {}
    for w in elements:
        key = (sub.class_of(w), amb.class_of(w))
        counts[key] = counts.get(key, 0) + 1
    return counts


CLASS_SUM_SYSTEMS = [CartanType(s, r, iso)
                     for iso in ("adjoint", "simply_connected")
                     for s, r in [("A", 1), ("G", 2)] + [
                         (s, r) for s in "ABCD" for r in range(2, 6)]]


@pytest.mark.parametrize("ct", CLASS_SUM_SYSTEMS,
                         ids=lambda ct: f"{ct}-{ct.isogeny}")
def test_class_sums_match_element_sums(ct):
    """class_counts and _fusion over class representatives equal the sums
    over the elements of W_J, on the ambient context and every pair
    context; each factor representative lies in its class, and the factor's
    class sizes add up to its order."""
    contexts = [ctx_of(ct)] + [bc.pair_context(ct, j) for j in bc.proper_subsets(ct)]
    for ctx in contexts:
        elements = _elements(ctx)
        assert class_counts(ctx) == _class_counts_by_elements(ctx, elements)
        assert wr._fusion(ctx) == _fusion_by_elements(ctx, elements)
        for f, c in zip(ctx.factors, ctx.classifiers):
            classes = ch.factor_classes(f.kind, f.rank)
            for lab, _ in classes:
                assert c.label(c.representative(lab)) == lab, (f.basis, lab)
            assert sum(n for _, n in classes) == wr._factor_order(f)


def test_group_order_cap(monkeypatch):
    ct = CartanType("B", 3)
    rs = build_root_system(ct)
    monkeypatch.setattr(cartantype, "GROUP_ORDER_CAP", 47)
    with pytest.raises(ch.CharError, match="exceeds cap 47"):
        wr.WeylContext(ct, rs.simple_roots)


def _immutable(x):
    """x and everything it holds are immutable: numbers, strings, tuples
    (namedtuples too), frozensets and read-only mappings."""
    if x is None or isinstance(x, (int, str)):
        return True
    if isinstance(x, (tuple, frozenset)):
        return all(map(_immutable, x))
    if isinstance(x, MappingProxyType):
        return all(_immutable(k) and _immutable(v) for k, v in x.items())
    return False


def test_warm_caches_hold_immutable_values_and_keep_the_cap(monkeypatch):
    """Every value the character layer keeps is immutable, and a context
    built after the caches are warm still checks GROUP_ORDER_CAP."""
    ct = CartanType("B", 4)
    rs = build_root_system(ct)
    amb = wr.ambient_context(ct)
    kept = [amb.irreps(), amb.class_representatives(), _springer_image(ct)]
    for j in bc.proper_subsets(ct):
        ctx = bc.pair_context(ct, j)
        for e in ctx.irreps():
            try:
                kept.append(wr.springer_orbit(amb, wr.j_induce(ctx, e), target=ct.dual))
            except ch.CharError:  # a tie, or a label off the Springer image
                pass
            kept.append(orbit_s_factors(ctx, e))
        kept += [ctx.irreps(), ctx.class_representatives(), wr._fusion(ctx),
                 bc._face_factors(ct, j), tuple(ctx._values.values()),
                 tuple(v for c in ctx.classifiers for v in c._cache.values())]
        for f in ctx.factors:
            kept += [build_factor(rs, f.basis), reflection_closure(f.cartan),
                     _labels._specials(f.kind, f.rank)]
            kept += [wr._factor_weighting(f.cartan, wdd) for wdd in bc._distinguished(f.series, f.rank)]
    for pair in bc.enumerate_pairs(ct):
        kept += [bc._pair_data(ct, pair), bc.pair_saturation(ct, pair)]
    kept += [rs.coroot_coweight_coords(r) for r in rs.roots]
    for x in kept:
        assert _immutable(x), x
    assert any(isinstance(x, MappingProxyType) and any(k != v for k, v in x.items())
               for x in kept)  # a family -> special table that moves a label
    monkeypatch.setattr(cartantype, "GROUP_ORDER_CAP", 47)
    with pytest.raises(ch.CharError, match="exceeds cap 47"):
        wr.WeylContext(ct, rs.simple_roots)
    with pytest.raises(ch.CharError, match="exceeds cap 47"):
        bc.pair_context.__wrapped__(ct, frozenset({0, 1, 2, 3}))
