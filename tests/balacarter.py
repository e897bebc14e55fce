"""Affine Bala-Carter data.

A pair (J, J') is a face J, a set of affine simple nodes proper within
each component of the extended diagram, with one distinguished orbit on
each factor of J's pseudo-Levi, read off the factor type's table of 0/2
diagrams: J' is the set of nodes weighted 0.  Pairs are taken up to the
extended-affine-Weyl-group equivalence (Sommers, A generalization of the
Bala-Carter theorem for nilpotent orbits, IMRN 1998): a finite Weyl
element w identifies two pairs when it maps the affine hull of one
alcove face onto the other's modulo the cocharacter lattice X_* and
transports the per-factor distinguished orbits.

The decision reads the two faces' diagrams and enumerates no Weyl group.
Per face J, face_hull keeps d * alpha(b) for every root alpha, the root
indices of J's gradients with their affine offsets, and one congruence
per column of H^-1, H the Hermite basis of G X_* for the gradients' X_*
functionals G.  The base b is read off the affine marks in coweight
coordinates (alpha_i(b) = 1 / (sum of the marks off J) on the free
finite nodes, 0 on J), d being the lcm of those sums, so only the
congruences need a solve.  Pairs p1 and p2 are equivalent exactly when
some bijection sigma from J2's gradients onto J1's
  (i) keeps every pairing <g, h^vee> and each factor's (series, rank,
      orbit);
  (ii) puts y_g = d1 * sigma(g)(b1) + d1 * off_g, g in J2, in d1 G2 X_*
      (J2's congruences): since alpha(w b) = (w^-1 alpha)(b), these are
      the values of J2's affine roots at w b1 for w^-1 = sigma on J2;
  (iii) is realised by W: some u in W has u(g) = sigma(g) for every g
      (the codes of the two tuples agree, oracles.root_tuple_code;
      equivalent computes the code of J2's gradients once per call).
Nothing is lost by asking the witness to map J2's gradients onto J1's.
A witness u maps J2's pseudo-Levi roots onto J1's, and the element of
J1's pseudo-Levi Weyl group that carries u(J2's gradients) back onto
J1's fixes J1's span and each factor's orbit and moves b1 by coroots
only (s_beta b1 = b1 + off * beta^vee), which lie in Q^vee in X_*.
The bijections come from a backtrack over the gradients that checks (i)
node by node; (ii) and then (iii) are checked on each complete one.

Nodes are numbered as in rs.affine_simples: per component the affine
node, then the finite simple roots (for a simple type 0 is the affine
node and 1..n are alpha_1..alpha_n).

This is the test suite's oracle, not a path of the library.  The
unramified tables of types A-D read their pairs and classes from
coordinate blocks (orbitcalc._unramified), and G2 reads them from a
frozen table (orbitcalc._g2) that tests/test_g2_data.py checks against
enumerate_pairs and classes.  The pair type, ABCPair, lives in
orbitcalc.duality.  local-wf reads its faces' factors, and the
partition path its key, off the nodes' coordinates
(_labels.face_factors, _labels.block_key), or G2's from orbitcalc._g2;
_face_factors and proper_subsets are their oracle.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import lcm
from types import MappingProxyType

# weylrep runs on first use (see orbitcalc/__init__.py): pairs and
# classes never run it, nor the character layer under it
from orbitcalc import weylrep as wr
from orbitcalc.cartantype import ABCError, _capped_cache
from orbitcalc.duality import ABCPair
from orbitcalc.linalg import hermite_row_basis, identity, solve, transpose
from orbitcalc.orbits import NilpotentOrbit, enumerate_orbits, weighted_dynkin
from orbitcalc.rootdata import (CartanType, RootSystem, build_factor, build_root_system,
                                split_basis_into_factors)

# oracles imports this module too: its helpers are looked up at call time
import oracles


def is_proper(ct: CartanType, j: frozenset) -> bool:
    """J is a set of nodes of the affine diagram, proper within each
    component."""
    rs = build_root_system(ct)
    return (all(0 <= i < rs.node_count() for i in j)
            and all(j & c != c for c in rs.node_components))


def proper_subsets(ct: CartanType):
    """All J in P(affine diagram): proper within each component."""
    total = build_root_system(ct).node_count()
    subsets = (frozenset(i for i in range(total) if mask >> i & 1)
               for mask in range(1 << total))
    return tuple(sorted((j for j in subsets if is_proper(ct, j)),
                        key=lambda s: (len(s), tuple(sorted(s)))))


def _basis_of(rs: RootSystem, j) -> tuple:
    return tuple(sorted(rs.affine_simples[i][0] for i in j))


@lru_cache(maxsize=None)
def pair_context(ct: CartanType, j: frozenset) -> wr.WeylContext:
    if not is_proper(ct, j):
        raise ABCError(f"J={sorted(j)} is not a face type of {ct}")
    rs = build_root_system(ct)
    return wr.subgroup_context(ct, _basis_of(rs, j))


@lru_cache(maxsize=None)
def _face_factors(ct: CartanType, j: frozenset) -> tuple:
    """The factors of J's pseudo-Levi, as pair_context(ct, j).factors,
    without the group: the pairs and their saturations need no Weyl
    group, so they never meet GROUP_ORDER_CAP."""
    if not is_proper(ct, j):
        raise ABCError(f"J={sorted(j)} is not a face type of {ct}")
    rs = build_root_system(ct)
    return tuple(build_factor(rs, c)
                 for c in split_basis_into_factors(rs, _basis_of(rs, j)))


@lru_cache(maxsize=None)
def _distinguished(series: str, rank: int) -> MappingProxyType:
    """0/2 diagram -> orbit, for the distinguished orbits of a simple type.

    An even orbit is distinguished when dim g_0 = dim g_2, that is when
    rank + #{alpha(h)=0} = #{alpha(h)=2} over the type's roots; classically
    the regular orbit in type A, the partitions into distinct odd parts in
    B and D and into distinct even parts in C (Collingwood-McGovern,
    Nilpotent Orbits in Semisimple Lie Algebras, 1993, par. 8.2).  Both
    sides of the count are sums over the factors of a pseudo-Levi, and on
    each factor the left side is at least the right, so a 0/2 weighting of
    J is distinguished exactly when each factor's is.
    """
    ct = CartanType(series, rank)
    roots = build_root_system(ct).roots
    table = {}
    for o in enumerate_orbits(ct):
        wdd = weighted_dynkin(o).values
        vals = [sum(c * v for c, v in zip(r, wdd)) for r in roots]
        if set(wdd) <= {0, 2} and rank + vals.count(0) == vals.count(2):
            table[wdd] = o
    return MappingProxyType(table)


@_capped_cache  # cartantype.ABC_RANK_CAP, before the cache
def enumerate_pairs(ct: CartanType) -> tuple:
    """All affine Bala-Carter pairs, no equivalence applied: per face J,
    one distinguished 0/2 diagram on each factor of its pseudo-Levi."""
    affs = build_root_system(ct).affine_simples
    out = []
    for j in proper_subsets(ct):
        node = {affs[i][0]: i for i in j}
        zeros = [[frozenset(node[b] for b, v in zip(f.basis, wdd) if not v)
                  for wdd in _distinguished(f.series, f.rank)]
                 for f in _face_factors(ct, j)]
        out.extend(ABCPair(j, frozenset().union(*jp)) for jp in product(*zeros))
    return tuple(sorted(out, key=ABCPair.sort_key))


def distinguished_factor_orbits(ct: CartanType, pair: ABCPair) -> tuple:
    """Per-factor distinguished orbits named by the 0/2 weighting of J'."""
    affs = build_root_system(ct).affine_simples
    zero_roots = {affs[i][0] for i in pair.Jprime}
    out = []
    for f in _face_factors(ct, pair.J):
        wdd = tuple(0 if b in zero_roots else 2 for b in f.basis)
        orbit = _distinguished(f.series, f.rank).get(wdd)
        if orbit is None:
            raise ABCError(f"J'={sorted(pair.Jprime)} is not distinguished "
                           f"on J={sorted(pair.J)}")
        out.append(orbit)
    return tuple(out)


# ---------------------------------------------------------------------
# hulls
# ---------------------------------------------------------------------

@lru_cache(maxsize=None)
def face_hull(ct: CartanType, j: frozenset) -> tuple:
    """Integer data of the affine hull of the alcove face of type J.

    On each component the alcove is sum_i m_i a_i = 1, a_i >= 0, over the
    affine simple roots a_i with marks m_i (rs.marks: 1 at the affine
    node, theta's coefficients elsewhere; Bourbaki, Lie Groups and Lie
    Algebras, ch. VI, par. 2).  The hull's base point b is 0 on J and
    1 / (sum of the marks off J) on every other affine simple root, so in
    coweight coordinates d * b is d // (mark sum) on the free finite
    nodes, d the lcm of the mark sums.  Its direction is the kernel of
    J's gradients.

    Returns (d, vals, grads, offs, congruences): d and
    vals[a] = d * alpha_a(b) for every root index a; the root indices
    grads of J's gradients and their affine offsets offs; and, with H the
    Hermite basis of G X_* (G the gradients' X_* functionals), one pair
    (x, m) = solve(H, e_i) per column of H^-1: y is in G X_* iff
    y . x = 0 mod m for all.
    """
    if not is_proper(ct, j):
        raise ABCError(f"J={sorted(j)} is not a face type of {ct}")
    rs = build_root_system(ct)
    affs = rs.affine_simples
    sums = [sum(rs.marks[i] for i in nodes - j) for nodes in rs.node_components]
    d = lcm(*sums)
    point = [0] * rs.rank  # d * alpha_i(b) on the finite simple roots
    for nodes, marks in zip(rs.node_components, sums):
        for i in nodes - j:
            alpha, off = affs[i]
            if not off:
                point[rs.simple_roots.index(alpha)] = d // marks
    vals = tuple(sum(c * x for c, x in zip(r, point)) for r in rs.roots)
    jl = sorted(j)
    gradients = tuple(affs[i][0] for i in jl)
    grads = tuple(rs._root_index[g] for g in gradients)
    offs = tuple(affs[i][1] for i in jl)
    congruences = ()
    if j:
        h = hermite_row_basis(transpose(tuple(oracles.mat_vec(rs.cochar_basis, g)
                                              for g in gradients)))
        if len(h) != len(grads):
            raise ABCError(f"dependent gradients for J={sorted(j)}")
        congruences = tuple(solve(h, e) for e in identity(len(h)))
    return d, vals, grads, offs, congruences


# ---------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------

@lru_cache(maxsize=None)
def _pair_data(ct: CartanType, pair: ABCPair):
    """The pair's diagram and its bucket invariant: per gradient g of J,
    in face_hull's order, the (series, rank, orbit key) of g's factor and
    the pairings <g, h^vee> with every gradient h; and the sorted factor
    data, the invariant `classes` buckets pairs by."""
    rs = build_root_system(ct)
    factor_of, data = {}, []
    for f, o in zip(_face_factors(ct, pair.J), distinguished_factor_orbits(ct, pair)):
        data.append((f.series, f.rank,
                     o.g2_label if o.system.series == "G" else o.partition))
        factor_of.update((rs._root_index[b], data[-1]) for b in f.basis)
    grads = face_hull(ct, pair.J)[2]
    nodes = tuple((factor_of[g], tuple(rs.pairing(rs.roots[g], rs.roots[h]) for h in grads))
                  for g in grads)
    return nodes, tuple(sorted(data))


def _diagram_maps(nodes1, nodes2):
    """Every bijection sigma from J2's gradients onto J1's that keeps each
    gradient's factor data and every pairing, as the tuple of J1 positions
    of the images of J2's gradients; a backtrack, node by node."""
    sigma = []

    def extend(k):
        if k == len(nodes2):
            yield tuple(sigma)
            return
        data, row = nodes2[k]
        for t, (data1, row1) in enumerate(nodes1):
            if (data1 == data and t not in sigma
                    and all(row1[s] == row[i] and nodes1[s][1][t] == nodes2[i][1][k]
                            for i, s in enumerate(sigma))):
                sigma.append(t)
                yield from extend(k + 1)
                sigma.pop()

    return extend(0)


def equivalent(ct: CartanType, p1: ABCPair, p2: ABCPair) -> bool:
    """The extended-Weyl-group equivalence of affine Bala-Carter pairs.

    Some w in W maps hull 1 onto hull 2 moved by a cocharacter and
    transports the factor orbits.  With u = w^-1 taken to map J2's
    gradients onto J1's, u is a bijection sigma of the two diagrams that
    keeps the pairings and the factor data; the translate matches when
    the values g(w b1) + off_g = sigma(g)(b1) + off_g, g in J2, lie in
    G2 X_* (one congruence per column of H2^-1, H2 the Hermite basis of
    G2 X_*, each read off solve(H2, e_i)); and sigma must be the action
    of some element of W on J2's gradients.
    """
    nodes1, inv1 = _pair_data(ct, p1)
    nodes2, inv2 = _pair_data(ct, p2)
    if inv1 != inv2:
        return False
    rs = build_root_system(ct)
    d1, vals1, grads1, _, _ = face_hull(ct, p1.J)
    _, _, grads2, offs2, congruences2 = face_hull(ct, p2.J)
    shifts = tuple(d1 * off for off in offs2)
    congruences = tuple((row, d1 * m) for row, m in congruences2)
    code2 = None  # J2's gradients' code, once per call
    for sigma in _diagram_maps(nodes1, nodes2):
        image = tuple(grads1[t] for t in sigma)
        y = tuple(vals1[g] + s for g, s in zip(image, shifts))
        if any(sum(a * b for a, b in zip(row, y)) % m for row, m in congruences):
            continue
        if code2 is None:
            code2 = oracles.root_tuple_code(rs, grads2)
        if oracles.root_tuple_code(rs, image) == code2:
            return True
    return False


@_capped_cache
def classes(ct: CartanType) -> tuple:
    """Equivalence classes of pairs; each class sorted, lex-least first.

    Pairs arrive lex-least first, and each joins the first class of its
    invariant bucket whose first member it is equivalent to.
    """
    buckets = {}
    for p in enumerate_pairs(ct):
        found = buckets.setdefault(_pair_data(ct, p)[1], [])
        for members in found:
            if equivalent(ct, members[0], p):
                members.append(p)
                break
        else:
            found.append([p])
    return tuple(sorted((tuple(ms) for found in buckets.values() for ms in found),
                        key=lambda ms: ms[0].sort_key()))


def saturation(ct: CartanType, j: frozenset, factor_orbits) -> NilpotentOrbit:
    """Lift of a pseudo-Levi orbit: same weighted Dynkin diagram upstairs.
    It reads the face's factors only, so it meets no group-order cap."""
    factors = _face_factors(ct, frozenset(j))
    if len(factor_orbits) != len(factors):
        raise ABCError("factor orbit tuple does not match the pseudo-Levi")
    return wr.ambient_orbit_from_factor_orbits(build_root_system(ct), factors,
                                               tuple(factor_orbits))


def pair_saturation(ct: CartanType, pair: ABCPair) -> NilpotentOrbit:
    return saturation(ct, pair.J, distinguished_factor_orbits(ct, pair))
