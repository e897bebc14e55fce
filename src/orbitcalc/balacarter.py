"""Affine Bala-Carter data.

A pair (J, J') consists of a subset J of the affine simple nodes, proper
within each component of the extended diagram, and a distinguished subset
J' (the nodes weighted 0; the rest of J gets 2).  Pairs are taken up to
the extended-Weyl-group equivalence, decided here through the affine hull
of the corresponding alcove face: a finite Weyl element w identifies two
pairs when it maps one hull onto the other modulo the cocharacter lattice
and transports the per-factor distinguished orbits.

The decision is integer and reads every Weyl element off its root
permutation.  Per face J, face_hull keeps d * alpha(b) for every root
alpha, the roots in the QQ-span of J's gradients, and one congruence per
column of H^-1, H the Hermite basis of G X_* for the gradients' X_*
functionals G.  The base b is read off the affine marks in coweight
coordinates (alpha_i(b) = 1 / (sum of the marks off J) on the free
finite nodes, 0 on J), d being the lcm of those sums, so only the
congruences need a solve.  Since alpha(w b) = (w^-1 alpha)(b), scanning
u = w^-1 over W needs only lookups and integer dot products: u must send
J2's gradients into the QQ-span of J1's (directions), the values of J2's
affine roots at w b1 must lie in G2 X_* (translates), and u must match
the per-factor orbits.

Nodes are numbered as in rs.affine_simples: per component the affine
node, then the finite simple roots (for a simple type 0 is the affine
node and 1..n are alpha_1..alpha_n).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import lcm

from .linalg import (hermite_row_basis, identity, integer_kernel, mat_vec,
                     solve, transpose)
from .orbits import NilpotentOrbit
from .rootdata import CartanType, RootSystem, build_root_system, weyl_group
from .weylrep import (WeylContext, ambient_orbit_from_factor_orbits,
                      factor_orbit_from_distinguished_labels, subgroup_context)

ABC_RANK_CAP = 5


class ABCError(ValueError):
    pass


class ABCPair(namedtuple("ABCPair", "J Jprime")):
    __slots__ = ()  # two frozensets of node numbers

    def __new__(cls, J, Jprime):
        if not Jprime <= J:
            raise ABCError("J' must be a subset of J")
        return super().__new__(cls, J, Jprime)

    def sort_key(self):
        return (len(self.J), tuple(sorted(self.J)), len(self.Jprime),
                tuple(sorted(self.Jprime)))

    def to_json(self):
        return {"J": sorted(self.J), "Jprime": sorted(self.Jprime)}

    def __str__(self):
        fmt = lambda s: "{" + ",".join(f"a{i}" for i in sorted(s)) + "}"
        return f"({fmt(self.J)},{fmt(self.Jprime)})"


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
def pair_context(ct: CartanType, j: frozenset) -> WeylContext:
    if not is_proper(ct, j):
        raise ABCError(f"J={sorted(j)} is not a face type of {ct}")
    rs = build_root_system(ct)
    return subgroup_context(ct, _basis_of(rs, j))


def _distinguished_ok(ctx: WeylContext, zero_roots) -> bool:
    """rank + #{alpha(h)=0} == #{alpha(h)=2} for the 0/2 weighting.

    h solves beta_i(h) = label_i on the factor basis, so any subsystem root
    alpha = sum c_i beta_i evaluates to sum c_i label_i.
    """
    rank = sum(f.rank for f in ctx.factors)
    n0 = n2 = 0
    for f in ctx.factors:
        labels = tuple(0 if b in zero_roots else 2 for b in f.basis)
        for coeffs in f.coords:
            val = sum(c * l for c, l in zip(coeffs, labels))
            if val == 0:
                n0 += 1
            elif val == 2:
                n2 += 1
    return rank + n0 == n2


@lru_cache(maxsize=None)
def enumerate_pairs(ct: CartanType) -> tuple:
    """All affine Bala-Carter pairs, no equivalence applied."""
    if ct.rank > ABC_RANK_CAP:
        raise ABCError(f"rank {ct.rank} exceeds the enumeration cap {ABC_RANK_CAP}")
    affs = build_root_system(ct).affine_simples
    out = []
    for j in proper_subsets(ct):
        ctx = pair_context(ct, j)
        jl = sorted(j)
        for mask in range(1 << len(jl)):
            jp = frozenset(jl[i] for i in range(len(jl)) if mask >> i & 1)
            zero_roots = {affs[i][0] for i in jp}
            if _distinguished_ok(ctx, zero_roots):
                out.append(ABCPair(j, jp))
    return tuple(sorted(out, key=lambda p: p.sort_key()))


def distinguished_factor_orbits(ct: CartanType, pair: ABCPair) -> tuple:
    """Per-factor distinguished orbits named by the 0/2 weighting of J'."""
    affs = build_root_system(ct).affine_simples
    ctx = pair_context(ct, pair.J)
    zero_roots = {affs[i][0] for i in pair.Jprime}
    return tuple(factor_orbit_from_distinguished_labels(f, zero_roots)
                 for f in ctx.factors)


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

    Returns (d, vals, span, grads, offs, congruences): d and
    vals[a] = d * alpha_a(b) for every root index a; the set span of root
    indices in the QQ-span of J's gradients (the roots vanishing on the
    direction); the root indices grads of J's gradients and their affine
    offsets offs; and, with H the Hermite basis of G X_* (G the
    gradients' X_* functionals), one pair (x, m) = solve(H, e_i) per
    column of H^-1: y is in G X_* iff y . x = 0 mod m for all.
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
    direction = integer_kernel(gradients) if j else identity(rs.rank)
    span = frozenset(a for a, r in enumerate(rs.roots) if not any(mat_vec(direction, r)))
    grads = tuple(rs._root_index[g] for g in gradients)
    offs = tuple(affs[i][1] for i in jl)
    congruences = ()
    if j:
        h = hermite_row_basis(transpose(tuple(mat_vec(rs.cochar_basis, g)
                                              for g in gradients)))
        if len(h) != len(grads):
            raise ABCError(f"dependent gradients for J={sorted(j)}")
        congruences = tuple(solve(h, e) for e in identity(len(h)))
    return d, vals, span, grads, offs, congruences


# ---------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------

@lru_cache(maxsize=None)
def _pair_data(ct: CartanType, pair: ABCPair):
    """Map frozenset(factor root indices) -> (series, rank, orbit key),
    and its sorted values, the bucket invariant of `classes`."""
    rs = build_root_system(ct)
    ctx = pair_context(ct, pair.J)
    table = {}
    for f, o in zip(ctx.factors, distinguished_factor_orbits(ct, pair)):
        idx = frozenset(rs._root_index[r] for r in f.roots)
        table[idx] = (f.series, f.rank,
                      o.g2_label if o.system.series == "G" else o.partition)
    return table, tuple(sorted(table.values()))


def equivalent(ct: CartanType, p1: ABCPair, p2: ABCPair) -> bool:
    """The extended-Weyl-group equivalence of affine Bala-Carter pairs.

    Some w in W maps hull 1 onto hull 2 moved by a cocharacter and
    transports the factor orbits.  The scan runs over u = w^-1 and reads
    everything off u's root permutation and the root values on face 1:
    the directions match when u sends every gradient g of J2 into the
    QQ-span of J1's gradients (the dimensions being equal); the translate
    matches when the values g(w b1) + off_g = (u g)(b1) + off_g, g in J2,
    lie in G2 X_* (one congruence per column of H2^-1, H2 the Hermite
    basis of G2 X_*, each read off solve(H2, e_i)); and u maps each factor
    of J2 onto a factor of J1 with the same orbit.
    """
    table1, inv1 = _pair_data(ct, p1)
    table2, inv2 = _pair_data(ct, p2)
    if inv1 != inv2 or len(p1.J) != len(p2.J):
        return False
    d1, vals1, span1, _, _, _ = face_hull(ct, p1.J)
    _, _, _, grads2, offs2, congruences2 = face_hull(ct, p2.J)
    shifts = tuple(d1 * off for off in offs2)
    congruences = tuple((row, d1 * m) for row, m in congruences2)
    for u in weyl_group(ct):
        if not all(u[g] in span1 for g in grads2):
            continue
        y = tuple(vals1[u[g]] + s for g, s in zip(grads2, shifts))
        if any(sum(a * b for a, b in zip(row, y)) % m for row, m in congruences):
            continue
        if all(table1.get(frozenset(u[i] for i in idx)) == data
               for idx, data in table2.items()):
            return True
    return False


@lru_cache(maxsize=None)
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
    """Lift of a pseudo-Levi orbit: same weighted Dynkin diagram upstairs."""
    ctx = pair_context(ct, frozenset(j))
    if len(factor_orbits) != len(ctx.factors):
        raise ABCError("factor orbit tuple does not match the pseudo-Levi")
    return ambient_orbit_from_factor_orbits(ctx, tuple(factor_orbits))


def pair_saturation(ct: CartanType, pair: ABCPair) -> NilpotentOrbit:
    return saturation(ct, pair.J, distinguished_factor_orbits(ct, pair))
