"""Affine Bala-Carter data.

A pair (J, J') consists of a subset J of the affine simple nodes, proper
within each component of the extended diagram, and a distinguished subset
J' (the nodes weighted 0; the rest of J gets 2).  Pairs are taken up to
the extended-Weyl-group equivalence, decided here through the affine hull
of the corresponding alcove face: a finite Weyl element w identifies two
pairs when it maps one hull onto the other modulo the cocharacter lattice
and transports the per-factor distinguished orbits.

The decision is integer.  Directions: w maps the direction of hull 1 onto
that of hull 2 exactly when its root permutation sends every gradient of
J1 to a root in the QQ-span of J2's gradients (the dimensions are equal,
and w maps saturated lattices to saturated lattices).  Translates: with
integer bases B_i = d_i * base_i and D = lcm(d1, d2), the image of hull 1
is hull 2 moved by a cocharacter exactly when
P2 ((D/d2) B2 - (D/d1) w B1) = 0 mod D, where the rows P2 of a Smith
transform complement the direction lattice of hull 2.  Both use data
computed once per J (_hull_lattice), so scanning W needs only lookups and
integer dot products.

Node indices are "display" indices: 0 is the affine node (per component),
1..n the finite simple roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .linalg import (hermite_row_basis, identity, integer_kernel, mat_vec,
                     smith_normal_form, solve, transpose)
from .orbits import NilpotentOrbit
from .rootdata import CartanType, RootSystem, build_root_system, weyl_group
from .weylrep import (WeylContext, ambient_orbit_from_factor_orbits,
                      factor_orbit_from_distinguished_labels, subgroup_context)

ABC_RANK_CAP = 5


class ABCError(ValueError):
    pass


@dataclass(frozen=True)
class ABCPair:
    J: frozenset
    Jprime: frozenset

    def __post_init__(self):
        if not self.Jprime <= self.J:
            raise ABCError("J' must be a subset of J")

    def sort_key(self):
        return (len(self.J), tuple(sorted(self.J)), len(self.Jprime),
                tuple(sorted(self.Jprime)))

    def to_json(self):
        return {"J": sorted(self.J), "Jprime": sorted(self.Jprime)}

    def __str__(self):
        fmt = lambda s: "{" + ",".join(f"a{i}" for i in sorted(s)) + "}"
        return f"({fmt(self.J)},{fmt(self.Jprime)})"


@dataclass(frozen=True)
class AffineSubspace:
    base: tuple       # X_*-basis coordinates, Fractions
    direction: tuple  # HNF row basis of the direction lattice

    def dim(self) -> int:
        return len(self.direction)


def _display_affines(rs: RootSystem):
    """Affine simples in display order (affine node first per component)."""
    return [rs.affine_simples[rs.internal_index(d)] for d in range(rs.node_count())]


def _component_display_sets(rs: RootSystem):
    out = []
    pos = 0
    for k, comp in enumerate(rs.components):
        size = len(comp) + 1
        out.append(frozenset(range(pos, pos + size)))
        pos += size
    return out


def proper_subsets(ct: CartanType):
    """All J in P(affine diagram): proper within each component."""
    rs = build_root_system(ct)
    comps = _component_display_sets(rs)
    total = rs.node_count()
    out = []
    for mask in range(1 << total):
        j = frozenset(i for i in range(total) if mask >> i & 1)
        if all(j & c != c for c in comps):
            out.append(j)
    return tuple(sorted(out, key=lambda s: (len(s), tuple(sorted(s)))))


def _basis_of(rs: RootSystem, j) -> tuple:
    affs = _display_affines(rs)
    return tuple(sorted(affs[i][0] for i in j))


@lru_cache(maxsize=None)
def pair_context(ct: CartanType, j: frozenset) -> WeylContext:
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
    rs = build_root_system(ct)
    affs = _display_affines(rs)
    out = []
    for j in proper_subsets(ct):
        ctx = pair_context(ct, j)
        for mask in range(1 << len(sorted(j))):
            jl = sorted(j)
            jp = frozenset(jl[i] for i in range(len(jl)) if mask >> i & 1)
            zero_roots = {affs[i][0] for i in jp}
            if _distinguished_ok(ctx, zero_roots):
                out.append(ABCPair(j, jp))
    return tuple(sorted(out, key=lambda p: p.sort_key()))


def distinguished_factor_orbits(ct: CartanType, pair: ABCPair) -> tuple:
    """Per-factor distinguished orbits named by the 0/2 weighting of J'."""
    rs = build_root_system(ct)
    affs = _display_affines(rs)
    ctx = pair_context(ct, pair.J)
    zero_roots = {affs[i][0] for i in pair.Jprime}
    return tuple(factor_orbit_from_distinguished_labels(f, zero_roots)
                 for f in ctx.factors)


# ---------------------------------------------------------------------
# hulls
# ---------------------------------------------------------------------

def _xstar_functional(rs: RootSystem, root):
    """The root as an integer functional on X_*-basis coordinates."""
    n = rs.rank
    vals = []
    for col in range(n):
        basis_vec = tuple(rs.cochar_basis[col][i] for i in range(n))
        vals.append(sum(c * x for c, x in zip(root, basis_vec)))
    return tuple(vals)


@lru_cache(maxsize=None)
def face_hull(ct: CartanType, j: frozenset) -> AffineSubspace:
    """Affine hull of the alcove face of type J: base point in the closed
    fundamental alcove plus the saturated direction lattice."""
    rs = build_root_system(ct)
    affs = _display_affines(rs)
    comps = _component_display_sets(rs)
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
    sol = solve(tuple(tuple(r) for r in rows), tuple(rhs))
    base = tuple(sol[:n])
    for k in range(ncomp):
        if not sol[n + k] > 0:
            raise ABCError(f"degenerate face for J={sorted(j)}")
    jrows = tuple(_xstar_functional(rs, affs[i][0]) for i in sorted(j))
    direction = integer_kernel(jrows) if j else integer_kernel(())
    if not j:
        direction = tuple(tuple(int(i == t) for t in range(n)) for i in range(n))
    return AffineSubspace(base, hermite_row_basis(direction) if direction else ())


@lru_cache(maxsize=None)
def _hull_lattice(ct: CartanType, j: frozenset):
    """Integer data of face_hull(ct, j) for `equivalent`.

    Returns (d, B, P, S, G): the common denominator d of the base and the
    integer base B = d*base; the rows P of the Smith transform that
    complement the direction lattice L (a vector lies in ZZ^n + QQ L iff
    P times it is integral, since L is saturated); the set S of root
    indices whose X_* functional vanishes on L, i.e. the roots in the
    QQ-span of J's gradients; and the root indices G of J's gradients.
    """
    rs = build_root_system(ct)
    hull = face_hull(ct, j)
    n, k = rs.rank, hull.dim()
    d = lcm(*(x.denominator for x in hull.base))
    base = tuple(int(x * d) for x in hull.base)
    if hull.direction:
        proj = smith_normal_form(transpose(hull.direction))[1][k:]
    else:
        proj = identity(n)
    span = frozenset(i for i, r in enumerate(rs.roots)
                     if not any(mat_vec(hull.direction, _xstar_functional(rs, r))))
    affs = _display_affines(rs)
    grads = tuple(rs._root_index[affs[i][0]] for i in sorted(j))
    return d, base, proj, span, grads


# ---------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------

@lru_cache(maxsize=None)
def _xstar_weyl_matrices(ct: CartanType):
    """Integer matrices of W acting on X_*-basis coordinates."""
    return tuple((w, w.xstar_matrix()) for w in weyl_group(ct))


def _factor_orbit_table(ct: CartanType, pair: ABCPair):
    """Map frozenset(factor root indices) -> (series, rank, orbit key)."""
    rs = build_root_system(ct)
    ctx = pair_context(ct, pair.J)
    orbs = distinguished_factor_orbits(ct, pair)
    table = {}
    for f, o in zip(ctx.factors, orbs):
        idx = frozenset(rs._root_index[r] for r in f.roots)
        key = o.g2_label if o.system.series == "G" else o.partition
        table[idx] = (f.series, f.rank, key)
    return table


@lru_cache(maxsize=None)
def _pair_data(ct: CartanType, pair: ABCPair):
    hull = face_hull(ct, pair.J)
    table = _factor_orbit_table(ct, pair)
    inv = tuple(sorted(table.values()))
    return hull, table, inv


def equivalent(ct: CartanType, p1: ABCPair, p2: ABCPair) -> bool:
    """The extended-Weyl-group equivalence of affine Bala-Carter pairs.

    w identifies the pairs when it maps the gradients of J1 into the
    QQ-span of those of J2 (so, the dimensions being equal, it maps the
    direction of hull 1 onto that of hull 2), maps base 1 into base 2
    plus a cocharacter plus the direction (a congruence on the integer
    bases), and transports the factor orbits.
    """
    hull1, table1, inv1 = _pair_data(ct, p1)
    hull2, table2, inv2 = _pair_data(ct, p2)
    if inv1 != inv2 or hull1.dim() != hull2.dim():
        return False
    d1, base1, _, _, grads1 = _hull_lattice(ct, p1.J)
    d2, base2, proj2, span2, _ = _hull_lattice(ct, p2.J)
    mod = lcm(d1, d2)
    scale1 = mod // d1
    target = tuple(mod // d2 * x for x in base2)
    for w, mx in _xstar_weyl_matrices(ct):
        perm = w.perm
        if not all(perm[g] in span2 for g in grads1):
            continue
        diff = tuple(t - scale1 * x for t, x in zip(target, mat_vec(mx, base1)))
        if any(x % mod for x in mat_vec(proj2, diff)):
            continue
        if all(table2.get(frozenset(perm[i] for i in idx)) == data
               for idx, data in table1.items()):
            return True
    return False


@lru_cache(maxsize=None)
def classes(ct: CartanType) -> tuple:
    """Equivalence classes of pairs; each class sorted, lex-least first."""
    pairs = enumerate_pairs(ct)
    parent = list(range(len(pairs)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    buckets = {}
    for i, p in enumerate(pairs):
        buckets.setdefault(_pair_data(ct, p)[2], []).append(i)
    for _, idxs in buckets.items():
        for a in range(len(idxs)):
            for b in range(a + 1, len(idxs)):
                i, j = idxs[a], idxs[b]
                if find(i) != find(j) and equivalent(ct, pairs[i], pairs[j]):
                    parent[find(j)] = find(i)
    groups = {}
    for i, p in enumerate(pairs):
        groups.setdefault(find(i), []).append(p)
    out = []
    for members in groups.values():
        members.sort(key=lambda p: p.sort_key())
        out.append(tuple(members))
    out.sort(key=lambda ms: ms[0].sort_key())
    return tuple(out)


def saturation(ct: CartanType, j: frozenset, factor_orbits) -> NilpotentOrbit:
    """Lift of a pseudo-Levi orbit: same weighted Dynkin diagram upstairs."""
    ctx = pair_context(ct, frozenset(j))
    if len(factor_orbits) != len(ctx.factors):
        raise ABCError("factor orbit tuple does not match the pseudo-Levi")
    return ambient_orbit_from_factor_orbits(ctx, tuple(factor_orbits))


def pair_saturation(ct: CartanType, pair: ABCPair) -> NilpotentOrbit:
    return saturation(ct, pair.J, distinguished_factor_orbits(ct, pair))
