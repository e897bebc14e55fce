"""Affine Bala-Carter data.

A pair (J, J') consists of a subset J of the affine simple nodes, proper
within each component of the extended diagram, and a distinguished subset
J' (the nodes weighted 0; the rest of J gets 2).  Pairs are taken up to
the extended-Weyl-group equivalence, decided here through the affine hull
of the corresponding alcove face: a finite Weyl element w identifies two
pairs when it maps one hull onto the other modulo the cocharacter lattice
and transports the per-factor distinguished orbits.

Node indices are "display" indices: 0 is the affine node (per component),
1..n the finite simple roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .linalg import (hermite_row_basis, in_lattice_plus_span, integer_kernel,
                     mat_vec, solve, span_solve)
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

    def contains_translate(self, w_base, w_direction) -> bool:
        """Is w.A + x = self for some cocharacter x, given transformed data?"""
        if hermite_row_basis(w_direction) != self.direction:
            return False
        diff = tuple(Fraction(b) - Fraction(c) for b, c in zip(self.base, w_base))
        return in_lattice_plus_span(diff, self.direction)


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
        for alpha in f.roots:
            coeffs = _coords_in_basis(f.basis, alpha)
            val = sum(c * l for c, l in zip(coeffs, labels))
            if val == 0:
                n0 += 1
            elif val == 2:
                n2 += 1
    return rank + n0 == n2


def _coords_in_basis(basis, root):
    coeffs = span_solve(basis, root)
    if coeffs is None:
        raise ABCError(f"{root} is not in the span of {basis}")
    return coeffs


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
    """The extended-Weyl-group equivalence of affine Bala-Carter pairs."""
    hull1, table1, inv1 = _pair_data(ct, p1)
    hull2, table2, inv2 = _pair_data(ct, p2)
    if inv1 != inv2 or hull1.dim() != hull2.dim():
        return False
    rs = build_root_system(ct)
    dir1 = hull1.direction
    for w, mx in _xstar_weyl_matrices(ct):
        wdir = tuple(tuple(sum(mx[i][t] * row[t] for t in range(rs.rank))
                           for i in range(rs.rank)) for row in dir1)
        wbase = mat_vec(mx, hull1.base)
        if not hull2.contains_translate(wbase, wdir):
            continue
        ok = True
        for idx, data in table1.items():
            img = frozenset(w.perm[i] for i in idx)
            if table2.get(img) != data:
                ok = False
                break
        if ok:
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
