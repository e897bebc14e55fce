"""Code that no orbitcalc command runs, kept for the tests that compare the
library against it or use it to build their inputs.

- weyl_group, the finite Weyl group closed under composition from the
  simple reflections (simple_reflection), up to WEYL_ENUM_RANK_CAP;
- the alcove group Omega = X_* / Z Phi^vee, as the affine maps that
  stabilise the fundamental alcove (AlcoveSymmetry, alcove_symmetries),
  with the Hermite box of coset representatives it is built from and
  apply_point, a Weyl element acting on coweight coordinates;
- the character-side helpers class_counts, dim, families, is_orbit_rep,
  orbit_springer_irrep, family_key, factor_family_key, is_special_rep,
  factor_is_special and induce_multiplicity;
- induce_multiplicity_by_pairs and j_induce_by_pairs, induction summed
  over the (subgroup class, ambient class) pairs of the fusion once per
  ambient character, as weylrep did before it folded the induced class
  function;
- restriction_data_to_json, the inverse of
  wavefront.restriction_data_from_json;
- enumerate_pairs_by_masks, the affine Bala-Carter pairs found by trying
  every 0/2 weighting of every face against the distinguished count.

A library change that needs one of these (an Omega route for the simply
connected classes, say) imports it back from here.
"""

import itertools
from collections import namedtuple
from functools import lru_cache

from orbitcalc import balacarter as bc
from orbitcalc.chartab import CharError, build_factor, split_basis_into_factors
from orbitcalc.linalg import hermite_row_basis, mat_vec, solve, transpose
from orbitcalc.orbits import NilpotentOrbit
from orbitcalc.rootdata import (CartanType, RootDataError, RootSystem,
                                build_root_system, reflection_in_root)
from orbitcalc.weylrep import (JInductionTie, WeylContext, WeylIrrep,
                               _family_key, _fusion, _induced, _is_special,
                               _multiplicity, _springer_image, ambient_context,
                               springer_orbit)


# ---------------------------------------------------------------------
# the Weyl group, Weyl elements on points, alcove symmetries
# ---------------------------------------------------------------------

WEYL_ENUM_RANK_CAP = 6


def simple_reflection(rs: RootSystem, i: int) -> tuple:
    return reflection_in_root(rs, rs.simple_roots[i])


@lru_cache(maxsize=None)
def weyl_group(ct: CartanType) -> tuple:
    """The full Weyl group, closed under composition, as a tuple."""
    rs = build_root_system(ct)
    if ct.rank > WEYL_ENUM_RANK_CAP:
        raise RootDataError(
            f"enumeration too large: rank {ct.rank} exceeds cap {WEYL_ENUM_RANK_CAP}")
    gens = [simple_reflection(rs, i) for i in range(rs.rank)]
    ident = tuple(range(len(rs.roots)))
    seen = {ident: None}  # in breadth-first order
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


def apply_point(rs: RootSystem, w, v):
    """w on coweight coordinates: alpha_i(w v) = (w^-1 alpha_i)(v)."""
    return tuple(sum(x * y for x, y in zip(rs.roots[w.index(rs._root_index[b])], v))
                 for b in rs.simple_roots)


class AlcoveSymmetry(namedtuple("AlcoveSymmetry", "finite_part translation")):
    # finite_part: a Weyl element (root permutation);
    # translation: coweight coordinates, a vector of X_*
    __slots__ = ()

    def apply_point(self, rs: RootSystem, v):
        w = apply_point(rs, self.finite_part, v)
        return tuple(a + b for a, b in zip(w, self.translation))

    def apply_affine_root(self, rs: RootSystem, aff):
        """sigma . (alpha, m) = (w alpha, m - (w alpha)(t))."""
        alpha, m = aff
        beta = rs.roots[self.finite_part[rs._root_index[alpha]]]
        shift = sum(b * t for b, t in zip(beta, self.translation))
        return (beta, m - shift)

    def node_permutation(self, rs: RootSystem):
        """Permutation of the affine simple nodes, by node number."""
        affs = rs.affine_simples
        return tuple(affs.index(self.apply_affine_root(rs, a)) for a in affs)


def _reduce_to_alcove(rs: RootSystem, v, m):
    """Affine Weyl walk taking the point v / m into the closed fundamental
    alcove, run on the integer vector v (coweight coordinates).

    Returns (w, v') with w in W and v' / m in the closure of the alcove,
    v' / m the image of v / m under w followed by a translation in Q^vee.
    """
    w = tuple(range(len(rs.roots)))
    guard = 0
    while True:
        guard += 1
        if guard > 100000:
            raise RootDataError("alcove reduction failed to terminate")
        moved = False
        for i in range(rs.rank):
            if v[i] < 0:
                v = rs.reflect_point(v, i)
                s = simple_reflection(rs, i)
                w = tuple(s[k] for k in w)
                moved = True
                break
        if moved:
            continue
        for th in rs.highest_roots:
            val = sum(c * x for c, x in zip(th, v))
            if val > m:
                # affine reflection in theta = 1, scaled by m
                coroot = rs.coroot_coweight_coords(th)
                v = tuple(x - (val - m) * c for x, c in zip(v, coroot))
                s = reflection_in_root(rs, th)
                w = tuple(s[k] for k in w)
                moved = True
                break
        if not moved:
            return w, v


@lru_cache(maxsize=None)
def alcove_symmetries(ct: CartanType) -> tuple:
    """The group Omega of affine maps stabilizing the fundamental alcove.

    One element per coset of the coroot lattice in X_*, each coset taken
    from the Hermite box of coset_reps; the order is the index
    |X_*/Z Phi^vee|, the product of the Hermite basis's diagonal.  The
    coset of x is walked from b - x, b the barycentre alpha_i(b) = 1/m,
    on the integer point m (b - x).
    """
    rs = build_root_system(ct)
    n = rs.rank
    cochar_t = transpose(rs.cochar_basis)
    qv_in_cochar = []  # X_*-coordinates of the simple coroots
    for i in range(n):
        coords, d = solve(cochar_t, rs.coroot_coweight_coords(rs.simple_roots[i]))
        if d != 1:
            raise RootDataError(f"coroot {i + 1} is not in X_*")
        qv_in_cochar.append(coords)
    reps = coset_reps(tuple(qv_in_cochar))
    m = max(sum(th) for th in rs.highest_roots) + 1
    mb = (1,) * n
    affs = set(rs.affine_simples)
    out = []
    for rep in reps:
        x = mat_vec(cochar_t, rep)  # coweight coords of the X_* element
        w, v = _reduce_to_alcove(rs, tuple(a - m * b for a, b in zip(mb, x)), m)
        # sigma = (translation by t) o w, t = (v - w(m b)) / m
        num = [a - b for a, b in zip(v, apply_point(rs, w, mb))]
        if any(t % m for t in num):
            raise RootDataError(f"non-integral alcove translation {num}/{m}")
        sigma = AlcoveSymmetry(w, tuple(t // m for t in num))
        if {sigma.apply_affine_root(rs, a) for a in affs} != affs:
            raise RootDataError(f"{sigma} does not stabilize the alcove")
        out.append(sigma)
    return tuple(out)


def coset_reps(sub_rows):
    """Representatives of ZZ^n / L, L the full-rank row lattice of sub_rows.

    The Hermite basis H is upper triangular with positive diagonal, so
    the box 0 <= x_i < H_ii holds exactly one point of each coset.
    """
    h = hermite_row_basis(sub_rows)
    if len(h) != len(sub_rows[0]):
        raise RootDataError("sublattice not of full rank")
    return tuple(itertools.product(*(range(h[i][i]) for i in range(len(h)))))


# ---------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------

def class_counts(ctx: WeylContext):
    return {cls: n for cls, _, n in ctx.class_representatives()}


def dim(ctx: WeylContext, irrep: WeylIrrep) -> int:
    return ctx.char_value(irrep, ctx.class_of(tuple(range(len(ctx.rs.roots)))))


def factor_family_key(f, lab):
    return _family_key(f.kind, f.rank, lab)


def factor_is_special(f, lab) -> bool:
    return _is_special(f.kind, f.rank, lab)


def is_special_rep(ctx: WeylContext, irrep: WeylIrrep) -> bool:
    return all(factor_is_special(f, lab)
               for f, lab in zip(ctx.factors, irrep.label))


def family_key(ctx: WeylContext, irrep: WeylIrrep):
    return tuple(factor_family_key(f, lab)
                 for f, lab in zip(ctx.factors, irrep.label))


def families(ctx: WeylContext):
    """Partition of Irr into families; each family lists (members, special)."""
    blocks = {}
    for e in ctx.irreps():
        blocks.setdefault(family_key(ctx, e), []).append(e)
    out = []
    for key, members in blocks.items():
        specials = [e for e in members if is_special_rep(ctx, e)]
        if len(specials) != 1:
            raise CharError(f"family {key} has specials {specials}")
        out.append((tuple(members), specials[0]))
    return tuple(out)


def is_orbit_rep(ctx: WeylContext, irrep: WeylIrrep) -> bool:
    """True when the Springer pair of irrep carries the trivial local system."""
    return all(lab in _springer_image(f.cartan_type())
               for f, lab in zip(ctx.factors, irrep.label))


def orbit_springer_irrep(ctx: WeylContext, orbit: NilpotentOrbit,
                         source: CartanType | None = None) -> WeylIrrep:
    """The representation of the context's Weyl group whose Springer pair is
    (orbit, trivial system); source names the system the orbit lives in."""
    src = source or orbit.system
    for e in ctx.irreps():
        if is_orbit_rep(ctx, e) and springer_orbit(ctx, e, target=src) == orbit:
            return e
    raise CharError(f"no trivial-system representation found for {orbit}")


def induce_multiplicity(sub: WeylContext, e_sub: WeylIrrep,
                        e_amb: WeylIrrep) -> int:
    """<Ind_{W_J}^W e_sub, e_amb> = <e_sub, Res e_amb>, from the induced
    class function that weylrep.j_induce folds."""
    return _multiplicity(sub, _induced(sub, e_sub), e_amb)


def induce_multiplicity_by_pairs(sub: WeylContext, e_sub: WeylIrrep,
                                 e_amb: WeylIrrep) -> int:
    """<Ind_{W_J}^W e_sub, e_amb>, by summation over the classes of W_J."""
    amb = ambient_context(sub.cartan_type)
    tot = 0
    for (scls, acls), cnt in _fusion(sub).items():
        tot += cnt * sub.char_value(e_sub, scls) * amb.char_value(e_amb, acls)
    q, r = divmod(tot, sub.order)
    if r:
        raise CharError("non-integral induction multiplicity")
    return q


def j_induce_by_pairs(sub: WeylContext, e_sub: WeylIrrep) -> WeylIrrep:
    """Unique constituent of Ind e_sub with the same b-invariant."""
    amb = ambient_context(sub.cartan_type)
    hits = []
    for e in amb.irreps():
        if e.b > e_sub.b:
            continue
        m = induce_multiplicity_by_pairs(sub, e_sub, e)
        if m > 0:
            if e.b < e_sub.b:
                raise CharError(
                    f"induction of {e_sub} has constituent below b={e_sub.b}")
            hits.append((e, m))
    if len(hits) == 1 and hits[0][1] == 1:
        return hits[0][0]
    raise JInductionTie(
        f"truncated induction of {e_sub} is not a single constituent: {hits}",
        [h[0] for h in hits])


# ---------------------------------------------------------------------
# restriction data
# ---------------------------------------------------------------------

def restriction_data_to_json(data):
    def listify(x):
        if isinstance(x, tuple):
            return [listify(t) for t in x]
        return x

    recs = []
    for j in sorted(data, key=lambda s: (len(s), sorted(s))):
        recs.append({"J": sorted(j),
                     "irreps": [{"label": listify(lab), "mult": m}
                                for lab, m in data[j]]})
    return recs


# ---------------------------------------------------------------------
# affine Bala-Carter pairs
# ---------------------------------------------------------------------

def _distinguished_ok(factors, zero_roots) -> bool:
    """rank + #{alpha(h)=0} == #{alpha(h)=2} for the 0/2 weighting.

    h solves beta_i(h) = label_i on the factor basis, so any subsystem root
    alpha = sum c_i beta_i evaluates to sum c_i label_i.
    """
    rank = sum(f.rank for f in factors)
    n0 = n2 = 0
    for f in factors:
        labels = tuple(0 if b in zero_roots else 2 for b in f.basis)
        for coeffs in f.coords:
            val = sum(c * l for c, l in zip(coeffs, labels))
            if val == 0:
                n0 += 1
            elif val == 2:
                n2 += 1
    return rank + n0 == n2


def enumerate_pairs_by_masks(ct: CartanType) -> tuple:
    """All affine Bala-Carter pairs, from all 2^|J| 0/2 masks of each face;
    no rank cap, and no Weyl group: the face's factors are built as
    pair_context builds them."""
    rs = build_root_system(ct)
    affs = rs.affine_simples
    out = []
    for j in bc.proper_subsets(ct):
        basis = tuple(sorted(affs[i][0] for i in j))
        factors = [build_factor(rs, c) for c in split_basis_into_factors(rs, basis)]
        jl = sorted(j)
        for mask in range(1 << len(jl)):
            jp = frozenset(jl[i] for i in range(len(jl)) if mask >> i & 1)
            zero_roots = {affs[i][0] for i in jp}
            if _distinguished_ok(factors, zero_roots):
                out.append(bc.ABCPair(j, jp))
    return tuple(sorted(out, key=lambda p: p.sort_key()))
