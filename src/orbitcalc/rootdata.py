"""Root systems, Weyl groups and alcove symmetries for split types A-D, G2.

Root data
---------
Everything is derived from the Cartan matrix and the simple root lengths:
the roots are the closure of the simple roots under the simple
reflections (reflection_closure, which also serves the subsystems of
chartab), the positive ones are those with positive coefficient sum, each
coroot is alpha^vee = sum_i c_i (alpha_i, alpha_i)/(alpha, alpha)
alpha_i^vee, and the highest root theta of a component is its positive
root of greatest height.

Coordinates
-----------
Roots are stored as integer vectors of coefficients in the simple roots.
Points of the cocharacter space V live in *coweight coordinates*: for a
vector v, the i-th coordinate is alpha_i(v).  A root alpha with
coefficient vector c then evaluates as alpha(v) = sum_i c_i v_i, and the
simple coroot alpha_j^vee has coweight coordinates equal to column j of
the Cartan matrix.

Affine simple roots are (linear root, integer offset) pairs; the finite
simples sit at offset 0 and each irreducible component contributes
(-theta, 1).  Node indices follow the extended-diagram convention used
throughout the CLI: 0 is the affine node of the first component, the
finite node alpha_i is index i (components are concatenated).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cartantype import SERIES, CartanType, RootDataError  # noqa: F401 (re-exported)
from .linalg import hermite_row_basis, identity, mat_inv, mat_vec, transpose

WEYL_ENUM_RANK_CAP = 6


def cartan_matrix(series: str, rank: int):
    """C[i][j] = <alpha_i, alpha_j^vee>."""
    n = rank
    c = [[0] * n for _ in range(n)]
    for i in range(n):
        c[i][i] = 2

    def link(i, j, cij=-1, cji=-1):
        c[i][j] = cij
        c[j][i] = cji

    if series == "A":
        for i in range(n - 1):
            link(i, i + 1)
    elif series == "B":
        for i in range(n - 2):
            link(i, i + 1)
        if n >= 2:
            link(n - 2, n - 1, -2, -1)  # alpha_n short
    elif series == "C":
        for i in range(n - 2):
            link(i, i + 1)
        if n >= 2:
            link(n - 2, n - 1, -1, -2)  # alpha_n long
    elif series == "D":
        for i in range(n - 3):
            link(i, i + 1)
        if n >= 3:
            link(n - 3, n - 2)
            link(n - 3, n - 1)
        # n == 2: two disconnected nodes
    elif series == "G":
        link(0, 1, -3, -1)  # alpha_1 long, alpha_2 short
    return tuple(tuple(row) for row in c)


def _root_lengths(series: str, rank: int):
    """Squared lengths (up to overall scale) of the simple roots."""
    if series == "B":
        return (2,) * (rank - 1) + (1,)
    if series == "C":
        return (1,) * (rank - 1) + (2,)
    if series == "G":
        return (3, 1)
    return (1,) * rank


def connected_components(size, linked):
    """Components of the graph on range(size) with an edge i-j wherever
    linked(i, j); each sorted, ordered by their least members."""
    seen, comps = set(), []
    for i in range(size):
        if i in seen:
            continue
        comp, stack = [], [i]
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            comp.append(x)
            stack.extend(j for j in range(size)
                         if j != x and j not in seen and linked(x, j))
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def reflection_closure(cartan):
    """The roots with Cartan matrix cartan[i][j] = <e_i, e_j^vee>: the set
    of coefficient vectors reached from the unit vectors e_j by the simple
    reflections s_j(c) = c - <c, e_j^vee> e_j."""
    k = len(cartan)
    seen = set()
    queue = list(identity(k))
    while queue:
        c = queue.pop()
        if c in seen:
            continue
        seen.add(c)
        for j in range(k):
            p = sum(x * cartan[i][j] for i, x in enumerate(c))
            if p:
                queue.append(tuple(x - p * (i == j) for i, x in enumerate(c)))
    return seen


class RootSystem:
    """Immutable after construction; built via build_root_system."""

    def __init__(self, ct: CartanType):
        self.cartan_type = ct
        n = ct.rank
        self.rank = n
        self.cartan = cartan_matrix(ct.series, n)
        self.lengths2 = _root_lengths(ct.series, n)
        self.simple_roots = identity(n)
        self._build_roots()
        self._build_affine()
        self._build_lattices()
        self._root_index = {r: i for i, r in enumerate(self.roots)}

    # -- construction -------------------------------------------------

    def _build_roots(self):
        # a root's coefficients share one sign, so the sum decides it
        pos = sorted(r for r in reflection_closure(self.cartan) if sum(r) > 0)
        self.positive_roots = tuple(pos)
        self.roots = tuple(pos + [tuple(-x for x in r) for r in pos])
        self._coroot_of = {r: self._coroot(r) for r in self.roots}

    def _coroot(self, root):
        """Coefficients of root^vee in the simple coroots:
        sum_i c_i (alpha_i, alpha_i)/(alpha, alpha) alpha_i^vee."""
        norm = self._blinear(root, root)
        coeffs = [c * l / norm for c, l in zip(root, self.lengths2)]
        if any(x.denominator != 1 for x in coeffs):
            raise RootDataError(f"non-integral coroot of {root}")
        return tuple(int(x) for x in coeffs)

    def _build_affine(self):
        n = self.rank
        comps = connected_components(n, lambda i, j: self.cartan[i][j] != 0)
        self.components = comps
        # theta of a component is its positive root of greatest height (a
        # root lies in one component, so touching it is lying in it)
        self.highest_roots = tuple(
            max((r for r in self.positive_roots if any(r[i] for i in comp)), key=sum)
            for comp in comps)
        affine = [(self.simple_roots[i], 0) for i in range(n)]
        for th in self.highest_roots:
            affine.append((tuple(-x for x in th), 1))
        self.affine_simples = tuple(affine)
        # display index: affine node of component k comes first in the
        # conventional labelling (0 for a single component)
        order = []
        for k, comp in enumerate(comps):
            order.append(n + k)
            order.extend(comp)
        self._display_order = tuple(order)

    def _build_lattices(self):
        n = self.rank
        if self.cartan_type.isogeny == "adjoint":
            basis = identity(n)  # coweight lattice in coweight coordinates
        else:
            basis = tuple(tuple(self.cartan[i][j] for i in range(n))
                          for j in range(n))  # simple coroots
        self.cochar_basis = basis  # rows are basis vectors

    # -- basic evaluations ---------------------------------------------

    def pairing(self, root, other):
        """<root, other^vee>."""
        return sum(x * y for x, y in zip(root, self.coroot_coweight_coords(other)))

    def coroot_coweight_coords(self, root):
        """Coweight coordinates of the coroot of `root`."""
        cr = self._coroot_of[root]
        n = self.rank
        return tuple(sum(self.cartan[i][j] * cr[j] for j in range(n)) for i in range(n))

    def root_length2(self, root):
        return self._blinear(root, root)

    def _blinear(self, a, b):
        n = self.rank
        tot = 0
        for i in range(n):
            for j in range(n):
                # (alpha_i, alpha_j) = C[i][j] * len2(alpha_j) / 2 * ... ;
                # with C[i][j] = 2(ai,aj)/(aj,aj):  (ai,aj) = C[i][j]*l2[j]/2
                tot += a[i] * b[j] * self.cartan[i][j] * self.lengths2[j]
        return Fraction(tot, 2)

    def reflect_point(self, v, simple_idx):
        """s_i acting on coweight coordinates."""
        coroot = tuple(self.cartan[k][simple_idx] for k in range(self.rank))
        c = v[simple_idx]
        return tuple(x - c * y for x, y in zip(v, coroot))

    # -- node display --------------------------------------------------

    def node_count(self):
        return len(self.affine_simples)

    def display_index(self, internal_idx):
        """Internal affine-simple index -> conventional node number."""
        return self._display_order.index(internal_idx)

    def internal_index(self, display_idx):
        return self._display_order[display_idx]


@lru_cache(maxsize=None)
def build_root_system(ct: CartanType) -> RootSystem:
    return RootSystem(ct)


# ---------------------------------------------------------------------
# Weyl group elements as permutations of the root list
# ---------------------------------------------------------------------

class WeylElement:
    __slots__ = ("perm", "rs")

    def __init__(self, rs: RootSystem, perm: tuple):
        self.rs = rs
        self.perm = perm

    def __mul__(self, other):
        # (self*other) acts as self after other
        p, q = self.perm, other.perm
        return WeylElement(self.rs, tuple(p[q[i]] for i in range(len(q))))

    def inverse(self):
        inv = [0] * len(self.perm)
        for i, j in enumerate(self.perm):
            inv[j] = i
        return WeylElement(self.rs, tuple(inv))

    def __eq__(self, other):
        return self.perm == other.perm

    def __hash__(self):
        return hash(self.perm)

    def apply_root(self, root):
        return self.rs.roots[self.perm[self.rs._root_index[root]]]

    def apply_root_coords(self, coords):
        """Linear extension of the root action to coefficient vectors."""
        rs = self.rs
        n = rs.rank
        out = [0] * n
        for i in range(n):
            if coords[i]:
                img = self.apply_root(rs.simple_roots[i])
                for k in range(n):
                    out[k] += coords[i] * img[k]
        return tuple(out)

    def apply_point(self, v):
        """w on coweight coordinates: alpha_i(w v) = (w^-1 alpha_i)(v)."""
        inv = self.inverse()
        return tuple(sum(x * y for x, y in zip(inv.apply_root(b), v))
                     for b in self.rs.simple_roots)

    def is_identity(self):
        return all(i == j for i, j in enumerate(self.perm))


def simple_reflection(rs: RootSystem, i: int) -> WeylElement:
    return reflection_in_root(rs, rs.simple_roots[i])


def reflection_in_root(rs: RootSystem, root) -> WeylElement:
    """Reflection s_beta for an arbitrary root beta."""
    n = rs.rank
    coroot_cw = rs.coroot_coweight_coords(root)

    def refl(alpha):
        pairing = sum(alpha[k] * coroot_cw[k] for k in range(n))
        return tuple(alpha[k] - pairing * root[k] for k in range(n))

    perm = tuple(rs._root_index[refl(r)] for r in rs.roots)
    return WeylElement(rs, perm)


@lru_cache(maxsize=None)
def weyl_group(ct: CartanType) -> tuple:
    """The full Weyl group, closed under composition, as a tuple."""
    rs = build_root_system(ct)
    if ct.rank > WEYL_ENUM_RANK_CAP:
        raise RootDataError(
            f"enumeration too large: rank {ct.rank} exceeds cap {WEYL_ENUM_RANK_CAP}")
    gens = [simple_reflection(rs, i) for i in range(rs.rank)]
    return _closure(rs, gens)


def _closure(rs, gens):
    ident = WeylElement(rs, tuple(range(len(rs.roots))))
    seen = {ident.perm: ident}
    frontier = [ident]
    while frontier:
        new = []
        for w in frontier:
            for g in gens:
                x = g * w
                if x.perm not in seen:
                    seen[x.perm] = x
                    new.append(x)
        frontier = new
    return tuple(seen.values())


def subgroup_closure(rs: RootSystem, roots) -> tuple:
    """Subgroup generated by the reflections in the given roots."""
    gens = [reflection_in_root(rs, r) for r in roots]
    return _closure(rs, gens)


def dominant_conjugate(rs: RootSystem, v):
    """The unique dominant W-conjugate of v (coweight coordinates)."""
    v = tuple(v)
    moved = True
    while moved:
        moved = False
        for i in range(rs.rank):
            if v[i] < 0:
                v = rs.reflect_point(v, i)
                moved = True
                break
    return v


# ---------------------------------------------------------------------
# Alcove symmetries
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class AlcoveSymmetry:
    finite_part: WeylElement
    translation: tuple  # coweight coordinates, a vector of X_*

    def apply_point(self, v):
        w = self.finite_part.apply_point(v)
        return tuple(a + b for a, b in zip(w, self.translation))

    def apply_affine_root(self, aff):
        """sigma . (alpha, m) = (w alpha, m - (w alpha)(t))."""
        alpha, m = aff
        beta = self.finite_part.apply_root(alpha)
        shift = sum(b * t for b, t in zip(beta, self.translation))
        return (beta, m - shift)

    def node_permutation(self, rs: RootSystem):
        """Permutation of the affine simple nodes (internal indices)."""
        images = []
        affs = list(rs.affine_simples)
        for aff in affs:
            img = self.apply_affine_root(aff)
            images.append(affs.index(img))
        return tuple(images)


def _alcove_barycenter(rs: RootSystem):
    """Interior point of the fundamental alcove: alpha_i(b)=1/m with
    theta_k(b) < 1 on every component."""
    n = rs.rank
    heights = [sum(th) for th in rs.highest_roots]
    m = max(heights) + 1
    return tuple(Fraction(1, m) for _ in range(n))


def _reduce_to_alcove(rs: RootSystem, point):
    """Affine Weyl walk taking `point` into the closed fundamental alcove.

    Returns (w, shift) with w in W, shift in Q^vee coweight coords, and
    w(point) + shift in the closure of the alcove.
    """
    v = list(point)
    w = WeylElement(rs, tuple(range(len(rs.roots))))
    shift = [Fraction(0)] * rs.rank
    guard = 0
    while True:
        guard += 1
        if guard > 100000:
            raise RootDataError("alcove reduction failed to terminate")
        moved = False
        for i in range(rs.rank):
            if v[i] < 0:
                v = list(rs.reflect_point(tuple(v), i))
                s = simple_reflection(rs, i)
                w = s * w
                shift = list(s.apply_point(tuple(shift)))
                moved = True
                break
        if moved:
            continue
        for k, th in enumerate(rs.highest_roots):
            val = sum(c * x for c, x in zip(th, v))
            if val > 1:
                # affine reflection in theta = 1
                coroot = rs.coroot_coweight_coords(th)
                v = [x - (val - 1) * c for x, c in zip(v, coroot)]
                refl = reflection_in_root(rs, th)
                w = refl * w
                shift = list(refl.apply_point(tuple(shift)))
                shift = [s + c for s, c in zip(shift, coroot)]
                moved = True
                break
        if not moved:
            return w, tuple(shift)


@lru_cache(maxsize=None)
def alcove_symmetries(ct: CartanType) -> tuple:
    """The group Omega of affine maps stabilizing the fundamental alcove.

    One element per coset of the coroot lattice in X_*, each coset taken
    from the Hermite box of _coset_reps; the order is the index
    |X_*/Z Phi^vee|, the product of the Hermite basis's diagonal.
    """
    rs = build_root_system(ct)
    n = rs.rank
    coroot_rows = tuple(rs.coroot_coweight_coords(rs.simple_roots[i]) for i in range(n))
    # coset representatives of Q^vee in X_*, found by brute search in a box
    cochar = rs.cochar_basis
    inv_cochar = mat_inv(transpose(cochar))
    qv_in_cochar = tuple(mat_vec(inv_cochar, row) for row in coroot_rows)
    qv_in_cochar = tuple(tuple(int(x) for x in row) for row in qv_in_cochar)
    reps = _coset_reps(qv_in_cochar)
    b = _alcove_barycenter(rs)
    out = []
    for rep in reps:
        x = mat_vec(transpose(cochar), rep)  # coweight coords of the X_* element
        p = tuple(bi - xi for bi, xi in zip(b, x))
        w, shift = _reduce_to_alcove(rs, p)
        # sigma = (translation by shift) o w o (translation by -x)
        trans_f = [s - y for s, y in zip(shift, w.apply_point(x))]
        if any(t.denominator != 1 for t in trans_f):
            raise RootDataError(f"non-integral alcove translation {trans_f}")
        trans = tuple(int(t) for t in trans_f)
        sigma = AlcoveSymmetry(w, trans)
        affs = set(rs.affine_simples)
        if not _in_closed_alcove(rs, sigma.apply_point(b)) or \
                {sigma.apply_affine_root(a) for a in affs} != affs:
            raise RootDataError(f"{sigma} does not stabilize the alcove")
        out.append(sigma)
    return tuple(out)


def _in_closed_alcove(rs, v):
    if any(x < 0 for x in v):
        return False
    for th in rs.highest_roots:
        if sum(c * x for c, x in zip(th, v)) > 1:
            return False
    return True


def _coset_reps(sub_rows):
    """Representatives of ZZ^n / L, L the full-rank row lattice of sub_rows.

    The Hermite basis H is upper triangular with positive diagonal, so
    the box 0 <= x_i < H_ii holds exactly one point of each coset.
    """
    h = hermite_row_basis(sub_rows)
    if len(h) != len(sub_rows[0]):
        raise RootDataError("sublattice not of full rank")
    return tuple(itertools.product(*(range(h[i][i]) for i in range(len(h)))))
