"""Root systems and Weyl groups for split types A-D, G2.

Root data
---------
Everything is derived from the Cartan matrix and the simple root lengths:
the roots are the closure of the simple roots under the simple
reflections (reflection_closure, which also serves the embedded
factors below), the positive ones are those with positive coefficient sum, each
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

Affine simple roots are (linear root, integer offset) pairs, listed in
the node order of the extended Dynkin diagram: component by component,
the affine node (-theta, 1) and then the component's finite simple roots
(alpha_i, 0), so that affine_simples[i] is node a_i.  For a simple type
node 0 is the affine node and node i is alpha_i.  marks holds the
coefficients of the relation sum_i m_i a_i = 1 on each component (1 at
the affine node, theta's coefficients elsewhere), and node_components
the node numbers of each component.

Weyl group
----------
A Weyl element is the tuple w of root indices with w(rs.roots[i]) =
rs.roots[w[i]]: "w after v" is tuple(w[i] for i in v) and the identity is
tuple(range(len(rs.roots))).  apply_root_coords extends the action
linearly to coefficient vectors.  The group itself is never enumerated:
some element maps one tuple of roots onto another exactly when their
codes agree (root_tuple_code), one dominance walk each
(dominant_conjugate).

Embedded factors
----------------
The simple subsystems spanned by parts of a basis of roots (a face's
pseudo-Levi, or a context's factors): split_basis_into_factors splits
the basis diagram into components, and build_factor classifies each, once
per root system and component, as an EmbeddedFactor: its type, its basis
in the standard order of that type, its roots and the integer frame on
which chartab labels the classes of its Weyl group.  Affine Bala-Carter
pairs and their classes read these and no character table.

Arithmetic
----------
All of it is integer: root lengths, coroots (a non-integral coroot
raises RootDataError) and the reflections of coweight coordinates.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .cartantype import SERIES, CartanType, RootDataError  # noqa: F401 (re-exported)
from .linalg import identity


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


@lru_cache(maxsize=None)
def reflection_closure(cartan):
    """The roots with Cartan matrix cartan[i][j] = <e_i, e_j^vee>: the set
    of coefficient vectors reached from the unit vectors e_j by the simple
    reflections s_j(c) = c - <c, e_j^vee> e_j.  Once per Cartan matrix,
    shared by every factor of that type."""
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
    return frozenset(seen)


class RootSystem:
    """Built via build_root_system, and immutable after construction apart
    from the memo of coroot_coweight_coords, which holds tuples."""

    def __init__(self, ct: CartanType):
        self.cartan_type = ct
        n = ct.rank
        self.rank = n
        self.cartan = cartan_matrix(ct.series, n)
        self.lengths2 = _root_lengths(ct.series, n)
        self.simple_roots = identity(n)
        # the simple coroots in coweight coordinates: the Cartan matrix's columns
        self._columns = tuple(tuple(row[j] for row in self.cartan) for j in range(n))
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
        self._coroot_cw = {}  # coroot_coweight_coords, as they are asked for

    def _coroot(self, root):
        """Coefficients of root^vee in the simple coroots:
        sum_i c_i (alpha_i, alpha_i)/(alpha, alpha) alpha_i^vee."""
        norm = self.root_length2(root)
        coeffs = [c * l for c, l in zip(root, self.lengths2)]
        if any(x % norm for x in coeffs):
            raise RootDataError(f"non-integral coroot of {root}")
        return tuple(x // norm for x in coeffs)

    def _build_affine(self):
        comps = connected_components(self.rank, lambda i, j: self.cartan[i][j] != 0)
        # theta of a component is its positive root of greatest height (a
        # root lies in one component, so touching it is lying in it)
        self.highest_roots = tuple(
            max((r for r in self.positive_roots if any(r[i] for i in comp)), key=sum)
            for comp in comps)
        affine, marks, node_comps = [], [], []
        for comp, th in zip(comps, self.highest_roots):
            first = len(affine)
            affine.append((tuple(-x for x in th), 1))
            marks.append(1)
            for i in comp:
                affine.append((self.simple_roots[i], 0))
                marks.append(th[i])
            node_comps.append(frozenset(range(first, len(affine))))
        self.affine_simples = tuple(affine)
        self.marks = tuple(marks)
        self.node_components = tuple(node_comps)

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
        cw = self._coroot_cw.get(root)
        if cw is None:
            cr = self._coroot_of[root]
            n = self.rank
            cw = self._coroot_cw[root] = tuple(
                sum(self.cartan[i][j] * cr[j] for j in range(n)) for i in range(n))
        return cw

    def root_length2(self, root):
        """(root, root) in the scale where the simple roots have lengths2.

        With C[i][j] = 2(ai,aj)/(aj,aj), (ai,aj) = C[i][j]*l2[j]/2; the
        double sum below is even (its diagonal terms are 2 c_i^2 l2[i] and
        its (i, j) and (j, i) terms are equal), so the result is an integer.
        """
        n = self.rank
        tot = sum(root[i] * root[j] * self.cartan[i][j] * self.lengths2[j]
                  for i in range(n) for j in range(n))
        return tot // 2

    def reflect_point(self, v, simple_idx):
        """s_i acting on coweight coordinates."""
        c = v[simple_idx]
        return tuple(x - c * y for x, y in zip(v, self._columns[simple_idx]))

    def node_count(self):
        return len(self.affine_simples)


@lru_cache(maxsize=None)
def build_root_system(ct: CartanType) -> RootSystem:
    return RootSystem(ct)


# ---------------------------------------------------------------------
# embedded factors: the simple subsystems spanned by parts of a basis
# ---------------------------------------------------------------------

class EmbeddedFactor(namedtuple("EmbeddedFactor",
                                "kind series rank basis cartan roots coords frame")):
    # kind: 'A', 'BC', 'D', 'G'; series: the root-system series A/B/C/D/G;
    # basis: ordered simple roots (root-coordinate tuples);
    # cartan[i][j] = <basis_i, basis_j^vee>;
    # roots: the whole subsystem, in rs.roots order;
    # coords: integer coordinates of each root in the basis;
    # frame: classification frame (see _build_frame)
    __slots__ = ()

    def cartan_type(self) -> CartanType:
        return CartanType(self.series, self.rank)


def subsystem_roots(rs: RootSystem, basis, cartan):
    """The subsystem with the given simple basis and Cartan matrix, in
    rs.roots order, as (roots, coords): reflection_closure(cartan) gives
    each root's integer coordinates in the basis, and the root is that
    combination of the basis."""
    found = {tuple(sum(x * b[t] for x, b in zip(c, basis)) for t in range(rs.rank)): c
             for c in reflection_closure(cartan)}
    roots = tuple(sorted(found, key=rs._root_index.__getitem__))
    return roots, tuple(found[r] for r in roots)


def split_basis_into_factors(rs: RootSystem, basis):
    """Connected components of the basis diagram, as lists of roots."""
    comps = connected_components(
        len(basis), lambda i, j: rs.pairing(basis[i], basis[j]) != 0)
    return tuple(tuple(basis[i] for i in comp) for comp in comps)


def _classify_factor(rs: RootSystem, comp):
    """Determine (kind, series, rank, ordered basis) of one connected factor."""
    k = len(comp)
    pair = {(i, j): rs.pairing(comp[i], comp[j]) for i in range(k) for j in range(k)}
    deg = {i: sum(1 for j in range(k) if i != j and pair[(i, j)] != 0) for i in range(k)}
    off = [pair[(i, j)] for i in range(k) for j in range(k) if i != j]
    triple = any(v == -3 for v in off)
    double = any(v == -2 for v in off)
    if triple:
        # G2: order (long, short); <short, long^vee> = -1, <long, short^vee> = -3
        i, j = 0, 1
        if pair[(i, j)] == -3:
            order = (comp[i], comp[j])
        else:
            order = (comp[j], comp[i])
        return ("G", "G", 2, order)
    if not double:
        forks = [i for i in range(k) if deg[i] == 3]
        if forks and k >= 4:
            return ("D", "D", k, _order_d(comp, pair, deg, forks[0]))
        return ("A", "A", k, _order_path(comp, pair, deg))
    # doubly laced: B (unique short root, at the end) or C (unique long root)
    len2 = [rs.root_length2(c) for c in comp]
    path = _order_path(comp, pair, deg)
    idx = {c: i for i, c in enumerate(comp)}
    lmax = max(len2)
    n_long = sum(1 for v in len2 if v == lmax)
    if k == 2 or n_long >= k - 1:
        # B-type shape (B2 == C2 normalized long-first)
        if len2[idx[path[0]]] < len2[idx[path[-1]]]:
            path = tuple(reversed(path))
        return ("BC", "B", k, path)
    # exactly one long root: type C, long root last
    if len2[idx[path[0]]] > len2[idx[path[-1]]]:
        path = tuple(reversed(path))
    return ("BC", "C", k, path)


def _order_path(comp, pair, deg):
    k = len(comp)
    if k == 1:
        return (comp[0],)
    ends = [i for i in range(k) if deg[i] == 1]
    start = min(ends, key=lambda i: comp[i])
    order = [start]
    used = {start}
    while len(order) < k:
        cur = order[-1]
        nxt = next(j for j in range(k)
                   if j not in used and pair[(cur, j)] != 0)
        order.append(nxt)
        used.add(nxt)
    return tuple(comp[i] for i in order)


def _order_d(comp, pair, deg, fork):
    k = len(comp)
    tips = [j for j in range(k) if deg[j] == 1 and pair[(fork, j)] != 0]
    if len(tips) == 3:  # D4: three tips at the fork; two become the prongs
        tips = sorted(tips, key=lambda i: comp[i])[1:]
    prongs = sorted(tips, key=lambda i: comp[i])
    remaining = {j for j in range(k) if j not in prongs and j != fork}
    order = []
    if remaining:
        cur = min((i for i in remaining if deg[i] == 1), key=lambda i: comp[i])
        order.append(cur)
        remaining.discard(cur)
        while remaining:
            nxt = next(j for j in remaining if pair[(order[-1], j)] != 0)
            order.append(nxt)
            remaining.discard(nxt)
    order.append(fork)
    order.extend(prongs)
    return tuple(comp[i] for i in order)


def _build_frame(rs: RootSystem, kind, series, rank, basis):
    """Integer root-coordinate vectors used to classify group elements.

    A: the k+1 points of the permutation model, (k+1)(e_i - mean);
    B/C/D: the vectors 2*e_i (so everything stays a root combination).
    """
    n = rs.rank
    k = rank
    if kind == "G":
        return ()
    if kind == "A":
        pts = [tuple(sum((k - j) * b[t] for j, b in enumerate(basis))
                     for t in range(n))]
        for b in basis:
            pts.append(tuple(x - (k + 1) * y for x, y in zip(pts[-1], b)))
        return tuple(pts)
    if kind == "BC":
        # frame vectors are 2*e_i: for B the last simple root is e_k,
        # for C it is 2*e_k, and 2*e_i = 2*beta_i + 2*e_{i+1} going left
        scale = 2 if series == "B" else 1
        es = [tuple(scale * x for x in basis[-1])]
        rest = basis[:-1]
    elif kind == "D":
        bl, bm = basis[-2], basis[-1]
        es = [tuple(y - x for x, y in zip(bl, bm)),   # 2*e_k
              tuple(x + y for x, y in zip(bl, bm))]   # 2*e_{k-1}
        rest = basis[:-2]
    else:
        raise RootDataError(kind)
    for b in reversed(rest):
        es.append(tuple(2 * x + y for x, y in zip(b, es[-1])))
    return tuple(reversed(es))


@lru_cache(maxsize=None)
def build_factor(rs: RootSystem, comp, forced_basis=None,
                 forced_series=None) -> EmbeddedFactor:
    """The factor with simple roots comp, once per root system and
    component.  forced_basis/forced_series override the canonical normal
    form; the caller promises the pair is a standard model for the
    subsystem (used for ambient systems, where labels must agree with the
    system-level recipes; the canonical form may differ by a diagram
    automorphism or, for B2 = C2, by the dual naming)."""
    kind, series, rank, basis = _classify_factor(rs, comp)
    if forced_basis is not None:
        if set(forced_basis) != set(basis):
            raise RootDataError(f"{forced_basis} is not a basis of the factor")
        basis = tuple(forced_basis)
    if forced_series is not None:
        series = forced_series
        kind = {"A": "A", "B": "BC", "C": "BC", "D": "D", "G": "G"}[series]
    cartan = tuple(tuple(rs.pairing(bi, bj) for bj in basis) for bi in basis)
    roots, coords = subsystem_roots(rs, basis, cartan)
    frame = _build_frame(rs, kind, series, rank, basis)
    return EmbeddedFactor(kind, series, rank, basis, cartan, roots, coords, frame)


# ---------------------------------------------------------------------
# Weyl group elements as permutations of the root list
# ---------------------------------------------------------------------

def apply_root_coords(rs: RootSystem, w, coords):
    """Linear extension of the root action of w to coefficient vectors."""
    n = rs.rank
    out = [0] * n
    for i in range(n):
        if coords[i]:
            img = rs.roots[w[rs._root_index[rs.simple_roots[i]]]]
            for k in range(n):
                out[k] += coords[i] * img[k]
    return tuple(out)


@lru_cache(maxsize=None)
def reflection_in_root(rs: RootSystem, root) -> tuple:
    """Reflection s_beta for an arbitrary root beta."""
    n = rs.rank
    coroot_cw = rs.coroot_coweight_coords(root)

    def refl(alpha):
        pairing = sum(alpha[k] * coroot_cw[k] for k in range(n))
        return tuple(alpha[k] - pairing * root[k] for k in range(n))

    return tuple(rs._root_index[refl(r)] for r in rs.roots)


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


def root_tuple_code(rs: RootSystem, t):
    """The W-invariant code of a tuple t of root indices: the dominant
    conjugate of v = sum_k 7^k roots[t_k]^vee.

    Any two roots pair to at most 3 in absolute value (Bourbaki, Lie
    Groups and Lie Algebras, ch. VI, par. 1.3), so every coweight
    coordinate of a coroot lies in [-3, 3] and the base-7 digits of v are
    unique: w v equals the undominated code of b exactly when w maps each
    t_k to b_k (so also only when t and b have the same length, no coroot
    being zero).  Two tuples are W-conjugate when their codes agree.
    """
    v = (0,) * rs.rank
    for k, i in enumerate(t):
        cw = rs.coroot_coweight_coords(rs.roots[i])
        v = tuple(x + 7 ** k * c for x, c in zip(v, cw))
    return dominant_conjugate(rs, v)
