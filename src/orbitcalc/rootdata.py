"""Root systems and Weyl groups for split types A-D, G2.

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
conjugate_root_tuples decides whether some element maps one tuple of
roots onto another by comparing their codes (root_tuple_code), one
dominance walk each (dominant_conjugate).

Arithmetic
----------
All of it is integer: root lengths, coroots (a non-integral coroot
raises RootDataError) and the reflections of coweight coordinates.
"""

from __future__ import annotations

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


def conjugate_root_tuples(rs: RootSystem, a, b) -> bool:
    """Is there a w in W with w(roots[a_k]) = roots[b_k] for every k?
    a and b are tuples of root indices (see root_tuple_code)."""
    return root_tuple_code(rs, a) == root_tuple_code(rs, b)
