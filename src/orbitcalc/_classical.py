"""The partition path of arthur-wf: whether some affine Bala-Carter pair of
a group of type A, B, C or D attains (d_BV(O^v), O^v), decided from
partitions alone, with no root system and no character table.

Faces as blocks.  Each node of the affine diagram (numbered as in
rootdata's affine_simples) has a root in the coordinates e_0, e_1, ...;
the nodes of a face J whose roots share a coordinate form one block, on
the coordinates its roots touch, and every coordinate no root touches is
a block of its own.  A block on m coordinates is
  B_m if one of its roots is +-e_i, C_m if one is +-2e_i,
  D_m if it has m nodes (so {a0, a1} is D2 and {a0, a1, a2} is D3),
  and otherwise A: a chain of m - 1 roots, whose Weyl group is S_m.
A pair puts a distinguished orbit on each block (Collingwood-McGovern,
Nilpotent Orbits in Semisimple Lie Algebras, 1993, par. 8.2): the regular
orbit (m) on A, partitions into distinct odd parts on B and D, into
distinct even parts on C.  Its saturation is the Jordan type of the
direct sum: the union of the blocks' partitions, an A block counting
twice (m, m) outside type A, with a part 1 added in type B when no block
is of type B.

The Sommers dual.  Each block's character is the Springer label of the
Lusztig-Spaltenstein dual of its orbit (orbits.springer_rep_label).  Its
truncated induction to W(B_n), or S_{n+1} in type A, is read off
Littlewood-Richardson coefficients (Lusztig, A class of irreducible
representations of a Weyl group, Indag. Math. 1979; Geck-Pfeiffer,
Characters of Finite Coxeter Groups and Iwahori-Hecke Algebras, 2000,
ch. 5-6): S_m -> W(B_m) sends gamma to sum c^gamma_{alpha beta}
(alpha, beta), W(D_m) -> W(B_m) sends {lam, mu} to (lam, mu) + (mu, lam),
and a product of W(B)s induces as the product of both components'
Schur functions.  The constituent of least b, unique and of
multiplicity 1, is read as a W(D_n) label in type D and looked up in
the Springer table of the dual series (Sommers, Lusztig's canonical
quotient and generalized duality, J. Algebra 2001).

attained answers None, and today's path (duality, through balacarter and
weylrep) answers instead, where partitions do not decide:
  - in type D when O^v or d_BV(O^v) is very even: partitions give neither
    a degenerate symbol's sign nor a very even saturation's mark;
  - when a candidate's least-b constituents are not a single character of
    multiplicity 1, or its label is off the Springer image.
It is imported by duality at first use and is not one of the package's
lazily loaded submodules (orbitcalc/__init__.py).
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import product

from . import cartantype
from . import orbits
from . import partitions as pt
from .cartantype import CartanType


class _Declined(Exception):
    """Partitions do not decide this query."""


# ---------------------------------------------------------------------
# faces as blocks
# ---------------------------------------------------------------------

def node_roots(series: str, rank: int):
    """The affine nodes' roots, each a tuple of (coordinate, coefficient)
    pairs, and the node components; nodes as in rootdata.affine_simples."""
    n = rank
    simple = [((i - 1, 1), (i, -1)) for i in range(1, n)]  # e_{i-1} - e_i
    if series == "A":
        roots = [((0, -1), (n, 1))] + [((i - 1, 1), (i, -1)) for i in range(1, n + 1)]
    elif series == "B":
        roots = [((0, -1), (1, -1))] + simple + [((n - 1, 1),)]
    elif series == "C":
        roots = [((0, -2),)] + simple + [((n - 1, 2),)]
    elif n == 2:  # D2: two A1 components, each with its affine node
        roots = [((0, -1), (1, 1)), ((0, 1), (1, -1)),
                 ((0, -1), (1, -1)), ((0, 1), (1, 1))]
        return tuple(roots), (frozenset({0, 1}), frozenset({2, 3}))
    else:
        roots = [((0, -1), (1, -1))] + simple + [((n - 2, 1), (n - 1, 1))]
    return tuple(roots), (frozenset(range(len(roots))),)


def faces(series: str, rank: int):
    """The faces: node sets proper within each component."""
    roots, comps = node_roots(series, rank)
    out = []
    for mask in range(1 << len(roots)):
        j = frozenset(i for i in range(len(roots)) if mask >> i & 1)
        if all(j & c != c for c in comps):
            out.append(j)
    return out


def face_blocks(series: str, rank: int, j) -> tuple:
    """The sorted (kind, m) of J's blocks, free coordinates included."""
    roots, _ = node_roots(series, rank)
    owner = list(range(rank + (series == "A")))  # union-find on the coordinates

    def find(c):
        while owner[c] != c:
            owner[c] = owner[owner[c]]
            c = owner[c]
        return c

    for i in j:
        first = find(roots[i][0][0])
        for c, _ in roots[i][1:]:
            owner[find(c)] = first
    coords, nodes, kinds = Counter(), Counter(), {}
    for c in range(len(owner)):
        coords[find(c)] += 1
    for i in j:
        root = find(roots[i][0][0])
        nodes[root] += 1
        if len(roots[i]) == 1:
            kinds[root] = "B" if abs(roots[i][0][1]) == 1 else "C"
    out = []
    for root, m in coords.items():
        kind = kinds.get(root) or ("D" if nodes[root] == m else "A")
        out.append((kind, m))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def distinguished(kind: str, m: int) -> tuple:
    """The partitions of the distinguished orbits of a block."""
    if kind == "A":
        return ((m,),)
    size, parity = {"B": (2 * m + 1, 1), "C": (2 * m, 0), "D": (2 * m, 1)}[kind]
    return tuple(p for p in pt.partitions_of(size)
                 if len(set(p)) == len(p) and all(x % 2 == parity for x in p))


def face_pairs(ct: CartanType, j) -> tuple:
    """One key per affine Bala-Carter pair on the face J: the sorted
    (kind, m, partition) of its blocks."""
    blocks = face_blocks(ct.series, ct.rank, j)
    return tuple(tuple(sorted(zip(blocks, choice)))
                 for choice in product(*(distinguished(*b) for b in blocks)))


def saturation(ct: CartanType, key) -> tuple:
    """The partition of the saturation of a pair, from its key."""
    parts = []
    for (kind, m), p in key:
        parts.extend(p * 2 if kind == "A" and ct.series != "A" else p)
    if ct.series == "B" and all(kind != "B" for (kind, _), _ in key):
        parts.append(1)
    return pt.normalize(parts)


# ---------------------------------------------------------------------
# characters: Littlewood-Richardson induction
# ---------------------------------------------------------------------

@lru_cache(maxsize=None)
def _lr(lam, mu) -> tuple:
    """s_lam s_mu = sum c^nu_{lam mu} s_nu, as ((nu, c), ...): the rows
    of mu are added to lam in turn as horizontal strips, row k labelled
    k, keeping the reverse reading word a lattice word (at every row r,
    the k's in rows <= r are at most the (k-1)'s in rows < r)."""
    out = Counter()

    def strip(k, shape, prev):
        if k == len(mu):
            out[tuple(x for x in shape if x)] += 1
            return
        shape = list(shape) + [0]

        def place(r, left, new, old, counts):
            if r == len(shape):
                if not left:
                    grown = [x + c for x, c in zip(shape, counts)]
                    strip(k + 1, grown, counts)
                return
            room = left if r == 0 else shape[r - 1] - shape[r]
            if k:  # lattice: k's through row r <= (k-1)'s above row r
                room = min(room, old - new)
            for c in range(min(room, left), -1, -1):
                place(r + 1, left - c, new + c,
                      old + (prev[r] if r < len(prev) else 0), counts + [c])

        place(0, mu[k], 0, 0, [])

    strip(0, lam, ())
    return tuple(out.items())


def _n(p) -> int:
    return sum(i * x for i, x in enumerate(p))


def _b_bc(lam, mu) -> int:
    return 2 * _n(lam) + 2 * _n(mu) + sum(mu)


@lru_cache(maxsize=None)
def _to_bc(gamma) -> tuple:
    """Ind_{S_m}^{W(B_m)} gamma, as (((alpha, beta), c), ...)."""
    m = sum(gamma)
    out = []
    for k in range(m + 1):
        for alpha in pt.partitions_of(k):
            for beta in pt.partitions_of(m - k):
                c = dict(_lr(alpha, beta)).get(gamma, 0)
                if c:
                    out.append(((alpha, beta), c))
    return tuple(out)


def _times_bc(x, y, bound):
    """The W(B) product of two characters, its constituents of b <= bound
    only: no constituent of an induced character has a smaller b than
    the character (Geck-Pfeiffer 2000, 5.2), so what lies above the bound
    induces to nothing at the bound."""
    out = Counter()
    for (a, b), m1 in x.items():
        for (c, d), m2 in y.items():
            for lam, p in _lr(a, c):
                for mu, q in _lr(b, d):
                    if _b_bc(lam, mu) <= bound:
                        out[lam, mu] += m1 * m2 * p * q
    return out


def _times_a(x, y, bound):
    out = Counter()
    for a, m1 in x.items():
        for b, m2 in y.items():
            for nu, p in _lr(a, b):
                if _n(nu) <= bound:
                    out[nu] += m1 * m2 * p
    return out


@lru_cache(maxsize=None)
def _block_label(kind: str, m: int, p):
    """The Springer label of d_LS of a block's orbit, and its b."""
    if kind == "A":
        return (1,) * m, _n((1,) * m)
    if m == 1:  # B1 = C1 = A1: the sign character of W(B_1)
        return ((), (1,)), 1
    lab = orbits.springer_rep_label(orbits.dual_ls(
        orbits.NilpotentOrbit(CartanType(kind, m), partition=p)))
    if kind != "D":
        return lab, _b_bc(*lab)
    (lam, mu), sign = lab
    if sign:
        raise _Declined  # a degenerate symbol's sign does not induce to W(B)
    return lab, 2 * _n(lam) + 2 * _n(mu) + min(sum(lam), sum(mu))


@lru_cache(maxsize=None)
def sommers_dual(ct: CartanType, key):
    """The Sommers dual of a pair, from its key: an orbit of ct.dual, or
    None for a very even one (its mark is not read).  Raises _Declined
    where partitions do not decide."""
    b = 0
    if ct.series == "A":
        induced = Counter({(): 1})
        for (kind, m), p in key:
            lab, lb = _block_label(kind, m, p)
            b += lb
            induced = _times_a(induced, {lab: 1}, b)
        hits = {lab: c for lab, c in induced.items() if _n(lab) == b}
        low = any(_n(lab) < b for lab in induced)
    else:
        induced = Counter({((), ()): 1})
        for (kind, m), p in key:
            lab, lb = _block_label(kind, m, p)
            b += lb
            if kind == "A":
                block = dict(_to_bc(lab))
            elif kind == "D":
                (lam, mu), _ = lab
                block = {(lam, mu): 1, (mu, lam): 1}
            else:
                block = {lab: 1}
            induced = _times_bc(induced, block, b)
        hits = {lab: c for lab, c in induced.items() if _b_bc(*lab) == b}
        low = any(_b_bc(*lab) < b for lab in induced)
        if ct.series == "D":  # (lam, mu) and (mu, lam) restrict to one character
            hits = {tuple(sorted(lab)): c for lab, c in hits.items()}
    if low or len(hits) != 1 or set(hits.values()) != {1}:
        raise _Declined
    (lab,) = hits
    if ct.series == "D":
        if lab[0] == lab[1]:
            return None  # a degenerate symbol: a very even orbit, mark unread
        lab = (lab, 0)
    orbit = _springer_table(ct.dual).get(lab)
    if orbit is None:
        raise _Declined
    return orbit


@lru_cache(maxsize=None)
def _springer_table(ct: CartanType):
    return {orbits.springer_rep_label(o): o for o in orbits.enumerate_orbits(ct)}


@lru_cache(maxsize=None)
def _pairs(ct: CartanType) -> frozenset:
    """The keys of all pairs of ct, without repeats."""
    return frozenset(key for j in faces(ct.series, ct.rank) for key in face_pairs(ct, j))


def attained(ct: CartanType, dual_orbit, target):
    """Whether some pair saturates to target with Sommers dual dual_orbit;
    None where partitions do not decide.  Every pair that saturates to
    target is examined, so the answer is the one that today's path gives
    whenever this one gives any."""
    cartantype._check_abc_rank(ct)
    if ct.series == "D" and (dual_orbit.very_even or target.very_even):
        return None
    if target.system != ct:
        return False
    found = False
    try:
        for key in _pairs(ct):
            if saturation(ct, key) == target.partition:
                found = sommers_dual(ct, key) == dual_orbit or found
    except _Declined:
        return None
    return found
