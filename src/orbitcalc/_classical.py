"""The partition path: the invariant (saturation, Sommers dual) of an affine
Bala-Carter pair, or of any orbit on a face (local-wf), of a group of type
A, B, C or D, and whether some pair attains (d_BV(O^v), O^v) (arthur-wf),
decided from partitions alone, with no root system and no character table.

Faces as blocks.  Each node of the affine diagram (numbered as in
rootdata's affine_simples) has a root in the coordinates e_0, e_1, ...
(orbits.node_roots); the nodes of a face J whose roots share a
coordinate form one block, on the coordinates its roots touch, and
every coordinate no root touches is a block of its own.  A block on m coordinates is
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

A face with its orbits is keyed by its blocks' (kind, m) and partitions,
and by the mark of a very even saturation (type D at even rank), read
off the neutral element h placed on the blocks' signed coordinates
(key).  The Sommers dual's mark, when it is very even too, is the
saturation's under the dualities' rule (sommers_dual), so partitions
answer every query of A-D, marks included.  pair_choices lists every
pair with its key, for attained and for _unramified, which builds whole
unramified tables, pairs and classes too, on the blocks.
_labels.block_key reads any face's key off its factors
(_labels.face_factors, from the same node roots): a B, C or D block's
partition is looked up by the values of the dominant neutral element h
at the block's nodes (block_orbits, the inverse of orbits.node_values).
The path through the faces' Weyl groups (duality.invariant_of, through
balacarter and weylrep) is G2's and the oracle.
It is imported at first use by duality (achar_dual_one, face_invariant),
_labels (block_key) and _unramified, never for G2, and is not one of
the package's lazily loaded submodules (orbitcalc/__init__.py).
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import product, repeat
from math import prod
from types import MappingProxyType

from . import cartantype
from . import orbits
from . import partitions as pt
from .cartantype import CartanType


# ---------------------------------------------------------------------
# faces as blocks
# ---------------------------------------------------------------------

def faces(series: str, rank: int):
    """The faces: node sets proper within each component, by size and
    then by nodes, as balacarter.proper_subsets lists them."""
    roots, comps = orbits.node_roots(series, rank)
    out = []
    for mask in range(1 << len(roots)):
        j = frozenset(i for i in range(len(roots)) if mask >> i & 1)
        if all(j & c != c for c in comps):
            out.append(j)
    return sorted(out, key=lambda j: (len(j), sorted(j)))


def blocks(series: str, rank: int, j) -> tuple:
    """J's blocks, free coordinates included, as (kind, m, the nodes of J
    in the block)."""
    roots, _ = orbits.node_roots(series, rank)
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
    coords, nodes, kinds = Counter(), {}, {}
    for c in range(len(owner)):
        coords[find(c)] += 1
    for i in j:
        root = find(roots[i][0][0])
        nodes.setdefault(root, set()).add(i)
        if len(roots[i]) == 1:
            kinds[root] = "B" if abs(roots[i][0][1]) == 1 else "C"
    out = []
    for root, m in coords.items():
        members = frozenset(nodes.get(root, ()))
        kind = kinds.get(root) or ("D" if len(members) == m else "A")
        out.append((kind, m, members))
    return tuple(out)


@lru_cache(maxsize=None)
def distinguished(kind: str, m: int) -> tuple:
    """The partitions of the distinguished orbits of a block."""
    if kind == "A":
        return ((m,),)
    size, parity = {"B": (2 * m + 1, 1), "C": (2 * m, 0), "D": (2 * m, 1)}[kind]
    return tuple(p for p in pt.partitions_of(size)
                 if len(set(p)) == len(p) and all(x % 2 == parity for x in p))


def pair_choices(series: str, rank: int):
    """Each affine Bala-Carter pair, as (J, J's blocks, a distinguished
    partition per block, its key)."""
    for j in faces(series, rank):
        face = blocks(series, rank, j)
        for parts in product(*(distinguished(kind, m) for kind, m, _ in face)):
            yield j, face, parts, key(series, rank, face, parts)


def key(series: str, rank: int, face, parts, flips=None) -> tuple:
    """The key of a face with a partition on each of its blocks: the
    sorted ((kind, m), partition) of the blocks, then, when the saturation
    is very even (type D, every part even), its mark.

    The mark is read off the neutral element h, placed block by block on
    the coordinates the nodes' roots touch, with their signs: the
    saturation is mark I exactly when the product of h's coordinates is
    negative (orbits.weighted_dynkin negates one of the dominant h's for
    mark I), a product that W(D_n) keeps, since no coordinate is 0.  A D
    block's h is node_values' placement, whose first m eigenvalues are
    positive, with the last one negated if the block's flip (one per
    block, all False if None) is set; an A block's m eigenvalues, m/2 of
    them negative, sit on the signed coordinates f_i of its chain, whose
    roots are +-(f_i - f_i+1)."""
    out = tuple(sorted(((kind, m), p) for (kind, m, _), p in zip(face, parts)))
    if series != "D" or any(x % 2 for p in parts for x in p):
        return out
    sign = 1
    for (kind, m, nodes), flip in zip(face, flips or repeat(False)):
        sign *= (-1 if flip else 1) if kind == "D" else (-1) ** (m // 2) * _frame_sign(rank, nodes)
    return out + ("I" if sign < 0 else "II",)


def _frame_sign(rank: int, nodes) -> int:
    """The product of the signs s_c of an A block's chain coordinates
    f = s_c e_c: its root a e_c + b e_d is +-(f_c - f_d), so s_c s_d = -ab."""
    roots = [orbits.node_roots("D", rank)[0][i] for i in nodes]
    sign = {roots[0][0][0]: 1}
    for _ in roots:
        for (c, a), (d, b) in roots:
            if c in sign:
                sign[d] = -a * b * sign[c]
            elif d in sign:
                sign[c] = -a * b * sign[d]
    return prod(sign.values())


@lru_cache(maxsize=None)
def block_orbits(series: str, rank: int, kind: str, m: int, nodes) -> MappingProxyType:
    """The orbits of a B, C or D block, keyed by their values at the
    block's nodes in sorted order (orbits.node_values, both marks of a
    very even D orbit): node values -> partition, read-only.  Raises
    ABCError if two orbits share their values."""
    nodes, table = tuple(sorted(nodes)), {}
    for p in pt.valid_partitions(kind, m):
        very_even = kind == "D" and all(x % 2 == 0 for x in p)
        for flip in (False, True) if very_even else (False,):
            values = orbits.node_values(series, rank, nodes, p, flip)
            if table.setdefault(values, p) != p:
                raise cartantype.ABCError(f"orbits {table[values]} and {p} of a {kind}{m} "
                                          f"block share the node values {values}")
    return MappingProxyType(table)


def _split(key) -> tuple:
    """A key's blocks and its saturation's mark (None unless very even)."""
    return (key[:-1], key[-1]) if isinstance(key[-1], str) else (key, None)


@lru_cache(maxsize=None)
def saturation(ct: CartanType, key) -> orbits.NilpotentOrbit:
    """The saturation of a pair, or of a face with an orbit on each
    factor, from its key."""
    blocks, mark = _split(key)
    parts = []
    for (kind, m), p in blocks:
        parts.extend(p * 2 if kind == "A" and ct.series != "A" else p)
    if ct.series == "B" and all(kind != "B" for (kind, _), _ in blocks):
        parts.append(1)
    return orbits.NilpotentOrbit(ct, partition=parts, mark=mark)


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


def _b_bc(lam, mu) -> int:
    return 2 * pt.n_stat(lam) + 2 * pt.n_stat(mu) + sum(mu)


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
                if pt.n_stat(nu) <= bound:
                    out[nu] += m1 * m2 * p
    return out


@lru_cache(maxsize=None)
def _block_label(kind: str, m: int, p):
    """The Springer label of d_LS of a block's orbit, and its b.  B1 = C1 =
    A1: the sign character of W(B_1) at the regular orbit, the trivial one
    at the zero orbit.  A very even orbit is read with mark I, which shows
    only in the label's sign (see sommers_dual)."""
    if kind == "A":
        lab = pt.transpose(p)
        return lab, pt.n_stat(lab)
    if m == 1:
        return (((), (1,)), 1) if len(p) == 1 else (((1,), ()), 0)
    very_even = kind == "D" and all(x % 2 == 0 for x in p)
    lab = orbits.springer_rep_label(orbits.dual_ls(orbits.NilpotentOrbit(
        CartanType(kind, m), partition=p, mark="I" if very_even else None)))
    if kind != "D":
        return lab, _b_bc(*lab)
    (lam, mu), _ = lab
    return lab, 2 * pt.n_stat(lam) + 2 * pt.n_stat(mu) + min(sum(lam), sum(mu))


@lru_cache(maxsize=None)
def sommers_dual(ct: CartanType, key):
    """The Sommers dual of a pair, or of a face with an orbit on each
    factor, from its key: an orbit of ct.dual.  A degenerate block label
    {lam, lam}+- is read without its sign: a sign change on one of the
    block's coordinates normalizes the face group, swaps the block's two
    characters and fixes every non-degenerate character of W(D_n)
    (Geck-Pfeiffer 2000, ch. 5), so the sign can only decide a degenerate
    answer, a very even orbit.  Its mark is the saturation's, flipped
    unless rank % 4 == 0, the rule of the dualities
    (orbits._mark_of_dual).  Raises CharError if the least b is not taken
    by a single constituent of multiplicity 1, if the constituent is off
    the Springer image, or if it is very even and the saturation is not;
    none of these happens for any pair of A-D up to rank 10 or any face
    character up to rank 8."""
    blocks, mark = _split(key)
    b = 0
    if ct.series == "A":
        induced = Counter({(): 1})
        for (kind, m), p in blocks:
            lab, lb = _block_label(kind, m, p)
            b += lb
            induced = _times_a(induced, {lab: 1}, b)
        hits = {lab: c for lab, c in induced.items() if pt.n_stat(lab) == b}
        low = any(pt.n_stat(lab) < b for lab in induced)
    else:
        induced = Counter({((), ()): 1})
        for (kind, m), p in blocks:
            lab, lb = _block_label(kind, m, p)
            b += lb
            if kind == "A":
                block = dict(_to_bc(lab))
            elif kind == "D":
                # Ind from W(D_m) to W(B_m); {lam, lam}+- both give (lam, lam)
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
        raise cartantype.CharError(f"the induced character of {key} in {ct} has no single "
                                   f"least-b constituent: {dict(hits)}")
    (lab,) = hits
    if ct.series == "D":
        lab = (lab, int(lab[0] == lab[1]))  # a degenerate symbol: either sign
    orbit = orbits._springer_image(ct.dual).get(lab)
    if orbit is None:
        raise cartantype.CharError(f"{lab} is not the Springer label of an orbit of {ct.dual} "
                                   f"with the trivial local system")
    if not orbit.very_even:
        return orbit
    if mark is None:
        raise cartantype.CharError(f"the Sommers dual of {key} in {ct} is very even, "
                                   f"its saturation is not")
    return orbit._replace(mark=orbits._mark_of_dual(ct.dual, mark, orbit.partition))


def invariant(ct: CartanType, key) -> tuple:
    """The (saturation, Sommers dual) of a pair, or of a face with an
    orbit on each factor, as orbits, from its key.  Raises CharError where
    sommers_dual does."""
    return saturation(ct, key), sommers_dual(ct, key)


@lru_cache(maxsize=None)
def _pairs(ct: CartanType) -> frozenset:
    """The keys of all pairs of ct, without repeats."""
    return frozenset(key for *_, key in pair_choices(ct.series, ct.rank))


def attained(ct: CartanType, dual_orbit, target) -> bool:
    """Whether some pair saturates to target with Sommers dual
    dual_orbit.  Every pair that saturates to target is examined, so a
    fault of sommers_dual on any of them raises."""
    cartantype._check_abc_rank(ct)
    found = False
    for key in _pairs(ct):
        if saturation(ct, key) == target:
            found = sommers_dual(ct, key) == dual_orbit or found
    return found
