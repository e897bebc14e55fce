"""Character tables of Weyl groups, evaluated on concrete root permutations.

The abstract values come from Murnaghan-Nakayama style recursions:

* type A        -- partitions, rim-hook removal on beta-sets;
* types B/C     -- ordered bipartitions, the wreath-product rule (positive
                   class parts strip either component, negative parts strip
                   with a sign on the second component);
* type D        -- restriction from B; degenerate pairs {lam,lam} split in
                   half, with the classical correction 2^l(gamma) chi_lam(gamma)
                   on split classes (all cycles positive and even);
* G2            -- the dihedral table of order 12.

Concrete Weyl elements (root-permutation tuples from rootdata) are matched
to abstract class labels through per-factor integer frames: the element
moves each frame vector to a signed frame vector, and the cycles of that
signed permutation are the class label, memoized per tuple.  A split
type-D class gets its sign from the signed permutation alone (the parity
of the sign changes of a W(B_k)-conjugator onto the representative with
positive consecutive cycles; see _split_sign), with no group search.

No group is enumerated: factor_classes lists each factor's classes with
their sizes, |W| over the centralizer order (Geck-Pfeiffer 2000, 3.4;
Carter 1972), and FactorClassifier.representative builds one element of
a class as a product of reflections in roots read off the frame.

The embedded factors themselves (their type, basis order, roots and
frame) are rootdata's (build_factor), so that pairs and classes read
them without loading this module; the characters' labels and
b-invariants are _labels' (factor_irrep_labels), so that local-wf reads
them without it too.

Each datum is computed once per process: the character values of each
type, the rim-hook removals they recurse through and the class lists.
The cached values are integers and tuples, so no caller can change what
a later one is served.
"""

import math
from functools import lru_cache

from . import partitions as pt
from .cartantype import CharError
from .rootdata import (EmbeddedFactor, RootSystem, apply_root_coords,
                       reflection_in_root)


# ---------------------------------------------------------------------
# rim hooks and abstract character values
# ---------------------------------------------------------------------

@lru_cache(maxsize=None)
def _strips(lam, r):
    """All removals of an r-rim-hook: (smaller partition, leg length)."""
    if r <= 0:
        raise CharError("strip size must be positive")
    ell = len(lam)
    if ell == 0:
        return ()
    beta = [lam[i] + (ell - 1 - i) for i in range(ell)]
    bset = set(beta)
    out = []
    for b in beta:
        nb = b - r
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for c in beta if nb < c < b)
        new_beta = sorted((c for c in beta if c != b), reverse=True)
        new_beta.append(nb)
        new_beta.sort(reverse=True)
        newlam = tuple(new_beta[j] - (ell - 1 - j) for j in range(ell))
        out.append((pt.normalize(newlam), height))
    return tuple(out)


@lru_cache(maxsize=None)
def sym_char(lam: tuple, rho: tuple) -> int:
    """Character of S_n: partition label lam at cycle type rho."""
    if not rho:
        return 1 if not lam else 0
    r, rest = rho[0], rho[1:]
    return sum((-1) ** h * sym_char(l2, rest) for l2, h in _strips(lam, r))


@lru_cache(maxsize=None)
def hyp_char(lam: tuple, mu: tuple, alpha: tuple, beta: tuple) -> int:
    """Character of the hyperoctahedral group W(B_n) = Z/2 wr S_n.

    Irreducible (lam, mu); class = (alpha, beta) with alpha the positive
    and beta the negative cycle lengths.
    """
    if not alpha and not beta:
        return 1 if not lam and not mu else 0
    if alpha:
        r, rest = alpha[0], alpha[1:]
        tot = 0
        for l2, h in _strips(lam, r):
            tot += (-1) ** h * hyp_char(l2, mu, rest, beta)
        for m2, h in _strips(mu, r):
            tot += (-1) ** h * hyp_char(lam, m2, rest, beta)
        return tot
    r, rest = beta[0], beta[1:]
    tot = 0
    for l2, h in _strips(lam, r):
        tot += (-1) ** h * hyp_char(l2, mu, alpha, rest)
    for m2, h in _strips(mu, r):
        tot -= (-1) ** h * hyp_char(lam, m2, alpha, rest)
    return tot


def d_char(pair, sign, alpha, beta, class_split) -> int:
    """Character of W(D_n).

    pair is the sorted (lam, mu); sign is 0 for lam != mu, else +1/-1.
    class_split is 0 for non-split classes and +1/-1 on split classes.
    """
    lam, mu = pair
    if sign == 0:
        return hyp_char(lam, mu, alpha, beta)
    base = hyp_char(lam, lam, alpha, beta)
    if class_split == 0:
        if base % 2:
            raise CharError(f"odd restriction {base} of {pair} at {alpha, beta}")
        return base // 2
    gamma = tuple(a // 2 for a in alpha)
    delta = (2 ** len(gamma)) * sym_char(lam, gamma)
    val = base + (delta if sign == class_split else -delta)
    if val % 2:
        raise CharError(f"odd split value {val} of {pair} at {alpha}")
    return val // 2


# G2 classes: identity 1, rotations r1/r2/r3 by 60/120/180 degrees,
# reflections sl in a long root and ss in a short root.
G2_CHAR = {
    "phi(1,0)":  {"1": 1, "r1": 1, "r2": 1, "r3": 1, "sl": 1, "ss": 1},
    "phi(1,6)":  {"1": 1, "r1": 1, "r2": 1, "r3": 1, "sl": -1, "ss": -1},
    # phi(1,3)l is +1 on reflections in long roots, phi(1,3)s on short ones
    "phi(1,3)l": {"1": 1, "r1": -1, "r2": 1, "r3": -1, "sl": 1, "ss": -1},
    "phi(1,3)s": {"1": 1, "r1": -1, "r2": 1, "r3": -1, "sl": -1, "ss": 1},
    "phi(2,1)":  {"1": 2, "r1": 1, "r2": -1, "r3": -2, "sl": 0, "ss": 0},
    "phi(2,2)":  {"1": 2, "r1": -1, "r2": -1, "r3": 2, "sl": 0, "ss": 0},
}
# class sizes in W(G2): the reflections fall into two classes of three,
# the rotations by 60 and 120 degrees into pairs
G2_CLASS_SIZES = {"1": 1, "sl": 3, "ss": 3, "r1": 2, "r2": 2, "r3": 1}


def _centralizer_order(parts, scale):
    """prod (scale*m)^{a_m} a_m!, a_m the multiplicity of the part m."""
    out = 1
    for m in set(parts):
        a = parts.count(m)
        out *= (scale * m) ** a * math.factorial(a)
    return out


@lru_cache(maxsize=None)
def factor_classes(kind, rank):
    """The conjugacy classes of W(kind_rank) as (label, size) pairs.

    A size is |W| over the centralizer order: prod m^{a_m} a_m! in S_n,
    and prod (2m)^{a_m+b_m} a_m! b_m! in W(B_n) for a_m positive and b_m
    negative m-cycles.  A W(B_n)-class with an even number of negative
    cycles lies in W(D_n), as one class of the same size unless it is
    split (all cycles positive and even), then as two of half the size.
    """
    if kind == "G":
        return tuple(G2_CLASS_SIZES.items())
    if kind == "A":
        n = math.factorial(rank + 1)
        return tuple((alpha, n // _centralizer_order(alpha, 1))
                     for alpha in pt.partitions_of(rank + 1))
    if kind not in ("BC", "D"):
        raise CharError(kind)
    n = 2 ** rank * math.factorial(rank)
    out = []
    for k in range(rank + 1):
        for alpha in pt.partitions_of(k):
            for beta in pt.partitions_of(rank - k):
                size = n // (_centralizer_order(alpha, 2) * _centralizer_order(beta, 2))
                if kind == "BC":
                    out.append(((alpha, beta), size))
                elif len(beta) % 2:
                    continue
                elif beta or any(a % 2 for a in alpha):
                    out.append(((alpha, beta, 0), size))
                else:
                    out += [((alpha, beta, 1), size // 2), ((alpha, beta, -1), size // 2)]
    return tuple(out)


def factor_char_value(kind, label, cls) -> int:
    if kind == "A":
        return sym_char(label, cls)
    if kind == "BC":
        lam, mu = label
        alpha, beta = cls
        return hyp_char(lam, mu, alpha, beta)
    if kind == "D":
        pair, sign = label
        alpha, beta, class_split = cls
        return d_char(pair, sign, alpha, beta, class_split)
    if kind == "G":
        return G2_CHAR[label][cls]
    raise CharError(kind)


# ---------------------------------------------------------------------
# classifying concrete elements of an embedded factor
# (rootdata.build_factor)
# ---------------------------------------------------------------------

def _signed_perm(rs: RootSystem, factor: EmbeddedFactor, w):
    """(pi, signs) with w(frame_i) = signs[i] * frame_{pi[i]}."""
    # a frame may hold v and -v (type A1): the unsigned match wins
    where = {tuple(-x for x in v): (i, -1) for i, v in enumerate(factor.frame)}
    where.update((v, (i, 1)) for i, v in enumerate(factor.frame))
    pi, signs = [], []
    for v in factor.frame:
        hit = where.get(apply_root_coords(rs, w, v))
        if hit is None:
            raise CharError("element does not preserve the factor frame")
        pi.append(hit[0])
        signs.append(hit[1])
    return tuple(pi), tuple(signs)


def _cycle_data(pi, signs):
    alpha, beta = [], []
    seen = set()
    for i in range(len(pi)):
        if i in seen:
            continue
        ln, sign, j = 0, 1, i
        while j not in seen:
            seen.add(j)
            sign *= signs[j]
            ln += 1
            j = pi[j]
        (alpha if sign == 1 else beta).append(ln)
    return tuple(sorted(alpha, reverse=True)), tuple(sorted(beta, reverse=True))


def _split_sign(pi, signs):
    """Which of the two W(D_k)-classes a split element lies in.

    A split class (all cycles positive and even) is one W(B_k)-class that
    falls into two W(D_k)-classes; '+' holds the element with positive
    consecutive cycles.  Map the t-th frame vector of each cycle of w to
    eps_t times the t-th of a block of that representative, where
    eps_0 = 1 and eps_{t+1} = eps_t * signs[i_t]: this u in W(B_k)
    conjugates w to the representative.  The W(B_k)-centralizer of the
    representative lies in W(D_k), so w is W(D_k)-conjugate to it exactly
    when u has an even number of sign changes.
    """
    seen = set()
    flips = 0
    for i in range(len(pi)):
        eps, j = 1, i
        while j not in seen:
            seen.add(j)
            flips += eps < 0
            eps *= signs[j]
            j = pi[j]
    return -1 if flips % 2 else 1


class FactorClassifier:
    """Conjugacy-class labels for elements of one embedded factor."""

    def __init__(self, rs: RootSystem, factor: EmbeddedFactor):
        self.rs = rs
        self.factor = factor
        self._cache = {}

    def label(self, w):
        if w in self._cache:
            return self._cache[w]
        out = self._label(w)
        self._cache[w] = out
        return out

    def representative(self, cls) -> tuple:
        """An element of the factor's class cls: a product of reflections
        in roots of the factor (see _class_word)."""
        rs = self.rs
        w = tuple(range(len(rs.roots)))
        for root in _class_word(rs, self.factor, cls):
            w = tuple(w[i] for i in reflection_in_root(rs, root))
        return w

    def _label(self, w):
        f = self.factor
        if f.kind == "G":
            return self._g2_label(w)
        pi, signs = _signed_perm(self.rs, f, w)
        alpha, beta = _cycle_data(pi, signs)
        if f.kind == "A":
            if any(s != 1 for s in signs):
                raise CharError("element changes the sign of a type-A frame point")
            return alpha
        if f.kind == "BC":
            return (alpha, beta)
        # D
        if beta or any(a % 2 for a in alpha):
            return (alpha, beta, 0)
        return (alpha, beta, _split_sign(pi, signs))

    def _g2_label(self, w):
        """Class of w in the dihedral W(G2), read off its root permutation:
        -1 negates every root, a reflection exactly its own root pair, a
        rotation none; among rotations r2 has order 3 and r1 order 6."""
        rs = self.rs
        negated = [r for i, r in enumerate(rs.roots)
                   if w[i] == rs._root_index[tuple(-x for x in r)]]
        if len(negated) == len(w):
            return "r3"
        if negated:
            lmax = max(rs.root_length2(r) for r in rs.roots)
            return "sl" if rs.root_length2(negated[0]) == lmax else "ss"
        if w == tuple(range(len(w))):
            return "1"
        return "r2" if all(w[w[w[i]]] == i for i in range(len(w))) else "r1"


def _class_word(rs: RootSystem, f: EmbeddedFactor, cls):
    """Roots whose reflections multiply to an element of the class cls.

    The cycles take consecutive frame indices, positive cycles first; a
    cycle on a..a+m-1 is s(e_a-e_{a+1})...s(e_{a+m-2}-e_{a+m-1}), where
    e_a - e_b is (f_a - f_b)/(k+1) in type A_k and (f_a - f_b)/2 in types
    B, C and D.  In types B and C a negative cycle takes one more sign
    change on its last index j, s(e_j) = s(f_j/2) in B and s(2e_j) = s(f_j)
    in C.  In type D the negative cycles are paired, each pair of last
    indices a, b taking s(e_a-e_b)s(e_a+e_b), and the '-' split class
    swaps the first s(e_0-e_1) for s(e_0+e_1), a conjugation by one sign
    change.  G2: products of the reflections in its long and short simple
    roots.
    """
    if f.kind == "G":
        long, short = f.basis
        return {"1": (), "sl": (long,), "ss": (short,), "r1": (long, short),
                "r2": (long, short) * 2, "r3": (long, short) * 3}[cls]
    frame = f.frame

    def root(vec, d):
        r = tuple(x // d for x in vec)
        if any(x % d for x in vec) or r not in rs._root_index:
            raise CharError(f"{vec}/{d} is not a root")
        return r

    def along(a, b, sign=-1):
        d = f.rank + 1 if f.kind == "A" else 2
        return root(tuple(x + sign * y for x, y in zip(frame[a], frame[b])), d)

    alpha, beta = (cls, ()) if f.kind == "A" else cls[:2]
    word, ends, pos = [], [], 0
    for m in alpha + beta:
        word += [along(i, i + 1) for i in range(pos, pos + m - 1)]
        pos += m
        ends.append(pos - 1)
    negative = ends[len(alpha):]
    if f.kind == "BC":
        d = 2 if f.series == "B" else 1
        word += [root(frame[j], d) for j in negative]
    elif f.kind == "D":
        for a, b in zip(negative[::2], negative[1::2]):
            word += [along(a, b), along(a, b, 1)]
        if cls[2] == -1:
            word[0] = along(0, 1, 1)
    return word
