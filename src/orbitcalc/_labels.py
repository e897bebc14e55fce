"""The labels of Weyl-group characters, factor type by factor type, and
the maps that read nothing but labels: the b-invariant, the tensor
product with the sign character, Lusztig's families and their special
members, and the orbit side of the Springer correspondence.

A factor type is (kind, rank) as rootdata's EmbeddedFactor records it:
kind 'A' (partitions of rank + 1), 'BC' (bipartitions (lam, mu) of rank),
'D' (((lam, mu), sign), the pair sorted and sign 0 unless lam = mu, then
+1 or -1) or 'G' (six names).  A character of a product of factors is
the tuple of its factors' labels.

local-wf reads a face character's orbit O^s(E) here (orbit_s_factors),
from the face's factors alone, with no character table and no group;
the character layer (chartab, weylrep) reads its labels, b-invariants,
families and Springer orbits from here too.  For types A-D the factors
themselves are read here, off the nodes' roots in coordinates
(face_factors, as (kind, series, rank, nodes), the first three fields
as EmbeddedFactor's, so that the label maps take either), and so is
the partition path's key of a face with an orbit on each factor
(block_key), with no root system.  Every importer reaches this module
through its module object (wavefront, duality's face_invariant and
weylrep), and arthur-wf and the block path's unramified never load it.
It is not one of the package's lazily loaded submodules
(orbitcalc/__init__.py), and it imports none of rootdata, linalg or
the character layer.  The tables are computed once per
process and are read-only.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

from . import partitions as pt
from .cartantype import ABCError, CartanType, CharError
from .orbits import (NilpotentOrbit, _springer_image, node_roots, node_values,
                     weighted_dynkin)

G2_IRREPS = ("phi(1,0)", "phi(1,6)", "phi(1,3)l", "phi(1,3)s",
             "phi(2,1)", "phi(2,2)")
G2_B_INVARIANT = {"phi(1,0)": 0, "phi(1,6)": 6, "phi(1,3)l": 3,
                  "phi(1,3)s": 3, "phi(2,1)": 1, "phi(2,2)": 2}
G2_TENSOR_SGN = {"phi(1,0)": "phi(1,6)", "phi(1,6)": "phi(1,0)",
                 "phi(1,3)l": "phi(1,3)s", "phi(1,3)s": "phi(1,3)l",
                 "phi(2,1)": "phi(2,1)", "phi(2,2)": "phi(2,2)"}
# the character off the trivial-local-system image: G2's phi(1,3)l belongs
# to the pair (G2(a1), sign of A(G2(a1)) = S3)
G2_SPRINGER_EXTRA_ORBIT = {"phi(1,3)l": "G2(a1)"}


def b_invariant(kind, label) -> int:
    if kind == "A":
        return pt.n_stat(label)
    if kind == "BC":
        lam, mu = label
        return 2 * pt.n_stat(lam) + 2 * pt.n_stat(mu) + sum(mu)
    if kind == "D":
        pair, sign = label
        lam, mu = pair
        if sign:
            return 4 * pt.n_stat(lam) + sum(lam)
        return 2 * pt.n_stat(lam) + 2 * pt.n_stat(mu) + min(sum(lam), sum(mu))
    if kind == "G":
        return G2_B_INVARIANT[label]
    raise CharError(kind)


def factor_irrep_labels(kind, rank):
    if kind == "A":
        return tuple(pt.partitions_of(rank + 1))
    if kind == "BC":
        out = []
        for k in range(rank + 1):
            for lam in pt.partitions_of(k):
                for mu in pt.partitions_of(rank - k):
                    out.append((lam, mu))
        return tuple(out)
    if kind == "D":
        out = []
        for k in range(rank + 1):
            for lam in pt.partitions_of(k):
                for mu in pt.partitions_of(rank - k):
                    if (lam, mu) > (mu, lam):
                        continue
                    if lam == mu:
                        out.append(((lam, mu), 1))
                        out.append(((lam, mu), -1))
                    else:
                        out.append(((lam, mu), 0))
        return tuple(out)
    if kind == "G":
        return G2_IRREPS
    raise CharError(kind)


def tensor_sgn_label(kind, rank, lab):
    """The label of E tensor sign, E of label lab."""
    if kind == "A":
        return pt.transpose(lab)
    if kind == "BC":
        lam, mu = lab
        return (pt.transpose(mu), pt.transpose(lam))
    if kind == "D":
        (lam, mu), sign = lab
        tl, tm = pt.transpose(lam), pt.transpose(mu)
        if sign == 0:
            return (tuple(sorted((tl, tm))), 0)
        flip = 1 if (rank // 2) % 2 == 0 else -1
        return ((tl, tm), sign * flip)
    return G2_TENSOR_SGN[lab]


# ---------------------------------------------------------------------
# symbols, families, special representations
# ---------------------------------------------------------------------

def _inc_pad(p, size):
    p = sorted(p)
    if len(p) > size:
        raise CharError(f"partition {p} too long for row of size {size}")
    return [0] * (size - len(p)) + p


def _bc_symbol(lam, mu, m):
    top = [v + i for i, v in enumerate(_inc_pad(lam, m + 1))]
    bot = [v + i for i, v in enumerate(_inc_pad(mu, m))]
    return tuple(top), tuple(bot)


def _d_symbol(lam, mu, m):
    top = [v + i for i, v in enumerate(_inc_pad(lam, m))]
    bot = [v + i for i, v in enumerate(_inc_pad(mu, m))]
    return tuple(top), tuple(bot)


def _interleaved(a, b):
    """a_1 <= b_1 <= a_2 <= ... for rows of sizes len(b)+1 or equal size."""
    for i in range(len(b)):
        if not a[i] <= b[i]:
            return False
        if i + 1 < len(a) and not b[i] <= a[i + 1]:
            return False
    return True


def _family_key(kind, rank, lab):
    if kind == "A":
        return ("A", lab)
    if kind == "BC":
        lam, mu = lab
        top, bot = _bc_symbol(lam, mu, rank)
        return ("BC", tuple(sorted(top + bot)))
    if kind == "D":
        (lam, mu), sign = lab
        top, bot = _d_symbol(lam, mu, rank)
        return ("D", tuple(sorted(top + bot)), sign)
    fam = {"phi(1,0)": "triv", "phi(1,6)": "sgn"}.get(lab, "big")
    return ("G", fam)


def _is_special(kind, rank, lab) -> bool:
    if kind == "A":
        return True
    if kind == "BC":
        lam, mu = lab
        top, bot = _bc_symbol(lam, mu, rank)
        return _interleaved(top, bot)
    if kind == "D":
        (lam, mu), sign = lab
        if sign:
            return True
        top, bot = _d_symbol(lam, mu, rank)
        return _interleaved(top, bot) or _interleaved(bot, top)
    return lab in ("phi(1,0)", "phi(2,1)", "phi(1,6)")


@lru_cache(maxsize=None)
def _specials(kind, rank):
    """label -> the special label of its family, for one factor type."""
    labels = factor_irrep_labels(kind, rank)
    found = {}
    for lab in labels:
        if _is_special(kind, rank, lab):
            found.setdefault(_family_key(kind, rank, lab), []).append(lab)
    table = {}
    for lab in labels:
        specials = found.get(_family_key(kind, rank, lab), [])
        if len(specials) != 1:
            raise CharError(f"family of {lab} in {kind}{rank} has specials {specials}")
        table[lab] = specials[0]
    return MappingProxyType(table)


def special_labels(factors, label):
    """The special member of the family of the character of label `label`
    of the product of the factors `factors`: a family of a
    product is a product of families, each with one special member."""
    out = tuple(_specials(kind, rank).get(lab)
                for (kind, _, rank, *_), lab in zip(factors, label))
    if len(label) != len(factors) or None in out:
        raise CharError(f"{label} is not a character of the factors "
                        f"{[(series, rank) for _, series, rank, *_ in factors]}")
    return out


# ---------------------------------------------------------------------
# Springer correspondence (orbit component)
# ---------------------------------------------------------------------

def springer_orbit_label(ct: CartanType, lab) -> NilpotentOrbit:
    """Orbit of the Springer pair of a factor-level label.

    On the image of the trivial-local-system map this inverts
    springer_rep_label; off it only G2's phi(1,3)l (the sign character of
    A(G2(a1)) = S3) is known, and a classical label raises CharError.
    """
    image = _springer_image(ct)
    if lab in image:
        return image[lab]
    if ct.series == "G":
        return NilpotentOrbit(ct, g2_label=G2_SPRINGER_EXTRA_ORBIT[lab])
    raise CharError(f"{lab} is not the Springer label of an orbit of {ct} "
                    f"with the trivial local system")


def orbit_s_factors(factors, label):
    """The E -> O^s(E) map, factor by factor: the Springer orbit of the
    special member of the family of E tensor sign, for the character E of
    label `label` of the product of the factors `factors`."""
    twisted = tuple(tensor_sgn_label(kind, rank, lab)
                    for (kind, _, rank, *_), lab in zip(factors, label))
    return tuple(springer_orbit_label(CartanType(series, rank), lab)
                 for (_, series, rank, *_), lab in zip(factors, special_labels(factors, twisted)))


# ---------------------------------------------------------------------
# the faces of types A-D, from the nodes' roots in coordinates
# ---------------------------------------------------------------------

@lru_cache(maxsize=None)
def face_factors(series: str, rank: int, j: frozenset) -> tuple:
    """The factors of the pseudo-Levi of the face J of a group of type
    A-D, each as (kind, series, rank, J's nodes in the factor's frame
    order), in the order and frames of the test suite's root-system
    oracle, read off the nodes' roots in coordinates (orbits.node_roots)
    with no root system: inner products give the links, and lengths tell
    B from C.  Raises ABCError unless J is a face: its nodes in range, and proper in
    each component.

    The oracle sorts J's roots by their coefficients in the simple roots:
    the affine nodes first, component by component, then the simple
    roots from alpha_n down to alpha_1.  A factor comes at its first
    node in that order, and its frame starts at its first end: a B (B2
    included) runs from long to short and a C from short to long; a D
    runs along its chain to the fork and then to its two prongs, and a D4
    takes its first tip as the chain.
    """
    roots, comps = node_roots(series, rank)
    if not all(0 <= i < len(roots) for i in j) or any(c <= j for c in comps):
        raise ABCError(f"J={sorted(j)} is not a face type of {series}{rank}")
    vec = {i: dict(roots[i]) for i in j}

    def dot(a, b):
        return sum(x * vec[b].get(c, 0) for c, x in vec[a].items())

    affine = {min(c) for c in comps}
    order = sorted(j, key=lambda i: (0, i) if i in affine else (1, -i))
    linked = {a: [b for b in order if b != a and dot(a, b)] for a in order}
    out, seen = [], set()
    for first in order:
        if first not in seen:
            comp, stack = set(), [first]
            while stack:
                a = stack.pop()
                if a not in comp:
                    comp.add(a)
                    stack.extend(linked[a])
            seen |= comp
            out.append(_factor([a for a in order if a in comp], linked,
                               {a: dot(a, a) for a in comp}))
    return tuple(out)


def _factor(comp, linked, length):
    """(kind, series, rank, nodes in frame order) of one connected factor,
    comp its nodes in face_factors' order and length their squared
    lengths."""
    k = len(comp)
    ends = [a for a in comp if len(linked[a]) <= 1]

    def chain(start, nodes):
        path = [start]
        while len(path) < len(nodes):
            path.append(next(b for b in linked[path[-1]] if b in nodes and b not in path))
        return path

    long = max(length.values())
    if min(length.values()) < long:  # doubly laced
        path = chain(ends[0], comp)
        # B has one short root and C one long root, B2 = C2 taken as B
        series = "B" if sum(v == long for v in length.values()) == k - 1 else "C"
        if (length[path[0]] == long) != (series == "B"):  # B long first, C long last
            path.reverse()
        return ("BC", series, k, tuple(path))
    forks = [a for a in comp if len(linked[a]) == 3]
    if not forks:
        return ("A", "A", k, tuple(chain(ends[0], comp)))
    fork = forks[0]
    prongs = [a for a in linked[fork] if len(linked[a]) == 1][-2:]
    rest = [a for a in comp if a != fork and a not in prongs]
    start = next(a for a in rest if len(linked[a]) == 1)
    return ("D", "D", k, tuple(chain(start, rest) + [fork] + prongs))


@lru_cache(maxsize=None)
def block_key(ct: CartanType, j: frozenset, factor_orbits) -> tuple:
    """J with an orbit on each factor of its pseudo-Levi (in face_factors'
    order), as the partition path (_classical.key) keys it for types A-D:
    the sorted ((kind, m), partition) of J's coordinate blocks, and the
    mark of a very even saturation.

    An A block takes its factor's partition, a free coordinate (1,).  A
    B, C or D block reads the factors' weighted diagrams as the values of
    the dominant neutral element h at its nodes and looks them up among
    the block's orbits (_classical.block_orbits, the inverse of
    orbits.node_values), with no solve, so no factor's frame enters: B1
    and C1 come from an A1 factor, C2 from one normalized to B2, D2 from
    two A1s, D3 from an A3, and a D4 block from a factor whose frame
    differs from the coordinates by triality.  A very even D block orbit
    is flipped when its values are node_values' with the last eigenvalue
    negated, which the mark reads.
    """
    from . import _classical as cl
    value, orbit_on = {}, {}
    for (*_, nodes), o in zip(face_factors(ct.series, ct.rank, j), factor_orbits):
        value.update(zip(nodes, weighted_dynkin(o).values))
        orbit_on[frozenset(nodes)] = o
    face = cl.blocks(ct.series, ct.rank, j)
    parts, flips = [], []
    for kind, m, nodes in face:
        flip = False
        if kind != "A":
            nodes = tuple(sorted(nodes))
            values = tuple(value[i] for i in nodes)
            p = cl.block_orbits(ct.series, ct.rank, kind, m, nodes).get(values)
            if p is None:
                raise ABCError(f"no orbit of a {kind}{m} block has node values {values}")
            flip = kind == "D" and node_values(ct.series, ct.rank, nodes, p, True) == values
        elif nodes:
            orbit = orbit_on.get(nodes)
            if orbit is None or orbit.system.series != "A":
                raise ABCError(f"block A{m - 1} of J={sorted(j)} is not a factor")
            p = orbit.partition
        else:
            p = (1,)
        parts.append(p)
        flips.append(flip)
    return cl.key(ct.series, ct.rank, face, parts, flips)
