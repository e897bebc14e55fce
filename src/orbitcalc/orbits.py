"""Nilpotent orbits: enumeration, closure order, weighted Dynkin diagrams,
Lusztig-Spaltenstein and Barbasch-Vogan duality, the Springer label of
(orbit, trivial local system); and the cover-relation and maxima helpers
that every finite order of the package uses.

Classical orbits are partitions with the usual parity rules; G2 orbits are
the five labels 0 < A1 < A1~ < G2(a1) < G2, kept in one literal table whose
entries the test suite re-derives from independent oracles.

The Springer labels are read off the orbit's symbol, so that the
character layer (weylrep) and the partition path of arthur-wf
(_classical) share one copy; the partition path and the label layer
(_labels) share one read-only inverse (_springer_image).  No function
reads a root system: the neutral element h of an orbit is evaluated at
node roots in coordinates (node_values on node_roots), which gives the
weighted Dynkin diagram here, J' and the block keys in the partition
path; the dimension is read off the partition.

Type D very even orbits (all parts even) come in I/II pairs.  The mark is
tied to the weighted Dynkin diagram: mark I is the diagram whose value at
the fork node alpha_{n-1} is >= the value at alpha_n.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from types import MappingProxyType

from . import partitions as pt
from .cartantype import CartanType

G2_LABELS = ("0", "A1", "A1~", "G2(a1)", "G2")

# label -> (weights on (alpha_1, alpha_2) with alpha_1 long, dimension,
#           d_LS image, special?)
G2_TABLE = {
    "0":      {"wdd": (0, 0), "dim": 0,  "dual": "G2",     "special": True},
    "A1":     {"wdd": (1, 0), "dim": 6,  "dual": "G2(a1)", "special": False},
    "A1~":    {"wdd": (0, 1), "dim": 8,  "dual": "G2(a1)", "special": False},
    "G2(a1)": {"wdd": (2, 0), "dim": 10, "dual": "G2(a1)", "special": True},
    "G2":     {"wdd": (2, 2), "dim": 12, "dual": "0",      "special": True},
}


class OrbitError(ValueError):
    pass


class NilpotentOrbit(namedtuple("NilpotentOrbit", "system partition g2_label mark")):
    __slots__ = ()  # mark: 'I' or 'II', type D very even only

    def __new__(cls, system, partition=None, g2_label=None, mark=None):
        if system.series == "G":
            if g2_label not in G2_LABELS:
                raise OrbitError(f"bad G2 label {g2_label!r}")
            if partition is not None or mark is not None:
                raise OrbitError("G2 orbits carry a label only")
        elif partition is None:
            raise OrbitError("classical orbit needs a partition")
        else:
            p = partition = pt.normalize(partition)
            if not pt.valid(p, system.series, system.rank):
                raise OrbitError(f"{p} is not a valid {system.series}{system.rank} partition")
            ve = system.series == "D" and all(x % 2 == 0 for x in p)
            if ve and mark not in ("I", "II"):
                raise OrbitError(f"very even orbit {p} needs a mark I/II")
            if not ve and mark is not None:
                raise OrbitError(f"orbit {p} must not carry a mark")
        return super().__new__(cls, system, partition, g2_label, mark)

    @classmethod
    def _make(cls, iterable):  # validated, as CartanType._make
        return cls(*iterable)

    @property
    def very_even(self) -> bool:
        return self.mark is not None

    def label(self) -> str:
        if self.system.series == "G":
            return self.g2_label
        s = pt.format_partition(self.partition)
        return f"{s}-{self.mark}" if self.mark else s

    def __str__(self):
        return f"{self.system}:{self.label()}"

    def to_json(self):
        rec = {"series": self.system.series, "rank": self.system.rank}
        if self.system.series == "G":
            rec["g2_label"] = self.g2_label
        else:
            rec["partition"] = list(self.partition)
            if self.mark:
                rec["mark"] = self.mark
        return rec


class WeightedDynkinDiagram(namedtuple("WeightedDynkinDiagram", "system values")):
    __slots__ = ()  # values: the value at alpha_1..alpha_n

    def __new__(cls, system, values):
        if not all(v in (0, 1, 2) for v in values):
            raise OrbitError(f"weights must be 0/1/2, got {values}")
        return super().__new__(cls, system, values)

    @classmethod
    def _make(cls, iterable):  # validated, as CartanType._make
        return cls(*iterable)

    def to_json(self):
        return {f"a{i+1}": v for i, v in enumerate(self.values)}


# ---------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------

@lru_cache(maxsize=None)
def enumerate_orbits(ct: CartanType) -> tuple:
    if ct.series == "G":
        return tuple(NilpotentOrbit(ct, g2_label=l) for l in G2_LABELS)
    out = []
    for p in pt.valid_partitions(ct.series, ct.rank):
        if ct.series == "D" and all(x % 2 == 0 for x in p):
            out.append(NilpotentOrbit(ct, partition=p, mark="I"))
            out.append(NilpotentOrbit(ct, partition=p, mark="II"))
        else:
            out.append(NilpotentOrbit(ct, partition=p))
    return tuple(out)


def zero_orbit(ct: CartanType) -> NilpotentOrbit:
    if ct.series == "G":
        return NilpotentOrbit(ct, g2_label="0")
    n = pt.family_size(ct.series, ct.rank)
    p = (1,) * n
    # 1^{2n} in type D is never very even
    return NilpotentOrbit(ct, partition=p)


def regular_orbit(ct: CartanType) -> NilpotentOrbit:
    if ct.series == "G":
        return NilpotentOrbit(ct, g2_label="G2")
    s, n = ct.series, ct.rank
    if s == "A":
        p = (n + 1,)
    elif s == "B":
        p = (2 * n + 1,)
    elif s == "C":
        p = (2 * n,)
    else:
        p = (2 * n - 1, 1) if n >= 2 else (1,)
    return NilpotentOrbit(ct, partition=p)


# ---------------------------------------------------------------------
# closure order
# ---------------------------------------------------------------------

def closure_leq(o1: NilpotentOrbit, o2: NilpotentOrbit) -> bool:
    """Closure order: dominance of the partitions, the two marks of a very
    even partition incomparable; G2's chain.  NilpotentOrbit keeps the
    partitions normalized, and a system's have one total, so their prefix
    sums are compared as they stand (partitions.dominance_leq checks
    both, and is the oracle).  The shorter length is enough: if o1's
    partition is the shorter, its sum reaches the total at its last part,
    where o2's does not yet; if o2's is, its sum is the total from then
    on."""
    if o1.system != o2.system:
        raise OrbitError(f"cannot compare orbits across {o1.system} and {o2.system}")
    if o1.system.series == "G":
        return G2_LABELS.index(o1.g2_label) <= G2_LABELS.index(o2.g2_label)
    if o1.partition == o2.partition and (o1.mark or o2.mark):
        return o1.mark == o2.mark
    s1 = s2 = 0
    for a, b in zip(o1.partition, o2.partition):
        s1 += a
        s2 += b
        if s1 > s2:
            return False
    return True


# ---------------------------------------------------------------------
# weighted Dynkin diagrams
# ---------------------------------------------------------------------

def h_vector(p) -> tuple:
    """Concatenated strings {p_i-1, p_i-3, ..., 1-p_i}, sorted descending."""
    vals = []
    for part in p:
        vals.extend(range(part - 1, -part - 1, -2))
    return tuple(sorted(vals, reverse=True))


def node_roots(series: str, rank: int):
    """The affine nodes' roots in the coordinates e_0, e_1, ..., each a
    tuple of (coordinate, coefficient) pairs, and the node components;
    nodes numbered as RootSystem.affine_simples lists them, component by
    component with the affine node first."""
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


@lru_cache(maxsize=None)
def node_values(series: str, rank: int, nodes: tuple, p, flip=False) -> tuple:
    """The values at the roots of the given nodes (node_roots) of the
    neutral element h of the orbit p, taken dominant for those roots: the
    eigenvalues of p (h_vector), largest first, go on the coordinates the
    roots touch, in order, the last one negated if flip (the other mark of
    a very even D orbit), and are moved by reflections in the node roots
    until no root is negative.  The nodes are the finite simple ones or
    those of a B, C or D block: the Weyl group of an A block through a
    signed coordinate, such as the chain -(e_0 + e_1), e_1 - e_2, does
    not carry the placed eigenvalues to the orbit's h."""
    roots = [node_roots(series, rank)[0][i] for i in nodes]
    coords = sorted({c for r in roots for c, _ in r})
    x = dict(zip(coords, h_vector(p)))
    if flip:
        x[coords[-1]] *= -1
    moved = True
    while moved:
        moved = False
        for r in roots:
            v = sum(a * x[c] for c, a in r)
            if v < 0:
                k = 2 * v // sum(a * a for _, a in r)
                for c, a in r:
                    x[c] -= k * a
                moved = True
    return tuple(sum(a * x[c] for c, a in r) for r in roots)


def weighted_dynkin(orbit: NilpotentOrbit) -> WeightedDynkinDiagram:
    """h at the finite simple roots (node_values; mark I flips)."""
    ct = orbit.system
    if ct.series == "G":
        return WeightedDynkinDiagram(ct, G2_TABLE[orbit.g2_label]["wdd"])
    _, comps = node_roots(ct.series, ct.rank)
    simple = tuple(i for c in comps for i in sorted(c)[1:])
    return WeightedDynkinDiagram(ct, node_values(ct.series, ct.rank, simple,
                                                 orbit.partition, orbit.mark == "I"))


@lru_cache(maxsize=None)
def _wdd_table(ct: CartanType):
    return {weighted_dynkin(o).values: o for o in enumerate_orbits(ct)}


@lru_cache(maxsize=None)
def _springer_image(ct: CartanType):
    """springer_rep_label's inverse on the orbits of ct, read-only: the
    partition path (_classical) and the label layer (_labels) read it."""
    return MappingProxyType({springer_rep_label(o): o for o in enumerate_orbits(ct)})


def orbit_from_wdd(wdd: WeightedDynkinDiagram) -> NilpotentOrbit:
    table = _wdd_table(wdd.system)
    try:
        return table[wdd.values]
    except KeyError:
        raise OrbitError(f"no orbit with weighted diagram {wdd.values} in {wdd.system}")


def orbit_dimension(orbit: NilpotentOrbit) -> int:
    """dim O from its partition p of N (Collingwood-McGovern, Nilpotent
    Orbits in Semisimple Lie Algebras, 1993, Cor. 6.1.4), with s the sum
    of the squares of the parts of p's transpose and k the number of odd
    parts of p: N^2 - s in type A, (N(N-1) - s + k) / 2 in B and D, and
    (N(N+1) - s - k) / 2 in C."""
    ct = orbit.system
    if ct.series == "G":
        return G2_TABLE[orbit.g2_label]["dim"]
    p = orbit.partition
    n, s = sum(p), sum(x * x for x in pt.transpose(p))
    if ct.series == "A":
        return n * n - s
    sign = -1 if ct.series == "C" else 1
    return (n * (n - sign) - s + sign * sum(x % 2 for x in p)) // 2


# ---------------------------------------------------------------------
# dualities
# ---------------------------------------------------------------------

def _mark_of_dual(ct: CartanType, in_mark, out_p):
    """Mark convention for a very even output of a type-D duality."""
    if not (ct.series == "D" and all(x % 2 == 0 for x in out_p)):
        return None
    if in_mark is None:
        return "I"
    if ct.rank % 4 == 0:
        return in_mark
    return "II" if in_mark == "I" else "I"


def dual_ls(orbit: NilpotentOrbit) -> NilpotentOrbit:
    """Lusztig-Spaltenstein dual: transpose then same-family collapse."""
    ct = orbit.system
    if ct.series == "G":
        return NilpotentOrbit(ct, g2_label=G2_TABLE[orbit.g2_label]["dual"])
    q = pt.collapse(pt.transpose(orbit.partition), ct.series, ct.rank)
    return NilpotentOrbit(ct, partition=q, mark=_mark_of_dual(ct, orbit.mark, q))


def dual_bv(orbit: NilpotentOrbit) -> NilpotentOrbit:
    """Barbasch-Vogan dual: from an orbit of the *dual* system into ours.

    The argument lives in G^vee; the result lives in G (B <-> C swap).
    """
    src = orbit.system
    tgt = src.dual
    if src.series == "G":
        return NilpotentOrbit(tgt, g2_label=G2_TABLE[orbit.g2_label]["dual"])
    if src.series in ("A", "D"):
        q = pt.collapse(pt.transpose(orbit.partition), tgt.series, tgt.rank)
        return NilpotentOrbit(tgt, partition=q,
                              mark=_mark_of_dual(tgt, orbit.mark, q))
    t = list(pt.transpose(orbit.partition))
    if src.series == "B":  # partitions of 2n+1 -> 2n: drop a box from the tail
        t[-1] -= 1
    else:  # C: partitions of 2n -> 2n+1: grow the head
        t[0] += 1
    q = pt.collapse(pt.normalize(t), tgt.series, tgt.rank)
    return NilpotentOrbit(tgt, partition=q)


def is_special(orbit: NilpotentOrbit) -> bool:
    """O is special iff d_LS is an involution at O."""
    if orbit.system.series == "G":
        return G2_TABLE[orbit.g2_label]["special"]
    return dual_ls(dual_ls(orbit)) == orbit


# ---------------------------------------------------------------------
# Springer labels
# ---------------------------------------------------------------------

G2_SPRINGER = {"G2": "phi(1,0)", "G2(a1)": "phi(2,1)", "A1~": "phi(2,2)",
               "A1": "phi(1,3)s", "0": "phi(1,6)"}


def _unshift(row):
    row = sorted(row)
    parts = [v - i for i, v in enumerate(row)]
    if any(x < 0 for x in parts):
        raise OrbitError(f"{row} is not a symbol row")
    return pt.normalize(parts)


def springer_rep_label(orbit: NilpotentOrbit):
    """The label of the Weyl group character that the Springer
    correspondence attaches to (orbit, trivial local system): a partition
    (A), a bipartition (lam, mu) (B, C), ((lam, mu), sign) with sign 0
    unless lam = mu (D), or a G2 name; in the labels of chartab."""
    ct = orbit.system
    s = ct.series
    if s == "G":
        return G2_SPRINGER[orbit.g2_label]
    if s == "A":
        return orbit.partition
    p = sorted(orbit.partition)
    if s in ("B", "C"):
        want = len(p) if len(p) % 2 == 1 else len(p) + 1
    else:
        want = len(p) if len(p) % 2 == 0 else len(p) + 1
    p = [0] * (want - len(p)) + p
    star = [v + i for i, v in enumerate(p)]
    odds = [(v - 1) // 2 for v in star if v % 2 == 1]
    evens = [v // 2 for v in star if v % 2 == 0]
    if s == "B":
        if len(odds) != len(evens) + 1:
            raise OrbitError(f"bad type-B symbol for {orbit}")
        return (_unshift(odds), _unshift(evens))
    if s == "C":
        if len(evens) != len(odds) + 1:
            raise OrbitError(f"bad type-C symbol for {orbit}")
        return (_unshift(evens), _unshift(odds))
    # D.  A very even orbit is even, so it is Richardson for its
    # Jacobson-Morozov parabolic, and its Springer character is
    # j_{W_L}^W(sgn), L the nodes where its weighted diagram is 0
    # (Lusztig-Spaltenstein, Induced unipotent classes, J. London Math.
    # Soc. 1979).  That puts the '+' character (positive block-cycle split
    # classes) with mark II when rank % 4 == 0, with mark I when rank % 4 == 2
    if len(odds) != len(evens):
        raise OrbitError(f"bad type-D symbol for {orbit}")
    pair = tuple(sorted((_unshift(odds), _unshift(evens))))
    sign = 0
    if pair[0] == pair[1]:
        sign = (-1 if orbit.mark == "I" else 1) * (-1 if ct.rank % 4 == 2 else 1)
    return (pair, sign)


def hasse_edges(ct: CartanType):
    """Cover relations of the closure order, as (lower, upper) pairs."""
    return covers(enumerate_orbits(ct), closure_leq)


# ---------------------------------------------------------------------
# finite posets
# ---------------------------------------------------------------------

def covers(items, leq):
    """Cover relations (a, b) of the partial order leq on items, in the
    order of the items: a < b with nothing strictly between.  leq runs
    once per ordered pair: b covers a when it is above a but above no c
    that is above a.  The up-sets are unioned as int bitsets: as Python
    sets the unions took 0.73 s of B12's 1.8 s (420 orbits), and 0.03 s
    as bitsets."""
    up = {a: [b for b in items if b != a and leq(a, b)] for a in items}
    bit = {a: 1 << i for i, a in enumerate(up)}
    above = {a: sum(bit[b] for b in set(bs)) for a, bs in up.items()}
    edges = []
    for a in items:
        between = 0
        for c in up[a]:
            between |= above[c]
        edges.extend((a, b) for b in up[a] if not between & bit[b])
    return tuple(edges)


def maxima(items, leq):
    """The leq-maximal items, without repeats, in the order of the items.
    Repeats are dropped first, so leq runs once per ordered pair of
    distinct items."""
    distinct = list(dict.fromkeys(items))
    return [a for a in distinct if not any(b != a and leq(a, b) for b in distinct)]
