"""Nilpotent orbits: enumeration, closure order, weighted Dynkin diagrams,
Lusztig-Spaltenstein and Barbasch-Vogan duality, the Springer label of
(orbit, trivial local system); and the cover-relation and maxima helpers
that every finite order of the package uses.

Classical orbits are partitions with the usual parity rules; G2 orbits are
the five labels 0 < A1 < A1~ < G2(a1) < G2, kept in one literal table whose
entries the test suite re-derives from independent oracles.

The Springer labels are read off the orbit's symbol, so that the
character layer (weylrep) and the partition path of arthur-wf
(_classical) share one copy.  Only orbit_dimension reads a root system.

Type D very even orbits (all parts even) come in I/II pairs.  The mark is
tied to the weighted Dynkin diagram: mark I is the diagram whose value at
the fork node alpha_{n-1} is >= the value at alpha_n.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from . import partitions as pt
from . import rootdata  # runs on first use (see __init__)
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
    if o1.system != o2.system:
        raise OrbitError(f"cannot compare orbits across {o1.system} and {o2.system}")
    if o1.system.series == "G":
        return G2_LABELS.index(o1.g2_label) <= G2_LABELS.index(o2.g2_label)
    if o1.partition == o2.partition and (o1.mark or o2.mark):
        return o1.mark == o2.mark
    return pt.dominance_leq(o1.partition, o2.partition)


# ---------------------------------------------------------------------
# weighted Dynkin diagrams
# ---------------------------------------------------------------------

def h_vector(p) -> tuple:
    """Concatenated strings {p_i-1, p_i-3, ..., 1-p_i}, sorted descending."""
    vals = []
    for part in p:
        vals.extend(range(part - 1, -part - 1, -2))
    return tuple(sorted(vals, reverse=True))


def _wdd_values(ct: CartanType, orbit: NilpotentOrbit):
    s, n = ct.series, ct.rank
    p = orbit.partition
    hv = h_vector(p)
    if s == "A":
        return tuple(hv[i] - hv[i + 1] for i in range(n))
    top = list(hv[:n])
    if s == "D" and orbit.very_even and orbit.mark == "I":
        top[-1] = -top[-1]
    if s == "B":
        return tuple(top[i] - top[i + 1] for i in range(n - 1)) + (top[-1],)
    if s == "C":
        return tuple(top[i] - top[i + 1] for i in range(n - 1)) + (2 * top[-1],)
    # D (rank >= 2)
    vals = tuple(top[i] - top[i + 1] for i in range(n - 1))
    return vals[:-1] + (top[n - 2] - top[n - 1], top[n - 2] + top[n - 1])


def weighted_dynkin(orbit: NilpotentOrbit) -> WeightedDynkinDiagram:
    ct = orbit.system
    if ct.series == "G":
        return WeightedDynkinDiagram(ct, G2_TABLE[orbit.g2_label]["wdd"])
    return WeightedDynkinDiagram(ct, _wdd_values(ct, orbit))


@lru_cache(maxsize=None)
def _wdd_table(ct: CartanType):
    return {weighted_dynkin(o).values: o for o in enumerate_orbits(ct)}


def orbit_from_wdd(wdd: WeightedDynkinDiagram) -> NilpotentOrbit:
    table = _wdd_table(wdd.system)
    try:
        return table[wdd.values]
    except KeyError:
        raise OrbitError(f"no orbit with weighted diagram {wdd.values} in {wdd.system}")


def orbit_dimension(orbit: NilpotentOrbit) -> int:
    """dim O = |Phi| - #{alpha : alpha(h)=0} - #{alpha : alpha(h)=1}."""
    ct = orbit.system
    if ct.series == "G":
        return G2_TABLE[orbit.g2_label]["dim"]
    rs = rootdata.build_root_system(ct)
    h = weighted_dynkin(orbit).values
    n0 = n1 = 0
    for beta in rs.roots:
        v = sum(c * x for c, x in zip(beta, h))
        if v == 0:
            n0 += 1
        elif v == 1:
            n1 += 1
    return len(rs.roots) - n0 - n1


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
    # D; the sign/mark alignment is pinned by the Bala-Carter rows: the
    # '+' character (positive block-cycle split classes) pairs with mark II
    if len(odds) != len(evens):
        raise OrbitError(f"bad type-D symbol for {orbit}")
    pair = tuple(sorted((_unshift(odds), _unshift(evens))))
    sign = 0
    if pair[0] == pair[1]:
        sign = -1 if orbit.mark == "I" else 1
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
    that is above a."""
    up = {a: [b for b in items if b != a and leq(a, b)] for a in items}
    edges = []
    for a in items:
        between = set().union(*(up[c] for c in up[a]))
        edges.extend((a, b) for b in up[a] if b not in between)
    return tuple(edges)


def maxima(items, leq):
    """The leq-maximal items, without repeats, in the order of the items.
    Repeats are dropped first, so leq runs once per ordered pair of
    distinct items."""
    distinct = list(dict.fromkeys(items))
    return [a for a in distinct if not any(b != a and leq(a, b) for b in distinct)]
