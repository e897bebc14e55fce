"""The unramified table from coordinate blocks: the affine Bala-Carter
pairs, their classes and their invariants of a group of type A, B or C, or
of type D at odd rank, in either isogeny, with no root system.

Pairs.  A face J (_classical.faces) splits into coordinate blocks
(_classical.blocks), and a pair puts a distinguished orbit on each
(_classical.distinguished).  J' is read off the orbit's neutral element
h: none of an A block's nodes (its orbit is regular); on a B, C or D
block, the orbit's eigenvalues x_c >= 0 go on the block's coordinates
and are moved into the chamber where every node root is >= 0 by
reflections in the node roots, and J' holds the nodes where the root's
value at h is 0 (each value is then 0 or 2).  These are balacarter's
pairs: its 0/2 diagram on a factor is the dominant h of the factor's
orbit.

Classes.  Two pairs are equivalent (balacarter.equivalent) exactly when
their class keys agree.  The adjoint key is the pair's block key, the
sorted (kind, m, partition) of its blocks (_classical.face_pairs).  The
adjoint classes are the simply connected ones up to Omega = P^vee/Q^vee,
so a simply connected key adds what Omega moves and no translation in
the face's stabilizer absorbs:
  - A_n: t mod g, g the gcd of the block sizes (a free coordinate is a
    block of size 1), t = 0 when node 0 is not in J, else 1 + the number
    of nodes n, n-1, ... in J before the first one missing;
  - B_n: whether node 0 is in J, when J holds exactly one of nodes 0 and
    1 and every A block has even size;
  - C_n: per block, whether it holds node 0 and whether node n;
  - D_n, n odd: per D block, whether it holds both nodes 0 and 1 and
    whether both nodes n-1 and n; and, when J holds exactly one node of
    exactly one of the forks {0, 1} and {n-1, n} and every A block has
    even size, which one.
At even rank a type-D block key is too coarse (very even marks) and
partitions leave some invariants open, so those tables keep balacarter's
classes.  Tier-1 compares the pairs with balacarter.enumerate_pairs and
the keys' partition with balacarter.classes on every system up to rank
5, and the slow tier at ranks 6-8.

Invariants.  A pair's invariant is _classical.invariant of its block
key; a table where partitions leave one open is not built here.

duality imports this module on first use, for the systems above only,
and cli reaches it through duality; it is not one of the package's
lazily loaded submodules (orbitcalc/__init__.py).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import gcd

from . import _classical as cl
from . import cartantype
from .duality import ABCPair, UnramifiedClassInvariant
from .orbits import h_vector


def _zero_nodes(kind: str, m: int, nodes, roots, p) -> frozenset:
    """The nodes of a B, C or D block on which the dominant h of its
    orbit p vanishes; roots are _classical.node_roots'."""
    rs = [roots[i] for i in sorted(nodes)]
    coords = sorted({c for r in rs for c, _ in r})
    x = dict(zip(coords, h_vector(p)[:m]))
    moved = True
    while moved:  # reflect in a node root negative at x until none is
        moved = False
        for r in rs:
            v = sum(a * x[c] for c, a in r)
            if v < 0:
                k = 2 * v // sum(a * a for _, a in r)
                for c, a in r:
                    x[c] -= k * a
                moved = True
    zeros = set()
    for i, r in zip(sorted(nodes), rs):
        v = sum(a * x[c] for c, a in r)
        if v not in (0, 2):
            raise cartantype.ABCError(f"orbit {p} of a {kind}{m} block is not distinguished")
        if not v:
            zeros.add(i)
    return frozenset(zeros)


def _class_key(ct, j, blocks, parts, key) -> tuple:
    """The class key of the pair that puts the partitions `parts` on J's
    blocks, whose block key is `key`."""
    n = ct.rank
    if ct.isogeny == "adjoint":
        return key
    if ct.series == "A":
        t = 0
        if 0 in j:
            t = 1
            while n + 1 - t in j:
                t += 1
        return key + (t % gcd(*(m for _, m, _ in blocks)),)
    if ct.series == "C":
        return tuple(sorted((kind, m, p, 0 in nodes, n in nodes)
                            for (kind, m, nodes), p in zip(blocks, parts)))
    even = all(m % 2 == 0 for kind, m, _ in blocks if kind == "A")
    if ct.series == "B":
        return key + ((0 in j,) if (0 in j) != (1 in j) and even else ())
    ends = tuple(sorted((m, p, {0, 1} <= nodes, {n - 1, n} <= nodes)
                        for (kind, m, nodes), p in zip(blocks, parts) if kind == "D"))
    half = [a for a, b in ((0, 1), (n - 1, n)) if (a in j) != (b in j)]
    return key + ends + (((half[0], half[0] in j),) if len(half) == 1 and even else ())


def pairs(ct):
    """Each pair of ct, with its block key and its class key."""
    roots, _ = cl.node_roots(ct.series, ct.rank)
    for j in cl.faces(ct.series, ct.rank):
        blocks = cl.blocks(ct.series, ct.rank, j)
        choices = []
        for kind, m, nodes in blocks:
            if kind == "A":
                choices.append([((m,), frozenset())])
            else:
                choices.append([(p, _zero_nodes(kind, m, nodes, roots, p))
                                for p in cl.distinguished(kind, m)])
        for choice in product(*choices):
            parts = [p for p, _ in choice]
            key = tuple(sorted(((kind, m), p) for (kind, m, _), p in zip(blocks, parts)))
            yield (ABCPair(j, frozenset().union(*(z for _, z in choice))), key,
                   _class_key(ct, j, blocks, parts, key))


@lru_cache(maxsize=None)
def table(ct):
    """(rows, pairs, classes) of the unramified table of ct, rows as
    duality.enumerate_nobc gives them; None when partitions leave some
    pair's invariant open."""
    cartantype._check_abc_rank(ct)
    invariants, rows, npairs = {}, {}, 0  # rows: invariant -> (class keys, least pair)
    for pair, key, cls in pairs(ct):
        inv = invariants.get(key)
        if inv is None:
            found = cl.invariant(ct, key)
            if found is None:
                return None
            inv = invariants[key] = UnramifiedClassInvariant(*found)
        npairs += 1
        keys, least = rows.setdefault(inv, (set(), pair))
        keys.add(cls)
        if pair.sort_key() < least.sort_key():
            rows[inv] = keys, pair
    out = sorted(((inv, len(keys), rep) for inv, (keys, rep) in rows.items()),
                 key=lambda row: row[2].sort_key())
    return tuple(out), npairs, sum(len(keys) for keys, _ in rows.values())
