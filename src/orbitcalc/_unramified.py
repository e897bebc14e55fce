"""The unramified table from coordinate blocks: the affine Bala-Carter
pairs, their classes and their invariants of a group of type A, B, C or
D, in either isogeny, with no root system.

Pairs.  A face J splits into coordinate blocks, and a pair puts a
distinguished orbit on each (_classical.pair_choices).  J' is read off
the orbit's neutral element h: none of an A block's nodes (its orbit is
regular); on a B, C or D block, the nodes where the dominant h vanishes
(orbits.node_values; each value is 0 or 2).  These are the pairs of
Sommers' generalized Bala-Carter theorem (IMRN 1998): the 0/2 diagram
on a factor is the dominant h of the factor's orbit.

Classes.  Two pairs are equivalent under the extended affine Weyl group
exactly when their class keys agree.  The adjoint key is the pair's block key, the
sorted (kind, m, partition) of its blocks, with the mark of a very even
saturation (_classical.key).  The adjoint classes are the
simply connected ones up to Omega = P^vee/Q^vee, so a simply connected
key adds what Omega moves and no translation in the face's stabilizer
absorbs:
  - A_n: t mod g, g the gcd of the block sizes (a free coordinate is a
    block of size 1), t = 0 when node 0 is not in J, else 1 + the number
    of nodes n, n-1, ... in J before the first one missing;
  - B_n: whether node 0 is in J, when J holds exactly one of nodes 0 and
    1 and every A block has even size;
  - C_n: per block, whether it holds node 0 and whether node n;
  - D_n, n >= 3: per D block, whether it holds both nodes 0 and 1 and
    whether both nodes n-1 and n; and, when J holds exactly one node of
    a fork ({0, 1} or {n-1, n}; at odd rank, of exactly one of them) and
    every A block has even size, which node of the first such fork J
    holds;
  - D_2 = SL_2 x SL_2: J itself, each of its 9 pairs its own class.
Tier-1 compares the pairs and the keys' partition with the test
suite's oracle, which lists the pairs off the root system and decides
the equivalence through the faces' diagrams, on every system up to
rank 5, and the slow tier at ranks 6-8.

Invariants.  A pair's invariant is _classical.invariant of its block
key.  A row holds one invariant, the number of classes with it and the
least of their pairs (_rows).

duality imports this module on first use, for types A-D only, and cli
reaches it through duality; it is not one of the package's
lazily loaded submodules (orbitcalc/__init__.py).
"""

from __future__ import annotations

from math import gcd

from . import _classical as cl
from . import cartantype
from .duality import ABCPair, UnramifiedClassInvariant
from .orbits import node_values


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
    if n == 2:
        return tuple(sorted(j))
    ends = tuple(sorted((m, p, {0, 1} <= nodes, {n - 1, n} <= nodes)
                        for (kind, m, nodes), p in zip(blocks, parts) if kind == "D"))
    half = [a for a, b in ((0, 1), (n - 1, n)) if (a in j) != (b in j)]
    fork = half and even and (len(half) == 1 or n % 2 == 0)
    return key + ends + (((half[0], half[0] in j),) if fork else ())


def pairs(ct):
    """Each pair of ct, with its block key and its class key."""
    for j, blocks, parts, key in cl.pair_choices(ct.series, ct.rank):
        zeros = set()
        for (kind, m, nodes), p in zip(blocks, parts):
            if kind != "A":
                nodes = tuple(sorted(nodes))
                values = node_values(ct.series, ct.rank, nodes, p)
                if set(values) - {0, 2}:
                    raise cartantype.ABCError(f"orbit {p} of a {kind}{m} block is not distinguished")
                zeros.update(i for i, v in zip(nodes, values) if not v)
        yield ABCPair(j, frozenset(zeros)), key, _class_key(ct, j, blocks, parts, key)


def _rows(entries) -> tuple:
    """The rows of an unramified table from (invariant, class, pair)
    entries, one per pair or one per class: ((invariant, number of
    classes, least pair), ...), sorted by the least pair.  Private:
    perfbench's tracer wraps public functions."""
    rows = {}  # invariant -> (classes, least pair)
    for inv, cls, pair in entries:
        classes, least = rows.setdefault(inv, (set(), pair))
        classes.add(cls)
        if pair.sort_key() < least.sort_key():
            rows[inv] = classes, pair
    return tuple(sorted(((inv, len(classes), rep) for inv, (classes, rep) in rows.items()),
                        key=lambda row: row[2].sort_key()))


@cartantype._capped_cache
def table(ct):
    """(rows, pairs, classes) of the unramified table of ct, rows as
    duality.enumerate_nobc gives them.  The rank cap is checked before
    the cache."""
    invariants, entries = {}, []  # entries: (invariant, class key, pair) per pair
    for pair, key, cls in pairs(ct):
        inv = invariants.get(key)
        if inv is None:
            inv = invariants[key] = UnramifiedClassInvariant(*cl.invariant(ct, key))
        entries.append((inv, cls, pair))
    rows = _rows(entries)
    return rows, len(entries), sum(count for _, count, _ in rows)
