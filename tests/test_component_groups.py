"""The unramified classes over an orbit O are counted by A_G(O).

The classes whose saturation is O are the forms of O over the maximal
unramified extension, counted by the conjugacy classes of the component
group A_G(O) of the given isogeny.  This module reads only the
`unramified` goldens and counts those classes from the partition of O
(Collingwood-McGovern, Nilpotent Orbits in Semisimple Lie Algebras,
1993, 6.1); it imports nothing from orbitcalc, so it shares nothing with
the hull model or the Weyl-group scan that produced the goldens.

The Spin groups (B and D simply connected) are skipped: there A_G(O) can
be non-abelian and its class count is not a partition formula of this
kind (Lusztig, Notes on unipotent classes, 1997).
"""

import glob
import json
import math
import os
from collections import Counter

import pytest

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "cli")
FAMILY_SIZE = {"A": lambda n: n + 1, "B": lambda n: 2 * n + 1,
               "C": lambda n: 2 * n, "D": lambda n: 2 * n}
SPIN = {("B", "simply_connected"), ("D", "simply_connected")}


def partitions(n, maxpart=None):
    maxpart = n if maxpart is None else maxpart
    if n == 0:
        yield ()
        return
    for first in range(min(n, maxpart), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def orbits(series, rank):
    """Orbit keys (partition, mark): in B and D even parts, in C odd parts,
    come in pairs; a very even type-D partition carries two orbits."""
    if series == "G":
        return [(label, None) for label in ("0", "A1", "A1~", "G2(a1)", "G2")]
    bad = {"A": None, "B": 0, "C": 1, "D": 0}[series]
    out = []
    for p in partitions(FAMILY_SIZE[series](rank)):
        if bad is not None and any(p.count(x) % 2 for x in set(p) if x % 2 == bad):
            continue
        if series == "D" and all(x % 2 == 0 for x in p):
            out += [(p, "I"), (p, "II")]
        else:
            out.append((p, None))
    return out


def component_classes(series, isogeny, key):
    """Number of conjugacy classes of A_G(O) for the orbit key."""
    p, mark = key
    if series == "G":
        return 3 if p == "G2(a1)" else 1  # A(G2(a1)) = S3
    mult = Counter(p)
    odd = [x for x in mult if x % 2]
    even = [x for x in mult if x % 2 == 0]
    if series == "A":
        return 1 if isogeny == "adjoint" else math.gcd(*p)
    if series == "B":
        return 2 ** max(0, len(odd) - 1)
    if series == "C":
        n = 2 ** len(even)
        if isogeny == "adjoint" and any(mult[x] % 2 for x in even):
            n //= 2
        return n
    if mark is not None:
        return 1  # very even
    n = 2 ** (len(odd) - 1)
    if any(mult[x] % 2 for x in odd):
        n //= 2
    return n


def _goldens():
    out = []
    for path in sorted(glob.glob(os.path.join(GOLDEN, "unramified-*.json"))):
        with open(path) as fh:
            table = json.load(fh)
        if (table["series"], table["isogeny"]) not in SPIN:
            out.append(pytest.param(table, id=os.path.basename(path)[11:-5]))
    return out


def _orbit_key(orbit):
    if orbit["series"] == "G":
        return (orbit["g2_label"], None)
    return (tuple(orbit["partition"]), orbit.get("mark"))


@pytest.mark.parametrize("table", _goldens())
def test_members_over_an_orbit_count_component_group_classes(table):
    series, rank, isogeny = table["series"], table["rank"], table["isogeny"]
    members = Counter()
    for row in table["rows"]:
        members[_orbit_key(row["orbit"])] += row["members"]
    keys = orbits(series, rank)
    assert set(members) <= set(keys)
    for key in keys:
        assert members[key] == component_classes(series, isogeny, key), key
    assert sum(members.values()) == table["classes"]


def test_goldens_cover_every_checked_table():
    """A-D at ranks 2-5 and G2 in both isogenies, less the Spin groups."""
    assert len(_goldens()) == 4 * 4 * 2 + 2 - 2 * 4
