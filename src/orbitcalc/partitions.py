"""Partition combinatorics for classical nilpotent orbits.

Partitions are weakly decreasing tuples of positive ints.  Families carry
the size conventions of the classical series: A(n) partitions n+1,
B(n) partitions 2n+1, C(n) and D(n) partition 2n.
"""

from functools import lru_cache


class PartitionError(ValueError):
    pass


def normalize(parts) -> tuple[int, ...]:
    """Sorted tuple form with zeros stripped; rejects non-partitions."""
    p = tuple(sorted((int(x) for x in parts), reverse=True))
    while p and p[-1] == 0:
        p = p[:-1]
    if any(x < 0 for x in p):
        raise PartitionError(f"negative part in {parts!r}")
    return p


def family_size(series: str, rank: int) -> int:
    return {"A": rank + 1, "B": 2 * rank + 1, "C": 2 * rank, "D": 2 * rank}[series]


def transpose(p) -> tuple[int, ...]:
    p = normalize(p)
    if not p:
        return ()
    return tuple(sum(1 for x in p if x >= i) for i in range(1, p[0] + 1))


def n_stat(p) -> int:
    """n(p) = sum (i - 1) p_i, the b-invariant of the character p of S_|p|."""
    return sum(i * x for i, x in enumerate(p))


def valid(p, series: str, rank: int) -> bool:
    """Parity rule of the family: B/D need even parts with even multiplicity,
    C needs odd parts with even multiplicity, A anything."""
    p = normalize(p)
    if sum(p) != family_size(series, rank):
        raise PartitionError(
            f"partition {p} has total {sum(p)}, expected {family_size(series, rank)}"
            f" for {series}{rank}")
    return _parity_ok(p, series)


def _parity_ok(p, series: str) -> bool:
    if series == "A":
        return True
    bad = 0 if series in ("B", "D") else 1
    for x in set(p):
        if x % 2 == bad and p.count(x) % 2 == 1:
            return False
    return True


def dominance_leq(p, q) -> bool:
    p, q = normalize(p), normalize(q)
    if sum(p) != sum(q):
        raise PartitionError("dominance needs equal totals")
    sp = sq = 0
    for i in range(max(len(p), len(q))):
        sp += p[i] if i < len(p) else 0
        sq += q[i] if i < len(q) else 0
        if sp > sq:
            return False
    return True


def collapse(p, series: str, rank: int) -> tuple[int, ...]:
    """Greatest valid partition dominated by p (the X-collapse).

    Greedy repair: take the largest rule-breaking value, lower its last
    occurrence by one, and raise the earliest later slot that stays weakly
    decreasing.  Verified against collapse_oracle in the test suite.
    """
    p = normalize(p)
    if sum(p) != family_size(series, rank):
        raise PartitionError("collapse: size mismatch")
    if series == "A":
        return p
    bad = 0 if series in ("B", "D") else 1
    parts = list(p)
    guard = 0
    while True:
        guard += 1
        if guard > 10000:
            raise PartitionError(f"collapse failed to stabilize on {p}")
        offenders = [v for v in set(parts)
                     if v % 2 == bad and parts.count(v) % 2 == 1]
        if not offenders:
            break
        v = max(offenders)
        j = max(i for i, x in enumerate(parts) if x == v)
        parts[j] -= 1
        k = j + 1
        while k < len(parts) and parts[k] + 1 > parts[k - 1]:
            k += 1
        if k == len(parts):
            parts.append(1)
        else:
            parts[k] += 1
    out = normalize(parts)
    if not _parity_ok(out, series):
        raise PartitionError(f"collapse of {p} gave invalid {out}")
    return out


def partitions_of(n: int):
    """All partitions of n, as tuples, largest-first lexicographic order."""
    return _partitions_of(n, n)


@lru_cache(maxsize=None)
def _partitions_of(n: int, maxpart: int):
    if n == 0:
        return ((),)
    res = []
    for first in range(min(n, maxpart), 0, -1):
        for rest in _partitions_of(n - first, first):
            res.append((first,) + rest)
    return tuple(res)


def valid_partitions(series: str, rank: int):
    total = family_size(series, rank)
    return tuple(p for p in partitions_of(total) if _parity_ok(p, series))


def collapse_oracle(p, series: str, rank: int) -> tuple[int, ...]:
    """Brute-force ground truth: dominance maximum of the valid down-set."""
    p = normalize(p)
    cands = [q for q in valid_partitions(series, rank) if dominance_leq(q, p)]
    best = [q for q in cands if all(dominance_leq(r, q) for r in cands)]
    if len(best) != 1:
        raise PartitionError(f"no unique collapse of {p}: {best}")
    return best[0]


def parse_partition(text: str) -> tuple[int, ...]:
    """Parse the CLI form "a,b,c": every field ASCII digits, with spaces
    allowed around it.  Raises ValueError (not PartitionError) for any
    other text, such as an empty field, a sign or non-ASCII digits."""
    fields = [t.strip(" ") for t in text.split(",")]
    if not all(t.isascii() and t.isdigit() for t in fields):
        raise ValueError(f"{text!r} is not a list of parts such as 2,1")
    return normalize([int(t) for t in fields])


def format_partition(p) -> str:
    return ",".join(str(x) for x in p)
