"""Output checks for the benchmark, computed apart from orbitcalc.

Everything here is re-derived from definitions: orbits are enumerated as
partitions with the parity rules, collapses are found by brute force over
dominance, the closure order is dominance (with the two very even type-D
orbits of one partition incomparable), and the A-order pairs it with the
reversed order on the dual side.  No orbitcalc code is imported.

Each check raises CheckError.  CORRUPTIONS pairs every check with a way to
damage an output that the check must reject; self_test() applies them.
"""

from __future__ import annotations

import copy
import json
import os

G2_LABELS = ("0", "A1", "A1~", "G2(a1)", "G2")  # a chain under closure
G2_BV = {"0": "G2", "A1": "G2(a1)", "A1~": "G2(a1)", "G2(a1)": "G2(a1)",
         "G2": "0"}
DUAL_SERIES = {"A": "A", "B": "C", "C": "B", "D": "D", "G": "G"}
GOLDEN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "tests", "golden", "g2_unramified.json")


class CheckError(AssertionError):
    pass


def require(cond, msg):
    if not cond:
        raise CheckError(msg)


# ---------------------------------------------------------------------
# partitions and orbits
# ---------------------------------------------------------------------

def family_size(series, rank):
    return {"A": rank + 1, "B": 2 * rank + 1, "C": 2 * rank, "D": 2 * rank}[series]


def partitions(n, maxpart=None):
    maxpart = n if maxpart is None else maxpart
    if n == 0:
        yield ()
        return
    for first in range(min(n, maxpart), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def is_valid(series, p):
    """Parity rule: in B and D even parts, in C odd parts, come in pairs."""
    if series == "A":
        return True
    bad = 0 if series in ("B", "D") else 1
    return all(p.count(x) % 2 == 0 for x in set(p) if x % 2 == bad)


def very_even(series, p):
    return series == "D" and all(x % 2 == 0 for x in p)


def orbits(series, rank):
    """Orbit keys: (partition, mark) with mark None, 'I' or 'II'; G2 labels."""
    if series == "G":
        return list(G2_LABELS)
    out = []
    for p in partitions(family_size(series, rank)):
        if is_valid(series, p):
            marks = ("I", "II") if very_even(series, p) else (None,)
            out.extend((p, m) for m in marks)
    return out


def transpose(p):
    return tuple(sum(1 for x in p if x > i) for i in range(p[0])) if p else ()


def dominated(p, q):
    """p <= q in the dominance order (same total)."""
    sp = sq = 0
    for i in range(max(len(p), len(q))):
        sp += p[i] if i < len(p) else 0
        sq += q[i] if i < len(q) else 0
        if sp > sq:
            return False
    return True


def collapse(series, p):
    """The largest valid partition dominated by p, by search."""
    below = [q for q in partitions(sum(p)) if is_valid(series, q) and dominated(q, p)]
    top = [q for q in below if all(dominated(r, q) for r in below)]
    require(len(top) == 1, f"no unique {series}-collapse of {p}")
    return top[0]


def bv_partition(series, p):
    """Barbasch-Vogan dual of an orbit of `series`, as a partition of the
    dual series (marks are a convention and are not compared)."""
    t = list(transpose(p))
    if series == "A":
        return tuple(t)
    if series == "B":
        t[-1] -= 1
        return collapse("C", tuple(x for x in t if x))
    if series == "C":
        t[0] += 1
        return collapse("B", tuple(t))
    return collapse("D", tuple(t))


def orbit_leq(series, a, b):
    if series == "G":
        return G2_LABELS.index(a) <= G2_LABELS.index(b)
    (pa, ma), (pb, mb) = a, b
    if pa == pb:
        return ma == mb
    return dominated(pa, pb)


def zero_orbit(series, rank):
    return next(o for o in orbits(series, rank)
                if all(orbit_leq(series, o, x) for x in orbits(series, rank)))


def regular_orbit(series, rank):
    return next(o for o in orbits(series, rank)
                if all(orbit_leq(series, x, o) for x in orbits(series, rank)))


def key_of(rec):
    """Orbit key of a JSON orbit record {series, rank, partition|g2_label}."""
    if rec["series"] == "G":
        return rec["g2_label"]
    return (tuple(rec["partition"]), rec.get("mark"))


def record_of(series, rank, key):
    if series == "G":
        return {"series": "G", "rank": 2, "g2_label": key}
    rec = {"series": series, "rank": rank, "partition": list(key[0])}
    if key[1]:
        rec["mark"] = key[1]
    return rec


def label_of(series, key):
    if series == "G":
        return key
    s = ",".join(str(x) for x in key[0])
    return f"{s}-{key[1]}" if key[1] else s


def a_leq(series, dual, x, y):
    """A-order on invariant pairs (orbit, dual orbit)."""
    return orbit_leq(series, x[0], y[0]) and orbit_leq(dual, y[1], x[1])


def maxima(items, leq):
    return [a for a in items if not any(b != a and leq(a, b) for b in items)]


def covers(items, leq):
    out = set()
    for a in items:
        for b in items:
            if a != b and leq(a, b) and not any(
                    c not in (a, b) and leq(a, c) and leq(c, b) for c in items):
                out.add((a, b))
    return out


# ---------------------------------------------------------------------
# unramified
# ---------------------------------------------------------------------

def affine_nodes(series, rank):
    """Display indices of the affine nodes: one per extended-diagram
    component, first in each component (D2 is A1 x A1)."""
    return {0, 2} if (series, rank) == ("D", 2) else {0}


def check_members(spec, out):
    require(out["classes"] >= 1, "no classes")
    require(sum(r["members"] for r in out["rows"]) == out["classes"],
            "row members do not sum to the class count")
    require(out["classes"] <= out["abc_pairs"], "more classes than pairs")


def check_surjective(spec, out):
    s, n = spec["series"], spec["rank"]
    duals = [key_of(r["dual_orbit"]) for r in out["rows"]]
    require(set(duals) == set(orbits(DUAL_SERIES[s], n)),
            "row dual orbits are not exactly the dual group's orbits")
    for r in out["rows"]:
        require(key_of(r["orbit"]) in orbits(s, n), f"invalid orbit {r['orbit']}")


def _bv(series, key):
    return G2_BV[key] if series == "G" else bv_partition(series, key[0])


def _dual_part(series, key):
    return key if series == "G" else key[0]


def check_finite_rows(spec, out):
    """(O, d_BV(O)) is realised for every orbit O (by its finite
    Bala-Carter pair), and every row with a finite representative is one."""
    s, n = spec["series"], spec["rank"]
    d = DUAL_SERIES[s]
    pairs = {(key_of(r["orbit"]), _dual_part(d, key_of(r["dual_orbit"])))
             for r in out["rows"]}
    for o in orbits(s, n):
        require((o, _bv(s, o)) in pairs, f"(O, d_BV(O)) missing for {o}")
    aff = affine_nodes(s, n)
    for r in out["rows"]:
        if not aff & set(r["representative"]["J"]):
            o = key_of(r["orbit"])
            require(_dual_part(d, key_of(r["dual_orbit"])) == _bv(s, o),
                    f"finite row {r['representative']} is not (O, d_BV(O))")


def check_hasse(spec, out):
    s = spec["series"]
    d = DUAL_SERIES[s]
    invs = [(key_of(r["orbit"]), key_of(r["dual_orbit"])) for r in out["rows"]]
    require(len(set(invs)) == len(invs), "repeated invariant rows")
    want = {((label_of(s, a[0]), label_of(d, a[1])), (label_of(s, b[0]), label_of(d, b[1])))
            for a, b in covers(invs, lambda x, y: a_leq(s, d, x, y))}
    got = {tuple(tuple(e) for e in edge) for edge in out["hasse_A"]}
    require(got == want, "hasse_A edges are not the covers of the A-order")


def check_g2_golden(spec, out):
    if spec["series"] != "G":
        return
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    rows = [{"J": r["representative"]["J"], "Jprime": r["representative"]["Jprime"],
             "class_name": r["class_name"], "dual_orbit": r["dual_orbit_label"],
             "members": r["members"], "orbit": r["orbit_label"]} for r in out["rows"]]
    require(rows == golden["rows"], "G2 table differs from the golden")


# ---------------------------------------------------------------------
# arthur-wf
# ---------------------------------------------------------------------

def check_one_pair(spec, out):
    require(len(out["canonical"]) == 1, "canonical set is not one pair")
    require(key_of(out["canonical"][0]["dual_orbit"]) == spec["dual_key"],
            "canonical dual orbit is not the queried orbit")


def check_geometric_pair(spec, out):
    require(out["geometric"] == [out["canonical"][0]["orbit"]],
            "geometric is not the canonical pair's orbit")


def check_extremes(spec, out):
    s, n = spec["series"], spec["rank"]
    d = DUAL_SERIES[s]
    o = key_of(out["canonical"][0]["orbit"])
    if spec["dual_key"] == zero_orbit(d, n):
        require(o == regular_orbit(s, n), "zero dual orbit did not give the regular orbit")
    if spec["dual_key"] == regular_orbit(d, n):
        require(o == zero_orbit(s, n), "regular dual orbit did not give the zero orbit")


def check_closed_form(spec, out):
    """d(O^v): transpose in type A, Barbasch-Vogan duality in general."""
    s = spec["series"]
    o = key_of(out["canonical"][0]["orbit"])
    want = _bv(DUAL_SERIES[s], spec["dual_key"])
    if s == "A":
        require(o[0] == transpose(spec["dual_key"][0]), "type A orbit is not the transpose")
    require(_dual_part(s, o) == want, "orbit is not the Barbasch-Vogan dual")


# ---------------------------------------------------------------------
# local-wf
# ---------------------------------------------------------------------

def _invariants(spec, out):
    return [(key_of(c["orbit"]), key_of(c["dual_orbit"])) for c in out["canonical"]]


def check_valid(spec, out):
    s, n = spec["series"], spec["rank"]
    for o, dv in _invariants(spec, out):
        require(o in orbits(s, n) and dv in orbits(DUAL_SERIES[s], n),
                f"invalid invariant {o}, {dv}")
    require(len(out["canonical"]) >= 1, "empty canonical set")


def check_incomparable(spec, out):
    s = spec["series"]
    invs = _invariants(spec, out)
    for a in invs:
        for b in invs:
            require(a == b or not a_leq(s, DUAL_SERIES[s], a, b),
                    f"canonical entries {a} <= {b} in the A-order")
    require(len(set(invs)) == len(invs), "repeated canonical entries")


def check_geometric_maxima(spec, out):
    s = spec["series"]
    orbs = list(dict.fromkeys(i[0] for i in _invariants(spec, out)))
    want = set(maxima(orbs, lambda x, y: orbit_leq(s, x, y)))
    got = [key_of(g) for g in out["geometric"]]
    require(len(got) == len(want) and set(got) == want,
            "geometric is not the closure-maxima of the canonical orbits")


def check_patterns(spec, out):
    s, n = spec["series"], spec["rank"]
    d = DUAL_SERIES[s]
    if spec["kind"] == "steinberg":
        want = (regular_orbit(s, n), zero_orbit(d, n))
    elif spec["kind"] == "trivial":
        want = (zero_orbit(s, n), regular_orbit(d, n))
    else:
        return
    require(_invariants(spec, out) == [want], f"{spec['kind']} pattern gave {out['canonical']}")
    require([key_of(g) for g in out["geometric"]] == [want[0]],
            f"{spec['kind']} pattern geometric is {out['geometric']}")


CHECKS = {
    "unramified": [check_members, check_surjective, check_finite_rows, check_hasse,
                   check_g2_golden],
    "arthur-wf": [check_one_pair, check_geometric_pair, check_extremes, check_closed_form],
    "local-wf": [check_valid, check_incomparable, check_geometric_maxima, check_patterns],
}


def run_checks(spec, out):
    for check in CHECKS[spec["command"]]:
        check(spec, out)


# ---------------------------------------------------------------------
# self-test: every check rejects a damaged output
# ---------------------------------------------------------------------

def _other_orbit(series, rank, key):
    return next(o for o in orbits(series, rank) if o != key)


def _bump_members(spec, out):
    out["rows"][0]["members"] += 1


def _drop_dual(spec, out):
    d = DUAL_SERIES[spec["series"]]
    reg = record_of(d, spec["rank"], regular_orbit(d, spec["rank"]))
    out["rows"] = [r for r in out["rows"] if r["dual_orbit"] != reg]


def _wrong_zero_dual(spec, out):
    s, n = spec["series"], spec["rank"]
    d = DUAL_SERIES[s]
    zero = record_of(s, n, zero_orbit(s, n))
    for r in out["rows"]:
        if r["orbit"] == zero:
            r["dual_orbit"] = record_of(d, n, zero_orbit(d, n))


def _drop_edge(spec, out):
    out["hasse_A"] = out["hasse_A"][1:]


def _rename_class(spec, out):
    out["rows"][-1]["class_name"] = "?"


def _extra_pair(spec, out):
    out["canonical"].append(copy.deepcopy(out["canonical"][0]))


def _no_geometric(spec, out):
    out["geometric"] = []


def _swap_orbit(spec, out):
    s, n = spec["series"], spec["rank"]
    rec = out["canonical"][0]["orbit"]
    new = record_of(s, n, _other_orbit(s, n, key_of(rec)))
    out["canonical"][0]["orbit"] = new
    out["geometric"] = [new]


def _force_extreme_query(spec, out):
    """Make the query the zero dual orbit and the answer not regular."""
    s, n = spec["series"], spec["rank"]
    d = DUAL_SERIES[s]
    spec["dual_key"] = zero_orbit(d, n)
    out["canonical"][0]["dual_orbit"] = record_of(d, n, spec["dual_key"])
    new = record_of(s, n, zero_orbit(s, n))
    out["canonical"][0]["orbit"] = new
    out["geometric"] = [new]


def _bad_partition(spec, out):
    rec = out["canonical"][0]["orbit"]
    if rec["series"] == "G":
        rec["g2_label"] = "G3"
    else:
        rec["partition"] = rec["partition"] + [1]


def _comparable_entry(spec, out):
    s, n = spec["series"], spec["rank"]
    d = DUAL_SERIES[s]
    low = {"orbit": record_of(s, n, zero_orbit(s, n)),
           "dual_orbit": record_of(d, n, regular_orbit(d, n))}
    high = {"orbit": record_of(s, n, regular_orbit(s, n)),
            "dual_orbit": record_of(d, n, zero_orbit(d, n))}
    out["canonical"].append(high if low in out["canonical"] else low)


def _flip_pattern(spec, out):
    spec["kind"] = "trivial" if spec["kind"] == "steinberg" else "steinberg"


CORRUPTIONS = {
    check_members: _bump_members,
    check_surjective: _drop_dual,
    check_finite_rows: _wrong_zero_dual,
    check_hasse: _drop_edge,
    check_g2_golden: _rename_class,
    check_one_pair: _extra_pair,
    check_geometric_pair: _no_geometric,
    check_extremes: _force_extreme_query,
    check_closed_form: _swap_orbit,
    check_valid: _bad_partition,
    check_incomparable: _comparable_entry,
    check_geometric_maxima: _no_geometric,
    check_patterns: _flip_pattern,
}

# checks whose corruption only bites on some outputs
APPLIES = {
    check_g2_golden: lambda spec, out: spec["series"] == "G",
    check_patterns: lambda spec, out: spec["kind"] in ("steinberg", "trivial"),
    check_hasse: lambda spec, out: bool(out["hasse_A"]),
}


def self_test(command, samples):
    """samples: [(spec, parsed output)] that passed run_checks.  Returns the
    names of checks that failed to reject their corruption."""
    missed = []
    for check in CHECKS[command]:
        applies = APPLIES.get(check, lambda spec, out: True)
        case = next(((s, o) for s, o in samples if applies(s, o)), None)
        if case is None:
            missed.append(f"{check.__name__} (no applicable output)")
            continue
        spec, out = copy.deepcopy(case)
        CORRUPTIONS[check](spec, out)
        try:
            check(spec, out)
        except CheckError:
            continue
        missed.append(check.__name__)
    return missed
