"""The commands that keep nothing in the result store: orbits, dual-map
and selftest.

cli imports this module only when one of them runs, so that the stored
commands (unramified, arthur-wf, local-wf) never compile it.  It is not
one of the package's lazily loaded submodules (orbitcalc/__init__.py).
orbits_payload and dual_map_payload return what cli prints, in the form
of a stored payload: the --json fields and the text rendering.  Both
count the orbits of the system from (series, rank) first, and refuse one
with more than ORBIT_COUNT_CAP.
"""

from __future__ import annotations

from . import balacarter as bc
from . import duality as du
from . import orbits
from . import partitions as pt
from . import wavefront as wf
from . import weylrep
from .cartantype import CartanType

# orbits' closure covers call closure_leq once per ordered pair of orbits:
# `orbits --json` takes 0.8 s at A16 (297 orbits), 1.4 s at B12 (420) and
# 1.8 s at A18 (490), and the covers alone 4.2 s at A20 (792), on a 2-vCPU
# x86-64 VM; the goldens stop at rank 6
ORBIT_COUNT_CAP = 500


def _orbit_count(ct: CartanType) -> int:
    """The number of nilpotent orbits of ct, counted without listing them:
    the partitions of the family's size whose parts of the parity that
    partitions._parity_ok restricts come in pairs, the very even ones of
    type D (pairs of even parts, so partitions of a quarter of the size)
    twice."""
    if ct.series == "G":
        return len(orbits.G2_LABELS)

    def ways(total, step):
        w = [1] + [0] * total
        for k in range(1, total + 1):
            s = step(k)
            for t in range(s, total + 1):
                w[t] += w[t - s]
        return w[total]

    n = pt.family_size(ct.series, ct.rank)
    paired = {"B": 0, "D": 0, "C": 1}.get(ct.series)
    count = ways(n, lambda k: 2 * k if k % 2 == paired else k)
    if ct.series == "D" and n % 4 == 0:
        count += ways(n // 4, lambda k: k)
    return count


def _check_orbit_count(*systems):
    """Raise OrbitError past ORBIT_COUNT_CAP, read at call time, before
    any orbit is listed."""
    for ct in systems:
        count = _orbit_count(ct)
        if count > ORBIT_COUNT_CAP:
            raise orbits.OrbitError(f"{ct} has {count} nilpotent orbits, "
                                    f"which exceeds the cap {ORBIT_COUNT_CAP}")


def orbits_payload(ct: CartanType):
    _check_orbit_count(ct)
    rows = []
    for o in orbits.enumerate_orbits(ct):
        rows.append({"orbit": o.to_json(), "label": o.label(),
                     "wdd": orbits.weighted_dynkin(o).to_json(),
                     "dim": orbits.orbit_dimension(o),
                     "special": orbits.is_special(o)})
    edges = [[a.label(), b.label()] for a, b in orbits.hasse_edges(ct)]
    lines = [f"nilpotent orbits of {ct} ({ct.isogeny})"]
    for r in rows:
        star = "*" if r["special"] else " "
        wdd = ",".join(str(v) for v in r["wdd"].values())
        lines.append(f"  {r['label']:<16}{star} dim={r['dim']:<4} wdd=({wdd})")
    lines.append("closure covers:")
    lines += [f"  {a} < {b}" for a, b in edges]
    lines.append("(* = special)")
    return {"command": "orbits", "series": ct.series, "rank": ct.rank,
            "isogeny": ct.isogeny, "orbits": rows, "hasse": edges,
            "text": "\n".join(lines) + "\n"}


def dual_map_payload(ct: CartanType):
    _check_orbit_count(ct, ct.dual)
    rows = []
    for o in orbits.enumerate_orbits(ct):
        rows.append({"orbit": o.label(), "special": orbits.is_special(o),
                     "dual_ls": orbits.dual_ls(o).label()})
    bv = []
    for o in orbits.enumerate_orbits(ct.dual):
        bv.append({"dual_orbit": o.label(), "orbit": orbits.dual_bv(o).label()})
    lines = [f"Lusztig-Spaltenstein duality on {ct}:"]
    for r in rows:
        star = "*" if r["special"] else " "
        lines.append(f"  {r['orbit']:<16}{star} -> {r['dual_ls']}")
    lines.append(f"Barbasch-Vogan duality from the dual system ({ct.dual}):")
    lines += [f"  {r['dual_orbit']:<16} -> {r['orbit']}" for r in bv]
    lines.append("(* = special)")
    return {"command": "dual-map", "series": ct.series, "rank": ct.rank,
            "isogeny": ct.isogeny, "lusztig_spaltenstein": rows,
            "barbasch_vogan": bv, "text": "\n".join(lines) + "\n"}


def selftest():
    failures = 0

    def require(cond, what):
        # a raise, not an assert, so that the suites also run under -O
        if not cond:
            raise AssertionError(what)

    def check(name, fn):
        nonlocal failures
        try:
            fn()
            print(f"  ok: {name}")
        except Exception as exc:  # noqa: BLE001 - surface everything
            failures += 1
            print(f"  FAIL: {name}: {exc}")

    def partitions_suite():
        for series, rank in [("B", 3), ("C", 3), ("D", 3)]:
            total = pt.family_size(series, rank)
            for p in pt.partitions_of(total):
                require(pt.collapse(p, series, rank) ==
                        pt.collapse_oracle(p, series, rank),
                        f"collapse of {p} in {series}{rank}")

    def g2_suite():
        ct = CartanType("G", 2)
        require(len(bc.enumerate_pairs(ct)) == 8, "8 pairs")
        require(len(bc.classes(ct)) == 7, "7 classes")
        rows = du.enumerate_nobc(ct)
        require(len(rows) == 7, "7 invariants")
        duals = {r[0].dual_orbit.g2_label for r in rows
                 if r[0].orbit.g2_label == "G2(a1)"}
        require(duals == {"A1", "A1~", "G2(a1)"}, f"G2(a1) duals {duals}")

    def orthogonality_suite():
        for ct in [CartanType("B", 2), CartanType("G", 2)]:
            ctx = weylrep.ambient_context(ct)
            reps = ctx.irreps()
            for i, a in enumerate(reps):
                for b in reps[i:]:
                    require(ctx.inner_product(a, b) == (1 if a == b else 0),
                            f"<{a}, {b}> in {ct}")

    def arthur_suite():
        for ct in [CartanType("A", 2), CartanType("B", 2), CartanType("G", 2)]:
            for o in orbits.enumerate_orbits(ct.dual):
                require(wf.cross_check_arthur(ct, o), f"{ct} at {o}")
            require(wf.local_wf(ct, wf.steinberg_pattern(ct)) ==
                    wf.arthur_wf(ct, orbits.zero_orbit(ct.dual)),
                    f"Steinberg of {ct}")

    def orbit_suite():
        for ct in [CartanType("B", 3), CartanType("C", 3), CartanType("D", 4)]:
            for o in orbits.enumerate_orbits(ct):
                require(orbits.orbit_from_wdd(orbits.weighted_dynkin(o)) == o,
                        f"diagram of {o}")
                d = orbits.dual_ls(o)
                require(orbits.is_special(d) and orbits.dual_ls(orbits.dual_ls(d)) == d,
                        f"d_LS at {o}")

    def lifting_suite():
        for ct in [CartanType("B", 3), CartanType("G", 2)]:
            delta = frozenset(range(1, ct.rank + 1))
            pair = bc.ABCPair(delta, frozenset())
            orbs = bc.distinguished_factor_orbits(ct, pair)
            require(bc.saturation(ct, delta, orbs) == orbits.regular_orbit(ct),
                    f"regular saturation in {ct}")
            require(bc.saturation(ct, frozenset(), ()) == orbits.zero_orbit(ct),
                    f"zero saturation in {ct}")

    print("selftest:")
    check("partition collapse vs oracle", partitions_suite)
    check("orbit tables and dualities", orbit_suite)
    check("G2 parameterisation", g2_suite)
    check("character orthogonality", orthogonality_suite)
    check("saturation extremes", lifting_suite)
    check("spherical wavefront cross-checks", arthur_suite)
    return 1 if failures else 0
