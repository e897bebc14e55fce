"""Command-line surface.

Subcommands: orbits, dual-map, unramified, arthur-wf, local-wf, selftest.
Human-readable tables by default, stable JSON with --json (schema-versioned,
byte-identical across runs).  Computed unramified tables can be cached on
disk (--cache-dir or ORBITCALC_CACHE); a corrupt cache is ignored with a
warning and recomputed.

Exit codes: 0 success, 1 computational error, 2 usage error (also for
arguments and data files that cannot be parsed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import balacarter as bc
from . import duality as du
from . import wavefront as wf
from .chartab import CharError
from .orbits import (NilpotentOrbit, OrbitError, enumerate_orbits,
                     hasse_edges, is_special, dual_ls, dual_bv,
                     orbit_dimension, weighted_dynkin)
from .partitions import PartitionError, parse_partition
from .rootdata import CartanType, RootDataError

SCHEMA_VERSION = 1


class UsageError(ValueError):
    pass


def _cartan_type(args) -> CartanType:
    try:
        return CartanType(args.type, args.rank, args.isogeny)
    except RootDataError as exc:
        raise UsageError(str(exc))


def parse_orbit(ct: CartanType, text: str) -> NilpotentOrbit:
    if ct.series == "G":
        return NilpotentOrbit(ct, g2_label=text)
    mark = None
    if text.endswith(("-I", "-II")):
        text, mark = text.rsplit("-", 1)
    try:
        partition = parse_partition(text)
    except PartitionError:
        raise
    except ValueError:
        raise UsageError(f"cannot parse the orbit {text!r}; "
                         f"expected parts such as 2,1") from None
    return NilpotentOrbit(ct, partition=partition, mark=mark)


def _dump_json(payload) -> str:
    payload = {"schema": SCHEMA_VERSION, **payload}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------

# the keys of each cached payload (only unramified tables are cached)
PAYLOAD_KEYS = {"unramified": frozenset({
    "command", "series", "rank", "isogeny", "abc_pairs", "classes", "rows",
    "hasse_A"})}


def _cache_dir(args):
    return args.cache_dir or os.environ.get("ORBITCALC_CACHE")


def _cache_path(cdir, kind, ct):
    name = f"{kind}-{ct.series}{ct.rank}-{ct.isogeny}-v{SCHEMA_VERSION}.json"
    return os.path.join(cdir, name)


def cache_load(args, kind, ct):
    cdir = _cache_dir(args)
    if not cdir:
        return None
    path = _cache_path(cdir, kind, ct)
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("not a JSON object")
        if data.get("schema") != SCHEMA_VERSION:
            return None
        missing = PAYLOAD_KEYS[kind] - data.keys()
        if missing:
            raise ValueError(f"missing {sorted(missing)}")
        names = (data["command"], data["series"], data["rank"], data["isogeny"])
        if names != (kind, ct.series, ct.rank, ct.isogeny):
            raise ValueError(f"holds the table of {names}")
        return data
    except (OSError, ValueError) as exc:
        print(f"warning: ignoring corrupt cache {path}: {exc}", file=sys.stderr)
        return None


def cache_store(args, kind, ct, payload):
    cdir = _cache_dir(args)
    if not cdir:
        return
    path = _cache_path(cdir, kind, ct)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(cdir, exist_ok=True)
        # written aside and renamed: a reader at `path` meets the previous
        # file or the whole new one, never a part
        with open(tmp, "w") as fh:
            fh.write(_dump_json(payload))
        os.replace(tmp, path)
    except OSError as exc:
        print(f"warning: cache not writable ({exc}); continuing in memory",
              file=sys.stderr)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


# ---------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------

def cmd_orbits(args):
    ct = _cartan_type(args)
    orbs = enumerate_orbits(ct)
    rows = []
    for o in orbs:
        rows.append({"orbit": o.to_json(), "label": o.label(),
                     "wdd": weighted_dynkin(o).to_json(),
                     "dim": orbit_dimension(o),
                     "special": is_special(o)})
    edges = [[a.label(), b.label()] for a, b in hasse_edges(ct)]
    payload = {"command": "orbits", "series": ct.series, "rank": ct.rank,
               "isogeny": ct.isogeny, "orbits": rows, "hasse": edges}
    if args.json:
        sys.stdout.write(_dump_json(payload))
        return 0
    print(f"nilpotent orbits of {ct} ({ct.isogeny})")
    for r in rows:
        star = "*" if r["special"] else " "
        wdd = ",".join(str(v) for v in r["wdd"].values())
        print(f"  {r['label']:<16}{star} dim={r['dim']:<4} wdd=({wdd})")
    print("closure covers:")
    for a, b in edges:
        print(f"  {a} < {b}")
    print("(* = special)")
    return 0


def cmd_dual_map(args):
    ct = _cartan_type(args)
    rows = []
    for o in enumerate_orbits(ct):
        rows.append({"orbit": o.label(), "special": is_special(o),
                     "dual_ls": dual_ls(o).label()})
    bv = []
    for o in enumerate_orbits(ct.dual):
        bv.append({"dual_orbit": o.label(), "orbit": dual_bv(o).label()})
    payload = {"command": "dual-map", "series": ct.series, "rank": ct.rank,
               "isogeny": ct.isogeny, "lusztig_spaltenstein": rows,
               "barbasch_vogan": bv}
    if args.json:
        sys.stdout.write(_dump_json(payload))
        return 0
    print(f"Lusztig-Spaltenstein duality on {ct}:")
    for r in rows:
        star = "*" if r["special"] else " "
        print(f"  {r['orbit']:<16}{star} -> {r['dual_ls']}")
    print(f"Barbasch-Vogan duality from the dual system ({ct.dual}):")
    for r in bv:
        print(f"  {r['dual_orbit']:<16} -> {r['orbit']}")
    print("(* = special)")
    return 0


def _unramified_payload(ct: CartanType):
    rows = []
    for inv, count, rep in du.enumerate_nobc(ct):
        row = {"representative": rep.to_json(), "members": count,
               "orbit": inv.orbit.to_json(), "dual_orbit": inv.dual_orbit.to_json(),
               "orbit_label": inv.orbit.label(),
               "dual_orbit_label": inv.dual_orbit.label()}
        if ct.series == "G":
            row["class_name"] = du.g2_class_name(inv)
        rows.append(row)
    edges = []
    for a, b in du.hasse_edges_A(ct):
        edges.append([[a.orbit.label(), a.dual_orbit.label()],
                      [b.orbit.label(), b.dual_orbit.label()]])
    npairs = len(bc.enumerate_pairs(ct))
    nclasses = len(bc.classes(ct))
    return {"command": "unramified", "series": ct.series, "rank": ct.rank,
            "isogeny": ct.isogeny, "abc_pairs": npairs, "classes": nclasses,
            "rows": rows, "hasse_A": edges}


def cmd_unramified(args):
    ct = _cartan_type(args)
    payload = cache_load(args, "unramified", ct)
    if payload is None:
        payload = _unramified_payload(ct)
        cache_store(args, "unramified", ct, payload)
    else:
        payload.pop("schema", None)
    if args.json:
        sys.stdout.write(_dump_json(payload))
        return 0
    print(f"unramified nilpotent orbit classes for {ct} ({ct.isogeny})")
    print(f"  affine Bala-Carter pairs: {payload['abc_pairs']}, "
          f"classes: {payload['classes']}, invariants: {len(payload['rows'])}")
    for r in payload["rows"]:
        rep = r["representative"]
        pair = f"J={{{','.join('a%d' % i for i in rep['J'])}}}" \
               f" J'={{{','.join('a%d' % i for i in rep['Jprime'])}}}"
        name = f" class={r['class_name']}" if "class_name" in r else ""
        print(f"  ({r['orbit_label']}, {r['dual_orbit_label']}^v)"
              f"  x{r['members']}  {pair}{name}")
    return 0


def cmd_arthur_wf(args):
    ct = _cartan_type(args)
    dual = parse_orbit(CartanType(ct.dual.series, ct.rank, ct.dual.isogeny),
                       args.dual_orbit)
    res = wf.arthur_wf(ct, dual)
    payload = {"command": "arthur-wf", "series": ct.series, "rank": ct.rank,
               "isogeny": ct.isogeny, "dual_orbit": dual.to_json(),
               **res.to_json()}
    if args.json:
        sys.stdout.write(_dump_json(payload))
        return 0
    print(f"spherical representation of {ct} with dual-side parameter "
          f"{dual.label()}:")
    print(f"  {res}")
    return 0


def cmd_local_wf(args):
    ct = _cartan_type(args)
    with open(args.data) as fh:
        try:
            data = wf.restriction_data_from_json(json.load(fh))
        except (ValueError, TypeError, KeyError) as exc:
            raise UsageError(f"{args.data} is not restriction data "
                             f"({type(exc).__name__}: {exc})") from None
    res = wf.local_wf(ct, data)
    payload = {"command": "local-wf", "series": ct.series, "rank": ct.rank,
               "isogeny": ct.isogeny, **res.to_json()}
    if args.json:
        sys.stdout.write(_dump_json(payload))
        return 0
    print(res)
    return 0


def cmd_selftest(args):
    from . import partitions as pt
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
        from .weylrep import ambient_context
        for ct in [CartanType("B", 2), CartanType("G", 2)]:
            ctx = ambient_context(ct)
            reps = ctx.irreps()
            for i, a in enumerate(reps):
                for b in reps[i:]:
                    require(ctx.inner_product(a, b) == (1 if a == b else 0),
                            f"<{a}, {b}> in {ct}")

    def arthur_suite():
        from .orbits import zero_orbit
        for ct in [CartanType("A", 2), CartanType("B", 2), CartanType("G", 2)]:
            for o in enumerate_orbits(ct.dual):
                require(wf.cross_check_arthur(ct, o), f"{ct} at {o}")
            require(wf.local_wf(ct, wf.steinberg_pattern(ct)) ==
                    wf.arthur_wf(ct, zero_orbit(ct.dual)), f"Steinberg of {ct}")

    def orbit_suite():
        from .orbits import orbit_from_wdd
        for ct in [CartanType("B", 3), CartanType("C", 3), CartanType("D", 4)]:
            for o in enumerate_orbits(ct):
                require(orbit_from_wdd(weighted_dynkin(o)) == o, f"diagram of {o}")
                d = dual_ls(o)
                require(is_special(d) and dual_ls(dual_ls(d)) == d, f"d_LS at {o}")

    def lifting_suite():
        from .orbits import regular_orbit, zero_orbit
        for ct in [CartanType("B", 3), CartanType("G", 2)]:
            delta = frozenset(range(1, ct.rank + 1))
            pair = bc.ABCPair(delta, frozenset())
            orbs = bc.distinguished_factor_orbits(ct, pair)
            require(bc.saturation(ct, delta, orbs) == regular_orbit(ct),
                    f"regular saturation in {ct}")
            require(bc.saturation(ct, frozenset(), ()) == zero_orbit(ct),
                    f"zero saturation in {ct}")

    print("selftest:")
    check("partition collapse vs oracle", partitions_suite)
    check("orbit tables and dualities", orbit_suite)
    check("G2 parameterisation", g2_suite)
    check("character orthogonality", orthogonality_suite)
    check("saturation extremes", lifting_suite)
    check("spherical wavefront cross-checks", arthur_suite)
    return 1 if failures else 0


# ---------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="orbitcalc",
        description="nilpotent-orbit combinatorics: orbits, duality maps, "
                    "unramified classes and wavefront sets")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--type", required=True, choices=list("ABCDG"),
                       help="series of the root system")
        p.add_argument("--rank", required=True, type=int)
        p.add_argument("--isogeny", default="adjoint",
                       choices=["adjoint", "simply_connected"])
        p.add_argument("--json", action="store_true",
                       help="emit schema-stable JSON")
        p.add_argument("--cache-dir", default=None,
                       help="table cache directory (or $ORBITCALC_CACHE)")

    p = sub.add_parser("orbits", help="enumerate nilpotent orbits")
    common(p)
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("dual-map", help="duality maps orbit by orbit")
    common(p)
    p.set_defaults(func=cmd_dual_map)

    p = sub.add_parser("unramified",
                       help="affine Bala-Carter classes and their invariants")
    common(p)
    p.set_defaults(func=cmd_unramified)

    p = sub.add_parser("arthur-wf",
                       help="wavefront sets of a spherical representation")
    common(p)
    p.add_argument("--dual-orbit", required=True,
                   help='orbit of the dual group: "2,1" or "G2(a1)"')
    p.set_defaults(func=cmd_arthur_wf)

    p = sub.add_parser("local-wf",
                       help="wavefront sets from a restriction-data file")
    common(p)
    p.add_argument("--data", required=True, help="JSON restriction data")
    p.set_defaults(func=cmd_local_wf)

    p = sub.add_parser("selftest", help="run the built-in property suites")
    p.set_defaults(func=cmd_selftest)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (OrbitError, PartitionError, CharError, du.DualityError,
            wf.WavefrontError, bc.ABCError, RootDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
