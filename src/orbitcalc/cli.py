"""Command-line surface.

Subcommands: orbits, dual-map, unramified, arthur-wf, local-wf, selftest.
Human-readable tables by default, stable JSON with --json (schema-versioned,
byte-identical across runs).

unramified, arthur-wf and local-wf keep their results in one on-disk store
(--cache-dir or ORBITCALC_CACHE).  An entry's key holds the command, the
normalised system, the exact inputs (the --dual-orbit text, the bytes of
the --data file), SCHEMA_VERSION, the package version and a CRC-32 of the
package's own sources, so that entries written by other code are never
read.  An entry holds its key and both renderings (JSON and text); one that
is not whole, or that answers another query, is ignored with a warning and
recomputed.  The mathematical modules run only when first used (see
orbitcalc/__init__.py), so a stored answer is printed before any of them
does.

Exit codes: 0 success, 1 computational error, 2 usage error (also for
arguments and data files that cannot be parsed).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import zlib

# each runs on first use (see __init__); a stored answer is printed before
# any of them does
from . import __version__
from . import balacarter as bc
from . import chartab
from . import duality as du
from . import orbits
from . import partitions as pt
from . import wavefront as wf
from . import weylrep
from .cartantype import CartanType, RootDataError

SCHEMA_VERSION = 1


class UsageError(ValueError):
    pass


def _cartan_type(args) -> CartanType:
    try:
        return CartanType(args.type, args.rank, args.isogeny)
    except RootDataError as exc:
        raise UsageError(str(exc))


def parse_orbit(ct: CartanType, text: str) -> orbits.NilpotentOrbit:
    if ct.series == "G":
        return orbits.NilpotentOrbit(ct, g2_label=text)
    mark = None
    if text.endswith(("-I", "-II")):
        text, mark = text.rsplit("-", 1)
    try:
        partition = pt.parse_partition(text)
    except pt.PartitionError:
        raise
    except ValueError:
        raise UsageError(f"cannot parse the orbit {text!r}; "
                         f"expected parts such as 2,1") from None
    return orbits.NilpotentOrbit(ct, partition=partition, mark=mark)


def _dump_json(payload) -> str:
    payload = {"schema": SCHEMA_VERSION, **payload}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------
# the result store
# ---------------------------------------------------------------------

# the keys of each stored payload: the --json fields and the text rendering
PAYLOAD_KEYS = {
    "unramified": frozenset({"command", "series", "rank", "isogeny", "abc_pairs",
                             "classes", "rows", "hasse_A", "text"}),
    "arthur-wf": frozenset({"command", "series", "rank", "isogeny", "dual_orbit",
                            "canonical", "geometric", "text"}),
    "local-wf": frozenset({"command", "series", "rank", "isogeny", "canonical",
                           "geometric", "text"}),
}


def _cache_dir(args):
    return args.cache_dir or os.environ.get("ORBITCALC_CACHE")


def source_checksum() -> int:
    """CRC-32 of the package's own *.py files (names and bytes)."""
    here = os.path.dirname(os.path.abspath(__file__))
    crc = 0
    for name in sorted(os.listdir(here)):
        if name.endswith(".py"):
            with io.open_code(os.path.join(here, name)) as fh:
                crc = zlib.crc32(fh.read(), zlib.crc32(name.encode(), crc))
    return crc


def _store_key(kind, ct, inputs):
    return {"command": kind, "system": [ct.series, ct.rank, ct.isogeny],
            "inputs": inputs, "schema": SCHEMA_VERSION, "version": __version__,
            "source": source_checksum()}


def _cache_path(cdir, kind, ct, key):
    digest = zlib.crc32(json.dumps(key, sort_keys=True).encode())
    name = (f"{kind}-{ct.series}{ct.rank}-{ct.isogeny}-v{SCHEMA_VERSION}"
            f"-{digest:08x}.json")
    return os.path.join(cdir, name)


def cache_load(args, kind, ct, inputs=None):
    """The stored payload of `kind` for ct and inputs (with its "schema"),
    or None.  inputs is what the key records beside the system: the
    --dual-orbit text or the --data file's bytes read as latin-1."""
    cdir = _cache_dir(args)
    if not cdir:
        return None
    key = _store_key(kind, ct, inputs)
    path = _cache_path(cdir, kind, ct, key)
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("not a JSON object")
        if data.get("schema") != SCHEMA_VERSION:
            return None
        missing = (PAYLOAD_KEYS[kind] | {"key"}) - data.keys()
        if missing:
            raise ValueError(f"missing {sorted(missing)}")
        # the file name holds only a CRC of the key: compare it whole
        stored = data.pop("key")
        if stored != key:
            differ = [k for k in key
                      if not isinstance(stored, dict) or stored.get(k) != key[k]]
            raise ValueError(f"holds the entry for another {', '.join(differ)}")
        if not isinstance(data["text"], str):
            raise ValueError('"text" is not a string')
        return data
    except (OSError, ValueError) as exc:
        print(f"warning: ignoring corrupt cache {path}: {exc}", file=sys.stderr)
        return None


def cache_store(args, kind, ct, payload, inputs=None):
    cdir = _cache_dir(args)
    if not cdir:
        return
    key = _store_key(kind, ct, inputs)
    path = _cache_path(cdir, kind, ct, key)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(cdir, exist_ok=True)
        # written aside and renamed: a reader at `path` meets the previous
        # file or the whole new one, never a part
        with open(tmp, "w") as fh:
            fh.write(_dump_json({**payload, "key": key}))
        os.replace(tmp, path)
    except OSError as exc:
        print(f"warning: cache not writable ({exc}); continuing in memory",
              file=sys.stderr)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _serve(args, kind, ct, inputs, compute):
    """Print the payload of `kind` for ct and inputs, from the store or
    from compute() (and then stored)."""
    payload = cache_load(args, kind, ct, inputs)
    if payload is None:
        payload = compute()
        cache_store(args, kind, ct, payload, inputs)
    if args.json:
        sys.stdout.write(_dump_json({k: v for k, v in payload.items()
                                     if k != "text"}))
    else:
        sys.stdout.write(payload["text"])
    return 0


# ---------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------

def cmd_orbits(args):
    ct = _cartan_type(args)
    rows = []
    for o in orbits.enumerate_orbits(ct):
        rows.append({"orbit": o.to_json(), "label": o.label(),
                     "wdd": orbits.weighted_dynkin(o).to_json(),
                     "dim": orbits.orbit_dimension(o),
                     "special": orbits.is_special(o)})
    edges = [[a.label(), b.label()] for a, b in orbits.hasse_edges(ct)]
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
    for o in orbits.enumerate_orbits(ct):
        rows.append({"orbit": o.label(), "special": orbits.is_special(o),
                     "dual_ls": orbits.dual_ls(o).label()})
    bv = []
    for o in orbits.enumerate_orbits(ct.dual):
        bv.append({"dual_orbit": o.label(), "orbit": orbits.dual_bv(o).label()})
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
    lines = [f"unramified nilpotent orbit classes for {ct} ({ct.isogeny})",
             f"  affine Bala-Carter pairs: {npairs}, "
             f"classes: {nclasses}, invariants: {len(rows)}"]
    for r in rows:
        rep = r["representative"]
        pair = f"J={{{','.join('a%d' % i for i in rep['J'])}}}" \
               f" J'={{{','.join('a%d' % i for i in rep['Jprime'])}}}"
        name = f" class={r['class_name']}" if "class_name" in r else ""
        lines.append(f"  ({r['orbit_label']}, {r['dual_orbit_label']}^v)"
                     f"  x{r['members']}  {pair}{name}")
    return {"command": "unramified", "series": ct.series, "rank": ct.rank,
            "isogeny": ct.isogeny, "abc_pairs": npairs, "classes": nclasses,
            "rows": rows, "hasse_A": edges, "text": "\n".join(lines) + "\n"}


def cmd_unramified(args):
    ct = _cartan_type(args)
    return _serve(args, "unramified", ct, None, lambda: _unramified_payload(ct))


def cmd_arthur_wf(args):
    ct = _cartan_type(args)

    def compute():
        dual = parse_orbit(CartanType(ct.dual.series, ct.rank, ct.dual.isogeny),
                           args.dual_orbit)
        res = wf.arthur_wf(ct, dual)
        return {"command": "arthur-wf", "series": ct.series, "rank": ct.rank,
                "isogeny": ct.isogeny, "dual_orbit": dual.to_json(),
                **res.to_json(),
                "text": f"spherical representation of {ct} with dual-side "
                        f"parameter {dual.label()}:\n  {res}\n"}

    return _serve(args, "arthur-wf", ct, args.dual_orbit, compute)


def cmd_local_wf(args):
    ct = _cartan_type(args)
    with open(args.data, "rb") as fh:
        raw = fh.read()

    def compute():
        try:
            # decoded as open() in text mode would
            text = io.TextIOWrapper(io.BytesIO(raw)).read()
            data = wf.restriction_data_from_json(json.loads(text))
        except (ValueError, TypeError, KeyError) as exc:
            raise UsageError(f"{args.data} is not restriction data "
                             f"({type(exc).__name__}: {exc})") from None
        res = wf.local_wf(ct, data)
        return {"command": "local-wf", "series": ct.series, "rank": ct.rank,
                "isogeny": ct.isogeny, **res.to_json(), "text": f"{res}\n"}

    return _serve(args, "local-wf", ct, raw.decode("latin-1"), compute)


def cmd_selftest(args):
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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # last, since naming these classes loads their modules
    except (orbits.OrbitError, pt.PartitionError, chartab.CharError,
            du.DualityError, wf.WavefrontError, bc.ABCError,
            RootDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
