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
does.  The bodies of orbits, dual-map and selftest live in
orbitcalc/_storeless.py, which only those three import, so that no other
command compiles them.

Exit codes: 0 success, 1 computational error, 2 usage error (also for
arguments and data files that cannot be parsed).
"""

from __future__ import annotations

import argparse
import atexit
import gc
import io
import json
import os
import sys
import zlib

# each runs on first use (see __init__); a stored answer is printed before
# any of them does
from . import __version__
from . import duality as du
from . import orbits
from . import partitions as pt
from . import wavefront as wf
from .cartantype import ABCError, CartanType, CharError, RootDataError

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


def _store_entry(args, kind, ct, inputs):
    """The (key, path) of the store entry of `kind` for ct and inputs, or
    None without a store."""
    cdir = _cache_dir(args)
    if not cdir:
        return None
    key = _store_key(kind, ct, inputs)
    return key, _cache_path(cdir, kind, ct, key)


def cache_load(args, kind, ct, inputs=None, entry=None):
    """The stored payload of `kind` for ct and inputs (with its "schema"),
    or None.  inputs is what the key records beside the system: the
    --dual-orbit text or the --data file's bytes read as latin-1.  entry
    is their _store_entry, when the caller has built it."""
    entry = entry or _store_entry(args, kind, ct, inputs)
    if entry is None:
        return None
    key, path = entry
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


def cache_store(args, kind, ct, payload, inputs=None, entry=None):
    entry = entry or _store_entry(args, kind, ct, inputs)
    if entry is None:
        return
    key, path = entry
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
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
    from compute() (and then stored).  The entry's key and path are built
    once: the key's source_checksum reads every source file."""
    entry = _store_entry(args, kind, ct, inputs)
    payload = cache_load(args, kind, ct, inputs, entry)
    if payload is None:
        payload = compute()
        cache_store(args, kind, ct, payload, inputs, entry)
    return _write(args, payload)


def _write(args, payload):
    """Print a payload: its fields as JSON with --json, else its text."""
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
    from ._storeless import orbits_payload
    return _write(args, orbits_payload(_cartan_type(args)))


def cmd_dual_map(args):
    from ._storeless import dual_map_payload
    return _write(args, dual_map_payload(_cartan_type(args)))


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
    npairs, nclasses = du.abc_counts(ct)
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
    from ._storeless import selftest
    return selftest()


# ---------------------------------------------------------------------

class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser that adds its arguments on its first parse, so
    that a process builds only the arguments of the command it runs (each
    add_argument makes a help formatter, which asks for the terminal size)."""

    def __init__(self, *, add_arguments, **kwargs):
        super().__init__(**kwargs)
        self._add_arguments = add_arguments

    def parse_known_args(self, args=None, namespace=None):
        if self._add_arguments is not None:
            self._add_arguments(self)
            self._add_arguments = None
        return super().parse_known_args(args, namespace)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="orbitcalc",
        description="nilpotent-orbit combinatorics: orbits, duality maps, "
                    "unramified classes and wavefront sets")
    sub = ap.add_subparsers(dest="command", required=True,
                            parser_class=_Subcommand)

    def common(p, *required):
        """The options of every table command, then `required`, each a
        (flag, help) pair."""
        p.add_argument("--type", required=True, choices=list("ABCDG"),
                       help="series of the root system")
        p.add_argument("--rank", required=True, type=int)
        p.add_argument("--isogeny", default="adjoint",
                       choices=["adjoint", "simply_connected"])
        p.add_argument("--json", action="store_true",
                       help="emit schema-stable JSON")
        p.add_argument("--cache-dir", default=None,
                       help="table cache directory (or $ORBITCALC_CACHE)")
        for flag, text in required:
            p.add_argument(flag, required=True, help=text)

    for name, func, text, add_arguments in (
            ("orbits", cmd_orbits, "enumerate nilpotent orbits", common),
            ("dual-map", cmd_dual_map, "duality maps orbit by orbit", common),
            ("unramified", cmd_unramified,
             "affine Bala-Carter classes and their invariants", common),
            ("arthur-wf", cmd_arthur_wf,
             "wavefront sets of a spherical representation",
             lambda p: common(p, ("--dual-orbit", 'orbit of the dual group: '
                                                  '"2,1" or "G2(a1)"'))),
            ("local-wf", cmd_local_wf,
             "wavefront sets from a restriction-data file",
             lambda p: common(p, ("--data", "JSON restriction data"))),
            ("selftest", cmd_selftest, "run the built-in property suites",
             lambda p: None)):
        sub.add_parser(name, help=text, add_arguments=add_arguments) \
            .set_defaults(func=func)
    return ap


# whether this process's main has registered gc.freeze to run at exit
_freeze_registered = False


def main(argv=None) -> int:
    # Interpreter shutdown runs the cyclic collector over every object it
    # tracks: the modules, classes and lru_cache tables, which the OS
    # reclaims anyway (12.3K after a B3 unramified hit, 14.3K after a miss).
    # Frozen at exit they are skipped.  From main's return to the parent's
    # wait4, a B3 hit took 10.8 ms before and 3.5 ms after, a miss 17.8 and
    # 5.1 ms; under python -S 6.1 and 2.3 ms, 7.7 and 2.8 ms (medians of 15
    # on a 2-vCPU x86-64 Linux VM, Python 3.11).  Refcount teardown and the
    # flushing of stdout and stderr are unchanged, and nothing changes while
    # a command runs.  Registered on the first call only, so that a caller
    # that runs main again and again adds no hook.
    global _freeze_registered
    if not _freeze_registered:
        atexit.register(gc.freeze)
        _freeze_registered = True
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
    except (orbits.OrbitError, pt.PartitionError, CharError,
            du.DualityError, wf.WavefrontError, ABCError,
            RootDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
