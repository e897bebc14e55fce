"""Command-line surface.

Subcommands: orbits, dual-map, unramified, arthur-wf, local-wf, selftest.
Human-readable tables by default, stable JSON with --json (schema-versioned,
byte-identical across runs).

One table, COMMANDS, holds the grammar: each subcommand's handler, help
and options.  _read_line reads a line in canonical form and builds the
namespace argparse would: the subcommand's name, then only its exact long
options, none twice and every required one given, each valued one followed
by one value that does not begin with "-" and passes its type and choices.
Any other line (help, abbreviations, --opt=value, repeats, unknown tokens,
values beginning with "-") goes to the argparse parser that
orbitcalc/_usage.py builds from the same table, the only source of help,
usage text and usage errors.  So a table command imports neither argparse
nor the gettext and locale modules that argparse loads.

unramified, arthur-wf and local-wf keep their results in one on-disk store
(--cache-dir or ORBITCALC_CACHE).  An entry's key holds the command, the
normalised system, the exact inputs (the --dual-orbit text, the bytes of
the --data file), SCHEMA_VERSION, the package version and a CRC-32 of the
package's own sources, so that entries written by other code are never
read.  An entry holds its key and both renderings (JSON and text); one that
is not whole, or that answers another query, is ignored with a warning and
recomputed.  An arthur-wf miss that is stored also stores the entry of
every other dual orbit of its system, under the orbit's canonical label.
The mathematical modules run only when first used (see
orbitcalc/__init__.py), so a stored answer is printed before any of them
does.  What a miss computes is built in orbitcalc/_stored.py, and the
bodies of orbits, dual-map and selftest live in orbitcalc/_storeless.py;
cli imports each only when it runs, so that a store hit compiles neither.
This module keeps what a hit runs: the line reader, the store, dispatch
and main's error mapping.

Exit codes: 0 success, 1 computational error, 2 usage error (also for
arguments and data files that cannot be parsed).
"""

from __future__ import annotations

import atexit
import gc
import io
import json
import os
import sys
import types
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


def _store_entry(args, kind, ct, inputs, key=None):
    """The (key, path) of the store entry of `kind` for ct and inputs, or
    None without a store.  Given the key of another entry of kind and ct,
    only its inputs change."""
    cdir = _cache_dir(args)
    if not cdir:
        return None
    key = {**key, "inputs": inputs} if key else _store_key(kind, ct, inputs)
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
    except (OSError, ValueError, RecursionError) as exc:
        print(f"warning: ignoring corrupt cache {path}: {exc}", file=sys.stderr)
        return None


def cache_store(args, kind, ct, payload, inputs=None, entry=None):
    """Store payload as the entry of `kind` for ct and inputs (or at
    entry); returns whether it was written."""
    entry = entry or _store_entry(args, kind, ct, inputs)
    if entry is None:
        return False
    key, path = entry
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        # written aside and renamed: a reader at `path` meets the previous
        # file or the whole new one, never a part
        with open(tmp, "w") as fh:
            fh.write(_dump_json({**payload, "key": key}))
        os.replace(tmp, path)
        return True
    except OSError as exc:
        print(f"warning: cache not writable ({exc}); continuing in memory",
              file=sys.stderr)
        return False
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _serve(args, kind, ct, inputs, compute, fill=None):
    """Print the payload of `kind` for ct and inputs, from the store or
    from compute() (and then stored).  The entry's key and path are built
    once: the key's source_checksum reads every source file.  Once a miss
    is stored, fill(key), when given, may store more entries under keys
    built from this one."""
    entry = _store_entry(args, kind, ct, inputs)
    payload = cache_load(args, kind, ct, inputs, entry)
    if payload is None:
        payload = compute()
        if cache_store(args, kind, ct, payload, inputs, entry) and fill:
            fill(entry[0])
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


def cmd_unramified(args):
    ct = _cartan_type(args)

    def compute():
        from . import _stored
        return _stored.unramified_payload(ct)

    return _serve(args, "unramified", ct, None, compute)


def cmd_arthur_wf(args):
    ct = _cartan_type(args)

    def compute():
        from . import _stored
        dual = parse_orbit(CartanType(ct.dual.series, ct.rank, ct.dual.isogeny),
                           args.dual_orbit)
        return _stored.arthur_wf_payload(ct, dual)

    def fill(key):
        from . import _stored
        _stored.store_arthur_wf_family(
            ct, lambda label: _store_entry(args, "arthur-wf", ct, label, key),
            lambda payload, entry: cache_store(args, "arthur-wf", ct, payload,
                                               entry=entry))

    return _serve(args, "arthur-wf", ct, args.dual_orbit, compute, fill)


def cmd_local_wf(args):
    ct = _cartan_type(args)
    with open(args.data, "rb") as fh:
        raw = fh.read()

    def compute():
        from . import _stored
        try:
            data = _stored.restriction_data(raw)
        except (ValueError, TypeError, KeyError, RecursionError) as exc:
            raise UsageError(f"{args.data} is not restriction data "
                             f"({type(exc).__name__}: {exc})") from None
        return _stored.local_wf_payload(ct, data)

    return _serve(args, "local-wf", ct, raw.decode("latin-1"), compute)


def cmd_selftest(args):
    from ._storeless import selftest
    return selftest()


# ---------------------------------------------------------------------

# The grammar of every subcommand, read by _read_line and by the argparse
# parser that _usage builds from it: name -> (handler, help, options), each
# option a long flag and its add_argument keywords.
_COMMON = (
    ("--type", {"required": True, "choices": list("ABCDG"),
                "help": "series of the root system"}),
    ("--rank", {"required": True, "type": int}),
    ("--isogeny", {"default": "adjoint",
                   "choices": ["adjoint", "simply_connected"]}),
    ("--json", {"action": "store_true", "help": "emit schema-stable JSON"}),
    ("--cache-dir", {"default": None,
                     "help": "table cache directory (or $ORBITCALC_CACHE)"}),
)

COMMANDS = {
    "orbits": (cmd_orbits, "enumerate nilpotent orbits", _COMMON),
    "dual-map": (cmd_dual_map, "duality maps orbit by orbit", _COMMON),
    "unramified": (cmd_unramified,
                   "affine Bala-Carter classes and their invariants", _COMMON),
    "arthur-wf": (cmd_arthur_wf, "wavefront sets of a spherical representation",
                  (*_COMMON, ("--dual-orbit", {
                      "required": True,
                      "help": 'orbit of the dual group: "2,1" or "G2(a1)"'}))),
    "local-wf": (cmd_local_wf, "wavefront sets from a restriction-data file",
                 (*_COMMON, ("--data", {"required": True,
                                        "help": "JSON restriction data"}))),
    "selftest": (cmd_selftest, "run the built-in property suites", ()),
}


def _read_line(argv):
    """The namespace that argparse builds for a line in canonical form, or
    None for any other line.  Canonical: a subcommand's name, then only its
    exact long options, none twice and every required one given; a valued
    option is followed by one value that does not begin with "-", passes
    its type (int() for --rank) and is one of its choices."""
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, options = COMMANDS[argv[0]]
    keywords = dict(options)
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        kw = keywords.get(flag)
        if kw is None or flag in given:
            return None
        if kw.get("action") == "store_true":
            given[flag] = True
            continue
        value = next(tokens, "-")  # a missing value reads as "-"
        if value.startswith("-"):
            return None
        if "type" in kw:
            try:
                value = kw["type"](value)
            except ValueError:
                return None
        if "choices" in kw and value not in kw["choices"]:
            return None
        given[flag] = value
    names = {"command": argv[0]}
    for flag, kw in options:
        if flag not in given and kw.get("required"):
            return None
        default = False if kw.get("action") == "store_true" else kw.get("default")
        names[flag[2:].replace("-", "_")] = given.get(flag, default)
    return types.SimpleNamespace(**names, func=func)


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
    args = _read_line(sys.argv[1:] if argv is None else argv)
    if args is None:
        from . import _usage
        args = _usage.build_parser(COMMANDS).parse_args(argv)
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
