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
recomputed.

This module is the store's front.  It builds a query's key from the line
as given (series, rank and isogeny as typed) and prints the entry stored
under it without validating the system: an entry is only ever written
under a validated, normalised system, and cache_load compares the whole
key.  So a store hit executes orbitcalc/__init__.py and this module and
nothing else, not even cartantype.  Only a miss (no store, no entry, or a
--data file that cannot be read) imports orbitcalc/_stored.py, which
validates the system, looks once more under the normalised key or the
orbit's canonical label, then computes, stores and fills with the key
built here: an arthur-wf miss also stores the system's other dual orbits,
an unramified miss the system's table in the other isogeny, each far
cheaper in the process that has compiled the library than as a miss of
its own.  The bodies of orbits, dual-map and selftest live in
orbitcalc/_storeless.py.  Neither imports cli, which `python -m
orbitcalc.cli` runs as __main__: cli hands _stored the module itself.
The mathematical modules appear here only as the lazily loaded module
objects (see orbitcalc/__init__.py) whose error classes main maps.

Exit codes: 0 success, 1 computational error, 2 usage error (also for
arguments and data files that cannot be parsed).
"""

import atexit
import gc
import io
import json
import os
import sys
import types
import zlib

# each runs on first use (see __init__): main names their error classes
# only when an error reaches it
from . import __version__, cartantype
from . import duality as du
from . import orbits
from . import partitions as pt
from . import wavefront as wf

SCHEMA_VERSION = 1


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


def _store_key(kind, system, inputs):
    return {"command": kind, "system": list(system), "inputs": inputs,
            "schema": SCHEMA_VERSION, "version": __version__,
            "source": source_checksum()}


def _cache_path(cdir, kind, system, key):
    series, rank, isogeny = system
    digest = zlib.crc32(json.dumps(key, sort_keys=True).encode())
    name = (f"{kind}-{series}{rank}-{isogeny}-v{SCHEMA_VERSION}"
            f"-{digest:08x}.json")
    return os.path.join(cdir, name)


def _store_entry(args, kind, system, inputs, key=None):
    """The (key, path) of the store entry of `kind` for system, a
    (series, rank, isogeny) such as a CartanType, and inputs, or None
    without a store.  Given the key of another entry of kind, only the
    system and inputs change: the sources are read once."""
    cdir = _cache_dir(args)
    if not cdir:
        return None
    if key:
        key = {**key, "system": list(system), "inputs": inputs}
    else:
        key = _store_key(kind, system, inputs)
    return key, _cache_path(cdir, kind, system, key)


def cache_load(args, kind, system, inputs=None, entry=None):
    """The stored payload of `kind` for system and inputs (with its
    "schema"), or None.  inputs is what the key records beside the system:
    the --dual-orbit text or the --data file's bytes read as latin-1.
    entry is their _store_entry, when the caller has built it."""
    entry = entry or _store_entry(args, kind, system, inputs)
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


def cache_store(args, kind, system, payload, inputs=None, entry=None):
    """Store payload as the entry of `kind` for system and inputs (or at
    entry); returns whether it was written."""
    entry = entry or _store_entry(args, kind, system, inputs)
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


def _serve(args, kind, inputs):
    """Print the payload of `kind` for the line's system and inputs from
    the store, or hand the query to _stored with the entry built here (the
    key's source_checksum reads every source file)."""
    system = (args.type, args.rank, args.isogeny)
    entry = _store_entry(args, kind, system, inputs)
    payload = cache_load(args, kind, system, inputs, entry)
    if payload is None:
        return _miss(args, kind, inputs, entry)
    return _write(args, payload)


def _miss(args, kind, inputs, entry):
    from . import _stored
    return _stored.serve(sys.modules[__name__], args, kind, inputs, entry)


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
    from . import _storeless
    return _write(args, _storeless.orbits_payload(args))


def cmd_dual_map(args):
    from . import _storeless
    return _write(args, _storeless.dual_map_payload(args))


def cmd_unramified(args):
    return _serve(args, "unramified", None)


def cmd_arthur_wf(args):
    return _serve(args, "arthur-wf", args.dual_orbit)


def cmd_local_wf(args):
    try:
        with open(args.data, "rb") as fh:
            inputs = fh.read().decode("latin-1")
    except OSError:
        # a miss: _stored reads the file again once the system is checked,
        # so that a usage error still comes first
        return _miss(args, "local-wf", None, None)
    return _serve(args, "local-wf", inputs)


def cmd_selftest(args):
    from . import _storeless
    return _storeless.selftest()


# ---------------------------------------------------------------------

def _rank(text):
    """int() of a rank in ASCII digits, with an optional "-" first (so
    that --rank -3 stays the system check's usage error).  int() alone
    also takes "3 ", "+3", "1_0" and the digits of other scripts."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid literal for int(): {text!r}")
    return int(text)


_rank.__name__ = "int"  # argparse names the type: invalid int value: 'x'

# The grammar of every subcommand, read by _read_line and by the argparse
# parser that _usage builds from it: name -> (handler, help, options), each
# option a long flag and its add_argument keywords.
_COMMON = (
    ("--type", {"required": True, "choices": list("ABCDG"),
                "help": "series of the root system"}),
    ("--rank", {"required": True, "type": _rank}),
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
    its type (ASCII digits for --rank) and is one of its choices."""
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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # last, since naming these classes loads their modules
    except cartantype.UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (orbits.OrbitError, pt.PartitionError, cartantype.CharError,
            du.DualityError, wf.WavefrontError, cartantype.ABCError,
            cartantype.RootDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
