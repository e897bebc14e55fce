"""A miss of the stored commands, unramified, arthur-wf and local-wf: the
query checked, looked up once more where its key changed, computed,
stored and printed.

cli, the store's front, serves a hit from the line as given and imports
this module only on a miss, so that a hit neither compiles it nor
executes cartantype.  serve first validates the system through
CartanType, so that checks, warnings, errors and exit codes come in the
order of a run without a store.  Where validating changed the key (B1
and C1 are A1) it looks once more.  So it does for --dual-orbit text
that is not its orbit's canonical label ("2, 2"): an earlier miss may
have stored the label's entry, which is then printed and stored under
the typed text.  Only then does it compute the payload (the --json
fields and the text rendering) and store it.  Once that write succeeds
it fills the entries a later query of the system is likely to ask for:
for arthur-wf those of the system's other dual orbits, for unramified
the table of the system's other isogeny.  The unramified classes depend
on the isogeny only through what Omega = P^v/Q^v moves, so the two
tables differ only in the classes they count (classes, and each row's
members).  Storing the second took 0.5-7 ms at ranks 2-5 in a process
that had compiled the library, where a miss of its own compiles the
library again.  Every entry is keyed with the key that cli built, so
that the sources are read once.

It is not one of the package's lazily loaded submodules
(orbitcalc/__init__.py), and it does not import cli, which `python -m
orbitcalc.cli` runs as __main__: serve is handed the cli module itself.
_storeless imports it for cartan_type.
"""

import io
import json
import os

from . import duality as du
from . import orbits
from . import partitions as pt
from . import wavefront as wf
from .cartantype import ABCError, CartanType, CharError, RootDataError, UsageError


def cartan_type(args) -> CartanType:
    """The validated, normalised system of a command line."""
    try:
        return CartanType(args.type, args.rank, args.isogeny)
    except RootDataError as exc:
        raise UsageError(str(exc))


# quoted: orbits is a lazily loaded module, which the annotation would run
def parse_orbit(ct: CartanType, text: str) -> "orbits.NilpotentOrbit":
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


def serve(cli, args, kind, inputs, entry):
    """Print the payload of `kind` for the query that cli's front missed,
    and store it.  cli is the front module; entry is the (key, path) it
    built from the line as given, None without a store; inputs is None
    for a --data file that cli could not read, read again here once the
    system is checked."""
    ct = cartan_type(args)
    if inputs is None and kind == "local-wf":
        with open(args.data, "rb") as fh:
            inputs = fh.read().decode("latin-1")
        entry = cli._store_entry(args, kind, ct, inputs)
    elif entry and entry[0]["system"] != list(ct):  # B1 or C1, read as A1
        entry = cli._store_entry(args, kind, ct, inputs, entry[0])
        payload = cli.cache_load(args, kind, ct, inputs, entry)
        if payload is not None:
            return cli._write(args, payload)
    if kind == "unramified":
        payload = unramified_payload(ct)
    elif kind == "arthur-wf":
        dual = parse_orbit(ct.dual, inputs)
        label = dual.label()
        if entry and label != inputs:
            payload = cli.cache_load(args, kind, ct, label,
                                     cli._store_entry(args, kind, ct, label, entry[0]))
            if payload is not None:
                cli.cache_store(args, kind, ct, payload, inputs, entry)
                return cli._write(args, payload)
        payload = arthur_wf_payload(ct, dual)
    else:
        try:
            data = restriction_data(inputs.encode("latin-1"))
        except (ValueError, TypeError, KeyError, RecursionError) as exc:
            raise UsageError(f"{args.data} is not restriction data "
                             f"({type(exc).__name__}: {exc})") from None
        payload = local_wf_payload(ct, data)
    if cli.cache_store(args, kind, ct, payload, inputs, entry) and kind in _FILLS:
        _FILLS[kind](cli, args, ct, entry[0])
    return cli._write(args, payload)


def unramified_payload(ct: CartanType):
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


def arthur_wf_payload(ct: CartanType, dual):
    """The payload of arthur-wf for ct and the dual-side orbit `dual`."""
    res = wf.arthur_wf(ct, dual)
    return {"command": "arthur-wf", "series": ct.series, "rank": ct.rank,
            "isogeny": ct.isogeny, "dual_orbit": dual.to_json(),
            **res.to_json(),
            "text": f"spherical representation of {ct} with dual-side "
                    f"parameter {dual.label()}:\n  {res}\n"}


def _store_arthur_wf_family(cli, args, ct: CartanType, key):
    """Store the arthur-wf payload of every dual orbit of ct under its
    canonical label, with keys built from key.  Skips a label whose entry
    exists and a dual orbit whose payload raises (its query still raises);
    the first failed write ends the loop."""
    for dual in orbits.enumerate_orbits(ct.dual):
        entry = cli._store_entry(args, "arthur-wf", ct, dual.label(), key)
        if os.path.exists(entry[1]):
            continue
        try:
            payload = arthur_wf_payload(ct, dual)
        except (du.DualityError, CharError, wf.WavefrontError):
            continue
        if not cli.cache_store(args, "arthur-wf", ct, payload, entry=entry):
            return


def _store_other_isogeny(cli, args, ct: CartanType, key):
    """Store the unramified payload of ct in its other isogeny, with a key
    built from key.  Skips an entry that exists and a payload that raises
    (its query still raises)."""
    other = ct._replace(isogeny=ct.dual.isogeny)
    entry = cli._store_entry(args, "unramified", other, None, key)
    if os.path.exists(entry[1]):
        return
    try:
        payload = unramified_payload(other)
    except (du.DualityError, CharError, ABCError, orbits.OrbitError):
        return
    cli.cache_store(args, "unramified", other, payload, entry=entry)


# what a stored miss of each kind also stores, given the served key
_FILLS = {"arthur-wf": _store_arthur_wf_family, "unramified": _store_other_isogeny}


def restriction_data(raw: bytes):
    """The restriction records of a --data file's bytes, decoded as open()
    in text mode would.  Raises ValueError, TypeError, KeyError or (for
    JSON nested past the interpreter's recursion limit) RecursionError on
    bytes that are not restriction data."""
    text = io.TextIOWrapper(io.BytesIO(raw)).read()
    return wf.restriction_data_from_json(json.loads(text))


def local_wf_payload(ct: CartanType, data):
    """The payload of local-wf for ct and parsed restriction records."""
    res = wf.local_wf(ct, data)
    return {"command": "local-wf", "series": ct.series, "rank": ct.rank,
            "isogeny": ct.isogeny, **res.to_json(), "text": f"{res}\n"}
