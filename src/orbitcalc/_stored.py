"""The payloads of the stored commands, unramified, arthur-wf and local-wf:
what a miss computes, as the --json fields and the text rendering.

cli imports this module only on a miss, so that a store hit never compiles
it.  It is not one of the package's lazily loaded submodules
(orbitcalc/__init__.py), and it does not import cli, which
`python -m orbitcalc.cli` runs as __main__: cli parses the --dual-orbit
text and turns an unparsable --data file into its usage error.
"""

from __future__ import annotations

import io
import json
import os

from . import duality as du
from . import orbits
from . import wavefront as wf
from .cartantype import CartanType, CharError


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


def store_arthur_wf_family(ct: CartanType, entry_of, store):
    """Store the arthur-wf payload of every dual orbit of ct at
    entry_of(label), its (key, path) under the canonical label, with
    store(payload, entry), which says whether it wrote.  Skips a label
    whose entry exists and a dual orbit whose payload raises (its query
    still raises); the first failed write ends the loop."""
    for dual in orbits.enumerate_orbits(ct.dual):
        entry = entry_of(dual.label())
        if os.path.exists(entry[1]):
            continue
        try:
            payload = arthur_wf_payload(ct, dual)
        except (du.DualityError, CharError, wf.WavefrontError):
            continue
        if not store(payload, entry):
            return


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
