"""Regenerate perfbench/catalog.json: the character labels of the face
groups that the local-wf workload draws its restriction files from.

The labels are part of the documented local-wf input format, so the catalog
is input data, not expected output.  Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_catalog.py
"""

import json
import os
import sys

from orbitcalc import CartanType
from orbitcalc import balacarter as bc
from orbitcalc import wavefront as wf

# systems whose every face is listed (random files, Steinberg and trivial
# patterns), and rank-5 faces listed one at a time (single-face files)
FULL_SYSTEMS = [("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
                ("C", 2), ("C", 3), ("C", 4), ("D", 2), ("D", 3), ("D", 4),
                ("G", 2)]
RANK5_FACES = [("A", (1, 2, 3, 4)), ("B", (0, 1, 2, 4, 5)),
               ("B", (0, 1, 2, 3, 5)), ("C", (0, 1, 2, 4, 5)),
               ("D", (0, 1, 2, 4, 5))]


def listify(x):
    return [listify(t) for t in x] if isinstance(x, tuple) else x


def face_record(ct, j, sign=None, triv=None):
    labels = [listify(e.label) for e in bc.pair_context(ct, j).irreps()]
    for iso in ("adjoint", "simply_connected"):
        other = CartanType(ct.series, ct.rank, iso)
        assert [listify(e.label) for e in bc.pair_context(other, j).irreps()] \
            == labels, "face labels differ between isogenies"
    rec = {"J": sorted(j), "labels": labels}
    if sign is not None:
        rec["sign"] = listify(sign)
        rec["trivial"] = listify(triv)
    return rec


def main():
    out = {"systems": {}, "rank5_faces": []}
    for series, rank in FULL_SYSTEMS:
        ct = CartanType(series, rank)
        st, tr = wf.steinberg_pattern(ct), wf.trivial_pattern(ct)
        out["systems"][f"{series}{rank}"] = [
            face_record(ct, j, st[j][0][0], tr[j][0][0])
            for j in bc.proper_subsets(ct)]
    for series, j in RANK5_FACES:
        rec = face_record(CartanType(series, 5), frozenset(j))
        out["rank5_faces"].append({"series": series, "rank": 5, **rec})
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "catalog.json")
    with open(path, "w") as fh:
        json.dump(out, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
