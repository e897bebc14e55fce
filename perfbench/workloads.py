"""Seeded invocation lists of the three workloads.

Each builder takes a random.Random and returns specs: dicts with the
orbitcalc arguments ("argv"), what the checks need to know about the
invocation, and for local-wf the restriction records ("data") that the
runner writes to a file before the first run.  The seed picks orbits,
characters, multiplicities and the order of the list; which systems and
faces are run is fixed, so the work per run hardly depends on the seed.
"""

from __future__ import annotations

import json
import os

import checks

ISOGENIES = ("adjoint", "simply_connected")
RANK2_4 = [(s, r) for s in "ABCD" for r in (2, 3, 4)] + [("G", 2)]
CATALOG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "catalog.json")

# local-wf: seeded files that name every face of these systems
RANDOM_FILE_SYSTEMS = [("B", 3, "simply_connected"), ("C", 3, "adjoint"),
                       ("D", 4, "simply_connected"), ("G", 2, "adjoint")]
# the known fault: an AssertionError in weylrep.induce_multiplicity
FAULT = {"series": "B", "J": [0, 1, 2, 3, 5], "label": [[[[2], [2]], 1], [2]]}


def _spec(command, series, rank, isogeny="adjoint", **extra):
    argv = [command, "--type", series, "--rank", str(rank), "--isogeny", isogeny, "--json"]
    return {"command": command, "series": series, "rank": rank,
            "isogeny": isogeny, "argv": argv, **extra}


def unramified(rng):
    """unramified --json for A/B/C/D ranks 2-4 and G2, both isogenies."""
    specs = [_spec("unramified", s, r, iso) for iso in ISOGENIES for s, r in RANK2_4]
    rng.shuffle(specs)
    return specs


def arthur(rng):
    """arthur-wf --json on adjoint systems: zero, regular and one seeded
    other dual orbit for every rank-2/3 system and G2; one seeded dual
    orbit each for B4 and C4."""
    specs = []

    def add(series, rank, key):
        d = checks.DUAL_SERIES[series]
        specs.append(_spec("arthur-wf", series, rank, dual_key=key))
        specs[-1]["argv"] += ["--dual-orbit", checks.label_of(d, key)]

    for series, rank in RANK2_4:
        d = checks.DUAL_SERIES[series]
        orbs = checks.orbits(d, rank)
        if rank == 4:
            if series in "BC":
                add(series, rank, rng.choice(orbs))
            continue
        zero, reg = checks.zero_orbit(d, rank), checks.regular_orbit(d, rank)
        for key in (zero, reg, rng.choice([o for o in orbs if o not in (zero, reg)])):
            add(series, rank, key)
    rng.shuffle(specs)
    return specs


def _record(face, labels, rng=None):
    return {"J": face["J"],
            "irreps": [{"label": lab, "mult": rng.randint(1, 3) if rng else 1}
                       for lab in labels]}


def local(rng):
    """local-wf --json on Steinberg and trivial patterns of the adjoint
    rank-4 systems, seeded random files naming every face of B3, C3, D4
    and G2, one seeded character on each of four small rank-5 faces, and
    the fault."""
    with open(CATALOG) as fh:
        catalog = json.load(fh)
    specs = []
    for series in "ABCD":
        faces = catalog["systems"][f"{series}4"]
        for kind in ("steinberg", "trivial"):
            data = [_record(f, [f["sign" if kind == "steinberg" else "trivial"]])
                    for f in faces]
            specs.append(_spec("local-wf", series, 4, kind=kind, data=data))
    for series, rank, iso in RANDOM_FILE_SYSTEMS:
        data = []
        for f in catalog["systems"][f"{series}{rank}"]:
            k = min(len(f["labels"]), rng.choice((1, 2)))
            data.append(_record(f, rng.sample(f["labels"], k), rng))
        rng.shuffle(data)
        specs.append(_spec("local-wf", series, rank, iso, kind="random", data=data))
    for f in catalog["rank5_faces"]:
        if f["series"] == FAULT["series"] and f["J"] == FAULT["J"]:
            if FAULT["label"] not in f["labels"]:
                raise ValueError("catalog.json lacks the fault's character")
            specs.append(_spec("local-wf", f["series"], 5, kind="fault",
                               data=[_record(f, [FAULT["label"]])]))
        else:
            specs.append(_spec("local-wf", f["series"], 5, kind="face",
                               data=[_record(f, [rng.choice(f["labels"])], rng)]))
    rng.shuffle(specs)
    return specs


WORKLOADS = {"unramified-cold": unramified, "arthur-wf-cold": arthur,
             "local-wf-cold": local}
