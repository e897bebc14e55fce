"""Frozen CLI outputs, compared byte for byte.

The files under tests/golden/cli are the `--json` stdout of
`unramified` (A-D at ranks 2-5, the enumeration cap, and G2, both
isogenies), of `orbits` and `dual-map` (A-D at ranks 2-6), and of
`local-wf` on the Steinberg and trivial restriction patterns (A-D at
ranks 2-4, G2, A5 and D5, both isogenies), and of `arthur-wf` (adjoint
A-D at ranks 2-4 and G2 on every dual orbit, B5 and C5 on the zero dual
orbit).  The `.txt` files are the text rendering of all five commands on
B3, D4 and G2, adjoint.  A change to any of them needs a mathematical
reason.

Regenerate with `PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest

from orbitcalc import cli
from orbitcalc import orbits
from orbitcalc import wavefront as wf
from orbitcalc.rootdata import CartanType

from oracles import restriction_data_to_json

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "cli")
ISOGENIES = ("adjoint", "simply_connected")
TABLES = [(s, r) for s in "ABCD" for r in (2, 3, 4)] + [("G", 2)]
RANK5 = [(s, 5) for s in "ABCD"]
PATTERNS = {"steinberg": wf.steinberg_pattern, "trivial": wf.trivial_pattern}
TEXT_SYSTEMS = [("B", 3), ("D", 4), ("G", 2)]
# file-name spelling of the orbit-label characters that are not [A-Za-z0-9-]
LABEL_CHARS = str.maketrans({",": ".", "(": "_", ")": "", "~": "t"})


def _dual_labels(s, r):
    return [o.label() for o in orbits.enumerate_orbits(CartanType(s, r).dual)]


def _arthur_cases(systems, text):
    return [("arthur-wf", s, r, "adjoint", label, text)
            for s, r in systems for label in _dual_labels(s, r)]


def _cases():
    """(command, series, rank, isogeny, pattern or dual orbit, text?)."""
    cases = [("unramified", s, r, iso, None, False) for s, r in TABLES + RANK5
             for iso in ISOGENIES]
    cases += [(cmd, s, r, "adjoint", None, False) for cmd in ("orbits", "dual-map")
              for s in "ABCD" for r in range(2, 7)]
    cases += [("local-wf", s, r, iso, pat, False)
              for s, r in TABLES + [("A", 5), ("D", 5)]
              for iso in ISOGENIES for pat in PATTERNS]
    cases += _arthur_cases(TABLES, False)
    cases += [("arthur-wf", s, 5, "adjoint",
               orbits.zero_orbit(CartanType(s, 5).dual).label(), False) for s in "BC"]
    cases += [(cmd, s, r, "adjoint", None, True)
              for cmd in ("orbits", "dual-map", "unramified") for s, r in TEXT_SYSTEMS]
    cases += [("local-wf", s, r, "adjoint", pat, True)
              for s, r in TEXT_SYSTEMS for pat in PATTERNS]
    cases += _arthur_cases(TEXT_SYSTEMS, True)
    return cases


def _name(case):
    cmd, s, r, iso, extra, text = case
    name = f"{cmd}-{s}{r}-{iso}"
    if extra:
        name += "-" + extra.translate(LABEL_CHARS)
    return name + ("-text" if text else "")


def _path(case):
    return os.path.join(GOLDEN, _name(case) + (".txt" if case[-1] else ".json"))


def _output(case) -> bytes:
    cmd, s, r, iso, extra, text = case
    argv = [cmd, "--type", s, "--rank", str(r), "--isogeny", iso]
    if not text:
        argv.append("--json")
    if cmd == "arthur-wf":
        argv += ["--dual-orbit", extra]
    buf = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if cmd == "local-wf":
            data = PATTERNS[extra](CartanType(s, r, iso))
            path = os.path.join(tmp, "data.json")
            with open(path, "w") as fh:
                json.dump(restriction_data_to_json(data), fh)
            argv += ["--data", path]
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    assert rc == 0, argv
    return buf.getvalue().encode()


@pytest.mark.parametrize("case", _cases(), ids=_name)
def test_cli_golden(case):
    with open(_path(case), "rb") as fh:
        want = fh.read()
    assert _output(case) == want


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for case in _cases():
        with open(_path(case), "wb") as fh:
            fh.write(_output(case))
