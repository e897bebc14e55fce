"""Frozen CLI outputs, compared byte for byte.

The files under tests/golden/cli are the `--json` stdout of
`unramified` (A-D at ranks 2-5, the enumeration cap, and G2, both
isogenies), of `orbits` and `dual-map` (A-D at ranks 2-6), and of
`local-wf` on the Steinberg and trivial restriction patterns (A-D at
ranks 2-4, G2, A5 and D5, both isogenies).  A change to any of them needs
a mathematical reason.

Regenerate with `PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest

from orbitcalc import cli
from orbitcalc import wavefront as wf
from orbitcalc.rootdata import CartanType

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "cli")
ISOGENIES = ("adjoint", "simply_connected")
TABLES = [(s, r) for s in "ABCD" for r in (2, 3, 4)] + [("G", 2)]
RANK5 = [(s, 5) for s in "ABCD"]
PATTERNS = {"steinberg": wf.steinberg_pattern, "trivial": wf.trivial_pattern}


def _cases():
    cases = [("unramified", s, r, iso, None) for s, r in TABLES + RANK5
             for iso in ISOGENIES]
    cases += [(cmd, s, r, "adjoint", None) for cmd in ("orbits", "dual-map")
              for s in "ABCD" for r in range(2, 7)]
    cases += [("local-wf", s, r, iso, pat) for s, r in TABLES + [("A", 5), ("D", 5)]
              for iso in ISOGENIES for pat in PATTERNS]
    return cases


def _name(case):
    cmd, s, r, iso, pat = case
    return f"{cmd}-{s}{r}-{iso}" + (f"-{pat}" if pat else "")


def _output(case) -> bytes:
    cmd, s, r, iso, pat = case
    argv = [cmd, "--type", s, "--rank", str(r), "--isogeny", iso, "--json"]
    buf = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if pat:
            data = PATTERNS[pat](CartanType(s, r, iso))
            path = os.path.join(tmp, "data.json")
            with open(path, "w") as fh:
                json.dump(wf.restriction_data_to_json(data), fh)
            argv += ["--data", path]
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    assert rc == 0, argv
    return buf.getvalue().encode()


@pytest.mark.parametrize("case", _cases(), ids=_name)
def test_cli_golden(case):
    with open(os.path.join(GOLDEN, _name(case) + ".json"), "rb") as fh:
        want = fh.read()
    assert _output(case) == want


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for case in _cases():
        with open(os.path.join(GOLDEN, _name(case) + ".json"), "wb") as fh:
            fh.write(_output(case))
