"""cli reads a table command's line without argparse (cli._read_line) and
hands any other line to the argparse parser of the same table (_usage)."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys

import pytest

from orbitcalc import _usage, cli

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PERFBENCH = os.path.join(os.path.dirname(SRC), "perfbench")

# a value of each valued option that passes its type and choices
VALUES = {"--type": "B", "--rank": "3", "--isogeny": "simply_connected",
          "--cache-dir": "store", "--dual-orbit": "2,1", "--data": "data.json"}


def _options(name):
    """(flag, value) of each option of a subcommand, value None for a
    flag that takes none."""
    return [(flag, None if kw.get("action") == "store_true" else VALUES[flag])
            for flag, kw in cli.COMMANDS[name][2]]


def _tokens(name, pairs):
    return [name] + [t for flag, value in pairs
                     for t in ((flag,) if value is None else (flag, value))]


def _corpus(rng):
    """(line, canonical) pairs: permuted, missing, repeated, abbreviated and
    =-joined options, empty values and values beginning with "-", invalid
    choices and ranks, and -h anywhere, for every subcommand."""
    yield [], False
    yield ["-h"], False
    yield ["frobnicate"], False
    yield ["--type", "B", "unramified", "--rank", "3"], False
    for name in cli.COMMANDS:
        opts = _options(name)
        keywords = dict(cli.COMMANDS[name][2])
        base = _tokens(name, opts)
        yield base, True
        for _ in range(12):
            yield _tokens(name, rng.sample(opts, len(opts))), True
        for i in range(len(base) + 1):
            yield base[:i] + ["-h"] + base[i:], False
        yield base + ["--help"], False
        yield base + ["extra"], False
        yield base + ["--"], False
        yield base + ["--frobnicate"], False
        for i, (flag, value) in enumerate(opts):
            kw = keywords[flag]
            others = opts[:i] + opts[i + 1:]
            yield _tokens(name, others), not kw.get("required")
            yield _tokens(name, opts + [(flag, value)]), False
            yield _tokens(name, others)[:1] + [flag[:4]] + ([value] if value else []) \
                + _tokens(name, others)[1:], False
            if value is None:
                yield _tokens(name, others + [(flag, "x")]), False
                continue
            yield _tokens(name, others) + [f"{flag}={value}"], False
            yield _tokens(name, others) + [flag], False
            yield _tokens(name, others + [(flag, "")]), not ("choices" in kw or "type" in kw)
            for bad in ("-1", "-x", "--json", "-h"):
                yield _tokens(name, others + [(flag, bad)]), False
            if "choices" in kw:
                for bad in ("Z", "b", "adj", "B "):
                    yield _tokens(name, others + [(flag, bad)]), False
            if "type" in kw:
                for rank, passes in (("x", False), ("3.0", False), ("3 ", True),
                                     ("+3", True), ("٣", True), ("1_0", True),
                                     ("0x3", False)):
                    yield _tokens(name, others + [(flag, rank)]), passes


def _argparse(parser, line):
    """vars() of argparse's namespace for the line, or None where it
    exits (help or a usage error)."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(line))
        except SystemExit:
            return None


def test_reader_agrees_with_argparse():
    """Wherever the reader answers, its namespace is argparse's, func
    included; it answers exactly the lines in canonical form."""
    parser = _usage.build_parser(cli.COMMANDS)
    lines = list(_corpus(random.Random(0)))
    for line, canonical in lines:
        ns = cli._read_line(line)
        assert (ns is not None) == canonical, line
        if ns is not None:
            assert vars(ns) == _argparse(parser, line), line
    assert sum(c for _, c in lines) > 80 and sum(not c for _, c in lines) > 300


def test_reader_answers_the_workloads_lines(monkeypatch, tmp_path):
    """Every invocation of the benchmark's three workloads, as perfbench
    runs it, is in canonical form."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(PERFBENCH)
    from workloads import WORKLOADS
    parser = _usage.build_parser(cli.COMMANDS)
    count = 0
    for name, build in WORKLOADS.items():
        for seed in range(3):
            for spec in build(random.Random(seed)):
                line = spec["argv"] + (["--data", str(tmp_path / "data.json")]
                                       if "data" in spec else [])
                line += ["--cache-dir", str(tmp_path / "store")]
                ns = cli._read_line(line)
                assert ns is not None, line
                assert vars(ns) == _argparse(parser, line), line
                count += 1
    assert count > 150


def test_main_falls_back_to_argparse(capsys):
    """A line out of canonical form that argparse accepts runs as the
    canonical line does."""
    outs = []
    for argv in (["unramified", "--type", "A", "--rank", "1"],
                 ["unramified", "--type=A", "--ra", "1", "--type", "A"]):
        assert cli.main(argv) == 0
        outs.append(capsys.readouterr())
    assert outs[0] == outs[1]


_MODULES = """
import json, sys
from orbitcalc import cli
try:
    rc = cli.main(sys.argv[1:])
except SystemExit as exc:
    rc = exc.code
loaded = [m for m in ("argparse", "gettext", "locale") if m in sys.modules]
print("loaded: " + json.dumps(loaded), file=sys.stderr)
sys.exit(rc)
"""


def _run(argv):
    """(exit code, stdout, stderr, which of argparse, gettext and locale
    the process loaded).  -S keeps .pth files from importing them first."""
    proc = subprocess.run([sys.executable, "-S", "-c", _MODULES, *argv],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC))
    err, _, report = proc.stderr.rpartition("loaded: ")
    return proc.returncode, proc.stdout, err, json.loads(report)


@pytest.mark.parametrize("kind", ["unramified", "arthur-wf", "local-wf"])
def test_table_commands_load_no_argparse(tmp_path, kind):
    """A miss and a hit of each stored command load neither argparse nor
    gettext and locale."""
    argv = [kind, "--type", "B", "--rank", "2", "--isogeny", "adjoint", "--json",
            "--cache-dir", str(tmp_path / "store")]
    if kind == "arthur-wf":
        argv += ["--dual-orbit", "2,2"]
    elif kind == "local-wf":
        data = tmp_path / "data.json"
        data.write_text('[{"J": [1, 2], "irreps": [{"label": [[[1], [1]]], "mult": 1}]}]')
        argv += ["--data", str(data)]
    runs = [_run(argv) for _ in ("miss", "hit")]
    assert runs[0] == runs[1]
    rc, out, err, loaded = runs[0]
    assert (rc, err, loaded) == (0, "", []) and out
    assert len(list((tmp_path / "store").iterdir())) == 1


@pytest.mark.parametrize("argv, code", [
    (["unramified", "--help"], 0),
    (["unramified", "--type", "A", "--rank", "x"], 2),
], ids=["help", "usage-error"])
def test_help_and_usage_errors_load_argparse(argv, code):
    rc, out, err, loaded = _run(argv)
    assert rc == code and "argparse" in loaded
    assert "usage: orbitcalc unramified" in out + err
