import errno
import gc
import json
import os
import shutil
import stat
import subprocess
import sys
import types
import warnings

import pytest

from orbitcalc import cli
from orbitcalc.rootdata import CartanType

from oracles import restriction_data_to_json

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def _src_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def test_unramified_g2(capsys):
    rc, out, err = run(capsys, "unramified", "--type", "G", "--rank", "2", "--json")
    assert rc == 0
    data = json.loads(out)
    assert data["schema"] == cli.SCHEMA_VERSION
    assert data["abc_pairs"] == 8
    assert data["classes"] == 7
    assert len(data["rows"]) == 7
    names = sorted(r["class_name"] for r in data["rows"])
    assert names.count("(12)") == 1 and names.count("(123)") == 1
    subreg = [r for r in data["rows"] if r["orbit_label"] == "G2(a1)"]
    assert {r["dual_orbit_label"] for r in subreg} == {"A1", "A1~", "G2(a1)"}


def test_arthur_wf_a2(capsys):
    rc, out, _ = run(capsys, "arthur-wf", "--type", "A", "--rank", "2",
                     "--dual-orbit", "2,1", "--json")
    assert rc == 0
    data = json.loads(out)
    assert data["geometric"] == [{"series": "A", "rank": 2, "partition": [2, 1]}]


def test_orbits_b3(capsys):
    rc, out, _ = run(capsys, "orbits", "--type", "B", "--rank", "3", "--json")
    assert rc == 0
    data = json.loads(out)
    assert len(data["orbits"]) == 7
    assert len(data["hasse"]) == 6


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["orbits", "--type", "Z", "--rank", "3"])
    assert exc.value.code == 2
    rc, _, err = run(capsys, "orbits", "--type", "G", "--rank", "3")
    assert rc == 2 and "rank" in err


def test_computational_error_exit_1(capsys):
    rc, _, err = run(capsys, "arthur-wf", "--type", "B", "--rank", "2",
                     "--dual-orbit", "3,1")
    assert rc == 1 and "error" in err


def test_non_adjoint_arthur_rejected(capsys):
    rc, _, err = run(capsys, "arthur-wf", "--type", "A", "--rank", "1",
                     "--isogeny", "simply_connected", "--dual-orbit", "1,1")
    assert rc == 1
    assert "adjoint" in err


def test_cache_roundtrip_byte_identical(tmp_path, capsys):
    args = ["unramified", "--type", "B", "--rank", "2", "--json",
            "--cache-dir", str(tmp_path)]
    rc1, out1, _ = run(capsys, *args)
    files = list(tmp_path.iterdir())
    assert rc1 == 0 and len(files) == 1
    rc2, out2, _ = run(capsys, *args)
    assert rc2 == 0
    assert out1 == out2


def test_cache_corrupt_recovers(tmp_path, capsys):
    args = ["unramified", "--type", "A", "--rank", "2", "--json",
            "--cache-dir", str(tmp_path)]
    rc1, out1, _ = run(capsys, *args)
    path = next(tmp_path.iterdir())
    other = tmp_path / "other"
    run(capsys, "unramified", "--type", "A", "--rank", "1", "--json",
        "--cache-dir", str(other))
    a1_table = next(other.iterdir()).read_text()
    text_not_str = json.dumps({**json.loads(path.read_text()), "text": 5})
    # not JSON, not an object, no table, the table of another system, and a
    # text rendering that is not a string
    for text in ("{ not json", "[]", json.dumps({"schema": cli.SCHEMA_VERSION}),
                 a1_table, text_not_str):
        path.write_text(text)
        rc2, out2, err = run(capsys, *args)
        assert rc2 == 0, text
        assert out1 == out2, text
        assert "corrupt" in err, text


def test_cache_text_not_a_string_recomputed(tmp_path, capsys):
    """A text-mode hit on an entry whose text rendering is not a string
    warns and prints what a miss prints."""
    args = ["unramified", "--type", "A", "--rank", "2", "--cache-dir", str(tmp_path)]
    rc1, out1, _ = run(capsys, *args)
    path = next(tmp_path.iterdir())
    path.write_text(json.dumps({**json.loads(path.read_text()), "text": 5}))
    rc2, out2, err = run(capsys, *args)
    assert rc1 == rc2 == 0
    assert out2 == out1 and "corrupt" in err


def test_cache_version_bump_invalidates(tmp_path, capsys):
    args = ["unramified", "--type", "A", "--rank", "1", "--json",
            "--cache-dir", str(tmp_path)]
    run(capsys, *args)
    old = {p.name for p in tmp_path.iterdir()}
    assert old and all(f"v{cli.SCHEMA_VERSION}" in n for n in old)
    # a different version never collides with the current name
    bumped = next(iter(old)).replace(f"v{cli.SCHEMA_VERSION}",
                                     f"v{cli.SCHEMA_VERSION + 1}")
    assert bumped not in old


def test_cache_readonly_dir_warns(tmp_path, capsys):
    ro = tmp_path / "ro"
    ro.mkdir()
    os.chmod(ro, stat.S_IRUSR | stat.S_IXUSR)
    try:
        rc, out, err = run(capsys, "unramified", "--type", "A", "--rank", "1",
                           "--json", "--cache-dir", str(ro))
        assert rc == 0
        assert json.loads(out)["rows"]
        assert "cache not writable" in err or os.access(ro, os.W_OK)
    finally:
        os.chmod(ro, stat.S_IRWXU)


def test_cache_write_failing_partway_leaves_no_partial_file(tmp_path, capsys,
                                                           monkeypatch):
    """A store that dies mid-write leaves the previous file or none, and no
    temporary file, at the cache path."""
    real_open = open

    class HalfWriter:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:len(text) // 2])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    def store_failing(payload):
        with monkeypatch.context() as m:
            m.setattr(cli, "open", lambda *a, **k: HalfWriter(real_open(*a, **k)),
                      raising=False)
            cli.cache_store(args, "unramified", ct, payload)
        assert "cache not writable" in capsys.readouterr().err

    args = types.SimpleNamespace(cache_dir=str(tmp_path))
    ct = CartanType("A", 1)
    first = {"schema": cli.SCHEMA_VERSION, **cli._unramified_payload(ct)}
    store_failing(first)
    assert list(tmp_path.iterdir()) == []
    assert cli.cache_load(args, "unramified", ct) is None
    cli.cache_store(args, "unramified", ct, first)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    store_failing({**first, "rows": ["second"] * 100})
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert cli.cache_load(args, "unramified", ct) == first


def test_payload_keys_are_what_unramified_writes():
    payload = cli._unramified_payload(CartanType("A", 1))
    assert set(payload) == cli.PAYLOAD_KEYS["unramified"]


@pytest.mark.parametrize("argv, data, code", [
    # unparsable arguments and data files: usage errors
    (["arthur-wf", "--dual-orbit", "x"], None, 2),
    (["arthur-wf", "--dual-orbit", "2,,1"], None, 2),
    (["arthur-wf", "--dual-orbit", ",2,1"], None, 2),
    (["arthur-wf", "--dual-orbit", "2,1,"], None, 2),
    (["arthur-wf", "--dual-orbit", "+2,1"], None, 2),
    (["arthur-wf", "--dual-orbit", "\uff12,\uff11"], None, 2),
    (["arthur-wf", "--dual-orbit", "2_1,1"], None, 2),
    (["arthur-wf", "--dual-orbit", ""], None, 2),
    (["arthur-wf", "--dual-orbit", "1 2"], None, 2),
    (["local-wf"], "{ not json", 2),
    (["local-wf"], '{"J": [0]}', 2),
    (["local-wf"], '[{"J": [0]}]', 2),
    (["local-wf"], '[{"J": [0], "irreps": [{"label": [2, 1], "mult": "x"}]}]', 2),
    (["local-wf"], '[{"J": [1, 2], "irreps": [{"label": [[3]], "mult": 1.9}]}]', 2),
    (["local-wf"], '[{"J": [1, 2], "irreps": [{"label": [[3]], "mult": true}]}]', 2),
    (["local-wf"], '[{"J": "12", "irreps": [{"label": [[3]], "mult": 1}]}]', 2),
    (["local-wf"], '[{"J": [1.0, 2], "irreps": [{"label": [[3]], "mult": 1}]}]', 2),
    (["local-wf"], '[{"J": [1, 2], "irreps": [{"label": [[1, 1, 1]], "mult": 1}]}, '
                   '{"J": [2, 1], "irreps": [{"label": [[3]], "mult": 1}]}]', 2),
    (["local-wf"], '[{"J": [1, 1], "irreps": [{"label": [[2]], "mult": 1}]}]', 2),
    (["local-wf"], '[{"J": [1], "irreps": [{"label": null, "mult": 1}]}]', 2),
    (["local-wf"], '[{"J": [1], "irreps": [{"label": [{"a": 1}], "mult": 1}]}]', 2),
    (["local-wf"], '[{"J": [1], "irreps": [{"label": [[1.0, 1]], "mult": 1}]}]', 2),
    (["local-wf"], '[{"J": [1], "irreps": [{"label": [[true, 1]], "mult": 1}]}]', 2),
    # well-formed input naming what does not exist: computational errors
    (["arthur-wf", "--dual-orbit", "2,2"], None, 1),
    (["local-wf"], '[{"J": [9], "irreps": [{"label": [2, 1], "mult": 1}]}]', 1),
    (["local-wf"], '[{"J": [0], "irreps": [{"label": [7], "mult": 1}]}]', 1),
], ids=["orbit", "orbit-empty-field", "orbit-leading-comma",
        "orbit-trailing-comma", "orbit-sign", "orbit-fullwidth", "orbit-underscore",
        "orbit-empty", "orbit-inner-space", "not-json", "not-a-list", "no-irreps", "mult",
        "mult-float", "mult-bool", "J-string", "J-float", "J-repeated",
        "J-repeated-node", "label-null", "label-object", "label-float", "label-bool", "wrong-total", "unknown-face", "unknown-character"])
def test_bad_input_exit_code(tmp_path, capsys, argv, data, code):
    if data is not None:
        f = tmp_path / "data.json"
        f.write_text(data)
        argv = argv + ["--data", str(f)]
    rc, out, err = run(capsys, *argv, "--type", "A", "--rank", "2")
    assert rc == code
    assert err.startswith("usage error: " if code == 2 else "error: ")
    assert out == ""


with open(os.path.join(GOLDEN, "usage.json")) as fh:
    USAGE = json.load(fh)


@pytest.mark.parametrize("name", sorted(USAGE))
def test_usage_golden(capsys, monkeypatch, name):
    """--help of the top-level parser and of each subcommand, and command
    lines argparse refuses, print byte for byte what they printed when
    every subcommand's arguments were built up front.  tests/golden/usage.json
    is argparse's text at 80 columns on Python 3.10 to 3.13.0 (later
    versions print the choices of an invalid-choice error unquoted)."""
    case = USAGE[name]
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = cli.main(list(case["argv"]))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (case["code"], case["stdout"], case["stderr"])


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ORBITCALC_CACHE", str(tmp_path))
    rc, _, _ = run(capsys, "unramified", "--type", "A", "--rank", "1", "--json")
    assert rc == 0
    assert list(tmp_path.iterdir())


def test_local_wf_from_file(tmp_path, capsys):
    from orbitcalc.rootdata import CartanType
    from orbitcalc import wavefront as wfmod
    data = wfmod.steinberg_pattern(CartanType("B", 2))
    f = tmp_path / "data.json"
    f.write_text(json.dumps(restriction_data_to_json(data)))
    rc, out, _ = run(capsys, "local-wf", "--type", "B", "--rank", "2",
                     "--data", str(f), "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["geometric"] == [{"series": "B", "rank": 2, "partition": [5]}]


def test_dual_map(capsys):
    rc, out, _ = run(capsys, "dual-map", "--type", "G", "--rank", "2", "--json")
    assert rc == 0
    data = json.loads(out)
    ls = {r["orbit"]: r["dual_ls"] for r in data["lusztig_spaltenstein"]}
    assert ls == {"0": "G2", "A1": "G2(a1)", "A1~": "G2(a1)",
                  "G2(a1)": "G2(a1)", "G2": "0"}


def test_selftest(capsys):
    rc, out, _ = run(capsys, "selftest")
    assert rc == 0
    assert "FAIL" not in out


def test_selftest_reports_a_broken_suite(capsys, monkeypatch):
    from orbitcalc import partitions as pt
    # a wrong oracle must fail the partition suite, also under python -O
    monkeypatch.setattr(pt, "collapse_oracle", lambda p, series, rank: ())
    rc, out, _ = run(capsys, "selftest")
    assert rc == 1
    assert "FAIL: partition collapse vs oracle" in out


def test_local_wf_b5_d4xa1_degenerate_character(tmp_path):
    """The face D4xA1 of B5 with a degenerate D4 character runs cleanly."""
    f = tmp_path / "data.json"
    f.write_text(json.dumps(
        [{"J": [0, 1, 2, 3, 5], "irreps": [{"label": [[[[2], [2]], 1], [2]], "mult": 1}]}]))
    proc = subprocess.run(
        [sys.executable, "-m", "orbitcalc.cli", "local-wf", "--type", "B", "--rank", "5",
         "--data", str(f), "--json"], capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["canonical"]


# ---------------------------------------------------------------------
# the result store shared by unramified, arthur-wf and local-wf
# ---------------------------------------------------------------------

STORED = ("unramified", "arthur-wf", "local-wf")
MATH = ("balacarter", "weylrep", "chartab", "duality", "wavefront", "orbits",
        "partitions")


def _query(tmp_path, kind, variant=0):
    """(argv, system, key inputs) of a query of `kind` on B2; variants
    differ in their inputs only."""
    ct = CartanType("B", 2)
    argv = [kind, "--type", "B", "--rank", "2"]
    if kind == "unramified":
        return argv, ct, None
    if kind == "arthur-wf":
        orbit = ("2,2", "1,1,1,1")[variant]
        return argv + ["--dual-orbit", orbit], ct, orbit
    from orbitcalc import wavefront as wfmod
    pattern = (wfmod.steinberg_pattern, wfmod.trivial_pattern)[variant]
    f = tmp_path / f"data{variant}.json"
    f.write_text(json.dumps(restriction_data_to_json(pattern(ct))))
    return argv + ["--data", str(f)], ct, f.read_bytes().decode("latin-1")


def _entry_path(store, kind, ct, inputs):
    return cli._cache_path(str(store), kind, ct, cli._store_key(kind, ct, inputs))


@pytest.mark.parametrize("kind", STORED)
def test_store_hit_prints_what_a_miss_prints(tmp_path, capsys, kind):
    argv, _, _ = _query(tmp_path, kind)
    plain = {mode: run(capsys, *argv, *mode) for mode in (("--json",), ())}
    assert all(rc == 0 and out and err == "" for rc, out, err in plain.values())
    # a miss, a hit in the same rendering, a hit in the other: one entry
    # serves both
    for first, second in [(("--json",), ()), ((), ("--json",))]:
        store = tmp_path / f"store{len(first)}"
        for mode in (first, first, second):
            assert run(capsys, *argv, *mode, "--cache-dir", str(store)) == plain[mode]
        assert len(list(store.iterdir())) == 1


@pytest.mark.parametrize("kind", STORED)
def test_store_truncated_entry_recomputed(tmp_path, capsys, kind):
    argv, ct, inputs = _query(tmp_path, kind)
    argv += ["--json", "--cache-dir", str(tmp_path / "store")]
    rc, out, _ = run(capsys, *argv)
    path = _entry_path(tmp_path / "store", kind, ct, inputs)
    with open(path, "rb") as fh:
        whole = fh.read()
    with open(path, "r+b") as fh:
        fh.truncate(len(whole) // 2)
    rc2, out2, err2 = run(capsys, *argv)
    assert (rc2, out2) == (rc, out) and "corrupt" in err2
    # recomputed and stored whole again
    with open(path, "rb") as fh:
        assert fh.read() == whole
    assert run(capsys, *argv) == (rc, out, "")


@pytest.mark.parametrize("kind", ["arthur-wf", "local-wf"])
def test_store_refuses_another_querys_entry(tmp_path, capsys, kind):
    """An entry found at a query's path that records other inputs (a CRC
    collision of the file name, or a copied file) is not served."""
    store = tmp_path / "store"
    argv0, ct, inputs0 = _query(tmp_path, kind, 0)
    argv1, _, inputs1 = _query(tmp_path, kind, 1)
    _, out0, _ = run(capsys, *argv0, "--json", "--cache-dir", str(store))
    rc, out1, _ = run(capsys, *argv1, "--json")
    assert out1 != out0
    other = _entry_path(store, kind, ct, inputs1)
    with open(_entry_path(store, kind, ct, inputs0), "rb") as src, \
            open(other, "wb") as dst:
        dst.write(src.read())
    rc2, out2, err = run(capsys, *argv1, "--json", "--cache-dir", str(store))
    assert (rc2, out2) == (rc, out1)
    assert "corrupt" in err and "holds the entry for another inputs" in err


@pytest.mark.parametrize("bump", ["version", "source"])
def test_store_entry_of_other_code_is_a_miss(tmp_path, capsys, monkeypatch, bump):
    """A new package version or any edit of the sources gives new keys: the
    old entry is left in place and not read."""
    argv, ct, inputs = _query(tmp_path, "arthur-wf")
    argv += ["--json", "--cache-dir", str(tmp_path)]
    ns = types.SimpleNamespace(cache_dir=str(tmp_path))
    rc, out, _ = run(capsys, *argv)
    assert cli.cache_load(ns, "arthur-wf", ct, inputs) is not None
    if bump == "version":
        monkeypatch.setattr(cli, "__version__", cli.__version__ + "+1")
    else:
        checksum = cli.source_checksum
        monkeypatch.setattr(cli, "source_checksum", lambda: checksum() ^ 1)
    assert cli.cache_load(ns, "arthur-wf", ct, inputs) is None
    assert run(capsys, *argv) == (rc, out, "")
    assert len(list(tmp_path.iterdir())) == 2


def test_source_checksum_covers_every_source_file(tmp_path, monkeypatch):
    pkg = os.path.join(SRC, "orbitcalc")
    copy = tmp_path / "orbitcalc"
    copy.mkdir()
    names = sorted(n for n in os.listdir(pkg) if n.endswith(".py"))
    for n in names:
        shutil.copyfile(os.path.join(pkg, n), copy / n)
    monkeypatch.setattr(cli, "__file__", str(copy / "cli.py"))
    seen = {cli.source_checksum()}
    for n in names:
        with open(copy / n, "a") as fh:
            fh.write("\n")
        seen.add(cli.source_checksum())
    assert len(seen) == len(names) + 1


_WRITER = """
import json, sys, time, types
from orbitcalc import cli
from orbitcalc.rootdata import CartanType
args = types.SimpleNamespace(cache_dir=sys.argv[1])
with open(sys.argv[2]) as fh:
    payload = json.load(fh)
end = time.monotonic() + float(sys.argv[3])
while time.monotonic() < end:
    cli.cache_store(args, "unramified", CartanType("A", 1), payload)
"""

_READER = """
import json, sys, time, types
from orbitcalc import cli
from orbitcalc.rootdata import CartanType
args = types.SimpleNamespace(cache_dir=sys.argv[1])
variants = []
for path in sys.argv[3:]:
    with open(path) as fh:
        variants.append({"schema": cli.SCHEMA_VERSION, **json.load(fh)})
seen = {"miss": 0, "whole": 0}
end = time.monotonic() + float(sys.argv[2])
while time.monotonic() < end:
    got = cli.cache_load(args, "unramified", CartanType("A", 1))
    if got is None:
        seen["miss"] += 1
    elif got in variants:
        seen["whole"] += 1
    else:
        sys.exit("read an entry that neither writer wrote")
print(json.dumps(seen))
"""


def test_store_concurrent_writers_and_reader(tmp_path):
    """Two processes rewrite one entry while a third reads it: every read
    is a whole entry or a miss, never an error or a mixture."""
    payload = cli._unramified_payload(CartanType("A", 1))
    files = []
    for i, rows in enumerate((payload["rows"], payload["rows"] * 200)):
        files.append(tmp_path / f"payload{i}.json")
        files[-1].write_text(json.dumps({**payload, "rows": rows}))
    store, seconds = str(tmp_path / "store"), "2"
    procs = [subprocess.Popen([sys.executable, "-c", _WRITER, store, str(f), seconds],
                              env=_src_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) for f in files]
    procs.append(subprocess.Popen([sys.executable, "-c", _READER, store, seconds,
                                   *map(str, files)], env=_src_env(),
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True))
    results = []
    try:
        for proc in procs:
            results.append(proc.communicate(timeout=60))
    finally:
        for proc in procs:
            proc.kill()
    for proc, (out, err) in zip(procs, results):
        assert proc.returncode == 0, err
        assert err == ""
    seen = json.loads(results[-1][0])
    assert seen["whole"] > 0
    assert sorted(os.listdir(store)) == [os.path.basename(
        _entry_path(store, "unramified", CartanType("A", 1), None))]


_REPORT = """
import json, sys, types
from orbitcalc import cli
rc = cli.main(sys.argv[1:])
# an unused lazily bound module sits in sys.modules unexecuted, as an
# instance of a subclass of ModuleType
loaded = sorted(name for name, m in sys.modules.items()
                if name.startswith("orbitcalc.") and type(m) is types.ModuleType)
print("loaded: " + json.dumps(loaded), file=sys.stderr)
sys.exit(rc)
"""


@pytest.mark.parametrize("kind", STORED)
def test_store_hit_loads_no_mathematics(tmp_path, kind):
    argv, _, _ = _query(tmp_path, kind)
    if kind == "unramified":  # normalised to A1 with a warning
        argv = ["unramified", "--type", "C", "--rank", "1"]
    argv += ["--cache-dir", str(tmp_path / "store")]
    runs = []
    for mode in (["--json"], ["--json"], [], []):
        proc = subprocess.run([sys.executable, "-c", _REPORT, *argv, *mode],
                              capture_output=True, text=True, env=_src_env(),
                              timeout=120)
        err, _, report = proc.stderr.rpartition("loaded: ")
        runs.append(((proc.returncode, proc.stdout, err), json.loads(report)))
    math = {f"orbitcalc.{m}" for m in MATH}
    assert "orbitcalc.duality" in runs[0][1]  # the miss computes
    for i in (1, 2, 3):
        assert not math & set(runs[i][1]), runs[i][1]
    # a hit prints, warns and exits as the miss did
    assert runs[0][0] == runs[1][0] and runs[2][0] == runs[3][0]
    assert runs[0][0][0] == 0
    if kind == "unramified":
        assert "C1 normalized to A1" in runs[1][0][2]


CHARACTER_LAYER = {f"orbitcalc.{m}" for m in
                   ("chartab", "weylrep", "balacarter", "rootdata", "linalg")}


def _loaded(argv):
    proc = subprocess.run([sys.executable, "-c", _REPORT, *argv],
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr.rpartition("loaded: ")[2]))


@pytest.mark.parametrize("series,rank,dual", [
    ("A", 3, "2,1,1"), ("B", 4, "3,3,1,1"), ("C", 4, "5,1,1,1,1"),
    ("D", 3, "3,1,1,1"), ("D", 4, "3,3,1,1")])
def test_classical_arthur_miss_runs_no_character_layer(tmp_path, series, rank, dual):
    """A classical arthur-wf miss is answered from partitions: it runs
    none of the root-system, linear-algebra, Bala-Carter or character
    modules.  G2 still runs them."""
    argv = ["arthur-wf", "--type", series, "--rank", str(rank), "--dual-orbit", dual,
            "--json", "--cache-dir", str(tmp_path)]
    loaded = _loaded(argv)
    assert "orbitcalc.duality" in loaded and "orbitcalc._classical" in loaded
    assert not CHARACTER_LAYER & loaded, loaded


def test_g2_arthur_miss_runs_the_character_layer(tmp_path):
    loaded = _loaded(["arthur-wf", "--type", "G", "--rank", "2", "--dual-orbit", "A1",
                      "--json", "--cache-dir", str(tmp_path)])
    assert CHARACTER_LAYER <= loaded and "orbitcalc._classical" not in loaded


def test_unramified_miss_loads_no_fractions(tmp_path):
    """The library's arithmetic is integer: a run that computes an
    unramified table (face hulls included) imports neither fractions nor
    decimal."""
    code = ("import sys\nfrom orbitcalc import cli\nrc = cli.main(sys.argv[1:])\n"
            "print([m for m in ('fractions', 'decimal') if m in sys.modules], "
            "file=sys.stderr)\nsys.exit(rc)\n")
    proc = subprocess.run([sys.executable, "-c", code, "unramified", "--type", "B",
                           "--rank", "3", "--json", "--cache-dir", str(tmp_path)],
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["rows"]
    assert proc.stderr.splitlines()[-1] == "[]"


_HEAVY = """
import sys
from orbitcalc import cli
store, data = sys.argv[1:]
b3 = ["--type", "B", "--rank", "3", "--json", "--cache-dir", store]
rcs = [cli.main(argv) for argv in (
    ["unramified", *b3], ["unramified", *b3],  # a miss, then a hit
    ["arthur-wf", *b3, "--dual-orbit", "2,2,1,1"],
    ["local-wf", "--type", "A", "--rank", "2", "--json", "--data", data])]
print(rcs, [m for m in ("dataclasses", "inspect", "typing") if m in sys.modules],
      file=sys.stderr)
"""


def test_no_process_imports_dataclasses(tmp_path):
    """Neither a store hit nor a miss imports dataclasses, inspect or typing
    (about 13 ms of every start, plus about 1.2 ms per dataclass).  -S keeps
    .pth files from importing them first."""
    store, data = tmp_path / "store", tmp_path / "data.json"
    data.write_text('[{"J": [1, 2], "irreps": [{"label": [[3]], "mult": 1}]}]')
    proc = subprocess.run([sys.executable, "-S", "-c", _HEAVY, str(store), str(data)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.stderr.splitlines()[-1] == "[0, 0, 0, 0] []", proc.stderr
    # two unramified outputs, the second from the store, then two others
    outs = proc.stdout.splitlines()
    assert len(outs) == 4 and outs[0] == outs[1]
    assert len(list(store.iterdir())) == 2


_STORELESS = """
import sys
from orbitcalc import cli
store, data = sys.argv[1:]
b3 = ["--type", "B", "--rank", "3", "--json", "--cache-dir", store]
for argv in (["unramified", *b3], ["unramified", *b3],
             ["arthur-wf", *b3, "--dual-orbit", "2,2,1,1"],
             ["local-wf", "--type", "A", "--rank", "2", "--data", data]):
    cli.main(argv)
before = "orbitcalc._storeless" in sys.modules
cli.main(["orbits", "--type", "A", "--rank", "2"])
print(before, "orbitcalc._storeless" in sys.modules, file=sys.stderr)
"""


def test_stored_commands_never_import_the_storeless_module(tmp_path):
    """orbits, dual-map and selftest run from orbitcalc._storeless, which
    the stored commands, hit or miss, never import, so never compile."""
    import orbitcalc
    assert "_storeless" not in orbitcalc._SUBMODULES
    store, data = tmp_path / "store", tmp_path / "data.json"
    data.write_text('[{"J": [1, 2], "irreps": [{"label": [[3]], "mult": 1}]}]')
    proc = subprocess.run([sys.executable, "-c", _STORELESS, str(store), str(data)],
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.stderr.splitlines()[-1] == "False True", proc.stderr


# ---------------------------------------------------------------------
# process exit
# ---------------------------------------------------------------------

_EXIT_PROBE = """
import atexit, gc, os, sys
# registered before main's hook, so it runs after it
atexit.register(lambda: os.write(2, b"frozen %d\\n" % gc.get_freeze_count()))
from orbitcalc import cli
sys.exit(cli.main(sys.argv[1:]))
"""


def test_objects_frozen_at_exit(tmp_path):
    """A process that ran main, to a miss, a hit or a usage error, has
    frozen the collector's objects by the time its last exit hook runs."""
    store = tmp_path / "store"
    query = ["unramified", "--type", "A", "--rank", "1", "--cache-dir", str(store)]
    for argv, code in ((query, 0), (query, 0), (["unramified", "--type", "Z"], 2)):
        proc = subprocess.run([sys.executable, "-c", _EXIT_PROBE, *argv],
                              capture_output=True, text=True, env=_src_env(),
                              timeout=120)
        assert proc.returncode == code, proc.stderr
        last = proc.stderr.splitlines()[-1].split()
        assert last[0] == "frozen" and int(last[1]) > 0, proc.stderr
        assert len(list(store.iterdir())) == 1


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_alone(capsys, enabled):
    """An in-process caller keeps a normal collector until it exits."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        rc, _, _ = run(capsys, "unramified", "--type", "A", "--rank", "1")
        assert rc == 0
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert gc.get_freeze_count() == 0


_HOOKS_RUN = """
import atexit, gc, os, sys
runs = []
gc.freeze = lambda: runs.append(None)  # counts the exit hooks main left
atexit.register(lambda: os.write(2, b"hooks %d\\n" % len(runs)))
from orbitcalc import cli
for _ in range(3):
    cli.main(sys.argv[1:])
"""


def test_one_exit_hook_however_often_main_runs():
    proc = subprocess.run([sys.executable, "-c", _HOOKS_RUN, "unramified",
                           "--type", "A", "--rank", "1"],
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "hooks 1", proc.stderr


def test_no_file_left_to_the_collector(tmp_path, capsys, monkeypatch):
    """A miss and a hit of each stored command close every file they open,
    so that nothing depends on the collection that freezing skips at exit."""
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    store = str(tmp_path / "store")
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        for kind in STORED:
            argv, _, _ = _query(tmp_path, kind)
            for _ in ("miss", "hit"):
                assert run(capsys, *argv, "--cache-dir", store)[0] == 0
        gc.collect()
    assert unraisable == []
    assert len(os.listdir(store)) == len(STORED)
