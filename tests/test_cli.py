import errno
import gc
import json
import os
import shutil
import subprocess
import sys
import types
import warnings

import pytest

from orbitcalc import _stored, cli, orbits
from orbitcalc.cartantype import ABC_RANK_CAP
from orbitcalc.rootdata import CartanType

from oracles import invariant_of, restriction_data_to_json

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
    # B2 adjoint and, stored by the same miss, B2 simply connected
    assert rc1 == 0 and len(files) == 2
    rc2, out2, _ = run(capsys, *args)
    assert rc2 == 0
    assert out1 == out2


def _served(store, system):
    """The adjoint unramified entry of system (such as "A2") in store, which
    also holds the simply connected one that the same miss stored."""
    path, = store.glob(f"unramified-{system}-adjoint-*")
    return path


def test_cache_corrupt_recovers(tmp_path, capsys):
    args = ["unramified", "--type", "A", "--rank", "2", "--json",
            "--cache-dir", str(tmp_path)]
    rc1, out1, _ = run(capsys, *args)
    path = _served(tmp_path, "A2")
    other = tmp_path / "other"
    run(capsys, "unramified", "--type", "A", "--rank", "1", "--json",
        "--cache-dir", str(other))
    a1_table = _served(other, "A1").read_text()
    text_not_str = json.dumps({**json.loads(path.read_text()), "text": 5})
    # not JSON, JSON nested past the recursion limit, not an object, no
    # table, the table of another system, and a text rendering that is not
    # a string
    for text in ("{ not json", "[" * 200000, "[]",
                 json.dumps({"schema": cli.SCHEMA_VERSION}), a1_table, text_not_str):
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
    path = _served(tmp_path, "A2")
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


def test_cache_readonly_dir_warns(tmp_path, capsys, monkeypatch):
    """A store that refuses every write (os.replace fails, as it would in a
    read-only directory, also for root) gives each stored command's answer,
    exit 0, one warning line and no file; arthur-wf tries none of its other
    dual orbits."""
    store = tmp_path / "ro"
    real_replace, calls = os.replace, []

    def refuse(src, dst):
        calls.append(dst)
        raise PermissionError(errno.EACCES, "Permission denied", dst)

    for kind in ("unramified", "arthur-wf", "local-wf"):
        argv, _, _ = _query(tmp_path, kind)
        rc, out, err = run(capsys, *argv)
        monkeypatch.setattr(os, "replace", refuse)
        rc2, out2, err2 = run(capsys, *argv, "--cache-dir", str(store))
        monkeypatch.setattr(os, "replace", real_replace)
        assert (rc2, out2) == (rc, out) == (0, out), kind
        assert len(err2.splitlines()) == 1 and "cache not writable" in err2, kind
        assert len(calls) == 1 and list(store.iterdir()) == [], kind
        calls.clear()


def test_arthur_wf_extra_entries_stop_at_the_first_failed_write(tmp_path, capsys,
                                                                monkeypatch):
    """A store that takes the served entry and then refuses a write gives
    one warning line and keeps the served entry only."""
    store = tmp_path / "store"
    argv, ct, inputs = _query(tmp_path, "arthur-wf")
    rc, out, _ = run(capsys, *argv)
    real_replace, calls = os.replace, []

    def once(src, dst):
        calls.append(dst)
        if len(calls) > 1:
            raise OSError(errno.ENOSPC, "No space left on device", dst)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", once)
    rc2, out2, err2 = run(capsys, *argv, "--cache-dir", str(store))
    assert (rc2, out2) == (rc, out)
    assert len(err2.splitlines()) == 1 and "cache not writable" in err2
    assert len(calls) == 2
    assert [p.name for p in store.iterdir()] == [
        os.path.basename(_entry_path(store, "arthur-wf", ct, inputs))]


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
    first = {"schema": cli.SCHEMA_VERSION, **_stored.unramified_payload(ct)}
    store_failing(first)
    assert list(tmp_path.iterdir()) == []
    assert cli.cache_load(args, "unramified", ct) is None
    cli.cache_store(args, "unramified", ct, first)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    store_failing({**first, "rows": ["second"] * 100})
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert cli.cache_load(args, "unramified", ct) == first


def test_payload_keys_are_what_unramified_writes():
    payload = _stored.unramified_payload(CartanType("A", 1))
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
    (["local-wf"], "[" * 200000, 2),
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
        "orbit-empty", "orbit-inner-space", "not-json", "nested-too-deep", "not-a-list", "no-irreps", "mult",
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


def test_unreadable_data_file_exit_1(tmp_path, capsys):
    """A --data file that cannot be opened is main's OSError: exit 1 with
    the system's message, and nothing on stdout."""
    missing = tmp_path / "missing.json"
    rc, out, err = run(capsys, "local-wf", "--type", "A", "--rank", "2",
                       "--data", str(missing))
    assert (rc, out) == (1, "")
    assert err == f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"


@pytest.mark.parametrize("rank, code, message", [
    ("0", 2, "usage error: rank must be positive\n"),
    ("2", 1, "error: [Errno 2] No such file or directory: {missing!r}\n")],
    ids=["invalid-system", "valid-system"])
def test_unreadable_data_file_after_the_system_check(tmp_path, rank, code, message):
    """A --data file that cannot be opened is a miss at cli's front; the
    system is checked before the file is opened again, so an invalid one
    is still a usage error (exit 2), and a valid one main's OSError (exit
    1), with a store or without, in a fresh `python -m orbitcalc.cli`."""
    missing = str(tmp_path / "missing.json")
    argv = ["local-wf", "--type", "A", "--rank", rank, "--data", missing]
    for store in ([], ["--cache-dir", str(tmp_path / "store")]):
        proc = subprocess.run([sys.executable, "-m", "orbitcalc.cli", *argv, *store],
                              capture_output=True, text=True, env=_src_env(),
                              timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            code, "", message.format(missing=missing)), store
    assert not os.path.exists(tmp_path / "store")


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
MATH = ("rootdata", "weylrep", "chartab", "duality", "wavefront", "orbits",
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
    # serves both (an arthur-wf miss stores all 4 dual orbits of B2, the
    # orbits of C2, and an unramified miss both isogenies of B2)
    for first, second in [(("--json",), ()), ((), ("--json",))]:
        store = tmp_path / f"store{len(first)}"
        for mode in (first, first, second):
            assert run(capsys, *argv, *mode, "--cache-dir", str(store)) == plain[mode]
        assert len(list(store.iterdir())) == {"arthur-wf": 4, "unramified": 2}.get(kind, 1)


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
    # each code's miss stores the 4 dual orbits of B2
    assert len(list(tmp_path.iterdir())) == 8


ADJOINT = [CartanType(s, r) for s in "ABCD"
           for r in range(1 if s == "A" else 2, ABC_RANK_CAP + 1)] + [CartanType("G", 2)]


@pytest.mark.parametrize("ct", ADJOINT, ids=str)
def test_arthur_wf_miss_stores_every_dual_orbit(tmp_path, capsys, ct):
    """One arthur-wf miss stores an entry for every dual orbit of the
    system under its canonical label: each is the file a direct miss of
    that label writes into an empty store, and a hit on it prints what a
    run without a store prints, in both renderings."""
    labels = [o.label() for o in orbits.enumerate_orbits(ct.dual)]
    base = ["arthur-wf", "--type", ct.series, "--rank", str(ct.rank)]
    store = tmp_path / "family"
    served = labels[len(labels) // 2]
    assert run(capsys, *base, "--dual-orbit", served, "--cache-dir", str(store))[0] == 0
    names = {label: os.path.basename(_entry_path(store, "arthur-wf", ct, label))
             for label in labels}
    entries = {p.name: p.read_bytes() for p in store.iterdir()}
    assert sorted(entries) == sorted(names.values())
    ns = types.SimpleNamespace(cache_dir=str(store))
    for i, label in enumerate(labels):
        argv = [*base, "--dual-orbit", label]
        direct = tmp_path / f"direct{i}"
        assert run(capsys, *argv, "--cache-dir", str(direct))[0] == 0
        assert (direct / names[label]).read_bytes() == entries[names[label]], label
        assert cli.cache_load(ns, "arthur-wf", ct, label) is not None
        for mode in (("--json",), ()):
            plain = run(capsys, *argv, *mode)
            assert plain[0] == 0 and plain[2] == ""
            assert run(capsys, *argv, *mode, "--cache-dir", str(store)) == plain
    assert {p.name: p.read_bytes() for p in store.iterdir()} == entries


def test_arthur_wf_non_canonical_spelling_keeps_its_entry(tmp_path, capsys):
    """A query spelled "2, 2" is stored under that text, as before; the
    entries its miss adds are the canonical labels, "2,2" among them."""
    ct = CartanType("B", 2)
    argv = ["arthur-wf", "--type", "B", "--rank", "2", "--json", "--dual-orbit"]
    rc, out, err = run(capsys, *argv, "2, 2", "--cache-dir", str(tmp_path))
    assert (rc, err) == (0, "") and out == run(capsys, *argv, "2,2")[1]
    labels = ["2, 2"] + [o.label() for o in orbits.enumerate_orbits(ct.dual)]
    assert labels[1:] == ["4", "2,2", "2,1,1", "1,1,1,1"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        os.path.basename(_entry_path(tmp_path, "arthur-wf", ct, label))
        for label in labels)
    ns = types.SimpleNamespace(cache_dir=str(tmp_path))
    assert all(cli.cache_load(ns, "arthur-wf", ct, label) is not None
               for label in labels)


def test_arthur_wf_extra_entries_skip_what_is_stored(tmp_path, capsys, monkeypatch):
    """An entry that exists is not rewritten, so a second miss of the same
    system writes only its own entry; text such as "2, 2" is read from the
    entry of its canonical label, with no payload built; without a store
    nothing extra is computed."""
    store = tmp_path / "store"
    ct = CartanType("B", 2)
    argv = ["arthur-wf", "--type", "B", "--rank", "2", "--dual-orbit"]
    run(capsys, *argv, "2,2", "--cache-dir", str(store))
    built = []
    real = _stored.arthur_wf_payload
    monkeypatch.setattr(_stored, "arthur_wf_payload",
                        lambda ct, dual: built.append(dual.label()) or real(ct, dual))
    assert run(capsys, *argv, "2, 2", "--cache-dir", str(store))[0] == 0
    assert built == [] and len(list(store.iterdir())) == 5
    os.remove(_entry_path(store, "arthur-wf", ct, "4"))
    assert run(capsys, *argv, "4", "--cache-dir", str(store))[0] == 0
    assert built == ["4"] and len(list(store.iterdir())) == 5
    built.clear()
    assert run(capsys, *argv, "4")[0] == 0
    assert built == ["4"]


def test_arthur_wf_non_canonical_text_reads_its_labels_entry(tmp_path, capsys,
                                                             monkeypatch):
    """After a miss has stored the dual orbits of B2, "2, 2" misses at cli's
    front and is answered from the entry of its label "2,2": no payload is
    built, both renderings print the bytes of a run without a store, and
    the entry is stored under the typed text as well."""
    store = tmp_path / "store"
    argv = ["arthur-wf", "--type", "B", "--rank", "2", "--dual-orbit"]
    assert run(capsys, *argv, "4", "--cache-dir", str(store))[0] == 0
    plain = {mode: run(capsys, *argv, "2, 2", *mode) for mode in (("--json",), ())}
    assert all(rc == 0 and out and err == "" for rc, out, err in plain.values())

    def refuse(ct, dual):
        raise AssertionError(f"built the payload of {dual.label()}")

    monkeypatch.setattr(_stored, "arthur_wf_payload", refuse)
    for mode in (("--json",), ()):
        assert run(capsys, *argv, "2, 2", *mode, "--cache-dir", str(store)) == plain[mode]
    assert len(list(store.iterdir())) == 5
    ns = types.SimpleNamespace(cache_dir=str(store))
    assert cli.cache_load(ns, "arthur-wf", CartanType("B", 2), "2, 2") is not None


OTHER_ISOGENY = {"adjoint": "simply_connected", "simply_connected": "adjoint"}
# (series, rank, isogeny) as typed: every system up to the cap in both
# isogenies, and B1 and C1, which are stored under A1
UNRAMIFIED = [(ct.series, ct.rank, isogeny) for ct in ADJOINT
              for isogeny in OTHER_ISOGENY] + [
    (series, 1, isogeny) for series in "BC" for isogeny in OTHER_ISOGENY]


@pytest.mark.parametrize("series, rank, isogeny", UNRAMIFIED, ids=str)
def test_unramified_miss_stores_the_other_isogeny(tmp_path, capsys, monkeypatch,
                                                 series, rank, isogeny):
    """An unramified miss also stores its system's table in the other
    isogeny: the file a direct miss of that isogeny writes into an empty
    store, on which a hit prints what a run without a store prints, in
    both renderings, with no payload built (B1 and C1 miss at cli's front
    and are read under A1's key)."""
    base = ["unramified", "--type", series, "--rank", str(rank), "--isogeny"]
    store, direct = tmp_path / "store", tmp_path / "direct"
    other = OTHER_ISOGENY[isogeny]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # B1 and C1 normalized to A1
        ct = CartanType(series, rank, isogeny)
        assert run(capsys, *base, isogeny, "--cache-dir", str(store))[0] == 0
        assert run(capsys, *base, other, "--cache-dir", str(direct))[0] == 0
        plain = {mode: run(capsys, *base, other, *mode) for mode in (("--json",), ())}
        names = {i: os.path.basename(_entry_path(store, "unramified",
                                                 ct._replace(isogeny=i), None))
                 for i in (isogeny, other)}
        entries = {p.name: p.read_bytes() for p in store.iterdir()}
        assert sorted(entries) == sorted(names.values())
        # the direct miss stored the served isogeny as its own extra entry
        assert {p.name: p.read_bytes() for p in direct.iterdir()} == entries

        def refuse(ct):
            raise AssertionError(f"built the table of {ct} {ct.isogeny}")

        monkeypatch.setattr(_stored, "unramified_payload", refuse)
        for mode, (rc, out, err) in plain.items():
            assert rc == 0 and out and err == ""
            assert run(capsys, *base, other, *mode, "--cache-dir", str(store)) == (
                rc, out, err)
    assert {p.name: p.read_bytes() for p in store.iterdir()} == entries


def test_unramified_other_isogeny_skips_what_is_stored(tmp_path, capsys, monkeypatch):
    """An entry of the other isogeny that exists keeps its bytes and mtime,
    and its payload is not built; without a store only the served payload
    is built."""
    store = tmp_path / "store"
    argv = ["unramified", "--type", "C", "--rank", "3", "--isogeny"]
    assert run(capsys, *argv, "simply_connected", "--cache-dir", str(store))[0] == 0
    path = _entry_path(store, "unramified", CartanType("C", 3), None)
    os.remove(path)
    extra, = store.iterdir()
    before = extra.read_bytes()
    os.utime(extra, ns=(10 ** 9, 10 ** 9))
    built = []
    real = _stored.unramified_payload
    monkeypatch.setattr(_stored, "unramified_payload",
                        lambda ct: built.append(ct.isogeny) or real(ct))
    assert run(capsys, *argv, "adjoint", "--cache-dir", str(store))[0] == 0
    assert built == ["adjoint"] and os.path.exists(path)
    assert extra.read_bytes() == before and extra.stat().st_mtime_ns == 10 ** 9
    assert len(list(store.iterdir())) == 2
    built.clear()
    assert run(capsys, *argv, "adjoint")[0] == 0
    assert built == ["adjoint"]


@pytest.mark.parametrize("refused", [1, 2])
def test_unramified_other_isogeny_on_a_failing_store(tmp_path, capsys, monkeypatch,
                                                    refused):
    """A store that refuses the served write (refused=1) is not asked for
    the other isogeny's; one that refuses only that one (refused=2) keeps
    the served entry.  Either way: one warning line and exit 0."""
    store = tmp_path / "store"
    argv = ["unramified", "--type", "B", "--rank", "3"]
    rc, out, _ = run(capsys, *argv)
    real_replace, calls = os.replace, []

    def replace(src, dst):
        calls.append(dst)
        if len(calls) == refused:
            raise OSError(errno.ENOSPC, "No space left on device", dst)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    rc2, out2, err2 = run(capsys, *argv, "--cache-dir", str(store))
    assert (rc2, out2) == (rc, out) == (0, out)
    assert len(err2.splitlines()) == 1 and "cache not writable" in err2
    assert len(calls) == refused
    served = os.path.basename(_entry_path(store, "unramified", CartanType("B", 3), None))
    assert [p.name for p in store.iterdir()] == ([] if refused == 1 else [served])


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
    payload = _stored.unramified_payload(CartanType("A", 1))
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


_EXECUTED = """
import json, sys, types
from orbitcalc import cli
rc = cli.main(sys.argv[1:])
executed = sorted(name for name, m in sys.modules.items()
                  if name.partition(".")[0] == "orbitcalc" and type(m) is types.ModuleType)
present = [name for name in ("orbitcalc._stored", "__future__") if name in sys.modules]
print("loaded: " + json.dumps([executed, present]), file=sys.stderr)
sys.exit(rc)
"""


@pytest.mark.parametrize("kind", STORED)
def test_store_hit_executes_only_cli(tmp_path, kind):
    """A canonical B2 hit executes orbitcalc/__init__.py and cli and no
    other module of the package, cartantype included; _stored is never
    imported, and no module imports __future__.  The miss before it
    validated through cartantype and printed the same bytes."""
    argv, _, _ = _query(tmp_path, kind)
    argv += ["--json", "--cache-dir", str(tmp_path / "store")]
    runs = []
    for _ in ("miss", "hit"):
        proc = subprocess.run([sys.executable, "-S", "-c", _EXECUTED, *argv],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=SRC))
        err, _, report = proc.stderr.rpartition("loaded: ")
        runs.append(((proc.returncode, proc.stdout, err), json.loads(report)))
    assert runs[0][0] == runs[1][0] and runs[0][0][0] == 0
    assert {"orbitcalc.cartantype", "orbitcalc._stored"} <= set(runs[0][1][0])
    assert runs[1][1] == [["orbitcalc", "orbitcalc.cli"], []]


CHARACTER_LAYER = {f"orbitcalc.{m}" for m in ("chartab", "weylrep", "rootdata", "linalg")}


def _loaded(argv):
    proc = subprocess.run([sys.executable, "-c", _REPORT, *argv],
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr.rpartition("loaded: ")[2]))


@pytest.mark.parametrize("series,rank,dual", [
    ("A", 3, "2,1,1"), ("B", 4, "3,3,1,1"), ("C", 4, "5,1,1,1,1"),
    ("D", 3, "3,1,1,1"), ("D", 4, "3,3,1,1"), ("D", 4, "2,2,2,2-I")])
def test_classical_arthur_miss_runs_no_character_layer(tmp_path, series, rank, dual):
    """A classical arthur-wf miss is answered from partitions, a very even
    dual orbit's marks included: it runs none of the root-system,
    linear-algebra or character modules."""
    argv = ["arthur-wf", "--type", series, "--rank", str(rank), "--dual-orbit", dual,
            "--json", "--cache-dir", str(tmp_path)]
    loaded = _loaded(argv)
    assert "orbitcalc.duality" in loaded and "orbitcalc._classical" in loaded
    assert not CHARACTER_LAYER & loaded, loaded


def test_g2_arthur_miss_runs_no_character_layer(tmp_path):
    """A G2 arthur-wf miss reads the rows of G2's frozen table (_g2): it
    runs none of the root-system, linear-algebra or character modules,
    nor the partition path, and prints the golden bytes."""
    argv = ["arthur-wf", "--type", "G", "--rank", "2", "--dual-orbit", "A1",
            "--json", "--cache-dir", str(tmp_path)]
    proc = subprocess.run([sys.executable, "-c", _REPORT, *argv],
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stderr.rpartition("loaded: ")[2]))
    assert "orbitcalc._g2" in loaded and "orbitcalc._classical" not in loaded
    assert not CHARACTER_LAYER & loaded, loaded
    with open(os.path.join(GOLDEN, "cli", "arthur-wf-G2-adjoint-A1.json")) as fh:
        assert proc.stdout == fh.read()


@pytest.mark.parametrize("series,rank,iso", [
    ("A", 4, "adjoint"), ("B", 3, "adjoint"), ("C", 4, "simply_connected"),
    ("D", 3, "adjoint"), ("A", 3, "simply_connected"), ("B", 4, "simply_connected"),
    ("D", 2, "adjoint"), ("D", 2, "simply_connected"), ("D", 4, "adjoint"),
    ("D", 4, "simply_connected")])
def test_classical_unramified_miss_runs_no_character_layer(tmp_path, series, rank, iso):
    """A classical unramified table is built from coordinate blocks:
    pairs, class keys and invariants from partitions (_unramified,
    _classical), very even marks included, with no root system and no
    character table."""
    argv = ["unramified", "--type", series, "--rank", str(rank), "--isogeny", iso,
            "--json", "--cache-dir", str(tmp_path)]
    loaded = _loaded(argv)
    assert {"orbitcalc._unramified", "orbitcalc._classical"} <= loaded
    assert not CHARACTER_LAYER & loaded, loaded


def test_orbits_table_runs_no_root_system():
    """orbits reads diagrams (node_values) and dimensions off partitions:
    it runs none of the root-system, linear-algebra or character
    modules."""
    loaded = _loaded(["orbits", "--type", "B", "--rank", "3", "--json"])
    assert "orbitcalc.orbits" in loaded
    assert not CHARACTER_LAYER & loaded, loaded


@pytest.mark.parametrize("iso", ["adjoint", "simply_connected"])
def test_g2_unramified_miss_runs_no_character_layer(tmp_path, iso):
    """G2's unramified table is read from its frozen table (_g2): a miss
    runs none of the root-system, linear-algebra or character modules,
    nor the partition path or the block tables, and prints the golden
    bytes."""
    argv = ["unramified", "--type", "G", "--rank", "2", "--isogeny", iso, "--json",
            "--cache-dir", str(tmp_path)]
    proc = subprocess.run([sys.executable, "-c", _REPORT, *argv],
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stderr.rpartition("loaded: ")[2]))
    assert "orbitcalc._g2" in loaded
    assert not {"orbitcalc._classical", "orbitcalc._unramified"} & loaded, loaded
    assert not CHARACTER_LAYER & loaded, loaded
    with open(os.path.join(GOLDEN, "cli", f"unramified-G2-{iso}.json")) as fh:
        assert proc.stdout == fh.read()


def _local_wf_run(tmp_path, ct, data):
    """(stdout, modules run) of a fresh local-wf --json miss on the
    restriction data."""
    f = tmp_path / "data.json"
    f.write_text(json.dumps(restriction_data_to_json(data)))
    argv = ["local-wf", "--type", ct.series, "--rank", str(ct.rank), "--isogeny", ct.isogeny,
            "--data", str(f), "--json", "--cache-dir", str(tmp_path / "store")]
    proc = subprocess.run([sys.executable, "-c", _REPORT, *argv],
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, set(json.loads(proc.stderr.rpartition("loaded: ")[2]))


def _local_wf_miss(tmp_path, series, rank, pattern, iso="adjoint"):
    """The modules run by a fresh local-wf --json miss on the Steinberg or
    trivial pattern, after checking that it prints the golden bytes."""
    from orbitcalc import wavefront as wfmod
    make = {"steinberg": wfmod.steinberg_pattern, "trivial": wfmod.trivial_pattern}[pattern]
    ct = CartanType(series, rank, iso)
    out, loaded = _local_wf_run(tmp_path, ct, make(ct))
    with open(os.path.join(GOLDEN, "cli", f"local-wf-{series}{rank}-{iso}-{pattern}.json")) as fh:
        assert out == fh.read()
    return loaded


CLASSICAL_LOCAL_WF = [("C", 4, "adjoint", "steinberg"), ("A", 4, "adjoint", "trivial"),
                      ("B", 3, "adjoint", "steinberg"), ("D", 3, "adjoint", "trivial"),
                      ("B", 4, "simply_connected", "steinberg"),
                      ("D", 3, "simply_connected", "steinberg"), ("D", 4, "adjoint", "steinberg")]


@pytest.mark.parametrize("series,rank,iso,pattern", CLASSICAL_LOCAL_WF, ids=[
    f"{s}-{r}-{p}" if iso == "adjoint" else f"{s}-{r}-{iso}-{p}"
    for s, r, iso, p in CLASSICAL_LOCAL_WF])
def test_classical_local_wf_miss_runs_no_character_layer(tmp_path, series, rank, iso, pattern):
    """A classical local-wf miss reads its faces' factors off the nodes'
    coordinates and its labels and orbits off the factor types (_labels),
    and its lifts from partitions: it runs none of the root-system,
    linear-algebra or character modules, and prints the golden bytes."""
    loaded = _local_wf_miss(tmp_path, series, rank, pattern, iso)
    assert {"orbitcalc._labels", "orbitcalc._classical"} <= loaded
    assert not CHARACTER_LAYER & loaded, loaded


@pytest.mark.parametrize("series,iso", [("C", "adjoint"), ("B", "simply_connected")])
def test_rank_5_local_wf_face_runs_no_character_layer(tmp_path, series, iso):
    """One face of rank 5, {a0, a1, a2, a4, a5} with its Steinberg
    character: the same as in process, with no root system."""
    from orbitcalc import wavefront as wfmod
    ct = CartanType(series, 5, iso)
    j = frozenset({0, 1, 2, 4, 5})
    data = {j: wfmod.steinberg_pattern(ct)[j]}
    out, loaded = _local_wf_run(tmp_path, ct, data)
    result = json.loads(out)
    assert {k: result[k] for k in ("canonical", "geometric")} == \
        wfmod.local_wf(ct, data).to_json()
    assert {"orbitcalc._labels", "orbitcalc._classical"} <= loaded
    assert not CHARACTER_LAYER & loaded, loaded


# D3's faces {a0, a1} and {a2, a3} are each a D2 block on two A1 factors
# (and a free coordinate): these characters put the degenerate label
# {(1), (1)}+- on the D2 block
D3_DEGENERATE = {frozenset({0, 1}): [((2,), (1, 1)), ((1, 1), (2,))],
                 frozenset({2, 3}): [((2,), (1, 1)), ((1, 1), (2,))]}


@pytest.mark.parametrize("iso", ["adjoint", "simply_connected"])
@pytest.mark.parametrize("series,rank", [("D", 5), ("D", 3)])
def test_odd_rank_d_local_wf_runs_no_character_layer(tmp_path, monkeypatch, series, rank, iso):
    """Odd-rank D with degenerate block labels: all 20 characters of D5's
    face {a0, a1, a2, a4, a5} (A3 x A1 x A1, a D3 and a D2 block), and
    the four D3 characters above.  The lifts are read from partitions,
    with no root system, and the output is the one that invariant_of
    gives on every lift."""
    from itertools import product
    from orbitcalc import _labels
    from orbitcalc import duality as du
    from orbitcalc import wavefront as wfmod
    ct = CartanType(series, rank, iso)
    data = {j: [(label, 1) for label in labels] for j, labels in D3_DEGENERATE.items()}
    if rank == 5:
        j = frozenset({0, 1, 2, 4, 5})
        data = {j: [(label, 1) for label in product(*(
            _labels.factor_irrep_labels(kind, r) for kind, _, r, _ in _labels.face_factors("D", 5, j)))]}
        assert len(data[j]) == 20
    out, loaded = _local_wf_run(tmp_path, ct, data)
    result = json.loads(out)
    with monkeypatch.context() as m:
        m.setattr(du, "face_invariant", invariant_of)
        expected = wfmod.local_wf(ct, data).to_json()
    assert {k: result[k] for k in ("canonical", "geometric")} == expected
    assert {"orbitcalc._labels", "orbitcalc._classical"} <= loaded
    assert not CHARACTER_LAYER & loaded, loaded


@pytest.mark.parametrize("pattern", ["steinberg", "trivial"])
def test_g2_local_wf_miss_runs_no_character_layer(tmp_path, pattern):
    """G2's faces, their factors and their lifts are read from its frozen
    table (_g2), the labels and orbits off the factor types (_labels): a
    miss runs none of the root-system, linear-algebra or character
    modules, nor the partition path, and prints the golden bytes."""
    loaded = _local_wf_miss(tmp_path, "G", 2, pattern)
    assert {"orbitcalc._labels", "orbitcalc._g2"} <= loaded
    assert "orbitcalc._classical" not in loaded
    assert not CHARACTER_LAYER & loaded, loaded


@pytest.mark.parametrize("command", ["orbits", "dual-map"])
def test_orbit_tables_fail_fast_past_the_orbit_count_cap(capsys, monkeypatch, command):
    """A40 has 44583 nilpotent orbits: orbits and dual-map exit 1 with the
    cap's message before listing any (orbits ran past 10 s, dual-map took
    8 s).  A18, with 490, still answers."""
    from orbitcalc import _storeless, orbits

    def refuse(ct):
        raise AssertionError(f"listed the orbits of {ct}")

    with monkeypatch.context() as m:
        m.setattr(orbits, "enumerate_orbits", refuse)
        rc, out, err = run(capsys, command, "--type", "A", "--rank", "40", "--json")
    assert (rc, out) == (1, "")
    assert err == "error: A40 has 44583 nilpotent orbits, which exceeds the cap 500\n"
    assert _storeless._orbit_count(CartanType("A", 18)) == 490
    monkeypatch.setattr(_storeless, "ORBIT_COUNT_CAP", 4)
    rc, _, err = run(capsys, command, "--type", "A", "--rank", "3")
    assert (rc, err) == (1, "error: A3 has 5 nilpotent orbits, which exceeds the cap 4\n")


def test_orbit_count_is_the_number_of_orbits():
    from orbitcalc import _storeless, orbits
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # B1 and C1 normalized to A1
        systems = [CartanType(s, r) for s in "ABCD" for r in range(2 if s == "D" else 1, 11)]
    for ct in systems + [CartanType("G", 2)]:
        assert _storeless._orbit_count(ct) == len(orbits.enumerate_orbits(ct)), ct


def test_serve_builds_the_store_key_once(tmp_path, capsys, monkeypatch):
    """A miss and a hit each read the package sources once for the key,
    also where the miss looks again: C1 under A1's key, and "2, 2" under
    its label's (after the "2,2" miss has stored the dual orbits of B2)."""
    calls = []
    checksum = cli.source_checksum
    monkeypatch.setattr(cli, "source_checksum", lambda: calls.append(1) or checksum())
    arthur = ["arthur-wf", "--type", "B", "--rank", "2", "--dual-orbit"]
    queries = [["unramified", "--type", "A", "--rank", "2"],
               ["unramified", "--type", "C", "--rank", "1"],
               [*arthur, "2,2"], [*arthur, "2, 2"]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # C1 normalized to A1
        for argv in queries:
            for _ in ("miss", "hit"):
                calls.clear()
                assert run(capsys, *argv, "--json", "--cache-dir", str(tmp_path))[0] == 0
                assert len(calls) == 1, argv
    # A2 and A1 in both isogenies, the 4 dual orbits of B2 and "2, 2"
    assert len(list(tmp_path.iterdir())) == 9


@pytest.mark.parametrize("rank", [10, 60])
def test_local_wf_fails_fast_past_the_group_order_cap(tmp_path, capsys, monkeypatch, rank):
    """W(A_rank) is past GROUP_ORDER_CAP: local-wf exits 1 with the cap's
    message before it reads a face or lists an orbit.  Checked only at
    the ambient context, the cap came after saturating each face, which
    enumerates every orbit of the ambient type (at A60 for more than
    15 s)."""
    from orbitcalc import orbits
    from orbitcalc import wavefront as wfmod

    def refuse(*args):
        raise AssertionError(f"computed before the cap: {args}")

    monkeypatch.setattr(wfmod, "_face_factors", refuse)
    monkeypatch.setattr(orbits, "enumerate_orbits", refuse)
    f = tmp_path / "data.json"
    f.write_text('[{"J": [1, 2], "irreps": [{"label": [[3]], "mult": 1}]}]')
    rc, out, err = run(capsys, "local-wf", "--type", "A", "--rank", str(rank),
                       "--data", str(f))
    order = 1
    for k in range(2, rank + 2):
        order *= k
    assert (rc, out) == (1, "")
    assert err == f"error: group of order {order} exceeds cap 1000000\n"


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
    # B3 unramified in both isogenies, and the 8 dual orbits of B3 from the
    # arthur-wf miss
    assert len(list(store.iterdir())) == 10


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
        # A1 in both isogenies
        assert len(list(store.iterdir())) == 2


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
    # one entry for local-wf, both isogenies of B2 for unramified and the 4
    # of arthur-wf's dual orbits of B2
    assert len(os.listdir(store)) == 7
