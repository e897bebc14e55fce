import errno
import json
import os
import stat
import subprocess
import sys
import types

import pytest

from orbitcalc import cli
from orbitcalc.rootdata import CartanType


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


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
    # not JSON, not an object, no table, and the table of another system
    for text in ("{ not json", "[]", json.dumps({"schema": cli.SCHEMA_VERSION}),
                 a1_table):
        path.write_text(text)
        rc2, out2, err = run(capsys, *args)
        assert rc2 == 0, text
        assert out1 == out2, text
        assert "corrupt" in err, text


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
    (["local-wf"], "{ not json", 2),
    (["local-wf"], '{"J": [0]}', 2),
    (["local-wf"], '[{"J": [0]}]', 2),
    (["local-wf"], '[{"J": [0], "irreps": [{"label": [2, 1], "mult": "x"}]}]', 2),
    # well-formed input naming what does not exist: computational errors
    (["arthur-wf", "--dual-orbit", "2,2"], None, 1),
    (["local-wf"], '[{"J": [9], "irreps": [{"label": [2, 1], "mult": 1}]}]', 1),
    (["local-wf"], '[{"J": [0], "irreps": [{"label": [7], "mult": 1}]}]', 1),
], ids=["orbit", "not-json", "not-a-list", "no-irreps", "mult",
        "wrong-total", "unknown-face", "unknown-character"])
def test_bad_input_exit_code(tmp_path, capsys, argv, data, code):
    if data is not None:
        f = tmp_path / "data.json"
        f.write_text(data)
        argv = argv + ["--data", str(f)]
    rc, out, err = run(capsys, *argv, "--type", "A", "--rank", "2")
    assert rc == code
    assert err.startswith("usage error: " if code == 2 else "error: ")
    assert out == ""


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
    f.write_text(json.dumps(wfmod.restriction_data_to_json(data)))
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
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "orbitcalc.cli", "local-wf", "--type", "B", "--rank", "5",
         "--data", str(f), "--json"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["canonical"]
