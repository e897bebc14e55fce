import itertools

import pytest

from orbitcalc import _classical as cl
from orbitcalc import balacarter as bc
from orbitcalc import cli
from orbitcalc import wavefront as wf
from orbitcalc.orbits import (NilpotentOrbit, enumerate_orbits, regular_orbit,
                              zero_orbit)
from orbitcalc.rootdata import CartanType, build_root_system

from oracles import restriction_data_to_json

ADJ = lambda s, r: CartanType(s, r, "adjoint")

SMALL = [ADJ("A", 1), ADJ("A", 2), ADJ("B", 2), ADJ("C", 3), ADJ("G", 2)]


def test_steinberg_pattern_gives_regular():
    for ct in SMALL:
        res = wf.local_wf(ct, wf.steinberg_pattern(ct))
        assert res.geometric == (regular_orbit(ct),)
        assert res == wf.arthur_wf(ct, zero_orbit(ct.dual))


def test_trivial_pattern_gives_zero():
    for ct in SMALL:
        res = wf.local_wf(ct, wf.trivial_pattern(ct))
        assert res.geometric == (zero_orbit(ct),)
        assert res == wf.arthur_wf(ct, regular_orbit(ct.dual))


def test_patterns_name_the_face_groups_sign_and_trivial_characters():
    """The patterns, read from the faces' factor types, name the
    characters of largest and of zero b among each face group's irreps,
    as the character layer lists them."""
    for ct in SMALL + [ADJ("D", 4), CartanType("B", 3, "simply_connected")]:
        for pattern, pick in [(wf.steinberg_pattern, max), (wf.trivial_pattern, min)]:
            data = pattern(ct)
            assert list(data) == list(bc.proper_subsets(ct))
            for j, items in data.items():
                irrep = pick(bc.pair_context(ct, j).irreps(), key=lambda e: e.b)
                assert items == [(irrep.label, 1)], (ct, sorted(j))


def test_patterns_list_the_faces_as_balacarter_does_to_rank_5():
    """The patterns list the faces of A-D off the nodes' coordinates
    (_classical.faces): on every system up to rank 5 in both isogenies,
    and G2, they equal, faces in the same order, the patterns listed by
    balacarter.proper_subsets with balacarter's factors."""
    import warnings
    from orbitcalc import _labels
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # B1 and C1 normalized to A1
        systems = [CartanType(s, r, iso) for iso in ("adjoint", "simply_connected")
                   for s in "ABCD" for r in range(2 if s == "D" else 1, 6)]
    for ct in systems + [ADJ("G", 2)]:
        for pattern, pick in [(wf.steinberg_pattern, max), (wf.trivial_pattern, min)]:
            expected = {j: [(tuple(pick(_labels.factor_irrep_labels(f.kind, f.rank),
                                        key=lambda lab: _labels.b_invariant(f.kind, lab))
                                   for f in bc._face_factors(ct, j)), 1)]
                        for j in bc.proper_subsets(ct)}
            assert list(pattern(ct).items()) == list(expected.items()), ct


def test_single_face_trivial_data():
    for ct in [ADJ("B", 2), ADJ("G", 2)]:
        data = {frozenset(): [((), 1)]}
        res = wf.local_wf(ct, data)
        assert res.geometric == (zero_orbit(ct),)
        assert len(res.canonical) == 1
        assert res.canonical[0].orbit == zero_orbit(ct)


def test_arthur_wf_extremes_and_singleton():
    for ct in SMALL:
        for o in enumerate_orbits(ct.dual):
            res = wf.arthur_wf(ct, o)
            assert len(res.canonical) == 1
            assert len(res.geometric) == 1
            assert res.geometric[0] == res.canonical[0].orbit
        assert wf.arthur_wf(ct, zero_orbit(ct.dual)).geometric == (regular_orbit(ct),)
        assert wf.arthur_wf(ct, regular_orbit(ct.dual)).geometric == (zero_orbit(ct),)


def test_arthur_wf_a2_middle():
    ct = ADJ("A", 2)
    o = NilpotentOrbit(ct.dual, partition=(2, 1))
    res = wf.arthur_wf(ct, o)
    assert res.geometric[0].partition == (2, 1)
    assert res.canonical[0].orbit.partition == (2, 1)
    assert res.canonical[0].dual_orbit.partition == (2, 1)


def test_arthur_wf_requires_adjoint():
    ct = CartanType("A", 2, "simply_connected")
    with pytest.raises(wf.WavefrontError):
        wf.arthur_wf(ct, zero_orbit(ct.dual))


def test_cross_check_arthur():
    for ct in [ADJ("A", 1), ADJ("A", 2), ADJ("B", 2), ADJ("C", 2), ADJ("G", 2)]:
        for o in enumerate_orbits(ct.dual):
            assert wf.cross_check_arthur(ct, o), (ct, o)


def test_g2_cross_check_subregular():
    ct = ADJ("G", 2)
    o = NilpotentOrbit(ct.dual, g2_label="G2(a1)")
    assert wf.cross_check_arthur(ct, o)


def test_validation_errors():
    ct = ADJ("B", 2)
    with pytest.raises(wf.WavefrontError):
        wf.local_wf(ct, {frozenset({0, 1, 2}): [((), 1)]})
    with pytest.raises(wf.WavefrontError):
        wf.local_wf(ct, {frozenset(): [((), 0)]})
    with pytest.raises(wf.WavefrontError):
        wf.local_wf(ct, {frozenset(): [(("bogus",), 1)]})
    with pytest.raises(wf.WavefrontError):
        wf.local_wf(ct, {})
    # one face under two keys: neither record may be dropped silently
    with pytest.raises(wf.WavefrontError, match="given twice"):
        wf.local_wf(ct, {(1, 2): [((((1, 1), ()),), 1)], (2, 1): [((((), (1, 1)),), 1)]})


@pytest.mark.parametrize("ct", [ADJ("B", 3), CartanType("D", 2, "simply_connected"),
                                ADJ("G", 2)], ids=str)
def test_validation_checks_each_face_without_listing_subsets(ct, monkeypatch, tmp_path,
                                                             capsys):
    """Each J is checked on its own (nodes in range, proper in every
    component): listing all 2^(n+1) subsets made a bad file fail only
    after seconds at rank 12 and beyond.  Neither balacarter's list of
    faces nor the coordinate blocks' (_classical.faces) is read, and B3
    and D2 read their factors off the nodes' coordinates, with no call
    into balacarter."""
    faces = set(bc.proper_subsets(ct))
    total = build_root_system(ct).node_count()
    nodes = range(-1, total + 1)
    candidates = [frozenset(c) for k in range(len(nodes) + 1)
                  for c in itertools.combinations(nodes, k)]
    trivial = {j: next(e for e in bc.pair_context(ct, j).irreps() if e.b == 0).label
               for j in faces}

    def no_listing(*args):
        raise AssertionError("a list of faces or balacarter's factors read")

    monkeypatch.setattr(bc, "proper_subsets", no_listing)
    monkeypatch.setattr(cl, "faces", no_listing)
    if ct.series != "G":
        for name in ("is_proper", "_face_factors"):
            monkeypatch.setattr(bc, name, no_listing)
    for j in candidates:
        if j in faces:
            assert wf.validate_restriction_data(ct, {j: [(trivial[j], 1)]})
        else:
            with pytest.raises(wf.WavefrontError, match="is not a face type"):
                wf.validate_restriction_data(ct, {j: [((), 1)]})
    path = tmp_path / "data.json"
    path.write_text('[{"J": [%d], "irreps": [{"label": [], "mult": 1}]}]' % total)
    rc = cli.main(["local-wf", "--type", ct.series, "--rank", str(ct.rank),
                   "--isogeny", ct.isogeny, "--data", str(path)])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith(f"error: J=[{total}] is not a face type")


def test_restriction_data_json_roundtrip():
    ct = ADJ("B", 2)
    data = wf.steinberg_pattern(ct)
    js = restriction_data_to_json(data)
    back = wf.restriction_data_from_json(js)
    assert wf.validate_restriction_data(ct, back) == \
        wf.validate_restriction_data(ct, data)


def test_result_coherence_invariant():
    for ct in SMALL:
        res = wf.local_wf(ct, wf.steinberg_pattern(ct))
        from orbitcalc.orbits import closure_leq
        lifted = [i.orbit for i in res.canonical]
        maxima = [o for o in lifted
                  if not any(p != o and closure_leq(o, p) for p in lifted)]
        assert set(res.geometric) == set(maxima)


def test_b5_d4xa1_degenerate_characters():
    """Every degenerate D4 character of the B5 face D4xA1 has a result."""
    ct = ADJ("B", 5)
    j = frozenset({0, 1, 2, 3, 5})
    ctx = bc.pair_context(ct, j)
    d4 = next(i for i, f in enumerate(ctx.factors) if f.kind == "D")
    degenerate = [e for e in ctx.irreps() if e.label[d4][1] != 0]
    assert len(degenerate) == 8
    for e in degenerate:
        res = wf.local_wf(ct, {j: [(e.label, 1)]})
        assert len(res.canonical) == 1 and len(res.geometric) == 1
