import json

import pytest

from orbitcalc import (CartanType, NilpotentOrbit, ambient_context,
                       enumerate_nobc, leq_A, orbit_s, pair_saturation,
                       sommers_dual)
from orbitcalc import balacarter as bc
from orbitcalc import duality as du
from orbitcalc.orbits import regular_orbit, zero_orbit


def test_invariant_constant_on_classes():
    """All members of an equivalence class share saturation and dual."""
    for ct in [CartanType("A", 2, "adjoint"), CartanType("B", 2, "adjoint"),
               CartanType("G", 2), CartanType("D", 2, "adjoint")]:
        for cls in bc.classes(ct):
            invs = {du.pair_invariant(ct, p) for p in cls}
            sats = {pair_saturation(ct, p) for p in cls}
            assert len(invs) == 1, (ct, cls)
            assert len(sats) == 1, (ct, cls)


def test_weyl_irrep_json():
    ctx = ambient_context(CartanType("B", 2))
    for e in ctx.irreps():
        rec = e.to_json()
        json.dumps(rec)
        assert rec["b"] == e.b
        assert rec["factors"] == [["B", 2]]


def test_orbit_s_public_wrapper():
    ctx = ambient_context(CartanType("G", 2))
    sgn = max(ctx.irreps(), key=lambda e: e.b)
    assert orbit_s(ctx, sgn) == regular_orbit(CartanType("G", 2))


def test_invariant_json():
    ct = CartanType("G", 2)
    rows = enumerate_nobc(ct)
    for inv, _, _ in rows:
        rec = inv.to_json()
        json.dumps(rec)
        assert rec["orbit"]["series"] == "G"


def test_sommers_dual_is_exported_and_total():
    ct = CartanType("B", 3, "adjoint")
    assert sommers_dual(ct, frozenset(), ()) == regular_orbit(ct.dual)
    bottom = du.UnramifiedClassInvariant(zero_orbit(ct), regular_orbit(ct.dual))
    assert leq_A(bottom, bottom)


# orbitcalc.__all__ before the package re-exported lazily
PUBLIC_NAMES = [
    "ABCPair", "AlcoveSymmetry", "CartanType", "NilpotentOrbit",
    "RootSystem", "UnramifiedClassInvariant", "WavefrontResult",
    "WeightedDynkinDiagram", "WeylContext", "WeylIrrep",
    "achar_dual_one", "alcove_symmetries", "ambient_context", "arthur_wf",
    "balacarter", "build_root_system", "chartab", "classes", "closure_leq",
    "cross_check_arthur", "dominant_conjugate", "dual_bv", "dual_ls", "duality",
    "enumerate_nobc", "enumerate_orbits", "enumerate_pairs", "equivalent",
    "face_hull", "families", "induce_multiplicity", "invariant_of", "is_special",
    "j_induce", "leq_A", "linalg", "local_wf", "orbit_dimension",
    "orbit_from_wdd", "orbit_s", "orbits", "pair_saturation", "partitions",
    "regular_orbit", "rootdata", "saturation", "sommers_dual", "special_member",
    "springer_orbit", "steinberg_pattern", "subgroup_context", "trivial_pattern",
    "wavefront", "weighted_dynkin", "weyl_group", "weylrep", "zero_orbit",
]


def test_public_names_still_importable():
    """Each name is read from its submodule on first access."""
    import sys
    import types

    import orbitcalc
    assert orbitcalc.__all__ == PUBLIC_NAMES
    namespace = {}
    exec("from orbitcalc import *", namespace)
    for name in PUBLIC_NAMES:
        value = namespace[name]
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"orbitcalc.{name}"]
        else:
            assert getattr(sys.modules[value.__module__], name) is value
            assert value.__module__.startswith("orbitcalc.")
        assert getattr(orbitcalc, name) is value
    assert set(PUBLIC_NAMES) <= set(dir(orbitcalc))
    with pytest.raises(AttributeError, match="no_such_name"):
        orbitcalc.no_such_name
