import json
import warnings

import pytest

from orbitcalc import (CartanType, NilpotentOrbit, WeightedDynkinDiagram,
                       ambient_context, enumerate_nobc, leq_A, pair_saturation,
                       sommers_dual)
from orbitcalc import balacarter as bc
from orbitcalc import duality as du
from orbitcalc.cartantype import RootDataError
from orbitcalc.orbits import OrbitError, regular_orbit, zero_orbit
from orbitcalc.partitions import PartitionError
from orbitcalc.weylrep import ambient_orbit_from_factor_orbits, orbit_s_factors


def test_invariant_constant_on_classes():
    """All members of an equivalence class share saturation and dual."""
    for ct in [CartanType("A", 2, "adjoint"), CartanType("B", 2, "adjoint"),
               CartanType("G", 2), CartanType("D", 2, "adjoint")]:
        for cls in bc.classes(ct):
            invs = {du.pair_invariant(ct, p) for p in cls}
            sats = {pair_saturation(ct, p) for p in cls}
            assert len(invs) == 1, (ct, cls)
            assert len(sats) == 1, (ct, cls)


def test_orbit_s_public_wrapper():
    ctx = ambient_context(CartanType("G", 2))
    sgn = max(ctx.irreps(), key=lambda e: e.b)
    assert ambient_orbit_from_factor_orbits(ctx.rs, ctx.factors,
                                            orbit_s_factors(ctx, sgn)) == \
        regular_orbit(CartanType("G", 2))


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


def test_record_semantics():
    """The value records print as Name(field=value, ...), hash as the tuple
    of their fields and refuse assignment."""
    b3 = CartanType("B", 3)
    d4 = NilpotentOrbit(CartanType("D", 4), partition=(2, 2, 2, 2), mark="I")
    g2_triv = min(ambient_context(CartanType("G", 2)).irreps(), key=lambda e: e.b)
    assert repr(b3) == "CartanType(series='B', rank=3, isogeny='adjoint')"
    assert repr(d4) == ("NilpotentOrbit(system=CartanType(series='D', rank=4, "
                        "isogeny='adjoint'), partition=(2, 2, 2, 2), "
                        "g2_label=None, mark='I')")
    assert repr(bc.ABCPair(frozenset({0, 1}), frozenset({1}))) == \
        "ABCPair(J=frozenset({0, 1}), Jprime=frozenset({1}))"
    assert repr(g2_triv) == \
        "WeylIrrep(factors=(('G', 2),), label=('phi(1,0)',), b=0)"
    assert hash(b3) == hash(("B", 3, "adjoint"))
    for record, field in [(b3, "rank"), (d4, "mark"), (g2_triv, "b")]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    a3 = CartanType("A", 3)
    assert NilpotentOrbit(a3, partition=(1, 3)).partition == (3, 1)


def test_cartan_type_make_and_replace_validate():
    b3 = CartanType("B", 3)
    with pytest.raises(RootDataError, match="rank must be positive"):
        b3._replace(rank=0)
    with pytest.raises(RootDataError, match="unknown series"):
        CartanType._make(("Q", 1, "x"))
    assert b3._replace(series="C") == CartanType("C", 3)
    assert type(CartanType._make(("D", 4, "adjoint"))) is CartanType


def test_cartan_type_warning_names_the_caller():
    """B1 and C1 become A1 with a warning that points at the line that built
    the record, by the constructor, _make or _replace."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        CartanType("B", 1)
        CartanType("B", 3)._replace(rank=1)
        CartanType._make(("C", 1, "adjoint"))
    assert [str(w.message) for w in caught] == ["B1 normalized to A1"] * 2 + ["C1 normalized to A1"]
    assert [w.filename for w in caught] == [__file__] * 3


def test_nilpotent_orbit_make_and_replace_validate():
    b3 = CartanType("B", 3)
    orbit = NilpotentOrbit(b3, partition=(3, 3, 1))
    with pytest.raises(PartitionError, match="has total 3"):
        NilpotentOrbit._make((b3, (2, 1), None, None))
    with pytest.raises(OrbitError, match="not a valid B3 partition"):
        orbit._replace(partition=(2, 1, 1, 1, 1, 1))
    a3 = CartanType("A", 3)
    assert NilpotentOrbit(a3, partition=(4,))._replace(partition=(1, 3)).partition == (3, 1)


def test_weighted_dynkin_diagram_make_and_replace_validate():
    b3 = CartanType("B", 3)
    with pytest.raises(OrbitError, match="weights must be 0/1/2"):
        WeightedDynkinDiagram._make((b3, (9, 9, 9)))
    with pytest.raises(OrbitError, match="weights must be 0/1/2"):
        WeightedDynkinDiagram(b3, (2, 2, 2))._replace(values=(3, 0, 0))
    assert WeightedDynkinDiagram(b3, (2, 2, 2))._replace(values=(0, 0, 2)).values == (0, 0, 2)


def test_abc_pair_make_and_replace_validate():
    with pytest.raises(bc.ABCError, match="subset of J"):
        bc.ABCPair._make((frozenset(), frozenset({1})))
    pair = bc.ABCPair(frozenset({0, 1}), frozenset({1}))
    with pytest.raises(bc.ABCError, match="subset of J"):
        pair._replace(J=frozenset({0}))
    assert pair._replace(Jprime=frozenset()) == bc.ABCPair(frozenset({0, 1}), frozenset())


# orbitcalc.__all__ before the package re-exported lazily
PUBLIC_NAMES = [
    "ABCPair", "CartanType", "NilpotentOrbit",
    "RootSystem", "UnramifiedClassInvariant", "WavefrontResult",
    "WeightedDynkinDiagram", "WeylContext", "WeylIrrep",
    "achar_dual_one", "ambient_context", "arthur_wf",
    "balacarter", "build_root_system", "chartab", "classes", "closure_leq",
    "cross_check_arthur", "dominant_conjugate", "dual_bv", "dual_ls", "duality",
    "enumerate_nobc", "enumerate_orbits", "enumerate_pairs", "equivalent",
    "face_hull", "invariant_of", "is_special",
    "j_induce", "leq_A", "linalg", "local_wf", "orbit_dimension",
    "orbit_from_wdd", "orbits", "pair_saturation", "partitions",
    "regular_orbit", "rootdata", "saturation", "sommers_dual", "special_member",
    "springer_orbit", "steinberg_pattern", "subgroup_context", "trivial_pattern",
    "wavefront", "weighted_dynkin", "weylrep", "zero_orbit",
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


_TRACED_OWNERS = """
import inspect, json, sys
sys.path.insert(0, sys.argv[1])
import orbitcalc.cli  # all that perfbench/child.py loads before tracer.install()
import tracer


def traced(obj):
    # tracer.install's rule: public functions and lru_cache wrappers, and
    # the public methods of classes other than exceptions
    if hasattr(obj, "cache_info") or inspect.isfunction(obj):
        return not obj.__name__.startswith("_")
    return (inspect.isclass(obj) and not issubclass(obj, BaseException)
            and any(not key.startswith("_") and inspect.isfunction(attr)
                    for key, attr in vars(obj).items()))


owners = {tracer._owner(obj) for mod in tracer._package_modules()
          for obj in list(vars(mod).values())
          if tracer._owner(obj) is not None and traced(obj)}
print(json.dumps({"owners": sorted(owners), "modules": list(tracer.MODULES)}))
"""


def test_every_traced_module_has_a_self_time_metric():
    """perfbench's traced lane keys self time by its fixed MODULES list, so
    a traced call owned by any other orbitcalc module kills the run: every
    module that owns something the tracer wraps must be in that list."""
    import os
    import subprocess
    import sys
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_OWNERS, os.path.join(root, "perfbench")],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")))
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    assert "cli" in found["owners"] and "weylrep" in found["owners"]
    assert set(found["owners"]) <= set(found["modules"]), found
