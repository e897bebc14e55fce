"""orbitcalc: nilpotent-orbit combinatorics for split reductive groups.

Enumerates unramified nilpotent orbits through affine Bala-Carter data,
computes the Sommers/Achar duality maps and the A-order, and evaluates
canonical unramified and geometric wavefront sets of spherical
representations attached to dual-side orbits.

Every submodule but cli is registered at import and executed on first
use (importlib.util.LazyLoader), and the names below are re-exported
through a module __getattr__ (PEP 562), so that `import orbitcalc.cli`
loads none of the mathematics.  The private modules _storeless,
_classical, _unramified and _labels are not registered: their importers
(cli; duality, _labels and _unramified; duality; wavefront, duality and
weylrep) load each on first use.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "balacarter": ("classes", "enumerate_pairs", "equivalent", "face_hull",
                   "pair_saturation", "saturation"),
    "cartantype": ("CartanType",),
    "duality": ("ABCPair", "UnramifiedClassInvariant", "achar_dual_one",
                "enumerate_nobc", "invariant_of", "leq_A", "sommers_dual"),
    "orbits": ("NilpotentOrbit", "WeightedDynkinDiagram", "closure_leq",
               "dual_bv", "dual_ls", "enumerate_orbits", "is_special",
               "orbit_dimension", "orbit_from_wdd", "regular_orbit",
               "weighted_dynkin", "zero_orbit"),
    "rootdata": ("RootSystem", "build_root_system", "dominant_conjugate"),
    "wavefront": ("WavefrontResult", "arthur_wf", "cross_check_arthur",
                  "local_wf", "steinberg_pattern", "trivial_pattern"),
    "weylrep": ("WeylContext", "WeylIrrep", "ambient_context", "j_induce",
                "springer_orbit", "subgroup_context"),
}
_SUBMODULES = ("balacarter", "chartab", "duality", "linalg", "orbits",
               "partitions", "rootdata", "wavefront", "weylrep")
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_ORIGIN, *_SUBMODULES])


def _lazy(name):
    """orbitcalc.<name>, in sys.modules at once (so that tools looking the
    package's modules up there find every one) and executed on its first
    attribute access."""
    full = f"{__name__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    spec.loader.exec_module(module)
    return module


# not cli: `python -m orbitcalc.cli` must find it unimported
globals().update({name: _lazy(name) for name in ("cartantype", *_SUBMODULES)})


def __getattr__(name):
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_ORIGIN[name]], name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
