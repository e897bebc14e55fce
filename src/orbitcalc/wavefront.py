"""Wavefront-set computations.

local_wf is the generic engine: it consumes externally supplied restriction
data (for each face J of the alcove, the characters of W_J appearing in the
restriction of the Iwahori-fixed space, with multiplicities), pushes each
character to the special orbit of its twisted family, lifts through the
face, and keeps the A-order maxima.

arthur_wf evaluates the closed form for spherical representations attached
to a dual-side orbit: the canonical unramified wavefront set is the single
invariant (d(O^vee), O^vee) and the geometric wavefront set is d(O^vee).
Its check that some affine Bala-Carter pair attains the invariant
(duality.achar_dual_one) reads partitions for types A-D, so that a
classical arthur_wf runs no root system and no character table; G2,
local_wf and cross_check_arthur go through the faces' Weyl groups.
"""

from __future__ import annotations

from collections import namedtuple

# each runs on first use (see __init__): arthur_wf on a classical type
# runs duality alone, and no root system or character table
from . import balacarter as bc
from . import duality as du
from . import weylrep as wr
from .cartantype import CartanType
from .orbits import NilpotentOrbit, closure_leq, maxima


class WavefrontError(ValueError):
    pass


class WavefrontResult(namedtuple("WavefrontResult", "canonical geometric")):
    # canonical: the A-order-maximal UnramifiedClassInvariants;
    # geometric: the closure-maximal orbits among the canonical lifts
    __slots__ = ()

    def to_json(self):
        return {"canonical": [i.to_json() for i in self.canonical],
                "geometric": [o.to_json() for o in self.geometric]}

    def __str__(self):
        c = ", ".join(str(i) for i in self.canonical)
        g = ", ".join(o.label() for o in self.geometric)
        return f"canonical {{{c}}}; geometric {{{g}}}"


def _result_from_invariants(invariants):
    canon = maxima(list(invariants), du.leq_A)
    orbits = []
    for i in canon:
        if i.orbit not in orbits:
            orbits.append(i.orbit)
    geom = maxima(orbits, closure_leq)
    key = lambda x: str(x)
    return WavefrontResult(tuple(sorted(canon, key=key)),
                           tuple(sorted(geom, key=key)))


def validate_restriction_data(ct: CartanType, data) -> dict:
    """data: {frozenset(node numbers) -> [(label tuple, mult), ...]}."""
    out = {}
    for j, items in data.items():
        j = frozenset(j)
        if j in out:
            raise WavefrontError(f"J={sorted(j)} is given twice")
        if not bc.is_proper(ct, j):
            raise WavefrontError(f"J={sorted(j)} is not a face type of {ct}")
        ctx = bc.pair_context(ct, j)
        valid_labels = {e.label for e in ctx.irreps()}
        checked = []
        for label, mult in items:
            label = tuple(label)
            if mult <= 0:
                raise WavefrontError("multiplicities must be positive")
            if label not in valid_labels:
                raise WavefrontError(
                    f"{label} is not a character of the face group of {sorted(j)}")
            checked.append((label, int(mult)))
        out[j] = tuple(checked)
    return out


def local_wf(ct: CartanType, data) -> WavefrontResult:
    """Wavefront sets from restriction data, maximized over the faces."""
    data = validate_restriction_data(ct, data)
    invariants = []
    for j, items in data.items():
        ctx = bc.pair_context(ct, j)
        for label, _mult in items:
            e = ctx._irrep(label)
            factor_orbits = wr.orbit_s_factors(ctx, e)
            invariants.append(du.invariant_of(ct, j, factor_orbits))
    if not invariants:
        raise WavefrontError("restriction data is empty")
    return _result_from_invariants(invariants)


def arthur_wf(ct: CartanType, dual_orbit: NilpotentOrbit) -> WavefrontResult:
    """Wavefront sets of the spherical representation with dual-side
    parameter dual_orbit; requires the adjoint form."""
    if ct.isogeny != "adjoint":
        raise WavefrontError(
            "the spherical wavefront formula assumes the adjoint split form")
    inv = du.achar_dual_one(ct, dual_orbit)
    return WavefrontResult((inv,), (inv.orbit,))


def cross_check_arthur(ct: CartanType, dual_orbit: NilpotentOrbit) -> bool:
    """Consistency of the closed form with the enumerated invariants: the
    bound is dominated by d_A(O^vee,1) and attained."""
    target = du.achar_dual_one(ct, dual_orbit)
    attained = False
    for inv, _, _ in du.enumerate_nobc(ct):
        if inv == target:
            attained = True
        if closure_leq(dual_orbit, inv.dual_orbit):
            if not du.leq_A(inv, target):
                return False
    return attained


# -- canned restriction patterns --------------------------------------

def steinberg_pattern(ct: CartanType) -> dict:
    """The restriction data of the Steinberg representation: the sign
    character of every face group."""
    out = {}
    for j in bc.proper_subsets(ct):
        ctx = bc.pair_context(ct, j)
        sgn = max(ctx.irreps(), key=lambda e: e.b)
        out[j] = [(sgn.label, 1)]
    return out


def trivial_pattern(ct: CartanType) -> dict:
    """The restriction data of the trivial representation."""
    out = {}
    for j in bc.proper_subsets(ct):
        ctx = bc.pair_context(ct, j)
        triv = next(e for e in ctx.irreps() if e.b == 0)
        out[j] = [(triv.label, 1)]
    return out


# -- JSON forms --------------------------------------------------------

def restriction_data_from_json(records) -> dict:
    def detuple(x):
        if isinstance(x, list):
            return tuple(detuple(t) for t in x)
        return x

    def is_int(x):
        return isinstance(x, int) and not isinstance(x, bool)

    def is_label(x):  # nested lists of integers and names (G2)
        return isinstance(x, list) and all(
            is_int(t) or isinstance(t, str) or is_label(t) for t in x)

    out = {}
    for rec in records:
        if not isinstance(rec["J"], list) or not all(map(is_int, rec["J"])):
            raise TypeError(f'"J" must be a list of node numbers, not {rec["J"]!r}')
        if len(set(rec["J"])) != len(rec["J"]):
            raise ValueError(f'"J" repeats a node: {rec["J"]!r}')
        items = []
        for item in rec["irreps"]:
            if not is_int(item["mult"]):
                raise TypeError(f'"mult" must be an integer, not {item["mult"]!r}')
            if not is_label(item["label"]):
                raise TypeError(f'"label" must be nested lists of integers, not {item["label"]!r}')
            items.append((detuple(item["label"]), item["mult"]))
        j = frozenset(rec["J"])
        if j in out:
            raise ValueError(f"face J={sorted(j)} appears in two records")
        out[j] = items
    return out

