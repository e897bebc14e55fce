"""Wavefront-set computations.

local_wf is the generic engine: it consumes externally supplied restriction
data (for each face J of the alcove, the characters of W_J appearing in the
restriction of the Iwahori-fixed space, with multiplicities), pushes each
character to the special orbit of its twisted family, lifts through the
face, and keeps the A-order maxima.  Labels and orbits come from the faces'
factor types (_labels, imported on first use), lifts from
duality.face_invariant, and the factors themselves, for types A-D from
the nodes' coordinates (_labels.face_factors) and for G2 from its
frozen table (_g2), so that local_wf builds no root system and runs no
character table.

arthur_wf evaluates the closed form for spherical representations attached
to a dual-side orbit: the canonical unramified wavefront set is the single
invariant (d(O^vee), O^vee) and the geometric wavefront set is d(O^vee).
Its check that some affine Bala-Carter pair attains the invariant
(duality.achar_dual_one) reads partitions for types A-D, very even
marks included, and G2's frozen table, so that arthur_wf runs no root
system and no character table.
"""

from collections import namedtuple

from . import cartantype
from . import duality as du
from .cartantype import ABCError, CartanType
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


def _face_factors(ct: CartanType, j: frozenset) -> tuple:
    """J's factors, (kind, series, rank, nodes) each: for types A-D off
    the nodes' coordinates (_labels.face_factors), with no root system;
    for G2 from its frozen table (_g2).  Raises WavefrontError unless J
    is a face."""
    factors = None
    if ct.series == "G":
        from . import _g2
        factors = _g2.FACES.get(tuple(sorted(j)))
    else:
        from . import _labels
        try:
            factors = _labels.face_factors(ct.series, ct.rank, j)
        except ABCError:
            pass
    if factors is None:
        raise WavefrontError(f"J={sorted(j)} is not a face type of {ct}")
    return factors


def validate_restriction_data(ct: CartanType, data) -> dict:
    """data: {frozenset(node numbers) -> [(label tuple, mult), ...]}, a
    label holding one label per factor of the face."""
    from . import _labels
    out = {}
    for j, items in data.items():
        j = frozenset(j)
        if j in out:
            raise WavefrontError(f"J={sorted(j)} is given twice")
        valid = [_labels.factor_irrep_labels(kind, rank)
                 for kind, _, rank, *_ in _face_factors(ct, j)]
        checked = []
        for label, mult in items:
            label = tuple(label)
            if mult <= 0:
                raise WavefrontError("multiplicities must be positive")
            if len(label) != len(valid) or not all(lab in labs for labs, lab in zip(valid, label)):
                raise WavefrontError(
                    f"{label} is not a character of the face group of {sorted(j)}")
            checked.append((label, int(mult)))
        out[j] = tuple(checked)
    return out


def local_wf(ct: CartanType, data) -> WavefrontResult:
    """Wavefront sets from restriction data, maximized over the faces.  A
    system whose Weyl group is past GROUP_ORDER_CAP fails first.  No
    lift builds a root system or a group, so the check is only
    local-wf's documented bound until the caps are split."""
    from . import _labels
    cartantype._check_weyl_order(ct)
    data = validate_restriction_data(ct, data)
    invariants = []
    for j, items in data.items():
        factors = _face_factors(ct, j)
        for label, _mult in items:
            factor_orbits = _labels.orbit_s_factors(factors, label)
            invariants.append(du.face_invariant(ct, j, factor_orbits))
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

def _pattern(ct: CartanType, pick) -> dict:
    """One character of every face group, picked factor by factor by b.
    The faces of A-D are listed off the nodes' coordinates
    (_classical.faces), G2's read from its frozen table (_g2)."""
    from . import _labels
    if ct.series == "G":
        from . import _g2
        faces = map(frozenset, _g2.FACES)
    else:
        from . import _classical
        faces = _classical.faces(ct.series, ct.rank)
    out = {}
    for j in faces:
        label = tuple(pick(_labels.factor_irrep_labels(kind, rank),
                           key=lambda lab: _labels.b_invariant(kind, lab))
                      for kind, _, rank, *_ in _face_factors(ct, j))
        out[j] = [(label, 1)]
    return out


def steinberg_pattern(ct: CartanType) -> dict:
    """The restriction data of the Steinberg representation: the sign
    character of every face group."""
    return _pattern(ct, max)


def trivial_pattern(ct: CartanType) -> dict:
    """The restriction data of the trivial representation."""
    return _pattern(ct, min)


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

