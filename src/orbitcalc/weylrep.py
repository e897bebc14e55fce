"""Irreducible characters of Weyl groups and the maps built on them:
truncated (j-) induction, the Springer orbit of an ambient character and
saturation.  What reads labels alone (the labels themselves,
b-invariants, Lusztig symbols, families and their specials, the orbit
side of the Springer correspondence, the map sending a character E to
the special orbit of the family of E tensor sign) is _labels', which
local-wf reads without this module.

A WeylContext wraps a reflection subgroup of an ambient root system
(given by a simple basis of roots) as a product of embedded factors; the
ambient group itself is the context of the full simple basis.  Its
classes are tuples of factor classes, each with one representative (the
product of the factors' representatives) and its size (the product of
the factors' sizes, from centralizer orders); inner products and
induction sum over these classes, and no group is enumerated.

Each datum is computed once per process.  A context keeps its class
representatives, its irreps and its character values, and builds its
class labellers on first use; the fusion of a context's classes into the
ambient ones and the weighting solve of each factor orbit are cached by
their arguments.  j_induce folds the fusion into the induced class
function once per character, so each candidate costs one dot product.
Every cached value is immutable (an integer, a tuple, a frozenset, a
namedtuple or a read-only mapping of those), so no caller can change what
a later query is served.  cartantype.GROUP_ORDER_CAP is read whenever a
context is built, and ambient_context reads it at every call, before
its cache: contexts share their factors (rootdata.build_factor), never
the check.
"""

import math
from collections import namedtuple
from functools import cached_property, lru_cache, partial
from types import MappingProxyType

from . import _labels, cartantype
from . import partitions as pt
from .chartab import (CharError, FactorClassifier, factor_char_value,
                      factor_classes)
from .linalg import solve
from .orbits import (NilpotentOrbit, WeightedDynkinDiagram, orbit_from_wdd,
                     weighted_dynkin)
from .rootdata import (CartanType, EmbeddedFactor, build_factor,
                       build_root_system, dominant_conjugate,
                       split_basis_into_factors)


class JInductionTie(CharError):
    """Truncated induction has no unique minimal-b constituent."""

    def __init__(self, message, candidates):
        super().__init__(message)
        self.candidates = tuple(candidates)


class WeylIrrep(namedtuple("WeylIrrep", "factors label b")):
    # factors: ((series, rank), ...); label: the per-factor labels
    __slots__ = ()

    def __str__(self):
        return f"{_label_str(self.factors, self.label)} (b={self.b})"


def _label_str(factors, label):
    bits = []
    for (series, rank), lab in zip(factors, label):
        if series == "G":
            bits.append(lab)
        elif series == "A":
            bits.append(f"[{pt.format_partition(lab)}]")
        elif series in ("B", "C"):
            lam, mu = lab
            bits.append(f"[{pt.format_partition(lam)};{pt.format_partition(mu)}]")
        else:
            (lam, mu), sign = lab
            tag = {0: "", 1: "+", -1: "-"}[sign]
            bits.append(f"{{{pt.format_partition(lam)};{pt.format_partition(mu)}}}{tag}")
    return "x".join(bits) if bits else "1"


class WeylContext:
    """A reflection subgroup W_J of the ambient Weyl group."""

    def __init__(self, ct: CartanType, basis, _standard_order=False):
        self.cartan_type = ct
        self.rs = build_root_system(ct)
        for beta in basis:
            if beta not in self.rs._root_index:
                raise CharError(f"{beta} is not a root of {ct}")
        comps = split_basis_into_factors(self.rs, tuple(basis))
        if _standard_order:
            # ambient systems: keep the declared simple-root order and
            # series so that labels match the system-level orbit recipes;
            # such a system is connected (D2, the one that is not, keeps
            # the canonical order)
            self.factors = tuple(
                build_factor(self.rs, c, forced_basis=c, forced_series=ct.series)
                for c in comps)
        else:
            self.factors = tuple(build_factor(self.rs, c) for c in comps)
        self.factor_signature = tuple((f.series, f.rank) for f in self.factors)
        self.order = 1
        for f in self.factors:
            self.order *= _factor_order(f)
        cartantype._check_group_order(self.order)
        self._classes = self._irreps = None
        self._values = {}  # (irrep label, class) -> character value

    @cached_property
    def classifiers(self):
        return tuple(FactorClassifier(self.rs, f) for f in self.factors)

    def class_of(self, w):
        return tuple(c.label(w) for c in self.classifiers)

    def class_representatives(self):
        """(class, representative, size) for each conjugacy class of W_J."""
        if self._classes is None:
            out = [((), tuple(range(len(self.rs.roots))), 1)]
            for f, c in zip(self.factors, self.classifiers):
                reps = [(lab, c.representative(lab), size)
                        for lab, size in factor_classes(f.kind, f.rank)]
                out = [(cls + (lab,), tuple(w[i] for i in r), n * size)
                       for cls, w, n in out for lab, r, size in reps]
            if sum(n for _, _, n in out) != self.order:
                raise CharError(f"class sizes do not sum to the order {self.order}")
            self._classes = tuple(out)
        return self._classes

    # -- irreps ---------------------------------------------------------

    def irreps(self):
        if self._irreps is None:
            labels = [()]
            for f in self.factors:
                labels = [acc + (lab,) for acc in labels
                          for lab in _labels.factor_irrep_labels(f.kind, f.rank)]
            self._irreps = tuple(self._irrep(lab) for lab in labels)
        return self._irreps

    def _irrep(self, label):
        b = sum(_labels.b_invariant(f.kind, lab) for f, lab in zip(self.factors, label))
        return WeylIrrep(self.factor_signature, tuple(label), b)

    def char_value(self, irrep: WeylIrrep, cls) -> int:
        key = (irrep.label, cls)
        v = self._values.get(key)
        if v is None:
            v = 1
            for f, lab, c in zip(self.factors, irrep.label, cls):
                v *= factor_char_value(f.kind, lab, c)
            self._values[key] = v
        return v

    def inner_product(self, e1: WeylIrrep, e2: WeylIrrep) -> int:
        tot = 0
        for cls, _, size in self.class_representatives():
            tot += size * self.char_value(e1, cls) * self.char_value(e2, cls)
        q, r = divmod(tot, self.order)
        if r:
            raise CharError(f"non-integral inner product {tot}/{self.order}")
        return q


def _factor_order(f: EmbeddedFactor) -> int:
    return cartantype._weyl_order(f.series, f.rank)


# ---------------------------------------------------------------------
# context construction and caching
# ---------------------------------------------------------------------

@partial(cartantype._capped_cache, check=cartantype._check_weyl_order)
def ambient_context(ct: CartanType) -> WeylContext:
    """The context of ct's whole Weyl group.  GROUP_ORDER_CAP is checked
    at every call, before the cache."""
    rs = build_root_system(ct)
    # keep the declared simple-root order whenever it is a standard model:
    # everywhere except D3 (an A3 whose declared order is not a path) and
    # D2 (two A1 components, where the canonical form is already fine)
    standard = not (ct.series == "D" and ct.rank in (2, 3))
    return WeylContext(ct, rs.simple_roots, _standard_order=standard)


def subgroup_context(ct: CartanType, basis: tuple) -> WeylContext:
    return WeylContext(ct, basis)


@lru_cache(maxsize=None)
def _fusion(sub: WeylContext):
    """Counter of (subgroup class, ambient class) pairs over W_J, in the
    labels of the given context: a class of W_J lies in the W-class of
    its representative."""
    amb = ambient_context(sub.cartan_type)
    return MappingProxyType({(cls, amb.class_of(w)): n
                             for cls, w, n in sub.class_representatives()})


def _induced(sub: WeylContext, e_sub: WeylIrrep):
    """|W_J| Ind_{W_J}^W e_sub on the ambient classes that meet W_J: each
    class of W_J adds its size times e_sub's value to the ambient class
    of its representative."""
    out = {}
    for (scls, acls), cnt in _fusion(sub).items():
        out[acls] = out.get(acls, 0) + cnt * sub.char_value(e_sub, scls)
    return out


def _multiplicity(sub: WeylContext, induced, e_amb: WeylIrrep) -> int:
    """<Ind e_sub, e_amb>, induced being _induced(sub, e_sub)."""
    amb = ambient_context(sub.cartan_type)
    q, r = divmod(sum(v * amb.char_value(e_amb, acls) for acls, v in induced.items()),
                  sub.order)
    if r:
        raise CharError("non-integral induction multiplicity")
    return q


def j_induce(sub: WeylContext, e_sub: WeylIrrep) -> WeylIrrep:
    """Unique constituent of Ind e_sub with the same b-invariant: the
    induced class function is folded once, and each candidate with
    b <= b(e_sub) costs one dot product."""
    amb = ambient_context(sub.cartan_type)
    induced = _induced(sub, e_sub)
    hits = []
    for e in amb.irreps():
        if e.b > e_sub.b:
            continue
        m = _multiplicity(sub, induced, e)
        if m > 0:
            if e.b < e_sub.b:
                raise CharError(
                    f"induction of {e_sub} has constituent below b={e_sub.b}")
            hits.append((e, m))
    if len(hits) == 1 and hits[0][1] == 1:
        return hits[0][0]
    raise JInductionTie(
        f"truncated induction of {e_sub} is not a single constituent: {hits}",
        [h[0] for h in hits])


# ---------------------------------------------------------------------
# transporting factor orbits into the ambient system
# ---------------------------------------------------------------------

def ambient_orbit_from_factor_orbits(rs, factors, factor_orbits):
    """Saturation: build the neutral element h from the per-factor weighted
    diagrams, dominance-normalize, and look the diagram up.  rs is the
    ambient root system and factors the embedded factors of the subsystem
    (a context's factors, or a face's).

    On each factor h = sum_k t_k beta_k^vee with C t = wdd, C the factor's
    Cartan matrix; solve gives t as x / d, and h is summed as m * h over
    the common denominator m of the factors."""
    n = rs.rank
    sols = [(f, _factor_weighting(f.cartan, weighted_dynkin(orb).values))
            for f, orb in zip(factors, factor_orbits)]
    m = math.lcm(*(d for _, (_, d) in sols))
    h = [0] * n
    for f, (x, d) in sols:
        for coef, beta in zip(x, f.basis):
            cw = rs.coroot_coweight_coords(beta)
            for i in range(n):
                h[i] += m // d * coef * cw[i]
    if any(v % m for v in h):
        raise CharError(f"non-integral weighting {tuple(h)}/{m}")
    hdom = dominant_conjugate(rs, tuple(v // m for v in h))
    return orbit_from_wdd(WeightedDynkinDiagram(rs.cartan_type, hdom))


@lru_cache(maxsize=None)
def _factor_weighting(cartan, wdd):
    """(x, d) with cartan x = d wdd: one solve per factor type and diagram."""
    return solve(cartan, wdd)


# ---------------------------------------------------------------------
# Springer orbits
# ---------------------------------------------------------------------

@lru_cache(maxsize=None)
def springer_orbit(ctx: WeylContext, irrep: WeylIrrep,
                   target: CartanType | None = None) -> NilpotentOrbit:
    """Orbit of the Springer pair of an ambient-group representation.

    target names the root system whose Weyl group carries the character
    (default: the context's own system; pass the dual type to read the
    character on the dual side).
    """
    tgt = target or ctx.cartan_type
    tctx = ambient_context(tgt)
    if [f.kind for f in tctx.factors] != [f.kind for f in ctx.factors] or \
            [f.rank for f in tctx.factors] != [f.rank for f in ctx.factors]:
        raise CharError("context/target Weyl groups do not match")
    orbs = tuple(_labels.springer_orbit_label(f.cartan_type(), lab)
                 for f, lab in zip(tctx.factors, irrep.label))
    return ambient_orbit_from_factor_orbits(tctx.rs, tctx.factors, orbs)

