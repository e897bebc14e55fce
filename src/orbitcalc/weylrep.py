"""Irreducible characters of Weyl groups and the maps built on them:
b-invariants, Lusztig symbols and families, special representations, the
orbit side of the Springer correspondence, truncated (j-) induction, and
the map sending a character E to the special orbit of the family of
E tensor sign.

A WeylContext wraps a reflection subgroup of an ambient root system
(given by a simple basis of roots) as a product of embedded factors; the
ambient group itself is the context of the full simple basis.  Its
classes are tuples of factor classes, each with one representative (the
product of the factors' representatives) and its size (the product of
the factors' sizes, from centralizer orders); inner products and
induction sum over these classes, and no group is enumerated.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from . import partitions as pt
from .chartab import (CharError, EmbeddedFactor, FactorClassifier,
                      b_invariant, build_factor, factor_char_value,
                      factor_classes, factor_irrep_labels,
                      split_basis_into_factors)
from .linalg import solve
from .orbits import (NilpotentOrbit, WeightedDynkinDiagram, enumerate_orbits,
                     orbit_from_wdd, weighted_dynkin)
from .rootdata import CartanType, build_root_system, dominant_conjugate

GROUP_ORDER_CAP = 10 ** 6


class JInductionTie(CharError):
    """Truncated induction has no unique minimal-b constituent."""

    def __init__(self, message, candidates):
        super().__init__(message)
        self.candidates = tuple(candidates)


class WeylIrrep(namedtuple("WeylIrrep", "factors label b")):
    # factors: ((series, rank), ...); label: the per-factor labels
    __slots__ = ()

    def to_json(self):
        return {"factors": [list(f) for f in self.factors],
                "label": _label_json(self.label),
                "b": self.b}

    def __str__(self):
        return f"{_label_str(self.factors, self.label)} (b={self.b})"


def _label_json(label):
    def conv(x):
        if isinstance(x, tuple):
            return [conv(t) for t in x]
        return x
    return conv(label)


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
        self.classifiers = tuple(FactorClassifier(self.rs, f) for f in self.factors)
        self.order = 1
        for f in self.factors:
            self.order *= _factor_order(f)
        if self.order > GROUP_ORDER_CAP:
            raise CharError(f"group of order {self.order} exceeds cap {GROUP_ORDER_CAP}")
        self._classes = None

    @property
    def factor_signature(self):
        return tuple((f.series, f.rank) for f in self.factors)

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

    def class_counts(self):
        return {cls: n for cls, _, n in self.class_representatives()}

    # -- irreps ---------------------------------------------------------

    def irreps(self):
        labels = [()]
        for f in self.factors:
            labels = [acc + (lab,) for acc in labels
                      for lab in factor_irrep_labels(f.kind, f.rank)]
        return tuple(self._irrep(lab) for lab in labels)

    def _irrep(self, label):
        b = sum(b_invariant(f.kind, lab) for f, lab in zip(self.factors, label))
        return WeylIrrep(self.factor_signature, tuple(label), b)

    def char_value(self, irrep: WeylIrrep, cls) -> int:
        v = 1
        for f, lab, c in zip(self.factors, irrep.label, cls):
            v *= factor_char_value(f.kind, lab, c)
        return v

    def dim(self, irrep: WeylIrrep) -> int:
        return self.char_value(irrep, self.class_of(tuple(range(len(self.rs.roots)))))

    def inner_product(self, e1: WeylIrrep, e2: WeylIrrep) -> int:
        tot = 0
        for cls, _, size in self.class_representatives():
            tot += size * self.char_value(e1, cls) * self.char_value(e2, cls)
        q, r = divmod(tot, self.order)
        if r:
            raise CharError(f"non-integral inner product {tot}/{self.order}")
        return q

    def tensor_sgn(self, irrep: WeylIrrep) -> WeylIrrep:
        out = []
        for f, lab in zip(self.factors, irrep.label):
            out.append(_tensor_sgn_label(f, lab))
        return self._irrep(tuple(out))


def _factor_order(f: EmbeddedFactor) -> int:
    k = f.rank
    if f.kind == "A":
        return math.factorial(k + 1)
    if f.kind == "BC":
        return (2 ** k) * math.factorial(k)
    if f.kind == "D":
        return (2 ** (k - 1)) * math.factorial(k)
    return 12


def _tensor_sgn_label(f: EmbeddedFactor, lab):
    if f.kind == "A":
        return pt.transpose(lab)
    if f.kind == "BC":
        lam, mu = lab
        return (pt.transpose(mu), pt.transpose(lam))
    if f.kind == "D":
        (lam, mu), sign = lab
        tl, tm = pt.transpose(lam), pt.transpose(mu)
        if sign == 0:
            return (tuple(sorted((tl, tm))), 0)
        flip = 1 if (f.rank // 2) % 2 == 0 else -1
        return ((tl, tm), sign * flip)
    table = {"phi(1,0)": "phi(1,6)", "phi(1,6)": "phi(1,0)",
             "phi(1,3)l": "phi(1,3)s", "phi(1,3)s": "phi(1,3)l",
             "phi(2,1)": "phi(2,1)", "phi(2,2)": "phi(2,2)"}
    return table[lab]


# ---------------------------------------------------------------------
# context construction and caching
# ---------------------------------------------------------------------

@lru_cache(maxsize=None)
def ambient_context(ct: CartanType) -> WeylContext:
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
    return {(cls, amb.class_of(w)): n for cls, w, n in sub.class_representatives()}


def induce_multiplicity(sub: WeylContext, e_sub: WeylIrrep,
                        e_amb: WeylIrrep) -> int:
    """<Ind_{W_J}^W e_sub, e_amb>, by summation over the classes of W_J."""
    amb = ambient_context(sub.cartan_type)
    tot = 0
    for (scls, acls), cnt in _fusion(sub).items():
        tot += cnt * sub.char_value(e_sub, scls) * amb.char_value(e_amb, acls)
    q, r = divmod(tot, sub.order)
    if r:
        raise CharError("non-integral induction multiplicity")
    return q


def j_induce(sub: WeylContext, e_sub: WeylIrrep) -> WeylIrrep:
    """Unique constituent of Ind e_sub with the same b-invariant."""
    amb = ambient_context(sub.cartan_type)
    hits = []
    for e in amb.irreps():
        if e.b > e_sub.b:
            continue
        m = induce_multiplicity(sub, e_sub, e)
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
# symbols, families, special representations
# ---------------------------------------------------------------------

def _inc_pad(p, size):
    p = sorted(p)
    if len(p) > size:
        raise CharError(f"partition {p} too long for row of size {size}")
    return [0] * (size - len(p)) + p


def _bc_symbol(lam, mu, m):
    top = [v + i for i, v in enumerate(_inc_pad(lam, m + 1))]
    bot = [v + i for i, v in enumerate(_inc_pad(mu, m))]
    return tuple(top), tuple(bot)


def _d_symbol(lam, mu, m):
    top = [v + i for i, v in enumerate(_inc_pad(lam, m))]
    bot = [v + i for i, v in enumerate(_inc_pad(mu, m))]
    return tuple(top), tuple(bot)


def _interleaved(a, b):
    """a_1 <= b_1 <= a_2 <= ... for rows of sizes len(b)+1 or equal size."""
    for i in range(len(b)):
        if not a[i] <= b[i]:
            return False
        if i + 1 < len(a) and not b[i] <= a[i + 1]:
            return False
    return True


def factor_family_key(f: EmbeddedFactor, lab):
    if f.kind == "A":
        return ("A", lab)
    if f.kind == "BC":
        lam, mu = lab
        top, bot = _bc_symbol(lam, mu, f.rank)
        return ("BC", tuple(sorted(top + bot)))
    if f.kind == "D":
        (lam, mu), sign = lab
        top, bot = _d_symbol(lam, mu, f.rank)
        return ("D", tuple(sorted(top + bot)), sign)
    fam = {"phi(1,0)": "triv", "phi(1,6)": "sgn"}.get(lab, "big")
    return ("G", fam)


def factor_is_special(f: EmbeddedFactor, lab) -> bool:
    if f.kind == "A":
        return True
    if f.kind == "BC":
        lam, mu = lab
        top, bot = _bc_symbol(lam, mu, f.rank)
        return _interleaved(top, bot)
    if f.kind == "D":
        (lam, mu), sign = lab
        if sign:
            return True
        top, bot = _d_symbol(lam, mu, f.rank)
        return _interleaved(top, bot) or _interleaved(bot, top)
    return lab in ("phi(1,0)", "phi(2,1)", "phi(1,6)")


def is_special_rep(ctx: WeylContext, irrep: WeylIrrep) -> bool:
    return all(factor_is_special(f, lab)
               for f, lab in zip(ctx.factors, irrep.label))


def family_key(ctx: WeylContext, irrep: WeylIrrep):
    return tuple(factor_family_key(f, lab)
                 for f, lab in zip(ctx.factors, irrep.label))


def families(ctx: WeylContext):
    """Partition of Irr into families; each family lists (members, special)."""
    blocks = {}
    for e in ctx.irreps():
        blocks.setdefault(family_key(ctx, e), []).append(e)
    out = []
    for key, members in blocks.items():
        specials = [e for e in members if is_special_rep(ctx, e)]
        if len(specials) != 1:
            raise CharError(f"family {key} has specials {specials}")
        out.append((tuple(members), specials[0]))
    return tuple(out)


def special_member(ctx: WeylContext, irrep: WeylIrrep) -> WeylIrrep:
    """The special representation in the family of irrep."""
    key = family_key(ctx, irrep)
    out = []
    for e in ctx.irreps():
        if family_key(ctx, e) == key and is_special_rep(ctx, e):
            out.append(e)
    if len(out) != 1:
        raise CharError(f"family of {irrep} has specials {out}")
    return out[0]


# ---------------------------------------------------------------------
# Springer correspondence (orbit component)
# ---------------------------------------------------------------------

G2_SPRINGER = {"G2": "phi(1,0)", "G2(a1)": "phi(2,1)", "A1~": "phi(2,2)",
               "A1": "phi(1,3)s", "0": "phi(1,6)"}
# the remaining character belongs to the pair (G2(a1), nontrivial system)
G2_SPRINGER_EXTRA_ORBIT = {"phi(1,3)l": "G2(a1)"}


def _unshift(row):
    row = sorted(row)
    parts = [v - i for i, v in enumerate(row)]
    if any(x < 0 for x in parts):
        raise CharError(f"{row} is not a symbol row")
    return pt.normalize(parts)


def springer_rep_label(orbit: NilpotentOrbit):
    """Factor-level Springer label (trivial local system) of an orbit."""
    ct = orbit.system
    s, n = ct.series, ct.rank
    if s == "G":
        return G2_SPRINGER[orbit.g2_label]
    if s == "A":
        return orbit.partition
    p = sorted(orbit.partition)
    if s in ("B", "C"):
        want = len(p) if len(p) % 2 == 1 else len(p) + 1
    else:
        want = len(p) if len(p) % 2 == 0 else len(p) + 1
    p = [0] * (want - len(p)) + p
    star = [v + i for i, v in enumerate(p)]
    odds = [(v - 1) // 2 for v in star if v % 2 == 1]
    evens = [v // 2 for v in star if v % 2 == 0]
    if s == "B":
        if len(odds) != len(evens) + 1:
            raise CharError(f"bad type-B symbol for {orbit}")
        lam, mu = _unshift(odds), _unshift(evens)
        return (lam, mu)
    if s == "C":
        if len(evens) != len(odds) + 1:
            raise CharError(f"bad type-C symbol for {orbit}")
        lam, mu = _unshift(evens), _unshift(odds)
        return (lam, mu)
    # D; the sign/mark alignment is pinned by the Bala-Carter rows: the
    # '+' character (positive block-cycle split classes) pairs with mark II
    if len(odds) != len(evens):
        raise CharError(f"bad type-D symbol for {orbit}")
    pair = tuple(sorted((_unshift(odds), _unshift(evens))))
    sign = 0
    if pair[0] == pair[1]:
        sign = -1 if orbit.mark == "I" else 1
    return (pair, sign)


@lru_cache(maxsize=None)
def _springer_image(ct: CartanType):
    return {springer_rep_label(o): o for o in enumerate_orbits(ct)}


def springer_orbit_label(ct: CartanType, lab) -> NilpotentOrbit:
    """Orbit of the Springer pair of a factor-level label.

    On the image of the trivial-local-system map this inverts
    springer_rep_label; off it only G2's phi(1,3)l (the sign character of
    A(G2(a1)) = S3) is known, and a classical label raises CharError.
    """
    image = _springer_image(ct)
    if lab in image:
        return image[lab]
    if ct.series == "G":
        return NilpotentOrbit(ct, g2_label=G2_SPRINGER_EXTRA_ORBIT[lab])
    raise CharError(f"{lab} is not the Springer label of an orbit of {ct} "
                    f"with the trivial local system")


# ---------------------------------------------------------------------
# transporting factor orbits into the ambient system
# ---------------------------------------------------------------------

def ambient_orbit_from_factor_orbits(ctx: WeylContext, factor_orbits):
    """Saturation: build the neutral element h from the per-factor weighted
    diagrams, dominance-normalize, and look the diagram up.

    On each factor h = sum_k t_k beta_k^vee with C t = wdd, C the factor's
    Cartan matrix; solve gives t as x / d, and h is summed as m * h over
    the common denominator m of the factors."""
    rs = ctx.rs
    n = rs.rank
    sols = [(f, solve(f.cartan, weighted_dynkin(orb).values))
            for f, orb in zip(ctx.factors, factor_orbits)]
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
    return orbit_from_wdd(WeightedDynkinDiagram(ctx.cartan_type, hdom))


def factor_orbit_from_distinguished_labels(f: EmbeddedFactor, zero_nodes):
    """Distinguished orbit of one factor from its 0/2 weighting.

    zero_nodes: subset of f.basis getting weight 0 (the rest get 2).
    """
    ct = f.cartan_type()
    wdd = tuple(0 if b in zero_nodes else 2 for b in f.basis)
    return orbit_from_wdd(WeightedDynkinDiagram(ct, wdd))


# ---------------------------------------------------------------------
# the orbit of E tensor sign's family special, factor by factor
# ---------------------------------------------------------------------

def orbit_s_factors(ctx: WeylContext, irrep: WeylIrrep):
    """Per-factor special orbits attached to irrep (the E -> O^s(E) map)."""
    twisted = ctx.tensor_sgn(irrep)
    special = special_member(ctx, twisted)
    out = []
    for f, lab in zip(ctx.factors, special.label):
        out.append(springer_orbit_label(f.cartan_type(), lab))
    return tuple(out)


def orbit_s(ctx: WeylContext, irrep: WeylIrrep) -> NilpotentOrbit:
    """The special orbit of the ambient system attached to a character of
    the context group: lift the per-factor special orbits."""
    return ambient_orbit_from_factor_orbits(ctx, orbit_s_factors(ctx, irrep))


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
    orbs = tuple(springer_orbit_label(f.cartan_type(), lab)
                 for f, lab in zip(tctx.factors, irrep.label))
    return ambient_orbit_from_factor_orbits(tctx, orbs)


def is_orbit_rep(ctx: WeylContext, irrep: WeylIrrep) -> bool:
    """True when the Springer pair of irrep carries the trivial local system."""
    return all(lab in _springer_image(f.cartan_type())
               for f, lab in zip(ctx.factors, irrep.label))


def orbit_springer_irrep(ctx: WeylContext, orbit: NilpotentOrbit,
                         source: CartanType | None = None) -> WeylIrrep:
    """The representation of the context's Weyl group whose Springer pair is
    (orbit, trivial system); source names the system the orbit lives in."""
    src = source or orbit.system
    for e in ctx.irreps():
        if is_orbit_rep(ctx, e) and springer_orbit(ctx, e, target=src) == orbit:
            return e
    raise CharError(f"no trivial-system representation found for {orbit}")
