"""Spans and counters for one traced orbitcalc process.

install() wraps, from outside the program, every public function of the
orbitcalc modules (plain and lru_cache'd) in each module namespace that
refers to it, so names bound by `from ... import` are caught, and every
public method of the package's classes.  Each call records a span (name,
start, end, parent) in flat in-memory arrays; Recorder.write() saves them
at process end, and aggregate() turns a saved trace into per-layer totals.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

PACKAGE = "orbitcalc"
MODULES = ("rootdata", "partitions", "orbits", "chartab", "weylrep",
           "balacarter", "linalg", "duality", "wavefront", "cli")

# inclusive-time metrics: outermost spans of these names, per process
GROUPS = {
    "balacarter.pairs_s": ("balacarter.enumerate_pairs",),
    "balacarter.hull_s": ("balacarter.face_hull",),
    "balacarter.classes_s": ("balacarter.classes",),
    "duality.sommers_s": ("duality.sommers_dual",),
    "duality.nobc_s": ("duality.enumerate_nobc",),
    "duality.order_s": ("duality.leq_A", "duality.hasse_edges_A"),
    "duality.achar_s": ("duality.achar_dual_one",),
    "cli.store_read_s": ("cli.cache_load",),
    "cli.store_write_s": ("cli.cache_store",),
}

COUNTERS = ("balacarter.pairs", "balacarter.equiv_tests", "balacarter.equiv_hits",
            "balacarter.translate_tests", "linalg.hnf_calls", "chartab.class_labels",
            "weylrep.contexts", "weylrep.j_inductions", "rootdata.weyl_elements",
            "duality.leq_A_calls", "cli.store_hits", "cli.store_misses")


def _hooks(counts):
    """Counter updates keyed by span name: f(result, computed) where
    computed is False for an lru_cache hit."""
    def add(name, n=1):
        counts[name] += n

    return {
        "balacarter.enumerate_pairs": lambda r, new: new and add("balacarter.pairs", len(r)),
        "balacarter.equivalent": lambda r, new: (add("balacarter.equiv_tests"),
                                                 r and add("balacarter.equiv_hits")),
        "balacarter.AffineSubspace.contains_translate":
            lambda r, new: add("balacarter.translate_tests"),
        "linalg.hermite_row_basis": lambda r, new: add("linalg.hnf_calls"),
        "chartab.FactorClassifier.label": lambda r, new: add("chartab.class_labels"),
        "weylrep.j_induce": lambda r, new: add("weylrep.j_inductions"),
        "rootdata.weyl_group": lambda r, new: new and add("rootdata.weyl_elements", len(r)),
        "rootdata.subgroup_closure": lambda r, new: add("rootdata.weyl_elements", len(r)),
        "duality.leq_A": lambda r, new: add("duality.leq_A_calls"),
        "cli.cache_load": lambda r, new: add("cli.store_misses" if r is None
                                             else "cli.store_hits"),
    }


class Recorder:
    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.current = -1
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.hooks = _hooks(self.counts)
        self.caches = []

    def wrap(self, fn, name):
        nid = len(self.names)
        self.names.append(name)
        span_names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter
        hook = self.hooks.get(name)
        info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            misses = info().misses if info is not None else 0
            idx = len(span_names)
            span_names.append(nid)
            parents.append(self.current)
            ends.append(0.0)
            self.current = idx
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                self.current = parents[idx]
            if hook is not None:
                hook(result, info is None or info().misses > misses)
            return result

        if info is not None:
            wrapper.cache_info = info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def write(self, path):
        """Save the spans (binary arrays) and the counters (JSON)."""
        lru = [c.cache_info() for c in self.caches]
        meta = {"names": self.names, "spans": len(self.span_name),
                "counters": self.counts,
                "lru": {"hits": sum(i.hits for i in lru),
                        "misses": sum(i.misses for i in lru),
                        "entries": sum(i.currsize for i in lru)}}
        with open(path + ".bin", "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
        with open(path + ".json", "w") as fh:
            json.dump(meta, fh)


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _owner(obj):
    mod = getattr(obj, "__module__", None) or ""
    return mod[len(PACKAGE) + 1:] if mod.startswith(PACKAGE + ".") else None


def install() -> Recorder:
    rec = Recorder()
    modules = _package_modules()
    seen = set()
    wrapped = {}  # id(original) -> (original, wrapper)
    for mod in modules:
        for obj in list(vars(mod).values()):
            if id(obj) in seen or _owner(obj) is None:
                continue
            seen.add(id(obj))
            cached = hasattr(obj, "cache_info")
            if cached:
                rec.caches.append(obj)
            if (cached or inspect.isfunction(obj)) and not obj.__name__.startswith("_"):
                wrapped[id(obj)] = (obj, rec.wrap(obj, f"{_owner(obj)}.{obj.__qualname__}"))
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                _wrap_methods(rec, obj)
    for mod in modules:
        for key, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, key, hit[1])
    init = sys.modules[PACKAGE + ".weylrep"].WeylContext.__init__

    @functools.wraps(init)
    def counted_init(self, *args, **kwargs):
        rec.counts["weylrep.contexts"] += 1
        init(self, *args, **kwargs)

    sys.modules[PACKAGE + ".weylrep"].WeylContext.__init__ = counted_init
    return rec


def _wrap_methods(rec, cls):
    for key, attr in list(vars(cls).items()):
        if not key.startswith("_") and inspect.isfunction(attr):
            setattr(cls, key, rec.wrap(attr, f"{_owner(cls)}.{attr.__qualname__}"))


# ---------------------------------------------------------------------
# reading a saved trace
# ---------------------------------------------------------------------

def aggregate(path) -> dict:
    """Per-layer totals of one saved trace: self time per module, inclusive
    time of GROUPS (outermost spans only), counters, lru totals."""
    with open(path + ".json") as fh:
        meta = json.load(fh)
    n = meta["spans"]
    arrays = [array("i"), array("i"), array("d"), array("d")]
    with open(path + ".bin", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    name, parent, start, end = arrays
    names = meta["names"]
    module = [nm.split(".", 1)[0] for nm in names]
    group_bit = [0] * len(names)
    group_names = list(GROUPS)
    for g, members in enumerate(GROUPS.values()):
        for i, nm in enumerate(names):
            if nm in members:
                group_bit[i] = 1 << g
    child = [0.0] * n
    open_groups = [0] * n
    out = {f"{m}.self_s": 0.0 for m in MODULES}
    out.update(dict.fromkeys(GROUPS, 0.0))
    for i in range(n):
        dur = end[i] - start[i]
        p = parent[i]
        above = open_groups[p] if p >= 0 else 0
        if p >= 0:
            child[p] += dur
        bit = group_bit[name[i]]
        open_groups[i] = above | bit
        if bit and not above & bit:
            out[group_names[bit.bit_length() - 1]] += dur
    for i in range(n):
        out[f"{module[name[i]]}.self_s"] += end[i] - start[i] - child[i]
    out.update(meta["counters"])
    out.update({f"lru.{k}": v for k, v in meta["lru"].items()})
    out["trace.spans"] = n
    return out
