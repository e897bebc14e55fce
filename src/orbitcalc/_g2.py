"""G2's affine Bala-Carter data, frozen.

G2 has 7 faces, 8 pairs in 7 classes and 5 orbits on each side, so every
answer of unramified, arthur-wf and local-wf is read from the tables
below, with no root system and no character table.  G2's center is
trivial, so both isogenies share them.  tests/test_g2_data.py reads each
entry off the test suite's oracle, the path through the faces' Weyl
groups and j-induction, in both isogenies, and fails on any edit here.

Nodes are numbered as on the command line: 0 is the affine node, 1 the
long simple root and 2 the short one.  An orbit is named by its label
(NilpotentOrbit.label): a partition such as "2,1" on an A factor, a G2
name otherwise.

duality (the unramified table, arthur-wf's attainment and local-wf's
lifts) and wavefront (the faces and their factors) import this module
on first use, through its module object.  It holds data only: it
defines no function or class, so perfbench's tracer wraps nothing of
it, and it is not one of the package's lazily loaded submodules
(orbitcalc/__init__.py).
"""

# J -> the factors of J's pseudo-Levi, each (kind, series, rank, J's nodes
# in frame order) as _labels.face_factors gives them for A-D; the faces
# by size and then by nodes
FACES = {
    (): (),
    (0,): (("A", "A", 1, (0,)),),
    (1,): (("A", "A", 1, (1,)),),
    (2,): (("A", "A", 1, (2,)),),
    (0, 1): (("A", "A", 2, (0, 1)),),
    (0, 2): (("A", "A", 1, (0,)), ("A", "A", 1, (2,))),
    (1, 2): (("G", "G", 2, (1, 2)),),
}

# (pairs, classes)
COUNTS = (8, 7)

# the unramified table, as duality.enumerate_nobc gives it:
# ((saturation, Sommers dual), classes, the least pair (J, J'))
ROWS = (
    (("0", "G2"), 1, ((), ())),
    (("A1", "G2(a1)"), 1, ((0,), ())),
    (("A1~", "G2(a1)"), 1, ((2,), ())),
    (("G2(a1)", "A1"), 1, ((0, 1), ())),
    (("G2(a1)", "A1~"), 1, ((0, 2), ())),
    (("G2", "0"), 1, ((1, 2), ())),
    (("G2(a1)", "G2(a1)"), 1, ((1, 2), (2,))),
)

# (J, the orbit on each factor) -> (saturation, Sommers dual): the
# invariant of every orbit of every face's pseudo-Levi
INVARIANTS = {
    ((), ()): ("0", "G2"),
    ((0,), ("2",)): ("A1", "G2(a1)"),
    ((0,), ("1,1",)): ("0", "G2"),
    ((1,), ("2",)): ("A1", "G2(a1)"),
    ((1,), ("1,1",)): ("0", "G2"),
    ((2,), ("2",)): ("A1~", "G2(a1)"),
    ((2,), ("1,1",)): ("0", "G2"),
    ((0, 1), ("3",)): ("G2(a1)", "A1"),
    ((0, 1), ("2,1",)): ("A1", "G2(a1)"),
    ((0, 1), ("1,1,1",)): ("0", "G2"),
    ((0, 2), ("2", "2")): ("G2(a1)", "A1~"),
    ((0, 2), ("2", "1,1")): ("A1", "G2(a1)"),
    ((0, 2), ("1,1", "2")): ("A1~", "G2(a1)"),
    ((0, 2), ("1,1", "1,1")): ("0", "G2"),
    ((1, 2), ("0",)): ("0", "G2"),
    ((1, 2), ("A1",)): ("A1", "G2(a1)"),
    ((1, 2), ("A1~",)): ("A1~", "G2(a1)"),
    ((1, 2), ("G2(a1)",)): ("G2(a1)", "G2(a1)"),
    ((1, 2), ("G2",)): ("G2", "0"),
}
