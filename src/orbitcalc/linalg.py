"""Exact integer linear algebra for small matrices.

Everything in this package runs on matrices of size at most ~7, so the
implementations favour clarity and exactness (python ints) over
asymptotics.  Matrices are tuples of tuples, rows first.  The one
elimination is the row Hermite form (hermite_row_basis); kernels and
solves are read off it, a rational solution as integers over a
denominator.
"""

from __future__ import annotations


def mat_vec(a, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a):
    return tuple(zip(*a)) if a else ()


def _swap_rows(m, i, j):
    m[i], m[j] = m[j], m[i]


def hermite_row_basis(a):
    """Canonical row-HNF basis of the lattice spanned by the rows of a.

    Zero rows are dropped, pivots are positive, entries above a pivot are
    reduced mod the pivot.  The result is a canonical form: two integer
    matrices span the same row lattice iff their forms are equal.
    """
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if m[i][c] != 0 and (piv is None or abs(m[i][c]) < abs(m[piv][c])):
                piv = i
        if piv is None:
            continue
        _swap_rows(m, r, piv)
        # clear below via gcd steps
        again = True
        while again:
            again = False
            for i in range(r + 1, rows):
                if m[i][c] == 0:
                    continue
                q = m[i][c] // m[r][c]
                m[i] = [x - q * y for x, y in zip(m[i], m[r])]
                if m[i][c] != 0:
                    _swap_rows(m, r, i)
                    again = True
        if m[r][c] < 0:
            m[r] = [-x for x in m[r]]
        for i in range(r):
            q = m[i][c] // m[r][c]
            if q:
                m[i] = [x - q * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == rows:
            break
    return tuple(tuple(row) for row in m[:r] if any(row))


def integer_kernel(a):
    """Basis (rows, Hermite form) of {x in ZZ^n : a x = 0} for an integer
    matrix a.

    The Hermite form of [a^T | I] is U [a^T | I] with U unimodular; its
    rows whose a^T part is zero are the rows x of U with x a^T = 0, and
    their I parts are the Hermite basis of the kernel.  The kernel of an
    integer matrix is a saturated sublattice.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if rows == 0:
        return identity(cols)
    aug = tuple(col + e for col, e in zip(transpose(a), identity(cols)))
    return tuple(h[rows:] for h in hermite_row_basis(aug) if not any(h[:rows]))


def solve(a, b):
    """Solve a x = b for integer square a and integer vector b.

    Returns (x, d) with a x = d b, d > 0 and gcd(x, d) = 1, so x / d is
    the rational solution and d its least common denominator.  They are
    read off the kernel of [a | -b], which is one primitive row (x, d)
    when a is invertible.
    """
    aug = tuple(tuple(row) + (-v,) for row, v in zip(a, b))
    ker = integer_kernel(aug)
    if len(ker) != 1 or not ker[0][-1]:
        raise ValueError("matrix not invertible")
    row = ker[0] if ker[0][-1] > 0 else tuple(-v for v in ker[0])
    return row[:-1], row[-1]
