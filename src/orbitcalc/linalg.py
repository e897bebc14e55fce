"""Exact linear algebra over ZZ and QQ for small matrices.

Everything in this package runs on matrices of size at most ~7, so the
implementations favour clarity and exactness (python ints / Fraction)
over asymptotics.  Matrices are tuples of tuples, rows first.
"""

from __future__ import annotations

from fractions import Fraction


def mat_vec(a, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a):
    return tuple(zip(*a)) if a else ()


def mat_inv(a):
    """Inverse of a square matrix over QQ (entries int or Fraction)."""
    n = len(a)
    aug = [[Fraction(a[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("matrix not invertible")
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def solve(a, b):
    """Solve a x = b exactly; a square invertible, b a vector."""
    inv = mat_inv(a)
    return mat_vec(inv, b)


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
