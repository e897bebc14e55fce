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


def smith_normal_form(a):
    """Return (d, u, v) with u*a*v = d diagonal, u and v unimodular.

    Standard elementary-operation algorithm; entries must be ints.
    """
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    u = [list(r) for r in identity(rows)]
    v = [list(r) for r in identity(cols)]

    def pivot_at(t):
        # move a nonzero entry of minimal absolute value to (t, t)
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(rows, cols):
        pos = pivot_at(t)
        if pos is None:
            break
        i, j = pos
        _swap_rows(m, t, i)
        _swap_rows(u, t, i)
        for r in m:
            r[t], r[j] = r[j], r[t]
        for r in v:
            r[t], r[j] = r[j], r[t]
        dirty = False
        for i in range(t + 1, rows):
            q = m[i][t] // m[t][t]
            if q:
                m[i] = [x - q * y for x, y in zip(m[i], m[t])]
                u[i] = [x - q * y for x, y in zip(u[i], u[t])]
            if m[i][t]:
                dirty = True
        for j in range(t + 1, cols):
            q = m[t][j] // m[t][t]
            if q:
                for r in m:
                    r[j] -= q * r[t]
                for r in v:
                    r[j] -= q * r[t]
            if m[t][j]:
                dirty = True
        if dirty:
            continue
        # divisibility condition d_t | all later entries
        bad = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if m[i][j] % m[t][t] != 0:
                    bad = (i, j)
                    break
            if bad:
                break
        if bad:
            i, _ = bad
            m[t] = [x + y for x, y in zip(m[t], m[i])]
            u[t] = [x + y for x, y in zip(u[t], u[i])]
            continue
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return (tuple(tuple(r) for r in m), tuple(tuple(r) for r in u),
            tuple(tuple(r) for r in v))


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
    """Basis (rows) of {x in ZZ^n : a x = 0} for an integer matrix a.

    The kernel of an integer matrix is a saturated sublattice, so this
    basis is a basis of a saturated lattice.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if rows == 0:
        return identity(cols)
    d, _, v = smith_normal_form(a)
    rank = sum(1 for i in range(min(rows, cols)) if d[i][i] != 0)
    # columns rank..cols-1 of v span the kernel
    ker = tuple(tuple(v[i][j] for i in range(cols)) for j in range(rank, cols))
    return hermite_row_basis(ker) if ker else ()


def lattice_index(sub_rows, n):
    """Index of the full-rank row lattice sub_rows inside ZZ^n."""
    d, _, _ = smith_normal_form(sub_rows)
    idx = 1
    for i in range(n):
        if d[i][i] == 0:
            raise ValueError("sublattice not of full rank")
        idx *= abs(d[i][i])
    return idx
