"""Exact linear algebra over the rationals and over GF(p).

Matrices are lists of lists of ints or Fractions; nothing here ever touches
floating point.  One fraction-free elimination kernel, `echelon`, serves
every exact rank and solve in the package; `simplex_max` is a small
rational simplex for the LP bounds of the semigroup layer.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def mat_mul(a, b):
    """Product of two matrices (lists of rows)."""
    n, k, m = len(a), len(b), len(b[0])
    assert len(a[0]) == k
    bt = list(zip(*b))
    return [[sum(ra[t] * cb[t] for t in range(k)) for cb in bt] for ra in a]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def commutator(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def echelon(rows, p=None):
    """Fraction-free Gauss-Jordan elimination of integer rows.

    Over Q (p is None) this is Bareiss elimination (Math. Comp. 22, 1968):
    each step multiplies every other row by the pivot and divides exactly by
    the previous pivot, so every entry stays an integer minor of the input,
    up to sign.  Over GF(p) each pivot row is scaled by the pivot's inverse.

    Returns (rows, pivots, d): the nonzero rows in echelon order, the pivot
    column of each, and the common positive pivot value d.  Each row holds
    d at its own pivot column and 0 at the other pivot columns, so the
    reduced row echelon form is rows / d; over GF(p), d is 1.
    """
    m = [[x % p for x in row] if p else list(row) for row in rows]
    m = [row for row in m if any(row)]
    pivots = []
    d = 1
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        a = m[r][c]
        if p:
            inv = pow(a, -1, p)
            m[r] = [x * inv % p for x in m[r]]
            a = 1
        elif a < 0:
            # Negating the pivot row negates one input row; Bareiss stays exact.
            a = -a
            m[r] = [-x for x in m[r]]
        pr = m[r]
        kept = []
        for i, row in enumerate(m):
            f = row[c]
            if i == r:
                pass
            elif f:
                if p:
                    row = [(x - f * y) % p for x, y in zip(row, pr)]
                else:
                    row = [(a * x - f * y) // d for x, y in zip(row, pr)]
                if not any(row):
                    continue
            elif a != d:
                row = [a * x // d for x in row]
            kept.append(row)
        m = kept
        d = a
        pivots.append(c)
    return m, pivots, d


def _integral(row):
    """The row scaled to integers by the lcm of its denominators."""
    if all(type(x) is int for x in row):
        return row
    den = lcm(*(Fraction(x).denominator for x in row))
    return [int(x * den) for x in row]


def rank(rows, p=None):
    """Rank of a matrix over Q, or over GF(p) when a prime p is given.

    Rational entries are allowed over Q; each row is scaled to integers.
    """
    if p is None:
        rows = [_integral(row) for row in rows]
    return len(echelon(rows, p)[1])


def solve(a_columns, b):
    """Solve sum_j x_j * a_columns[j] = b exactly.

    Returns the Fraction solution vector, or None if the system is
    inconsistent.  When the columns are linearly independent the solution is
    unique; otherwise free variables are set to zero.
    """
    ncols = len(a_columns)
    nrows = len(b)
    aug = [_integral([a_columns[j][i] for j in range(ncols)] + [b[i]])
           for i in range(nrows)]
    red, pivots, d = echelon(aug)
    x = [Fraction(0)] * ncols
    for row, c in zip(red, pivots):
        if c == ncols:
            return None
        x[c] = Fraction(row[ncols], d)
    # Consistency check covers the dependent-column case.
    for i in range(nrows):
        if sum(x[j] * Fraction(a_columns[j][i]) for j in range(ncols)) != Fraction(b[i]):
            return None
    return x


def simplex_max(a, b, c):
    """Maximize c.x subject to a.x <= b, x >= 0, all data rational.

    Requires b >= 0 (the origin is feasible, which holds for every use in
    this package).  Returns ('optimal', value) or ('unbounded', None).
    Bland's rule guarantees termination.
    """
    m, n = len(a), len(c)
    assert all(x >= 0 for x in b)
    # Tableau rows: m constraint rows + objective row; columns: n vars,
    # m slacks, rhs.
    t = [[Fraction(a[i][j]) for j in range(n)]
         + [Fraction(1) if k == i else Fraction(0) for k in range(m)]
         + [Fraction(b[i])] for i in range(m)]
    obj = [Fraction(-c[j]) for j in range(n)] + [Fraction(0)] * (m + 1)
    basis = list(range(n, n + m))
    while True:
        enter = next((j for j in range(n + m) if obj[j] < 0), None)
        if enter is None:
            return "optimal", obj[-1]
        ratios = [(t[i][-1] / t[i][enter], basis[i], i)
                  for i in range(m) if t[i][enter] > 0]
        if not ratios:
            return "unbounded", None
        _, _, leave = min(ratios)
        piv = t[leave][enter]
        t[leave] = [x / piv for x in t[leave]]
        for i in range(m):
            if i != leave and t[i][enter] != 0:
                f = t[i][enter]
                t[i] = [x - f * y for x, y in zip(t[i], t[leave])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [x - f * y for x, y in zip(obj, t[leave])]
        basis[leave] = enter
