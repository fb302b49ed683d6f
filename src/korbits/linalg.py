"""Exact linear algebra over the rationals and over GF(p).

Matrices are lists of lists of ints; nothing here ever touches floating
point.  One fraction-free elimination kernel, `_eliminate`, works on sparse
rows {col: value} over Q and over GF(p), with one pivot step,
`_pivot_step`.  `rank` runs it forward only, on dense or sparse rows;
`echelon` runs it over Q with back-substitution and returns the dense
reduced form that the semigroup lattice reads.  `simplex_max` is a small
rational simplex for the LP bounds of the semigroup layer.
"""

from __future__ import annotations

from fractions import Fraction


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


def _sparse_row(row, p):
    """The nonzero entries {col: value} of a dense or dict row of ints,
    reduced mod p when p is given."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    if p:
        return {c: x % p for c, x in items if x % p}
    return {c: x for c, x in items if x}


def _eliminate(rows, p, reduced):
    """Fraction-free elimination of rows kept sparse, {col: value}.

    Over Q (p is None) this is Bareiss elimination (Math. Comp. 22, 1968):
    every entry stays an integer minor of the input, up to sign.  A row
    that a pivot leaves untouched is not rescaled: levels[i] is the pivot
    of the last step that changed row i, and row i times d / levels[i] is
    its Bareiss value under the current pivot d.  Over GF(p) each pivot row
    is scaled by the pivot's inverse and every level is 1.

    With `reduced` a pivot clears its column in every other row
    (Gauss-Jordan); without it, only in the rows below (forward only).
    Returns (rows, pivots, levels, d): the nonzero rows in echelon order,
    the pivot column of each, their levels and the last pivot d > 0.
    """
    m = [row for row in (_sparse_row(row, p) for row in rows) if row]
    levels = [1] * len(m)
    pivots = []
    d = 1
    for c in sorted(set().union(*m)):
        r = len(pivots)
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if c in m[i]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        levels[r], levels[piv] = levels[piv], levels[r]
        pr = m[r]
        if p:
            inv = pow(pr[c], -1, p)
            pr = {j: x * inv % p for j, x in pr.items()}
        elif levels[r] != d or pr[c] < 0:
            # Bring the pivot row to level d.  Negating it negates one input
            # row, so Bareiss stays exact.
            s = d if pr[c] > 0 else -d
            pr = {j: x * s // levels[r] for j, x in pr.items()}
        a = pr[c]
        m[r], levels[r] = pr, a
        for i in range(0 if reduced else r + 1, len(m)):
            if i != r and c in m[i]:
                m[i] = _pivot_step(m[i], levels[i], pr, c, p)
                levels[i] = a
        if not all(m):
            levels = [lv for row, lv in zip(m, levels) if row]
            m = [row for row in m if row]
        d = a
        pivots.append(c)
    return m, pivots, levels, d


def _pivot_step(row, level, pr, c, p):
    """row with its column c cleared by the pivot row pr.

    Over GF(p), pr[c] is 1 and this is row - row[c] pr.  Over Q it is
    (pr[c] row - row[c] pr) / level, an exact division by Bareiss."""
    a, f = pr[c], row[c]
    out = dict(row) if p else {j: a * x for j, x in row.items()}
    for j, y in pr.items():
        v = out.get(j, 0) - f * y
        if p:
            v %= p
        if v:
            out[j] = v
        else:
            del out[j]
    if level != 1:
        out = {j: x // level for j, x in out.items()}
    return out


def echelon(rows):
    """Reduced row echelon form over Q of dense rows of ints.

    Returns (rows, pivots, d): the nonzero rows in echelon order, the pivot
    column of each, and the common positive pivot value d.  Each row holds
    d at its own pivot column and 0 at the other pivot columns, so the
    reduced row echelon form is rows / d.
    """
    ncols = len(rows[0]) if rows else 0
    m, pivots, levels, d = _eliminate(rows, None, reduced=True)
    dense = [[row.get(j, 0) * d // level for j in range(ncols)]
             for row, level in zip(m, levels)]
    return dense, pivots, d


def rank(rows, p=None):
    """Rank of a matrix over Q, or over GF(p) when a prime p is given.

    Rows are dense lists or sparse dicts {col: value} of ints.  The
    elimination runs forward only.
    """
    return len(_eliminate(rows, p, reduced=False)[1])


def simplex_max(a, b, c):
    """Maximize c.x subject to a.x <= b, x >= 0, all data rational.

    Requires b >= 0 (the origin is feasible, which holds for every use in
    this package); raises ValueError otherwise.  Returns ('optimal', value)
    or ('unbounded', None).  Bland's rule guarantees termination.
    """
    m, n = len(a), len(c)
    if any(x < 0 for x in b):
        raise ValueError("simplex_max needs b >= 0 (the origin must be feasible)")
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
