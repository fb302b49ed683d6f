"""Exact SL(2)^3 representation algebra: tensor semigroup, Clebsch-Gordan
projections, and the section-multiplication surjectivity machinery.

V(m) has weight basis x_0, ..., x_m ordered highest to lowest, with
f.x_j = x_{j+1}, e.x_j = j(m-j+1) x_{j-1}, h.x_j = (m-2j) x_j.  Everything
is integer arithmetic: projections are primitive integer rows stored by
weight block, and the product criterion is a zero test, so scalings never
matter (the tests check this explicitly).  Each product V(m) . V(n) is
computed once, as the table of its components, for the orbit of the
unordered pair under the permutations of the three SL(2) factors: the
product is commutative, and permuting the factors of k, m and n together
maps V(k) inside V(m) . V(n) to V(sigma k) inside V(sigma m) . V(sigma n).
The Gamma-product search is kept per orbit in the same way.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from itertools import permutations
from math import gcd
from operator import itemgetter, mul


class TTriple(namedtuple("TTriple", "m m1 m2")):
    """An SL(2)^3 highest weight (m, m1, m2): a plain tuple with names,
    equal to and hashed like (m, m1, m2); `+` is componentwise."""
    __slots__ = ()

    def entries(self):
        return tuple(self)

    def __add__(self, other):
        a, b, c = other
        return TTriple(self[0] + a, self[1] + b, self[2] + c)


def in_tensor_semigroup(t):
    """Clebsch-Gordan test: even sum and triangle inequality.  The triangle
    |m - m1| <= m2 <= m + m1 already forces every entry to be >= 0."""
    m, m1, m2 = t
    return (m + m1 + m2) % 2 == 0 and abs(m - m1) <= m2 <= m + m1


@dataclass(frozen=True)
class CGProjection:
    """V(m) (x) V(n) -> V(k) stored by weight block.  With h = (m + n - k)/2,
    row j is nonzero only on the pairs (a, h + j - a); rows[j][a] is its
    entry there (0 where h + j - a is not an index of V(n)).  The rows are
    primitive integers with rows[0][0] > 0."""
    m: int
    n: int
    k: int
    rows: tuple


_PROJ_CACHE = {}


def cg_projection(m, n, k):
    """The equivariant projection V(m) (x) V(n) -> V(k), primitive integer
    entries, first entry of the top row positive."""
    key = (m, n, k)
    if key in _PROJ_CACHE:
        return _PROJ_CACHE[key]
    if not in_tensor_semigroup((m, n, k)):
        raise ValueError(f"({m},{n},{k}) is not in the tensor semigroup")
    h = (m + n - k) // 2          # h <= min(m, n), so block 0 is a = 0..h
    # f(x_a (x) x_{h-1-a}) = x_{a+1} (x) x_{h-1-a} + x_a (x) x_{h-a}: the
    # functional on block 0 killing f(block -1) alternates in sign.
    rows = [[(-1) ** a if a <= h else 0 for a in range(m + 1)]]
    for j in range(1, k + 1):
        # e-intertwining: row_j(u) = row_{j-1}(e u) / (j (k - j + 1)); the
        # division is deferred to one scale c_k / c_j per row below.
        prev, row = rows[-1], [0] * (m + 1)
        for a in range(max(0, h + j - n), min(m, h + j) + 1):
            b = h + j - a
            row[a] = b * (n - b + 1) * prev[a] + (a * (m - a + 1) * prev[a - 1] if a else 0)
        rows.append(row)
    # c_j = prod_{i <= j} i (k - i + 1); row j times c_k / c_j is c_k row_j.
    scale = 1
    for j in range(k, -1, -1):
        rows[j] = [x * scale for x in rows[j]]
        scale *= j * (k - j + 1)
    g = gcd(*(x for row in rows for x in row))
    proj = CGProjection(m, n, k, tuple(tuple(x // g for x in row) for row in rows))
    _verify_projection(proj)
    _PROJ_CACHE[key] = proj
    return proj


def _verify_projection(proj):
    """Exact equivariance, pi f = f pi and pi e = e pi, on every basis vector
    x_a (x) x_b of block j (a + b = h + j).  Only blocks -1..k+1 can give
    more than 0 = 0."""
    m, n, k = proj.m, proj.n, proj.k
    h = (m + n - k) // 2
    zero = (0,) * (m + 1)

    def row(j):
        return proj.rows[j] if 0 <= j <= k else zero

    for j in range(-1, k + 2):
        here, down, up = row(j), row(j + 1), row(j - 1)
        for a in range(max(0, h + j - n), min(m, h + j) + 1):
            b = h + j - a
            # f x_a (x) x_b = x_{a+1} (x) x_b + x_a (x) x_{b+1}
            if down[a] + (down[a + 1] if a < m else 0) != (here[a] if j < k else 0):
                raise AssertionError("projection does not intertwine f")
            # e x_a (x) x_b = a(m-a+1) x_{a-1} (x) x_b + b(n-b+1) x_a (x) x_{b-1}
            lhs = b * (n - b + 1) * up[a] + (a * (m - a + 1) * up[a - 1] if a else 0)
            if lhs != here[a] * j * (k - j + 1):
                raise AssertionError("projection does not intertwine e")


_IOTA_CACHE = {}


def cg_injection(m, n, k):
    """Equivariant injection V(k) -> V(m) (x) V(n), column i stored like
    projection row i: the transpose of the projection conjugated by the
    self-duality x_i -> (-1)^i x*_{top-i}.  Its column i sits on block i
    (c + d = h + i), so the sign (-1)^(i+c+d) is (-1)^h, and the column is
    (-1)^h times projection row k - i read backwards."""
    key = (m, n, k)
    cols = _IOTA_CACHE.get(key)
    if cols is None:
        rows = cg_projection(m, n, k).rows
        sign = -1 if (m + n - k) // 2 % 2 else 1
        cols = tuple(tuple(sign * x for x in reversed(rows[k - i])) for i in range(k + 1))
        _IOTA_CACHE[key] = cols
    return cols


_PRODUCT_CACHE = {}


def _check_members(*triples):
    for t in triples:
        if not in_tensor_semigroup(t):
            raise ValueError(f"{TTriple(*t)} is not in the tensor semigroup")


def _product_table(m, n):
    """The k with V(k) inside V(m) . V(n), uncached, as a frozenset of plain
    tuples: the k in Gamma(m + n) whose composite (see `product_contains`)
    has a nonzero top-row entry; any other k fails a triad (m_i, n_i, k_i).
    In Gamma(m + n) each triad has an even sum and k_i <= m_i + n_i, so only
    |m_i - n_i| <= k_i bounds the walk.  m, n in T, in either order."""
    (m0, m1, m2), (n0, n1, n2) = m, n
    rows1 = cg_projection(m0, m1, m2).rows
    rows2 = cg_projection(n0, n1, n2).rows
    off = (m0 + m1 - m2) // 2
    table = []
    for kv in range(abs(m0 - n0), m0 + n0 + 1, 2):
        # iota1 holds the entries of x_0 in V(kv), at x_i (x) x_j, j = h1 - i.
        h1 = (m0 + n0 - kv) // 2
        iota1 = [(i, h1 - i, ci) for i, ci in enumerate(cg_injection(m0, n0, kv)[0]) if ci]
        for k2 in range(abs(m2 - n2), m2 + n2 + 1, 2):
            # (x_i (x) x_j) (x) (x_i1 (x) x_j1) meets row al of rows1 at
            # x_i (x) x_i1, i1 = off + al - i (rows1 is 0 where i1 is no
            # index), and rows2 at row half - al, entry j; the top row of
            # pi(m2, n2 -> k2) is nonzero on al = 0..half exactly.  So the
            # entry is sum_i1 v[i1] iota2[i1], with v independent of k1.
            top = cg_projection(m2, n2, k2).rows[0]
            half = (m2 + n2 - k2) // 2
            v = [0] * (m1 + 1)
            for i, j, ci in iota1:
                for al in range(half + 1):
                    w = rows1[al][i] * rows2[half - al][j]
                    if w:
                        v[off + al - i] += ci * w * top[al]
            # k1 keeps its triad and the triangle |kv - k2| <= k1 <= kv + k2 of
            # k; iota2 holds the entries of x_h12 in V(k1) at x_i1 (x) x_j1.
            for k1 in range(max(abs(m1 - n1), abs(kv - k2)), min(m1 + n1, kv + k2) + 1, 2):
                iota2 = cg_injection(m1, n1, k1)[(kv + k1 - k2) // 2]
                if sum(map(mul, v, iota2)):
                    table.append((kv, k1, k2))
    return frozenset(table)


# The six permutations sigma of the three SL(2) factors, sigma(t) = (t[s0],
# t[s1], t[s2]), each returning a plain tuple.
_FACTOR_PERMS = tuple(itemgetter(*s) for s in permutations(range(3)))


def _orbit_keys(m, n):
    """(sigma, unordered key {sigma m, sigma n}) for the six sigma."""
    return [(s, tuple(sorted((s(m), s(n))))) for s in _FACTOR_PERMS]


def _table(m, n):
    """The cached `_product_table` of the unordered pair {m, n}, both in T.
    A miss runs the kernel once, on the least key of the pair's orbit under
    the factor permutations, and stores table(sigma m, sigma n) = sigma
    table(m, n) under every key of that orbit."""
    key = (m, n) if m <= n else (n, m)
    table = _PRODUCT_CACHE.get(key)
    if table is None:
        least = min(k for _, k in _orbit_keys(m, n))
        base = _product_table(*least)
        for sigma, image in _orbit_keys(*least):
            _PRODUCT_CACHE[image] = frozenset(map(sigma, base))
        table = _PRODUCT_CACHE[key]
    return table


def product_contains(k, m, n):
    """Whether V(k) occurs in the product V(m) . V(n) in the invariant ring.

    True iff the composition pi(m'',n''->k'') o (pi (x) pi) o (iota (x) iota)
    is nonzero.  The composite is diagonal-equivariant, hence a scalar c
    times the projection pi(k, k' -> k''), whose rows[0][0] > 0 sits at
    x_0 (x) x_h12, h12 = (k + k' - k'')/2.  So the composite's top-row entry
    there is zero exactly when c = 0, and that one entry decides.

    c is a 9j recoupling coefficient up to a nonzero factor, and exchanging
    m and n, or permuting the three factors of k, m and n at once, permutes
    the 9j symbol's rows or columns and so changes it by a sign only
    (Edmonds 1957, ch. 6).  So one `_product_table` per orbit of the
    unordered pair {m, n} under the factor permutations fills the table of
    every pair in that orbit, and the call is a set lookup.
    """
    # Tuples (TTriple among them) are used as they are; a list is copied.
    if not (isinstance(k, tuple) and isinstance(m, tuple) and isinstance(n, tuple)):
        k, m, n = tuple(k), tuple(m), tuple(n)
    # Only checked pairs have a table, and only members of T lie in one, so
    # a k found needs no validity check; anything else is checked first.
    table = _PRODUCT_CACHE.get((m, n) if m <= n else (n, m), ())
    if k not in table:
        _check_members(k, m, n)
        table = _table(m, n)
    return k in table


_GAMMA_CACHE = {}


def gamma_module(m):
    """All n in T with m - n componentwise nonnegative and even, as a tuple
    in lexicographic order of entries."""
    key = tuple(m)
    out = _GAMMA_CACHE.get(key)
    if out is None:
        _check_members(key)
        a, b, c = key
        out = tuple(TTriple(x, y, z)
                    for x in range(a % 2, a + 1, 2)
                    for y in range(b % 2, b + 1, 2)
                    for z in range(c % 2, c + 1, 2)
                    if in_tensor_semigroup((x, y, z)))
        _GAMMA_CACHE[key] = out
    return out


_VERIFY_CACHE = {}


def verify_gamma_product(m, n):
    """Check Gamma(m) . Gamma(n) = Gamma(m + n): `missing` lists, in
    Gamma(m + n) order, the k outside the union of the product tables of all
    (mt, nt) in Gamma(m) x Gamma(n).  The verdict is exact: the table of
    (mt, nt) lies in Gamma(mt + nt), inside Gamma(m + n), and any other k of
    Gamma(m + n) fails a component triad of (mt, nt, k), so V(mt) . V(nt)
    cannot contain it.

    The product is commutative and Gamma(sigma m) = sigma Gamma(m) for a
    permutation sigma of the three factors, so one search serves the orbit
    of the unordered pair: it runs on the orbit's least key, and each key
    keeps sigma of its `missing`, re-sorted into Gamma order.  m and n are
    checked in the caller's order first, so an error names the caller's
    triple.  Every call returns a fresh dict and list.
    """
    m, n = tuple(m), tuple(n)
    key = (m, n) if m <= n else (n, m)
    missing = _VERIFY_CACHE.get(key)
    if missing is None:
        _check_members(m, n)
        least = min(k for _, k in _orbit_keys(m, n))
        base = _gamma_product_missing(*least)
        for sigma, image in _orbit_keys(*least):
            _VERIFY_CACHE[image] = tuple(sorted(TTriple(*sigma(k)) for k in base))
        missing = _VERIFY_CACHE[key]
    return {"ok": not missing, "missing": list(missing)}


def _gamma_product_missing(m, n):
    """The k in Gamma(m + n) inside no product V(mt) . V(nt), as a tuple."""
    gn = gamma_module(n)
    covered = set()
    for mt in gamma_module(m):
        for nt in gn:
            covered |= _table(mt, nt)
    (a0, b0, c0), (a1, b1, c1) = m, n
    return tuple(k for k in gamma_module((a0 + a1, b0 + b1, c0 + c1)) if k not in covered)


def section_sweep(top):
    """Gamma(m) . Gamma(n) = Gamma(m + n) for every pair of tensor-semigroup
    triples with entries <= top, and the degenerate triples (k, m, n): k in
    Gamma(m + n), componentwise in T, yet not inside the product V(m) . V(n).

    Returns {tensor_semigroup_size, ok, failures, degenerate}, the data of
    the `cg-verify` report.
    """
    triples = [TTriple(a, b, c)
               for a in range(top + 1) for b in range(top + 1) for c in range(top + 1)
               if in_tensor_semigroup((a, b, c))]
    failures, degenerate = [], []
    for m in triples:
        for n in triples:
            res = verify_gamma_product(m, n)
            if not res["ok"]:
                failures.append([tuple(m), tuple(n), [tuple(t) for t in res["missing"]]])
            # Inside Gamma(m + n) a component triad fails only by its lower
            # bound (see `_product_table`), so this is the componentwise T test.
            lo0, lo1, lo2 = abs(m[0] - n[0]), abs(m[1] - n[1]), abs(m[2] - n[2])
            for k in gamma_module(m + n):
                if (k[0] >= lo0 and k[1] >= lo1 and k[2] >= lo2
                        and not product_contains(k, m, n)):
                    degenerate.append([list(k), list(m), list(n)])
    degenerate.sort()
    return {"tensor_semigroup_size": len(triples), "ok": not failures,
            "failures": failures, "degenerate": degenerate}
