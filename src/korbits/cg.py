"""Exact SL(2)^3 representation algebra: tensor semigroup, Clebsch-Gordan
projections, and the section-multiplication surjectivity machinery.

V(m) has weight basis x_0, ..., x_m ordered highest to lowest, with
f.x_j = x_{j+1}, e.x_j = j(m-j+1) x_{j-1}, h.x_j = (m-2j) x_j.  Everything
is integer arithmetic: projections are primitive integer rows stored by
weight block, and the product criterion is a zero test, so scalings never
matter (the tests check this explicitly).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


@dataclass(frozen=True)
class TTriple:
    m: int
    m1: int
    m2: int

    def entries(self):
        return (self.m, self.m1, self.m2)

    def __add__(self, other):
        return TTriple(self.m + other.m, self.m1 + other.m1, self.m2 + other.m2)


def in_tensor_semigroup(t):
    """Clebsch-Gordan test: even sum and triangle inequality."""
    m, m1, m2 = t.entries() if isinstance(t, TTriple) else t
    if min(m, m1, m2) < 0:
        return False
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

    def matrix(self):
        """The dense projection over the flattened basis a(n + 1) + b,
        normalized so its first nonzero entry is 1."""
        m, n, k = self.m, self.n, self.k
        h = (m + n - k) // 2
        lead = self.rows[0][0]
        out = [[Fraction(0)] * ((m + 1) * (n + 1)) for _ in self.rows]
        for j, row in enumerate(self.rows):
            for a, x in enumerate(row):
                if x:
                    out[j][a * (n + 1) + h + j - a] = Fraction(x, lead)
        return out


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


def _entries(t):
    return t.entries() if isinstance(t, TTriple) else tuple(t)


def _check_member(t):
    if not in_tensor_semigroup(t):
        raise ValueError(f"{TTriple(*t)} is not in the tensor semigroup")


def product_contains(k, m, n):
    """Whether V(k) occurs in the product V(m) . V(n) in the invariant ring.

    True iff the composition pi(m'',n''->k'') o (pi (x) pi) o (iota (x) iota)
    is nonzero.  The composite is diagonal-equivariant, hence a scalar times
    the projection V(k) (x) V(k') -> V(k''); the scalar is read off on the
    weight-k'' block against the top row.
    """
    # Only checked keys enter the cache, so a hit needs no validity check.
    key = (_entries(k), _entries(m), _entries(n))
    found = _PRODUCT_CACHE.get(key)
    if found is not None:
        return found
    for t in key:
        _check_member(t)
    (kv, k1, k2), (m, m1, m2), (n, n1, n2) = key
    if not all(map(in_tensor_semigroup, ((m, n, kv), (m1, n1, k1), (m2, n2, k2)))):
        _PRODUCT_CACHE[key] = False
        return False
    iota1 = cg_injection(m, n, kv)
    iota2 = cg_injection(m1, n1, k1)
    rows1 = cg_projection(m, m1, m2).rows
    rows2 = cg_projection(n, n1, n2).rows
    top = cg_projection(m2, n2, k2).rows[0]
    # The weight-k2 block of V(kv) (x) V(k1) is x_a (x) x_{h12-a}, a = 0..h12.
    # iota1[a][i] is the entry at x_i (x) x_j, j = h1 + a - i; the term
    # (x_i (x) x_j) (x) (x_i1 (x) x_j1) has weight row al = i + i1 - off of
    # rows1, and the weight-k2 block pairs it with be = half - al, which
    # rows2[be] reads at j.
    h12 = (kv + k1 - k2) // 2
    h1 = (m + n - kv) // 2
    off = (m + m1 - m2) // 2
    half = (m2 + n2 - k2) // 2
    found = False
    for a in range(h12 + 1):
        vs = [(i1, cj) for i1, cj in enumerate(iota2[h12 - a]) if cj]
        total = 0
        for i, ci in enumerate(iota1[a]):
            if not ci:
                continue
            j = h1 + a - i
            for i1, cj in vs:
                al = i + i1 - off
                be = half - al
                if 0 <= al <= m2 and 0 <= be <= n2:
                    w1 = rows1[al][i]
                    if w1:
                        w2 = rows2[be][j]
                        if w2:
                            total += ci * cj * w1 * w2 * top[al]
        if total:
            found = True
            break
    _PRODUCT_CACHE[key] = found
    return found


_GAMMA_CACHE = {}


def gamma_module(m):
    """All n in T with m - n componentwise nonnegative and even, as a tuple
    in lexicographic order of entries."""
    key = _entries(m)
    out = _GAMMA_CACHE.get(key)
    if out is None:
        _check_member(key)
        a, b, c = key
        out = tuple(TTriple(x, y, z)
                    for x in range(a % 2, a + 1, 2)
                    for y in range(b % 2, b + 1, 2)
                    for z in range(c % 2, c + 1, 2)
                    if in_tensor_semigroup((x, y, z)))
        _GAMMA_CACHE[key] = out
    return out


def verify_gamma_product(m, n):
    """Check Gamma(m) . Gamma(n) = Gamma(m + n) by exhaustive pair search.

    V(k) is the top (Cartan) component of V(mt) (x) V(k - mt), and such a
    product usually contains it, so each k first tries those splits with mt
    in Gamma(m) and k - mt in Gamma(n), then every pair of Gamma(m) x
    Gamma(n) in lexicographic order.  Either way the verdict is exact.
    """
    mm = m if isinstance(m, TTriple) else TTriple(*m)
    nn = n if isinstance(n, TTriple) else TTriple(*n)
    gm = gamma_module(mm)
    gn = gamma_module(nn)
    in_gn = {nt.entries() for nt in gn}
    missing = []
    for k in gamma_module(mm + nn):
        a, b, c = k.entries()
        splits = ((mt, (a - mt.m, b - mt.m1, c - mt.m2)) for mt in gm)
        if not (any(nt in in_gn and product_contains(k, mt, nt) for mt, nt in splits)
                or any(product_contains(k, mt, nt) for mt in gm for nt in gn)):
            missing.append(k)
    return {"ok": not missing, "missing": missing}


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
                failures.append([m.entries(), n.entries(),
                                 [t.entries() for t in res["missing"]]])
            for k in gamma_module(m + n):
                comp_t = all(in_tensor_semigroup((a, b, c)) for a, b, c in
                             zip(m.entries(), n.entries(), k.entries()))
                if comp_t and not product_contains(k, m, n):
                    degenerate.append([list(k.entries()), list(m.entries()),
                                       list(n.entries())])
    degenerate.sort()
    return {"tensor_semigroup_size": len(triples), "ok": not failures,
            "failures": failures, "degenerate": degenerate}
