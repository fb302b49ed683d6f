"""Exact SL(2)^3 representation algebra: tensor semigroup, Clebsch-Gordan
projections, and the section-multiplication surjectivity machinery.

V(m) has weight basis x_0, ..., x_m ordered highest to lowest, with
f.x_j = x_{j+1}, e.x_j = j(m-j+1) x_{j-1}, h.x_j = (m-2j) x_j.  Everything
is integer arithmetic: projections are normalized to primitive integer
matrices, and the product criterion is a zero test, so scalings never
matter (the tests check this explicitly).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import linalg


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
    m: int
    n: int
    k: int
    rows: tuple      # primitive integer rows over the flattened tensor basis

    def matrix(self):
        """The projection normalized so its first nonzero entry is 1."""
        lead = next(x for row in self.rows for x in row if x)
        return [[Fraction(x, lead) for x in row] for row in self.rows]


def _tensor_f(m, n, vec):
    """Apply f (x) 1 + 1 (x) f to a dense tensor-coordinate vector."""
    out = [0] * len(vec)
    for a in range(m + 1):
        for b in range(n + 1):
            c = vec[a * (n + 1) + b]
            if not c:
                continue
            if a + 1 <= m:
                out[(a + 1) * (n + 1) + b] += c
            if b + 1 <= n:
                out[a * (n + 1) + b + 1] += c
    return out


def _tensor_e(m, n, vec):
    out = [0] * len(vec)
    for a in range(m + 1):
        for b in range(n + 1):
            c = vec[a * (n + 1) + b]
            if not c:
                continue
            if a >= 1:
                out[(a - 1) * (n + 1) + b] += c * a * (m - a + 1)
            if b >= 1:
                out[a * (n + 1) + b - 1] += c * b * (n - b + 1)
    return out


def _weight_block(m, n, w):
    """Tensor basis indices (a, b) with weight (m - 2a) + (n - 2b) = w."""
    out = []
    for a in range(m + 1):
        b2 = (m + n - w) - 2 * a
        if b2 % 2 == 0 and 0 <= b2 // 2 <= n:
            out.append((a, b2 // 2))
    return out


_PROJ_CACHE = {}


def cg_projection(m, n, k):
    """The equivariant projection V(m) (x) V(n) -> V(k), primitive integer
    entries, first nonzero entry of the top row positive."""
    key = (m, n, k)
    if key in _PROJ_CACHE:
        return _PROJ_CACHE[key]
    if not in_tensor_semigroup((m, n, k)):
        raise ValueError(f"({m},{n},{k}) is not in the tensor semigroup")
    dim = (m + 1) * (n + 1)
    # Top row: a functional on the weight-k block annihilating f(block k+2).
    blk = _weight_block(m, n, k)
    upper = _weight_block(m, n, k + 2)
    constraints = []
    for (a, b) in upper:
        vec = [0] * dim
        vec[a * (n + 1) + b] = 1
        img = _tensor_f(m, n, vec)
        constraints.append([img[x * (n + 1) + y] for (x, y) in blk])
    if constraints:
        # The kernel vector with d at the free column: each echelon row
        # d x_p + row[free] x_free = 0 gives x_p = -row[free].
        red, pivots, d = linalg.echelon(constraints)
        free = [j for j in range(len(blk)) if j not in pivots]
        assert len(free) == 1
        row0_blk = [0] * len(blk)
        row0_blk[free[0]] = d
        for rrow, p in zip(red, pivots):
            row0_blk[p] = -rrow[free[0]]
    else:
        assert len(blk) == 1
        row0_blk = [1]
    row0 = [Fraction(0)] * dim
    for coef, (a, b) in zip(row0_blk, blk):
        row0[a * (n + 1) + b] = coef
    rows = [row0]
    for j in range(1, k + 1):
        # e-intertwining: row_j(u) = row_{j-1}(e u) / (j (k - j + 1)).
        prev = rows[-1]
        row = [Fraction(0)] * dim
        denom = j * (k - j + 1)
        for (a, b) in _weight_block(m, n, k - 2 * j):
            vec = [0] * dim
            vec[a * (n + 1) + b] = 1
            img = _tensor_e(m, n, vec)
            val = sum(prev[t] * img[t] for t in range(dim) if img[t])
            row[a * (n + 1) + b] = Fraction(val, denom)
        rows.append(row)
    # One common rescaling so the rows stay a single equivariant matrix.
    full = _rescale_consistently(rows)
    lead = next(x for x in full[0] if x)
    if lead < 0:
        full = [[-x for x in r] for r in full]
    proj = CGProjection(m, n, k, tuple(tuple(r) for r in full))
    _verify_projection(proj)
    _PROJ_CACHE[key] = proj
    return proj


def _rescale_consistently(rows):
    den = 1
    for r in rows:
        for x in r:
            if isinstance(x, Fraction) and x.denominator != 1:
                den = den * x.denominator // gcd(den, x.denominator)
    ints = [[int(x * den) for x in r] for r in rows]
    g = 0
    for r in ints:
        for x in r:
            g = gcd(g, abs(x))
    if g > 1:
        ints = [[x // g for x in r] for r in ints]
    return ints


def _verify_projection(proj):
    """Exact equivariance: pi e = e pi and pi f = f pi on every basis vector."""
    m, n, k = proj.m, proj.n, proj.k
    dim = (m + 1) * (n + 1)
    for t in range(dim):
        vec = [0] * dim
        vec[t] = 1
        fe = _tensor_f(m, n, vec)
        lhs = [sum(proj.rows[j][u] * fe[u] for u in range(dim)) for j in range(k + 1)]
        pv = [proj.rows[j][t] for j in range(k + 1)]
        rhs = [0] * (k + 1)
        for j in range(k):
            rhs[j + 1] += pv[j]
        if lhs != rhs:
            raise AssertionError("projection does not intertwine f")
        ee = _tensor_e(m, n, vec)
        lhs = [sum(proj.rows[j][u] * ee[u] for u in range(dim)) for j in range(k + 1)]
        rhs = [0] * (k + 1)
        for j in range(1, k + 1):
            rhs[j - 1] += pv[j] * j * (k - j + 1)
        if lhs != rhs:
            raise AssertionError("projection does not intertwine e")


_IOTA_CACHE = {}


def cg_injection(m, n, k):
    """Equivariant injection V(k) -> V(m) (x) V(n): the transpose of the
    projection conjugated by the self-duality x_i -> (-1)^i x*_{top-i}."""
    key = (m, n, k)
    if key in _IOTA_CACHE:
        return _IOTA_CACHE[key]
    proj = cg_projection(m, n, k)
    dim = (m + 1) * (n + 1)
    cols = []
    for i in range(k + 1):
        vec = [0] * dim
        prow = proj.rows[k - i]
        for c in range(m + 1):
            for d in range(n + 1):
                val = prow[(m - c) * (n + 1) + (n - d)]
                if val:
                    sign = -1 if (i + c + d) % 2 else 1
                    vec[c * (n + 1) + d] = sign * val
        cols.append(tuple(vec))
    _IOTA_CACHE[key] = tuple(cols)
    return _IOTA_CACHE[key]


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
    # x_i (x) x_i1 has weight m2 - 2 al for the one al = i + i1 - off, and the
    # weight-k2 block of V(m2) (x) V(n2) pairs it with be = half - al.
    off = (m + m1 - m2) // 2
    half = (m2 + n2 - k2) // 2
    found = False
    for (a, b) in _weight_block(kv, k1, k2):
        vs = [(t // (n1 + 1), t % (n1 + 1), cj) for t, cj in enumerate(iota2[b]) if cj]
        total = 0
        for t, ci in enumerate(iota1[a]):
            if not ci:
                continue
            i, j = divmod(t, n + 1)
            for i1, j1, cj in vs:
                al = i + i1 - off
                be = half - al
                if 0 <= al <= m2 and 0 <= be <= n2:
                    w1 = rows1[al][i * (m1 + 1) + i1]
                    if w1:
                        w2 = rows2[be][j * (n1 + 1) + j1]
                        if w2:
                            total += ci * cj * w1 * w2 * top[al * (n2 + 1) + be]
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
