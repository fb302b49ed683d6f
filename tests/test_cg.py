import itertools
import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from korbits import cg, linalg
from oracles import nine_j_nonzero, triad


def T(a, b, c):
    return cg.TTriple(a, b, c)


def all_triples(top):
    return [T(a, b, c) for a in range(top + 1) for b in range(top + 1)
            for c in range(top + 1) if cg.in_tensor_semigroup((a, b, c))]


def test_membership_examples():
    assert cg.in_tensor_semigroup((1, 1, 2))
    assert not cg.in_tensor_semigroup((1, 1, 1))
    assert cg.in_tensor_semigroup((0, 0, 0))


def test_ttriple_is_a_plain_tuple():
    t = T(1, 1, 2)
    assert t == (1, 1, 2) and hash(t) == hash((1, 1, 2))
    assert type(t.entries()) is tuple and t.entries() == (1, 1, 2)
    assert (t.m, t.m1, t.m2) == (1, 1, 2)
    assert repr(t) == "TTriple(m=1, m1=1, m2=2)"
    assert t + T(1, 0, 1) == T(2, 1, 3) and type(t + (1, 0, 1)) is cg.TTriple


def guarded_membership(t):
    """Reference: the membership test with an explicit sign guard."""
    m, m1, m2 = t
    if min(m, m1, m2) < 0:
        return False
    return (m + m1 + m2) % 2 == 0 and abs(m - m1) <= m2 <= m + m1


def test_membership_matches_guarded_definition():
    for t in itertools.product(range(-8, 9), repeat=3):
        expected = guarded_membership(t)
        for arg in (t, list(t), T(*t)):
            assert cg.in_tensor_semigroup(arg) == expected, arg


def test_membership_permutation_invariance():
    for a, b, c in itertools.product(range(5), repeat=3):
        vals = {cg.in_tensor_semigroup(p) for p in itertools.permutations((a, b, c))}
        assert len(vals) == 1


def tensor_decomposition(m, n):
    """Oracle: multiplicities of V(k) in V(m) (x) V(n) by weight counting."""
    weights = {}
    for a in range(m + 1):
        for b in range(n + 1):
            w = (m - 2 * a) + (n - 2 * b)
            weights[w] = weights.get(w, 0) + 1
    return {k: weights.get(k, 0) - weights.get(k + 2, 0)
            for k in range(m + n + 1)}


def test_membership_against_weight_multiplicities():
    for m in range(4):
        for n in range(4):
            mult = tensor_decomposition(m, n)
            for k in range(m + n + 3):
                expected = mult.get(k, 0) >= 1
                assert cg.in_tensor_semigroup((m, n, k)) == expected, (m, n, k)


def dense_matrix(proj):
    """Reference view: the projection as dense rows over the flattened basis
    a(n + 1) + b, normalized so its first nonzero entry is 1."""
    m, n, k = proj.m, proj.n, proj.k
    h = (m + n - k) // 2
    lead = proj.rows[0][0]
    out = [[Fraction(0)] * ((m + 1) * (n + 1)) for _ in proj.rows]
    for j, row in enumerate(proj.rows):
        for a, x in enumerate(row):
            if x:
                out[j][a * (n + 1) + h + j - a] = Fraction(x, lead)
    return out


def test_projection_with_trivial_factor_is_identity():
    p = cg.cg_projection(3, 0, 3)
    assert dense_matrix(p) == linalg.identity(4)


def test_projection_invariant_pairing():
    p = cg.cg_projection(1, 1, 0)
    assert dense_matrix(p) == [[0, 1, -1, 0]]


def test_projection_symmetrization_rank():
    p = cg.cg_projection(1, 1, 2)
    assert linalg.rank(dense_matrix(p)) == 3


def test_projection_outside_semigroup_raises():
    with pytest.raises(ValueError):
        cg.cg_projection(1, 1, 1)


def flat(m, n, k, blocks):
    """Expand rows (or injection columns) stored by weight block, entry a of
    block j at x_a (x) x_{h+j-a}, to the flattened tensor basis a(n+1)+b."""
    h = (m + n - k) // 2
    out = []
    for j, blk in enumerate(blocks):
        vec = [0] * ((m + 1) * (n + 1))
        for a, x in enumerate(blk):
            if x:
                vec[a * (n + 1) + h + j - a] = x
        out.append(vec)
    return out


def tensor_f(m, n, vec):
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


def tensor_e(m, n, vec):
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


def weight_block(m, n, w):
    """Tensor basis indices (a, b) with weight (m - 2a) + (n - 2b) = w."""
    out = []
    for a in range(m + 1):
        b2 = (m + n - w) - 2 * a
        if b2 % 2 == 0 and 0 <= b2 // 2 <= n:
            out.append((a, b2 // 2))
    return out


def reference_projection(m, n, k):
    """Reference: dense projection rows over the flattened basis.  The top
    row is the kernel of f(block k+2) by elimination, the lower rows follow
    the e-recursion in Fractions, then one common rescaling makes them
    primitive integers with a positive first entry."""
    dim = (m + 1) * (n + 1)
    blk = weight_block(m, n, k)
    constraints = []
    for (a, b) in weight_block(m, n, k + 2):
        vec = [0] * dim
        vec[a * (n + 1) + b] = 1
        img = tensor_f(m, n, vec)
        constraints.append([img[x * (n + 1) + y] for (x, y) in blk])
    if constraints:
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
        prev = rows[-1]
        row = [Fraction(0)] * dim
        for (a, b) in weight_block(m, n, k - 2 * j):
            vec = [0] * dim
            vec[a * (n + 1) + b] = 1
            img = tensor_e(m, n, vec)
            val = sum(prev[t] * img[t] for t in range(dim) if img[t])
            row[a * (n + 1) + b] = Fraction(val, j * (k - j + 1))
        rows.append(row)
    den = 1
    for r in rows:
        for x in r:
            den = den * x.denominator // gcd(den, x.denominator)
    ints = [[int(x * den) for x in r] for r in rows]
    g = 0
    for r in ints:
        for x in r:
            g = gcd(g, abs(x))
    ints = [[x // g for x in r] for r in ints]
    if next(x for x in ints[0] if x) < 0:
        ints = [[-x for x in r] for r in ints]
    return ints


def reference_injection(m, n, k, rows):
    """Reference: dense injection columns from dense projection rows, the
    transpose conjugated by the self-duality x_i -> (-1)^i x*_{top-i}."""
    cols = []
    for i in range(k + 1):
        vec = [0] * ((m + 1) * (n + 1))
        for c in range(m + 1):
            for d in range(n + 1):
                val = rows[k - i][(m - c) * (n + 1) + (n - d)]
                if val:
                    vec[c * (n + 1) + d] = (-1) ** (i + c + d) * val
        cols.append(vec)
    return cols


def test_projection_and_injection_match_dense_reference():
    count = 0
    for m in range(9):
        for n in range(9):
            for k in range(m + n + 1):
                if not cg.in_tensor_semigroup((m, n, k)):
                    continue
                count += 1
                ref = reference_projection(m, n, k)
                p = cg.cg_projection(m, n, k)
                assert flat(m, n, k, p.rows) == ref, (m, n, k)
                assert flat(m, n, k, cg.cg_injection(m, n, k)) == \
                    reference_injection(m, n, k, ref), (m, n, k)
                lead = ref[0][next(t for t, x in enumerate(ref[0]) if x)]
                assert dense_matrix(p) == [[Fraction(x, lead) for x in r] for r in ref]
    assert count == 285


def test_projection_equivariance_sample():
    # construction already asserts e/f intertwining; spot-check h too.
    for (m, n, k) in ((2, 2, 2), (3, 1, 2), (4, 2, 4), (3, 3, 0)):
        rows = flat(m, n, k, cg.cg_projection(m, n, k).rows)
        for a in range(m + 1):
            for b in range(n + 1):
                w = (m - 2 * a) + (n - 2 * b)
                col = [rows[j][a * (n + 1) + b] for j in range(k + 1)]
                for j, val in enumerate(col):
                    if val:
                        assert k - 2 * j == w


def test_injection_equivariance():
    # iota intertwines f exactly: iota(x_{i+1}) = (f (x) 1 + 1 (x) f) iota(x_i).
    for (m, n, k) in ((2, 2, 2), (3, 1, 2), (2, 2, 0), (4, 2, 2)):
        iota = flat(m, n, k, cg.cg_injection(m, n, k))
        for i in range(k):
            assert list(iota[i + 1]) == tensor_f(m, n, list(iota[i]))


def test_injection_section_of_projection():
    for (m, n, k) in ((2, 2, 2), (3, 1, 2), (2, 2, 0), (4, 4, 4)):
        iota = flat(m, n, k, cg.cg_injection(m, n, k))
        rows = flat(m, n, k, cg.cg_projection(m, n, k).rows)
        dim = (m + 1) * (n + 1)
        comp = [[sum(rows[j][t] * iota[i][t] for t in range(dim))
                 for i in range(k + 1)] for j in range(k + 1)]
        diag = comp[0][0]
        assert diag != 0
        assert comp == [[diag if i == j else 0 for i in range(k + 1)]
                        for j in range(k + 1)]


def test_product_contains_examples():
    assert cg.product_contains(T(2, 2, 4), T(1, 1, 2), T(1, 1, 2))   # k = m + n
    assert not cg.product_contains(T(2, 2, 2), T(1, 1, 2), T(1, 1, 2))
    assert cg.product_contains(T(0, 0, 0), T(1, 0, 1), T(1, 0, 1))


def test_product_contains_needs_componentwise_t():
    assert not cg.product_contains(T(0, 0, 0), T(1, 0, 1), T(0, 1, 1))


def test_product_contains_symmetry_exhaustive():
    # product_contains keeps one table per orbit of {m, n} under the factor
    # permutations, so both symmetries are checked on the uncached tables:
    # m <-> n on every ordered pair, and table(sigma m, sigma n) = sigma
    # table(m, n) on every unordered one (the m <-> n check covers the rest).
    triples = all_triples(4)
    perms = [operator.itemgetter(*p) for p in itertools.permutations(range(3))]
    count = 0
    for m in triples:
        for n in triples:
            table = cg._product_table(m, n)
            assert table == cg._product_table(n, m), (m, n)
            assert table <= set(cg.gamma_module(m + n)), (m, n)
            count += len(table)
            if m <= n:
                for sigma in perms:
                    assert cg._product_table(sigma(m), sigma(n)) == set(map(sigma, table)), \
                        (m, n, sigma)
    # the 19,495 componentwise-valid (k, m, n), less the 884 degenerate ones
    assert count == 19495 - 884


def test_product_contains_implies_componentwise_t():
    triples = all_triples(3)
    for m in triples:
        for n in triples[:10]:
            for k in cg.gamma_module(m + n):
                if cg.product_contains(k, m, n):
                    assert all(cg.in_tensor_semigroup((a, b, c)) for a, b, c in
                               zip(m.entries(), n.entries(), k.entries()))


def test_normalization_independence():
    """Rescaling every cached projection must not change the criterion."""
    samples = [(T(2, 2, 2), T(1, 1, 2), T(1, 1, 2)),
               (T(2, 2, 4), T(1, 1, 2), T(1, 1, 2)),
               (T(1, 1, 2), T(1, 1, 2), T(2, 2, 2)),
               (T(2, 0, 2), T(1, 1, 0), T(1, 1, 2))]
    baseline = [cg.product_contains(*s) for s in samples]
    saved_proj = dict(cg._PROJ_CACHE)
    saved_iota = dict(cg._IOTA_CACHE)
    try:
        for scale, key in zip(itertools.cycle((3, 5, 7)), list(cg._PROJ_CACHE)):
            p = cg._PROJ_CACHE[key]
            cg._PROJ_CACHE[key] = cg.CGProjection(
                p.m, p.n, p.k, tuple(tuple(scale * x for x in r) for r in p.rows))
        cg._IOTA_CACHE.clear()
        cg._PRODUCT_CACHE.clear()
        rescaled = [cg.product_contains(*s) for s in samples]
        assert rescaled == baseline
    finally:
        cg._PROJ_CACHE.clear()
        cg._PROJ_CACHE.update(saved_proj)
        cg._IOTA_CACHE.clear()
        cg._IOTA_CACHE.update(saved_iota)
        cg._PRODUCT_CACHE.clear()


def test_gamma_module_examples():
    assert [t.entries() for t in cg.gamma_module(T(1, 0, 1))] == [(1, 0, 1)]
    assert [t.entries() for t in cg.gamma_module(T(2, 0, 2))] == [(0, 0, 0), (2, 0, 2)]
    assert [t.entries() for t in cg.gamma_module(T(1, 1, 2))] == [(1, 1, 0), (1, 1, 2)]
    with pytest.raises(ValueError):
        cg.gamma_module(T(1, 1, 1))


def test_product_cache_checks_every_new_key():
    cg.product_contains(T(2, 2, 4), T(1, 1, 2), T(1, 1, 2))
    assert cg._PRODUCT_CACHE
    # An invalid k on a pair that has no table yet builds none.
    cg._PRODUCT_CACHE.pop(((1, 1, 2), (2, 0, 2)), None)
    for bad in ((T(1, 1, 1), T(1, 1, 2), T(1, 1, 2)),
                (T(1, 1, 1), T(2, 0, 2), T(1, 1, 2)),
                (T(2, 2, 4), T(1, 1, 1), T(1, 1, 2)),
                ((2, 2, 4), (1, 1, 2), (0, 0, 1))):
        before = dict(cg._PRODUCT_CACHE)
        for _ in range(2):
            with pytest.raises(ValueError, match="is not in the tensor semigroup"):
                cg.product_contains(*bad)
        assert cg._PRODUCT_CACHE == before


def counting(monkeypatch, name):
    """Replace cg.<name> by a wrapper that counts its calls in a list."""
    calls = []
    fn = getattr(cg, name)
    monkeypatch.setattr(cg, name, lambda *args: calls.append(args) or fn(*args))
    return calls


def test_product_cache_key_ignores_argument_type(monkeypatch):
    cg._PRODUCT_CACHE.clear()
    passes = counting(monkeypatch, "_product_table")
    triple = (T(2, 2, 2), T(1, 1, 2), T(1, 1, 0))
    plain = tuple(t.entries() for t in triple)
    assert cg.product_contains(*triple)
    assert cg.product_contains(*plain)
    assert cg.product_contains(plain[0], triple[1], list(plain[2]))
    assert cg.product_contains(triple[0], list(plain[2]), triple[1])
    # (2, 2, 2) in (2, 1, 1) . (1, 1, 0) is the same product, factors permuted
    assert cg.product_contains((2, 2, 2), (2, 1, 1), (0, 1, 1))
    assert len(passes) == 1
    assert all(type(k) is tuple for table in cg._PRODUCT_CACHE.values() for k in table)


def test_gamma_module_is_memoized_and_immutable():
    first = cg.gamma_module(T(2, 2, 2))
    assert isinstance(first, tuple)
    assert cg.gamma_module((2, 2, 2)) == first
    assert cg.gamma_module(T(2, 2, 2)) == first
    assert [t.entries() for t in first] == sorted(t.entries() for t in first)
    for _ in range(2):
        with pytest.raises(ValueError, match="is not in the tensor semigroup"):
            cg.gamma_module(T(1, 1, 1))
    assert (1, 1, 1) not in cg._GAMMA_CACHE


def test_verify_gamma_product_examples():
    assert cg.verify_gamma_product(T(1, 0, 1), T(0, 1, 1))["ok"]
    res = cg.verify_gamma_product(T(1, 1, 2), T(1, 1, 2))
    assert res["ok"]
    # the Remark pair itself fails, so (2,2,2) is covered by another pair
    assert not cg.product_contains(T(2, 2, 2), T(1, 1, 2), T(1, 1, 2))
    assert cg.product_contains(T(2, 2, 2), T(1, 1, 2), T(1, 1, 0))
    assert cg.verify_gamma_product(T(0, 0, 0), T(3, 1, 2))["ok"]


def test_verify_gamma_product_accepts_plain_tuples():
    # plain tuples concatenate under +, so Gamma(m + n) must not use it
    for m, n in (((1, 1, 2), (1, 1, 2)), ((2, 0, 2), (1, 1, 0)), ((0, 0, 0), (3, 1, 2))):
        assert cg.verify_gamma_product(m, n) == cg.verify_gamma_product(T(*m), T(*n))
        assert cg.verify_gamma_product(list(m), list(n)) == cg.verify_gamma_product(T(*m), T(*n))


def dense_product_contains(k, m, n):
    """Reference: the composite summed over every tensor index and every
    weight row alpha of the first projection, zero entries included."""
    (kv, k1, k2), (m, m1, m2), (n, n1, n2) = k, m, n
    if not all(map(cg.in_tensor_semigroup, ((m, n, kv), (m1, n1, k1), (m2, n2, k2)))):
        return False
    iota1 = flat(m, n, kv, cg.cg_injection(m, n, kv))
    iota2 = flat(m1, n1, k1, cg.cg_injection(m1, n1, k1))
    rows1 = flat(m, m1, m2, cg.cg_projection(m, m1, m2).rows)
    rows2 = flat(n, n1, n2, cg.cg_projection(n, n1, n2).rows)
    top = flat(m2, n2, k2, cg.cg_projection(m2, n2, k2).rows)[0]
    for (a, b) in weight_block(kv, k1, k2):
        u, v = iota1[a], iota2[b]
        total = 0
        for i in range(m + 1):
            for j in range(n + 1):
                ci = u[i * (n + 1) + j]
                for i1 in range(m1 + 1):
                    for j1 in range(n1 + 1):
                        cj = v[i1 * (n1 + 1) + j1]
                        for al in range(m2 + 1):
                            be = (m2 + n2 - k2) // 2 - al
                            if 0 <= be <= n2:
                                total += (ci * cj * rows1[al][i * (m1 + 1) + i1]
                                          * rows2[be][j * (n1 + 1) + j1]
                                          * top[al * (n2 + 1) + be])
        if total:
            return True
    return False


def test_product_contains_matches_dense_reference():
    cg._PRODUCT_CACHE.clear()
    cg._IOTA_CACHE.clear()
    cg._PROJ_CACHE.clear()
    triples = all_triples(3)
    seen_false = set()
    for m in triples:
        for n in triples:
            for k in cg.gamma_module(m + n):
                key = (k.entries(), m.entries(), n.entries())
                expected = dense_product_contains(*key)
                assert cg.product_contains(k, m, n) == expected, key
                comp_t = all(cg.in_tensor_semigroup(c) for c in zip(*key))
                if comp_t and not expected:
                    seen_false.add(key)
    # componentwise-valid keys whose composite vanishes, the remark's among them
    assert ((2, 2, 2), (1, 1, 2), (1, 1, 2)) in seen_false


def test_product_contains_matches_nine_j_oracle():
    # V(k) lies in V(m) . V(n) iff the 9j symbol {m m1 m2; n n1 n2; k k1 k2}
    # is nonzero; both argument orders share one cache entry.
    cg._PRODUCT_CACHE.clear()
    triples = all_triples(4)
    components = zeros = 0
    for m in triples:
        for n in triples:
            for k in cg.gamma_module(m + n):
                if not all(triad(*c) for c in zip(m, n, k)):
                    continue
                components += 1
                expected = nine_j_nonzero(*m, *n, *k)
                zeros += not expected
                assert cg.product_contains(k, m, n) == expected, (k, m, n)
                assert cg.product_contains(k, n, m) == expected, (k, n, m)
    assert (components, zeros) == (19495, 884)


def as_argument(t):
    """A triple as TTriple, plain tuple or list."""
    return st.sampled_from((T(*t), tuple(t), list(t)))


triples_any = st.one_of(st.sampled_from(all_triples(4)),
                        st.tuples(*[st.integers(-1, 5)] * 3)).flatmap(as_argument)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_product_contains_property(data):
    m, n = data.draw(triples_any), data.draw(triples_any)
    if (cg.in_tensor_semigroup(m) and cg.in_tensor_semigroup(n)
            and data.draw(st.booleans())):
        k = data.draw(st.sampled_from(cg.gamma_module(tuple(map(sum, zip(m, n)))))
                      .flatmap(as_argument))
    else:
        k = data.draw(triples_any)
    valid = all(map(cg.in_tensor_semigroup, (k, m, n)))
    for a, b in ((m, n), (n, m)):
        if valid:
            assert cg.product_contains(k, a, b) == dense_product_contains(k, a, b)
        else:
            before = dict(cg._PRODUCT_CACHE)
            with pytest.raises(ValueError, match="is not in the tensor semigroup"):
                cg.product_contains(k, a, b)
            assert cg._PRODUCT_CACHE == before


def lexicographic_gamma_product(m, n):
    """Reference: each k of Gamma(m + n) tried on the pairs of Gamma(m) x
    Gamma(n) in lexicographic order through `product_contains`, with no
    union of tables."""
    missing = [k for k in cg.gamma_module(m + n)
               if not any(cg.product_contains(k, mt, nt)
                          for mt in cg.gamma_module(m) for nt in cg.gamma_module(n))]
    return {"ok": not missing, "missing": missing}


def test_search_order_changes_no_verdict():
    # One search serves (m, n) and (n, m), so the uncached search is also
    # run in both orders.
    triples = all_triples(3)
    for m in triples:
        for n in triples:
            expected = lexicographic_gamma_product(m, n)
            cg._VERIFY_CACHE.clear()
            assert cg.verify_gamma_product(m, n) == expected, (m, n)
            cg._VERIFY_CACHE.clear()
            assert cg.verify_gamma_product(n, m) == expected, (n, m)
            assert cg._gamma_product_missing(m, n) == cg._gamma_product_missing(n, m)


def test_interval_filter_needs_no_parity_test():
    # For mt in Gamma(m), nt in Gamma(n) and k in Gamma(m + n) every
    # component sum mt_i + nt_i + k_i is even, so the interval test selects
    # exactly the triads that in_tensor_semigroup selects.  So a k of
    # Gamma(m + n) outside Gamma(mt + nt) fails a triad of (mt, nt, k), and
    # Gamma(m) . Gamma(n) is the union of the product tables; and where k
    # <= mt + nt, as in `_product_table` and `section_sweep`, only the lower
    # bounds |mt_i - nt_i| <= k_i need testing.  Both tests go component by
    # component, so it suffices to check every (mt_i, nt_i, k_i) that
    # occurs; both are symmetric in (m, mt) <-> (n, nt), so m <= n suffices.
    triples = all_triples(4)
    for i, m in enumerate(triples):
        for n in triples[i:]:
            modules = (cg.gamma_module(m), cg.gamma_module(n), cg.gamma_module(m + n))
            for c in range(3):
                for triad in itertools.product(*({t[c] for t in g} for g in modules)):
                    a, b, k = triad
                    assert (a + b + k) % 2 == 0, (m, n, c, triad)
                    assert (abs(a - b) <= k <= a + b) == cg.in_tensor_semigroup(triad)


def test_verify_gamma_product_returns_fresh_results(monkeypatch):
    cg._VERIFY_CACHE.clear()
    searches = counting(monkeypatch, "_gamma_product_missing")
    m, n = T(1, 1, 2), T(2, 0, 2)
    first = cg.verify_gamma_product(m, n)
    assert first == {"ok": True, "missing": []}
    first["missing"].append(T(9, 9, 9))
    first["ok"] = False
    assert cg.verify_gamma_product(m, n) == {"ok": True, "missing": []}
    assert cg.verify_gamma_product(n, m) == {"ok": True, "missing": []}
    assert cg.verify_gamma_product(T(2, 1, 1), T(2, 2, 0)) == {"ok": True, "missing": []}
    assert len(searches) == 1


def test_verify_gamma_product_maps_missing_through_the_orbit(monkeypatch):
    # A search that misses all of Gamma(m + n): every key of the orbit must
    # keep its own Gamma(m + n), as TTriples in Gamma order.
    cg._VERIFY_CACHE.clear()
    monkeypatch.setattr(cg, "_gamma_product_missing",
                        lambda m, n: cg.gamma_module(tuple(map(sum, zip(m, n)))))
    for m, n in ((T(3, 1, 2), T(0, 2, 2)), (T(2, 2, 0), T(1, 3, 2))):
        for perm in itertools.permutations(range(3)):
            sm, sn = (T(*(t[i] for i in perm)) for t in (m, n))
            res = cg.verify_gamma_product(sm, sn)
            assert res == {"ok": False, "missing": list(cg.gamma_module(sm + sn))}, (sm, sn)
            assert all(type(k) is cg.TTriple for k in res["missing"])
    assert len(cg._VERIFY_CACHE) == 6 + 6


def test_verify_gamma_product_caches_no_invalid_input():
    cg._VERIFY_CACHE.clear()
    for m, n in ((T(1, 1, 1), T(1, 1, 2)), ((1, 1, 2), (0, 0, 1)), ([2, 2, 2], [3, 0, 0])):
        for _ in range(2):
            with pytest.raises(ValueError, match="is not in the tensor semigroup"):
                cg.verify_gamma_product(m, n)
    assert not cg._VERIFY_CACHE


def test_invalid_input_is_named_in_the_callers_order():
    # The least image of ((4, 1, 1), (0, 0, 0)) under the factor permutations
    # is ((0, 0, 0), (1, 1, 4)); the error must name the triple passed.
    cg._VERIFY_CACHE.clear()
    cg._PRODUCT_CACHE.clear()
    named = r"TTriple\(m=4, m1=1, m2=1\) is not in the tensor semigroup"
    with pytest.raises(ValueError, match=named):
        cg.verify_gamma_product((4, 1, 1), (0, 0, 0))
    with pytest.raises(ValueError, match=named):
        cg.product_contains((0, 0, 0), (4, 1, 1), (0, 0, 0))
    assert not cg._VERIFY_CACHE and not cg._PRODUCT_CACHE


def test_section_sweep_computes_fewer_products(monkeypatch):
    cg._PRODUCT_CACHE.clear()
    cg._VERIFY_CACHE.clear()
    passes = counting(monkeypatch, "_product_table")
    searches = counting(monkeypatch, "_gamma_product_missing")
    res = cg.section_sweep(4)
    assert res["ok"] and len(res["degenerate"]) == 884
    # 60,267 keys (k, m, n) with the lexicographic search alone; 28,236 with
    # one key per argument order and 10,064 with one per unordered product;
    # then one table per unordered pair of the 42 triples, and now one kernel
    # pass and one search per orbit of those pairs under the factor
    # permutations.
    assert len(cg._PRODUCT_CACHE) == len(cg._VERIFY_CACHE) == 42 * 43 // 2
    assert len(passes) == len(searches) == 199


@pytest.mark.parametrize("top,size", [(3, 106), (4, 884)])
def test_degenerate_list_symmetries(top, size):
    # The 9j zero set is invariant under permuting its columns, that is the
    # three SL(2) factors of k, m and n at once, and under exchanging the
    # rows of m and n.  The cache shares one table per orbit of {m, n} under
    # both, which makes closure of the list itself vacuous, so each permuted
    # or exchanged triple is also checked to be a 9j zero.
    degenerate = cg.section_sweep(top)["degenerate"]
    assert len(degenerate) == size
    listed = {tuple(map(tuple, d)) for d in degenerate}
    for k, m, n in listed:
        for perm in itertools.permutations(range(3)):
            sk, sm, sn = (tuple(t[i] for i in perm) for t in (k, m, n))
            assert (sk, sm, sn) in listed, (k, m, n)
            assert not nine_j_nonzero(*sm, *sn, *sk), (sk, sm, sn)
        assert (k, n, m) in listed
        assert not nine_j_nonzero(*n, *m, *k), (k, n, m)
