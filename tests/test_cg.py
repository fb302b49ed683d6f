import itertools

import pytest

from korbits import cg, linalg


def T(a, b, c):
    return cg.TTriple(a, b, c)


def all_triples(top):
    return [T(a, b, c) for a in range(top + 1) for b in range(top + 1)
            for c in range(top + 1) if cg.in_tensor_semigroup((a, b, c))]


def test_membership_examples():
    assert cg.in_tensor_semigroup((1, 1, 2))
    assert not cg.in_tensor_semigroup((1, 1, 1))
    assert cg.in_tensor_semigroup((0, 0, 0))


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


def test_projection_with_trivial_factor_is_identity():
    p = cg.cg_projection(3, 0, 3)
    assert p.matrix() == linalg.identity(4)


def test_projection_invariant_pairing():
    p = cg.cg_projection(1, 1, 0)
    assert p.matrix() == [[0, 1, -1, 0]]


def test_projection_symmetrization_rank():
    p = cg.cg_projection(1, 1, 2)
    assert linalg.rank(p.matrix()) == 3


def test_projection_outside_semigroup_raises():
    with pytest.raises(ValueError):
        cg.cg_projection(1, 1, 1)


def test_projection_equivariance_sample():
    # construction already asserts e/f intertwining; spot-check h too.
    for (m, n, k) in ((2, 2, 2), (3, 1, 2), (4, 2, 4), (3, 3, 0)):
        p = cg.cg_projection(m, n, k)
        for a in range(m + 1):
            for b in range(n + 1):
                w = (m - 2 * a) + (n - 2 * b)
                col = [p.rows[j][a * (n + 1) + b] for j in range(k + 1)]
                for j, val in enumerate(col):
                    if val:
                        assert k - 2 * j == w


def test_injection_equivariance():
    # iota intertwines f exactly: iota(x_{i+1}) = (f (x) 1 + 1 (x) f) iota(x_i).
    for (m, n, k) in ((2, 2, 2), (3, 1, 2), (2, 2, 0), (4, 2, 2)):
        iota = cg.cg_injection(m, n, k)
        for i in range(k):
            assert list(iota[i + 1]) == cg._tensor_f(m, n, list(iota[i]))


def test_injection_section_of_projection():
    for (m, n, k) in ((2, 2, 2), (3, 1, 2), (2, 2, 0), (4, 4, 4)):
        iota = cg.cg_injection(m, n, k)
        p = cg.cg_projection(m, n, k)
        dim = (m + 1) * (n + 1)
        comp = [[sum(p.rows[j][t] * iota[i][t] for t in range(dim))
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
    triples = all_triples(3)
    for m in triples:
        for n in triples:
            for k in cg.gamma_module(m + n):
                assert cg.product_contains(k, m, n) == cg.product_contains(k, n, m)


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
    for bad in ((T(1, 1, 1), T(1, 1, 2), T(1, 1, 2)),
                (T(2, 2, 4), T(1, 1, 1), T(1, 1, 2)),
                ((2, 2, 4), (1, 1, 2), (0, 0, 1))):
        before = dict(cg._PRODUCT_CACHE)
        for _ in range(2):
            with pytest.raises(ValueError, match="is not in the tensor semigroup"):
                cg.product_contains(*bad)
        assert cg._PRODUCT_CACHE == before


def test_product_cache_key_ignores_argument_type():
    cg._PRODUCT_CACHE.clear()
    triple = (T(2, 2, 2), T(1, 1, 2), T(1, 1, 0))
    plain = tuple(t.entries() for t in triple)
    assert cg.product_contains(*triple)
    assert len(cg._PRODUCT_CACHE) == 1
    assert cg.product_contains(*plain)
    assert cg.product_contains(plain[0], triple[1], list(plain[2]))
    assert len(cg._PRODUCT_CACHE) == 1


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


def dense_product_contains(k, m, n):
    """Reference: the composite summed over every tensor index and every
    weight row alpha of the first projection, zero entries included."""
    (kv, k1, k2), (m, m1, m2), (n, n1, n2) = k, m, n
    if not all(map(cg.in_tensor_semigroup, ((m, n, kv), (m1, n1, k1), (m2, n2, k2)))):
        return False
    iota1 = cg.cg_injection(m, n, kv)
    iota2 = cg.cg_injection(m1, n1, k1)
    p1 = cg.cg_projection(m, m1, m2)
    p2 = cg.cg_projection(n, n1, n2)
    top = cg.cg_projection(m2, n2, k2).rows[0]
    for (a, b) in cg._weight_block(kv, k1, k2):
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
                                total += (ci * cj * p1.rows[al][i * (m1 + 1) + i1]
                                          * p2.rows[be][j * (n1 + 1) + j1]
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


def lexicographic_gamma_product(m, n):
    """Reference: the first witness pair of Gamma(m) x Gamma(n) in
    lexicographic order, with no Cartan splits tried first."""
    missing = [k for k in cg.gamma_module(m + n)
               if not any(cg.product_contains(k, mt, nt)
                          for mt in cg.gamma_module(m) for nt in cg.gamma_module(n))]
    return {"ok": not missing, "missing": missing}


def test_search_order_changes_no_verdict():
    triples = all_triples(3)
    for m in triples:
        for n in triples:
            assert cg.verify_gamma_product(m, n) == lexicographic_gamma_product(m, n), (m, n)


def test_section_sweep_computes_fewer_products():
    cg._PRODUCT_CACHE.clear()
    res = cg.section_sweep(4)
    assert res["ok"] and len(res["degenerate"]) == 884
    # 60,267 keys with the lexicographic search alone
    assert len(cg._PRODUCT_CACHE) < 30000
