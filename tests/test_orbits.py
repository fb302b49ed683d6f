import hashlib
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from korbits import orbits as ob
from korbits.hermitian import (_RANK_BOUNDS, SLPQ, SO_EVEN_VECTOR, SO_ODD, SP,
                               enumerate_pairs, parse_pair_key)
from korbits import linalg
from oracles import diagram_dims

PRIME = (1 << 61) - 1


def rec(key, case, params=(), variant=""):
    return ob.OrbitRecord(parse_pair_key(key), case, params, variant)


def test_case_11_small_matrices():
    t = ob.build_triple(rec("A:3:p=2", "1.1", (("r", 1),)))
    assert [t.h[i][i] for i in range(4)] == [1, 0, 0, -1]
    assert t.e[0][3] == 1 and sum(abs(x) for row in t.e for x in row) == 1
    assert all(ob.verify_triple(t).values())


def test_case_22_formulas():
    t = ob.build_triple(rec("B:3", "2.2"))
    real = t.realization
    # e = e_1 (x) (phi'_1 - phi'_{-1}); f is the same shape on e_{-1}.
    assert t.e[real.v_pos[1]][real.nv] == 1 and t.e[real.v_pos[1]][real.nv + 1] == -1
    assert all(ob.verify_triple(t).values())


def test_case_14_f_carries_factor_two():
    t = ob.build_triple(rec("A:7:p=6", "1.4"))
    p = 6
    assert t.f[p + 0][0] == 2     # phi_1 (x) e'_1 term scaled by 2
    assert all(ob.verify_triple(t).values())


def test_case_54_wedges():
    t = ob.build_triple(rec("D:4:p=4", "5.4"))
    n = 4
    assert t.e[0][n + 1] == 1 and t.e[1][n + 0] == -1       # e_1 ^ e_2
    assert t.e[2 * n - 1][1] == 1 and t.e[n + 1][n - 1] == -1  # phi_2 ^ phi_n
    assert all(ob.verify_triple(t).values())


def test_verify_rejects_broken_triple():
    t = ob.build_triple(rec("A:3:p=2", "1.1", (("r", 1),)))
    zero = tuple(tuple(0 for _ in row) for row in t.f)
    broken = ob.MatrixTriple(t.h, t.e, zero, t.record)
    out = ob.verify_triple(broken)
    assert not out["sl2_ok"]
    assert out["h_in_k"] and out["e_in_p"]


def test_list_orbits_examples():
    sl4 = parse_pair_key("A:3:p=2")
    cases = {(r.case_id, r.params) for r in ob.list_orbits(sl4)}
    assert ("1.1", (("r", 1),)) in cases and ("1.1", (("r", 2),)) in cases
    assert ("1.3", (("r", 1), ("s", 1))) in cases
    assert not any(c == "1.4" for c, _ in cases)  # needs p >= 4

    so10 = parse_pair_key("D:5:p=1")
    ids = [(r.case_id, r.variant) for r in ob.list_orbits(so10)]
    assert ids.count(("4.1", "I")) == 1 and ids.count(("4.3", "II")) == 1
    assert ("4.2", "") in ids and ("4.4", "") in ids

    sp4 = parse_pair_key("C:2")
    got = sorted((r.case_id, r.params) for r in ob.list_orbits(sp4))
    assert got == [("3.1", (("r", 1),)), ("3.1", (("r", 2),)),
                   ("3.2", (("r", 1),)), ("3.2", (("r", 2),)),
                   ("3.3", (("r", 1), ("s", 1)))]


def test_adh_grading_examples():
    g = ob.adh_grading(ob.build_triple(rec("A:3:p=2", "1.1", (("r", 1),))))
    assert g == {0: 3, 1: 2, -1: 2}
    g23 = ob.adh_grading(ob.build_triple(rec("B:3", "2.3", (), "I")))
    assert set(g23) == {0}  # K_h = K
    g14 = ob.adh_grading(ob.build_triple(rec("A:5:p=4", "1.4")))
    assert all(i % 2 == 0 and -4 <= i <= 4 for i in g14)


def test_adh_grading_rejects_non_diagonal_h():
    t = ob.build_triple(rec("A:3:p=2", "1.1", (("r", 1),)))
    with pytest.raises(ValueError, match="h is not diagonal"):
        ob.adh_grading(ob.MatrixTriple(t.e, t.e, t.f, t.record))
    # diagonal, but not in the Cartan of so(7): E_{v1,v1} splits the
    # k-basis element E_{v1,b} - E_{b',v1'} into two ad(h)-weights.
    b3 = ob.build_triple(rec("B:3", "2.2"))
    h = [[0] * b3.realization.dim for _ in range(b3.realization.dim)]
    h[0][0] = 1
    with pytest.raises(ValueError, match="not an ad\\(h\\)-eigenvector"):
        ob.adh_grading(ob.MatrixTriple(tuple(map(tuple, h)), b3.e, b3.f, b3.record))


def test_k_p_membership():
    for key, case, params, variant in (("A:5:p=3", "1.3", (("r", 1), ("s", 1)), ""),
                                       ("B:4", "2.1", (), "I"),
                                       ("D:5:p=1", "4.4", (), ""),
                                       ("C:3", "3.3", (("r", 1), ("s", 1)), ""),
                                       ("D:6:p=6", "5.4", (), "")):
        t = ob.build_triple(rec(key, case, params, variant))
        real = t.realization
        h, e, f = (ob._sparse(m) for m in (t.h, t.e, t.f))
        assert real.in_k(h) and not real.in_p(h)
        assert real.in_p(e) and not real.in_k(e)
        assert real.in_p(f) and not real.in_k(f)
        mixed = ob._add(h, e)
        assert ob._in_span(mixed, real.k_basis + real.p_basis)
        assert not real.in_k(mixed) and not real.in_p(mixed)


def sweep_pairs(max_rank):
    """The acceptance sweep's pairs: every type A pair, B, C, and the D
    pairs marked at alpha_1 and alpha_n."""
    pairs = [spec for n in range(1, max_rank + 1) for spec in enumerate_pairs("A", n)]
    pairs += [enumerate_pairs("B", n)[0] for n in range(3, max_rank + 1)]
    pairs += [enumerate_pairs("C", n)[0] for n in range(2, max_rank + 1)]
    pairs += [spec for n in range(4, max_rank + 1) for spec in enumerate_pairs("D", n)
              if spec.p_index in (1, n)]
    return pairs


def span_rank(basis, n):
    """Dimension of the span of sparse n x n matrices, over Q."""
    return linalg.rank([{i * n + j: v for (i, j), v in b.items()} for b in basis])


def test_borel_split_partitions_k_and_is_closed():
    for spec in sweep_pairs(8):
        real = ob.realization(spec)
        n = real.dim
        items = lambda basis: sorted(tuple(sorted(b.items())) for b in basis)
        diag = [b for b in real.k_basis if all(i == j for i, j in b)]
        plus = [b for b in real.k_basis if min(b)[0] < min(b)[1]]
        parts = items(plus + real.minus_basis + diag)
        assert parts == items(real.k_basis), spec.key()
        assert len(set(parts)) == real.k_dim
        assert len(plus) == len(real.minus_basis)
        assert items(real.borel_basis) == items(plus + diag)
        for basis in (real.borel_basis, plus, real.minus_basis):
            brackets = [ob._ad(a)(b) for i, a in enumerate(basis) for b in basis[i + 1:]]
            assert span_rank(basis, n) == len(basis)
            assert span_rank(basis + brackets, n) == len(basis), spec.key()


def reference_form(real):
    """The bilinear form G with x^T G + G x = 0 on g, or None for sl(p+q)."""
    n, family = real.dim, real.spec.family_id
    if family == SLPQ:
        return None
    g = [[0] * n for _ in range(n)]
    if family in (SO_ODD, SO_EVEN_VECTOR):
        nv = n - 2      # antidiagonal Gram on V, then on W
        for a in range(nv):
            g[a][nv - 1 - a] = 1
        g[nv][nv + 1] = g[nv + 1][nv] = 1
    else:           # symplectic form for Sp(2n), split symmetric for SO(2n)/GL(n)
        h = n // 2
        for i in range(h):
            g[i][h + i] = 1
            g[h + i][i] = -1 if family == SP else 1
    return g


def reference_membership(real, x):
    """(in g, in k, in p) of a dense matrix x from the defining equations
    of g and the zeta-weights: 0 on k, +-m on p."""
    n = len(x)
    form = reference_form(real)
    if form is None:
        in_g = sum(x[i][i] for i in range(n)) == 0
    else:
        xt = [list(col) for col in zip(*x)]
        in_g = not any(map(any, linalg.mat_add(linalg.mat_mul(xt, form),
                                              linalg.mat_mul(form, x))))
    z, m = real.zeta, real.spec.m
    weights = {z[i] - z[j] for i in range(n) for j in range(n) if x[i][j]}
    return in_g, in_g and weights <= {0}, in_g and weights <= {m, -m}


def test_membership_matches_defining_equations():
    rng = random.Random(9)
    for key in ("A:5:p=2", "A:4:p=4", "B:4", "C:3", "D:5:p=1", "D:6:p=6", "D:5:p=4"):
        real = ob.realization(parse_pair_key(key))
        n = real.dim

        def combo(basis):
            x = {}
            for b in basis:
                if rng.random() < 0.4:
                    x = ob._add(x, b, rng.randint(-3, 3))
            return x

        mats = []
        for _ in range(20):
            k, p = combo(real.k_basis), combo(real.p_basis)
            arbitrary = {(rng.randrange(n), rng.randrange(n)): rng.randint(-2, 2)
                         for _ in range(rng.randint(1, 4))}
            kp = ob._add(k, p)
            nudged = dict(kp)
            nudged[rng.randrange(n), rng.randrange(n)] = rng.randint(-2, 2)
            mats += [k, p, kp, arbitrary, nudged]
        mats += [{(j, i): v for (i, j), v in x.items()} for x in list(mats)]
        for r in ob.list_orbits(real.spec):
            t = ob.build_triple(r)
            mats += [ob._sparse(m) for m in (t.h, t.e, t.f)]
        seen = set()
        for x in mats:
            d = dense(x, n, n)
            want = reference_membership(real, d)
            x = ob._sparse(d)
            got = (ob._in_span(x, real.k_basis + real.p_basis), real.in_k(x), real.in_p(x))
            assert got == want, (key, x)
            seen.add(want)
        # every verdict that can occur does: g only, k, p and outside g
        assert seen >= {(True, False, False), (True, True, False),
                        (True, False, True), (False, False, False)}, key


def test_adh_grading_symmetry_and_total():
    for key, case, params in (("A:5:p=3", "1.6", (("r", 1), ("s", 0))),
                              ("C:3", "3.3", (("r", 1), ("s", 1))),
                              ("D:5:p=5", "5.1", (("r", 2),))):
        t = ob.build_triple(rec(key, case, params))
        g = ob.adh_grading(t)
        assert sum(g.values()) == t.realization.k_dim
        assert all(g.get(-i, 0) == d for i, d in g.items())


def test_centralizer_examples():
    t = ob.build_triple(rec("A:3:p=2", "1.1", (("r", 1),)))
    assert ob.centralizer_dim(t) == (4, 3)
    # zero element: kernel is everything
    zero = tuple(tuple(0 for _ in range(4)) for _ in range(4))
    tz = ob.MatrixTriple(zero, zero, zero, t.record)
    assert ob.centralizer_dim(tz) == (t.realization.k_dim, 0)


def test_centralizer_levi_description_case_31():
    t = ob.build_triple(rec("C:2", "3.1", (("r", 2),)))
    dim_l, dim_le, deficit = ob.expected_dims(t.record)
    g = ob.adh_grading(t)
    qu = sum(d for i, d in g.items() if i > 0)
    assert dim_le == 1  # L_e = O(2) x GL(0): one-dimensional
    ke, orbit = ob.centralizer_dim(t)
    assert ke == dim_le + qu - deficit


def test_p_coords_reconstruction():
    # anchors really coordinatize p: rebuild the matrix from coordinates.
    for key in ("A:4:p=2", "B:3", "C:3", "D:5:p=1", "D:4:p=4"):
        real = ob.realization(parse_pair_key(key))
        x = {}
        for i, b in enumerate(real.p_basis):
            x = ob._add(x, b, (i % 3) - 1)
        coords = real.p_coords(x)
        assert all(coords.values())
        rebuilt = {}
        for k, c in coords.items():
            rebuilt = ob._add(rebuilt, real.p_basis[k], c)
        assert rebuilt == x


def dense(x, rows, cols):
    return [[x.get((i, j), 0) for j in range(cols)] for i in range(rows)]


@st.composite
def matrix_pairs(draw, square=False):
    entry = st.one_of(st.integers(-3, 3), st.integers(-(1 << 64), 1 << 64))
    n = draw(st.integers(1, 5))
    k, m = (n, n) if square else (draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    a = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=n, max_size=n))
    b = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=k, max_size=k))
    return a, b


@settings(max_examples=150, deadline=None)
@given(matrix_pairs())
def test_sparse_product_matches_dense(ab):
    a, b = ab
    n, m = len(a), len(b[0])
    want = linalg.mat_mul(a, b)
    assert dense(ob._mul(ob._sparse(a), ob._sparse(b)), n, m) == want
    got = ob._mul(ob._sparse(a), ob._sparse(b), PRIME)
    assert dense(got, n, m) == [[v % PRIME for v in row] for row in want]


@settings(max_examples=150, deadline=None)
@given(matrix_pairs(square=True))
def test_sparse_bracket_matches_dense(ab):
    a, b = ab
    n = len(a)
    want = linalg.commutator(a, b)
    assert dense(ob._ad(ob._sparse(a))(ob._sparse(b)), n, n) == want
    got = ob._ad(ob._sparse(a), PRIME)(ob._sparse(b))
    assert dense(got, n, n) == [[v % PRIME for v in row] for row in want]


def test_indexed_ad_matches_dense_commutator_on_bases():
    # One ad(x) per pair, applied to every k-, p- and Borel-basis element.
    rng = random.Random(8)
    for key in ("A:5:p=2", "B:4", "C:3", "D:5:p=1", "D:6:p=6"):
        real = ob.realization(parse_pair_key(key))
        n = real.dim
        x = {}
        for b in real.k_basis + real.p_basis:
            x = ob._add(x, b, rng.randint(-(1 << 70), 1 << 70))
        ad_z, ad_p = ob._ad(x), ob._ad(x, PRIME)
        for b in real.k_basis + real.p_basis + real.borel_basis:
            want = linalg.commutator(dense(x, n, n), dense(b, n, n))
            assert dense(ad_z(b), n, n) == want
            assert dense(ad_p(b), n, n) == [[v % PRIME for v in row] for row in want]


def test_is_spherical_true_on_listed_orbits():
    for key, case, params in (("A:5:p=3", "1.6", (("r", 1), ("s", 0))),
                              ("B:4", "2.4", ()),
                              ("D:6:p=6", "5.3", (("r", 1), ("s", 1)))):
        t = ob.build_triple(rec(key, case, params))
        assert ob.is_spherical(t)


def regular_element_triple():
    """A non-listed representative in SL(6)/S(GL(3) x GL(3)): identity in the
    upper block plus a regular nilpotent in the lower block."""
    pair = parse_pair_key("A:5:p=3")
    n = 6
    e = [[0] * n for _ in range(n)]
    for i in range(3):
        e[i][3 + i] = 1
    e[4][0] = e[5][1] = 1
    h = [[0] * n for _ in range(n)]
    f = [[0] * n for _ in range(n)]
    return ob.MatrixTriple(tuple(map(tuple, h)), tuple(map(tuple, e)), tuple(map(tuple, f)),
                           ob.OrbitRecord(pair, "1.1", (("r", 1),)))


def test_is_spherical_false_for_regular_element():
    assert not ob.is_spherical(regular_element_triple())


def dense_exp_modp(m):
    """exp(m) mod PRIME for a nilpotent dense matrix m, term by term."""
    n = len(m)
    out = term = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        inv_k = pow(k, -1, PRIME)
        term = [[v * inv_k % PRIME for v in row] for row in linalg.mat_mul(term, m)]
        if not any(map(any, term)):
            break
        out = linalg.mat_add(out, term)
    return out


def two_sided_borel_rank(triple, rng):
    """dim(b.x) mod PRIME at the two-sided point x = exp(N+) exp(N-) e, with
    the coefficients of N- and then of N+ drawn from rng."""
    real = triple.realization
    n = real.dim
    x = [list(row) for row in triple.e]
    plus = [b for b in real.k_basis if min(b)[0] < min(b)[1]]
    for basis in (real.minus_basis, plus):
        nil = [[0] * n for _ in range(n)]
        for b in basis:
            c = rng.randint(1, 9)
            for (i, j), v in b.items():
                nil[i][j] += c * v
        g = dense_exp_modp(nil)
        ginv = dense_exp_modp([[-v for v in row] for row in nil])
        x = linalg.mat_mul(linalg.mat_mul(g, x), ginv)
    ad_x = ob._ad(ob._reduced(ob._sparse(x), PRIME), PRIME)
    return linalg.rank([real.p_coords(ad_x(b)) for b in real.borel_basis], PRIME)


def test_borel_rank_is_invariant_under_exp_n_plus():
    # [b, Ad(u)x] = Ad(u)[b, x] for u in B: the one-sided trial point
    # exp(N-) e and the two-sided exp(N+) exp(N-) e have the same rank for
    # every trial, on the report-all orbits and a few of rank 6-8 (the first
    # of those is certified only by the second trial).
    triples = [ob.build_triple(r) for t, n in (("A", 4), ("B", 3), ("C", 2), ("D", 5))
               for spec in enumerate_pairs(t, n) for r in ob.list_orbits(spec)]
    assert len(triples) == 53
    triples += [ob.build_triple(rec(key, case, params)) for key, case, params in (
        ("A:7:p=4", "1.6", (("r", 1), ("s", 1))),
        ("C:6", "3.3", (("r", 2), ("s", 1))),
        ("D:6:p=1", "4.4", ()),
        ("B:6", "2.2", ()),
        ("A:8:p=4", "1.7", (("r", 1), ("s", 1))))]
    triples.append(regular_element_triple())
    for t in triples:
        rng = random.Random(0x5EED)
        ranks = []
        for _ in range(ob._TRIALS):
            state = rng.getstate()
            rank = ob._generic_borel_rank_modp(t, rng, PRIME)
            reference = random.Random()
            reference.setstate(state)
            assert rank == two_sided_borel_rank(t, reference), t.record.orbit_id()
            ranks.append(rank)
        assert (ob.centralizer_dim(t)[1] in ranks) == ob.is_spherical(t)
    assert not ob.is_spherical(triples[-1])


def test_first_trial_misses_under_both_primes():
    # The one acceptance-sweep orbit whose first trial point misses: rank
    # 18 against dim Kx 19 mod either prime, certified by the second point.
    t = ob.build_triple(rec("A:7:p=4", "1.6", (("r", 1), ("s", 1))))
    assert ob.centralizer_dim(t)[1] == 19
    for p in (ob._FAST_PRIME, ob._TRIAL_PRIME):
        rng = random.Random(0x5EED)
        ranks = [ob._generic_borel_rank_modp(t, rng, p) for _ in range(ob._TRIALS)]
        assert ranks[0] == 18 and 19 in ranks[1:], p
    assert ob.is_spherical(t)


def test_false_runs_both_primes_on_the_same_points(monkeypatch):
    trial = ob._generic_borel_rank_modp
    calls = []

    def counting(triple, rng, p):
        calls.append((p, rng.getstate()))
        return trial(triple, rng, p)

    monkeypatch.setattr(ob, "_generic_borel_rank_modp", counting)
    assert not ob.is_spherical(regular_element_triple())
    assert [p for p, _ in calls] == [ob._FAST_PRIME] * ob._TRIALS + [PRIME] * ob._TRIALS
    fast, slow = calls[:ob._TRIALS], calls[ob._TRIALS:]
    assert [state for _, state in fast] == [state for _, state in slow]
    calls.clear()
    assert ob.is_spherical(ob.build_triple(rec("B:4", "2.4")))
    assert [p for p, _ in calls] == [ob._FAST_PRIME]


def test_fast_prime_is_a_prime_above_every_sweep_dimension():
    p = ob._FAST_PRIME
    assert p < 1 << 30 < ob._TRIAL_PRIME == PRIME
    assert all(p % d for d in range(2, math.isqrt(p) + 1))
    # _exp_pair_modp inverts k! for k up to the matrix size.
    assert max(ob.realization(spec).dim for spec in sweep_pairs(8)) < p


def test_centralizer_rank_runs_once_per_triple(monkeypatch):
    t = ob.build_triple(rec("C:4", "3.3", (("r", 1), ("s", 1))))
    rank = linalg.rank
    rational = []

    def counting(rows, p=None):
        if p is None:
            rational.append(len(rows))
        return rank(rows, p)

    monkeypatch.setattr(linalg, "rank", counting)
    ob.jordan_type(t.e)
    jordan = len(rational)
    rational.clear()
    assert ob.centralizer_dim(t)[0] + ob.centralizer_dim(t)[1] == t.realization.k_dim
    assert ob.is_spherical(t)
    assert ob.verify_orbit(t)[1]
    assert rational.count(t.realization.k_dim) == 1
    assert len(rational) == 1 + jordan


def test_zero_element_is_spherical_point_orbit():
    pair = parse_pair_key("A:3:p=2")
    zero = tuple(tuple(0 for _ in range(4)) for _ in range(4))
    t = ob.MatrixTriple(zero, zero, zero, ob.OrbitRecord(pair, "1.1", (("r", 1),)))
    assert ob.is_spherical(t)


def test_p_height_examples():
    assert ob.p_height(ob.build_triple(rec("A:5:p=2", "1.1", (("r", 2),)))) == 2
    assert ob.p_height(ob.build_triple(rec("A:6:p=5", "1.4"))) == 3
    pair = parse_pair_key("A:3:p=2")
    zero = tuple(tuple(0 for _ in range(4)) for _ in range(4))
    tz = ob.MatrixTriple(zero, zero, zero, ob.OrbitRecord(pair, "1.1", (("r", 1),)))
    assert ob.p_height(tz) == 0


def test_p_height_rejects_non_nilpotent_e():
    t = ob.build_triple(rec("A:5:p=2", "1.1", (("r", 2),)))
    with pytest.raises(ValueError, match="not nilpotent"):
        ob.p_height(ob.MatrixTriple(t.h, t.h, t.f, t.record))


def test_jordan_type_rejects_non_nilpotent_e():
    with pytest.raises(ValueError, match="not nilpotent"):
        ob.jordan_type(((1,),))


def test_bicone_witness_cases():
    both = ob.bicone_witness(ob.build_triple(rec("A:5:p=3", "1.3", (("r", 1), ("s", 1)))))
    assert both["both_components_nonzero"] and both["chi_charges"] == (2, -2)
    single = ob.bicone_witness(ob.build_triple(rec("C:3", "3.1", (("r", 1),))))
    assert single["chi_charges"][1] is None and not single["both_components_nonzero"]
    deg = ob.bicone_witness(ob.build_triple(rec("B:3", "2.2")))
    assert deg["both_components_nonzero"]


def test_verify_orbit_checks_invariants_against_the_record():
    t = ob.build_triple(rec("A:5:p=4", "1.1", (("r", 1),)))
    row, ok = ob.verify_orbit(t)
    assert ok and row["ht_p"] == 2
    # the same height-2 element filed under the height-3 case 1.4
    wrong = ob.MatrixTriple(t.h, t.e, t.f, rec("A:5:p=4", "1.4"))
    row, ok = ob.verify_orbit(wrong)
    assert not ok
    assert row["sl2_ok"] and row["ht_p"] == 2 != ob.expected_p_height(wrong.record)


def test_jordan_types_match_signed_partitions():
    for key, case, params, variant in (
            ("A:6:p=3", "1.6", (("r", 1), ("s", 0)), ""),
            ("B:4", "2.1", (), "II"),
            ("C:4", "3.3", (("r", 2), ("s", 1)), ""),
            ("D:6:p=1", "4.4", (), ""),
            ("D:6:p=6", "5.4", (), "")):
        r = rec(key, case, params, variant)
        t = ob.build_triple(r)
        assert ob.jordan_type(t.e) == ob.partition_from_signed(r)


def signed_diagrams(p, q):
    """Every signed Young diagram with p boxes + and q boxes -, as
    (length, sign of the head, multiplicity) rows, length descending and
    + first, like `signed_partition`."""
    kinds = [(a, sg) for a in range(p + q, 0, -1) for sg in "+-"]

    def rest(i, p, q):
        if p == q == 0:
            yield ()
        elif i < len(kinds):
            a, sg = kinds[i]
            plus = (a + 1) // 2 if sg == "+" else a // 2
            m = 0
            while m * plus <= p and m * (a - plus) <= q:
                for tail in rest(i + 1, p - m * plus, q - m * (a - plus)):
                    yield ((a, sg, m),) + tail if m else tail
                m += 1

    yield from rest(0, p, q)


def test_every_su_pq_diagram_gives_a_normal_triple():
    # Not only the catalog: every nonzero signed Young diagram of SU(p, q)
    # with p + q <= 8 is a normal triple whose e has the diagram's rows as
    # its Jordan type.
    count = 0
    for n in range(2, 9):
        for p in range(1, n):
            pair = parse_pair_key(f"A:{n - 1}:p={p}")
            for rows in signed_diagrams(p, n - p):
                if rows[0][0] == 1:
                    continue
                hdiag, e, f = ob._diagram_triple(p, n - p, rows)
                h = {(i, i): v for i, v in enumerate(hdiag) if v}
                t = ob.MatrixTriple(*(ob._dense(x, n) for x in (h, e, f)),
                                    ob.OrbitRecord(pair, "diagram"))
                assert all(ob.verify_triple(t).values()), rows
                assert ob.jordan_type(t.e) == tuple(a for a, _, m in rows for _ in range(m))
                count += 1
    assert count == 389


def test_signed_partition_sizes():
    # exponents sum to the defining dimension (doubled for SO(2n)/GL(n)).
    for key in ("A:7:p=3", "B:5", "C:5", "D:6:p=1", "D:6:p=6"):
        pair = parse_pair_key(key)
        scale = 2 if pair.family_id == "SO_even_gl" else 1
        dim = ob.realization(pair).dim
        for r in ob.list_orbits(pair):
            total = sum(a * m * scale for a, _, m in r.signed_partition())
            assert total == dim, r.orbit_id()


def test_orbit_id_roundtrip():
    for key, case, params, variant in (("A:5:p=3", "1.6", (("r", 1), ("s", 0)), ""),
                                       ("B:4", "2.1", (), "II"),
                                       ("C:2", "3.3", (("r", 1), ("s", 1)), "")):
        r = rec(key, case, params, variant)
        assert ob.parse_orbit_id(r.orbit_id()) == r
    with pytest.raises(ValueError):
        ob.parse_orbit_id("A:5:p=3/9.9/")
    with pytest.raises(ValueError):
        ob.parse_orbit_id("A:5:p=3/1.4/")  # needs q = 2


def test_build_triple_and_parse_share_the_catalog_check():
    # not in list_orbits: a variant on case 1.1, swapped and extra parameters
    for r in (rec("A:5:p=2", "1.1", (("r", 1),), "I"),
              rec("A:5:p=3", "1.6", (("s", 0), ("r", 1))),
              rec("C:3", "3.1", (("r", 1), ("s", 0)))):
        with pytest.raises(ValueError, match="unknown orbit"):
            ob.build_triple(r)
        with pytest.raises(ValueError, match="unknown orbit"):
            ob.parse_orbit_id(r.orbit_id())


def test_triple_json_shape():
    t = ob.build_triple(rec("C:2", "3.1", (("r", 1),)))
    doc = ob.triple_to_json(t)
    assert doc["orbit"] == "C:2/3.1/r=1"
    assert doc["h"]["den"] == 1
    assert len(doc["e"]["num"]) == doc["dim"]


CATALOG_SHA256 = "77b07483be7227819d441ccc132d74066e4ada29e88b0016af82008e0536eb45"


def test_catalog_digest():
    # Every record of every A-D pair of rank <= 12: matrices, signed
    # partition, expected dimensions and Jordan type, in list_orbits order.
    digest = hashlib.sha256()
    count = 0
    for g_type in "ABCD":
        for n in range(_RANK_BOUNDS[g_type], 13):
            for pair in enumerate_pairs(g_type, n):
                for r in ob.list_orbits(pair):
                    doc = [ob.triple_to_json(ob.build_triple(r)), r.signed_partition(),
                           ob.expected_dims(r), ob.partition_from_signed(r)]
                    digest.update(json.dumps(doc, sort_keys=True).encode() + b"\n")
                    count += 1
    assert count == 2151
    assert digest.hexdigest() == CATALOG_SHA256


CAPPED_LISTING_SHA256 = "609cf35331bae5fbb116861ebfe3517fcb4439bdaaad8ddcfd80decd9ffaf0d3"


def test_capped_listing_digest():
    # The id of every record of every A-D pair of rank <= 12 under each cap,
    # one "cap<TAB>id" line each, in list_orbits order.
    digest = hashlib.sha256()
    count = 0
    for g_type in "ABCD":
        for n in range(_RANK_BOUNDS[g_type], 13):
            for pair in enumerate_pairs(g_type, n):
                for cap in (None, 1, 2, 3, 4):
                    for r in ob.list_orbits(pair, cap):
                        digest.update(f"{cap}\t{r.orbit_id()}\n".encode())
                        count += 1
    assert count == 7812
    assert digest.hexdigest() == CAPPED_LISTING_SHA256


def test_cap_beyond_every_parameter_lists_everything():
    for key in ("A:4:p=2", "A:7:p=4", "C:3", "D:6:p=6"):
        pair = parse_pair_key(key)
        assert ob.list_orbits(pair, 10 ** 20) == ob.list_orbits(pair)


def test_expected_dims_match_the_signed_young_diagram():
    # The case formulas of expected_dims against diagram_dims, which reads
    # the same dimensions off the signed partition, on every record of
    # every A-D pair of rank <= 12.
    count = 0
    for g_type in "ABCD":
        for n in range(_RANK_BOUNDS[g_type], 13):
            for pair in enumerate_pairs(g_type, n):
                for r in ob.list_orbits(pair):
                    assert diagram_dims(r) == ob.expected_dims(r), r.orbit_id()
                    count += 1
    assert count == 2151
