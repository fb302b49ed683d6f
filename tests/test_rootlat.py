import pytest

from korbits import rootlat as rl
from oracles import (cartan_matrix, highest_root_euclidean, pairing_with_coroot,
                     root_system_cartan, to_fund_weights)


def test_cartan_rank_one():
    assert cartan_matrix("A", 1) == [[2]]


def test_cartan_a2():
    assert cartan_matrix("A", 2) == [[2, -1], [-1, 2]]


def test_cartan_c3_asymmetry():
    a = cartan_matrix("C", 3)
    assert a[1][2] == -1 and a[2][1] == -2


def test_cartan_b3_asymmetry():
    a = cartan_matrix("B", 3)
    assert a[1][2] == -2 and a[2][1] == -1


def test_cartan_cross_checked_against_euclidean_pairings():
    for t, n in (("A", 4), ("B", 4), ("C", 3), ("D", 5)):
        a = cartan_matrix(t, n)
        for i in range(n):
            alpha = rl.LatticeVector(rl.SIMPLE_ROOTS, tuple(1 if j == i else 0 for j in range(n)))
            for j in range(n):
                assert pairing_with_coroot(t, n, alpha, j + 1) == a[i][j]


def test_cartan_determinants():
    def det(m):
        from fractions import Fraction
        m = [[Fraction(x) for x in row] for row in m]
        n = len(m)
        sign = 1
        for c in range(n):
            p = next((i for i in range(c, n) if m[i][c] != 0), None)
            if p is None:
                return 0
            if p != c:
                m[c], m[p] = m[p], m[c]
                sign = -sign
            for i in range(c + 1, n):
                f = m[i][c] / m[c][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
        out = sign
        for i in range(n):
            out *= m[i][i]
        return out

    assert det(cartan_matrix("A", 5)) == 6
    assert det(cartan_matrix("B", 4)) == 2
    assert det(cartan_matrix("C", 4)) == 2
    assert det(cartan_matrix("D", 6)) == 4


def test_rank_bounds():
    with pytest.raises(ValueError):
        cartan_matrix("B", 1)
    with pytest.raises(ValueError):
        cartan_matrix("D", 2)
    with pytest.raises(ValueError):
        cartan_matrix("E", 6)


def test_highest_root_tables():
    assert rl.highest_root("A", 4).coords == (1, 1, 1, 1)
    assert rl.highest_root("B", 5).coords[0] == 1
    theta_c = rl.highest_root("C", 5).coords
    assert theta_c[-1] == 1 and all(c == 2 for c in theta_c[:-1])


def test_highest_root_oracle():
    for t, n in (("A", 3), ("B", 4), ("C", 4), ("D", 4), ("D", 5), ("D", 6)):
        assert list(rl.highest_root(t, n).coords) == highest_root_euclidean(t, n)


def test_highest_root_dominant():
    for t, n in (("A", 5), ("B", 4), ("C", 4), ("D", 5)):
        theta = rl.highest_root(t, n)
        for j in range(1, n + 1):
            assert pairing_with_coroot(t, n, theta, j) >= 0


def test_abelian_radical_lists():
    assert rl.abelian_radical_roots("A", 3) == [1, 2, 3]
    assert rl.abelian_radical_roots("D", 5) == [1, 4, 5]
    assert rl.abelian_radical_roots("B", 4) == [1]
    assert rl.abelian_radical_roots("C", 6) == [6]


def test_abelian_radical_matches_highest_root_recomputation():
    for t, n in (("A", 6), ("B", 5), ("C", 5), ("D", 6), ("D", 7)):
        theta = highest_root_euclidean(t, n)
        expected = [i + 1 for i, c in enumerate(theta) if c == 1]
        assert rl.abelian_radical_roots(t, n) == expected


def test_root_system_product_orthogonal_blocks():
    rs = rl.RootSystem((("A", 2), ("C", 2)))
    a = root_system_cartan(rs)
    assert rs.total_rank == 4
    for i in range(2):
        for j in range(2, 4):
            assert a[i][j] == 0 and a[j][i] == 0


def test_fund_weight_inverse_relation():
    # alpha_i written in fundamental weights is row i of the Cartan matrix.
    rs = rl.RootSystem((("B", 3),))
    a = root_system_cartan(rs)
    for i in range(3):
        alpha = rs.simple_root(0, i + 1)
        assert list(to_fund_weights(rs, alpha).coords) == a[i]
