import pytest

from korbits import hermitian as hm
from oracles import cocharacter_order


def test_enumerate_a5():
    pairs = hm.enumerate_pairs("A", 5)
    assert [p.p_index for p in pairs] == [1, 2, 3, 4, 5]
    p2 = pairs[1]
    assert p2.family_id == hm.SLPQ
    assert p2.k_levi_types == (("A", 1), ("A", 3))
    assert p2.m == 3


def test_enumerate_c_and_d():
    (c4,) = hm.enumerate_pairs("C", 4)
    assert c4.k_levi_types == (("A", 3),)
    assert list(c4.p1_highest_weight.coords) == [2, 0, 0]
    d6 = hm.enumerate_pairs("D", 6)
    assert [p.p_index for p in d6] == [1, 5, 6]
    assert d6[0].family_id == hm.SO_EVEN_VECTOR
    d6gl = d6[2]
    assert list(d6gl.p1_highest_weight.coords) == [0, 1, 0, 0, 0]


def test_d4_has_no_vector_pair():
    assert [p.p_index for p in hm.enumerate_pairs("D", 4)] == [3, 4]


def test_rank_bound_errors():
    with pytest.raises(ValueError):
        hm.enumerate_pairs("B", 2)
    with pytest.raises(ValueError):
        hm.enumerate_pairs("E", 6)


def test_center_orders():
    assert hm.parse_pair_key("A:5:p=2").m == 3
    assert hm.parse_pair_key("B:4").m == 2
    assert hm.parse_pair_key("C:7").m == 2
    assert hm.parse_pair_key("D:7:p=7").m == 4
    assert hm.parse_pair_key("D:8:p=8").m == 2


def test_center_order_matches_cocharacter_lattice():
    # m is minimal with m * omega_p^vee in the coroot lattice.
    for key in ("A:4:p=1", "A:5:p=2", "A:5:p=3", "A:7:p=4", "B:3", "B:6",
                "C:2", "C:5", "D:5:p=1", "D:5:p=5", "D:6:p=6", "D:7:p=6"):
        spec = hm.parse_pair_key(key)
        t, n = spec.g_type
        assert spec.m == cocharacter_order(t, n, spec.p_index), key


def test_p_module_weights_dual_pair():
    spec = hm.parse_pair_key("A:5:p=2")
    (w1, c1), (w2, c2) = hm.p_module_weights(spec)
    assert list(w1.coords) == [1, 0, 0, 1]      # omega_1 + omega'_{q-1}
    assert list(w2.coords) == [1, 1, 0, 0]      # omega_{p-1} + omega'_1
    assert (c1, c2) == (3, -3)
    rs = spec.k_ss_root_system()
    assert rs.dual_weight(w1).coords == w2.coords
    assert rs.dual_weight(w2).coords == w1.coords


def test_p_module_weights_all_families_self_consistent():
    for key in ("A:3:p=2", "A:6:p=1", "B:5", "C:4", "D:6:p=1", "D:6:p=6", "D:5:p=4"):
        spec = hm.parse_pair_key(key)
        (w1, c1), (w2, c2) = hm.p_module_weights(spec)
        rs = spec.k_ss_root_system()
        assert rs.dual_weight(w1).coords == w2.coords
        assert c1 == -c2 == spec.m


def test_b_family_weights():
    spec = hm.parse_pair_key("B:5")
    (w1, c1), (w2, c2) = hm.p_module_weights(spec)
    assert list(w1.coords) == [1, 0, 0, 0] and list(w2.coords) == [1, 0, 0, 0]


def test_pair_keys_roundtrip():
    for key in ("A:5:p=2", "B:4", "C:3", "D:6:p=1", "D:6:p=6"):
        assert hm.parse_pair_key(key).key() == key
    assert hm.parse_pair_key("D:6:gl").key() == "D:6:p=6"
    assert hm.parse_pair_key("D:6:vec").key() == "D:6:p=1"
    with pytest.raises(ValueError):
        hm.parse_pair_key("A:5")
    with pytest.raises(ValueError):
        hm.parse_pair_key("B:4:p=2")
    with pytest.raises(ValueError):
        hm.parse_pair_key("D:4:p=1")
