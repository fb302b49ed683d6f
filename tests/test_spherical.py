import random

import pytest

from korbits import linalg
from korbits import spherical as sp
from oracles import AX111_COLOR_WEIGHTS, color_sum


def test_ax111_data():
    ax = sp.system_ax111()
    assert ax.sigma_in_colors == ((-1, 1, 1), (1, -1, 1), (1, 1, -1))
    assert ax.colors == ("D1", "D2", "D3")
    # sigma_1 + sigma_2 = 2 D3
    row = tuple(a + b for a, b in zip(ax.sigma_in_colors[0], ax.sigma_in_colors[1]))
    assert row == (0, 0, 2)


def test_ax111_color_weights_send_roots_to_roots():
    # omega maps the color expression of sigma_i to 2 omega_i = alpha_i.
    ax = sp.system_ax111()
    w = AX111_COLOR_WEIGHTS
    for i, row in enumerate(ax.sigma_in_colors):
        total = [0, 0, 0]
        for c, name in zip(row, ax.colors):
            for t in range(3):
                total[t] += c * w[name][t]
        expected = [0, 0, 0]
        expected[i] = 2
        assert total == expected


def test_case_14_rows():
    s = sp.system_case_1_4(5)
    named = dict(zip(s.sigma_names, s.sigma_in_colors))
    assert named["s1"] == (1, 1, -1, 0, 0)
    assert named["s3"] == (1, -1, 1, -1, 0)      # sigma_1 + sigma_3 = 2 D1 - D4
    assert named["s2"] == (-1, 1, 1, 0, -1)
    assert s.designated == (s.unit_color("D1"), s.unit_color("D2"))


def test_case_14_merged_colors_at_p4():
    s = sp.system_case_1_4(4)
    assert s.colors == ("D1", "D2", "D3", "D4")
    named = dict(zip(s.sigma_names, s.sigma_in_colors))
    assert named["s2"] == (-1, 1, 1, -1)


def test_case_14_sp_indices():
    assert sp.system_case_1_4(5).s_p == ()
    s7 = sp.system_case_1_4(7)
    assert s7.s_p == (2, 3)  # alpha_3, alpha_4 of the A6 factor


def test_case_15_mirror_of_14():
    q = 6
    a = sp.system_case_1_4(q)
    b = sp.system_case_1_5(q)
    assert a.colors == b.colors
    assert a.sigma_in_colors == b.sigma_in_colors
    assert a.designated == b.designated
    # factor swap: the A1 root moves from the second to the first factor
    assert a.ambient.components == (("A", q - 1), ("A", 1))
    assert b.ambient.components == (("A", 1), ("A", q - 1))
    perm = list(range(q - 1, q)) + list(range(q - 1))
    for va, vb in zip(a.sigma, b.sigma):
        assert tuple(va.coords[j] for j in perm) == vb.coords
    assert tuple(sorted(j + 1 if j < q - 1 else 0 for j in a.s_p)) == b.s_p


def test_two_wing_tau_presence():
    assert "tau" in sp.system_case_1_6(5, 5, 1, 1).sigma_names      # r+s < q-1
    assert "tau" not in sp.system_case_1_6(5, 3, 1, 1).sigma_names  # r+s = q-1
    assert "tau" in sp.system_case_1_7(5, 5, 1, 1).sigma_names
    assert "tau" not in sp.system_case_1_7(3, 5, 1, 1).sigma_names


def test_two_wing_param_validation():
    with pytest.raises(ValueError):
        sp.system_case_1_6(3, 4, 1, 1)   # needs r+s+2 <= p
    with pytest.raises(ValueError):
        sp.system_case_1_7(4, 3, 1, 1)   # needs r+s+2 <= q


def test_two_wing_rejects_other_cases():
    for case in ("1.8", "1.4", "1.5"):
        with pytest.raises(ValueError, match="not a two-wing case"):
            sp.TwoWingSystem(case, 4, 4, 1, 1)


def test_degenerate_wing_designated():
    tw = sp.TwoWingSystem("1.6", 5, 5, 1, 0)
    s = tw.system
    d2 = s.designated[1]
    assert d2 == color_sum(s, "D2_2", "D2_3")
    assert s.designated[0] == s.unit_color("D1_2")
    # boundary s = 0: the second designated color crosses into wing 1
    twb = sp.TwoWingSystem("1.6", 5, 2, 1, 0)
    sb = twb.system
    assert sb.designated[1] == color_sum(sb, "D2_2", "D1_3")
    assert twb.col(2, 3) == sb.color_index("D1_3")


def test_end_color_merge_at_minimal_p():
    tw = sp.TwoWingSystem("1.6", 4, 5, 1, 1)   # p = r+s+2
    s = tw.system
    assert tw.col(1, 4) == tw.col(2, 4)
    assert "D2_4" not in s.colors
    big = sp.TwoWingSystem("1.6", 5, 5, 1, 1)
    assert big.col(1, 4) != big.col(2, 4)
    # mirror case merges at minimal q instead
    tw7 = sp.TwoWingSystem("1.7", 5, 4, 1, 1)
    assert tw7.col(1, 4) == tw7.col(2, 4)
    assert sp.TwoWingSystem("1.7", 5, 5, 1, 1).col(1, 4) != \
        sp.TwoWingSystem("1.7", 5, 5, 1, 1).col(2, 4)


def test_two_wing_coefficient_formulas():
    """The reconstructed rows satisfy the full set of d^k_h identities."""
    rng = random.Random(11)
    grid = []
    for r in range(0, 4):
        for s in range(0, 4 - r):
            grid.append(("1.6", r + s + 2, r + s + 2, r, s))
            grid.append(("1.6", r + s + 3, r + s + 1, r, s))
            grid.append(("1.7", r + s + 2, r + s + 3, r, s))
            grid.append(("1.7", r + s + 1, r + s + 3, r, s))
    for case, p, q, r, s in grid:
        tw = sp.TwoWingSystem(case, p, q, r, s)
        names = tw.system.sigma_names
        rows = tw.system.sigma_in_colors
        nc = len(tw.system.colors)
        for _ in range(8):
            a = {1: {}, 2: {}}
            for k, rk in ((1, r), (2, s)):
                for h in range(1, 2 * rk + 1):
                    a[k][h] = rng.randint(0, 5)
            b = rng.randint(0, 5) if not tw.boundary else None
            gamma = [0] * nc
            for nm, row in zip(names, rows):
                c = b if nm == "tau" else a[int(nm[1])][int(nm.split("_")[1])]
                for j in range(nc):
                    gamma[j] += c * row[j]

            def d(k, h):
                j = tw.col(k, h)
                return gamma[j] if j is not None else None

            def A(k, h):
                return a[k].get(h, 0)

            for k, rk in ((1, r), (2, s)):
                if rk >= 1:
                    assert d(k, 1) == A(k, 1) - A(k, 2)
                    for h in range(3, 2 * rk):
                        assert d(k, h) == -A(k, h - 2) + A(k, h - 1) + A(k, h) - A(k, h + 1)
                    assert d(k, 2 * rk) == -A(k, 2 * rk - 2) + A(k, 2 * rk - 1) + A(k, 2 * rk)
                if not tw.boundary:
                    if rk >= 1:
                        assert d(k, 2 * rk + 1) == -A(k, 2 * rk - 1) + A(k, 2 * rk) - b
                    assert d(k, 2 * rk + 3) == -A(k, 2 * rk) + b
            if tw.boundary:
                if r >= 1:
                    assert d(1, 2 * r + 1) == -A(1, 2 * r - 1) + A(1, 2 * r) - A(2, 2 * s)
                if s >= 1:
                    assert d(2, 2 * s + 1) == -A(2, 2 * s - 1) + A(2, 2 * s) - A(1, 2 * r)


def test_two_wing_generator_identities():
    """gamma^k_i = i Dpk - tilde(k, 2i) and the gamma_{i,j} identity."""
    for case, p, q, r, s in (("1.6", 6, 6, 2, 1), ("1.6", 5, 3, 1, 1),
                             ("1.7", 5, 6, 1, 2), ("1.7", 3, 6, 1, 1),
                             ("1.6", 4, 4, 0, 2), ("1.6", 5, 3, 2, 0)):
        tw = sp.TwoWingSystem(case, p, q, r, s)
        names = tw.system.sigma_names
        rows = tw.system.sigma_in_colors
        nc = len(tw.system.colors)
        d1, d2 = tw.system.designated

        def combo(pairs):
            acc = [0] * nc
            for nm, c in pairs:
                row = rows[names.index(nm)]
                for j in range(nc):
                    acc[j] += c * row[j]
            return tuple(acc)

        for k, rk, dk in ((1, tw.r1, d1), (2, tw.r2, d2)):
            for i in range(1, rk + 2):
                pairs = []
                for u in range(1, i):
                    pairs += [(f"s{k}_{2 * u - 1}", i - u), (f"s{k}_{2 * u}", i - u)]
                til = tw.tilde(k, 2 * i)
                assert combo(pairs) == tuple(i * dk[j] - til[j] for j in range(nc))
        for i in range(1, tw.r1 + 2):
            for j in range(1, tw.r2 + 2):
                if tw.boundary and i + j >= tw.r1 + tw.r2 + 2:
                    continue
                pairs = []
                for u in range(1, i):
                    pairs += [(f"s1_{2 * u - 1}", i - u), (f"s1_{2 * u}", i - u)]
                for u in range(i, tw.r1 + 1):
                    pairs.append((f"s1_{2 * u}", 1))
                for v in range(1, j):
                    pairs += [(f"s2_{2 * v - 1}", j - v), (f"s2_{2 * v}", j - v)]
                for v in range(j, tw.r2 + 1):
                    pairs.append((f"s2_{2 * v}", 1))
                if not tw.boundary:
                    pairs.append(("tau", 1))
                t1, t2 = tw.tilde(1, 2 * i - 1), tw.tilde(2, 2 * j - 1)
                expected = tuple(i * d1[x] + j * d2[x] - t1[x] - t2[x]
                                 for x in range(nc))
                assert combo(pairs) == expected


def test_rows_independent_for_all_encoded_systems():
    systems = [sp.system_ax111(), sp.system_case_1_4(4), sp.system_case_1_4(6),
               sp.system_case_1_5(5), sp.system_case_1_7(3, 4, 1, 1),
               sp.system_case_1_6(6, 5, 2, 1), sp.system_case_1_7(4, 6, 1, 1),
               sp.system_case_1_6(4, 3, 1, 1)]
    for s in systems:
        rows = [list(r) for r in s.sigma_in_colors]
        assert linalg.rank(rows) == len(rows), s.name


def test_supports_inside_ambient():
    for s in (sp.system_case_1_6(6, 6, 1, 2), sp.system_case_1_7(4, 6, 1, 1)):
        n = s.ambient.total_rank
        for v in s.sigma:
            assert len(v.coords) == n and all(c >= 0 for c in v.coords)
        assert all(0 <= j < n for j in s.s_p)
