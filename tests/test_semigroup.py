import dataclasses
import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from korbits import linalg
from korbits import semigroup as sg
from korbits import spherical as sp
from oracles import (AX111_COLOR_WEIGHTS, color_sum, pairwise_hilbert_reduce,
                     sections_decomposition, solve, weight_semigroup)

AX = sp.system_ax111()
S14 = sp.system_case_1_4(5)
SIMPLEX_MAX = linalg.simplex_max


def test_leq_examples():
    assert sg.leq_sigma(AX, AX.unit_color("D3"), color_sum(AX, "D1", "D2"))
    assert sg.leq_sigma(AX, AX.unit_color("D2"), AX.unit_color("D2"))
    assert not sg.leq_sigma(AX, AX.unit_color("D1"), AX.unit_color("D2"))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=3, max_size=3),
       st.lists(st.integers(0, 3), min_size=3, max_size=3),
       st.lists(st.integers(0, 3), min_size=3, max_size=3))
def test_leq_partial_order_ax111(d, e, f):
    d, e, f = tuple(d), tuple(e), tuple(f)
    assert sg.leq_sigma(AX, d, d)
    if sg.leq_sigma(AX, d, e) and sg.leq_sigma(AX, e, d):
        assert d == e
    if sg.leq_sigma(AX, d, e) and sg.leq_sigma(AX, e, f):
        assert sg.leq_sigma(AX, d, f)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=5, max_size=5),
       st.lists(st.integers(0, 2), min_size=5, max_size=5))
def test_leq_antisymmetry_case14(d, e):
    d, e = tuple(d), tuple(e)
    if sg.leq_sigma(S14, d, e) and sg.leq_sigma(S14, e, d):
        assert d == e


def fraction_nsigma(system, vec):
    """Oracle for nsigma_coords: the exact Fraction solve of the embedding."""
    sol = solve(system.sigma_in_colors, vec)
    if sol is None or any(x.denominator != 1 or x < 0 for x in sol):
        return None
    return tuple(int(x) for x in sol)


def test_leq_partial_order_every_encoded_system():
    rng = random.Random(17)
    systems = [AX, S14, sp.system_case_1_5(5), sp.system_case_1_7(4, 6, 1, 1),
               sp.system_case_1_6(4, 4, 1, 1), sp.system_case_1_6(4, 3, 1, 1),
               sp.system_case_1_7(3, 4, 0, 1)]
    for system in systems:
        ncol = len(system.colors)
        lat = sg.lattice(system)
        queries = [tuple(rng.randint(-2, 2) for _ in range(ncol)) for _ in range(100)]
        for _ in range(100):
            v = lat.colors_of([rng.randint(-1, 3) for _ in range(lat.k)])
            queries.append(v)
            if all(x % 2 == 0 for x in v):
                queries.append(tuple(x // 2 for x in v))
        for v in queries:
            assert lat.nsigma_coords(v) == fraction_nsigma(system, v), (system.name, v)
        vecs = [tuple(rng.randint(0, 2) for _ in range(ncol)) for _ in range(30)]
        for d in vecs:
            assert sg.leq_sigma(system, d, d)
        for d in vecs[:12]:
            for e in vecs[:12]:
                if sg.leq_sigma(system, d, e) and sg.leq_sigma(system, e, d):
                    assert d == e
                for f in vecs[:6]:
                    if sg.leq_sigma(system, d, e) and sg.leq_sigma(system, e, f):
                        assert sg.leq_sigma(system, d, f)


def brute_force_dominated(system, e_vec, box):
    """Oracle: scan F in a coordinate box around E and test E - F in N-Sigma.

    F can exceed E where spherical roots have negative color coordinates,
    so the box pads by box times the column-wise sum of negative parts; the
    pad is certified sufficient against the exact LP bounds.
    """
    lat = sg.lattice(system)
    assert all(b <= box for b in lat.box_bounds(e_vec))
    ncol = len(system.colors)
    neg = [sum(max(-row[i], 0) for row in system.sigma_in_colors) for i in range(ncol)]
    tops = [e_vec[i] + box * neg[i] for i in range(ncol)]
    out = []
    for f_vec in itertools.product(*(range(t + 1) for t in tops)):
        if f_vec == tuple(e_vec):
            continue
        diff = tuple(a - b for a, b in zip(e_vec, f_vec))
        if lat.nsigma_coords(diff) is not None:
            out.append(f_vec)
    return out


def test_minuscule_examples_and_oracle():
    assert sg.is_minuscule(AX, AX.unit_color("D1"))
    assert not sg.is_minuscule(AX, (0, 0, 2))
    assert sg.is_minuscule(S14, S14.unit_color("D1"))
    assert sg.is_minuscule(S14, S14.unit_color("D2"))
    rng = random.Random(5)
    for system in (AX, S14):
        ncol = len(system.colors)
        for _ in range(60):
            e_vec = tuple(rng.randint(0, 3) for _ in range(ncol))
            assert sg.is_minuscule(system, e_vec) == (not brute_force_dominated(system, e_vec, 3))


def test_sections_examples():
    assert sections_decomposition(AX, (0, 0, 2)) == [(0, 0, 2), (0, 0, 0)]
    assert sections_decomposition(AX, AX.unit_color("D1")) == [(1, 0, 0)]
    got = sections_decomposition(S14, color_sum(S14, "D1", "D2"))
    assert got == [(1, 1, 0, 0, 0), (0, 0, 1, 0, 0)]


def test_sections_match_brute_force():
    rng = random.Random(6)
    for system in (AX, S14):
        ncol = len(system.colors)
        for _ in range(40):
            e_vec = tuple(rng.randint(0, 3) for _ in range(ncol))
            got = set(sections_decomposition(system, e_vec))
            expected = set(brute_force_dominated(system, e_vec, 3)) | {e_vec}
            assert got == expected


def test_positive_part_height():
    assert sg.positive_part_height((1, -2, 3)) == ((1, 0, 3), 2)
    assert sg.positive_part_height((0, 0, 0)) == ((0, 0, 0), 0)
    assert sg.positive_part_height((2, -1, 0, 3)) == ((2, 0, 0, 3), 4)
    plus, _ = sg.positive_part_height((-1, 1, 1))
    assert plus == (0, 1, 1) and sum(plus) == 2


def test_covering_differences_case14():
    covers = sg.covering_differences(S14, 2)
    assert (1, 0, 0) in covers          # sigma_1 covers D3 <= D1 + D2
    for c in covers:
        gamma = sg.lattice(S14).colors_of(c)
        plus, _ = sg.positive_part_height(gamma)
        assert sum(plus) == 2


def test_covering_differences_bound_one_nonzero():
    for system in (AX, S14):
        for c in sg.covering_differences(system, 1):
            assert any(c)


def test_gamma_semigroup_case14():
    gens = sg.gamma_semigroup(S14, 3)
    keys = {g.key() for g in gens}
    u = S14.unit_color
    assert keys == {(1, 0, u("D1")), (0, 1, u("D2")), (1, 1, u("D3")),
                    (2, 0, u("D4")), (0, 2, u("D5"))}


def test_gamma_semigroup_degree_zero():
    assert sg.gamma_semigroup(S14, 0) == []


def test_gamma_semigroup_closure():
    """Every member decomposes over the returned generators."""
    for system, deg in ((S14, 3), (sp.system_case_1_6(4, 4, 1, 1), 4)):
        gens = [(g.n1, g.n2) + g.E for g in sg.gamma_semigroup(system, deg)]
        d1, d2 = system.designated
        lat = sg.lattice(system)
        members = []
        for n1 in range(deg + 1):
            for n2 in range(deg + 1 - n1):
                target = tuple(n1 * a + n2 * b for a, b in zip(d1, d2))
                for c in lat.enumerate_sub(target):
                    e_vec = tuple(x - y for x, y in zip(target, lat.colors_of(c)))
                    members.append((n1, n2) + e_vec)

        def decomposes(m, pool):
            if not any(m):
                return True
            for g in pool:
                if all(x <= y for x, y in zip(g, m)):
                    if decomposes(tuple(y - x for x, y in zip(g, m)), pool):
                        return True
            return False

        for m in members:
            assert decomposes(m, gens), (system.name, m)


def test_gamma_sigma_case14():
    gens = sg.gamma_sigma_semigroup(S14, 4)
    assert gens == [(1, 0, 0), (1, 0, 1), (1, 1, 0)]


def test_gamma_sigma_membership_condition_case14():
    # a1 s1 + a2 s2 + a3 s3 has supp(+) in {D1, D2} iff a1 >= a2 + a3.
    lat = sg.lattice(S14)
    for a1, a2, a3 in itertools.product(range(4), repeat=3):
        gamma = lat.colors_of((a1, a2, a3))
        cond = all(x <= 0 for i, x in enumerate(gamma) if S14.colors[i] not in ("D1", "D2"))
        assert cond == (a1 >= a2 + a3)


def test_gamma_sigma_basis_is_closed_form_differences():
    """Gamma_sigma is generated by gamma = n1 Dp1 + n2 Dp2 - E over the closed
    forms: its Hilbert basis in a box holding every such gamma is exactly
    the nonzero ones, each once, in sigma-coordinates, and gamma = 0 only
    for (1, 0, Dp1) and (0, 1, Dp2).  The box is at least range(4)^k, so
    every member with coordinates <= 3 decomposes over them."""
    cases = ([("1.4", {"p": p}) for p in (4, 5, 6)] + [("1.5", {"q": q}) for q in (4, 5)]
             + two_wing_params(3))
    assert len(cases) == 45
    for case, params in cases:
        system = sg.build_case_system(case, params)
        lat = sg.lattice(system)
        d1, d2 = system.designated
        zero = tuple([0] * lat.k)
        gammas = [(lat.nsigma_coords(tuple(g.n1 * a + g.n2 * b - e
                                           for a, b, e in zip(d1, d2, g.E))), (g.n1, g.n2))
                  for g in sg.closed_form_generators(case, params)]
        assert sorted(deg for c, deg in gammas if c == zero) == [(0, 1), (1, 0)], case
        nonzero = sorted(c for c, _ in gammas if c != zero)
        top = max((max(c) for c in nonzero), default=0)
        assert sg.gamma_sigma_semigroup(system, max(top, 3)) == nonzero, (case, params)


def test_closed_form_16_examples():
    params = dict(p=4, q=4, r=1, s=1)
    tw = sp.TwoWingSystem("1.6", **params)
    gens = {g.key() for g in sg.closed_form_generators("1.6", params)}
    e11 = tuple(a + b for a, b in zip(tw.tilde(1, 1), tw.tilde(2, 1)))
    assert (1, 1, e11) in gens
    # gamma_{1,1} really is sigma^1_2 + sigma^2_2 + tau
    lat = sg.lattice(tw.system)
    target = tuple(a + b - e for a, b, e in zip(*tw.system.designated, e11))
    coords = dict(zip(tw.system.sigma_names, lat.nsigma_coords(target)))
    assert coords == {"s1_1": 0, "s1_2": 1, "s2_1": 0, "s2_2": 1, "tau": 1}


def test_closed_form_boundary_exclusion():
    r, s = 1, 1
    params = dict(p=5, q=r + s + 1, r=r, s=s)
    gens = sg.closed_form_generators("1.6", params)
    degrees = {(g.n1, g.n2) for g in gens}
    assert (r + 1, s + 1) not in degrees
    generic = {(g.n1, g.n2) for g in
               sg.closed_form_generators("1.6", dict(p=5, q=5, r=r, s=s))}
    assert (r + 1, s + 1) in generic


def test_closed_form_unknown_case():
    with pytest.raises(ValueError):
        sg.closed_form_generators("9.9", {})


def test_hilbert_reduce_matches_pairwise_reference(monkeypatch):
    # The half-sum candidate bound against the all-pairs test, on the member
    # sets both Hilbert bases reduce and on random sets of vectors >= 0.
    seen = []
    reduce_ = sg._hilbert_reduce
    monkeypatch.setattr(sg, "_hilbert_reduce", lambda ms: seen.append(ms) or reduce_(ms))
    for system, deg in ((S14, 12), (sp.system_case_1_6(4, 4, 1, 1), 5),
                        (sp.system_case_1_6(5, 5, 2, 1), 4)):
        sg.gamma_semigroup(system, deg)
        sg.gamma_sigma_semigroup(system, 3)
    rng = random.Random(23)
    for _ in range(200):
        dim = rng.randint(1, 4)
        seen.append([tuple(rng.randint(0, 3) for _ in range(dim))
                     for _ in range(rng.randint(0, 40))])
    assert len(seen) == 206 and max(map(len, seen)) > 1000
    for members in seen:
        assert reduce_(members) == pairwise_hilbert_reduce(members), members


def test_hilbert_basis_stable_beyond_proposition_degree():
    # no new generators appear one degree past the closed-form maximum
    for params in (dict(p=4, q=4, r=1, s=1), dict(p=5, q=4, r=1, s=1)):
        system = sg.build_case_system("1.6", params)
        enum = sorted(g.key() for g in sg.gamma_semigroup(system, 5))
        closed = sorted(g.key() for g in sg.closed_form_generators("1.6", params))
        assert enum == closed


def test_normality_encoded_systems():
    assert sg.normality_check(AX)["normal"]
    assert sg.normality_check(S14)["normal"]
    assert sg.normality_check(sp.system_case_1_6(5, 4, 1, 1))["normal"]


def test_normality_synthetic_failure_and_vacuous():
    bad = AX.with_designated((0, 0, 2), None)
    res = sg.normality_check(bad)
    assert not res["normal"] and res["witnesses"]["Dp1"] == (0, 0, 0)
    vac = AX.with_designated(None, None)
    assert sg.normality_check(vac)["normal"]


def test_weight_semigroup_ax111():
    lam1 = AX111_COLOR_WEIGHTS["D1"]
    lam2 = AX111_COLOR_WEIGHTS["D2"]
    out = weight_semigroup(AX, lam1, lam2, AX111_COLOR_WEIGHTS, 2)
    by_key = {(g.n1, g.n2, g.E): w for g, w in out}
    assert by_key[(1, 0, AX.unit_color("D1"))] == lam1
    assert by_key[(0, 1, AX.unit_color("D2"))] == lam2
    # generator (1, 1, 2 D3): weight = lam1 + lam2 - omega(sigma_3)
    e = tuple(2 * x for x in AX.unit_color("D3"))
    if (1, 1, e) in by_key:
        expected = tuple(a + b - c for a, b, c in zip(lam1, lam2, (0, 0, 2)))
        assert by_key[(1, 1, e)] == expected
    with pytest.raises(ValueError):
        weight_semigroup(AX, lam1, lam2, {"D1": (0, 1, 1)}, 2)


def test_weight_semigroup_needs_designated():
    with pytest.raises(ValueError):
        sg.gamma_semigroup(dataclasses.replace(AX, designated=None), 2)


def direct_box_bounds(system, e_vec, solved=None):
    """Oracle for box_bounds: the k coordinate LPs solved at E itself.

    `solved` maps (matrix, b, objective) to an optimum that simplex_max
    already returned for exactly that LP; those are read back, not re-run.
    """
    rows = system.sigma_in_colors
    a = tuple(tuple(row[i] for row in rows) for i in range(len(system.colors)))
    k = len(rows)
    out = []
    for i in range(k):
        key = (a, tuple(e_vec), tuple(int(j == i) for j in range(k)))
        if solved is None or key not in solved:
            status, val = SIMPLEX_MAX(a, list(e_vec), list(key[2]))
            assert status == "optimal"
        else:
            val = solved[key]
        out.append(int(val))
    return out


def two_wing_params(max_rs):
    """The two-wing cases with r + s <= max_rs, generic (p = q) and boundary."""
    out = []
    for r in range(max_rs + 1):
        for s in range(max_rs + 1 - r):
            n = r + s + 2
            for other in (n, n - 1):
                out.append(("1.6", dict(p=n, q=other, r=r, s=s)))
                out.append(("1.7", dict(p=other, q=n, r=r, s=s)))
    return out


def test_box_bounds_match_direct_lp(monkeypatch):
    """Every target n1 D1 + n2 D2 of the Hilbert-basis degrees, in order of
    degree so that 2 D1, 3 D1, 2 (D1 + D2), ... reuse the optima of their
    ray, each on a fresh lattice; then 200 random E in 0..3 on the 1.4/1.5
    lattices, as the is_minuscule queries draw them.  Each 1.7 system has
    the color rows and designated colors of its 1.6 mirror, so the LPs of
    the 40 two-wing cases are those of 20 systems.

    An LP the lattice itself solved at E is the oracle's own LP, so the
    oracle reads its optimum back; every other target is solved directly.
    """
    solved = {}

    def recording(a, b, c):
        status, val = SIMPLEX_MAX(a, b, c)
        solved[(tuple(map(tuple, a)), tuple(b), tuple(c))] = val
        return status, val

    monkeypatch.setattr(linalg, "simplex_max", recording)
    by_lp_data = {}
    for case, prm in two_wing_params(3):
        system = sg.build_case_system(case, prm)
        by_lp_data.setdefault((system.sigma_in_colors, system.designated),
                              (system, prm["r"] + prm["s"] + 2))
    assert len(by_lp_data) == 20
    cases = list(by_lp_data.values())
    for p in range(4, 8):
        cases += [(sp.system_case_1_4(p), 4), (sp.system_case_1_5(p), 4)]
    lattices = []
    for system, degree in cases:
        lat = sg.SigmaLattice(system)
        if system.name in ("case1.4", "case1.5"):
            lattices.append((system, lat))
        d1, d2 = system.designated
        for total in range(degree + 1):
            for n1 in range(total + 1):
                e_vec = tuple(n1 * a + (total - n1) * b for a, b in zip(d1, d2))
                assert lat.box_bounds(e_vec) == direct_box_bounds(system, e_vec, solved), \
                    (system.name, n1, total - n1)
    rng = random.Random(13)
    for _ in range(200):
        system, lat = rng.choice(lattices)
        e_vec = tuple(rng.randint(0, 3) for _ in system.colors)
        assert lat.box_bounds(e_vec) == direct_box_bounds(system, e_vec, solved), \
            (system.name, e_vec)


def test_box_bounds_one_lp_set_per_ray(monkeypatch):
    calls = []
    monkeypatch.setattr(linalg, "simplex_max", lambda *a: calls.append(a) or SIMPLEX_MAX(*a))
    for system in (S14, sp.system_case_1_6(4, 4, 1, 1)):
        d1, d2 = system.designated
        targets = [tuple(m * (a + 2 * b) for a, b in zip(d1, d2)) for m in (1, 2, 3)]
        lat = sg.SigmaLattice(system)
        calls.clear()
        got = [lat.box_bounds(e_vec) for e_vec in targets]
        assert len(calls) == lat.k
        assert got == [direct_box_bounds(system, e_vec) for e_vec in targets]


def test_box_bounds_recession_raises_every_call(monkeypatch):
    # sigma_3 = -(D1 + D2 + D3) never leaves {M^t c <= E}: a recession direction.
    bad = dataclasses.replace(AX, sigma_in_colors=((-1, 1, 1), (1, -1, 1), (-1, -1, -1)))
    lat = sg.SigmaLattice(bad)
    calls = []
    monkeypatch.setattr(linalg, "simplex_max", lambda *a: calls.append(a) or SIMPLEX_MAX(*a))
    for e_vec in ((1, 1, 1), (1, 1, 1), (2, 2, 2), (0, 0, 0)):
        before = len(calls)
        with pytest.raises(ValueError, match="recession direction"):
            lat.box_bounds(e_vec)
        assert len(calls) > before


BAD_INPUT_SETUP = ("from korbits import linalg, semigroup as sg, spherical as sp\n"
                   "S = sp.system_case_1_4(4)\n")
BAD_INPUTS = [
    ("sg.lattice(S).nsigma_coords((2, 2, 0, 0, 7))", "expected a vector of 4"),
    ("sg.lattice(S).box_bounds((2, 2))", "expected a vector of 4"),
    ("sg.is_minuscule(S, (2, 2, 0, 0, 7))", "expected a vector of 4"),
    ("sg.is_minuscule(S, (2, 2))", "expected a vector of 4"),
    ("sg.leq_sigma(S, (0, 0, 0, 0, 7), (2, 2, 0, 0))", "zip"),
    ("sg.is_minuscule(S, (1, 0, 0, -1))", "N-Delta"),
    ("sg.lattice(S).enumerate_sub((2, 2, 0, -1))", "N-Delta"),
    ("linalg.simplex_max([[1]], [-1], [1])", "b >= 0"),
]


@pytest.mark.parametrize("expr, message", BAD_INPUTS)
def test_bad_semigroup_inputs_raise(expr, message):
    names = {}
    exec(BAD_INPUT_SETUP, names)
    with pytest.raises(ValueError, match=message):
        eval(expr, names)


def test_bad_semigroup_inputs_raise_without_asserts():
    """The same checks hold under `python -O`, which strips assert statements."""
    script = BAD_INPUT_SETUP + (
        "import re\n"
        "if __debug__:\n"
        "    raise SystemExit('asserts are on')\n"
        f"for expr, message in {BAD_INPUTS!r}:\n"
        "    try:\n"
        "        eval(expr)\n"
        "    except ValueError as exc:\n"
        "        if re.search(message, str(exc)):\n"
        "            continue\n"
        "    raise SystemExit(f'{expr} did not raise ValueError({message!r})')\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sg.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
