"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime.  Shared sweeps are computed once per session."""

import itertools
import random
import time

import pytest

from korbits import cg
from korbits import orbits as ob
from korbits import semigroup as sg
from korbits import spherical as sp
from korbits.hermitian import enumerate_pairs

MAX_RANK = 8


def _sweep_pairs():
    pairs = []
    for n in range(1, MAX_RANK + 1):
        pairs.extend(enumerate_pairs("A", n))
    for n in range(3, MAX_RANK + 1):
        pairs.append(enumerate_pairs("B", n)[0])
    for n in range(2, MAX_RANK + 1):
        pairs.append(enumerate_pairs("C", n)[0])
    for n in range(4, MAX_RANK + 1):
        for spec in enumerate_pairs("D", n):
            if spec.p_index in (1, n):   # alpha_{n-1} duplicates alpha_n
                pairs.append(spec)
    return pairs


@pytest.fixture(scope="module")
def orbit_sweep():
    t0 = time.time()
    out = []
    for pair in _sweep_pairs():
        for rec in ob.list_orbits(pair):
            out.append((rec, ob.build_triple(rec)))
    elapsed = time.time() - t0
    print(f"\n[sweep] {len(out)} orbits over rank <= {MAX_RANK} built in {elapsed:.1f}s")
    assert len(out) >= 300   # "several hundred"
    return out


def _report(name, elapsed, budget=None):
    line = f"PASS {name}: {elapsed:.1f}s"
    if budget is not None:
        line += f" (budget {budget}s)"
        assert elapsed < budget, f"{name} exceeded its runtime budget"
    print(line)


@pytest.fixture(scope="module")
def orbit_rows(orbit_sweep):
    """`verify_orbit` over the sweep, once: its (row, verdict) pairs and
    the seconds they took."""
    t0 = time.time()
    rows = [ob.verify_orbit(triple) for _rec, triple in orbit_sweep]
    return rows, time.time() - t0


def test_criterion_1_sl2_triples(orbit_rows):
    t0 = time.time()
    for row, _ok in orbit_rows[0]:
        assert row["sl2_ok"], row
    _report("criterion 1 (sl2 triples, exact)", time.time() - t0, 30)


def test_criterion_2_sphericity(orbit_rows):
    rows, elapsed = orbit_rows
    for row, ok in rows:
        assert ok, row
    _report("criterion 2 (sphericity and every orbit invariant)", elapsed, 120)


def test_orbit_ids_roundtrip(orbit_sweep):
    for rec, _triple in orbit_sweep:
        assert ob.parse_orbit_id(rec.orbit_id()) == rec


def test_criterion_3_signed_partitions(orbit_rows):
    t0 = time.time()
    for row, _ok in orbit_rows[0]:
        assert row["jordan_ok"], row["orbit"]
    _report("criterion 3 (signed partitions)", time.time() - t0)


def _encoded_systems():
    systems = [sp.system_ax111()]
    for p in (4, 5, 6, 7):
        systems.append(sp.system_case_1_4(p))
        systems.append(sp.system_case_1_5(p))
    for r in range(0, 4):
        for s in range(0, 4 - r):
            for case in ("1.6", "1.7"):
                first = r + s + 2
                for regime in ("generic", "boundary"):
                    if case == "1.6":
                        p, q = first, (r + s + 2 if regime == "generic" else r + s + 1)
                    else:
                        q, p = first, (r + s + 2 if regime == "generic" else r + s + 1)
                    systems.append(sg.build_case_system(case, dict(p=p, q=q, r=r, s=s)))
    return systems


def test_criterion_4_normality():
    t0 = time.time()
    count = 0
    for system in _encoded_systems():
        if system.designated is None:
            continue
        res = sg.normality_check(system)
        assert res["normal"], (system.name, res)
        count += 1
    elapsed = time.time() - t0
    print(f"[normality] {count} systems")
    _report("criterion 4 (normality of all encoded systems)", elapsed, 10)


def test_criterion_5_case_14_semigroups():
    t0 = time.time()
    system = sp.system_case_1_4(5)
    gens = sg.gamma_semigroup(system, 3)
    u = system.unit_color
    assert {g.key() for g in gens} == {
        (1, 0, u("D1")), (0, 1, u("D2")), (1, 1, u("D3")),
        (2, 0, u("D4")), (0, 2, u("D5"))}
    assert sg.gamma_sigma_semigroup(system, 4) == [(1, 0, 0), (1, 0, 1), (1, 1, 0)]
    _report("criterion 5 (case with two +3 parts: generator families)", time.time() - t0)


def test_criterion_6_two_wing_semigroups():
    t0 = time.time()
    for r in range(0, 4):
        for s in range(0, 4 - r):
            for case in ("1.6", "1.7"):
                for regime in ("generic", "boundary"):
                    first = r + s + 2
                    if case == "1.6":
                        p, q = first, (r + s + 2 if regime == "generic" else r + s + 1)
                    else:
                        q, p = first, (r + s + 2 if regime == "generic" else r + s + 1)
                    params = dict(p=p, q=q, r=r, s=s)
                    system = sg.build_case_system(case, params)
                    enum = sg.gamma_semigroup(system, r + s + 2)
                    closed = sg.closed_form_generators(case, params)
                    assert sorted(g.key() for g in enum) == \
                        sorted(g.key() for g in closed), (case, params)
    _report("criterion 6 (two-wing Hilbert bases = closed forms)", time.time() - t0, 300)


def test_criterion_7_covering_difference_heights():
    t0 = time.time()
    targets = [sp.system_case_1_4(5), sp.system_case_1_4(4)]
    for (r, s) in ((1, 0), (0, 1), (1, 1)):
        targets.append(sp.system_case_1_6(r + s + 2, r + s + 2, r, s))
        targets.append(sp.system_case_1_6(r + s + 2, r + s + 1, r, s))
    for system in targets:
        covers = sg.covering_differences(system, 3)
        assert covers, system.name
        lat = sg.lattice(system)
        for c in covers:
            plus, _ = sg.positive_part_height(lat.colors_of(c))
            assert sum(plus) == 2, (system.name, c)
    _report("criterion 7 (covering differences have height-2 positive part)",
            time.time() - t0)


def test_criterion_8_section_multiplication():
    t0 = time.time()
    sweep = cg.section_sweep(4)
    assert sweep["ok"], sweep["failures"]
    # the degenerate pair of the remark, with its covering path
    assert [[2, 2, 2], [1, 1, 2], [1, 1, 2]] in sweep["degenerate"]
    k, m = cg.TTriple(2, 2, 2), cg.TTriple(1, 1, 2)
    assert not cg.product_contains(k, m, m)
    assert k in cg.gamma_module(cg.TTriple(2, 2, 4))
    assert cg.verify_gamma_product(m, m)["ok"]
    _report("criterion 8 (section multiplication, entries <= 4)", time.time() - t0, 300)


def _leq_oracle(combos, lat, d_vec, e_vec, box):
    """Whether e - d = colors_of(c) for some c in [0, box]^k, looked up in
    the set of all such values, which combos keeps per lattice and box."""
    if (lat, box) not in combos:
        combos[lat, box] = {lat.colors_of(c) for c in
                            itertools.product(range(box + 1), repeat=lat.k)}
    return tuple(b - a for a, b in zip(d_vec, e_vec)) in combos[lat, box]


def test_criterion_9_oracle_equivalences():
    t0 = time.time()
    rng = random.Random(2024)

    # leq_sigma vs direct combination search, 1000 vectors per system.
    combos = {}
    for system in (sp.system_ax111(), sp.system_case_1_4(5),
                   sp.system_case_1_6(4, 4, 1, 1), sp.system_case_1_7(3, 4, 1, 0)):
        lat = sg.lattice(system)
        ncol = len(system.colors)
        for _ in range(1000):
            d_vec = tuple(rng.randint(0, 2) for _ in range(ncol))
            e_vec = tuple(rng.randint(0, 2) for _ in range(ncol))
            got = sg.leq_sigma(system, d_vec, e_vec)
            box = 3
            if got:
                coords = lat.nsigma_coords(tuple(b - a for a, b in zip(d_vec, e_vec)))
                box = max(box, max(coords, default=0))
            assert got == _leq_oracle(combos, lat, d_vec, e_vec, box), (system.name, d_vec, e_vec)

    # is_minuscule vs F-box search on the systems where the scan is feasible.
    for system in (sp.system_ax111(), sp.system_case_1_4(4), sp.system_case_1_5(5)):
        lat = sg.lattice(system)
        ncol = len(system.colors)
        neg = [sum(max(-row[i], 0) for row in system.sigma_in_colors)
               for i in range(ncol)]
        for _ in range(1000):
            e_vec = tuple(rng.randint(0, 3) for _ in range(ncol))
            assert all(b <= 3 for b in lat.box_bounds(e_vec))
            tops = [e_vec[i] + 3 * neg[i] for i in range(ncol)]
            brute = False
            for f_vec in itertools.product(*(range(x + 1) for x in tops)):
                if f_vec != e_vec and lat.nsigma_coords(
                        tuple(a - b for a, b in zip(e_vec, f_vec))) is not None:
                    brute = True
                    break
            assert sg.is_minuscule(system, e_vec) == (not brute), (system.name, e_vec)

    # tensor-semigroup membership vs weight-multiplicity decomposition.
    for m in range(4):
        for n in range(4):
            weights = {}
            for a in range(m + 1):
                for b in range(n + 1):
                    w = (m - 2 * a) + (n - 2 * b)
                    weights[w] = weights.get(w, 0) + 1
            for k in range(m + n + 3):
                mult = weights.get(k, 0) - weights.get(k + 2, 0)
                assert cg.in_tensor_semigroup((m, n, k)) == (mult >= 1)

    _report("criterion 9 (oracle equivalences, zero discrepancies)", time.time() - t0)
