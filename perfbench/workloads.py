"""Workload inputs, items and output oracles.

`build` runs inside a fresh interpreter (see child.py).  It generates the
inputs of one batch from the seed and returns the items: zero-argument
callables that do one unit of user-visible work and return whether its
output passed the oracle.  Items call korbits through module attributes
(`orbits.build_triple`, `cg.product_contains`, ...), so wrappers the tracer
installs after set-up see every call.

With `corrupt` set, each workload checks against a deliberately wrong
expected value; the benchmark self-check uses it to prove that a wrong
output is counted as a failure.
"""

from __future__ import annotations

import functools
import hashlib
import os
from dataclasses import dataclass
from typing import Callable

REPORT_ALL_SHA256 = "82321344592a3466aa7af541c10c963afde0babea13b781456770f97d54c5439"

# Size parameters.  "full" is what the benchmark measures; "tiny" is the
# self-check mode, small enough to run every workload in a few seconds.
SIZES = {
    "orbit-sweep": {
        # Ambient rank bound of the acceptance sweep, and one sampled orbit
        # per `step` orbits of each pair (at least one per pair).
        "full": {"max_rank": 8, "step": 12},
        "tiny": {"max_rank": 3, "step": 4},
    },
    "semigroup-suite": {
        # Queries come in blocks with the same mix of systems, so every
        # block costs about the same and the item percentiles stay put.
        "full": {"max_p": 7, "max_rs": 3, "cover_bound": 3, "query_blocks": 100,
                 "leq_per_system": 5, "minuscule_per_system": 3},
        "tiny": {"max_p": 4, "max_rs": 1, "cover_bound": 2, "query_blocks": 4,
                 "leq_per_system": 1, "minuscule_per_system": 1},
    },
    "cg-sweep": {
        "full": {"max_entry": 4},
        "tiny": {"max_entry": 2},
    },
    "report-all": {
        # The CLI input is fixed; there is nothing to shrink.
        "full": {"argv": ["report-all"]},
        "tiny": {"argv": ["report-all"]},
    },
}

# What one item is, per workload (printed with the results).
ITEM = {
    "orbit-sweep": "one orbit: build_triple, verify_triple, jordan_type, "
                   "centralizer_dim, adh_grading, p_height, is_spherical, "
                   "bicone_witness and the oracles",
    "semigroup-suite": "one normality check, one Hilbert basis against its closed "
                       "form, one covering-difference set, or one block of "
                       "leq_sigma and is_minuscule queries",
    "cg-sweep": "one (m, n) pair: verify_gamma_product plus the degenerate-pair scan",
    "report-all": "one `korbits report-all` invocation, hashed",
}

# Whether the seed changes the workload's inputs.
SEEDED = {"orbit-sweep": True, "semigroup-suite": True, "cg-sweep": True,
          "report-all": False}


@dataclass
class Batch:
    params: dict              # size parameters, as printed in the header
    items: list               # [(label, fn)]; fn() runs one item, True if verified
    counters: Callable        # work counters, computed after the timed loop


def build(workload, rng, size, corrupt, out_dir):
    params = dict(SIZES[workload][size])
    return _BUILDERS[workload](rng, params, corrupt, out_dir)


# ---------------------------------------------------------------------------
# orbit-sweep

def sweep_pairs(max_rank):
    """The acceptance test's pair list up to `max_rank`: every A pair, the
    B and C pair of each rank, and the D pairs of p-index 1 and n."""
    from korbits.hermitian import enumerate_pairs
    pairs = []
    for n in range(1, max_rank + 1):
        pairs.extend(enumerate_pairs("A", n))
    for n in range(3, max_rank + 1):
        pairs.append(enumerate_pairs("B", n)[0])
    for n in range(2, max_rank + 1):
        pairs.append(enumerate_pairs("C", n)[0])
    for n in range(4, max_rank + 1):
        for spec in enumerate_pairs("D", n):
            if spec.p_index in (1, n):   # alpha_{n-1} duplicates alpha_n
                pairs.append(spec)
    return pairs


def _orbit_sample(rng, max_rank, step):
    """Stratified systematic sample: from each pair's orbit list (ordered by
    case and parameters, which is what the cost follows), a fixed number of
    evenly spaced orbits from a seed-drawn offset.  Every seed gets the same
    count per pair, so loads stay comparable across seeds."""
    from korbits import orbits
    records = []
    for pair in sweep_pairs(max_rank):
        recs = orbits.list_orbits(pair)
        n = max(1, round(len(recs) / step))
        width = len(recs) / n
        offset = rng.random() * width
        records.extend(recs[int(offset + j * width)] for j in range(n))
    return records


def _orbit_item(rec, height_shift):
    from korbits import orbits
    triple = orbits.build_triple(rec)
    checks = orbits.verify_triple(triple)
    jordan = orbits.jordan_type(triple.e)
    dim_ke, _ = orbits.centralizer_dim(triple)
    grading = orbits.adh_grading(triple)
    height = orbits.p_height(triple)
    spherical = orbits.is_spherical(triple)
    orbits.bicone_witness(triple)
    dim_l, dim_le, deficit = orbits.expected_dims(rec)
    dim_qu = sum(d for lam, d in grading.items() if lam > 0)
    return (all(checks.values())
            and jordan == orbits.partition_from_signed(rec)
            and spherical
            and height == orbits.expected_p_height(rec) + height_shift
            and grading.get(0) == dim_l
            and dim_ke == dim_le + dim_qu - deficit)


def _orbit_sweep(rng, params, corrupt, out_dir):
    from korbits import orbits
    records = _orbit_sample(rng, params["max_rank"], params["step"])
    shift = 1 if corrupt else 0
    items = [(rec.orbit_id(), functools.partial(_orbit_item, rec, shift))
             for rec in records]
    params["orbits"] = len(records)

    def finish():
        by_dim, kp = {}, 0
        for rec in records:
            real = orbits._REALIZATIONS[rec.pair]
            by_dim[real.dim] = by_dim.get(real.dim, 0) + 1
            kp += len(real.k_basis) * len(real.p_basis)
        return {"orbits_by_ambient_dim": {str(d): by_dim[d] for d in sorted(by_dim)},
                "kp_basis_product_sum": kp,
                "realizations": len(orbits._REALIZATIONS)}

    return Batch(params, items, finish)


# ---------------------------------------------------------------------------
# semigroup-suite

def _two_wing_params(max_rs):
    """(case, params) of the two-wing systems with r + s <= max_rs, in the
    generic (p = q) and boundary (one side one smaller) regimes."""
    out = []
    for r in range(0, max_rs + 1):
        for s in range(0, max_rs + 1 - r):
            for case in ("1.6", "1.7"):
                first = r + s + 2
                for regime in ("generic", "boundary"):
                    other = r + s + 2 if regime == "generic" else r + s + 1
                    p, q = (first, other) if case == "1.6" else (other, first)
                    out.append((case, dict(p=p, q=q, r=r, s=s)))
    return out


def _normality_item(system, expected):
    from korbits import semigroup
    return semigroup.normality_check(system)["normal"] == expected


def _hilbert_item(case, params, degree, drop):
    from korbits import semigroup
    system = semigroup.build_case_system(case, params)
    enum = semigroup.gamma_semigroup(system, degree)
    closed = semigroup.closed_form_generators(case, params)
    expected = sorted(g.key() for g in closed)[drop:]
    return sorted(g.key() for g in enum) == expected


def _cover_item(system, bound, height):
    from korbits import semigroup
    covers = semigroup.covering_differences(system, bound)
    lat = semigroup.lattice(system)
    return bool(covers) and all(
        sum(semigroup.positive_part_height(lat.colors_of(c))[0]) == height
        for c in covers)


def _query_item(leq, minuscule, true_answers):
    """One block of `leq_sigma(system, d, e)` and `is_minuscule(system, e)`
    queries; counts the true answers."""
    from korbits import semigroup
    answers = [semigroup.leq_sigma(system, d, e) for system, d, e in leq]
    true_answers[0] += sum(a is True for a in answers)
    minimal = [semigroup.is_minuscule(system, e) for system, e in minuscule]
    true_answers[1] += sum(a is True for a in minimal)
    return all(isinstance(a, bool) for a in answers + minimal)


def _semigroup_suite(rng, params, corrupt, out_dir):
    from korbits import semigroup, spherical
    max_p, max_rs = params["max_p"], params["max_rs"]
    items = []

    # Normality of every encoded system with designated colors.
    systems = [spherical.system_ax111()]
    for p in range(4, max_p + 1):
        systems.append(spherical.system_case_1_4(p))
        systems.append(spherical.system_case_1_5(p))
    systems.extend(semigroup.build_case_system(case, prm)
                   for case, prm in _two_wing_params(max_rs))
    for system in systems:
        if system.designated is not None:
            items.append((f"normality/{system.name}",
                          functools.partial(_normality_item, system, not corrupt)))

    # Two-wing Hilbert bases against their closed forms, truncated at the
    # degree r + s + 2 that holds every closed-form generator.
    for case, prm in _two_wing_params(max_rs):
        degree = prm["r"] + prm["s"] + 2
        items.append((f"hilbert/{case}/{prm}",
                      functools.partial(_hilbert_item, case, prm, degree,
                                        1 if corrupt else 0)))

    # Covering differences, whose positive parts have height 2.
    covers = [spherical.system_case_1_4(5), spherical.system_case_1_4(4)]
    for r, s in ((1, 0), (0, 1), (1, 1)):
        covers.append(spherical.system_case_1_6(r + s + 2, r + s + 2, r, s))
        covers.append(spherical.system_case_1_6(r + s + 2, r + s + 1, r, s))
    for system in covers:
        items.append((f"covering/{system.name}",
                      functools.partial(_cover_item, system, params["cover_bound"],
                                        3 if corrupt else 2)))

    # Blocks of seed-drawn order queries on fixed systems, as in the
    # acceptance oracle test: vectors in 0..2 for leq_sigma, 0..3 for
    # is_minuscule.
    leq_systems = [spherical.system_ax111(), spherical.system_case_1_4(5),
                   spherical.system_case_1_6(4, 4, 1, 1),
                   spherical.system_case_1_7(3, 4, 1, 0)]
    min_systems = [spherical.system_ax111(), spherical.system_case_1_4(4),
                   spherical.system_case_1_5(5)]

    def vec(system, top):
        return tuple(rng.randint(0, top) for _ in system.colors)

    true_answers = [0, 0]
    for b in range(params["query_blocks"]):
        leq = [(system, vec(system, 2), vec(system, 2)) for system in leq_systems
               for _ in range(params["leq_per_system"])]
        minuscule = [(system, vec(system, 3)) for system in min_systems
                     for _ in range(params["minuscule_per_system"])]
        items.append((f"queries/{b}",
                      functools.partial(_query_item, leq, minuscule, true_answers)))
    params["items"] = len(items)

    def finish():
        blocks = params["query_blocks"]
        return {"normality_systems": sum(1 for s in systems if s.designated is not None),
                "hilbert_cases": len(_two_wing_params(max_rs)),
                "covering_systems": len(covers),
                "leq_queries": blocks * params["leq_per_system"] * len(leq_systems),
                "leq_true": true_answers[0],
                "minuscule_queries": blocks * params["minuscule_per_system"] * len(min_systems),
                "minuscule_true": true_answers[1],
                "lattices": len(semigroup._LATTICES)}

    return Batch(params, items, finish)


# ---------------------------------------------------------------------------
# cg-sweep

REMARK_PAIR = ((1, 1, 2), (1, 1, 2))
REMARK_DEGENERATE = (2, 2, 2)


def _cg_item(m, n, must_miss, found):
    """Gamma(m) . Gamma(n) = Gamma(m + n), and the scan of `cg-verify` for
    components k, componentwise in T, that the single product misses."""
    from korbits import cg
    ok = cg.verify_gamma_product(m, n)["ok"]
    degenerate = []
    for k in cg.gamma_module(m + n):
        comp_t = all(cg.in_tensor_semigroup((a, b, c)) for a, b, c in
                     zip(m.entries(), n.entries(), k.entries()))
        if comp_t and not cg.product_contains(k, m, n):
            degenerate.append(k.entries())
    found[0] += len(degenerate)
    if must_miss is not None:
        ok = ok and must_miss in degenerate
    return ok


def _cg_sweep(rng, params, corrupt, out_dir):
    from korbits import cg
    top = params["max_entry"]
    triples = [cg.TTriple(a, b, c)
               for a in range(top + 1) for b in range(top + 1) for c in range(top + 1)
               if cg.in_tensor_semigroup((a, b, c))]
    pairs = [(m, n) for m in triples for n in triples]
    rng.shuffle(pairs)
    # The remark's degenerate pair; corrupted, it expects m + n itself.
    must_miss = (2, 2, 4) if corrupt else REMARK_DEGENERATE
    found = [0]
    items = [(f"{m.entries()}x{n.entries()}",
              functools.partial(_cg_item, m, n,
                                must_miss if (m.entries(), n.entries()) == REMARK_PAIR
                                else None, found))
             for m, n in pairs]
    params["triples"] = len(triples)
    params["pairs"] = len(pairs)

    def finish():
        return {"degenerate": found[0],
                "product_cache_keys": len(cg._PRODUCT_CACHE),
                "projection_cache_keys": len(cg._PROJ_CACHE)}

    return Batch(params, items, finish)


# ---------------------------------------------------------------------------
# report-all

def _report_item(argv, path, expected, seen):
    from korbits import cli
    status = cli.main(argv + ["--out", path])
    with open(path, "rb") as fh:
        data = fh.read()
    seen["report_bytes"] = len(data)
    seen["report_sha256"] = hashlib.sha256(data).hexdigest()
    return status == 0 and seen["report_sha256"] == expected


def _report_all(rng, params, corrupt, out_dir):
    path = os.path.join(out_dir, f"report-all-{os.getpid()}.json")
    expected = REPORT_ALL_SHA256[::-1] if corrupt else REPORT_ALL_SHA256
    seen = {}
    items = [("report-all", functools.partial(_report_item, list(params["argv"]),
                                              path, expected, seen))]

    def finish():
        if os.path.exists(path):
            os.remove(path)
        return dict(seen)

    return Batch(params, items, finish)


_BUILDERS = {
    "orbit-sweep": _orbit_sweep,
    "semigroup-suite": _semigroup_suite,
    "cg-sweep": _cg_sweep,
    "report-all": _report_all,
}
