"""Batch CLI producing deterministic JSON reports, and TSV tables for the
commands that have one (pairs, orbits, semigroup).

Identical invocations produce byte-identical files: all data is emitted in
canonical order with sorted keys and no timestamps; run metadata (tool
version, command, parameters) lives in a separate header object.

Exit codes: 0 all checks pass, 1 a verification failed, 2 usage error
(including a --max-degree below the degree of a case's closed forms, a
bound whose estimated work exceeds the command's budget, an integer too
large for an index and an --out that cannot be written).
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import Decimal

from . import __version__, cg, orbits, semigroup
from .hermitian import enumerate_pairs, p_module_weights, parse_pair_key
from .semigroup import (build_case_system, closed_form_generators,
                        covering_differences, gamma_semigroup,
                        gamma_sigma_semigroup, normality_check)


def _report(command, params, data):
    return {"meta": {"tool": "korbits", "version": __version__,
                     "command": command, "params": params},
            "data": data}


def _emit(report, out, fmt="json", tsv_rows=()):
    """Write the report as JSON, or its TSV table where the command has one."""
    if fmt == "tsv":
        text = "\n".join("\t".join(str(x) for x in row) for row in tsv_rows) + "\n"
    else:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_pairs(args):
    pairs = enumerate_pairs(args.type, args.rank)
    rows = []
    for spec in pairs:
        (w1, c1), (w2, c2) = p_module_weights(spec)
        rows.append({
            "key": spec.key(),
            "family": spec.family_id,
            "k_levi_types": [[t, r] for t, r in spec.k_levi_types],
            "m": spec.m,
            "p1_weight": list(w1.coords), "p1_charge": c1,
            "p2_weight": list(w2.coords), "p2_charge": c2,
        })
    tsv = [["key", "family", "m", "p1_weight", "p2_weight"]] + [
        [r["key"], r["family"], r["m"], r["p1_weight"], r["p2_weight"]] for r in rows]
    _emit(_report("pairs", {"type": args.type, "rank": args.rank}, rows),
          args.out, args.format, tsv)
    return 0


def _orbit_rows(pair, max_params=None):
    """(rows, ok): the verified report row of every catalogued orbit of the pair."""
    checked = [orbits.verify_orbit(orbits.build_triple(rec))
               for rec in orbits.list_orbits(pair, max_params)]
    return [row for row, _ in checked], all(good for _, good in checked)


def _cmd_orbits(args):
    rows, ok = _orbit_rows(parse_pair_key(args.pair), args.max_params)
    tsv = [["orbit", "signed_partition", "ht_p", "codim", "sl2_ok", "spherical"]] + [
        [r["orbit"],
         "".join(f"({sg}{a}^{m})" for a, sg, m in r["signed_partition"]),
         r["ht_p"], "-", r["sl2_ok"], r["spherical"]] for r in rows]
    _emit(_report("orbits", {"pair": args.pair, "max_params": args.max_params},
                  {"rows": rows, "all_ok": ok}), args.out, args.format, tsv)
    return 0 if ok else 1


def _cmd_triple(args):
    rec = orbits.parse_orbit_id(args.orbit)
    triple = orbits.build_triple(rec)
    data = orbits.triple_to_json(triple)
    data["checks"] = orbits.verify_triple(triple)
    _emit(_report("triple", {"orbit": args.orbit}, data), args.out)
    return 0 if all(data["checks"].values()) else 1


def _case_params(args):
    return {name: getattr(args, name) for name in "pqrs" if getattr(args, name) is not None}


def _closed_forms(case, params, max_degree):
    """The case's closed-form generators; ValueError if max_degree is below
    their top degree, where the truncated enumeration could not match."""
    closed = closed_form_generators(case, params)
    need = max(g.n1 + g.n2 for g in closed)
    if max_degree < need:
        shown = ", ".join(f"{k}={v}" for k, v in params.items())
        raise ValueError(f"the closed forms of case {case} ({shown}) reach degree "
                         f"{need}; --max-degree {max_degree} cuts them off, "
                         f"give --max-degree {need} or more")
    return closed


# gamma_semigroup enumerates a box of Sigma coordinates for each of at most
# (D + 1)^2 targets (n1, n2), and gamma_sigma_semigroup the box {0..D}^k, k
# the number of Sigma coordinates.  The targets' box bounds came to at most
# 2D/3 on every system measured, so (D + 1)^(k + 2) estimates the points
# either walks.  On a 2-core x86-64 host with CPython 3.11, estimates of
# 4.1 x 10^6, 1.0 x 10^7, 1.9 x 10^7 and 2.9 x 10^7 (1.4 --p 5 at degree 20,
# 1.6 --p 5 --q 5 --r 2 --s 1 at 5, 1.6 --p 4 --q 4 --r 1 --s 1 at 10,
# 1.4 --p 5 at 30) ran in 0.5, 4.6, 1.8 and 1.2 s; 4.0 x 10^7 (1.6 --p 5
# --q 5 --r 2 --s 1 at 6) took 13.2 s and 6.0 x 10^7 (1.6 --p 6 --q 5 --r 0
# --s 4 at 5, its closed forms' degree) 21.6 s.  The Gamma_sigma box walk
# dominates the two-wing cases.
_DEGREE_BUDGET = 3 * 10 ** 7


def _check_degree_work(systems, max_degree):
    """ValueError if the systems' Hilbert bases up to max_degree exceed the
    work budget; nothing is enumerated."""
    points = sum((max_degree + 1) ** (len(s.sigma_in_colors) + 2) for s in systems)
    if points > _DEGREE_BUDGET:
        raise ValueError(f"--max-degree {max_degree} means up to {Decimal(points):.1e} "
                         f"enumerated points, above the budget of "
                         f"{Decimal(_DEGREE_BUDGET):.0e}; give a smaller --max-degree or "
                         f"a case with fewer Sigma coordinates")


def _check_case(system, closed, max_degree):
    """(enum, match, normal): the system's generators up to max_degree,
    whether they are the closed forms, and the normality verdict."""
    enum = gamma_semigroup(system, max_degree)
    match = sorted(g.key() for g in enum) == sorted(g.key() for g in closed)
    return enum, match, normality_check(system)["normal"]


def _cmd_semigroup(args):
    params = _case_params(args)
    closed = _closed_forms(args.case, params, args.max_degree)
    system = build_case_system(args.case, params)
    _check_degree_work([system], args.max_degree)
    enum, match, normal = _check_case(system, closed, args.max_degree)
    lat = semigroup.lattice(system)
    d1, d2 = system.designated
    rows = []
    for g in enum:
        gamma = tuple(g.n1 * a + g.n2 * b - e for a, b, e in zip(d1, d2, g.E))
        rows.append({"n1": g.n1, "n2": g.n2, "E": list(g.E),
                     "sigma_coords": list(lat.nsigma_coords(gamma))})
    data = {
        "system_id": system.name,
        "system": system.to_json(),
        "designated": [list(d) for d in system.designated],
        "max_degree": args.max_degree,
        "generators": rows,
        "closed_form": [{"n1": g.n1, "n2": g.n2, "E": list(g.E)} for g in closed],
        "match": match,
        "normal": normal,
        "gamma_sigma_generators": [list(c) for c in gamma_sigma_semigroup(system, args.max_degree)],
    }
    tsv = [["case", "params", "n1", "n2", "E"]] + [
        [args.case, json.dumps(params, sort_keys=True), r["n1"], r["n2"], r["E"]]
        for r in rows]
    _emit(_report("semigroup", {"case": args.case, **params,
                                "max_degree": args.max_degree}, data),
          args.out, args.format, tsv)
    return 0 if match else 1


# covering_differences tests sum over c in {0..bound}^k of prod(c_i + 1) =
# ((bound + 1)(bound + 2) / 2)^k sub-boxes at most, k the number of Sigma
# coordinates.  On a 2-core x86-64 host with CPython 3.11, estimates of
# 10^7, 1.7 x 10^8 and 10^9 ran in 0.6 s, 2.1 s and 8-16 s; 10^11 was still
# running after 40 s.
_COVER_BUDGET = 10 ** 8


def _cmd_normality(args):
    params = _case_params(args)
    system = build_case_system(args.case, params)
    k = len(system.sigma_in_colors)
    boxes = ((args.bound + 1) * (args.bound + 2) // 2) ** k
    if args.bound >= 1 and boxes > _COVER_BUDGET:
        raise ValueError(f"--bound {args.bound} over the {k} Sigma coordinates of case "
                         f"{args.case} means up to {Decimal(boxes):.1e} sub-box tests, "
                         f"above the budget of {_COVER_BUDGET:.0e}; give a smaller --bound")
    res = normality_check(system)
    covers = covering_differences(system, args.bound)
    lat = semigroup.lattice(system)
    heights = sorted({sum(semigroup.positive_part_height(lat.colors_of(c))[0])
                      for c in covers})
    data = {"system": system.to_json(), "normal": res["normal"],
            "witnesses": {k: list(v) for k, v in res["witnesses"].items()},
            "covering_differences": [list(c) for c in covers],
            "covering_plus_heights": heights}
    _emit(_report("normality", {"case": args.case, **params, "bound": args.bound}, data),
          args.out)
    return 0 if res["normal"] else 1


# section_sweep scans Gamma(m + n), at most (N + 1)^3 k, for each of at most
# (N + 1)^6 pairs (m, n) with entries <= N.  On the same host, N = 4..7 (up to
# 1.3 x 10^8) ran in 0.2, 0.5, 1.1 and 2.4 s, and N = 8 (3.9 x 10^8) in 7.5 s.
_SWEEP_BUDGET = 2 * 10 ** 8


def _cmd_cg_verify(args):
    triples = (args.max_entry + 1) ** 9
    if triples > _SWEEP_BUDGET:
        raise ValueError(f"cg-verify {args.max_entry} means up to {Decimal(triples):.1e} "
                         f"triples (k, m, n), above the budget of {Decimal(_SWEEP_BUDGET):.0e}; "
                         f"give a smaller bound")
    data = cg.section_sweep(args.max_entry)
    _emit(_report("cg-verify", {"max_entry": args.max_entry}, data), args.out)
    return 0 if data["ok"] else 1


def _cmd_report_all(args):
    semigroup_cases = [(case, params, build_case_system(case, params),
                        _closed_forms(case, params, args.max_degree))
                       for case, params in (("1.4", {"p": 5}), ("1.5", {"q": 5}),
                                            ("1.6", {"p": 4, "q": 4, "r": 1, "s": 1}),
                                            ("1.7", {"p": 4, "q": 4, "r": 1, "s": 1}))]
    _check_degree_work([system for _, _, system, _ in semigroup_cases], args.max_degree)
    status = 0
    sections = {}
    for t, n in (("A", 4), ("B", 3), ("C", 2), ("D", 5)):
        for spec in enumerate_pairs(t, n):
            sections[f"orbits/{spec.key()}"], ok = _orbit_rows(spec)
            if not ok:
                status = 1
    for case, params, system, closed in semigroup_cases:
        enum, match, normal = _check_case(system, closed, args.max_degree)
        sections[f"semigroup/{case}"] = {
            "params": params, "match": match, "normal": normal,
            "generators": [[g.n1, g.n2, list(g.E)] for g in enum]}
        if not (match and normal):
            status = 1
    _emit(_report("report-all", {"max_degree": args.max_degree}, sections), args.out)
    return status


def _int_at_least(low):
    """argparse type: an int no smaller than low."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def build_parser():
    ap = argparse.ArgumentParser(prog="korbits",
                                 description="spherical nilpotent K-orbit toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, tsv=False):
        if tsv:   # only a command with a TSV table takes --format
            p.add_argument("--format", choices=("json", "tsv"), default="json")
        p.add_argument("--out", default=None)

    p = sub.add_parser("pairs", help="list Hermitian pairs of a type/rank")
    p.add_argument("type")
    p.add_argument("rank", type=int)
    common(p, tsv=True)
    p.set_defaults(func=_cmd_pairs)

    p = sub.add_parser("orbits", help="orbit sweep with verification columns")
    p.add_argument("pair")
    p.add_argument("--max-params", type=int, default=None)
    common(p, tsv=True)
    p.set_defaults(func=_cmd_orbits)

    p = sub.add_parser("triple", help="matrices of one orbit representative")
    p.add_argument("orbit")
    common(p)
    p.set_defaults(func=_cmd_triple)

    def case_args(p, tsv=False):
        p.add_argument("case")
        for name in ("p", "q", "r", "s"):
            p.add_argument(f"--{name}", type=int, default=None)
        common(p, tsv)

    p = sub.add_parser("semigroup", help="weight-semigroup generators of a case")
    case_args(p, tsv=True)
    p.add_argument("--max-degree", type=_int_at_least(1), default=4)
    p.set_defaults(func=_cmd_semigroup)

    p = sub.add_parser("normality", help="minuscule test of the designated colors")
    case_args(p)
    p.add_argument("--bound", type=int, default=3)
    p.set_defaults(func=_cmd_normality)

    p = sub.add_parser("cg-verify", help="section-multiplication sweep for SL(2)^3")
    p.add_argument("max_entry", type=_int_at_least(0))
    common(p)
    p.set_defaults(func=_cmd_cg_verify)

    p = sub.add_parser("report-all", help="run every verification suite at small size")
    p.add_argument("--max-degree", type=_int_at_least(1), default=4)
    common(p)
    p.set_defaults(func=_cmd_report_all)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
