"""Luna spherical systems: data model plus the systems the toolkit encodes.

A system stores the ambient root system, the subset S^p, the ordered
spherical roots (in simple-root coordinates), the ordered colors, and the
embedding Z-Sigma -> Z-Delta as one integer row per spherical root.  The
designated pair (D_p1, D_p2), when present, consists of N-Delta elements
(possibly sums of two colors in the degenerate wings).

Encoded systems:

* a^x(1,1,1) for SL(2)^3 (the localization of the q=2 / p=2 cases);
* the five-color systems of the +-3^2 cases, for SL(p+2) and SL(2+q);
* the two-wing systems of the (+3, 2^r, -2^s, ...) cases and their mirrors,
  in both the generic and the tau-less boundary regime, including the
  degenerate wings r = 0 / s = 0 and the end-color identification at the
  minimal first parameter.

Row data for the two-wing systems is reconstructed from the coefficient
identities of the generator construction (the gamma^k_i and gamma_{i,j}
sums), which pin every row uniquely; the reconstruction is cross-checked in
the test suite against the full set of coefficient identities.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace

from . import linalg
from .rootlat import SIMPLE_ROOTS, LatticeVector, RootSystem


@dataclass(frozen=True)
class SphericalSystem:
    name: str
    ambient: RootSystem
    s_p: tuple                 # global simple-root indices (0-based)
    sigma_names: tuple
    sigma: tuple               # LatticeVector per spherical root
    colors: tuple              # color names
    sigma_in_colors: tuple     # one integer row per spherical root
    designated: tuple = None   # ((vec or None), (vec or None)) over colors

    def __post_init__(self):
        assert len(self.sigma) == len(self.sigma_names) == len(self.sigma_in_colors)
        for row in self.sigma_in_colors:
            assert len(row) == len(self.colors)
        if self.sigma_in_colors and linalg.rank(
                [list(r) for r in self.sigma_in_colors]) != len(self.sigma):
            raise ValueError("spherical roots are not independent in Z-Delta")

    def color_index(self, name):
        return self.colors.index(name)

    def unit_color(self, name):
        v = [0] * len(self.colors)
        v[self.color_index(name)] = 1
        return tuple(v)

    def with_designated(self, d1, d2):
        return replace(self, designated=(d1, d2))

    def to_json(self):
        return {
            "name": self.name,
            "ambient": [[t, r] for t, r in self.ambient.components],
            "s_p": list(self.s_p),
            "sigma_names": list(self.sigma_names),
            "sigma": [list(v.coords) for v in self.sigma],
            "colors": list(self.colors),
            "sigma_in_colors": [list(r) for r in self.sigma_in_colors],
            "designated": None if self.designated is None else
                [None if d is None else list(d) for d in self.designated],
        }


def system_ax111():
    """The rank-3 system on SL(2)^3 with sigma_i = alpha^(i)."""
    ambient = RootSystem((("A", 1), ("A", 1), ("A", 1)))
    sigma = tuple(LatticeVector(SIMPLE_ROOTS, tuple(1 if j == i else 0 for j in range(3)))
                  for i in range(3))
    rows = ((-1, 1, 1), (1, -1, 1), (1, 1, -1))
    sys_ = SphericalSystem("ax111", ambient, (), ("s1", "s2", "s3"), sigma,
                           ("D1", "D2", "D3"), rows)
    return sys_.with_designated(sys_.unit_color("D1"), sys_.unit_color("D2"))


def _five_color_system(name, ambient, chain_comp, wing_comp, chain_rank):
    """Common core of the +-3^2 systems: colors D1..D5 (D4 = D5 if the
    chain has rank 3).  chain_comp indexes the long A-factor, wing_comp the
    A1 factor; chain_rank = p - 1."""
    merged = chain_rank == 3
    colors = ("D1", "D2", "D3", "D4") if merged else ("D1", "D2", "D3", "D4", "D5")

    def row(entries):
        v = [0] * len(colors)
        for name_, c in entries:
            v[colors.index("D4" if merged and name_ == "D5" else name_)] += c
        return tuple(v)

    rows = (row([("D1", 1), ("D2", 1), ("D3", -1)]),
            row([("D1", -1), ("D2", 1), ("D3", 1), ("D5", -1)]),
            row([("D1", 1), ("D2", -1), ("D3", 1), ("D4", -1)]))
    rs = RootSystem(ambient)
    sigma = (rs.simple_root(wing_comp, 1),
             rs.simple_root(chain_comp, 1),
             rs.simple_root(chain_comp, chain_rank))
    off = rs.offsets()[chain_comp]
    s_p = tuple(off + j - 1 for j in range(3, chain_rank - 1))
    sys_ = SphericalSystem(name, rs, s_p, ("s1", "s2", "s3"), sigma, colors, rows)
    return sys_.with_designated(sys_.unit_color("D1"), sys_.unit_color("D2"))


def system_case_1_4(p):
    """System of the (+3^2, +1^(p-4)) orbit of SL(p+2); needs p >= 4."""
    if p < 4:
        raise ValueError("case with two +3 parts needs p >= 4")
    return _five_color_system("case1.4", (("A", p - 1), ("A", 1)), 0, 1, p - 1)


def system_case_1_5(q):
    """Mirror system (-3^2, -1^(q-4)) for SL(2+q); needs q >= 4."""
    if q < 4:
        raise ValueError("case with two -3 parts needs q >= 4")
    return _five_color_system("case1.5", (("A", 1), ("A", q - 1)), 1, 0, q - 1)


class TwoWingSystem:
    """Structured view of a two-wing system (the +-3 single-part cases).

    Wing k in {1, 2} has r_k pairs of spherical roots s^k_1..s^k_{2 r_k} and
    a color chain D^k_1..D^k_{2 r_k + 3} (one shorter in the boundary
    regime, where additionally D^1_{2r+3} and D^2_{2s+3} cross over to the
    opposite wing).  tilde(k, h) implements the hat-combinations used by the
    closed-form generator families.
    """

    def __init__(self, case_id, p, q, r, s):
        if case_id not in ("1.6", "1.7"):
            raise ValueError(f"not a two-wing case: {case_id}")
        self.case_id = case_id
        mirror = case_id == "1.7"
        if r < 0 or s < 0:
            raise ValueError("wing sizes must be nonnegative")
        if max(p, q) > sys.maxsize:   # the ambient rank p + q - 2 is an index
            raise OverflowError("p and q must fit an index-sized integer")
        # 1.7 is 1.6 with p and q exchanged: a and b are 1.6's p and q.
        a, b = (q, p) if mirror else (p, q)
        if r + s + 2 > a or r + s + 1 > b:
            need = "r+s+1 <= p, r+s+2 <= q" if mirror else "r+s+2 <= p, r+s+1 <= q"
            raise ValueError(f"parameters out of range: need {need}")
        self.boundary = r + s == b - 1
        merge = a == r + s + 2
        self.p, self.q, self.r1, self.r2 = p, q, r, s

        # Color slots (k, h); absent slots are dropped, the boundary regime
        # crosses the last slot over, and the minimal first parameter glues
        # the two end colors together.
        slots = []
        for k, rk in ((1, r), (2, s)):
            top = 2 * rk + (2 if self.boundary else 3)
            for h in range(1, top + 1):
                if rk == 0 and h == 1:
                    continue
                slots.append((k, h))
        alias = {}
        if merge:
            alias[(2, 2 * s + 2)] = (1, 2 * r + 2)
        if self.boundary:
            alias[(1, 2 * r + 3)] = (2, 2 * s + 1)
            alias[(2, 2 * s + 3)] = (1, 2 * r + 1)
        self.slots = [sl for sl in slots if sl not in alias]
        self.alias = alias
        self.index = {sl: i for i, sl in enumerate(self.slots)}
        self.system = self._build_system(mirror)

    def col(self, k, h):
        """Column index of D^k_h, or None when the slot does not exist."""
        sl = (k, h)
        sl = self.alias.get(sl, sl)
        return self.index.get(sl)

    def _vec(self, entries):
        v = [0] * len(self.slots)
        for k, h, c in entries:
            j = self.col(k, h)
            if j is not None:
                v[j] += c
        return tuple(v)

    def wing_rank(self, k):
        return self.r1 if k == 1 else self.r2

    def _rows(self):
        rows, names = [], []
        for k in (1, 2):
            rk = self.wing_rank(k)
            for i in range(1, rk + 1):
                odd = [(k, 2 * i - 2, -1), (k, 2 * i - 1, 1), (k, 2 * i, 1), (k, 2 * i + 1, -1)]
                if i == rk:
                    odd.append((k, 2 * i + 2, -1))
                even = [(k, 2 * i - 1, -1), (k, 2 * i, 1), (k, 2 * i + 1, 1)]
                even.append((k, 2 * i + 2, -1) if i < rk else (k, 2 * rk + 3, -1))
                rows.extend([self._vec(odd), self._vec(even)])
                names.extend([f"s{k}_{2 * i - 1}", f"s{k}_{2 * i}"])
        if not self.boundary:
            rows.append(self._vec([(1, 2 * self.r1 + 1, -1), (1, 2 * self.r1 + 3, 1),
                                   (2, 2 * self.r2 + 1, -1), (2, 2 * self.r2 + 3, 1)]))
            names.append("tau")
        return rows, names

    def _build_system(self, mirror):
        p, q, r, s = self.p, self.q, self.r1, self.r2
        comps = tuple(c for c in (("A", p - 1), ("A", q - 1)) if c[1] >= 1)
        rs = RootSystem(comps)
        a_off = 0 if p >= 2 else None
        ap_off = (p - 1 if p >= 2 else 0) if q >= 2 else None

        def a_root(j):
            return a_off + j - 1

        def ap_root(j):
            return ap_off + j - 1

        n_amb = rs.total_rank

        def simple(idx_list):
            v = [0] * n_amb
            for j in idx_list:
                v[j] += 1
            return LatticeVector(SIMPLE_ROOTS, tuple(v))

        # The wing roots sit at the two ends of both factors, odd and even
        # exchanged in 1.7; tau and S^p run along the middle of the factors,
        # tau along A(q-1) in 1.6 and along A(p-1) in 1.7.
        roots = {}
        wings = ([(1, i, a_root(p - i), ap_root(i)) for i in range(1, r + 1)]
                 + [(2, i, a_root(i), ap_root(q - i)) for i in range(1, s + 1)])
        for k, i, x, y in wings:
            if mirror:
                x, y = y, x
            roots[f"s{k}_{2 * i - 1}"], roots[f"s{k}_{2 * i}"] = simple([x]), simple([y])

        def along_a(pad):
            return [a_root(j) for j in range(s + pad, p - r - pad + 1)]

        def along_ap(pad):
            return [ap_root(j) for j in range(r + pad, q - s - pad + 1)]

        tau_run, other = (along_a, along_ap) if mirror else (along_ap, along_a)
        if not self.boundary:
            roots["tau"] = simple(tau_run(1))
        sp = other(2) + ([] if self.boundary else tau_run(2))

        rows, names = self._rows()
        colors = tuple(f"D{k}_{h}" for k, h in self.slots)
        sigma = tuple(roots[nm] for nm in names)
        sys_ = SphericalSystem(f"case{self.case_id}", rs, tuple(sorted(sp)),
                               tuple(names), sigma, colors, tuple(rows))
        return sys_.with_designated(
            self._vec([(1, 2, 1)] + ([(1, 3, 1)] if r == 0 else [])),
            self._vec([(2, 2, 1)] + ([(2, 3, 1)] if s == 0 else [])))

    def tilde(self, k, h):
        """hat-D^k_h as a color vector (absent colors contribute zero)."""
        rk = self.wing_rank(k)
        if h < 2 * rk + 1:
            return self._vec([(k, h, 1)])
        return self._vec([(k, h, 1), (k, h + 1, 1)])


def system_case_1_6(p, q, r, s):
    """Two-wing system of the (+3, +2^r, -2^s, ...) orbits of SL(p+q)."""
    return TwoWingSystem("1.6", p, q, r, s).system


def system_case_1_7(p, q, r, s):
    """Mirror two-wing system of the (-3, +2^r, -2^s, ...) orbits."""
    return TwoWingSystem("1.7", p, q, r, s).system
