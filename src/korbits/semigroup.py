"""Order and semigroup machinery on (N-Delta, <=_Sigma).

Membership of a vector in N-Sigma is decided by one exact elimination per
system: the spherical-root rows are independent, so coordinates are unique,
and each query is a few integer dot products divided by the common pivot,
tested for integrality and nonnegativity.  Enumerations run over
sigma-coordinate boxes whose per-coordinate bounds come from an exact
rational simplex on the LP relaxation {c >= 0 : M^t c <= E}; the recession
cone of a genuine system is trivial, so the boxes are finite and the
enumeration is complete.  The LP optimum is positively homogeneous in E,
so each lattice solves one set of k LPs per primitive ray E / gcd(E) and
scales it exactly along the ray.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice, product

from . import linalg
from .spherical import TwoWingSystem, system_case_1_4, system_case_1_5


@dataclass(frozen=True)
class SemigroupTriple:
    n1: int
    n2: int
    E: tuple

    def key(self):
        return (self.n1, self.n2, self.E)


class SigmaLattice:
    """Exact coordinate solver for Z-Sigma inside Z-Delta, with enumeration."""

    def __init__(self, system):
        self.rows = [list(r) for r in system.sigma_in_colors]
        self.k = len(self.rows)
        self.ncol = len(system.colors)
        # Eliminate [A^T | I] once.  A row whose left part is d e_i gives the
        # i-th coordinate as (T-row . v) / d; a row whose left part vanishes
        # must annihilate every vector of Z-Sigma.
        aug = [[self.rows[j][i] for j in range(self.k)]
               + [1 if t == i else 0 for t in range(self.ncol)]
               for i in range(self.ncol)]
        red, pivots, self._den = linalg.echelon(aug)
        self._transform = [(c, row[self.k:]) for row, c in zip(red, pivots) if c < self.k]
        self._checks = [row[self.k:] for row, c in zip(red, pivots) if c >= self.k]
        self._lp_rows = [[self.rows[j][i] for j in range(self.k)] for i in range(self.ncol)]
        self._ray_optima = {}

    def _check_length(self, vec):
        if len(vec) != self.ncol:
            raise ValueError(f"expected a vector of {self.ncol} color coordinates, "
                             f"got {len(vec)}")

    def _check_target(self, E):
        self._check_length(E)
        if any(x < 0 for x in E):
            raise ValueError(f"E must be in N-Delta, got {tuple(E)}")

    def colors_of(self, c):
        """Color coordinates of sum_i c_i sigma_i."""
        return tuple(sum(c[j] * self.rows[j][i] for j in range(self.k))
                     for i in range(self.ncol))

    def nsigma_coords(self, vec):
        """Nonnegative integer sigma-coordinates, or None if not in N-Sigma."""
        self._check_length(vec)
        for trow in self._checks:
            if sum(t * v for t, v in zip(trow, vec) if v):
                return None
        out = [0] * self.k
        for lead, trow in self._transform:
            q, rem = divmod(sum(t * v for t, v in zip(trow, vec) if v), self._den)
            if rem or q < 0:
                return None
            out[lead] = q
        return tuple(out)

    def box_bounds(self, E):
        """floor(max c_i) over the LP relaxation, per coordinate.

        The optimum at g * ray is exactly g times the optimum at ray, so the
        k LPs run once per primitive ray E / gcd(E) and their Fraction optima
        are kept.  A recession direction depends only on the polyhedron, so
        a failing ray is never kept and every call on it raises.
        """
        self._check_target(E)
        g = math.gcd(*E) or 1
        ray = tuple(x // g for x in E)
        optima = self._ray_optima.get(ray)
        if optima is None:
            optima = []
            for i in range(self.k):
                obj = [1 if j == i else 0 for j in range(self.k)]
                status, val = linalg.simplex_max(self._lp_rows, list(ray), obj)
                if status != "optimal":
                    raise ValueError("N-Sigma has a recession direction; not a valid system")
                optima.append(val)
            self._ray_optima[ray] = optima
        return [int(g * v) for v in optima]

    def enumerate_sub(self, E):
        """All c in N^Sigma with E - colors(c) >= 0, by pruned DFS."""
        if self.k == 0:
            self._check_target(E)
            return [()]
        bounds = self.box_bounds(E)
        minsuffix = [[0] * self.ncol for _ in range(self.k + 1)]
        for t in range(self.k - 1, -1, -1):
            for d in range(self.ncol):
                drop = self.rows[t][d] * bounds[t] if self.rows[t][d] < 0 else 0
                minsuffix[t][d] = minsuffix[t + 1][d] + drop
        out = []
        partial = [0] * self.ncol
        c = [0] * self.k

        def rec(t):
            if t == self.k:
                out.append(tuple(c))
                return
            row = self.rows[t]
            for v in range(bounds[t] + 1):
                c[t] = v
                if v:
                    for d in range(self.ncol):
                        partial[d] += row[d]
                ok = all(partial[d] + minsuffix[t + 1][d] <= E[d] for d in range(self.ncol))
                if ok:
                    rec(t + 1)
            for d in range(self.ncol):
                partial[d] -= row[d] * bounds[t]
            c[t] = 0

        rec(0)
        return out


_LATTICES = {}


def lattice(system):
    if system not in _LATTICES:
        _LATTICES[system] = SigmaLattice(system)
    return _LATTICES[system]


def leq_sigma(system, d_vec, e_vec):
    """d <=_Sigma e iff e - d is a nonnegative integer N-Sigma combination."""
    diff = tuple(b - a for a, b in zip(d_vec, e_vec, strict=True))
    return lattice(system).nsigma_coords(diff) is not None


def positive_part_height(e_vec):
    """(positive part of e, height of e = sum of all coordinates)."""
    plus = tuple(x if x > 0 else 0 for x in e_vec)
    return plus, sum(e_vec)


def is_minuscule(system, e_vec):
    """No F in N-Delta with F <=_Sigma E and F != E."""
    return _dominated_witness(system, e_vec) is None


def _dominated_witness(system, e_vec):
    lat = lattice(system)
    for c in lat.enumerate_sub(e_vec):
        if any(c):
            return tuple(x - y for x, y in zip(e_vec, lat.colors_of(c)))
    return None


def covering_differences(system, bound):
    """All gamma in N-Sigma with coordinates <= bound covering some pair.

    (D, D + gamma) is a cover for the smallest valid D = max(0, -gamma),
    and shrinking D preserves both validity and the absence of intermediate
    elements, so testing the minimal D decides whether any witness exists.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    lat = lattice(system)
    k = lat.k
    if k == 0:
        return []
    boxes = {}

    def colors_cached(c):
        if c not in boxes:
            boxes[c] = lat.colors_of(c)
        return boxes[c]

    out = []
    for c in product(range(bound + 1), repeat=k):
        if not any(c):
            continue
        gamma = colors_cached(c)
        d0 = tuple(-x if x < 0 else 0 for x in gamma)
        cover = True
        for sub in product(*(range(x + 1) for x in c)):
            if not any(sub) or sub == c:
                continue
            mid = colors_cached(sub)
            if all(d0[i] + mid[i] >= 0 for i in range(len(d0))):
                cover = False
                break
        if cover:
            out.append(c)
    return sorted(out)


def _hilbert_reduce(members):
    """Drop every member that is a sum of two nonzero members.  Members have
    no negative coordinate, so in m = a + b one summand, say a, has sum(a)
    <= sum(m) // 2 (so a != m and b != 0), and m - a is a member only if a
    <= m.  Trying the nonzero candidates a up to that sum is exact."""
    mset = set(members)
    nonzero = sorted((a for a in mset if any(a)), key=sum)
    sums = [sum(a) for a in nonzero]
    gens = []
    for m in sorted(mset):
        if any(m) and not any(tuple(y - x for x, y in zip(a, m)) in mset
                              for a in islice(nonzero, bisect_right(sums, sum(m) // 2))):
            gens.append(m)
    return gens


def _designated(system):
    if system.designated is None:
        raise ValueError("system has no designated colors")
    d1, d2 = system.designated
    zero = tuple([0] * len(system.colors))
    return (d1 if d1 is not None else zero), (d2 if d2 is not None else zero)


def gamma_semigroup(system, max_degree=4):
    """Hilbert basis of {(n1, n2, E) : E <=_Sigma n1 Dp1 + n2 Dp2} truncated
    at n1 + n2 <= max_degree, by enumeration plus pairwise-sum reduction.

    Degrees add and there are no nonzero degree-0 members, so truncation is
    exact for all generators of degree <= max_degree.
    """
    d1, d2 = _designated(system)
    lat = lattice(system)
    members = []
    for n1 in range(max_degree + 1):
        for n2 in range(max_degree + 1 - n1):
            target = tuple(n1 * a + n2 * b for a, b in zip(d1, d2))
            for c in lat.enumerate_sub(target):
                e_vec = tuple(x - y for x, y in zip(target, lat.colors_of(c)))
                members.append((n1, n2) + e_vec)
    gens = _hilbert_reduce(members)
    return [SemigroupTriple(g[0], g[1], g[2:]) for g in sorted(gens)]


def gamma_sigma_semigroup(system, bound=4):
    """Hilbert basis of {gamma in N-Sigma : supp(gamma+) inside the
    designated support}, within the coordinate box."""
    d1, d2 = _designated(system)
    allowed = {i for i, x in enumerate(d1) if x} | {i for i, x in enumerate(d2) if x}
    lat = lattice(system)
    members = []
    for c in product(range(bound + 1), repeat=lat.k):
        gamma = lat.colors_of(c)
        if all(x <= 0 for i, x in enumerate(gamma) if i not in allowed):
            members.append(c)
    return sorted(_hilbert_reduce(members))


def normality_check(system):
    """Minuscule test of the designated elements; the normality criterion."""
    result = {"normal": True, "witnesses": {}}
    if system.designated is None:
        return result
    for label, d in zip(("Dp1", "Dp2"), system.designated):
        if d is None or not any(d):
            continue
        witness = _dominated_witness(system, d)
        if witness is not None:
            result["normal"] = False
            result["witnesses"][label] = witness
    return result


# ---------------------------------------------------------------------------
# Closed-form generator families

_CASE_PARAMS = {"1.4": ("p",), "1.5": ("q",),
                "1.6": ("p", "q", "r", "s"), "1.7": ("p", "q", "r", "s")}


def _case_args(case_id, params):
    """The case's parameters in order; ValueError names any missing or extra one."""
    if case_id not in _CASE_PARAMS:
        raise ValueError(f"no closed-form case {case_id!r}")
    names = _CASE_PARAMS[case_id]
    for verb, wrong in (("needs", [n for n in names if n not in params]),
                        ("takes no", [n for n in params if n not in names])):
        if wrong:
            raise ValueError(f"case {case_id} {verb} "
                             + ", ".join(f"--{n}" for n in wrong))
    return [params[name] for name in names]


def build_case_system(case_id, params):
    """Deterministic system for the cases with closed-form generators."""
    args = _case_args(case_id, params)
    if case_id == "1.4":
        return system_case_1_4(*args)
    if case_id == "1.5":
        return system_case_1_5(*args)
    return TwoWingSystem(case_id, *args).system


def closed_form_generators(case_id, params):
    """The closed-form generator families of the catalogued cases."""
    if case_id in ("1.4", "1.5"):
        sys_ = build_case_system(case_id, params)
        u = sys_.unit_color
        last = "D4" if len(sys_.colors) == 4 else "D5"
        gens = [SemigroupTriple(1, 0, u("D1")), SemigroupTriple(0, 1, u("D2")),
                SemigroupTriple(1, 1, u("D3")), SemigroupTriple(2, 0, u("D4")),
                SemigroupTriple(0, 2, u(last))]
        return sorted(gens, key=SemigroupTriple.key)
    tw = TwoWingSystem(case_id, *_case_args(case_id, params))
    gens = []
    for i in range(1, tw.r1 + 2):
        gens.append(SemigroupTriple(i, 0, tw.tilde(1, 2 * i)))
    for j in range(1, tw.r2 + 2):
        gens.append(SemigroupTriple(0, j, tw.tilde(2, 2 * j)))
    for i in range(1, tw.r1 + 2):
        for j in range(1, tw.r2 + 2):
            if tw.boundary and i + j >= tw.r1 + tw.r2 + 2:
                continue
            e_vec = tuple(a + b for a, b in zip(tw.tilde(1, 2 * i - 1), tw.tilde(2, 2 * j - 1)))
            gens.append(SemigroupTriple(i, j, e_vec))
    sys_ = tw.system
    lat = lattice(sys_)
    d1, d2 = _designated(sys_)
    for g in gens:
        target = tuple(g.n1 * a + g.n2 * b - e for a, b, e in zip(d1, d2, g.E))
        assert lat.nsigma_coords(target) is not None, (case_id, params, g)
    return sorted(gens, key=SemigroupTriple.key)

