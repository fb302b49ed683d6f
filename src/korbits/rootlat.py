"""Root-system and weight-lattice arithmetic for classical types A-D.

All public data lives in explicit lattice bases (simple roots, fundamental
weights, colors, spherical roots); euclidean epsilon-coordinates appear only
inside the cross-check oracles at the bottom of the module.

Cartan matrices follow Bourbaki numbering with entries
a_ij = <alpha_i, alpha_j^vee>, so row i expresses alpha_i in the basis of
fundamental weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import linalg

CLASSICAL_TYPES = ("A", "B", "C", "D")

SIMPLE_ROOTS = "SimpleRoots"
FUND_WEIGHTS = "FundWeights"
COLORS = "Colors"
SPHERICAL_ROOTS = "SphericalRoots"


@dataclass(frozen=True)
class LatticeVector:
    """Integer vector tagged with the basis it is written in."""

    basis: str
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))


def _validate(type_, rank):
    if type_ not in CLASSICAL_TYPES:
        raise ValueError(f"unsupported type {type_!r}: classical types A-D only")
    lo = {"A": 1, "B": 2, "C": 2, "D": 3}[type_]
    if rank < lo:
        raise ValueError(f"type {type_} needs rank >= {lo}, got {rank}")


def cartan_matrix(type_, rank):
    """Bourbaki Cartan matrix of an irreducible classical root system."""
    _validate(type_, rank)
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i in range(rank - 1):
        a[i][i + 1] = a[i + 1][i] = -1
    if type_ == "B" and rank >= 2:
        a[rank - 2][rank - 1] = -2
    elif type_ == "C" and rank >= 2:
        a[rank - 1][rank - 2] = -2
    elif type_ == "D":
        a[rank - 2][rank - 1] = a[rank - 1][rank - 2] = 0
        a[rank - 3][rank - 1] = a[rank - 1][rank - 3] = -1
    return a


def highest_root(type_, rank):
    """Highest root theta in the simple-root basis."""
    _validate(type_, rank)
    if type_ == "A":
        coeffs = [1] * rank
    elif type_ == "B":
        coeffs = [1] + [2] * (rank - 1)
    elif type_ == "C":
        coeffs = [2] * (rank - 1) + [1]
    else:
        coeffs = [1] + [2] * (rank - 3) + [1, 1]
    return LatticeVector(SIMPLE_ROOTS, tuple(coeffs))


def abelian_radical_roots(type_, rank):
    """1-based indices p with [theta : alpha_p] = 1."""
    theta = highest_root(type_, rank)
    return [i + 1 for i, c in enumerate(theta.coords) if c == 1]


@dataclass(frozen=True)
class RootSystem:
    """Product of irreducible classical components."""

    components: tuple

    def __post_init__(self):
        comps = tuple((t, int(r)) for t, r in self.components)
        for t, r in comps:
            _validate(t, r)
        object.__setattr__(self, "components", comps)

    @property
    def total_rank(self):
        return sum(r for _, r in self.components)

    def cartan(self):
        """Block-diagonal Cartan matrix; factors are mutually orthogonal."""
        n = self.total_rank
        a = [[0] * n for _ in range(n)]
        off = 0
        for t, r in self.components:
            block = cartan_matrix(t, r)
            for i in range(r):
                for j in range(r):
                    a[off + i][off + j] = block[i][j]
            off += r
        return a

    def offsets(self):
        out = []
        off = 0
        for _, r in self.components:
            out.append(off)
            off += r
        return out

    def simple_root(self, comp, i):
        """alpha_i (1-based) of component comp, as a SimpleRoots vector."""
        n = self.total_rank
        coords = [0] * n
        coords[self.offsets()[comp] + i - 1] = 1
        return LatticeVector(SIMPLE_ROOTS, tuple(coords))

    def to_fund_weights(self, v):
        """Rewrite a SimpleRoots vector in the fundamental-weight basis."""
        assert v.basis == SIMPLE_ROOTS
        a = self.cartan()
        n = self.total_rank
        coords = tuple(sum(v.coords[i] * a[i][j] for i in range(n)) for j in range(n))
        return LatticeVector(FUND_WEIGHTS, coords)

    def dual_weight(self, v):
        """Image of a dominant weight under -w0, componentwise."""
        assert v.basis == FUND_WEIGHTS
        out = []
        off = 0
        for t, r in self.components:
            chunk = list(v.coords[off:off + r])
            if t == "A":
                chunk.reverse()
            elif t == "D" and r % 2 == 1:
                chunk[r - 2], chunk[r - 1] = chunk[r - 1], chunk[r - 2]
            out.extend(chunk)
            off += r
        return LatticeVector(FUND_WEIGHTS, tuple(out))


# ---------------------------------------------------------------------------
# Euclidean realizations: internal oracles only.

def simple_roots_euclidean(type_, rank):
    _validate(type_, rank)
    dim = rank + 1 if type_ == "A" else rank

    def e(i):
        v = [Fraction(0)] * dim
        v[i] = Fraction(1)
        return v

    def minus(u, w):
        return [a - b for a, b in zip(u, w)]

    roots = [minus(e(i), e(i + 1)) for i in range(rank - 1)]
    if type_ == "A":
        roots.append(minus(e(rank - 1), e(rank)))
    elif type_ == "B":
        roots.append(e(rank - 1))
    elif type_ == "C":
        roots.append([2 * x for x in e(rank - 1)])
    else:
        roots.append([a + b for a, b in zip(e(rank - 2), e(rank - 1))])
    return roots


def _dot(u, w):
    return sum(a * b for a, b in zip(u, w))


def all_roots_euclidean(type_, rank):
    """Close the simple roots under simple reflections."""
    simples = simple_roots_euclidean(type_, rank)
    norms = [_dot(a, a) for a in simples]
    roots = {tuple(a) for a in simples}
    frontier = list(roots)
    while frontier:
        new = []
        for beta in frontier:
            for a, n2 in zip(simples, norms):
                c = 2 * _dot(beta, a) / n2
                img = tuple(x - c * y for x, y in zip(beta, a))
                if img not in roots:
                    roots.add(img)
                    new.append(img)
        frontier = new
    return [list(r) for r in roots]


def highest_root_euclidean(type_, rank):
    """Oracle: recompute theta by maximizing height over all roots."""
    simples = simple_roots_euclidean(type_, rank)
    best = None
    for beta in all_roots_euclidean(type_, rank):
        coeffs = linalg.solve(simples, beta)
        if coeffs is None:
            continue
        h = sum(coeffs)
        if best is None or h > best[0]:
            best = (h, coeffs)
    return [int(c) for c in best[1]]


def pairing_with_coroot(type_, rank, v, j):
    """Oracle: <v, alpha_j^vee> for v in the SimpleRoots basis (1-based j)."""
    simples = simple_roots_euclidean(type_, rank)
    vec = [sum(Fraction(v.coords[i]) * simples[i][t] for i in range(rank))
           for t in range(len(simples[0]))]
    a = simples[j - 1]
    return 2 * _dot(vec, a) / _dot(a, a)


def cocharacter_order(type_, rank, p):
    """Minimal m with m * omega_p^vee in the coroot lattice (1-based p)."""
    simples = simple_roots_euclidean(type_, rank)
    coroots = [[2 * x / _dot(a, a) for x in a] for a in simples]
    # omega_p^vee = sum_i c_i alpha_i^vee solves (omega, alpha_j) = delta_pj;
    # column i of the system is (alpha_i^vee, alpha_j)_j.
    columns = [[_dot(coroots[i], simples[j]) for j in range(rank)] for i in range(rank)]
    rhs = [Fraction(1) if j == p - 1 else Fraction(0) for j in range(rank)]
    coeffs = linalg.solve(columns, rhs)
    assert coeffs is not None
    return lcm(*[c.denominator for c in coeffs])
