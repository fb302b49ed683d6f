"""Root-system and weight-lattice arithmetic for classical types A-D.

All data lives in explicit lattice bases (simple roots, fundamental
weights, colors, spherical roots); the euclidean epsilon-coordinates that
cross-check them are test oracles, outside the package.

Cartan matrices follow Bourbaki numbering with entries
a_ij = <alpha_i, alpha_j^vee>, so row i expresses alpha_i in the basis of
fundamental weights.
"""

from __future__ import annotations

from dataclasses import dataclass

CLASSICAL_TYPES = ("A", "B", "C", "D")

SIMPLE_ROOTS = "SimpleRoots"
FUND_WEIGHTS = "FundWeights"


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
