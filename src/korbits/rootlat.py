"""Root-system and weight-lattice arithmetic for classical types A-D.

All data lives in explicit lattice bases (simple roots, fundamental
weights, colors, spherical roots), in Bourbaki numbering; the euclidean
epsilon-coordinates that cross-check them are test oracles, outside the
package.
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
