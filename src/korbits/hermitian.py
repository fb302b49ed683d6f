"""Catalog of classical symmetric pairs (G, K) of Hermitian type.

Each pair is the Levi K of a maximal parabolic with abelian unipotent
radical, marked by the simple root alpha_p with [theta : alpha_p] = 1.  The
split p = p1 + p2 into dual irreducible K-modules and the order m of the
central cocharacter are stored per family, with G simply connected
throughout so that m is well defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .rootlat import (FUND_WEIGHTS, LatticeVector, RootSystem,
                      abelian_radical_roots)

SLPQ = "SLpq"
SO_ODD = "SO_odd"
SP = "Sp"
SO_EVEN_VECTOR = "SO_even_vector"
SO_EVEN_GL = "SO_even_gl"

# Minimal ambient rank per family, matching the orbit catalog bounds.
_RANK_BOUNDS = {"A": 1, "B": 3, "C": 2, "D": 4}


@dataclass(frozen=True)
class SymmetricPairSpec:
    g_type: tuple
    p_index: int
    family_id: str
    k_levi_types: tuple
    m: int
    p1_highest_weight: LatticeVector

    @property
    def rank(self):
        return self.g_type[1]

    def key(self):
        t, n = self.g_type
        if t in ("B", "C"):
            return f"{t}:{n}"
        return f"{t}:{n}:p={self.p_index}"

    def k_ss_root_system(self):
        return RootSystem(self.k_levi_types)

    # Convenience for the SL(p+q) family.
    @property
    def pq(self):
        assert self.family_id == SLPQ
        n = self.rank
        return self.p_index, n + 1 - self.p_index


def _a_weight(comps, entries):
    coords = []
    for (t, r), ent in zip(comps, entries):
        chunk = [0] * r
        for idx, val in ent:
            chunk[idx - 1] = val
        coords.extend(chunk)
    return LatticeVector(FUND_WEIGHTS, tuple(coords))


def _make_pair(t, n, p):
    if t == "A":
        q = n + 1 - p
        comps = tuple(c for c in (("A", p - 1), ("A", q - 1)) if c[1] >= 1)
        m = (n + 1) // gcd(p, n + 1)
        # p1 = V(omega_1 + omega'_{q-1}) as K^ss-module (either factor may vanish).
        entries = []
        if p >= 2:
            entries.append([(1, 1)])
        if q >= 2:
            entries.append([(q - 1, 1)])
        w1 = _a_weight(comps, entries)
        return SymmetricPairSpec(("A", n), p, SLPQ, comps, m, w1)
    if t == "B":
        comps = (("B", n - 1),)
        w1 = _a_weight(comps, [[(1, 1)]])
        return SymmetricPairSpec(("B", n), 1, SO_ODD, comps, 2, w1)
    if t == "C":
        comps = (("A", n - 1),)
        w1 = _a_weight(comps, [[(1, 2)]])
        return SymmetricPairSpec(("C", n), n, SP, comps, 2, w1)
    # type D
    if p == 1:
        comps = (("D", n - 1),)
        w1 = _a_weight(comps, [[(1, 1)]])
        return SymmetricPairSpec(("D", n), 1, SO_EVEN_VECTOR, comps, 2, w1)
    comps = (("A", n - 1),)
    m = 2 if n % 2 == 0 else 4
    w1 = _a_weight(comps, [[(2, 1)]])
    return SymmetricPairSpec(("D", n), p, SO_EVEN_GL, comps, m, w1)


def enumerate_pairs(g_type, rank):
    """All Hermitian pairs of the given ambient type, one per marked root."""
    if g_type not in _RANK_BOUNDS:
        raise ValueError(f"unsupported type {g_type!r}: classical types A-D only")
    if rank < _RANK_BOUNDS[g_type]:
        raise ValueError(f"type {g_type} Hermitian pairs need rank >= {_RANK_BOUNDS[g_type]}")
    marked = abelian_radical_roots(g_type, rank)
    if g_type == "D" and rank == 4:
        marked = [p for p in marked if p != 1]  # vector case needs n > 4
    return [_make_pair(g_type, rank, p) for p in marked]


def p_module_weights(spec):
    """K^ss-highest weights of p1 and p2 with their central charges.

    Returns ((w1, +m), (w2, -m)); w2 is the dual weight of w1.
    """
    rs = spec.k_ss_root_system()
    w1 = spec.p1_highest_weight
    w2 = rs.dual_weight(w1)
    return (w1, spec.m), (w2, -spec.m)


def parse_pair_key(key):
    """Resolve keys like "A:5:p=2", "B:4", "C:3", "D:6:gl", "D:6:vec"."""
    parts = key.split(":")
    if len(parts) < 2:
        raise ValueError(f"bad pair key {key!r}")
    t = parts[0]
    try:
        n = int(parts[1])
    except ValueError:
        raise ValueError(f"bad rank in pair key {key!r}") from None
    size = 2 if t in ("B", "C") else 3
    if len(parts) > size:
        extra = ":".join(parts[size:])
        raise ValueError(f"bad pair key {key!r}: unexpected segment {extra!r}")
    if t in ("B", "C"):
        return _make_pair_checked(t, n, 1 if t == "B" else n)
    if len(parts) != 3:
        raise ValueError(f"pair key {key!r} needs a marked root, e.g. {t}:{n}:p=1")
    tag = parts[2]
    bad_tag = ValueError(f"bad marked-root tag {tag!r} in pair key {key!r}")
    if t == "D" and tag == "vec":
        p = 1
    elif t == "D" and tag == "gl":
        p = n
    elif tag.startswith("p="):
        try:
            p = int(tag[2:])
        except ValueError:
            raise bad_tag from None
    else:
        raise bad_tag
    return _make_pair_checked(t, n, p)


def _make_pair_checked(t, n, p):
    for spec in enumerate_pairs(t, n):
        if spec.p_index == p:
            return spec
    raise ValueError(f"no Hermitian pair of type {t}{n} marked at alpha_{p}")
