"""Executable orbit catalog: normal triples for every spherical nilpotent
K-orbit in the classical Hermitian cases, realized as explicit integer
matrices in the defining representation of g.

Matrix conventions per family (all bases ordered as in the case formulas):

* SL(p+q): C^{p+q} = C^p + C^q; k is block-diagonal traceless, p1 the
  upper-right block C^p (x) (C^q)*, p2 the lower-left block.
* SO(2n+1), SO(2n) vector case: C^N = V + W with Gram matrices antidiag(1);
  a p-element a (x) phi' has upper block A: w -> phi'(w) a and lower block
  -A^dagger (the (beta, beta')-adjoint).
* Sp(2n), SO(2n)/GL(n): X = [[A, S], [T, -A^t]] with S, T symmetric
  (resp. skew); k = gl(n) via A, p1 = S-block, p2 = T-block.  Quadratic
  terms map by e_a e_b -> (E_ab + E_ba)/2, wedges by e_a ^ e_b -> E_ab - E_ba
  and phi_a ^ phi_b -> E_ba - E_ab; the listed sums always produce integer
  matrices.

The central cocharacter zeta (= m omega_p^vee, kept as its diagonal) acts
with eigenvalues +m on p1 and -m on p2, which is how p-elements are split.
h is diagonal too, so every ad(h) and ad(zeta) bracket is read off the
diagonals with `diagonal_weights`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .hermitian import (SLPQ, SO_EVEN_GL, SO_EVEN_VECTOR, SO_ODD, SP,
                        SymmetricPairSpec, parse_pair_key)
from .linalg import commutator, is_zero_matrix, mat_mul, mat_scale, mat_sub


@dataclass(frozen=True)
class OrbitRecord:
    pair: SymmetricPairSpec
    case_id: str
    params: tuple = ()
    variant: str = ""

    @property
    def param_map(self):
        return dict(self.params)

    def orbit_id(self):
        params = ",".join(f"{k}={v}" for k, v in self.params)
        parts = [self.pair.key(), self.case_id, params]
        if self.variant:
            parts.append(self.variant)
        return "/".join(parts)

    def signed_partition(self):
        return _signed_partition(self)


@dataclass(frozen=True)
class MatrixTriple:
    h: tuple
    e: tuple
    f: tuple
    record: OrbitRecord

    @property
    def realization(self):
        return realization(self.record.pair)


def parse_orbit_id(orbit_id):
    parts = orbit_id.split("/")
    if len(parts) not in (3, 4):
        raise ValueError(f"bad orbit id {orbit_id!r}")
    pair = parse_pair_key(parts[0])
    case_id = parts[1]
    params = ()
    if parts[2]:
        params = tuple((k, int(v)) for k, v in
                       (chunk.split("=") for chunk in parts[2].split(",")))
    variant = parts[3] if len(parts) == 4 else ""
    rec = OrbitRecord(pair, case_id, params, variant)
    if rec not in list_orbits(pair):
        raise ValueError(f"unknown orbit {orbit_id!r}")
    return rec


def _freeze(m):
    assert all(x == int(x) for row in m for x in row)
    return tuple(tuple(int(x) for x in row) for row in m)


def _unit(n, a, b, c=1):
    m = [[0] * n for _ in range(n)]
    m[a][b] = c
    return m


def _madd(acc, m, c=1):
    for i, row in enumerate(m):
        for j, x in enumerate(row):
            if x:
                acc[i][j] += c * x
    return acc


def _diagonal_matrix(d):
    """The diagonal matrix with diagonal d."""
    return [[v if i == j else 0 for j in range(len(d))] for i, v in enumerate(d)]


def diagonal_weights(d, x):
    """{d_i - d_j : x_ij != 0} for the diagonal d of a diagonal matrix D.

    ad(D) x has entries (d_i - d_j) x_ij, so these are the ad(D)-weights
    of the parts of x, and x is an ad(D)-eigenvector iff there is one.
    """
    return {d[i] - d[j] for i, row in enumerate(x) for j, v in enumerate(row) if v}


def _diagonal(h):
    """The diagonal of h; ValueError if h has an off-diagonal entry."""
    if any(v for i, row in enumerate(h) for j, v in enumerate(row) if i != j):
        raise ValueError("h is not diagonal")
    return [row[i] for i, row in enumerate(h)]


# ---------------------------------------------------------------------------
# Realizations


class Realization:
    """Concrete matrix model of one Hermitian pair."""

    def __init__(self, spec):
        self.spec = spec
        self.family = spec.family_id
        f = spec.family_id
        if f == SLPQ:
            self._init_slpq()
        elif f in (SO_ODD, SO_EVEN_VECTOR):
            self._init_so_vector()
        else:
            self._init_gl_block()
        self.k_dim = len(self.k_basis)
        # p-basis elements have pairwise disjoint supports, so each
        # coordinate is read off at the first nonzero entry of its element.
        self._anchors = [next((i, j, v) for i, row in enumerate(b)
                              for j, v in enumerate(row) if v)
                         for b in self.p_basis]

    # --- SL(p+q) -----------------------------------------------------------
    def _init_slpq(self):
        p, q = self.spec.pq
        n = p + q
        self.dim = n
        self.blocks = (p, q)
        kb, bor, plus, minus = [], [], [], []
        for lo, hi in ((0, p), (p, n)):
            for a in range(lo, hi):
                for b in range(lo, hi):
                    if a != b:
                        m = _unit(n, a, b)
                        kb.append(m)
                        (bor if a < b else minus).append(m)
                        if a < b:
                            plus.append(m)
        for i in range(n - 1):
            m = _madd(_unit(n, i, i), _unit(n, i + 1, i + 1), -1)
            kb.append(m)
            bor.append(m)
        self.k_basis = kb
        self.borel_basis = bor
        self.plus_basis = plus
        self.minus_basis = minus
        self.p_basis = ([_unit(n, a, p + b) for a in range(p) for b in range(q)]
                        + [_unit(n, p + b, a) for a in range(p) for b in range(q)])
        # zeta = m * omega_p^vee: integral because m clears the denominators.
        assert (self.spec.m * q) % n == 0 and (self.spec.m * p) % n == 0
        self.zeta = (self.spec.m * q // n,) * p + (-self.spec.m * p // n,) * q

    # --- SO(2n+1) and SO(2n), vector cases ----------------------------------
    def _init_so_vector(self):
        n = self.spec.rank
        odd = self.family == SO_ODD
        labels = list(range(1, n)) + ([0] if odd else []) + list(range(-n + 1, 0))
        self.v_labels = labels
        self.v_pos = {lab: i for i, lab in enumerate(labels)}
        nv = len(labels)
        self.nv = nv
        self.dim = nv + 2
        kb, bor, plus, minus = [], [], [], []
        # so(V) for the antidiagonal Gram: J * (skew matrices).
        for a in range(nv):
            for b in range(a + 1, nv):
                m = _madd(_unit(self.dim, nv - 1 - a, b), _unit(self.dim, nv - 1 - b, a), -1)
                kb.append(m)
                if a + b >= nv - 1:
                    bor.append(m)
                if a + b > nv - 1:
                    plus.append(m)
                elif a + b < nv - 1:
                    minus.append(m)
        w = _madd(_unit(self.dim, nv, nv), _unit(self.dim, nv + 1, nv + 1), -1)
        kb.append(w)
        bor.append(w)
        self.k_basis = kb
        self.borel_basis = bor
        self.plus_basis = plus
        self.minus_basis = minus
        self.p_basis = [self.p_elem({lab: 1}, s) for s in (-1, 1) for lab in labels]
        self.zeta = (0,) * nv + (self.spec.m, -self.spec.m)

    def p_elem(self, coeffs, w_label):
        """Element sum_a c_a e_a (x) phi'_{w_label} of p, as a matrix."""
        nv = self.nv
        m = [[0] * self.dim for _ in range(self.dim)]
        wcol = nv if w_label == 1 else nv + 1
        dual_row = nv if w_label == -1 else nv + 1  # beta'-dual of phi'_w is e'_{-w}
        for lab, c in coeffs.items():
            m[self.v_pos[lab]][wcol] += c
            m[dual_row][self.v_pos[-lab]] += -c
        return m

    # --- Sp(2n) and SO(2n)/GL(n) ---------------------------------------------
    def _init_gl_block(self):
        n = self.spec.rank
        self.n = n
        self.dim = 2 * n
        sym = self.family == SP
        kb, bor, plus, minus = [], [], [], []
        for a in range(n):
            for b in range(n):
                m = _madd(_unit(self.dim, a, b), _unit(self.dim, n + b, n + a), -1)
                kb.append(m)
                if a <= b:
                    bor.append(m)
                if a < b:
                    plus.append(m)
                elif a > b:
                    minus.append(m)
        self.k_basis = kb
        self.borel_basis = bor
        self.plus_basis = plus
        self.minus_basis = minus
        pb = []
        for upper in (True, False):
            for a in range(n):
                for b in range(a, n) if sym else range(a + 1, n):
                    blk = [[0] * n for _ in range(n)]
                    blk[a][b] += 1
                    blk[b][a] += (1 if sym else -1) if a != b else 0
                    pb.append(self._embed(blk, upper=upper))
        self.p_basis = pb
        half = self.spec.m // 2  # ad(zeta) = +-m on the S/T blocks
        self.zeta = (half,) * n + (-half,) * n

    def _embed(self, block, upper):
        m = [[0] * self.dim for _ in range(self.dim)]
        n = self.n
        for i in range(n):
            for j in range(n):
                if block[i][j]:
                    if upper:
                        m[i][n + j] = block[i][j]
                    else:
                        m[n + i][j] = block[i][j]
        return m

    # --- structural membership ------------------------------------------------
    def gram(self):
        nv = self.nv
        g = [[0] * self.dim for _ in range(self.dim)]
        for a in range(nv):
            g[a][nv - 1 - a] = 1
        g[nv][nv + 1] = g[nv + 1][nv] = 1
        return g

    def in_g(self, x):
        f = self.family
        n = getattr(self, "n", None)
        if f == SLPQ:
            return sum(x[i][i] for i in range(self.dim)) == 0
        if f in (SO_ODD, SO_EVEN_VECTOR):
            g = self.gram()
            return is_zero_matrix([[sum(x[k][i] * g[k][j] + g[i][k] * x[k][j]
                                        for k in range(self.dim))
                                    for j in range(self.dim)] for i in range(self.dim)])
        # gl-block families: A-blocks opposite transposes, S/T symmetric or skew
        sgn = 1 if f == SP else -1
        for i in range(n):
            for j in range(n):
                if x[i][j] != -x[n + j][n + i]:
                    return False
                if x[i][n + j] != sgn * x[j][n + i]:
                    return False
                if x[n + i][j] != sgn * x[n + j][i]:
                    return False
        return True

    def in_k(self, x):
        """x lies in g and ad(zeta) kills it."""
        return self.in_g(x) and diagonal_weights(self.zeta, x) <= {0}

    def in_p(self, x):
        """x lies in g and ad(zeta) acts on it by +-m."""
        m = self.spec.m
        return self.in_g(x) and diagonal_weights(self.zeta, x) <= {m, -m}

    def p_coords(self, x):
        """Coordinates of a p-element in the p-basis, read off at the anchor
        entries; correctness is re-checked in the test suite by
        reconstructing the matrix.
        """
        return tuple(Fraction(x[i][j], v) if x[i][j] % v else x[i][j] // v
                     for i, j, v in self._anchors)


_REALIZATIONS = {}


def realization(spec):
    if spec not in _REALIZATIONS:
        _REALIZATIONS[spec] = Realization(spec)
    return _REALIZATIONS[spec]


# ---------------------------------------------------------------------------
# Case catalog

def _list_slpq(pair, cap):
    p, q = pair.pq
    top = min(p, q)
    recs = []
    rng = range(1, min(top, cap) + 1) if cap else range(1, top + 1)
    for r in rng:
        recs.append(OrbitRecord(pair, "1.1", (("r", r),)))
        recs.append(OrbitRecord(pair, "1.2", (("r", r),)))
    for r in rng:
        for s in rng:
            if r + s <= top:
                recs.append(OrbitRecord(pair, "1.3", (("r", r), ("s", s))))
    if q == 2 and p >= 4:
        recs.append(OrbitRecord(pair, "1.4", ()))
    if p == 2 and q >= 4:
        recs.append(OrbitRecord(pair, "1.5", ()))
    caprng = range(0, cap + 1) if cap else range(0, max(p, q) + 1)
    for r in caprng:
        for s in caprng:
            if r + s + 2 <= p and r + s + 1 <= q:
                recs.append(OrbitRecord(pair, "1.6", (("r", r), ("s", s))))
            if r + s + 1 <= p and r + s + 2 <= q:
                recs.append(OrbitRecord(pair, "1.7", (("r", r), ("s", s))))
    return recs


def _list_so_vector(pair, cap):
    base = "2" if pair.family_id == SO_ODD else "4"
    recs = [OrbitRecord(pair, f"{base}.1", (), "I"),
            OrbitRecord(pair, f"{base}.1", (), "II"),
            OrbitRecord(pair, f"{base}.2", ()),
            OrbitRecord(pair, f"{base}.3", (), "I"),
            OrbitRecord(pair, f"{base}.3", (), "II"),
            OrbitRecord(pair, f"{base}.4", ())]
    return recs


def _list_gl_block(pair, cap):
    n = pair.rank
    recs = []
    if pair.family_id == SP:
        rng = range(1, min(n, cap) + 1) if cap else range(1, n + 1)
        for r in rng:
            recs.append(OrbitRecord(pair, "3.1", (("r", r),)))
            recs.append(OrbitRecord(pair, "3.2", (("r", r),)))
        for r in rng:
            for s in rng:
                if r + s <= n:
                    recs.append(OrbitRecord(pair, "3.3", (("r", r), ("s", s))))
    else:
        top = n // 2
        rng = range(1, min(top, cap) + 1) if cap else range(1, top + 1)
        for r in rng:
            recs.append(OrbitRecord(pair, "5.1", (("r", r),)))
            recs.append(OrbitRecord(pair, "5.2", (("r", r),)))
        for r in rng:
            for s in rng:
                if 2 * r + 2 * s <= n:
                    recs.append(OrbitRecord(pair, "5.3", (("r", r), ("s", s))))
        recs.append(OrbitRecord(pair, "5.4", ()))
    return recs


def list_orbits(pair, max_params=None):
    """All catalogued orbit records valid for the pair, with every case
    parameter at most max_params when a cap is given."""
    if max_params is not None and max_params < 1:
        raise ValueError(f"--max-params must be at least 1, got {max_params}")
    cap = max_params or 0
    if pair.family_id == SLPQ:
        return _list_slpq(pair, cap)
    if pair.family_id in (SO_ODD, SO_EVEN_VECTOR):
        return _list_so_vector(pair, cap)
    return _list_gl_block(pair, cap)


def _signed_partition(rec):
    pm = rec.param_map
    r, s = pm.get("r", 0), pm.get("s", 0)
    case = rec.case_id
    n = rec.pair.rank
    if rec.pair.family_id == SLPQ:
        p, q = rec.pair.pq
        table = {
            "1.1": [(2, "+", r), (1, "+", p - r), (1, "-", q - r)],
            "1.2": [(2, "-", r), (1, "+", p - r), (1, "-", q - r)],
            "1.3": [(2, "+", r), (2, "-", s), (1, "+", p - r - s), (1, "-", q - r - s)],
            "1.4": [(3, "+", 2), (1, "+", p - 4)],
            "1.5": [(3, "-", 2), (1, "-", q - 4)],
            "1.6": [(3, "+", 1), (2, "+", r), (2, "-", s),
                    (1, "+", p - r - s - 2), (1, "-", q - r - s - 1)],
            "1.7": [(3, "-", 1), (2, "+", r), (2, "-", s),
                    (1, "+", p - r - s - 1), (1, "-", q - r - s - 2)],
        }
    elif rec.pair.family_id == SO_ODD:
        table = {
            "2.1": [(2, "+", 2), (1, "+", 2 * n - 3)],
            "2.2": [(3, "+", 1), (1, "+", 2 * n - 3), (1, "-", 1)],
            "2.3": [(3, "-", 1), (1, "+", 2 * n - 2)],
            "2.4": [(3, "+", 2), (1, "+", 2 * n - 5)],
        }
    elif rec.pair.family_id == SO_EVEN_VECTOR:
        table = {
            "4.1": [(2, "+", 2), (1, "+", 2 * n - 4)],
            "4.2": [(3, "+", 1), (1, "+", 2 * n - 4), (1, "-", 1)],
            "4.3": [(3, "-", 1), (1, "+", 2 * n - 3)],
            "4.4": [(3, "+", 2), (1, "+", 2 * n - 6)],
        }
    elif rec.pair.family_id == SP:
        table = {
            "3.1": [(2, "+", r), (1, "+", 2 * n - 2 * r)],
            "3.2": [(2, "-", r), (1, "+", 2 * n - 2 * r)],
            "3.3": [(2, "+", r), (2, "-", s), (1, "+", 2 * n - 2 * r - 2 * s)],
        }
    else:
        table = {
            "5.1": [(2, "+", r), (1, "+", n - 2 * r)],
            "5.2": [(2, "-", r), (1, "+", n - 2 * r)],
            "5.3": [(2, "+", r), (2, "-", s), (1, "+", n - 2 * r - 2 * s)],
            "5.4": [(3, "+", 1), (1, "+", n - 3)],
        }
    parts = [(a, sg, m) for a, sg, m in table[case] if m > 0]
    return tuple(parts)


# Cases with max{n : (ad e)^n p != 0} equal to 3; all others give 2.  The
# values are per-case constants, independent of the parameters.
HEIGHT_THREE_CASES = {"1.4", "1.5", "1.6", "1.7", "2.4", "4.4", "5.4"}


def expected_p_height(rec):
    return 3 if rec.case_id in HEIGHT_THREE_CASES else 2


def expected_dims(rec):
    """(dim L = dim K_h, dim L_e, unipotent deficit of K_e inside Q^u)."""
    pm = rec.param_map
    r, s = pm.get("r", 0), pm.get("s", 0)
    n = rec.pair.rank
    c = rec.case_id
    if rec.pair.family_id == SLPQ:
        p, q = rec.pair.pq
        if c in ("1.1", "1.2"):
            return (2 * r * r + (p - r) ** 2 + (q - r) ** 2 - 1,
                    r * r + (p - r) ** 2 + (q - r) ** 2 - 1, 0)
        if c == "1.3":
            return (2 * r * r + 2 * s * s + (p - r - s) ** 2 + (q - r - s) ** 2 - 1,
                    r * r + s * s + (p - r - s) ** 2 + (q - r - s) ** 2 - 1, 0)
        if c in ("1.4", "1.5"):
            d = p - 4 if c == "1.4" else q - 4
            return (d * d + 11, d * d + 3, 0)
        if c == "1.6":
            return (2 * r * r + 2 * s * s + (p - r - s - 2) ** 2 + (q - r - s) ** 2 + 1,
                    r * r + s * s + (p - r - s - 2) ** 2 + (q - r - s - 1) ** 2,
                    r + s)
        if c == "1.7":
            return (2 * r * r + 2 * s * s + (q - r - s - 2) ** 2 + (p - r - s) ** 2 + 1,
                    r * r + s * s + (q - r - s - 2) ** 2 + (p - r - s - 1) ** 2,
                    r + s)
    if rec.pair.family_id == SO_ODD:
        so = lambda k: k * (k - 1) // 2
        return {
            "2.1": (2 + so(2 * n - 3), 1 + so(2 * n - 3), 0),
            "2.2": (2 + so(2 * n - 3), so(2 * n - 3), 0),
            "2.3": (1 + so(2 * n - 1), so(2 * n - 2), 0),
            "2.4": (5 + so(2 * n - 5), 1 + so(2 * n - 5), 0),
        }[c]
    if rec.pair.family_id == SO_EVEN_VECTOR:
        so = lambda k: k * (k - 1) // 2
        return {
            "4.1": (2 + so(2 * n - 4), 1 + so(2 * n - 4), 0),
            "4.2": (2 + so(2 * n - 4), so(2 * n - 4), 0),
            "4.3": (1 + so(2 * n - 2), so(2 * n - 3), 0),
            "4.4": (5 + so(2 * n - 6), 1 + so(2 * n - 6), 0),
        }[c]
    if rec.pair.family_id == SP:
        o = lambda k: k * (k - 1) // 2
        if c in ("3.1", "3.2"):
            return (r * r + (n - r) ** 2, o(r) + (n - r) ** 2, 0)
        return (r * r + s * s + (n - r - s) ** 2,
                o(r) + o(s) + (n - r - s) ** 2, 0)
    sp = lambda k: k * (2 * k + 1)
    if c in ("5.1", "5.2"):
        return (4 * r * r + (n - 2 * r) ** 2, sp(r) + (n - 2 * r) ** 2, 0)
    if c == "5.3":
        return (4 * r * r + 4 * s * s + (n - 2 * r - 2 * s) ** 2,
                sp(r) + sp(s) + (n - 2 * r - 2 * s) ** 2, 0)
    return (2 + (n - 2) ** 2, 1 + (n - 3) ** 2, 0)


# ---------------------------------------------------------------------------
# Triple construction

def _build_slpq(rec, real):
    p, q = rec.pair.pq
    n = p + q
    pm = rec.param_map
    r, s = pm.get("r", 0), pm.get("s", 0)
    e = [[0] * n for _ in range(n)]
    f = [[0] * n for _ in range(n)]
    hv, hw = [0] * p, [0] * q

    def up(m, i, j, c=1):    # e_i (x) phi'_j
        m[i - 1][p + j - 1] += c

    def lo(m, i, j, c=1):    # phi_i (x) e'_j
        m[p + j - 1][i - 1] += c

    case = rec.case_id
    if case == "1.1":
        for i in range(1, r + 1):
            up(e, i, q - r + i)
            lo(f, i, q - r + i)
        for i in range(1, r + 1):
            hv[i - 1] = 1
        for j in range(q - r + 1, q + 1):
            hw[j - 1] = -1
    elif case == "1.2":
        for i in range(1, r + 1):
            lo(e, p - r + i, i)
            up(f, p - r + i, i)
        for i in range(p - r + 1, p + 1):
            hv[i - 1] = -1
        for j in range(1, r + 1):
            hw[j - 1] = 1
    elif case == "1.3":
        for i in range(1, r + 1):
            up(e, i, q - r + i)
            lo(f, i, q - r + i)
        for i in range(1, s + 1):
            lo(e, p - s + i, i)
            up(f, p - s + i, i)
        for i in range(1, r + 1):
            hv[i - 1] = 1
        for i in range(p - s + 1, p + 1):
            hv[i - 1] = -1
        for j in range(1, s + 1):
            hw[j - 1] = 1
        for j in range(q - r + 1, q + 1):
            hw[j - 1] = -1
    elif case == "1.4":
        for i in (1, 2):
            up(e, i, i)
            lo(f, i, i, 2)
        for i, j in ((p - 1, 1), (p, 2)):
            lo(e, i, j)
            up(f, i, j, 2)
        hv[0] = hv[1] = 2
        hv[p - 2] = hv[p - 1] = -2
    elif case == "1.5":
        for i, j in ((1, q - 1), (2, q)):
            up(e, i, j)
            lo(f, i, j, 2)
        for i in (1, 2):
            lo(e, i, i)
            up(f, i, i, 2)
        hw[0] = hw[1] = 2
        hw[q - 2] = hw[q - 1] = -2
    elif case == "1.6":
        up(e, 1, q - r)
        lo(f, 1, q - r, 2)
        for i in range(1, r + 1):
            up(e, i + 1, q - r + i)
            lo(f, i + 1, q - r + i)
        for i in range(1, s + 1):
            lo(e, p - s + i - 1, i)
            up(f, p - s + i - 1, i)
        lo(e, p, q - r)
        up(f, p, q - r, 2)
        hv[0] = 2
        for i in range(2, r + 2):
            hv[i - 1] = 1
        for i in range(p - s, p):
            hv[i - 1] = -1
        hv[p - 1] = -2
        for j in range(1, s + 1):
            hw[j - 1] = 1
        for j in range(q - r + 1, q + 1):
            hw[j - 1] = -1
    elif case == "1.7":
        for i in range(1, r + 1):
            up(e, i, q - r + i - 1)
            lo(f, i, q - r + i - 1)
        up(e, p - s, q)
        lo(f, p - s, q, 2)
        lo(e, p - s, 1)
        up(f, p - s, 1, 2)
        for i in range(1, s + 1):
            lo(e, p - s + i, i + 1)
            up(f, p - s + i, i + 1)
        for i in range(1, r + 1):
            hv[i - 1] = 1
        for i in range(p - s + 1, p + 1):
            hv[i - 1] = -1
        hw[0] = 2
        for j in range(2, s + 2):
            hw[j - 1] = 1
        for j in range(q - r, q):
            hw[j - 1] = -1
        hw[q - 1] = -2
    else:
        raise ValueError(f"unknown case {case}")
    return _diagonal_matrix(hv + hw), e, f


def _build_so_vector(rec, real):
    case = rec.case_id.split(".")[1]
    var = rec.variant
    pe = real.p_elem
    hv = {}
    if case == "1":
        e = pe({1: 1}, -1 if var == "I" else 1)
        f = mat_scale(pe({-1: 1}, 1 if var == "I" else -1), -1)
        hv = {1: 1, -1: -1}
        hw = (1, -1) if var == "I" else (-1, 1)
    elif case == "2":
        e = mat_sub(pe({1: 1}, 1), pe({1: 1}, -1))
        f = mat_sub(pe({-1: 1}, 1), pe({-1: 1}, -1))
        hv = {1: 2, -1: -2}
        hw = (0, 0)
    elif case == "3":
        if real.family == SO_ODD:
            e = pe({0: 1}, -1 if var == "I" else 1)
            f = mat_scale(pe({0: 1}, 1 if var == "I" else -1), -2)
        else:
            nlab = real.spec.rank - 1
            vec = {nlab: 1, -nlab: -1}
            e = pe(vec, -1 if var == "I" else 1)
            f = pe(vec, 1 if var == "I" else -1)
        hw = (2, -2) if var == "I" else (-2, 2)
    else:
        e = mat_sub(pe({1: 1}, -1), pe({2: 1}, 1))
        f = mat_scale(mat_sub(pe({-2: 1}, -1), pe({-1: 1}, 1)), 2)
        hv = {1: 2, 2: 2, -1: -2, -2: -2}
        hw = (0, 0)
    return _diagonal_matrix([hv.get(lab, 0) for lab in real.v_labels] + list(hw)), e, f


def _sym_terms(n, pairs):
    """sum e_a e_b over (a, b) in pairs, mapped to a symmetric matrix."""
    m = [[Fraction(0)] * n for _ in range(n)]
    for a, b in pairs:
        m[a - 1][b - 1] += Fraction(1, 2)
        m[b - 1][a - 1] += Fraction(1, 2)
    out = [[int(x) for x in row] for row in m]
    assert all(x == y for row, orow in zip(m, out) for x, y in zip(row, orow))
    return out


def _wedge_terms(n, pairs, dual, scale=1):
    m = [[0] * n for _ in range(n)]
    for a, b in pairs:
        if dual:
            m[b - 1][a - 1] += scale
            m[a - 1][b - 1] -= scale
        else:
            m[a - 1][b - 1] += scale
            m[b - 1][a - 1] -= scale
    return m


def _build_gl_block(rec, real):
    n = real.n
    pm = rec.param_map
    r, s = pm.get("r", 0), pm.get("s", 0)
    case = rec.case_id
    hdiag = [0] * n
    if case == "3.1":
        pairs = [(i, r - i + 1) for i in range(1, r + 1)]
        e = real._embed(_sym_terms(n, pairs), upper=True)
        f = real._embed(_sym_terms(n, pairs), upper=False)
        for i in range(r):
            hdiag[i] = 1
    elif case == "3.2":
        pairs = [(n - r + i, n - i + 1) for i in range(1, r + 1)]
        e = real._embed(_sym_terms(n, pairs), upper=False)
        f = real._embed(_sym_terms(n, pairs), upper=True)
        for i in range(n - r, n):
            hdiag[i] = -1
    elif case == "3.3":
        up_pairs = [(i, r - i + 1) for i in range(1, r + 1)]
        lo_pairs = [(n - s + i, n - i + 1) for i in range(1, s + 1)]
        e = linalg.mat_add(real._embed(_sym_terms(n, up_pairs), True),
                           real._embed(_sym_terms(n, lo_pairs), False))
        f = linalg.mat_add(real._embed(_sym_terms(n, up_pairs), False),
                           real._embed(_sym_terms(n, lo_pairs), True))
        for i in range(r):
            hdiag[i] = 1
        for i in range(n - s, n):
            hdiag[i] = -1
    elif case in ("5.1", "5.2", "5.3"):
        # Dual-side pairs are (n-2r+i, n-i+1): the mirror image of the
        # 5.1 pattern, and the unique choice compatible with the given h.
        up_pairs = [(i, 2 * r - i + 1) for i in range(1, r + 1)]
        lo_r = r if case == "5.2" else s
        lo_pairs = [(n - 2 * lo_r + i, n - i + 1) for i in range(1, lo_r + 1)]
        if case == "5.1":
            e = real._embed(_wedge_terms(n, up_pairs, dual=False), True)
            f = real._embed(_wedge_terms(n, up_pairs, dual=True), False)
            for i in range(2 * r):
                hdiag[i] = 1
        elif case == "5.2":
            e = real._embed(_wedge_terms(n, lo_pairs, dual=True), False)
            f = real._embed(_wedge_terms(n, lo_pairs, dual=False), True)
            for i in range(n - 2 * r, n):
                hdiag[i] = -1
        else:
            e = linalg.mat_add(real._embed(_wedge_terms(n, up_pairs, dual=False), True),
                               real._embed(_wedge_terms(n, lo_pairs, dual=True), False))
            f = linalg.mat_add(real._embed(_wedge_terms(n, up_pairs, dual=True), False),
                               real._embed(_wedge_terms(n, lo_pairs, dual=False), True))
            for i in range(2 * r):
                hdiag[i] = 1
            for i in range(n - 2 * s, n):
                hdiag[i] = -1
    elif case == "5.4":
        e = linalg.mat_add(real._embed(_wedge_terms(n, [(1, 2)], dual=False), True),
                           real._embed(_wedge_terms(n, [(2, n)], dual=True), False))
        f = linalg.mat_add(real._embed(_wedge_terms(n, [(1, 2)], dual=True, scale=2), False),
                           real._embed(_wedge_terms(n, [(2, n)], dual=False, scale=2), True))
        hdiag[0] = 2
        hdiag[n - 1] = -2
    else:
        raise ValueError(f"unknown case {case}")
    return _diagonal_matrix(hdiag + [-x for x in hdiag]), e, f


def _validate_params(rec):
    pm = rec.param_map
    r, s = pm.get("r", 0), pm.get("s", 0)
    n = rec.pair.rank
    c = rec.case_id
    fam = rec.pair.family_id
    ok = True
    if fam == SLPQ:
        p, q = rec.pair.pq
        ok = {
            "1.1": 1 <= r <= min(p, q),
            "1.2": 1 <= r <= min(p, q),
            "1.3": r >= 1 and s >= 1 and r + s <= min(p, q),
            "1.4": q == 2 and p >= 4,
            "1.5": p == 2 and q >= 4,
            "1.6": r >= 0 and s >= 0 and r + s + 2 <= p and r + s + 1 <= q,
            "1.7": r >= 0 and s >= 0 and r + s + 1 <= p and r + s + 2 <= q,
        }.get(c, False)
    elif fam == SP:
        ok = {"3.1": 1 <= r <= n, "3.2": 1 <= r <= n,
              "3.3": r >= 1 and s >= 1 and r + s <= n}.get(c, False)
    elif fam == SO_EVEN_GL:
        ok = {"5.1": 1 <= 2 * r <= n, "5.2": 1 <= 2 * r <= n,
              "5.3": r >= 1 and s >= 1 and 2 * r + 2 * s <= n,
              "5.4": n >= 4}.get(c, False)
    else:
        base = "2" if fam == SO_ODD else "4"
        ok = c in {f"{base}.{i}" for i in range(1, 5)} and not pm
        if c in (f"{base}.1", f"{base}.3") and rec.variant not in ("I", "II"):
            ok = False
    if not ok:
        raise ValueError(f"parameters out of range for case {c}: {rec.orbit_id()}")


def build_triple(rec):
    """Matrices (h, e, f) realizing the case formulas for the record."""
    _validate_params(rec)
    real = realization(rec.pair)
    if rec.pair.family_id == SLPQ:
        h, e, f = _build_slpq(rec, real)
    elif rec.pair.family_id in (SO_ODD, SO_EVEN_VECTOR):
        h, e, f = _build_so_vector(rec, real)
    else:
        h, e, f = _build_gl_block(rec, real)
    return MatrixTriple(_freeze(h), _freeze(e), _freeze(f), rec)


# ---------------------------------------------------------------------------
# Verification operations

def verify_triple(triple):
    """Exact checks of the normal-triple conditions; never raises."""
    h, e, f = triple.h, triple.e, triple.f
    real = triple.realization
    sl2 = (is_zero_matrix(mat_sub(commutator(h, e), mat_scale(e, 2)))
           and is_zero_matrix(mat_sub(commutator(h, f), mat_scale(f, -2)))
           and is_zero_matrix(mat_sub(commutator(e, f), h)))
    return {
        "sl2_ok": sl2,
        "h_in_k": real.in_k(h),
        "e_in_p": real.in_p(e),
        "f_in_p": real.in_p(f),
    }


def adh_grading(triple):
    """dim of each ad(h)-eigenspace on k, as {eigenvalue: dimension}.

    ValueError if h is not diagonal or a k-basis element is not an
    ad(h)-eigenvector.
    """
    d = _diagonal(triple.h)
    out = {}
    for x in triple.realization.k_basis:
        weights = diagonal_weights(d, x)
        if len(weights) != 1:
            raise ValueError("a k-basis element is not an ad(h)-eigenvector")
        lam, = weights
        out[lam] = out.get(lam, 0) + 1
    return out


def centralizer_dim(triple):
    """(dim K_e, dim Ke): kernel and image of ad(e) restricted to k."""
    real = triple.realization
    rows = [real.p_coords(commutator(x, triple.e)) for x in real.k_basis]
    orbit = linalg.rank(rows)
    return real.k_dim - orbit, orbit


_TRIAL_PRIME = (1 << 61) - 1
_TRIALS = 4


def _exp_nilpotent_modp(m, p):
    n = len(m)
    out = linalg.identity(n)
    term = linalg.identity(n)
    fact = 1
    for k in range(1, n + 1):
        term = [[sum(term[i][t] * m[t][j] for t in range(n)) % p for j in range(n)]
                for i in range(n)]
        if all(x == 0 for row in term for x in row):
            break
        fact = fact * k % p
        inv = pow(fact, p - 2, p)
        for i in range(n):
            for j in range(n):
                out[i][j] = (out[i][j] + term[i][j] * inv) % p
    return out


def _generic_borel_rank_modp(triple, rng, p):
    """dim(b.x) at a pseudo-random big-cell point, computed mod p.

    Reduction mod p can only lower a rank, so reaching the orbit dimension
    certifies it exactly."""
    real = triple.realization
    x = [[v % p for v in row] for row in triple.e]
    for basis in (real.minus_basis, real.plus_basis):
        nil = [[0] * real.dim for _ in range(real.dim)]
        for b in basis:
            _madd(nil, b, rng.randint(1, 9))
        g = _exp_nilpotent_modp(nil, p)
        ginv = _exp_nilpotent_modp([[-v for v in row] for row in nil], p)
        x = [[sum(g[i][t] * x[t][j] for t in range(real.dim)) % p
              for j in range(real.dim)] for i in range(real.dim)]
        x = [[sum(x[i][t] * ginv[t][j] for t in range(real.dim)) % p
              for j in range(real.dim)] for i in range(real.dim)]
    rows = []
    for b in real.borel_basis:
        comm = [[sum(b[i][t] * x[t][j] - x[i][t] * b[t][j]
                     for t in range(real.dim)) % p
                 for j in range(real.dim)] for i in range(real.dim)]
        rows.append(_modp_p_coords(real, comm, p))
    return linalg.rank(rows, p)


def _modp_p_coords(real, x, p):
    return [x[i][j] * v % p if v in (1, -1) else x[i][j] * pow(v % p, p - 2, p) % p
            for i, j, v in real._anchors]


def is_spherical(triple):
    """Open-Borel-orbit test: dim(b.x) = dim Kx at a generic orbit point.

    The raw case representatives need not be in general position w.r.t. the
    fixed Borel, so e is moved by deterministic pseudo-random big-cell
    elements exp(N+) exp(N-) before measuring dim(b.x) modulo a large prime;
    the maximum over the orbit is what characterizes sphericity, and any
    Borel yields the same value.

    True is certified exactly: the rank mod p is at most the rank over Q,
    which is at most dim Kx, so a trial that reaches dim Kx proves the Borel
    orbit of that point open.  False is one-sided: none of the _TRIALS
    points reached dim Kx, which for a spherical orbit happens only if every
    point lands on the proper closed subset where the rank mod p drops.
    """
    return _borel_orbit_open(triple, centralizer_dim(triple)[1])


def _borel_orbit_open(triple, dim_orbit):
    """is_spherical given dim Kx = dim_orbit."""
    rng = random.Random(0x5EED)
    return any(_generic_borel_rank_modp(triple, rng, _TRIAL_PRIME) == dim_orbit
               for _ in range(_TRIALS))


def p_height(triple, cap=12):
    """max n with (ad e)^n p != 0, by iterated exact bracketing."""
    real = triple.realization
    best = 0
    for x in real.p_basis:
        y, n = x, 0
        while not is_zero_matrix(y):
            y = commutator(triple.e, y)
            n += 1
            if n > cap:
                raise ValueError("p-height exceeds cap; construction bug")
        best = max(best, n - 1) if n else best
    return best


def jordan_type(e, dim=None):
    """Partition of the Jordan type of a nilpotent matrix, largest part first."""
    n = len(e)
    ranks = [n]
    power = [row[:] for row in e]
    while not is_zero_matrix(power):
        ranks.append(linalg.rank(power))
        power = mat_mul(power, e)
    ranks.append(0)
    parts = []
    for k in range(1, len(ranks)):
        mult = (ranks[k - 1] - ranks[k]) - (ranks[k] - ranks[k + 1] if k + 1 < len(ranks) else 0)
        parts.extend([k] * mult)
    return tuple(sorted(parts, reverse=True))


def partition_from_signed(rec):
    """Expected Jordan partition on the defining representation."""
    mult_scale = 2 if rec.pair.family_id == SO_EVEN_GL else 1
    parts = []
    for part, _sign, mult in rec.signed_partition():
        parts.extend([part] * (mult * mult_scale))
    return tuple(sorted(parts, reverse=True))


def bicone_witness(triple):
    """Lie-level bicone data: h-weight 2 and central charges (+m, -m)."""
    real = triple.realization
    m = real.spec.m
    zeta_weights = diagonal_weights(real.zeta, triple.e)
    charges = tuple(c if c in zeta_weights else None for c in (m, -m))
    return {
        "h_weight_on_e": 2 if diagonal_weights(_diagonal(triple.h), triple.e) <= {2} else None,
        "chi_charges": charges,
        "both_components_nonzero": None not in charges,
    }


def verify_orbit(triple):
    """Every check of one orbit representative, as (report row, verdict).

    The verdict holds when the row's checks pass and its invariants match
    the case formulas: ht_p = expected_p_height, dim L = dim k_0 (the
    ad(h)-degree-0 part) and dim K_e = dim L_e + dim Q^u - deficit, where
    Q^u is the sum of the positive ad(h)-eigenspaces on k.
    """
    rec = triple.record
    dim_ke, dim_orbit = centralizer_dim(triple)
    bicone = bicone_witness(triple)
    row = {
        "orbit": rec.orbit_id(),
        "signed_partition": [[a, sg, m] for a, sg, m in rec.signed_partition()],
        "sl2_ok": all(verify_triple(triple).values()),
        "jordan_ok": jordan_type(triple.e) == partition_from_signed(rec),
        "spherical": _borel_orbit_open(triple, dim_orbit),
        "dim_K_e": dim_ke,
        "dim_orbit": dim_orbit,
        "ht_p": p_height(triple),
        "bicone_both_nonzero": bicone["both_components_nonzero"],
        "chi_charges": list(bicone["chi_charges"]),
    }
    grading = adh_grading(triple)
    dim_l, dim_le, deficit = expected_dims(rec)
    dim_qu = sum(d for lam, d in grading.items() if lam > 0)
    ok = (row["sl2_ok"] and row["jordan_ok"] and row["spherical"]
          and row["ht_p"] == expected_p_height(rec)
          and grading.get(0) == dim_l
          and dim_ke == dim_le + dim_qu - deficit)
    return row, ok


def triple_to_json(triple):
    rec = triple.record

    def enc(m):
        return {"den": 1, "num": [list(row) for row in m]}

    return {
        "orbit": rec.orbit_id(),
        "case": rec.case_id,
        "params": dict(rec.params),
        "variant": rec.variant,
        "signed_partition": [[a, sg, m] for a, sg, m in rec.signed_partition()],
        "dim": triple.realization.dim,
        "h": enc(triple.h),
        "e": enc(triple.e),
        "f": enc(triple.f),
    }
