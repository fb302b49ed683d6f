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

An SL(p+q) triple is read off the record's signed Young diagram, one
Jordan chain per row (`_diagram_triple`).  For x = 1, 3, 5, case x.1 (2^r)
is case x.3 (2^r, -2^s) with s = 0 and case x.2 (-2^r) is x.3 with r = 0,
so only the x.3 formulas are written down.  Only the signed partitions and
expected dimensions of cases 1.5 and 1.7 use the mirror rule: they are
1.4 and 1.6 of the pair with p and q (and r and s) exchanged.  Cases 2.y
and 4.y share one table in dim V = 2n-1 or 2n-2.

A realization keeps only the k- and p-bases; the Borel subalgebra b and
its opposite nilradical n- are read off the k-basis; membership in k and p
is an elimination against the bases.  The central cocharacter zeta
(= m omega_p^vee, kept as its diagonal) acts with eigenvalues +m on p1 and
-m on p2; it only gives the bicone charges.  h is diagonal too, so every
ad(h) and ad(zeta) bracket is read off the diagonals with
`diagonal_weights`.

Every basis element is a matrix unit or a signed pair of them, so the
verification kernels work on a sparse form, a dict {(i, j): v} of the
nonzero entries.  Every bracket [x, b] goes through one indexed ad(x),
`_ad`, and every other product through `_mul`.  `MatrixTriple` keeps
dense matrices and, once first used, their sparse forms and (dim K_e,
dim Ke); only `jordan_type`, which takes a bare matrix, converts its own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from . import linalg
from .hermitian import (SLPQ, SO_EVEN_GL, SO_EVEN_VECTOR, SO_ODD, SP,
                        SymmetricPairSpec, parse_pair_key)


@dataclass(frozen=True)
class OrbitRecord:
    pair: SymmetricPairSpec
    case_id: str
    params: tuple = ()
    variant: str = ""

    def orbit_id(self):
        params = ",".join(f"{k}={v}" for k, v in self.params)
        parts = [self.pair.key(), self.case_id, params]
        if self.variant:
            parts.append(self.variant)
        return "/".join(parts)

    def signed_partition(self):
        """(part, sign, multiplicity) of each row length of the signed Young
        diagram, zero multiplicities left out, by length descending and `+`
        first; `_diagram_triple` places the chains in this row order."""
        case, r, s = _two_sided(self)
        n = self.pair.rank
        family = self.pair.family_id
        if family == SLPQ:
            case, p, q, r, s, mirrored = _slpq_formula(self)
            rows = {
                "1.3": [(2, "+", r), (2, "-", s), (1, "+", p - r - s), (1, "-", q - r - s)],
                "1.4": [(3, "+", 2), (1, "+", p - 4)],
                "1.6": [(3, "+", 1), (2, "+", r), (2, "-", s),
                        (1, "+", p - r - s - 2), (1, "-", q - r - s - 1)],
            }[case]
            if mirrored:   # signs exchanged, rows back in (length down, + first) order
                flip = {"+": "-", "-": "+"}
                rows = sorted(((a, flip[sg], m) for a, sg, m in rows),
                              key=lambda row: (-row[0], row[1]))
        elif family in (SO_ODD, SO_EVEN_VECTOR):
            v = 2 * n - (1 if family == SO_ODD else 2)  # dim V
            rows = {
                "1": [(2, "+", 2), (1, "+", v - 2)],
                "2": [(3, "+", 1), (1, "+", v - 2), (1, "-", 1)],
                "3": [(3, "-", 1), (1, "+", v - 1)],
                "4": [(3, "+", 2), (1, "+", v - 4)],
            }[case.split(".")[1]]
        elif family == SP:
            rows = [(2, "+", r), (2, "-", s), (1, "+", 2 * n - 2 * r - 2 * s)]
        elif case == "5.3":
            rows = [(2, "+", r), (2, "-", s), (1, "+", n - 2 * r - 2 * s)]
        else:
            rows = [(3, "+", 1), (1, "+", n - 3)]
        return tuple((a, sg, m) for a, sg, m in rows if m > 0)


def _two_sided(rec):
    """(case, r, s) of the formulas that cover the record.

    For x = 1, 3, 5, case x.1 (2^r) is case x.3 (2^r, -2^s) with s = 0 and
    case x.2 (-2^r) is x.3 with r = 0; every other record keeps its case."""
    pm = dict(rec.params)
    r, s = pm.get("r", 0), pm.get("s", 0)
    family, sub = rec.case_id.split(".")
    if family in ("1", "3", "5") and sub in ("1", "2"):
        r, s = (r, 0) if sub == "1" else (0, r)
        return f"{family}.3", r, s
    return rec.case_id, r, s


def _slpq_formula(rec):
    """(case, p, q, r, s, mirrored): the 1.3, 1.4 or 1.6 formula that covers
    an SL(p+q) record and the parameters it reads.  Cases 1.5 and 1.7 mirror
    1.4 and 1.6: they read p, q, r, s exchanged."""
    case, r, s = _two_sided(rec)
    p, q = rec.pair.pq
    if case in ("1.5", "1.7"):
        return {"1.5": "1.4", "1.7": "1.6"}[case], q, p, s, r, True
    return case, p, q, r, s, False


@dataclass(frozen=True)
class MatrixTriple:
    h: tuple
    e: tuple
    f: tuple
    record: OrbitRecord

    @property
    def realization(self):
        return realization(self.record.pair)

    @cached_property
    def sparse(self):
        """(h, e, f) in the sparse form, converted on first use and kept."""
        return tuple(_sparse(m) for m in (self.h, self.e, self.f))

    @cached_property
    def centralizer_dims(self):
        """`centralizer_dim`, computed on first use and kept with the triple."""
        real = self.realization
        ad_e = _ad(self.sparse[1])
        orbit = linalg.rank([real.p_coords(ad_e(x)) for x in real.k_basis])
        return real.k_dim - orbit, orbit


def parse_orbit_id(orbit_id):
    parts = orbit_id.split("/")
    if len(parts) not in (3, 4):
        raise ValueError(f"bad orbit id {orbit_id!r}")
    pair = parse_pair_key(parts[0])
    case_id = parts[1]
    params = ()
    if parts[2]:
        try:
            params = tuple((k, int(v)) for k, v in
                           (chunk.split("=") for chunk in parts[2].split(",")))
        except ValueError:
            raise ValueError(f"bad orbit id {orbit_id!r}: parameters must read "
                             "name=int,...") from None
    variant = parts[3] if len(parts) == 4 else ""
    rec = OrbitRecord(pair, case_id, params, variant)
    _check_catalogued(rec, orbit_id)
    return rec


def _check_catalogued(rec, orbit_id):
    """ValueError unless the record is one of `list_orbits(rec.pair)`."""
    if rec not in list_orbits(rec.pair):
        raise ValueError(f"unknown orbit {orbit_id!r}")


def _dense(x, n):
    """The n x n matrix, as nested tuples, with the entries of the sparse x."""
    return tuple(tuple(x.get((i, j), 0) for j in range(n)) for i in range(n))


def _sparse(m):
    """The nonzero entries {(i, j): v} of a dense matrix."""
    return {(i, j): v for i, row in enumerate(m) for j, v in enumerate(row) if v}


def _reduced(x, p):
    """x without its zero entries, reduced mod p when p is given."""
    if p:
        return {ij: v % p for ij, v in x.items() if v % p}
    return {ij: v for ij, v in x.items() if v}


def _add(a, b, c=1):
    """a + c b for sparse matrices over Z."""
    out = dict(a)
    for ij, v in b.items():
        out[ij] = out.get(ij, 0) + c * v
    return _reduced(out, None)


def _mul(a, b, p=None):
    """The product ab of sparse matrices, over Z or over GF(p)."""
    rows = {}
    for (k, j), v in b.items():
        rows.setdefault(k, []).append((j, v))
    out = {}
    for (i, k), u in a.items():
        for j, v in rows.get(k, ()):
            out[i, j] = out.get((i, j), 0) + u * v
    return _reduced(out, p)


def _ad(x, p=None):
    """ad(x): b -> [x, b] = xb - bx on sparse matrices, over Z or over GF(p).

    The rows and columns of x are indexed once; each bracket is then one
    pass over the entries of b."""
    rows, cols = {}, {}
    for (i, j), v in x.items():
        rows.setdefault(i, []).append((j, v))
        cols.setdefault(j, []).append((i, v))

    def ad(b):
        out = {}
        for (k, l), u in b.items():
            for i, v in cols.get(k, ()):      # (xb)_il += x_ik b_kl
                out[i, l] = out.get((i, l), 0) + v * u
            for j, v in rows.get(l, ()):      # (bx)_kj += b_kl x_lj
                out[k, j] = out.get((k, j), 0) - u * v
        return _reduced(out, p)

    return ad


def diagonal_weights(d, x):
    """{d_i - d_j : x_ij != 0} for the diagonal d of a diagonal matrix D
    and a sparse matrix x.

    ad(D) x has entries (d_i - d_j) x_ij, so these are the ad(D)-weights
    of the parts of x, and x is an ad(D)-eigenvector iff there is one.
    """
    return {d[i] - d[j] for i, j in x}


def _diagonal(h):
    """The diagonal of h; ValueError if h has an off-diagonal entry."""
    if any(v for i, row in enumerate(h) for j, v in enumerate(row) if i != j):
        raise ValueError("h is not diagonal")
    return [row[i] for i, row in enumerate(h)]


# ---------------------------------------------------------------------------
# Realizations


class Realization:
    """Concrete matrix model of one Hermitian pair: the k- and p-bases in
    the sparse form, zeta and the dimension of the defining representation.

    Each basis element has entry +-1 at its first nonzero position in
    row-major order (its anchor), and no later element of k_basis + p_basis
    is nonzero there.  The Borel and minus lists are the k-basis elements
    anchored on or above and strictly below the diagonal, and membership of
    a sparse matrix in k or p is one elimination.
    """

    def __init__(self, spec):
        self.spec = spec
        if spec.family_id == SLPQ:
            self._init_slpq()
        elif spec.family_id in (SO_ODD, SO_EVEN_VECTOR):
            self._init_so_vector()
        else:
            self._init_gl_block()
        self.k_dim = len(self.k_basis)
        anchors = [min(b) for b in self.k_basis]
        self.borel_basis = [b for b, (i, j) in zip(self.k_basis, anchors) if i <= j]
        self.minus_basis = [b for b, (i, j) in zip(self.k_basis, anchors) if i > j]
        # p-basis elements have pairwise disjoint supports and entry 1 at
        # their anchor, so a p-element's entry there is its coordinate, over
        # Z and over GF(p) alike.
        assert all(b[min(b)] == 1 for b in self.p_basis)
        self._anchor_index = {min(b): k for k, b in enumerate(self.p_basis)}

    # --- SL(p+q) -----------------------------------------------------------
    def _init_slpq(self):
        p, q = self.spec.pq
        n = p + q
        self.dim = n
        kb = []
        for lo, hi in ((0, p), (p, n)):
            for a in range(lo, hi):
                for b in range(lo, hi):
                    if a != b:
                        kb.append({(a, b): 1})
        for i in range(n - 1):
            kb.append({(i, i): 1, (i + 1, i + 1): -1})
        self.k_basis = kb
        self.p_basis = ([{(a, p + b): 1} for a in range(p) for b in range(q)]
                        + [{(p + b, a): 1} for a in range(p) for b in range(q)])
        # zeta = m * omega_p^vee: integral because m clears the denominators.
        assert (self.spec.m * q) % n == 0 and (self.spec.m * p) % n == 0
        self.zeta = (self.spec.m * q // n,) * p + (-self.spec.m * p // n,) * q

    # --- SO(2n+1) and SO(2n), vector cases ----------------------------------
    def _init_so_vector(self):
        n = self.spec.rank
        odd = self.spec.family_id == SO_ODD
        labels = list(range(1, n)) + ([0] if odd else []) + list(range(-n + 1, 0))
        self.v_labels = labels
        self.v_pos = {lab: i for i, lab in enumerate(labels)}
        nv = len(labels)
        self.nv = nv
        self.dim = nv + 2
        kb = []
        # so(V) for the antidiagonal Gram: J * (skew matrices).
        for a in range(nv):
            for b in range(a + 1, nv):
                kb.append({(nv - 1 - a, b): 1, (nv - 1 - b, a): -1})
        kb.append({(nv, nv): 1, (nv + 1, nv + 1): -1})
        self.k_basis = kb
        self.p_basis = [self.p_elem({lab: 1}, s) for s in (-1, 1) for lab in labels]
        self.zeta = (0,) * nv + (self.spec.m, -self.spec.m)

    def p_elem(self, coeffs, w_label):
        """Element sum_a c_a e_a (x) phi'_{w_label} of p (every c_a nonzero),
        as a sparse matrix."""
        nv = self.nv
        m = {}
        wcol = nv if w_label == 1 else nv + 1
        dual_row = nv if w_label == -1 else nv + 1  # beta'-dual of phi'_w is e'_{-w}
        for lab, c in coeffs.items():
            m[self.v_pos[lab], wcol] = c
            m[dual_row, self.v_pos[-lab]] = -c
        return m

    # --- Sp(2n) and SO(2n)/GL(n) ---------------------------------------------
    def _init_gl_block(self):
        n = self.spec.rank
        self.dim = 2 * n
        sym = self.spec.family_id == SP
        kb = []
        for a in range(n):
            for b in range(n):
                kb.append({(a, b): 1, (n + b, n + a): -1})
        self.k_basis = kb
        pb = []
        for upper in (True, False):
            for a in range(n):
                for b in range(a, n) if sym else range(a + 1, n):
                    # E_ab +- E_ba in the block; for a == b, just E_aa
                    pb.append(_embed({(a, b): 1, (b, a): 1 if sym else -1}, n, upper))
        self.p_basis = pb
        half = self.spec.m // 2  # ad(zeta) = +-m on the S/T blocks
        self.zeta = (half,) * n + (-half,) * n

    # --- structural membership ------------------------------------------------
    def in_k(self, x):
        return _in_span(x, self.k_basis)

    def in_p(self, x):
        return _in_span(x, self.p_basis)

    def p_coords(self, x):
        """Coordinates of a sparse p-element in the p-basis as a sparse row
        {index: value}, read off at the anchor entries (reduced mod p when x
        is); correctness is re-checked in the test suite by reconstructing
        the matrix.
        """
        index = self._anchor_index
        return {index[ij]: v for ij, v in x.items() if ij in index}


def _in_span(x, basis):
    """Whether the sparse x lies in the span of the basis.

    Each element has entry +-1 at its anchor and no later element is
    nonzero there, so subtracting each element in turn, scaled to clear
    its anchor, leaves 0 exactly when x is in the span."""
    for b in basis:
        ij = min(b)
        if x.get(ij):
            x = _add(x, b, -x[ij] * b[ij])
    return not x


_REALIZATIONS = {}


def realization(spec):
    if spec not in _REALIZATIONS:
        _REALIZATIONS[spec] = Realization(spec)
    return _REALIZATIONS[spec]


# ---------------------------------------------------------------------------
# Case catalog

def _list_two_sided(pair, family, top, cap):
    """Cases x.1 (2^r), x.2 (-2^r) and x.3 (2^r, -2^s) of family x = 1, 3, 5:
    r, s >= 1 up to the cap, with r + s <= top."""
    rng = range(1, min(top, cap or top) + 1)
    return ([OrbitRecord(pair, f"{family}.{sub}", (("r", r),)) for r in rng for sub in "12"]
            + [OrbitRecord(pair, f"{family}.3", (("r", r), ("s", s)))
               for r in rng for s in rng if r + s <= top])


def list_orbits(pair, max_params=None):
    """All catalogued orbit records valid for the pair, with every case
    parameter at most max_params when a cap is given."""
    if max_params is not None and max_params < 1:
        raise ValueError(f"--max-params must be at least 1, got {max_params}")
    family = pair.family_id
    if family in (SO_ODD, SO_EVEN_VECTOR):
        base = "2" if family == SO_ODD else "4"
        return [OrbitRecord(pair, f"{base}.{sub}", (), variant)
                for sub, variant in (("1", "I"), ("1", "II"), ("2", ""),
                                     ("3", "I"), ("3", "II"), ("4", ""))]
    if family == SP:
        return _list_two_sided(pair, "3", pair.rank, max_params)
    if family == SO_EVEN_GL:   # 2r + 2s <= n, that is r + s <= n // 2
        return _list_two_sided(pair, "5", pair.rank // 2, max_params) + [OrbitRecord(pair, "5.4")]
    p, q = pair.pq
    recs = _list_two_sided(pair, "1", min(p, q), max_params)
    if q == 2 and p >= 4:
        recs.append(OrbitRecord(pair, "1.4"))
    if p == 2 and q >= 4:
        recs.append(OrbitRecord(pair, "1.5"))
    top = max(p, q)   # no valid r or s exceeds it, whatever the cap
    sides = range(min(max_params or top, top) + 1)
    for r in sides:
        for s in sides:
            if r + s + 2 <= p and r + s + 1 <= q:
                recs.append(OrbitRecord(pair, "1.6", (("r", r), ("s", s))))
            if r + s + 1 <= p and r + s + 2 <= q:
                recs.append(OrbitRecord(pair, "1.7", (("r", r), ("s", s))))
    return recs


# Cases with max{n : (ad e)^n p != 0} equal to 3; all others give 2.  The
# values are per-case constants, independent of the parameters.
HEIGHT_THREE_CASES = {"1.4", "1.5", "1.6", "1.7", "2.4", "4.4", "5.4"}


def expected_p_height(rec):
    return 3 if rec.case_id in HEIGHT_THREE_CASES else 2


def expected_dims(rec):
    """(dim L = dim K_h, dim L_e, unipotent deficit of K_e inside Q^u)."""
    c, r, s = _two_sided(rec)
    n = rec.pair.rank
    family = rec.pair.family_id
    if family == SLPQ:
        c, p, q, r, s, _ = _slpq_formula(rec)
        if c == "1.3":
            return (2 * r * r + 2 * s * s + (p - r - s) ** 2 + (q - r - s) ** 2 - 1,
                    r * r + s * s + (p - r - s) ** 2 + (q - r - s) ** 2 - 1, 0)
        if c == "1.4":
            return ((p - 4) ** 2 + 11, (p - 4) ** 2 + 3, 0)
        return (2 * r * r + 2 * s * s + (p - r - s - 2) ** 2 + (q - r - s) ** 2 + 1,
                r * r + s * s + (p - r - s - 2) ** 2 + (q - r - s - 1) ** 2,
                r + s)
    if family in (SO_ODD, SO_EVEN_VECTOR):
        v = 2 * n - (1 if family == SO_ODD else 2)  # dim V
        so = lambda k: k * (k - 1) // 2
        return {
            "1": (2 + so(v - 2), 1 + so(v - 2), 0),
            "2": (2 + so(v - 2), so(v - 2), 0),
            "3": (1 + so(v), so(v - 1), 0),
            "4": (5 + so(v - 4), 1 + so(v - 4), 0),
        }[c.split(".")[1]]
    if family == SP:
        o = lambda k: k * (k - 1) // 2
        return (r * r + s * s + (n - r - s) ** 2,
                o(r) + o(s) + (n - r - s) ** 2, 0)
    sp = lambda k: k * (2 * k + 1)
    if c == "5.3":
        return (4 * r * r + 4 * s * s + (n - 2 * r - 2 * s) ** 2,
                sp(r) + sp(s) + (n - 2 * r - 2 * s) ** 2, 0)
    return (2 + (n - 2) ** 2, 1 + (n - 3) ** 2, 0)


# ---------------------------------------------------------------------------
# Triple construction

def _diagram_triple(p, q, rows):
    """(h diagonal, e, f) on C^p + C^q for an SU(p, q) signed Young diagram,
    rows (length, sign of the head, multiplicity) as `signed_partition`
    lists them.

    Each row of length a is one Jordan chain whose members alternate
    between C^p (+) and C^q (-) from the head's sign, with h-weights a-1,
    a-3, ...; e sends member j+1 to member j and f sends member j to j+1
    with coefficient (j+1)(a-1-j).  Inside C^p and inside C^q the vectors
    go by h descending and, within one h level, the rows of length 1 first,
    then the chain members in row order."""
    chains = [(a, sg) for a, sg, m in rows for _ in range(m)]
    # (in C^q, -h, row length > 1, row k, member j), sorted into basis order
    members = sorted(((sg == "+") != (j % 2 == 0), 2 * j + 1 - a, a > 1, k, j)
                     for k, (a, sg) in enumerate(chains) for j in range(a))
    assert len(members) == p + q and sum(not x[0] for x in members) == p
    pos = {(k, j): i for i, (*_, k, j) in enumerate(members)}
    e, f = {}, {}
    for k, (a, _) in enumerate(chains):
        for j in range(a - 1):
            e[pos[k, j], pos[k, j + 1]] = 1
            f[pos[k, j + 1], pos[k, j]] = (j + 1) * (a - 1 - j)
    return [-x[1] for x in members], e, f


def _build_so_vector(rec, real):
    case = rec.case_id.split(".")[1]
    var = rec.variant
    pe = real.p_elem
    hv = {}
    if case == "1":
        e = pe({1: 1}, -1 if var == "I" else 1)
        f = pe({-1: -1}, 1 if var == "I" else -1)
        hv = {1: 1, -1: -1}
        hw = (1, -1) if var == "I" else (-1, 1)
    elif case == "2":
        e = _add(pe({1: 1}, 1), pe({1: 1}, -1), -1)
        f = _add(pe({-1: 1}, 1), pe({-1: 1}, -1), -1)
        hv = {1: 2, -1: -2}
        hw = (0, 0)
    elif case == "3":
        if rec.pair.family_id == SO_ODD:
            e = pe({0: 1}, -1 if var == "I" else 1)
            f = pe({0: -2}, 1 if var == "I" else -1)
        else:
            nlab = real.spec.rank - 1
            vec = {nlab: 1, -nlab: -1}
            e = pe(vec, -1 if var == "I" else 1)
            f = pe(vec, 1 if var == "I" else -1)
        hw = (2, -2) if var == "I" else (-2, 2)
    else:
        e = _add(pe({1: 1}, -1), pe({2: 1}, 1), -1)
        f = _add(pe({-2: 2}, -1), pe({-1: 2}, 1), -1)
        hv = {1: 2, 2: 2, -1: -2, -2: -2}
        hw = (0, 0)
    return [hv.get(lab, 0) for lab in real.v_labels] + list(hw), e, f


def _embed(block, n, upper):
    """The sparse n x n block as the S-block (upper) or T-block of a 2n x 2n matrix."""
    r0, c0 = (0, n) if upper else (n, 0)
    return {(r0 + i, c0 + j): v for (i, j), v in block.items()}


def _sym_terms(pairs):
    """sum e_a e_b over (a, b) in pairs, as a sparse symmetric block.

    e_a e_b -> (E_ab + E_ba)/2: both orientations are counted and the
    counts halved, which the listed sums keep even."""
    m = {}
    for a, b in pairs:
        for ij in ((a - 1, b - 1), (b - 1, a - 1)):
            m[ij] = m.get(ij, 0) + 1
    assert all(v % 2 == 0 for v in m.values())
    return {ij: v // 2 for ij, v in m.items()}


def _wedge_terms(pairs, dual, scale=1):
    m = {}
    for a, b in pairs:
        if dual:
            a, b = b, a
        m = _add(m, {(a - 1, b - 1): scale, (b - 1, a - 1): -scale})
    return m


def _build_gl_block(rec):
    n = rec.pair.rank
    case, r, s = _two_sided(rec)
    hdiag = [0] * n
    if case in ("3.3", "5.3"):
        # 2^r on the first w r and -2^s on the last w s basis vectors, with
        # w = 1 for the symmetric blocks of Sp and w = 2 for the skew blocks
        # of SO/GL.  Dual-side pairs are (n-ws+i, n-i+1): the mirror image of
        # the 2^r pattern, and the unique choice compatible with the given h.
        sym = case == "3.3"
        w = 1 if sym else 2
        up_pairs = [(i, w * r - i + 1) for i in range(1, r + 1)]
        lo_pairs = [(n - w * s + i, n - i + 1) for i in range(1, s + 1)]

        def block(pairs, dual, upper):
            return _embed(_sym_terms(pairs) if sym else _wedge_terms(pairs, dual), n, upper)

        e = _add(block(up_pairs, False, True), block(lo_pairs, True, False))
        f = _add(block(up_pairs, True, False), block(lo_pairs, False, True))
        for i in range(w * r):
            hdiag[i] = 1
        for i in range(n - w * s, n):
            hdiag[i] = -1
    else:  # 5.4
        e = _add(_embed(_wedge_terms([(1, 2)], dual=False), n, True),
                 _embed(_wedge_terms([(2, n)], dual=True), n, False))
        f = _add(_embed(_wedge_terms([(1, 2)], dual=True, scale=2), n, False),
                 _embed(_wedge_terms([(2, n)], dual=False, scale=2), n, True))
        hdiag[0] = 2
        hdiag[n - 1] = -2
    return hdiag + [-x for x in hdiag], e, f


def build_triple(rec):
    """Matrices (h, e, f) for a catalogued record: read off its signed Young
    diagram for SL(p+q), from the case formulas for the other families."""
    _check_catalogued(rec, rec.orbit_id())
    real = realization(rec.pair)
    if rec.pair.family_id == SLPQ:
        hdiag, e, f = _diagram_triple(*rec.pair.pq, rec.signed_partition())
    elif rec.pair.family_id in (SO_ODD, SO_EVEN_VECTOR):
        hdiag, e, f = _build_so_vector(rec, real)
    else:
        hdiag, e, f = _build_gl_block(rec)
    h = {(i, i): v for i, v in enumerate(hdiag) if v}
    return MatrixTriple(_dense(h, real.dim), _dense(e, real.dim), _dense(f, real.dim), rec)


# ---------------------------------------------------------------------------
# Verification operations

def verify_triple(triple):
    """Exact checks of the normal-triple conditions; never raises."""
    h, e, f = triple.sparse
    real = triple.realization
    ad_h = _ad(h)
    sl2 = (ad_h(e) == _add({}, e, 2)
           and ad_h(f) == _add({}, f, -2)
           and _ad(e)(f) == h)
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
    return triple.centralizer_dims


# The trial primes, fastest first.  Below 2^30 every residue is one CPython
# digit; a prime above the matrix size keeps k! invertible in `_exp_pair_modp`.
_FAST_PRIME = (1 << 30) - 35
_TRIAL_PRIME = (1 << 61) - 1
_TRIALS = 4


def _exp_pair_modp(m, dim, p):
    """(exp(m), exp(-m)) mod p for a nilpotent sparse dim x dim matrix m."""
    g = {(i, i): 1 for i in range(dim)}
    ginv, term, fact = dict(g), g, 1
    for k in range(1, dim + 1):
        term = _mul(term, m, p)
        if not term:
            break
        fact = fact * k % p
        c = pow(fact, -1, p)
        for ij, v in term.items():
            g[ij] = (g.get(ij, 0) + c * v) % p
            ginv[ij] = (ginv.get(ij, 0) + (-c if k % 2 else c) * v) % p
    return g, ginv


def _generic_borel_rank_modp(triple, rng, p):
    """dim(b.x) mod p at x = exp(N-) e, for a pseudo-random N- in n-.

    Reduction mod p can only lower a rank, so reaching the orbit dimension
    certifies it exactly."""
    real = triple.realization
    nil = {}
    for b in real.minus_basis:
        c = rng.randint(1, 9)
        for ij, v in b.items():
            nil[ij] = nil.get(ij, 0) + c * v
    g, ginv = _exp_pair_modp(_reduced(nil, None), real.dim, p)
    x = _mul(_mul(g, triple.sparse[1], p), ginv, p)
    ad_x = _ad(x, p)
    return linalg.rank([real.p_coords(ad_x(b)) for b in real.borel_basis], p)


def is_spherical(triple):
    """Open-Borel-orbit test: dim(b.x) = dim Kx at a generic orbit point.

    The raw case representatives need not be in general position w.r.t. the
    fixed Borel (any Borel gives the same answer), so dim(b.x) is measured
    modulo a prime at x = exp(N-) e for pseudo-random N- in n-: with B these
    fill the big cell, and [b, Ad(u)x] = Ad(u)[b, x] for u in B.  The
    _TRIALS points are tried mod _FAST_PRIME = 2^30 - 35 first and, only if
    none reaches dim Kx there, again mod _TRIAL_PRIME = 2^61 - 1; the rng
    is seeded afresh for each prime, so both try the same points.

    True is certified exactly: both primes exceed the matrix size, so the k!
    of exp(N-) are units and x has a reduction mod p; its rank mod p is at
    most the rank over Q, which is at most dim Kx, so a trial that reaches
    dim Kx proves the Borel orbit of that point open.  False is one-sided:
    none of the _TRIALS points reached dim Kx mod 2^61 - 1, which for a
    spherical orbit happens only if every point lands on the proper closed
    subset where the rank mod that prime drops.
    """
    dim = triple.centralizer_dims[1]
    for p in (_FAST_PRIME, _TRIAL_PRIME):
        rng = random.Random(0x5EED)
        if any(_generic_borel_rank_modp(triple, rng, p) == dim for _ in range(_TRIALS)):
            return True
    return False


def p_height(triple):
    """max n with (ad e)^n p != 0, by iterated exact bracketing.

    ValueError if e is not nilpotent: a nilpotent e in gl(N) has
    (ad e)^(2N-1) = 0.
    """
    real = triple.realization
    ad_e = _ad(triple.sparse[1])
    best = 0
    for y in real.p_basis:
        n = 0
        while y:
            if n == 2 * real.dim - 1:
                raise ValueError("e is not nilpotent: (ad e)^(2N-1) p != 0")
            y = ad_e(y)
            n += 1
        best = max(best, n - 1)
    return best


def jordan_type(e):
    """Partition of the Jordan type of a nilpotent matrix, largest part first.

    ValueError if e is not nilpotent: a nilpotent N x N matrix has e^N = 0.
    """
    n = len(e)
    ranks = [n]
    e = power = _sparse(e)
    while power:
        if len(ranks) == n:
            raise ValueError("e is not nilpotent: e^N != 0")
        rows = {}
        for (i, j), v in power.items():
            rows.setdefault(i, {})[j] = v
        ranks.append(linalg.rank(list(rows.values())))
        power = _mul(power, e)
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
    """Lie-level bicone data: the central charges (+m, -m) of e."""
    real = triple.realization
    m = real.spec.m
    zeta_weights = diagonal_weights(real.zeta, triple.sparse[1])
    charges = tuple(c if c in zeta_weights else None for c in (m, -m))
    return {
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
        "spherical": is_spherical(triple),
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
